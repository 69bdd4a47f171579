"""Command-line front end: verification sweeps, factorization, operator
application, and cohomology reports, all JSON in / JSON out.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
guard.  The JSON report goes to --out when given and to stdout
otherwise; a one-line human summary always goes to stderr.  Identical
requests produce byte-identical JSON.  No domain logic lives here.
An --out path that cannot be written is an input error, told on stdout.
A numeric argument below its range is the input error "bad-argument",
found before any work; an error inside the library is not an input
error and propagates as itself.

The argument parsers are built once per process and reused by every
`main` call, since argparse keeps no state between `parse_args` calls.
`main` reads argv once: a known command's own parser reads the
arguments after the command name, and the top-level parser answers
help, a missing or unknown command, and arguments the command does not
recognize, with the same usage lines and exit codes as a parse through
the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .cohomology import SizeError, complex_report, partition_basis
from .fincard import GenWord, check_relations, factor_map, factor_surjection
from .jsonio import InputFormatError, JsonSyntaxError
from .sector import (SectorForm, apply_cardinal_map, coface, exterior_derivative,
                     multilinearity_failures)
from .tangent import verify_tangent_axioms

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class CommandError(Exception):
    """An input problem with a machine-readable code."""

    def __init__(self, code: str, detail: str, status: int = EXIT_INPUT):
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.status = status


def _emit(payload: dict | SectorForm | GenWord, out_path: str | None, summary: str,
          status: int) -> int:
    """Write the report and its summary; returns status, or the input-error
    status after reporting on stdout that out_path cannot be written.
    Forms and words go to `jsonio.dumps` as they are, which writes their
    wire formats."""
    text = jsonio.dumps(payload)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            detail = f"cannot write {out_path}: {err}"
            return _emit({"error": "bad-output", "detail": detail}, None, f"error: {detail}",
                         EXIT_INPUT)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return status


# the least legal value of each numeric argument, by its dest name
_FLOORS = {"max_n": 2, "dim": 1, "depth": 1, "deg": 0, "levels": 0, "n": 0,
           "cap_n": 0, "cap_dim": 0, "cap_depth": 0, "cap_deg": 0, "cap_levels": 0,
           "max_candidates": 0}


def _check_ranges(args) -> None:
    for name, floor in _FLOORS.items():
        value = getattr(args, name, floor)
        if value < floor:
            flag = "--" + name.replace("_", "-")
            raise CommandError("bad-argument", f"{flag} must be at least {floor}, got {value}")


def _guard(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CommandError("resource-guard",
                           f"{what}={value} exceeds the cap of {cap}; raise the cap explicitly",
                           EXIT_GUARD)


# the most exponent entries an operator's output may hold: each input term
# gives output tuples of m << degree entries, and the degree is at most --cap-n
_MAX_ENTRIES = 1 << 20

# the most bits of a zero output's flat dimension m << degree; at 2048 bits
# it has at most 617 digits, under the least int-to-str limit Python allows
_MAX_ZERO_DIM_BITS = 2048


def _guard_output(form: SectorForm, degree: int, passes: int, width: int, args) -> None:
    """Bound an operator's output before it is built: its degree by
    --cap-n, its input terms times the m << degree exponent entries of
    each output tuple by `_MAX_ENTRIES`, and its coefficients, after
    `passes` coface passes of `width` cofaces, by the int-to-str limit
    (the reader sums repeated exponents, so even 0 passes can pass it).
    A zero form builds no tuple, so it passes at any degree whose
    m << degree stays writable.  Written over the lcm of their
    denominators, a component's T coefficients have numerators summing
    to under 2^(bits(T) + most numerator bits + all denominator bits);
    a pass multiplies that sum by at most the term degree times `width`."""
    if form.is_zero:
        _guard(form.m.bit_length() + degree, _MAX_ZERO_DIM_BITS, "bits of m << output degree")
        return
    _guard(degree, args.cap_n, "output degree")
    terms = sum(len(comp.terms) for comp in form.body.components)
    _guard(terms * (form.m << degree), _MAX_ENTRIES, "terms x exponent entries")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if not limit:
        return
    coeffs = [comp.terms.values() for comp in form.body.components]
    bits = max(len(cs).bit_length() + max([c.numerator.bit_length() for c in cs], default=0)
               + sum([c.denominator.bit_length() for c in cs]) for cs in coeffs)
    top = max(sum(exp) for comp in form.body.components for exp in comp.terms)
    digits = (bits + passes * (top * width).bit_length()) * 30103 // 100000 + 1
    if digits > limit:
        raise CommandError("resource-guard", f"an output coefficient may have {digits} digits, "
                           f"over Python's int-to-str limit of {limit}", EXIT_GUARD)


def _load_form(path: str):
    form = jsonio.sectorform_from_dict(jsonio.load_json_file(path))
    bad = multilinearity_failures(form)
    if bad:
        raise CommandError("invalid-form",
                           f"input is not a sector form; linearity fails at {list(bad)}")
    return form


def _cmd_verify_relations(args) -> int:
    _guard(args.max_n, args.cap_n, "max-n")
    reports = check_relations(args.max_n)
    total = sum(len(r.failures) for r in reports)
    payload = {
        "max_n": args.max_n,
        "families": [jsonio.relation_report_to_dict(r) for r in reports],
        "total_failures": total,
    }
    checked = sum(r.checked for r in reports)
    return _emit(payload, args.out,
                 f"{len(reports)} families, {checked} instances, {total} failures",
                 EXIT_OK if total == 0 else EXIT_VERIFICATION)


def _cmd_verify_axioms(args) -> int:
    _guard(args.dim, args.cap_dim, "dim")
    _guard(args.depth, args.cap_depth, "depth")
    rep = verify_tangent_axioms(args.dim, args.depth)
    payload = jsonio.relation_report_to_dict(rep)
    payload["dim"] = args.dim
    return _emit(payload, args.out,
                 f"{rep.checked} axiom instances at dim {args.dim}, {len(rep.failures)} failures",
                 EXIT_OK if rep.ok else EXIT_VERIFICATION)


def _cmd_factor(args) -> int:
    fmap = jsonio.finmap_from_dict(jsonio.load_json_file(args.infile))
    # the word length grows quadratically in dom and cod
    _guard(fmap.dom, args.cap_n, "dom")
    _guard(fmap.cod, args.cap_n, "cod")
    if args.gens == "surj":
        if len(set(fmap.table)) != fmap.cod:
            raise CommandError("invalid-input", "map is not surjective; use --gens full")
        word = factor_surjection(fmap)
    else:
        word = factor_map(fmap)
    return _emit(word, args.out,
                 f"factored {fmap.dom}->{fmap.cod} map into {len(word)} generators", EXIT_OK)


def _cmd_apply(args) -> int:
    form = _load_form(args.form)
    fmap = jsonio.finmap_from_dict(jsonio.load_json_file(args.map))
    if fmap.dom != form.n:
        raise CommandError("dimension-mismatch",
                           f"map leaves cardinal {fmap.dom}, form has degree {form.n}")
    _guard_output(form, fmap.cod, fmap.cod - len(set(fmap.table)), 1, args)
    result = apply_cardinal_map(form, fmap)
    return _emit(result, args.out,
                 f"degree {form.n} -> {result.n} along {list(fmap.table)}", EXIT_OK)


def _cmd_derive(args) -> int:
    form = _load_form(args.form)
    if args.position is not None and not 1 <= args.position <= form.n + 1:
        raise CommandError("dimension-mismatch", f"position must lie in 1..{form.n + 1}")
    _guard_output(form, form.n + 1, 1, 1 if args.position is not None else form.n + 1, args)
    if args.position is not None:
        result = coface(form, args.position)
        what = f"derivative in position {args.position}"
    else:
        result = exterior_derivative(form)
        what = "exterior derivative"
    return _emit(result, args.out,
                 f"{what}: degree {form.n} -> {result.n}"
                 + (", zero form" if result.is_zero else ""), EXIT_OK)


def _cmd_derham(args) -> int:
    _guard(args.dim, args.cap_dim, "dim")
    _guard(args.deg, args.cap_deg, "deg")
    _guard(args.levels, args.cap_levels, "levels")
    rep = complex_report(args.dim, args.deg, args.levels, args.max_candidates)
    payload = jsonio.complex_report_to_dict(rep)
    return _emit(payload, args.out,
                 f"H = {list(rep.cohomology)}, singular H = {list(rep.singular_cohomology)}, "
                 f"boundary squared zero: {rep.complex_verified}",
                 EXIT_OK if rep.complex_verified and rep.consistent() else EXIT_VERIFICATION)


def _cmd_sector_basis(args) -> int:
    _guard(args.dim, args.cap_dim, "dim")
    _guard(args.deg, args.cap_deg, "deg")
    _guard(args.n, args.cap_levels, "n")
    basis = partition_basis(args.n, args.dim, args.deg, args.max_candidates)
    payload = {
        "n": args.n, "m": args.dim, "d": args.deg,
        "dimension": len(basis),
        "basis": basis,
    }
    return _emit(payload, args.out,
                 f"sector {args.n}-forms on R^{args.dim} at degree {args.deg}: "
                 f"dimension {len(basis)}", EXIT_OK)


# each command's own parser, by command name; filled once by `build_parser`
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; each command's parser also goes into `_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="sectorforms",
        description="Exact sector-form calculus: verification sweeps, "
                    "factorization, operators, cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, about):
        p = _COMMANDS[name] = sub.add_parser(name, help=about)
        p.set_defaults(fn=fn)
        return p

    def common(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = command("verify-relations", _cmd_verify_relations, "sweep the presentation relations")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--cap-n", type=int, default=12)
    common(p)

    p = command("verify-axioms", _cmd_verify_axioms, "check the tangent-structure axioms")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--cap-dim", type=int, default=4)
    p.add_argument("--cap-depth", type=int, default=5)
    common(p)

    p = command("factor", _cmd_factor, "factor a map of finite cardinals into generators")
    p.add_argument("--in", required=True, dest="infile", help="FinMap JSON file")
    p.add_argument("--gens", choices=("surj", "full"), default="full")
    p.add_argument("--cap-n", type=int, default=64)
    common(p)

    p = command("apply", _cmd_apply, "act on a sector form by a map of cardinals")
    p.add_argument("--form", required=True, help="SectorForm JSON file")
    p.add_argument("--map", required=True, help="FinMap JSON file")
    p.add_argument("--cap-n", type=int, default=7)
    common(p)

    p = command("derive", _cmd_derive, "coface or full exterior derivative")
    p.add_argument("--form", required=True, help="SectorForm JSON file")
    p.add_argument("--position", type=int, default=None)
    p.add_argument("--cap-n", type=int, default=7)
    common(p)

    p = command("derham", _cmd_derham, "degree-bounded sector cohomology report")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--cap-dim", type=int, default=3)
    p.add_argument("--cap-deg", type=int, default=8)
    p.add_argument("--cap-levels", type=int, default=3)
    p.add_argument("--max-candidates", type=int, default=20000)
    common(p)

    p = command("sector-basis", _cmd_sector_basis, "basis of degree-bounded sector forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--cap-dim", type=int, default=3)
    p.add_argument("--cap-deg", type=int, default=8)
    p.add_argument("--cap-levels", type=int, default=4)
    p.add_argument("--max-candidates", type=int, default=20000)
    common(p)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:  # help, or a missing or unknown command: the parser exits
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:  # worded and exited as the top-level parse_args does
            parser.error("unrecognized arguments: " + " ".join(extra))
    out = getattr(args, "out", None)
    try:
        _check_ranges(args)
        return args.fn(args)
    except CommandError as err:
        code, detail, status = err.code, err.detail, err.status
    except SizeError as err:  # a basis guard in cohomology
        code, detail, status = "resource-guard", str(err), EXIT_GUARD
    except JsonSyntaxError as err:
        code, detail, status = "bad-json", str(err), EXIT_INPUT
    except InputFormatError as err:
        code, detail, status = "bad-format", str(err), EXIT_INPUT
    return _emit({"error": code, "detail": detail}, out, f"error: {detail}", status)


if __name__ == "__main__":
    sys.exit(main())
