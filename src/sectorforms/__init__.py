"""Exact toolkit for finite-cardinal presentations, nested dual-number
tangent structure on Cartesian spaces, and the cosimplicial calculus of
sector forms, over rational arithmetic throughout."""

from .fincard import (
    DELTA,
    EPSILON,
    SIGMA,
    Classification,
    CompositionError,
    FinMap,
    GenWord,
    Generator,
    RelationReport,
    check_relations,
    classify,
    eval_word,
    factor_map,
    factor_surjection,
    generator_map,
    identity,
    monoidal_sum,
    probe_surjection,
    sigma_cycle,
)
from .fincard import compose as compose_finmap
from .poly import Poly, PolyMap, coordinate_map, identity_map, linear_map, zero_map
from .poly import compose as compose_polymap
from .tangent import (
    TangentCoords,
    bundle_projection,
    canonical_flip,
    fibre_addition,
    flip_whisker,
    origin_lift,
    principal_projection,
    realize_surjection,
    tangent_of_map,
    verify_tangent_axioms,
    vertical_lift,
    zero_section,
)
from .sector import (
    SectorForm,
    apply_cardinal_map,
    codegeneracy,
    coface,
    exterior_derivative,
    form_from_coefficients,
    fundamental_derivative,
    is_alternating,
    is_sector_form,
    line_one_form,
    line_two_form,
    multilinearity_failures,
    symmetry,
)
from .cohomology import (
    ComplexReport,
    SizeError,
    complex_report,
    sector_basis,
    singular_basis,
)

__version__ = "0.1.0"
