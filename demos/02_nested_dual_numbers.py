"""Iterated tangent spaces as nested dual numbers, exactly.

Applying the tangent functor to a polynomial map is forward-mode
differentiation with exact rational coefficients; applying it n times
gives maps on R^{m 2^n}, whose coordinates are indexed by subsets of
tangent levels.  All structural maps are polynomial maps, and the
tangent-category axioms are verified as exact polynomial identities.

Run me:  python3 demos/02_nested_dual_numbers.py
"""

from fractions import Fraction

from sectorforms import (
    FinMap,
    Poly,
    PolyMap,
    TangentCoords,
    canonical_flip,
    compose_polymap,
    flip_whisker,
    realize_surjection,
    tangent_of_map,
    verify_tangent_axioms,
    vertical_lift,
)

# -- the tangent functor is exact forward-mode differentiation -----------

x = Poly.var(1, 0)
square = PolyMap(1, 1, (x * x,))
print("f(x) = x^2")
print("Tf   =", tangent_of_map(square), "   # (x^2, 2 x v)")
print("T2f  =", tangent_of_map(tangent_of_map(square)))

# evaluate: the second component carries the derivative
print("Tf(3, 1) =", tangent_of_map(square)((Fraction(3), Fraction(1))))

# -- coordinates of T^n R^m are indexed by subsets of levels -------------

tc = TangentCoords(1, 3)
print("\nT^3 R coordinate order:", [tc.name(i) for i in range(tc.size)])

# -- structural maps in those coordinates --------------------------------

print("\nvertical lift at R:  ", vertical_lift(1), "  # (x,v) -> (x,0,0,v)")
print("canonical flip at R: ", canonical_flip(1), "  # swaps the middle two")

# whiskered flips on T^3 R reproduce the two level swaps
print("swap levels 2,3:", flip_whisker(1, 3, 1))
print("swap levels 1,2:", flip_whisker(1, 3, 2))

# -- surjections of cardinals act on iterated tangent spaces -------------

merge = FinMap(2, 1, (1, 1))
print("\nthe merge 2 -> 1 acts as the vertical lift:",
      realize_surjection(merge, 1) == vertical_lift(1))

twist = FinMap(2, 2, (2, 1))
action = realize_surjection(twist, 1)
print("the swap 2 -> 2 acts as the canonical flip:", action == canonical_flip(1))

# contravariance: acting by a composite composes the other way round
from sectorforms import compose_finmap
u = FinMap(3, 2, (1, 1, 2))   # merge 1,2 inside 3
w = merge                     # then merge 2 -> 1
comp = compose_polymap(realize_surjection(w, 1), realize_surjection(u, 1))
print("contravariant composite agrees:",
      realize_surjection(compose_finmap(u, w), 1) == comp)

# -- every axiom, machine-checked exactly --------------------------------

report = verify_tangent_axioms(1, depth=3)
print(f"\ntangent axioms at R: {report.checked} instances,",
      "all pass" if report.ok else report.failures)
