"""Building a Cantor set inside a Peano continuum, stage by stage.

Every nondegenerate Peano continuum contains a Cantor set.  The
construction is a nested refinement: pick two points, surround them with
two small disjoint subcontinua, and repeat inside each piece.  This script
builds the refinement for the three shipped continuum models and prints
the exact certificates for each finite stage.

Run:  python demos/cantor_in_continuum.py
"""

from fractions import Fraction as F

from primchaos import (
    build_refinement,
    check_stage_invariants,
    eval_ternary_address,
    evaluate_address,
    make_model,
)
from primchaos.geometry import diameter, rational_str, region_doc

# --- the unit interval ------------------------------------------------------

print("=== interval model ===")
tree = build_refinement(make_model("interval"), 4)

print("first two refinement stages (exact rational cells):")
for addr in ["", "0", "1", "00", "01", "10", "11"]:
    cell = evaluate_address(tree, addr)
    print(f"  cell {addr or 'root':>4}: {region_doc(cell)}")

# diameters shrink by a factor 4 per level, beating the required 1/3
print("cell diameters per level:")
for level in range(5):
    d = diameter(evaluate_address(tree, "0" * level))
    print(f"  level {level}: {rational_str(d)}")

# every stage certificate is exact: disjointness, shrink, perfectness
# witnesses, and closed complements (the clopen trace)
for level in range(5):
    rep = check_stage_invariants(tree, level)
    status = "all hold" if rep.all_passed else "FAILED"
    print(f"  stage invariants at level {level}: {status}")

# --- the unit square and the tripod ----------------------------------------

for kind in ("square", "tripod"):
    print(f"=== {kind} model ===")
    t = build_refinement(make_model(kind), 3)
    leaves = t.level(3)
    print(f"depth 3: {len(leaves)} disjoint cells, e.g.")
    for addr in leaves[:2]:
        print(f"  cell {addr}: {region_doc(t.cells[addr].region)}")
    rep = check_stage_invariants(t, 3)
    print(f"  stage invariants: {'all hold' if rep.all_passed else 'FAILED'}")

# --- addresses name limit points -------------------------------------------

# in the middle-third model, an address with a regular tail evaluates to an
# exact rational limit point
print("=== address -> limit point (middle-third model) ===")
for word, ext in [("0", "zeros"), ("1", "ones"), ("10", "repeat")]:
    x = eval_ternary_address(word, ext)
    print(f"  address {word} + {ext:>6}: {rational_str(x)}")

print("done: every certificate above was computed in exact arithmetic.")
