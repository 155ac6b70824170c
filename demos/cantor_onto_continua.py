"""Continuous surjections from the Cantor set onto continua, with
constraints on where clopen pieces land.

The Cantor set maps onto every compact metric space.  Here the concrete
instances are evaluable: feed in an address prefix, get back an exact
rational enclosure of the image, with a certified modulus of continuity.
On top of that, any assignment of disjoint clopen source blocks to clopen
target blocks is realized exactly: f(A_i) = B_i.

Run:  python demos/cantor_onto_continua.py
"""

from primchaos import (
    ClopenBlock,
    CantorMap,
    block_surjection,
    clopen_partition,
    evaluate_map,
    verify_block_surjection,
    verify_cover_map,
)
from primchaos.geometry import rational_str, region_doc
from primchaos.surject import evaluate_symbolic

# --- onto the interval: binary expansion ------------------------------------

print("=== Cantor set onto [0,1] ===")
f = CantorMap("binary_expansion")
for word in ["", "0", "01", "011", "0110"]:
    enc = evaluate_map(f, word)
    print(f"  prefix {word or '(empty)':>7} -> enclosure {region_doc(enc)}")
print(f"  depth-8 modulus: {rational_str(f.modulus(8))}")
rep = verify_cover_map(f, 12)
print(f"  depth-12 enclosures tile [0,1]: {rep.all_passed}")

# --- onto the square: interleaving ------------------------------------------

print("=== Cantor set onto the square ===")
g = CantorMap("interleave")
for word in ["", "11", "10", "1001"]:
    print(f"  prefix {word or '(empty)':>6} -> box {region_doc(evaluate_map(g, word))}")
print(f"  depth-12 tiling: {verify_cover_map(g, 12).all_passed}")

# --- clopen partitions of the Cantor set ------------------------------------

print("=== clopen partitions (any number of pieces) ===")
for n in (2, 3, 5):
    blocks = clopen_partition(n)
    print(f"  {n} pieces: {[b.cylinders for b in blocks]}")

# --- constrained surjections: f(A_i) = B_i ----------------------------------

print("=== block-constrained surjection ===")
blocks_a = [ClopenBlock(("0",)), ClopenBlock(("10",)), ClopenBlock(("11",))]
blocks_b = [ClopenBlock(("11",)), ClopenBlock(("0", "10")), ClopenBlock(("",))]
f = block_surjection(blocks_a, blocks_b)
print("constraints:")
for (a_blk, b_blk) in f.pairs:
    print(f"  A = cylinders {a_blk.cylinders} -> B = cylinders {b_blk.cylinders}")
print("sample evaluations (symbolic: address in, address out):")
for word in ["000", "001", "100", "110"]:
    print(f"  {word} -> {evaluate_symbolic(f, word)}")
rep = verify_block_surjection(f, blocks_a, blocks_b, depth=10)
print(f"f(A_i) subset B_i exactly and B_i covered at depth-10 modulus: "
      f"{rep.all_passed}")

# non-covering source blocks are padded with their clopen complement,
# which is sent onto the whole target
print("=== padding a non-covering constraint ===")
part_a = [ClopenBlock(("00",))]
part_b = [ClopenBlock(("1",))]
fp = block_surjection(part_a, part_b)
pad_block = fp.pairs[-1][0]
print(f"given only A = cyl 00, the complement {pad_block.cylinders} is "
      f"appended and mapped onto everything")
print(f"f(cyl 00) = {evaluate_symbolic(fp, '00')} (the required cyl 1, exactly)")
print(f"verification: {verify_block_surjection(fp, part_a, part_b, 10).all_passed}")

print("done: every image enclosure above is exact.")
