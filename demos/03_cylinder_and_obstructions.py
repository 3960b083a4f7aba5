"""The cylinder algebra, homotopies, and obstruction classes.

Every homotopy question reduces to: can a partial homotopy on a
differential-closed set of generators be extended over the rest?  The
obstruction assigns one cohomology class per remaining generator; it
vanishes exactly when the extension exists, and a vanishing class hands
back explicit bar images.
"""

from dgalgebra import (
    Homotopy,
    Morphism,
    build_cylinder,
    compute_obstruction,
    corpus,
    decide_nullhomotopic,
    extend_to_homotopy,
    make_decomposition,
)
from dgalgebra.obstruction import Filtration
from dgalgebra.parser import parse_presentation

ex52 = parse_presentation(corpus.read("ex52.dga")).presentation
g = ex52.namespace()

print("the cylinder triples every generator: v, v@bar (one degree down), v@hat")
cyl = build_cylinder(ex52)
print("  cylinder generator count:", len(cyl.total.generators))
print("  d(z@bar) =", cyl.total.differential_image("z@bar"))

print("\nalpha moves between the two ends; on a cocycle it is v + v@hat:")
print("  alpha(x1) =", cyl.alpha(cyl.total.gen("x1")))
print("on a non-cocycle the correction term appears:")
xi = cyl.correction("y1")
print("  alpha(y1) - y1 - y1@hat =", xi)

print("\na self-map vanishing on the lower generators, with image d(...):")
correction = g.x2**5 * g.y1 * g.y2 - 2 * g.x1**6 * g.y1 * g.y3
images = {name: ex52.zero() for name in ex52.generator_names()}
images["z"] = ex52.d(correction)
f = Morphism(ex52, ex52, images)
print("  f(z) =", f.images["z"])
print("  chain map:", f.verified)

print("\nsplit the generators: V0 = everything except z, V1 = {z}")
split = make_decomposition(ex52, ["z"])
# a homotopy on V0 lives on the cylinder of ex52: its bars on V1 are zero
trivial_homotopy = Homotopy.constant(f)

value = compute_obstruction(f, Morphism.zero_map(ex52, ex52), trivial_homotopy, split)
print("  obstruction class at z:", value.classes["z"])
print("  vanishes:", value.is_zero())

print("\nsince it vanishes, the homotopy extends; its bar image on z:")
k = extend_to_homotopy(f, Morphism.zero_map(ex52, ex52), trivial_homotopy, split)
print("  bar(z) =", k.bar_images["z"])
assert ex52.d(k.bar_images["z"]) == -f.images["z"]

print("\nthe stage-wise decision automates this over any filtration:")
verdict = decide_nullhomotopic(f, Filtration.by_degree(ex52))
print("  f nullhomotopic:", verdict.nullhomotopic)

iota = Morphism.identity(ex52)
verdict = decide_nullhomotopic(iota, Filtration.by_degree(ex52))
print("  identity nullhomotopic:", verdict.nullhomotopic)
print(
    "  first obstructed stage:",
    verdict.failure.stage,
    "with class",
    verdict.failure.obstruction.classes["x1"],
)
