"""The commutative layer: weight projections, products, and the smash algebra."""

import random
from fractions import Fraction

from hclat import hecke, pbw, zforms

# p(lam) picks out the weight-lam component of a finitely supported vector
v = {0: Fraction(2), 1: Fraction(1), 4: Fraction(3)}
print("v:", v)
for lam in (0, 1, 2):
    print(f"  project to weight {lam}:", hecke.project(v, lam))
print()

# the projections are orthogonal idempotents under the componentwise product
x = hecke.hecke_mul(hecke.p(1), hecke.p(1))
y = hecke.hecke_mul(hecke.p(1), hecke.p(2))
print("p(1) * p(1) == p(1):", x == hecke.p(1))
print("p(1) * p(2) == 0:   ", y == {})
print()

# over an n-fold cyclic character lattice the weights fold mod n
lattice = hecke.cyclic(3)
w = {0: Fraction(1), 3: Fraction(1), -1: Fraction(1)}
folded = {}
for lam, c in w.items():
    key = lattice.normalize(lam)
    folded[key] = folded.get(key, 0) + c
print("cyclic(3) folds", w, "to", folded)
print()

# the residue projections split a vector, and the pieces sum back to v
rng = random.Random(7)
v = {rng.randint(-6, 6): Fraction(rng.randint(1, 4)) for _ in range(4)}
total = {}
for lam in lattice.elements():
    for key, c in hecke.project(v, lam, lattice).items():
        total[key] = total.get(key, 0) + c
print("sum of residue projections recovers v:", total == v)
print()

# the smash product interleaves projections with enveloping-algebra words:
# multiplication stays associative after every renormalization step
g = zforms.make_zform(2, 1, 1)
a = hecke.smash(pbw.monomial(0, 0, 1), g.n)      # E (x) p_n
b = hecke.smash(pbw.monomial(1, 0, 0), 0)        # F (x) p_0
c = hecke.smash(pbw.monomial(0, 1, 0), g.n)      # H (x) p_n
left = hecke.smash_mul(hecke.smash_mul(a, b, g), c, g)
right = hecke.smash_mul(a, hecke.smash_mul(b, c, g), g)
print("smash product associativity on a sample triple:", left == right)

# shifts must match the adjoint weight of the word or the product dies:
# F lowers by n, so E (x) p_{-n} composes with F (x) p_0, E (x) p_n does not
# (the PBW coefficients are ints; they print as Fractions, like v above)
def fractions(element):
    return {lam: {key: Fraction(c) for key, c in a.items()} for lam, a in element.items()}


matched = hecke.smash_mul(hecke.smash(pbw.monomial(0, 0, 1), -g.n), b, g)
print("(E (x) p_-n)(F (x) p_0) =", fractions(matched))
print("(E (x) p_n)(F (x) p_0)  =", fractions(hecke.smash_mul(a, b, g)))
