"""Admissible lattices in the finite ladder: minimal, maximal, certificates."""

from math import comb

from hclat import borelweil

# the ambient ladder for lambda = 4: five basis vectors, weights 4, 2, ..., -4
lam = 4
amb = borelweil.ladder_lattice(lam, 0)
print("ladder weights:", amb.weights)
print("axiom check:", borelweil.check_lattice_axioms(amb))
print()

# the minimal lattice is generated by the highest vector, the maximal one
# is as large as possible while keeping the highest component equal to Z
mn = borelweil.minimal_lattice(lam)
mx = borelweil.maximal_lattice(lam)
print("maximal lattice basis (rows in ladder coordinates):")
for row in mx.inside[1].basis():
    print("  ", [str(x) for x in row])
index = borelweil.inclusion_index(mn, mx)
print("index [maximal : minimal] =", index,
      "= product of binomials:", [comb(lam, a) for a in range(lam + 1)])
print()

# between the two extremes every intertwiner is an integer multiple of one map
hom = borelweil.hom_lattice(mn, mx)
print("hom(minimal -> maximal) has rank", hom["rank"], "generated by")
for row in hom["generator"]:
    print("  ", row)
print()

# dividing any maximal-lattice basis vector by a prime breaks integrality
cert = borelweil.maximality_certificate(mx, (2, 3, 5))
print("maximal lattice certified maximal:", cert["certified"])

# the minimal lattice for lambda = 2 is not maximal: halving its middle
# vector closes up to an integral lattice again (the maximal one)
mn2 = borelweil.minimal_lattice(2)
cert2 = borelweil.maximality_certificate(mn2, (2,))
print("minimal lattice at lambda = 2: certified =", cert2["certified"],
      " enlargeable at (prime, weight) =", cert2["failures"])
print()

# for the n-fold ladder the counit lands in (1/n)Z/Z, witnessed explicitly
wit = borelweil.counit_fraction_witness(3, 4)
print("counit witness at lambda = 3, n = 4: fraction =", wit["fraction"],
      " checks:", wit["weight_check"], wit["f_check"], wit["h_check"])
