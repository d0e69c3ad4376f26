"""Contracted modules over Q[z]: tables, specialization, and vanishing."""

from fractions import Fraction

from hclat import contraction, weightmods
from hclat.scalars import LAURENT_RING, POLY, Laurent

lau = Laurent.parse

# the contracted algebra keeps z as a formal parameter; its bracket is that
# of g_{2,z}, and phi matches it against sl2 after clearing z
print("phi preserves the bracket:", contraction.phi_preserves_bracket() == [])
print()

# a contracted principal series with mu = 2z, over Laurent polynomials
S = contraction.contracted_ps(Fraction(0), lau("2z"), LAURENT_RING)
print("contracted series, eps = 0, mu = 2z:")
print("  p  weight  e        f        h")
for p, w, e, f, h in contraction.contraction_rows(S, -2, 2):
    print(f"  {p:>2}  {w:>6}  {str(e):<7}  {str(f):<7}  {str(h)}")
print("axiom violations:", contraction.check_contraction_axioms(S, range(-20, 21)))
print()

# setting z = 1 lands in an honest weight module for the reference form
ref = weightmods.principal_series(1, 1, "q", Fraction(0), Fraction(2))
specialized = contraction.specialize(S, 1)
print("specialize(z = 1) matches the q-series at mu = 2:",
      contraction.specialize_matches(specialized, ref, (-30, 30)))
print()

# a nonzero constant term in mu kills the module over the polynomial ring
for text in ("2z", "1 + z", "z^2", "1"):
    mu = lau(text)
    M = contraction.contracted_ps(Fraction(0), mu, POLY)
    if M.vanishing_reason is not None:
        print(f"mu = {str(mu):<6}: zero module ({M.vanishing_reason.split(',')[0]})")
        continue
    lat = contraction.polynomial_lattice(mu, (-6, 6))
    print(f"mu = {str(mu):<6}: polynomial lattice closed = {lat['closed']}")
print()

# reducibility shows up exactly at integer roots of the coefficients
for text in ("2z", "3z"):
    mu = lau(text)
    roots = contraction.coefficient_roots(Fraction(0), mu, (-5, 5))
    print(f"mu = {text}: generic irreducibility = "
          f"{contraction.generic_irreducibility(Fraction(0), mu)}, roots = {roots}")
