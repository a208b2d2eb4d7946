"""Worked case: a point-mass modification of a Chebyshev-like weight.

The functional u mixes x times a third-kind Chebyshev weight with a point
mass at 1, scaled so that <u, P_2> = 0. Its MOPS is linked to a shifted
fourth-kind family by an irreducible 2-3 relation whose coefficients have
closed forms, and the inverse problem has the exact answer
3/2 (x - 1) u = (x^2 + x) v.
"""

from fractions import Fraction

from mopsrel import (
    JacobiParams,
    chebyshev_case,
    jacobi_moments,
    moments_from_recurrence,
    verify_functional_relation,
)

case = chebyshev_case(10)

print(f"point mass ratio k = {case.point_mass_ratio}")
assert case.point_mass_ratio == Fraction(3, 2)

print("ladder coefficients (n = 1..4):")
print("  a:", [str(v) for v in case.a_seq[1:5]])
print("  b:", [str(v) for v in case.b_seq[1:5]])
assert all(v == Fraction(1, 2) for v in case.lambda_seq[1:])

rel = case.rel
print("relation coefficients (n = 1..4):")
print("  r:", [str(v) for v in rel.r[1:5]])
print("  s:", [str(v) for v in rel.s[1:5]])
print("  t:", [str(v) for v in rel.t[1:5]])
assert rel.s[1] - rel.r[1] == Fraction(3, 2)
assert rel.t[2] == Fraction(-1, 6)

# the odd-index coefficients satisfy one extra identity in this case
assert case.odd_index_identity
for n in range(3, case.depth + 1, 2):
    assert rel.t[n] == rel.r[n] * (rel.s[n - 1] - rel.r[n - 1])
print("odd-index identity t_n = r_n (s_{n-1} - r_{n-1}) holds")

print(f"both inverse checkers accept: "
      f"{case.verdict_equations.is_mops and case.verdict_constants.is_mops}")
fr = case.constants
print(f"functional identity: {fr.lam} (x - {fr.c}) u = (x^2 + {fr.a} x + {fr.b}) v")
assert (fr.lam, fr.c, fr.a, fr.b) == (Fraction(3, 2), 1, 1, 0)

# the identity holds moment by moment: u's moments from its recurrence, v's
# from the fourth-kind Pearson equation (alpha, beta = 1/2, -1/2)
u = moments_from_recurrence(case.u_rec, 20)
v = jacobi_moments(JacobiParams("1/2", "-1/2"), 20)
assert verify_functional_relation(u, v, fr, 18) == (True, None)
print("the functional identity holds on the moments mu_0..mu_20")

# u itself is regular, but (x - 1) u is not: its very first Hankel minor
# vanishes, which is why the criterion reports False on both sides
print(f"(x-1)u first vanishing Hankel minor: {case.shifted_hankel.first_vanishing}")
assert case.shifted_hankel.first_vanishing == 0
assert case.regularity == (False, False)

print("ok: point-mass worked case demo passed")
