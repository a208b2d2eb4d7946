"""Worked case: a chain of three functionals around a Jacobi weight.

Starting from a Jacobi weight w, the chain builds u with (1+x) u
proportional to a sign-flipped division of w, and v as a division of w by
(x - 1). The two MOPS are linked by an irreducible 2-3 relation and the
inverse problem returns lambda (x - 1) u = (1 + x)^2 v exactly.
"""

from fractions import Fraction

from mopsrel import (
    JacobiParams,
    half_case_closed_forms,
    jacobi_chain,
    jacobi_recurrence,
    norm_squared,
)

params = JacobiParams("1/2", "1/2")
case = jacobi_chain(params, 2, -2, 8)
assert case.ok

print(f"alpha = {case.alpha}, beta = {case.beta}, a1 = {case.a1}, c1 = {case.c1}")
print(f"u mass = {case.u_mass}, v mass = {case.v_mass}")
assert case.u_mass == Fraction(-1, 3)
assert case.v_mass == Fraction(1, 3)

print("ladder coefficients (n = 1..4):")
print("  a:", [str(v) for v in case.a_seq[1:5]])
print("  b:", [str(v) for v in case.b_seq[1:5]])
print("  c:", [str(v) for v in case.c_seq[1:5]])
# the symmetric weight with c_1 = -a_1 keeps the ladders opposite, and the
# closed forms reproduce the forward recursion
assert all(c == -a for a, c in zip(case.a_seq[1:], case.c_seq[1:]))
a, b = half_case_closed_forms(2, 8)
assert a[1:9] == list(case.a_seq[1:9])
assert b[1:9] == list(case.b_seq[1:9])
print("closed forms for a_n, b_n match the recursion")

fr = case.constants
print(f"functional identity: {fr.lam} (x - {fr.c}) u = (x^2 + {fr.a} x + {fr.b}) v")
assert (fr.lam, fr.c, fr.a, fr.b) == (1, 1, 2, 1)
# the constants pin the identity: u_mass (x - 1) u = -(1 + x) w and
# v_mass (x + 1)^2 v = (1 + x) w for every Jacobi weight w
assert fr.lam == -case.u_mass / case.v_mass

# the norm links <v, Q_n^2> = c_n <w, W_{n-1}^2>, as Favard products
w_rec = jacobi_recurrence(params, case.depth)
for n in range(1, case.depth + 1):
    assert case.v_mass * norm_squared(case.v_rec, n) == case.c_seq[n] * norm_squared(w_rec, n - 1)
assert case.regularity == (True, True)
print("moment identity, norm links, and the regularity criterion all pass")

# inadmissible parameters are reported, not computed around
for bad_a1, expected in ((0, "a1 must be nonzero"), (-1, "w_tilde_mass"),
                         (1, "u_mass")):
    failed = jacobi_chain(params, bad_a1, -2, 8)
    assert not failed.ok
    assert failed.failure.condition == expected
    print(f"a1 = {bad_a1}: rejected with '{failed.failure.condition}'")

print("ok: chain worked case demo passed")
