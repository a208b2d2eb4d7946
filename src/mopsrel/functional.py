"""Moment linear functionals and three-term recurrences, all in exact
rational arithmetic.

A functional is represented by its truncated moment sequence
(mu_0, ..., mu_N); N is the depth. It is stored as ``Polynomial`` stores
its coefficients: integer numerators over one denominator > 0, with no
common content. The kernels read that vector, and each moment operation
costs one integer pass and one content gcd (``MomentFunctional._reduced``);
``moments``, the Fraction view, is built on first use. The forward
substitution that solves psi sigma = phi u, psi monic of degree 1 or 2, is
one kernel, ``MomentFunctional._divide``: ``divide_by_linear`` and
``relation23.v_moments_from_relation`` call it, so no module but this one
and ``poly`` reads the layout.

A monic orthogonal polynomial sequence (MOPS) is represented by its
recurrence coefficients

    P_{n+1} = (x - beta_n) P_n - gamma_n P_{n-1},   P_0 = 1, P_{-1} = 0,

stored as beta_0..beta_m and gamma_1..gamma_k. Orthogonality of the family
w.r.t. a functional with mu_0 = 1 gives <u, P_n^2> = gamma_1 ... gamma_n.
A ``RecurrencePair`` stores reduced integer parts, whether it was parsed,
given to its constructor or built by a kernel (``_from_parts``:
``recurrence_from_moments``, ``_darboux``, ``jacobi_recurrence``, the
checkers' induced recurrence); ``beta`` and ``gamma``, the Fraction view,
are built on first use, as ``moments`` is.

Two directions are provided. moments_from_recurrence walks weighted lattice
paths on the coefficient array, so moments up to depth N need only the
coefficients up to index N//2. recurrence_from_moments runs the classical
quotient-difference style forward recursion on the mixed products
sigma_{k,l} = <u, P_k x^l>; it stops at the first vanishing leading
principal Hankel determinant and reports how far regularity was certified.

``_darboux`` is the one spectral step: it factors J - z I = U L, J the Jacobi
matrix of a recurrence, and multiplies the factors back as L U + z I in one
pass, a Geronimus step (division by x - z) or a Christoffel step
(multiplication by x - z), with no moment. It reads the recurrence's integer
parts and gives reduced parts, each entry reduced as ``fractions`` reduces a
sum or product (``rational._sum``, ``_product``, ``_quotient``), with no
Fraction built. ``_connection_break`` decides P = L R, L unit lower of band
width w, by L J_R = J_P L on those parts, each entry's two sides formed as
unreduced pairs and cross-multiplied, with no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional

from .errors import DepthError, DomainError, FormatError
from .poly import Polynomial, _divide_content
from .rational import (
    _columns,
    _product,
    _quotient,
    _SequenceModel,
    _sum,
    as_scalar,
    common_denominator,
)


class MomentFunctional:
    """Linear functional known through moments mu_0..mu_depth."""

    __slots__ = ("_nums", "_den", "_moments")

    def __init__(self, moments: Iterable):
        values = tuple(as_scalar(m) for m in moments)
        if not values:
            raise FormatError("a moment functional needs at least mu_0")
        nums, den = common_denominator(values)  # with no content left
        self._nums, self._den, self._moments = tuple(nums), den, values

    @classmethod
    def _reduced(cls, nums: list, den: int) -> "MomentFunctional":
        """The moments nums[n] / den for any den > 0, content divided out."""
        nums, den = _divide_content(nums, den)
        f = object.__new__(cls)
        f._nums, f._den, f._moments = tuple(nums), den, None
        return f

    @classmethod
    def _from_pairs(cls, nums: list, dens: list) -> "MomentFunctional":
        """The moments nums[n] / dens[n], all dens[n] > 0, over their lcm."""
        den = math.lcm(*dens)
        return cls._reduced([m * (den // d) for m, d in zip(nums, dens)], den)

    @property
    def moments(self) -> tuple[Fraction, ...]:
        """mu_0..mu_depth as Fractions, built on first use."""
        if self._moments is None:
            d = self._den
            self._moments = tuple([Fraction(m, d) for m in self._nums])
        return self._moments

    @property
    def depth(self) -> int:
        return len(self._nums) - 1

    @property
    def is_normalized(self) -> bool:
        return self._nums[0] == self._den

    def apply(self, p: Polynomial) -> Fraction:
        """<u, p>. Requires deg p <= depth."""
        if p.degree > self.depth:
            raise DepthError(
                f"apply needs moments through {p.degree}, have depth {self.depth}"
            )
        if p.is_zero:
            return Fraction(0)
        return Fraction(sum(map(mul, p._nums, self._nums)), p._den * self._den)

    def scale(self, factor) -> "MomentFunctional":
        k = as_scalar(factor)
        kn = k.numerator
        return MomentFunctional._reduced([kn * m for m in self._nums], k.denominator * self._den)

    def normalized(self) -> "MomentFunctional":
        """u / mu_0: the numerators over the first one, with no product."""
        m = self._nums
        if m[0] == 0:
            raise DomainError("cannot normalize: mu_0 = 0")
        if m[0] < 0:
            m = [-v for v in m]
        return MomentFunctional._reduced(m, m[0])

    def left_multiply(self, phi: Polynomial) -> "MomentFunctional":
        """The functional phi*u defined by <phi u, p> = <u, phi p>.

        The result is known through depth - deg(phi).
        """
        if phi.is_zero:
            raise DomainError("left_multiply by the zero polynomial is degenerate")
        d = phi.degree
        if d > self.depth:
            raise DepthError(
                f"left_multiply by degree {d} needs depth >= {d}, have {self.depth}"
            )
        q, m = phi._nums, self._nums
        return MomentFunctional._reduced(
            [sum(map(mul, q, m[n : n + d + 1])) for n in range(self.depth - d + 1)],
            phi._den * self._den,
        )

    def add_point_mass(self, xi, mass) -> "MomentFunctional":
        """u + mass * delta_xi, where <delta_xi, p> = p(xi)."""
        x0, k = as_scalar(xi), as_scalar(mass)
        xn, xd = x0.numerator, x0.denominator
        # mu_n + mass xi^n = (m_n p + q_n) / (dm p) with p = kd xd^depth and
        # q_n = dm kn xn^n xd^(depth - n)
        xdn = xd**self.depth
        p, q = k.denominator * xdn, self._den * k.numerator * xdn
        out = []
        for v in self._nums:
            out.append(v * p + q)
            q = q // xd * xn
        return MomentFunctional._reduced(out, self._den * p)

    def divide_by_linear(self, c, free_first_moment) -> "MomentFunctional":
        """A functional sigma with (x - c) sigma = u.

        The division has a one-parameter family of solutions; the free
        parameter is sigma's first moment. nu_{n+1} = c nu_n + mu_n, so the
        result is known one level deeper than u (``_divide``).
        """
        return self._divide(Polynomial.one(), Polynomial([-as_scalar(c), 1]),
                            [free_first_moment], self.depth + 1)

    def _divide(self, phi: Polynomial, psi: Polynomial, first: list, last: int
                ) -> "MomentFunctional":
        """sigma_0..sigma_last of the sigma with psi sigma = phi u, deg phi <= 1 and psi
        monic of degree q = len(first) (1 or 2), where sigma_0..sigma_{q-1} = first:
        sigma_{n+q} = <u, phi x^n> - p_0 sigma_n - p_1 sigma_{n+1}, p_1 = 0 when q = 1. u
        must be known through last - q + deg phi."""
        q, U, fd, pd = len(first), self._nums + (0,), phi._den * self._den, psi._den
        f0, f1 = (*phi._nums, 0)[:2]
        p0, p1 = (*psi._nums[:-1], 0)[:2]
        first = [as_scalar(m) for m in first]
        # sigma_n = X_n / K with K = E pd^last, E = lcm(fd, first's denominators):
        # X_{n+q} = k (f0 U_n + f1 U_{n+1}) - (p0 X_n + p1 X_{n+q-1}) / pd with k = K / fd;
        # X_n keeps the factor pd^(last - n), so the division is exact. U's padding zero is
        # read only with f1 = 0
        K = math.lcm(fd, *(m.denominator for m in first)) * pd**last
        k = K // fd
        X = [m.numerator * (K // m.denominator) for m in first][: last + 1]
        for n in range(last + 1 - q):
            X.append(k * (f0 * U[n] + f1 * U[n + 1]) - (p0 * X[n] + p1 * X[n + q - 1]) // pd)
        return MomentFunctional._reduced(X, K)

    def __eq__(self, other) -> bool:
        return isinstance(other, MomentFunctional) and (
            self._den == other._den and self._nums == other._nums)

    def __repr__(self) -> str:
        return f"MomentFunctional(depth={self.depth})"


class RecurrencePair(_SequenceModel):
    """Recurrence coefficient arrays beta_0.. and gamma_1.. .

    gamma is indexed from 1, so gamma_n lives at gamma[n-1]. The container
    itself does not insist on gamma_n != 0; operations that assume a regular
    functional check the range they use. ``beta`` and ``gamma`` are tuples
    of Fractions, a view of the stored integer parts (``_SequenceModel``).
    """

    __slots__ = ()
    _KEYS, _NAME = ("beta", "gamma"), "recurrence"

    def __init__(self, beta: Iterable, gamma: Iterable):
        super().__init__(beta, gamma)

    @property
    def beta(self) -> tuple:
        return self._fractions()[0]

    @property
    def gamma(self) -> tuple:
        return self._fractions()[1]

    def require(self, beta_through: int, gamma_through: int) -> None:
        beta, gamma = self._lengths()
        if beta <= beta_through:
            raise DepthError(f"need beta through index {beta_through}, have {beta - 1}")
        if gamma < gamma_through:
            raise DepthError(f"need gamma through index {gamma_through}, have {gamma}")

    def require_regular(self, through: int) -> None:
        """Refuse a zero gamma_n with n <= through: the family it defines
        is not a MOPS there."""
        gamma = self._integers()[1][0]  # gamma's numerators
        if 0 in gamma[:through]:
            raise DomainError(
                f"recurrence gamma_{gamma.index(0) + 1} is zero inside the working range"
            )

    def __repr__(self) -> str:
        return "RecurrencePair(beta[{}], gamma[{}])".format(*self._lengths())


def _darboux(rec: RecurrencePair, z, first, count: int) -> tuple[RecurrenceReport, tuple, tuple]:
    """J(rec) - z I = U L and L U + z I, read through beta_{count-1} and gamma_count: L is
    unit lower bidiagonal with subdiagonal k_1 = first, k_{n+1} = beta_n - z - q_n, U upper
    bidiagonal with unit superdiagonal and diagonal q_0 = beta_0 - z - k_1, q_n = gamma_n / k_n.
    So beta'_n = z + q_n + k_n, gamma'_n = k_n q_{n-1}, and a zero k_n, n <= count, is the
    first zero gamma'_n past q_0, where the step stops. beta and gamma through count - 1 are
    required (``DepthError``). A missing gamma_count is taken as 0; it reaches only q_count and
    beta'_count, never a pivot, so a caller that reads neither, or whose gamma_count is 0, may
    pass a recurrence one gamma short. z and first are rationals. Returns the
    ``RecurrenceReport`` of L U + z I, k (with the pad k_0 = 0) and q, each as reduced parts
    (nums, dens). With a free k_1 it is the Geronimus step: sigma with (x - z) sigma = u and
    first moment 1 / q_0, u of rec with mu_0 = 1. With k_1 = beta_0 - z, q_0 = 0 and rows 1..
    are the Christoffel step u = (x - z) f for f of rec (Bueno and Marcellan, Linear Algebra
    Appl. 384 (2004))."""
    rec.require(count - 1, count - 1)
    (bn, bd), (gn, gd) = rec._integers()
    z = z.numerator, z.denominator
    k = [(0, 1), (first.numerator, first.denominator)]
    q = [_sum(*_sum(bn[0], bd[0], -z[0], z[1]), -k[1][0], k[1][1])]
    beta, gamma, stop = [_sum(*z, *q[0])], [], None
    for n in range(1, count + 1):
        pivot = k[n]
        if not pivot[0]:
            stop = n
            break
        gamma.append(_product(*pivot, *q[n - 1]))
        q.append(_quotient(gn[n - 1], gd[n - 1], *pivot) if n <= len(gn) else (0, 1))
        beta.append(_sum(*_sum(*z, *q[n]), *pivot))
        if n < count:
            k.append(_sum(*_sum(bn[n], bd[n], -z[0], z[1]), -q[n][0], q[n][1]))
    report = RecurrenceReport(RecurrencePair._from_parts(_columns(beta), _columns(gamma)), stop)
    return report, _columns(k), _columns(q)


def _connection_break(p_rec: RecurrencePair, r_rec: RecurrencePair, bands: tuple,
                      top: int) -> Optional[int]:
    """The first n <= top at which P_n = R_n + sum_j l^(j)_n R_{n-j} fails, or None, reading
    ``p_rec`` and ``r_rec`` through index top - 1; ``bands`` holds the reduced parts (nums, dens)
    of the subdiagonals l^(1)..l^(w) of a unit lower L, 0 below the band, each read at 0..top
    only (a shorter band is a ``DepthError``); at w = 0 it decides P = R. If P = L R
    through n, P_{n+1} - (L R)_{n+1} is row n of L J_R - J_P L in the R basis, J a Jacobi matrix
    (Kautsky and Golub, Linear Algebra Appl. 52/53 (1983)). Entry (n, n+1) is 1 - 1; (n, n - j),
    j <= w + 1, forms l^(j-1)_n gamma^R_{n-j+1} + l^(j)_n beta^R_{n-j} + l^(j+1)_n and
    gamma_n l^(j-1)_{n-1} + beta_n l^(j)_n + l^(j+1)_{n+1} (l^(0) = 1, l^(i) = 0 off the band)
    as unreduced pairs and cross-multiplies them: no gcd runs."""
    p_rec.require(top - 1, top - 1)
    r_rec.require(top - 1, top - 1)
    if bands and (have := min(len(nums) for nums, _ in bands)) <= top:
        raise DepthError(f"need every band through index {top}, have {have - 1}")
    w, one, zero = len(bands), (1, 1), (0, 1)  # rows[n + 1][i + 1] is l^(i)_n; row -1 is 0
    rows = [(zero,) * (w + 4)] + [(zero, one, *col, zero, zero) for *col, _ in
                                  zip(*(zip(*band) for band in bands), range(top + 1))]
    (bP, gP), (bR, gR) = ([list(zip(*part)) for part in rec._integers()] for rec in (p_rec, r_rec))
    gP, gR = [zero, *gP], [*gR, zero]  # gP[n] is gamma_n, gR[m] gamma^R_{m+1}
    for n, (prev, row, nxt, (gn, gd), (bn, bd)) in enumerate(zip(rows, rows[1:], rows[2:], gP, bP)):
        for j in range(min(n, w + 1) + 1):
            # the two sides x and y as unreduced pairs, a zero product left out
            (an, ad), (ln, ld), (x, xd) = row[j : j + 3]
            (pn, pd), (y, yd) = prev[j], nxt[j + 2]
            (hn, hd), (cn, cd) = gR[n - j], bR[n - j]
            if an and hn:
                x, xd = x * ad * hd + an * hn * xd, xd * ad * hd
            if gn and pn:
                y, yd = y * gd * pd + gn * pn * yd, yd * gd * pd
            if ln:
                if cn:
                    x, xd = x * ld * cd + ln * cn * xd, xd * ld * cd
                if bn:
                    y, yd = y * bd * ld + bn * ln * yd, yd * bd * ld
            if x * yd != y * xd:
                return n + 1
    return None


def mops_from_recurrence(rec: RecurrencePair, count: int) -> list[Polynomial]:
    """The first ``count`` polynomials P_0..P_{count-1} of the recurrence.

    Each step runs on the integer numerators of P_n and P_{n-1} over their
    denominators and costs one lcm and one gcd reduction of the content.
    """
    if count < 1:
        raise DepthError("count must be >= 1")
    if count >= 2:
        rec.require(count - 2, max(count - 2, 0))
    (bn, bd), (gn, gd) = rec._integers()
    polys = [Polynomial.one()]
    prev, prev_den = [0], 1  # P_{n-1} = prev / prev_den
    cur, den = [1], 1  # P_n = cur / den
    for n in range(count - 1):
        # x P_n, beta_n P_n and gamma_n P_{n-1} as lists of length n + 2
        nxt, d = _three_term(
            [0] + cur, cur + [0], den, (bn[n], bd[n]),
            prev + [0, 0], prev_den, (gn[n - 1], gd[n - 1]) if n else (0, 1),
        )
        prev, prev_den, cur, den = cur, den, nxt, d
        # P_{n+1} is monic, so its last coefficient is nonzero
        polys.append(Polynomial._canonical(tuple(nxt), d))
    return polys


def _three_term(x: list, y: list, den: int, b, z: list, den_z: int, g) -> tuple[list, int]:
    """The step shared by the recurrence and the sigma recursion: the
    integer vector and denominator of (x - b y) / den - g z / den_z, with
    the content divided out; b and g are (numerator, denominator > 0) pairs.
    x and y have one length, z is no shorter."""
    (bn, bd), (gn, gd) = b, g
    d = den * bd
    if not gn:
        return _divide_content([bd * u - bn * v for u, v in zip(x, y)], d)
    # one pass: s1 (bd x - bn y) - s2 z over the lcm of both denominators
    dg = den_z * gd
    common = math.lcm(d, dg)
    s1, s2 = common // d, (common // dg) * gn
    p, q = bd * s1, bn * s1
    return _divide_content([p * u - q * v - s2 * w for u, v, w in zip(x, y, z)], common)


def moments_from_recurrence(rec: RecurrencePair, depth: int) -> MomentFunctional:
    """Moments mu_0..mu_depth of the normalized functional (mu_0 = 1) whose
    MOPS has the given recurrence.

    Uses the weighted lattice-path recursion: if x^n = sum_k c_k P_k then
    c'_j = c_{j-1} + beta_j c_j + gamma_{j+1} c_{j+1} gives the expansion of
    x^{n+1}, and mu_n is the P_0 component. After n steps only levels
    j <= min(n, depth - n) matter: higher levels are still zero or can no
    longer return to level 0 in time. So the sweep covers that triangle
    and consumes only beta_0..beta_{depth//2} and gamma_1..gamma_{depth//2}.

    All coefficients are put over one integer L, the components are kept as
    integers over one denominator, and each step ends with one gcd
    reduction of that vector.
    """
    if depth < 0:
        raise DepthError("depth must be >= 0")
    cap = depth // 2
    rec.require(cap, cap)
    rec.require_regular(cap)
    # beta_j = B[j] / L and gamma_j = G[j] / L; G is padded with zeros at
    # both ends so level cap + 1 contributes nothing
    (bn, bd), (gn, gd) = rec._integers()
    nums, dens = [*bn[: cap + 1], *gn[:cap]], [*bd[: cap + 1], *gd[:cap]]
    L = math.lcm(*dens)
    B = [m * (L // d) for m, d in zip(nums, dens)]
    G = [0] + B[cap + 1 :] + [0]
    B = B[: cap + 1]
    comp, den = [1], 1  # comp[j] / den is the P_j component of x^n
    nums, dens = [1], [1]  # mu_n = nums[n] / dens[n]
    for n in range(1, depth + 1):
        top = min(n, depth - n)
        c = [0] + comp + [0] * (top + 2 - len(comp))
        nxt = [L * c[j] + B[j] * c[j + 1] + G[j + 1] * c[j + 2] for j in range(top + 1)]
        comp, den = _divide_content(nxt, den * L)
        nums.append(comp[0])
        dens.append(den)
    return MomentFunctional._from_pairs(nums, dens)


@dataclass(frozen=True)
class RecurrenceReport:
    """A recurrence and first_vanishing, the index where its build stopped (None if it did not):
    from moments, the first k with Delta_k = 0, Delta_k the (k+1)x(k+1) leading principal Hankel
    determinant; from ``_darboux``, the first n with pivot k_n = 0, where the step stops.
    checked_through is how far the determinants could be examined given the depth (the first
    zero stops the examination): first_vanishing when there is one, else the count of gammas."""

    rec: RecurrencePair
    first_vanishing: Optional[int]

    @property
    def checked_through(self) -> int:
        m = self.first_vanishing
        return self.rec._lengths()[1] if m is None else m

    @property
    def regular_through(self) -> int:
        """The largest k with Delta_0..Delta_k all nonzero; -1 when already
        Delta_0 = mu_0 = 0."""
        return self.checked_through - (self.first_vanishing is not None)


def recurrence_from_moments(f: MomentFunctional) -> RecurrenceReport:
    """Recover beta/gamma from moments by the forward sigma recursion.

    sigma_{k,l} = <u, P_k x^l> obeys
        sigma_{k,l} = sigma_{k-1,l+1} - beta_{k-1} sigma_{k-1,l}
                      - gamma_{k-1} sigma_{k-2,l},
    and sigma_{k,k} = Delta_k / Delta_{k-1}, which the recursion watches for
    zeros instead of evaluating determinants.

    Each row sigma_{k,k..} is kept fraction-free, as integers over one row
    denominator (in the manner of Bareiss elimination), and is reduced by
    one gcd of the whole row; beta and gamma are built as reduced
    (numerator, denominator > 0) pairs, and no Fraction is built.
    """
    n_max = f.depth
    k_max = n_max // 2
    beta: list = []
    gamma: list = []
    # row[i] / den holds sigma_{k, k+i}, starting from sigma_{0, i} = mu_i;
    # row_prev / den_prev the row k - 1
    row, den = f._nums, f._den
    if row[0] == 0:
        return RecurrenceReport(RecurrencePair((), ()), 0)
    row_prev: tuple = ()
    den_prev = 1
    if n_max >= 1:
        beta.append(_quotient(row[1], 1, row[0], 1))
    for k in range(1, k_max + 1):
        width = n_max - 2 * k
        # sigma_{k-1, k+1+j}, sigma_{k-1, k+j} and sigma_{k-2, k+j}, j <= width
        nxt, d = _three_term(
            row[2:], row[1:-1], den, beta[k - 1],
            row_prev[2 : width + 3], den_prev, gamma[k - 2] if k >= 2 else (0, 1),
        )
        if nxt[0] == 0:
            return RecurrenceReport(
                RecurrencePair._from_parts(_columns(beta[:k]), _columns(gamma)), k)
        gamma.append(_quotient(nxt[0] * den, 1, d * row[0], 1))
        if width >= 1:
            # sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1}
            beta.append(_quotient(nxt[1] * row[0] - row[1] * nxt[0], 1, nxt[0] * row[0], 1))
        row_prev, den_prev, row, den = row, den, nxt, d
    return RecurrenceReport(RecurrencePair._from_parts(_columns(beta), _columns(gamma)), None)


def norm_squared(rec: RecurrencePair, n: int) -> Fraction:
    """<u, P_n^2> = gamma_1 ... gamma_n for the recurrence's family, u the
    normalized functional (mu_0 = 1)."""
    if n < 0:
        raise DepthError("n must be >= 0")
    if n > 0:
        rec.require(0, n)
    return math.prod(rec.gamma[:n], start=Fraction(1))
