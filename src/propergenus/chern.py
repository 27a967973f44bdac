"""Formal Chern-root verification of the cancellation identity between
the top L-class and Witten-twisted A-hat classes.

Symmetric series in Chern roots are stored in the power-sum basis
p_r = sum_j x_j^(2r) (weight 4r), which keeps every identity manifestly
independent of the number of roots.  A class is a plain dict
{partition: coefficient}: the descending partition (r_1, r_2, ...)
names the monomial p_(r_1) p_(r_2) ..., the empty partition the
constant term, and zero coefficients are dropped.  Ranks enter only
through the rank-reduced Chern characters

    ch(psi^r T~) = sum_s 2 r^(2s) p_s / (2s)!,

whose exponential q-series reproduces the Witten bundle coefficients on
the Chern character level.  A-hat, L and that q-series are each the
exponential of a linear form sum_s c_s p_s, so each is written down in
closed form,

    exp(sum_s c_s p_s) = sum_lambda p_lambda prod_s c_s^(m_s) / m_s!,

m_s being the number of parts of lambda equal to s, at just the
partitions lambda asked for.  A product of two such exponentials is the
exponential of the sum of their linear forms, so the Witten-twisted
A-hat q-series is exp(sum_s (a_s + c_s(q)) p_s) and its top weight 4k
is read at the partitions of k without multiplying any series in the
p_s.  The headline computation decomposes each a_s + c_s(q) once in the
monomial basis (8 delta_2)^a eps_2^b by forward substitution, reads the
top weight's decomposition off products of polynomials in eps_2, then
recovers the power-of-two schedule relating it to the top L-class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import factorial, lcm, prod
from operator import mul

from .core.laurent import normalize_scalar
from .core.qseries import RATIONAL, QSeries, _check_order
from .errors import InconsistentSystem, SingularSystem
from .theta_modforms import _divisor_table, modform_qexp

Partition = tuple[int, ...]


def partitions_of(n: int, max_part: int | None = None):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _partitions_upto(k: int) -> list[Partition]:
    """Partitions of every weight 1..k (the constant term is the caller's)."""
    return [lam for n in range(1, k + 1) for lam in partitions_of(n)]


def _nonzero(terms: dict) -> dict[Partition, int | Fraction]:
    """A class with its zero coefficients dropped and integral ones as int."""
    return {p: normalize_scalar(c) for p, c in terms.items() if c != 0}


def _over(numerators, den: int) -> list:
    """The rationals c / den, integral ones as int (``numerators`` itself at 1)."""
    return numerators if den == 1 else [Fraction(c, den) if c % den else c // den
                                        for c in numerators]


# -- the linear forms --------------------------------------------------------

def _log_series(coeffs: list[Fraction], k: int) -> list[Fraction]:
    """log of 1 + sum_{m>=1} coeffs[m] v^m, to degree k (index 0 unused).

    With f = 1 + sum c_m v^m and L = log f, f L' = f' gives
    m L_m = m c_m - sum_{j<m} j L_j c_(m-j).
    """
    c = list(coeffs[:k + 1]) + [0] * (k + 1 - len(coeffs))
    logs = [0] * (k + 1)
    for m in range(1, k + 1):
        logs[m] = normalize_scalar(
            Fraction(m * c[m] - sum(j * logs[j] * c[m - j] for j in range(1, m)), m))
    return logs


def _a_hat_form(k: int) -> dict[int, Fraction]:
    """a_s with prod_j (x_j/2)/sinh(x_j/2) = exp(sum_s a_s p_s)."""
    # sinh(u/2)/(u/2) = sum_m v^m / (4^m (2m+1)!),  v = u^2
    logs = _log_series([Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(k + 1)], k)
    return {s: -logs[s] for s in range(1, k + 1)}


def _l_hat_form(k: int) -> dict[int, Fraction]:
    """l_s with prod_j x_j/tanh(x_j) = exp(sum_s l_s p_s): the v^s
    coefficient of log cosh - log(sinh/id)."""
    logs_cosh = _log_series([Fraction(1, factorial(2 * m)) for m in range(k + 1)], k)
    logs_sinh = _log_series([Fraction(1, factorial(2 * m + 1)) for m in range(k + 1)], k)
    return {s: logs_cosh[s] - logs_sinh[s] for s in range(1, k + 1)}


def _witten_form(k: int, N: int, shift: dict | None = None) -> dict[int, tuple[QSeries, int]]:
    """c_s(q) with the half-twisted Witten bundle's Chern-character
    q-series equal to exp(sum_s c_s(q) p_s), plus ``shift[s]`` at q^0,
    each as a pair of an integer q-series and an int denominator.

    With ch(psi^r T~) = sum_s 2 r^(2s) p_s / (2s)!, the bundle's
    Adams-operation logarithm sum_r ch(psi^r T~)/r (sum_n q^(nr) -
    sum_m q^(r(m - 1/2))) is sum_s c_s p_s with c_s = 2 G_s / (2s)! and
    G_s = sum_h q^(h/2) sum_{d | h} (-1)^(h/d) d^(2s-1).
    """
    divisors = list(enumerate(_divisor_table(2 * N)))[1:]
    form = {}
    for s in range(1, k + 1):
        a, half = Fraction((shift or {}).get(s, 0)), factorial(2 * s) // 2
        den = lcm(half, a.denominator)
        g = [den // half * sum((-1) ** (h // d) * d ** (2 * s - 1) for d in ds) for h, ds in divisors]
        form[s] = QSeries(RATIONAL, N, [a.numerator * den // a.denominator, *g]), den
    return form


def _exp_power_sums(form: dict, parts: list[Partition]) -> dict[Partition, object]:
    """exp(sum_s c_s p_s) at the nonempty partitions ``parts``, in
    closed form: ``form[s]`` is a rational c_s, or c_s = n_s / d_s given
    as a pair of an integer q-series n_s and an int d_s.

    The coefficient of p_lambda is prod_s c_s^(m_s) / m_s!, with m_s
    the number of parts of lambda equal to s, so each power c_s^m / m!
    is built once and no series in the p_s is multiplied out.  Numerators
    and denominators multiply apart, and each coefficient is read out
    once; the constant term, the unit of their ring, is the caller's.
    """
    top = max(map(sum, parts), default=0)
    powers = {}
    for s, c in form.items():
        n, d = c if isinstance(c, tuple) else (c.numerator, c.denominator)
        row = [(n, d)]
        for m in range(2, top // s + 1):
            row.append((row[-1][0] * n, row[-1][1] * d * m))
        powers[s] = row
    out = {}
    for lam in parts:
        nums, dens = zip(*[powers[s][lam.count(s) - 1] for s in set(lam)])
        n, d = reduce(mul, nums), prod(dens)
        out[lam] = (QSeries(RATIONAL, n.trunc, _over(n.coeffs, d))
                    if isinstance(n, QSeries) else Fraction(n, d))
    return out


# -- the classical multiplicative classes ------------------------------------

def a_hat(k: int) -> dict[Partition, int | Fraction]:
    """prod_j (x_j/2)/sinh(x_j/2), truncated at weight 4k."""
    return _nonzero({(): 1, **_exp_power_sums(_a_hat_form(k), _partitions_upto(k))})


def l_hat(k: int) -> dict[Partition, int | Fraction]:
    """prod_j x_j/tanh(x_j), truncated at weight 4k."""
    return _nonzero({(): 1, **_exp_power_sums(_l_hat_form(k), _partitions_upto(k))})


def witten_chern_series(k: int, N: int = 4) -> dict[Partition, QSeries]:
    """Chern-character q-series of the half-twisted Witten bundle over the
    rank-reduced tangent class, as {partition: rational q-series}: the
    coefficient of p_lambda at every half-grade, to weight 4k."""
    return {(): QSeries.one(RATIONAL, N),
            **_exp_power_sums(_witten_form(k, N), _partitions_upto(k))}


def ch_witten(k: int, grade) -> dict[Partition, int | Fraction]:
    """ch of the grade coefficient bundle of the half-twisted Witten bundle."""
    N = max(1, int(Fraction(grade)) + 1)
    return _nonzero({p: f.coefficient(grade) for p, f in witten_chern_series(k, N).items()})


# -- forward substitution ----------------------------------------------------

def _bases(k: int, N: int) -> list[list[QSeries]]:
    """Row m, m = 0..k, is the basis (8 delta_2)^(m - 2b) eps_2^b, b = 0..[m/2],
    of weight 2m: 8 delta_2 times row m - 1, then at even m eps_2 times the last
    of row m - 2, one product each past row 1.  Basis b is (-1)^(m - 2b) q^(b/2)
    plus higher grades, as 8 delta_2 = -1 + O(q^(1/2)) and eps_2 = q^(1/2) + O(q)."""
    d2 = modform_qexp("delta2", N).series.scale(8)
    e2 = modform_qexp("eps2", N).series
    table = [[QSeries.one(RATIONAL, N)], [d2]]
    for m in range(2, k + 1):
        table.append([d2 * s for s in table[-1]] + ([table[-2][-1] * e2] if m % 2 == 0 else []))
    return table


def _decompose(coeffs: list, basis: list[QSeries]) -> list:
    """The x_b with sum_b x_b basis[b] = coeffs at every stored grade, by
    forward substitution: x_b is read at half-grade b, where basis b leads
    with +-1, and basis b is subtracted from what is left, so integer
    coefficients give integer x_b.  Every grade left must then be zero."""
    if len(coeffs) < len(basis):
        raise SingularSystem(f"rank {len(coeffs)} < {len(basis)} unknowns")
    rest, out = list(coeffs), []
    for b, s in enumerate(basis):
        x = rest[b] * s.coeffs[b]
        if x:
            rest[b:] = [r - x * c for r, c in zip(rest[b:], s.coeffs[b:])]
        out.append(x)
    if any(rest):
        raise InconsistentSystem("no exact solution; extra equations do not vanish")
    return out


def p2_decompose(genus: QSeries, m: int) -> list[Fraction]:
    """Coefficients of a weight-2m form in the (8 delta_2)^a eps_2^b basis.

    The input q-expansion must determine the [m/2]+1 coefficients and
    stay consistent at every further stored grade.
    """
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    return [Fraction(x) for x in _decompose(genus.coeffs, _bases(m, genus.trunc)[m])]


class CancellationReport(namedtuple(
        "CancellationReport", "k h_coeffs exponents combinations residual schedule")):
    __slots__ = ()

    @property
    def residual_is_zero(self) -> bool:
        return not self.residual


def _two_adic(c: Fraction) -> tuple[Fraction, int]:
    """(h, e) with c = h 2^e and h of odd numerator and denominator; (0, 0) at 0."""
    if not c:
        return Fraction(0), 0
    e = ((c.numerator & -c.numerator).bit_length()
         - (c.denominator & -c.denominator).bit_length())
    return c / Fraction(2) ** e, e


def solve_cancellation(k: int, q_order: int | None = None) -> CancellationReport:
    """Decompose the top-weight twisted A-hat q-series in the level-2
    monomial basis and recover the power-of-two schedule against the top
    L-class.

    The number of modular unknowns is [k/2]+1, so q_order must be at
    least [k/2]+1.  Each linear form a_s + c_s(q) is a weight-2s form
    P_s(X, Y), X = 8 delta_2 and Y = eps_2, checked at every stored
    grade.  Reading Q[X, Y] as q-series is a ring map, and setting X = 1
    loses nothing within one weight, so row b of the decomposition at
    lambda is the Y^b coefficient of prod_s P_s(Y)^(m_s) / m_s!.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    nb = k // 2 + 1
    if q_order is None:
        q_order = nb + 1
    _check_order(q_order)
    if q_order < nb:
        raise SingularSystem(f"q_order {q_order} < {nb} unknowns")
    part_basis = sorted(partitions_of(k))
    bases = _bases(k, q_order)
    # P_s(Y) as an integer series whose half-grade b holds Y^b, over d_s
    forms = {s: (QSeries(RATIONAL, nb // 2 + 1, _decompose(n.coeffs, bases[s])), d)
             for s, (n, d) in _witten_form(k, q_order, _a_hat_form(k)).items()}
    top = _exp_power_sums(forms, part_basis)
    combos = [_nonzero({p: top[p].coeffs[b] for p in part_basis}) for b in range(nb)]
    ell = _exp_power_sums(_l_hat_form(k), part_basis)
    scalars = []

    def fitted(p):
        return sum(c * combo.get(p, 0) for c, combo in zip(scalars, combos))

    # sum_b c_b * combo_b = top part of the L-class: at (2^b 1^(k-2b)) row b
    # is the last nonzero one, so the scalars solve forward there
    for b, combo in enumerate(combos):
        lam = (2,) * b + (1,) * (k - 2 * b)
        scalars.append((ell[lam] - fitted(lam)) / combo[lam])
    residual = _nonzero({p: ell[p] - fitted(p) for p in part_basis})
    if residual:
        raise InconsistentSystem("no exact solution; extra equations do not vanish")
    h_coeffs, exponents = map(list, zip(*map(_two_adic, scalars)))
    expected = [3 * k - 6 * b for b in range(nb)]
    schedule = "2^(3k-6j)" if exponents == expected else f"custom {exponents}"
    return CancellationReport(k, h_coeffs, exponents, combos, residual, schedule)
