"""Formal Chern-root verification of the cancellation identity between
the top L-class and Witten-twisted A-hat classes.

Symmetric series in Chern roots are stored in the power-sum basis
p_r = sum_j x_j^(2r) (weight 4r), which keeps every identity manifestly
independent of the number of roots.  Ranks enter only through the
rank-reduced Chern characters

    ch(psi^r T~) = sum_s 2 r^(2s) p_s / (2s)!,

whose exponential q-series reproduces the Witten bundle coefficients on
the Chern character level.  A-hat, L and that q-series are each the
exponential of a linear form sum_s c_s p_s, so each is written down in
closed form,

    exp(sum_s c_s p_s) = sum_lambda p_lambda prod_s c_s^(m_s) / m_s!,

over the partitions lambda of weight at most k, m_s being the number of
parts of lambda equal to s.  The headline computation decomposes the
top-weight part of the twisted A-hat q-series in the monomial basis
(8 delta_2)^a eps_2^b by exact linear algebra, then recovers the
power-of-two schedule relating it to the top L-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul

from .core.laurent import normalize_scalar
from .core.qseries import RATIONAL, QSeries
from .errors import InconsistentSystem, SingularSystem
from .theta_modforms import _divisors, modform_qexp

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


class ChernRootSeries:
    """Weight-truncated symmetric series in the power sums p_r.

    Keys are descending partitions (r_1, r_2, ...) naming the monomial
    p_(r_1) p_(r_2) ...; the empty partition is the constant term.  The
    monomial's cohomological weight is 4 sum(r_i); everything above the
    cutoff 4k is discarded.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: dict[Partition, Fraction] | None = None):
        self.k = k
        clean: dict[Partition, Fraction] = {}
        if terms:
            for part, c in terms.items():
                if sum(part) > k:
                    continue
                c = normalize_scalar(c) if isinstance(c, Fraction) else c
                if c != 0:
                    clean[tuple(sorted(part, reverse=True))] = c
        self.terms = clean

    @classmethod
    def constant(cls, k: int, c) -> "ChernRootSeries":
        return cls(k, {(): c})

    @classmethod
    def power_sum(cls, k: int, r: int, c=1) -> "ChernRootSeries":
        return cls(k, {(r,): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ChernRootSeries) and self.k == other.k and self.terms == other.terms

    def __add__(self, other: "ChernRootSeries") -> "ChernRootSeries":
        out = dict(self.terms)
        for part, c in other.terms.items():
            out[part] = out.get(part, 0) + c
        return ChernRootSeries(self.k, out)

    def __neg__(self) -> "ChernRootSeries":
        return ChernRootSeries(self.k, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "ChernRootSeries") -> "ChernRootSeries":
        return self + (-other)

    def __mul__(self, other) -> "ChernRootSeries":
        if isinstance(other, (int, Fraction)):
            return ChernRootSeries(self.k, {p: c * other for p, c in self.terms.items()})
        out: dict[Partition, Fraction] = {}
        for p1, c1 in self.terms.items():
            w1 = sum(p1)
            for p2, c2 in other.terms.items():
                if w1 + sum(p2) > self.k:
                    continue
                key = tuple(sorted(p1 + p2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        return ChernRootSeries(self.k, out)

    __rmul__ = __mul__

    def weight_part(self, weight: int) -> "ChernRootSeries":
        """Extract the part of cohomological weight 4 * (weight // 4)."""
        if weight % 4 != 0:
            return ChernRootSeries(self.k)
        n = weight // 4
        return ChernRootSeries(self.k, {p: c for p, c in self.terms.items() if sum(p) == n})

    def top_vector(self) -> list[Fraction]:
        """Weight-4k coefficients in the partition basis of k."""
        basis = sorted(partitions_of(self.k))
        return [Fraction(self.terms.get(p, 0)) for p in basis]

    def constant_term(self):
        return self.terms.get((), 0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms):
            c = self.terms[p]
            mono = "*".join(f"p{r}" for r in p) if p else "1"
            parts.append(f"{c}*{mono}" if p else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__


# -- the classical multiplicative classes ------------------------------------

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


def _exp_power_sums(coeffs: dict, k: int, one) -> dict[Partition, object]:
    """exp(sum_s coeffs[s] p_s) to weight k, in closed form.

    The coefficient of p_lambda is prod_s coeffs[s]^(m_s) / m_s!, with
    m_s the number of parts of lambda equal to s, so each power
    c_s^m / m! is built once and no series in the p_s is multiplied
    out.  The coefficients may be rationals or rational q-series;
    ``one``, the unit of their ring, is the constant term.
    """
    powers = {}
    for s, c in coeffs.items():
        row = [c]
        for m in range(2, k // s + 1):
            row.append(row[-1] * c * Fraction(1, m))
        powers[s] = row
    out = {(): one}
    for n in range(1, k + 1):
        for lam in partitions_of(n):
            out[lam] = reduce(mul, [powers[s][lam.count(s) - 1] for s in set(lam)])
    return out


def a_hat(k: int) -> ChernRootSeries:
    """prod_j (x_j/2)/sinh(x_j/2), truncated at weight 4k."""
    # sinh(u/2)/(u/2) = sum_m v^m / (4^m (2m+1)!),  v = u^2
    core = [Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(k + 1)]
    logs = _log_series(core, k)
    return ChernRootSeries(k, _exp_power_sums({r: -logs[r] for r in range(1, k + 1)}, k, 1))


def l_hat(k: int) -> ChernRootSeries:
    """prod_j x_j/tanh(x_j), truncated at weight 4k.

    In the power-sum basis this is the exponential of
    sum_r [log cosh - log(sinh/id)](v^r) p_r, with constant term 1.
    """
    cosh = [Fraction(1, factorial(2 * m)) for m in range(k + 1)]
    sinh = [Fraction(1, factorial(2 * m + 1)) for m in range(k + 1)]
    logs_cosh = _log_series(cosh, k)
    logs_sinh = _log_series(sinh, k)
    arg = {r: logs_cosh[r] - logs_sinh[r] for r in range(1, k + 1)}
    return ChernRootSeries(k, _exp_power_sums(arg, k, 1))


def witten_chern_series(k: int, N: int = 4) -> dict[Partition, QSeries]:
    """Chern-character q-series of the half-twisted Witten bundle over the
    rank-reduced tangent class, as {partition: rational q-series}: the
    coefficient of p_lambda at every half-grade, to weight 4k.

    With ch(psi^r T~) = sum_s 2 r^(2s) p_s / (2s)!, the bundle's
    Adams-operation logarithm sum_r ch(psi^r T~)/r (sum_n q^(nr) -
    sum_m q^(r(m - 1/2))) is sum_s c_s p_s with c_s = 2 G_s / (2s)! and
    G_s = sum_h q^(h/2) sum_{d | h} (-1)^(h/d) d^(2s-1).
    """
    divisors = [(h, _divisors(h)) for h in range(1, 2 * N + 1)]
    coeffs = {}
    for s in range(1, k + 1):
        g = [0] + [sum((-1) ** (h // d) * d ** (2 * s - 1) for d in ds) for h, ds in divisors]
        coeffs[s] = QSeries(RATIONAL, N, g).scale(Fraction(2, factorial(2 * s)))
    return _exp_power_sums(coeffs, k, QSeries.one(RATIONAL, N))


def ch_witten(k: int, grade, N: int | None = None) -> ChernRootSeries:
    """ch of the grade coefficient bundle of the half-twisted Witten bundle."""
    if N is None:
        N = max(1, int(Fraction(grade)) + 1)
    return ChernRootSeries(
        k, {p: f.coefficient(grade) for p, f in witten_chern_series(k, N).items()})


# -- exact linear algebra ----------------------------------------------------

def solve_exact(rows: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A x = y for every right-hand column, exactly.

    Raises SingularSystem when the unknowns are underdetermined and
    InconsistentSystem when no exact solution exists.  Returns the
    solutions as columns.
    """
    n_eq = len(rows)
    n_un = len(rows[0]) if rows else 0
    n_rhs = len(rhs[0]) if rhs else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(y) for y in rhs[i]] for i in range(n_eq)]
    pivots = []
    row = 0
    for col in range(n_un):
        pivot = next((r for r in range(row, n_eq) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_eq):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n_eq:
            break
    if len(pivots) < n_un:
        raise SingularSystem(f"rank {len(pivots)} < {n_un} unknowns")
    for r in range(row, n_eq):
        if any(aug[r][n_un + j] != 0 for j in range(n_rhs)):
            raise InconsistentSystem("no exact solution; extra equations do not vanish")
    solution = [[Fraction(0)] * n_rhs for _ in range(n_un)]
    for i, col in enumerate(pivots):
        for j in range(n_rhs):
            solution[col][j] = aug[i][n_un + j]
    return solution


def _basis_rows(weight_half: int, N: int) -> list[list[Fraction]]:
    """The basis (8 delta_2)^(weight_half - 2b) * eps_2^b, b = 0..[weight_half/2],
    of weight 2 weight_half, as rows: row h holds the q^(h/2) coefficients."""
    d2 = modform_qexp("delta2", N).series.scale(8)
    e2 = modform_qexp("eps2", N).series
    basis = []
    for b in range(weight_half // 2 + 1):
        a = weight_half - 2 * b
        basis.append(d2 ** a * e2 ** b if a and b else d2 ** a if a else e2 ** b)
    return [[Fraction(s.coeffs[h]) for s in basis] for h in range(2 * N + 1)]


def p2_decompose(genus: QSeries, m: int, N: int | None = None) -> list[Fraction]:
    """Coefficients of a weight-2m form in the (8 delta_2)^a eps_2^b basis.

    The input q-expansion must determine the [m/2]+1 coefficients and
    stay consistent at every further stored grade.
    """
    if N is None:
        N = genus.trunc
    rhs = [[Fraction(genus.coeffs[h]) if h <= 2 * genus.trunc else Fraction(0)]
           for h in range(2 * N + 1)]
    return [x[0] for x in solve_exact(_basis_rows(m, N), rhs)]


@dataclass
class CancellationReport:
    k: int
    h_coeffs: list[Fraction]
    exponents: list[int]
    combinations: list[ChernRootSeries]
    residual: ChernRootSeries
    schedule: str

    @property
    def residual_is_zero(self) -> bool:
        return self.residual.is_zero()


def solve_cancellation(k: int, q_order: int | None = None) -> CancellationReport:
    """Decompose the top-weight twisted A-hat q-series in the level-2
    monomial basis and recover the power-of-two schedule against the top
    L-class.

    The number of modular unknowns is [k/2]+1, so q_order must be at
    least [k/2]+1; all further grades are consistency equations.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    nb = k // 2 + 1
    if q_order is None:
        q_order = nb + 1
    if q_order < nb:
        raise SingularSystem(f"q_order {q_order} < {nb} unknowns")
    ahat = a_hat(k)
    ch_series = witten_chern_series(k, q_order)
    dim = len(list(partitions_of(k)))
    rhs = [(ahat * ChernRootSeries(k, {p: f.coeffs[h] for p, f in ch_series.items()}))
           .weight_part(4 * k).top_vector() for h in range(2 * q_order + 1)]
    solution = solve_exact(_basis_rows(k, q_order), rhs)  # nb x dim
    combos = []
    part_basis = sorted(partitions_of(k))
    for b in range(nb):
        combos.append(ChernRootSeries(k, {part_basis[i]: solution[b][i] for i in range(dim)}))
    # scalar solve: sum_b c_b * combo_b = top part of the L-class
    ell = l_hat(k).weight_part(4 * k)
    lrows = [[Fraction(combos[b].terms.get(p, 0)) for b in range(nb)] for p in part_basis]
    lrhs = [[Fraction(ell.terms.get(p, 0))] for p in part_basis]
    scalars = [c[0] for c in solve_exact(lrows, lrhs)]
    exponents = []
    h_coeffs = []
    for c in scalars:
        e = 0
        if c != 0:
            num, den = c.numerator, c.denominator
            while num % 2 == 0:
                num //= 2
                e += 1
            while den % 2 == 0:
                den //= 2
                e -= 1
            h_coeffs.append(Fraction(num, den))
        else:
            h_coeffs.append(Fraction(0))
        exponents.append(e)
    residual = ell
    for c, combo in zip(scalars, combos):
        residual = residual - combo * c
    expected = [3 * k - 6 * b for b in range(nb)]
    schedule = "2^(3k-6j)" if exponents == expected else f"custom {exponents}"
    return CancellationReport(k, h_coeffs, exponents, combos, residual, schedule)
