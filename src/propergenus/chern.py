"""Formal Chern-root verification of the cancellation identity between
the top L-class and Witten-twisted A-hat classes.

Symmetric series in Chern roots are stored in the power-sum basis
p_r = sum_j x_j^(2r) (weight 4r), which keeps every identity manifestly
independent of the number of roots.  Ranks enter only through the
rank-reduced Chern characters

    ch(psi^r T~) = sum_s 2 r^(2s) p_s / (2s)!,

whose exponential q-series reproduces the Witten bundle coefficients on
the Chern character level.  The headline computation decomposes the
top-weight part of the twisted A-hat q-series in the monomial basis
(8 delta_2)^a eps_2^b by exact linear algebra, then recovers the
power-of-two schedule relating it to the top L-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core.laurent import normalize_scalar
from .core.qseries import QSeries
from .errors import InconsistentSystem, SingularSystem
from .theta_modforms import modform_qexp

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

    def exp(self) -> "ChernRootSeries":
        if self.constant_term() != 0:
            raise ValueError("exp requires vanishing constant term")
        out = ChernRootSeries.constant(self.k, 1)
        term = ChernRootSeries.constant(self.k, 1)
        for m in range(1, self.k + 1):
            term = term * self * Fraction(1, m)
            if term.is_zero():
                break
            out = out + term
        return out

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


class ChernRing:
    """Coefficient-ring adapter so QSeries can carry Chern-root values."""

    def __init__(self, k: int):
        self.k = k
        self.name = f"chern[{k}]"

    def zero(self):
        return ChernRootSeries(self.k)

    def one(self):
        return ChernRootSeries.constant(self.k, 1)

    def coerce(self, x):
        if isinstance(x, ChernRootSeries):
            if x.k != self.k:
                raise ValueError(f"weight cutoff {x.k} != {self.k}")
            return x
        if isinstance(x, (int, Fraction)):
            return ChernRootSeries.constant(self.k, x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def invert(self, x):
        raise NotImplementedError("no division in the Chern-root ring")

    def to_json(self, x):
        return {"*".join(map(str, p)) or "1": str(Fraction(c)) for p, c in sorted(x.terms.items())}

    def __eq__(self, other) -> bool:
        return isinstance(other, ChernRing) and self.k == other.k

    def __hash__(self):
        return hash(self.name)


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


def a_hat(k: int) -> ChernRootSeries:
    """prod_j (x_j/2)/sinh(x_j/2), truncated at weight 4k."""
    # sinh(u/2)/(u/2) = sum_m v^m / (4^m (2m+1)!),  v = u^2
    core = [Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(k + 1)]
    logs = _log_series(core, k)
    arg = ChernRootSeries(k, {(r,): -logs[r] for r in range(1, k + 1)})
    return arg.exp()


def l_hat(k: int) -> ChernRootSeries:
    """prod_j x_j/tanh(x_j), truncated at weight 4k.

    In the power-sum basis this is the exponential of
    sum_r [log cosh - log(sinh/id)](v^r) p_r, with constant term 1.
    """
    cosh = [Fraction(1, factorial(2 * m)) for m in range(k + 1)]
    sinh = [Fraction(1, factorial(2 * m + 1)) for m in range(k + 1)]
    logs_cosh = _log_series(cosh, k)
    logs_sinh = _log_series(sinh, k)
    arg = ChernRootSeries(k, {(r,): logs_cosh[r] - logs_sinh[r] for r in range(1, k + 1)})
    return arg.exp()


def _psi_chern_char(k: int, r: int) -> ChernRootSeries:
    """ch of the r-th Adams operation on the rank-4k reduced tangent class."""
    return ChernRootSeries(
        k, {(s,): Fraction(2 * r ** (2 * s), factorial(2 * s)) for s in range(1, k + 1)}
    )


def witten_chern_series(k: int, N: int = 4) -> QSeries:
    """Chern-character q-series of the half-twisted Witten bundle over the
    rank-reduced tangent class, as a series over the Chern-root ring."""
    ring = ChernRing(k)
    arg = QSeries(ring, N)
    for r in range(1, 2 * N + 1):
        c_r = _psi_chern_char(k, r) * Fraction(1, r)
        n = 1
        while n * r <= N:
            h = 2 * n * r
            arg.coeffs[h] = arg.coeffs[h] + c_r
            n += 1
        m = 1
        while r * (2 * m - 1) <= 2 * N:
            h = r * (2 * m - 1)
            arg.coeffs[h] = arg.coeffs[h] - c_r
            m += 1
    return arg.exp()


def ch_witten(k: int, grade, N: int | None = None) -> ChernRootSeries:
    """ch of the grade coefficient bundle of the half-twisted Witten bundle."""
    if N is None:
        N = max(1, int(Fraction(grade)) + 1)
    return witten_chern_series(k, N).coefficient(grade)


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
    basis = [(d2 ** (weight_half - 2 * b)) * (e2 ** b) for b in range(weight_half // 2 + 1)]
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
    rhs = [(ahat * c).weight_part(4 * k).top_vector() for c in ch_series.coeffs]
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
