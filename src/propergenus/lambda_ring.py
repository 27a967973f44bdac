"""Lambda-ring operations on virtual circle representations.

A virtual representation of the circle is recorded by its character, a
Laurent polynomial whose exponent n carries the one-dimensional
representation of weight n.  Total symmetric and exterior powers S_t
and L_t are computed either by the classical product formulas (for
genuine representations, split into positive and negative parts) or by
the Adams-operation exponential

    S_t(E) = exp( sum_k  psi^k(E) t^k / k ),
    L_t(E) = exp( sum_k (-1)^(k-1) psi^k(E) t^k / k ),

which works for arbitrary virtual inputs and validates the product
route.  On top of these sit the three Witten bundles

    Theta  = tensor_n S_{q^n}(E~)
    Theta1 = Theta * tensor_m L_{q^m}(E~)
    Theta2 = Theta * tensor_m L_{-q^(m-1/2)}(E~)

where E~ = E - rank(E) is the rank-reduced bundle.
"""

from __future__ import annotations

from fractions import Fraction

from .core.laurent import LAMBDA, LaurentPoly
from .core.qseries import LaurentRing, QSeries, half_units
from .errors import NonIntegral

THETA = "theta"
THETA1 = "theta1"
THETA2 = "theta2"


class VirtualChar:
    """A virtual representation, held as its character."""

    __slots__ = ("char",)

    def __init__(self, char: LaurentPoly):
        self.char = char

    @classmethod
    def rep(cls, n: int, var: str = LAMBDA) -> "VirtualChar":
        """The weight-n one-dimensional representation."""
        return cls(LaurentPoly.monomial(n, 1, var))

    @classmethod
    def trivial(cls, d: int, var: str = LAMBDA) -> "VirtualChar":
        return cls(LaurentPoly.constant(d, var))

    @classmethod
    def zero(cls, var: str = LAMBDA) -> "VirtualChar":
        return cls(LaurentPoly.zero(var))

    @property
    def var(self) -> str:
        return self.char.var

    @property
    def rank(self):
        return self.char.eval_one()

    def __add__(self, other: "VirtualChar") -> "VirtualChar":
        return VirtualChar(self.char + other.char)

    def __sub__(self, other: "VirtualChar") -> "VirtualChar":
        return VirtualChar(self.char - other.char)

    def tensor(self, other: "VirtualChar") -> "VirtualChar":
        return VirtualChar(self.char * other.char)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualChar) and self.char == other.char

    def tilde(self) -> "VirtualChar":
        """Subtract the trivial bundle of the same rank."""
        rk = self.rank
        if not isinstance(rk, int):
            raise NonIntegral(f"rank {rk} is not an integer")
        return VirtualChar(self.char - LaurentPoly.constant(rk, self.var))

    def adams(self, k: int) -> "VirtualChar":
        return VirtualChar(self.char.substitute_power(k))

    def is_genuine(self) -> bool:
        return all(isinstance(c, int) and c > 0 for c in self.char.coeffs.values())

    def split(self) -> tuple[dict[int, int], dict[int, int]]:
        """Split into positive and negative weight multiplicities."""
        pos: dict[int, int] = {}
        neg: dict[int, int] = {}
        for e, c in self.char.coeffs.items():
            if not isinstance(c, int):
                raise NonIntegral(f"multiplicity {c} at weight {e} is not an integer")
            if c > 0:
                pos[e] = c
            else:
                neg[e] = -c
        return pos, neg

    def __str__(self) -> str:
        return str(self.char)

    __repr__ = __str__


def _geometric_factor(ring, w: int, h_t: int, sign: int, trunc: int) -> QSeries:
    """S_t of a weight-w line: sum_i sign^i x^(w i) q^(h_t i / 2)."""
    s = QSeries(ring, trunc)
    i = 0
    while i * h_t <= 2 * trunc:
        c = 1 if (sign == 1 or i % 2 == 0) else -1
        s.coeffs[i * h_t] = LaurentPoly.monomial(w * i, c, ring.var)
        i += 1
    return s


def _two_term_factor(ring, w: int, h_t: int, sign: int, trunc: int) -> QSeries:
    """L_t of a weight-w line: 1 + sign * x^w q^(h_t / 2)."""
    s = QSeries.one(ring, trunc)
    if h_t <= 2 * trunc:
        s.coeffs[h_t] = LaurentPoly.monomial(w, sign, ring.var)
    return s


def sym_total(E: VirtualChar, t_grade, sign: int = 1, N: int = 8,
              route: str = "auto") -> QSeries:
    """Total symmetric power S_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=False, route=route)


def ext_total(E: VirtualChar, t_grade, sign: int = 1, N: int = 8,
              route: str = "auto") -> QSeries:
    """Total exterior power L_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=True, route=route)


def _total_power(E: VirtualChar, t_grade, sign: int, N: int,
                 exterior: bool, route: str) -> QSeries:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h_t = half_units(t_grade)
    if h_t < 1:
        raise ValueError("t must carry a positive power of q")
    ring = LaurentRing(E.var)
    if route == "auto":
        try:
            E.split()
            route = "product"
        except NonIntegral:
            route = "adams"
    if route == "adams":
        return _adams_exponential(E, h_t, sign, N, exterior, ring)
    pos, neg = E.split()
    out = QSeries.one(ring, N)
    # S_t(P - M) = S_t(P) L_{-t}(M);  L_t(P - M) = L_t(P) S_{-t}(M)
    for weights, flip in ((pos, False), (neg, True)):
        use_ext = exterior ^ flip
        s = -sign if flip else sign
        for w, mult in sorted(weights.items()):
            factor = (_two_term_factor if use_ext else _geometric_factor)(ring, w, h_t, s, N)
            for _ in range(mult):
                out = out * factor
    return out


def _adams_exponential(E, h_t, sign, N, exterior, ring) -> QSeries:
    arg = QSeries(ring, N)
    k = 1
    while k * h_t <= 2 * N:
        c = Fraction(1, k) * (sign ** k)
        if exterior and k % 2 == 0:
            c = -c
        arg.coeffs[k * h_t] = arg.coeffs[k * h_t] + E.adams(k).char * c
        k += 1
    return arg.exp()


def theta_series(E: VirtualChar, variant: str = THETA, N: int = 8,
                 route: str = "auto") -> QSeries:
    """Witten-bundle product over the character E itself (no rank reduction).

    Factors with first contribution above the truncation are dropped,
    which leaves every stored grade exact.
    """
    ring = LaurentRing(E.var)
    out = QSeries.one(ring, N)
    for n in range(1, N + 1):
        out = out * sym_total(E, n, 1, N, route)
    if variant == THETA1:
        for m in range(1, N + 1):
            out = out * ext_total(E, m, 1, N, route)
    elif variant == THETA2:
        m = 1
        while half_units(Fraction(2 * m - 1, 2)) <= 2 * N:
            out = out * ext_total(E, Fraction(2 * m - 1, 2), -1, N, route)
            m += 1
    elif variant != THETA:
        raise ValueError(f"unknown Witten bundle variant {variant!r}")
    return out


def theta_bundle(E: VirtualChar, variant: str = THETA, N: int = 8,
                 route: str = "auto") -> QSeries:
    """Witten bundle of the rank-reduced representation E~ = E - rank(E)."""
    out = theta_series(E.tilde(), variant, N, route)
    if E.char.is_integral():
        for g, c in out.nonzero_terms():
            if not c.is_integral():
                raise NonIntegral(f"coefficient at grade {g} is not integral: {c}")
    return out


def fourier_coefficient(s: QSeries, grade) -> VirtualChar:
    """The exact coefficient bundle of q^grade."""
    return VirtualChar(s.coefficient(grade))


# -- textual bundle expressions ---------------------------------------------
#
# Grammar:  (rep n) | (trivial d) | (sum e ...) | (difference e e)
#           (tensor e ...) | (tilde e) | (theta e) | (theta1 e) | (theta2 e)
#           (sym t e) | (ext t e)
# where t is a q-power token such as q, -q, q^2, q^1/2, -q^3/2.

def parse_sexpr(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty bundle expression")
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unbalanced bundle expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            node = []
            while tokens[pos] != ")":
                node.append(read())
            pos += 1
            return node
        if tok == ")":
            raise ValueError("unexpected ')'")
        return tok

    tree = read()
    if pos != len(tokens):
        raise ValueError("trailing tokens in bundle expression")
    return tree


def _parse_t_token(tok: str):
    sign = 1
    if tok.startswith("-"):
        sign = -1
        tok = tok[1:]
    if not tok.startswith("q"):
        raise ValueError(f"bad q-power token {tok!r}")
    rest = tok[1:]
    if not rest:
        return Fraction(1), sign
    if not rest.startswith("^"):
        raise ValueError(f"bad q-power token {tok!r}")
    return Fraction(rest[1:]), sign


def eval_bundle_expr(expr, N: int = 8):
    """Evaluate a parsed (or textual) bundle expression.

    Character nodes yield VirtualChar; series nodes yield QSeries.
    Mixed sums and tensors lift characters to constant series.
    """
    if isinstance(expr, str):
        expr = parse_sexpr(expr)
    return _eval(expr, N)


def _lift(x, N):
    if isinstance(x, VirtualChar):
        return QSeries.from_terms(LaurentRing(x.var), N, {0: x.char})
    return x


def _eval(node, N):
    if isinstance(node, str):
        raise ValueError(f"bare token {node!r}; expected a parenthesised node")
    head, *args = node
    if head == "rep":
        return VirtualChar.rep(int(args[0]))
    if head == "trivial":
        return VirtualChar.trivial(int(args[0]))
    if head in ("sum", "difference", "tensor"):
        vals = [_eval(a, N) for a in args]
        if head == "difference" and len(vals) != 2:
            raise ValueError("difference takes exactly two arguments")
        if all(isinstance(v, VirtualChar) for v in vals):
            out = vals[0]
            for v in vals[1:]:
                out = out - v if head == "difference" else (
                    out + v if head == "sum" else out.tensor(v))
            return out
        vals = [_lift(v, N) for v in vals]
        out = vals[0]
        for v in vals[1:]:
            out = out - v if head == "difference" else (
                out + v if head == "sum" else out * v)
        return out
    if head == "tilde":
        val = _eval(args[0], N)
        if not isinstance(val, VirtualChar):
            raise ValueError("tilde applies to characters, not series")
        return val.tilde()
    if head in (THETA, THETA1, THETA2):
        val = _eval(args[0], N)
        if not isinstance(val, VirtualChar):
            raise ValueError(f"{head} applies to characters, not series")
        return theta_series(val, head, N)
    if head in ("sym", "ext"):
        grade, sign = _parse_t_token(args[0])
        val = _eval(args[1], N)
        if not isinstance(val, VirtualChar):
            raise ValueError(f"{head} applies to characters, not series")
        fn = sym_total if head == "sym" else ext_total
        return fn(val, grade, sign, N)
    raise ValueError(f"unknown bundle node {head!r}")
