"""Lambda-ring operations on virtual circle representations.

A virtual representation of the circle is recorded by its character, a
Laurent polynomial whose exponent n carries the one-dimensional
representation of weight n.  Total symmetric and exterior powers S_t
and L_t of a character with integer multiplicities are products over
its lines: split E = P - M into positive and negative parts, then
S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M), so
every line of weight w contributes one binomial factor 1 +- t x^w or
its inverse.  These factors are applied in place, one pass over the
grades each (``core.qseries._binomial_product``); a whole Witten bundle,
the weight-0 part of E~ included, is one such product.  A character
with a non-integral multiplicity is refused with NonIntegral.  The tests
hold this route equal to the Adams-operation exponential

    S_t(E) = exp( sum_k  psi^k(E) t^k / k ),
    L_t(E) = exp( sum_k (-1)^(k-1) psi^k(E) t^k / k ).

On top of these sit the three Witten bundles

    Theta  = tensor_n S_{q^n}(E~)
    Theta1 = Theta * tensor_m L_{q^m}(E~)
    Theta2 = Theta * tensor_m L_{-q^(m-1/2)}(E~)

where E~ = E - rank(E) is the rank-reduced bundle.
"""

from __future__ import annotations

from fractions import Fraction

from .core.laurent import LAMBDA, LaurentPoly
from .core.qseries import LaurentRing, QSeries, _binomial_product, half_units
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


def sym_total(E: VirtualChar, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total symmetric power S_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=False)


def ext_total(E: VirtualChar, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total exterior power L_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=True)


def _line_factors(lines, h_t: int, sign: int, exterior: bool):
    """Binomial factors of S_t(E) or L_t(E), t = sign * q^(h_t/2), one per line.

    ``lines`` is ``E.split()``.  A weight-w line of P contributes
    1/(1 - t x^w) to S_t and 1 + t x^w to L_t; by
    S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M)
    a line of M contributes the other one with -t.
    """
    pos, neg = lines
    for weights, flip in ((pos, False), (neg, True)):
        s = -sign if flip else sign
        divide = not (exterior ^ flip)
        for w, mult in sorted(weights.items()):
            for _ in range(mult):
                yield s, w, h_t, divide


def _total_power(E: VirtualChar, t_grade, sign: int, N: int, exterior: bool) -> QSeries:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h_t = half_units(t_grade)
    if h_t < 1:
        raise ValueError("t must carry a positive power of q")
    return _binomial_product(LaurentRing(E.var), N,
                             _line_factors(E.split(), h_t, sign, exterior))


def theta_series(E: VirtualChar, variant: str = THETA, N: int = 8) -> QSeries:
    """Witten-bundle product over the character E itself (no rank reduction).

    Factors with first contribution above the truncation are dropped,
    which leaves every stored grade exact.
    """
    # (t in half units, sign of t, exterior) of each total power
    powers = [(2 * n, 1, False) for n in range(1, N + 1)]
    if variant == THETA1:
        powers += [(2 * m, 1, True) for m in range(1, N + 1)]
    elif variant == THETA2:
        powers += [(h, -1, True) for h in range(1, 2 * N + 1, 2)]
    elif variant != THETA:
        raise ValueError(f"unknown Witten bundle variant {variant!r}")
    lines = E.split()
    return _binomial_product(LaurentRing(E.var), N, (
        f for h_t, sign, exterior in powers
        for f in _line_factors(lines, h_t, sign, exterior)))


def theta_bundle(E: VirtualChar, variant: str = THETA, N: int = 8) -> QSeries:
    """Witten bundle of the rank-reduced representation E~ = E - rank(E)."""
    out = theta_series(E.tilde(), variant, N)
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
