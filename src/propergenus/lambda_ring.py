"""Lambda-ring operations on virtual circle representations.

A virtual representation of the circle is recorded by its character, a
Laurent polynomial whose exponent n carries the one-dimensional
representation of weight n.  Total symmetric and exterior powers S_t
and L_t of a character with integer multiplicities are products over
its lines: split E = P - M into positive and negative parts, then
S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M), so
the d lines of weight w contribute one binomial factor (1 +- t x^w)^d
or its inverse.  A whole Witten bundle is one product of such factors,
applied in place (``core.qseries._binomial_product``): the weight-0
factors, the rank part of E~ among them, multiply out once on plain
ints into the product's scalar start, and the cost of a weighted factor
is bounded by the truncation, not by its multiplicity.  The product can
start from a given series, so Theta(E~) times a series is one such run.
A character with a non-integral multiplicity is refused with
NonIntegral.  The tests hold this route equal to the Adams-operation
exponential

    S_t(E) = exp( sum_k  psi^k(E) t^k / k ),
    L_t(E) = exp( sum_k (-1)^(k-1) psi^k(E) t^k / k ).

On top of these sit the three Witten bundles

    Theta  = tensor_n S_{q^n}(E~)
    Theta1 = Theta * tensor_m L_{q^m}(E~)
    Theta2 = Theta * tensor_m L_{-q^(m-1/2)}(E~)

where E~ = E - rank(E) is the rank-reduced bundle.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .core.laurent import LaurentPoly
from .core.qseries import LaurentRing, QSeries, _binomial_product, half_units
from .errors import NonIntegral

THETA = "theta"
THETA1 = "theta1"
THETA2 = "theta2"


def tilde(E: LaurentPoly) -> LaurentPoly:
    """The rank-reduced character E~ = E - rank(E)."""
    rk = E.eval_one()
    if not isinstance(rk, int):
        raise NonIntegral(f"rank {rk} is not an integer")
    return E - rk


def _split(E: LaurentPoly) -> tuple[dict[int, int], dict[int, int]]:
    """Split E = P - M into positive and negative weight multiplicities."""
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for e, c in E.coeffs.items():
        if not isinstance(c, int):
            raise NonIntegral(f"multiplicity {c} at weight {e} is not an integer")
        if c > 0:
            pos[e] = c
        else:
            neg[e] = -c
    return pos, neg


def sym_total(E: LaurentPoly, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total symmetric power S_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=False)


def ext_total(E: LaurentPoly, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total exterior power L_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=True)


def _line_factors(lines, h_t: int, sign: int, exterior: bool):
    """Binomial factors of S_t(E) or L_t(E), t = sign * q^(h_t/2), one per
    weight with its multiplicity.

    ``lines`` is ``_split(E)``.  A weight-w line of P contributes
    1/(1 - t x^w) to S_t and 1 + t x^w to L_t; by
    S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M)
    a line of M contributes the other one with -t.
    """
    pos, neg = lines
    for weights, flip in ((pos, False), (neg, True)):
        s = -sign if flip else sign
        divide = not (exterior ^ flip)
        for w, mult in sorted(weights.items()):
            yield s, w, h_t, divide, mult


def _total_power(E: LaurentPoly, t_grade, sign: int, N: int, exterior: bool) -> QSeries:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h_t = half_units(t_grade)
    if h_t < 1:
        raise ValueError("t must carry a positive power of q")
    return _binomial_product(LaurentRing(E.var), N,
                             _line_factors(_split(E), h_t, sign, exterior))


def theta_series(E: LaurentPoly, variant: str = THETA, N: int = 8,
                 start: QSeries | None = None) -> QSeries:
    """Witten-bundle product over the character E itself (no rank reduction),
    times ``start`` when it is given.

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
    lines = _split(E)
    return _binomial_product(LaurentRing(E.var), N, (
        f for h_t, sign, exterior in powers
        for f in _line_factors(lines, h_t, sign, exterior)), start)


def theta_bundle(E: LaurentPoly, variant: str = THETA, N: int = 8,
                 start: QSeries | None = None) -> QSeries:
    """Witten bundle of the rank-reduced representation E~ = E - rank(E),
    times ``start`` when it is given."""
    return theta_series(tilde(E), variant, N, start)


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
            # read() refuses to run past the end, so an unclosed node raises
            while pos == len(tokens) or tokens[pos] != ")":
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
    sign = -1 if tok.startswith("-") else 1
    power = tok[1:] if sign < 0 else tok
    if power == "q":
        return Fraction(1), sign
    if power.startswith("q^"):
        try:
            return Fraction(power[2:]), sign
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"bad q-power token {tok!r}")


def eval_bundle_expr(expr, N: int = 8):
    """Evaluate a parsed (or textual) bundle expression.

    Character nodes yield a LaurentPoly in lam; series nodes yield a
    QSeries.  Mixed sums and tensors lift characters to constant series.
    """
    try:
        return _eval(parse_sexpr(expr) if isinstance(expr, str) else expr, N)
    except RecursionError:
        raise ValueError("bundle expression nested too deeply") from None


# node -> (number of arguments, whether more may follow), and the folds
_ARITY = {"rep": (1, False), "trivial": (1, False), "sum": (1, True),
          "difference": (2, False), "tensor": (1, True), "tilde": (1, False),
          THETA: (1, False), THETA1: (1, False), THETA2: (1, False),
          "sym": (2, False), "ext": (2, False)}
_FOLDS = {"sum": operator.add, "difference": operator.sub, "tensor": operator.mul}


def _token(arg) -> str:
    if not isinstance(arg, str):
        raise ValueError(f"expected a token, got the node {arg!r}")
    return arg


def _char(head: str, node, N) -> LaurentPoly:
    val = _eval(node, N)
    if not isinstance(val, LaurentPoly):
        raise ValueError(f"{head} applies to characters, not series")
    return val


def _eval(node, N):
    if isinstance(node, str):
        raise ValueError(f"bare token {node!r}; expected a parenthesised node")
    if not node:
        raise ValueError("empty bundle node ()")
    head, *args = node
    if not isinstance(head, str) or head not in _ARITY:
        raise ValueError(f"unknown bundle node {head!r}")
    n, more = _ARITY[head]
    if len(args) < n or (len(args) > n and not more):
        want = f"at least {n}" if more else str(n)
        raise ValueError(f"{head} takes {want} argument(s), got {len(args)}")
    if head == "rep":
        return LaurentPoly.monomial(int(_token(args[0])))
    if head == "trivial":
        return LaurentPoly.constant(int(_token(args[0])))
    if head in _FOLDS:
        vals = [_eval(a, N) for a in args]
        if not all(isinstance(v, LaurentPoly) for v in vals):
            # characters lift to constant series
            vals = [QSeries.from_terms(LaurentRing(v.var), N, {0: v})
                    if isinstance(v, LaurentPoly) else v for v in vals]
        return functools.reduce(_FOLDS[head], vals)
    if head == "tilde":
        return tilde(_char(head, args[0], N))
    if head in (THETA, THETA1, THETA2):
        return theta_series(_char(head, args[0], N), head, N)
    grade, sign = _parse_t_token(_token(args[0]))
    fn = sym_total if head == "sym" else ext_total
    return fn(_char(head, args[1], N), grade, sign, N)
