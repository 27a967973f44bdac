"""Lambda-ring operations on virtual circle representations.

A virtual representation of the circle is recorded by its character, a
Laurent polynomial whose exponent n carries the one-dimensional
representation of weight n.  Total symmetric and exterior powers S_t
and L_t of a character with integer multiplicities are products over
its lines: with E = P - M split into positive and negative parts,
S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M), so
the d lines of weight w contribute one binomial factor (1 +- t x^w)^d
or its inverse.  A whole Witten bundle is one such product over two
short lists, the lines of E and the powers t of q, and
``core.qseries._binomial_product`` takes exactly these two lists: E
itself and its powers (h, sign, exterior), t = sign q^(h/2).  It reads
each factor as a line and a power inside its loops, multiplies the
weight-0 factors, the rank part of E~ among them, out on plain ints
into a scalar start built once for all fixed points of a call, and
bounds the cost of a weighted factor by the truncation, not by its
multiplicity.  One pair rule serves all three Witten bundles: under a
run of powers of one kind at every whole grade, or at every odd
half-grade, a line pair +-w of equal multiplicity c, |c| at most
3 isqrt(2N), runs by Jacobi's triple product instead of its binomial
factors.  With z = x^w and T_k = k(k+1)/2,

    prod_n (1 - z q^n)(1 - q^n/z) = sum_k (-1)^k chi_k(z) q^(T_k) / (q; q)_inf,
    prod_n (1 + z q^n)(1 + q^n/z) = sum_k (-1)^k chi_k(-z) q^(T_k) / (q; q)_inf,
    prod_m (1 - z q^(m-1/2))(1 - q^(m-1/2)/z)
        = sum_k (-1)^k z^k q^(k^2/2) / (q; q)_inf,

with chi_k(z) = z^-k + ... + z^k (the second is the first at -z), so
Theta divides by the first sum, Theta1's exterior factors multiply by
the second and Theta2's odd ones by the third, |c| sparse passes each,
and the net power of (q; q) joins the scalar start.  The product can
start from a given series, so Theta(E~) times a series is one such
run.  A character with a non-integral multiplicity is refused
with NonIntegral.  The tests hold this route equal to the
Adams-operation exponential

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
import re
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


def sym_total(E: LaurentPoly, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total symmetric power S_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=False)


def ext_total(E: LaurentPoly, t_grade, sign: int = 1, N: int = 8) -> QSeries:
    """Total exterior power L_t(E) with t = sign * q^t_grade."""
    return _total_power(E, t_grade, sign, N, exterior=True)


def _total_power(E: LaurentPoly, t_grade, sign: int, N: int, exterior: bool) -> QSeries:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h_t = half_units(t_grade)
    if h_t < 1:
        raise ValueError("t must carry a positive power of q")
    return _binomial_product(E, [(h_t, sign, exterior)], N)


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
    return _binomial_product(E, powers, N, start)


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
    # stack[0] holds the top-level node, stack[-1] the innermost open one
    stack = [[]]
    for tok in tokens:
        if len(stack) == 1 and stack[0]:
            raise ValueError("trailing tokens in bundle expression")
        if tok == "(":
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unexpected ')'")
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ValueError("unbalanced bundle expression")
    return stack[0][0]


# -q^n/d with optional sign, exponent and denominator, in ASCII digits
# alone: Fraction's own parser takes "1_0" only from Python 3.11 on
_T_TOKEN = re.compile(r"(-?)q(?:\^([+-]?\d+)(?:/(\d+))?)?", re.ASCII)


def _parse_t_token(tok: str):
    match = _T_TOKEN.fullmatch(tok)
    if match:
        sign, num, den = match.groups()
        try:  # a zero denominator, or more digits than int() reads
            return Fraction(int(num or 1), int(den or 1)), -1 if sign else 1
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


def _int_token(head: str, arg) -> int:
    tok = _token(arg)
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{head} takes an integer, got {tok!r}") from None


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
        return LaurentPoly.monomial(_int_token(head, args[0]))
    if head == "trivial":
        return LaurentPoly.constant(_int_token(head, args[0]))
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
