import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import propergenus
from propergenus import cli
from propergenus.chern import solve_cancellation
from propergenus.cli import DOMAIN_ERROR, USAGE_ERROR, build_parser, main
from propergenus.core import LaurentPoly
from propergenus.lambda_ring import sym_total
from propergenus.theta_modforms import verify_modform_transforms, verify_theta_transforms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_witten_genus_document(capsys):
    code, out = run(capsys, "witten-genus", "--weights", "0,1,2,3", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["identically_zero"] is True
    grade0 = doc["series"]["terms"][0]
    assert grade0 == {"grade": "0", "coeff": "0"}
    assert doc["series"]["truncation"] == 6


def test_witten_genus_nonzero(capsys):
    code, out = run(capsys, "witten-genus", "--weights", "0,1,2,5", "--order", "4")
    doc = json.loads(out)
    assert doc["identically_zero"] is False
    by_grade = {t["grade"]: t["coeff"] for t in doc["series"]["terms"]}
    assert by_grade["2"] == "-2"


def test_elliptic_genera_zero(capsys):
    code, out = run(capsys, "elliptic-genera", "--weights", "0,2", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["identically_zero"] is True
    assert all(t["coeff"] == "0" for t in doc["phi1"]["terms"])
    assert all(t["coeff"] == "0" for t in doc["phi2"]["terms"])


def test_determinism_byte_identical(capsys):
    _, first = run(capsys, "witten-genus", "--weights", "0,1,2,5", "--order", "5")
    _, second = run(capsys, "witten-genus", "--weights", "0,1,2,5", "--order", "5")
    assert first == second
    _, third = run(capsys, "cancellation", "--k", "2", "--order", "3")
    _, fourth = run(capsys, "cancellation", "--k", "2", "--order", "3")
    assert third == fourth


def test_lefschetz_verb(capsys):
    code, out = run(capsys, "lefschetz", "--weights", "0,1,2,3", "--operator", "dirac",
                    "--twist", "theta", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["signed"] is True
    assert doc["series"]["terms"][0]["coeff"] == {}


def test_unsigned_flag_maps_to_domain_error(capsys):
    code, out = run(capsys, "lefschetz", "--weights", "0,2", "--order", "2", "--unsigned")
    assert code == DOMAIN_ERROR
    doc = json.loads(out)
    assert doc["error"]["code"] == "NotLaurent"


def test_domain_error_codes(capsys):
    code, out = run(capsys, "witten-genus", "--weights", "0,1", "--order", "2")
    assert code == DOMAIN_ERROR
    assert json.loads(out)["error"]["code"] == "OddWeightSum"
    code, out = run(capsys, "witten-genus", "--weights", "0,2,2,4", "--order", "2")
    assert code == DOMAIN_ERROR
    assert json.loads(out)["error"]["code"] == "DuplicateWeights"
    code, out = run(capsys, "cancellation", "--k", "3", "--order", "1")
    assert code == DOMAIN_ERROR
    assert json.loads(out)["error"]["code"] == "SingularSystem"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["lefschetz", "--weights", "0,2", "--operator", "bogus"])
    assert exc.value.code == USAGE_ERROR


@pytest.mark.parametrize("argv", [
    ["theta", "check", "--v", "0.1,0.2", "--tau", "nan,1"],
    ["theta", "check", "--v", "-inf,0", "--tau", "0,1"],
    ["modforms", "check", "--tau", "0.1,1", "--tol", "nan"],
    ["modforms", "check", "--tau", "0.1,1", "--tol", "inf"],
    ["modforms", "check", "--tau", "0.1,inf"],
    # a law passes only when its residual is below --tol, so a tolerance
    # of 0 or less would report laws that hold, at residual 0.0, as failed
    ["theta", "check", "--v", "0,0", "--tau", "0,1", "--order", "1", "--tol", "0"],
    ["theta", "check", "--v", "0,0", "--tau", "0,1", "--order", "1", "--tol", "-1"],
    ["modforms", "check", "--tau", "0,1", "--order", "1", "--tol", "0"],
    ["modforms", "check", "--tau", "0,1", "--order", "1", "--tol", "-1"],
    # the indent is 0 to 8: a negative one printed like 0, and a huge one
    # asked for its whole run of spaces before printing anything
    ["cancellation", "--k", "1", "--order", "1", "--json-indent", "-1"],
    ["cancellation", "--k", "1", "--order", "1", "--json-indent", "9"],
    ["cancellation", "--k", "1", "--order", "1", "--json-indent", "100000000000"],
    # an empty weight entry is refused, not dropped: "0,,2" is not 0,2
    ["witten-genus", "--weights", "0,,2", "--order", "2"],
    ["witten-genus", "--weights", ",0,2", "--order", "2"],
    ["witten-genus", "--weights", "0,2,", "--order", "2"],
])
def test_non_finite_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("expr", [
    "(rep)", "(sum)", "(tensor)", "(tilde)", "(theta)", "(sym q)", "(rep 1",
    "(rep 1 2)", "(tilde (rep 1) (rep 2))", "(rep (rep 1))", "(sym (rep 1) (rep 0))",
    "(sym q^1/0 (rep 1))", "(sym -q^abc (rep 1))", "(sym q^ (rep 1))", "(sym q^1/2/3 (rep 1))",
    "(rep abc)", "(trivial 1.5)",
    # an exponent is ASCII digits alone on every Python: Fraction's parser
    # takes "1_0" from 3.11 on, and float-like forms and other scripts'
    # digits are no q-power
    "(sym q^1_0 (rep 1))", "(sym q^1_0/2 (rep 1))", "(sym q^1/2_0 (rep 1))", "(sym q^1.5 (rep 1))",
    "(sym q^1e3 (rep 1))", "(sym q^1/00 (rep 1))",
    pytest.param("(sym q^\u0661 (rep 1))", id="arabic-indic-digit"),
    pytest.param("(sym q^1/\uff12 (rep 1))", id="fullwidth-digit"),
    pytest.param("(sym q^" + "1" * 5000 + " (rep 1))", id="exponent-5000-digits"),
    pytest.param("(sym q^1/" + "1" * 5000 + " (rep 1))", id="denominator-5000-digits"),
    pytest.param("(tilde " * 2000 + "(rep 1)" + ")" * 2000, id="nested-2000"),
    pytest.param("(" * 2000, id="open-2000"),
])
def test_malformed_bundle_expression_is_usage_error(capsys, expr):
    with pytest.raises(SystemExit) as exc:
        main(["bundle", "expand", "--expr", expr, "--order", "2"])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    if "q^" in expr:
        assert "bad q-power token" in captured.err
    if expr in ("(rep abc)", "(trivial 1.5)"):
        head, token = expr[1:-1].split()
        assert f"{head} takes an integer, got '{token}'" in captured.err
    if expr.startswith("(tilde (tilde "):  # the evaluator recurses: its RecursionError is the guard
        assert captured.err.endswith("error: bundle expression nested too deeply\n")


@pytest.mark.parametrize("token, grade, sign", [
    ("q", 1, 1), ("-q", 1, -1), ("q^2", 2, 1), ("-q^1/2", Fraction(1, 2), -1),
    ("q^+3/2", Fraction(3, 2), 1), ("q^06/04", Fraction(3, 2), 1),
])
def test_q_power_token_reads_its_grade(capsys, token, grade, sign):
    code, out = run(capsys, "bundle", "expand", "--expr", f"(sym {token} (rep 1))", "--order", "3")
    assert code == 0
    want = sym_total(LaurentPoly({1: 1}), grade, sign, 3)
    assert json.loads(out)["series"] == want.to_json()


@pytest.mark.parametrize("token", ["q^0", "q^-1", "-q^0/3"])
def test_q_power_token_must_be_positive(capsys, token):
    with pytest.raises(SystemExit) as exc:
        main(["bundle", "expand", "--expr", f"(sym {token} (rep 1))", "--order", "2"])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "t must carry a positive power of q" in captured.err


@pytest.mark.parametrize("argv", [
    ["theta", "expand", "--kind", "theta", "--z-order", "-1"],
    ["bundle", "expand", "--expr", "(rep abc)"],
    ["witten-genus", "--weights", "0,1,2"],
    ["cancellation", "--k", "0"],
])
def test_runner_usage_error_comes_from_its_verb(capsys, argv):
    # a value that only the verb's runner refuses is reported like the
    # verb's own argparse errors: its usage line and its prog
    verb = " ".join(a for a in argv[:2] if not a.startswith("-"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: propergenus {verb} [-h]")
    assert f"\npropergenus {verb}: error: " in captured.err


@pytest.mark.parametrize("argv, expected", [
    (["theta", "check", "--v", "0,300", "--tau", "0,1"], "NumericOverflow"),
    (["theta", "check", "--v", "0,120", "--tau", "0,1"], "NumericOverflow"),
    (["theta", "check", "--v", "0.1,0", "--tau", "0,1e-300"], "NotUpperHalfPlane"),
    (["theta", "check", "--v", "0.1,0", "--tau", "0,1e300"], "NotUpperHalfPlane"),
    (["modforms", "check", "--tau", "0,1e-300"], "NotUpperHalfPlane"),
    # 2 pi v overflows inside cmath.exp, which raises ValueError
    (["theta", "check", "--v", "1e308,0", "--tau", "0,1"], "NumericOverflow"),
    # tau is in the upper half-plane, and so is its S-image, since
    # Im(-1/tau) = Im tau / |tau|^2 > 0; that imaginary part underflows to 0
    (["modforms", "check", "--tau", "1e308,1"],
     "NotUpperHalfPlane: -1/tau = (-1e-308+0j) is so close to the real axis that |q|^(1/2) rounds to 1"),
    (["modforms", "check", "--tau", "1e300,1"],
     "NotUpperHalfPlane: -1/tau = (-1e-300+0j) is so close to the real axis that |q|^(1/2) rounds to 1"),
    (["theta", "check", "--v", "0,0", "--tau", "1e308,1"],
     "NotUpperHalfPlane: -1/tau = (-1e-308+0j) is so close to the real axis that |q|^(1/2) rounds to 1"),
    # an input tau on or below the axis is outside the half-plane
    (["modforms", "check", "--tau", "0,0"], "NotUpperHalfPlane: tau = 0j is not in the upper half-plane"),
    (["theta", "check", "--v", "0,0", "--tau", "1,-1"],
     "NotUpperHalfPlane: tau = (1-1j) is not in the upper half-plane"),
])
def test_numeric_check_out_of_range_is_domain_error(capsys, argv, expected):
    # finite input whose evaluation cannot be done in floating point;
    # expected is the error code, then ": " and the message if it is pinned
    exit_code, out = run(capsys, *argv, "--order", "20")
    assert exit_code == DOMAIN_ERROR
    error = json.loads(out)["error"]
    code, _, message = expected.partition(": ")
    assert error["code"] == code
    assert not message or error["message"] == message


@pytest.mark.parametrize("argv, failed", [
    # v = 5i = 5 tau is a lattice zero of theta: both sides cancel from
    # terms of about 1e34, so only a residual relative to that scale decides
    (["--v", "0,5", "--tau", "0,1", "--order", "20"], []),
    # finite products at a tiny Im tau; the truncated S-side of theta2
    # and theta3 has not converged, the other six laws hold
    (["--v", "0.1,0", "--tau", "0,1e-15", "--order", "20"], ["theta2_S", "theta3_S"]),
    (["--v", "0.1,0.05", "--tau", "0.2,1.1", "--order", "1"],
     ["theta1_S", "theta2_S", "theta3_S", "theta_S"]),
])
def test_theta_check_judges_relative_to_scale(capsys, argv, failed):
    code, out = run(capsys, "theta", "check", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == failed
    assert doc["all_passed"] is (not failed)
    assert len(doc["residuals"]) == 8


# one call of every verb, each with what it requires; --order is appended
VERB_CALLS = [
    ["witten-genus", "--weights", "0,1,2,5"],
    ["elliptic-genera", "--weights", "0,1,2,5"],
    ["lefschetz", "--weights", "0,1,2,5"],
    ["p-series", "--weights", "0,1,2,5"],
    ["theta", "check", "--v", "0.1,0.2", "--tau", "0,1"],
    ["theta", "expand", "--kind", "theta1"],
    ["modforms", "expand", "--name", "eps2"],
    ["modforms", "check", "--tau", "0.1,1"],
    ["bundle", "expand", "--expr", "(theta (rep 2))"],
    ["cancellation", "--k", "2"],
]


TOL_VERBS = (["theta", "check"], ["modforms", "check"])
UNSIGNED_VERBS = ("lefschetz",)


@pytest.mark.parametrize("argv", VERB_CALLS, ids=lambda argv: "-".join(argv[:2]))
def test_tol_and_unsigned_only_where_read(capsys, argv):
    # --tol belongs to the two checks and --unsigned to the verbs that read
    # it; anywhere else either one is a usage error with empty stdout
    for flag, takes in ((["--tol", "1e-3"], argv[:2] in TOL_VERBS),
                        (["--unsigned"], argv[0] in UNSIGNED_VERBS)):
        code, out, err = _call(capsys, argv + ["--order", "2", *flag])
        if takes:
            assert code in (0, DOMAIN_ERROR)
            json.loads(out)
        else:
            assert code == USAGE_ERROR
            assert out == ""
            assert f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize("order", ["0", "-5"])
@pytest.mark.parametrize("argv", VERB_CALLS, ids=lambda argv: "-".join(argv[:2]))
def test_order_below_one_is_usage_error(capsys, argv, order):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", order])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"order must be at least 1, got {order}" in captured.err


def test_check_verbs_default_to_the_library_order(capsys):
    # with no --order the two checks truncate where the library's checks
    # do, and pass at tau = 0.3i, where order 10 leaves S-law residuals of
    # 1e-9 to 9e-9; cancellation leaves the order to solve_cancellation,
    # and every other verb defaults to order 10
    library = {verb: inspect.signature(fn).parameters["N"].default
               for verb, fn in (("theta", verify_theta_transforms), ("modforms", verify_modform_transforms))}
    library["cancellation"] = inspect.signature(solve_cancellation).parameters["q_order"].default
    for argv in (["theta", "check", "--v", "0.1,0.05", "--tau", "0,0.3"], ["modforms", "check", "--tau", "0,0.3"]):
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert (code, doc["order"], doc["failed"], doc["all_passed"]) == (0, library[argv[0]], [], True)
    parser = build_parser()
    for argv in VERB_CALLS:
        want = library[argv[0]] if argv[:2] in TOL_VERBS or argv[0] == "cancellation" else 10
        assert parser.parse_args(argv).order == want


def test_cancellation_without_order_solves_at_the_library_order(capsys):
    # the library needs k // 2 + 1 grades: 11 at k = 20, beyond the shared 10
    code, out = run(capsys, "cancellation", "--k", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_is_zero"] is True and doc["schedule"] == "2^(3k-6j)"


def test_check_verbs_default_to_the_library_tolerance(capsys):
    # with no --tol each check judges its laws at its library check's
    # default: 1e-9 for the theta laws, 1e-8 for the modular forms
    library = {verb: inspect.signature(fn).parameters["tol"].default
               for verb, fn in (("theta", verify_theta_transforms), ("modforms", verify_modform_transforms))}
    assert library == {"theta": 1e-9, "modforms": 1e-8}
    for argv, printed in ((["theta", "check", "--v", "0,0", "--tau", "0,1"], '"tolerance": 1e-09'),
                          (["modforms", "check", "--tau", "0,1"], '"tolerance": 1e-08')):
        code, out = run(capsys, *argv)
        assert code == 0 and printed in out
        assert json.loads(out)["tolerance"] == library[argv[0]]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cancellation_k_below_one_is_usage_error(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["cancellation", "--k", k, "--order", "3"])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"k must be at least 1, got {k}" in captured.err


@pytest.mark.parametrize("argv", [["--k", "33"], ["--k", "33", "--order", "1"], ["--k", "1000"]])
def test_cancellation_k_above_limit_is_usage_error(capsys, argv):
    # refused by the verb before any solve, whatever the order
    with pytest.raises(SystemExit) as exc:
        main(["cancellation", *argv])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: propergenus cancellation [-h]")
    assert f"k must be at most 32, got {argv[1]}" in captured.err


@pytest.mark.parametrize("argv", [["--k", "3", "--order", "101"], ["--k", "1", "--order", "100000"],
                                  ["--k", "32", "--order", "101"]])
def test_cancellation_order_above_limit_is_usage_error(capsys, argv):
    # the cost grows about as the square of the order: refused before any solve
    with pytest.raises(SystemExit) as exc:
        main(["cancellation", *argv])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: propergenus cancellation [-h]")
    assert f"order must be at most 100, got {argv[3]}" in captured.err


def test_cancellation_order_at_limit_is_solved(capsys):
    code, out = run(capsys, "cancellation", "--k", "2", "--order", "100")
    doc = json.loads(out)
    assert code == 0 and doc["residual_is_zero"] and doc["schedule"] == "2^(3k-6j)"


FORM_VERBS = [["theta", "check", "--v", "0,0.1", "--tau", "0,1"], ["theta", "expand", "--kind", "theta"],
              ["modforms", "check", "--tau", "0,1"], ["modforms", "expand", "--name", "eps1"]]


@pytest.mark.parametrize("argv", FORM_VERBS)
def test_form_order_above_limit_is_usage_error(capsys, monkeypatch, argv):
    # time and memory grow about linearly in the order: refused before any series
    for name in ("theta_qexp", "modform_qexp", "verify_theta_transforms", "verify_modform_transforms"):
        monkeypatch.setattr(cli, name, None)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "10001"])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: propergenus {argv[0]} {argv[1]} [-h]")
    assert "order must be at most 10000, got 10001" in captured.err


def test_form_order_at_limit_is_checked(capsys):
    code, out = run(capsys, "theta", "check", "--v", "0,0.1", "--tau", "0,1", "--order", "10000")
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 10000 and doc["all_passed"] is True


@pytest.mark.parametrize("verb", ["witten-genus", "elliptic-genera", "lefschetz", "p-series"])
def test_negative_leading_weight_parses_either_way(capsys, verb):
    # a weight list that starts with a negative weight is the value of
    # --weights whether it is the next argument or follows "="; only
    # lefschetz takes --unsigned
    unsigned = ["--unsigned"] if verb == "lefschetz" else []
    for rest in (["--order", "2"], [*unsigned, "--order", "2", "--json-indent", "0"]):
        joined = _call(capsys, [verb, "--weights=-3,0,1,2", *rest])
        assert _call(capsys, [verb, "--weights", "-3,0,1,2", *rest]) == joined
        assert _call(capsys, [verb, *rest, "--weights", "-3,0,1,2"]) == joined
        assert joined[0] in (0, DOMAIN_ERROR)
        doc = json.loads(joined[1])
        assert doc.get("weights", [-3, 0, 1, 2]) == [-3, 0, 1, 2]
    assert joined[0] == (DOMAIN_ERROR if unsigned else 0)


def test_negative_complex_argument_parses(capsys):
    split = _call(capsys, ["theta", "check", "--v", "-0.1,0.2", "--tau", "0,1", "--order", "30"])
    joined = _call(capsys, ["theta", "check", "--v=-0.1,0.2", "--tau=0,1", "--order", "30"])
    assert split == joined
    assert json.loads(split[1])["v"] == [-0.1, 0.2]


def test_negative_z_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theta", "expand", "--kind", "theta", "--order", "2", "--z-order", "-1"])
    assert exc.value.code == USAGE_ERROR
    assert capsys.readouterr().out == ""


# successes, usage errors (exit 64) and a domain error (exit 2), interleaved
REUSE_CALLS = [
    ["theta", "expand", "--kind", "theta2", "--order", "3"],
    ["bundle", "expand", "--expr", "(theta1 (tilde (rep 2)))", "--order", "3"],
    ["theta", "expand", "--kind", "theta", "--order", "2", "--z-order", "-1"],
    ["modforms", "expand", "--name", "eps1", "--order", "4", "--json-indent", "0"],
    ["witten-genus", "--order", "3"],
    ["witten-genus", "--weights", "0,1,2,3", "--order", "3"],
    ["lefschetz", "--weights", "0,2", "--order", "3", "--unsigned"],
    ["theta", "expand", "--kind", "theta2", "--order", "3", "--z-order", "1"],
    ["theta", "expand", "--kind", "theta2", "--order", "3"],
]


def _call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_prints_what_a_fresh_parser_prints(capsys):
    fresh = []
    for argv in REUSE_CALLS:
        build_parser.cache_clear()
        fresh.append(_call(capsys, argv))
    build_parser.cache_clear()
    shared = [_call(capsys, argv) for argv in REUSE_CALLS]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, USAGE_ERROR, 0, USAGE_ERROR, 0,
                                               DOMAIN_ERROR, 0, 0]


def test_cold_start_imports_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: more import
    # time than a small computation takes; -S keeps site hooks out of it
    src = Path(propergenus.__file__).resolve().parent.parent
    probe = ("import sys, propergenus.cli; propergenus.cli.build_parser(); "
             "print([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout == "[]\n"


def test_theta_check_verb(capsys):
    code, out = run(capsys, "theta", "check", "--v", "0,0", "--tau", "0,1", "--order", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["residuals"]) == 8


@pytest.mark.parametrize("argv, point", [
    (["theta", "check", "--v", "0.1,0.2"], {"v"}),
    (["modforms", "check"], set()),
])
def test_check_verb_keys(capsys, argv, point):
    code, out = run(capsys, *argv, "--tau", "0,1", "--order", "4", "--tol", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"verb", "tau", "order", "tolerance", "residuals", "failed",
                        "all_passed"} | point
    assert doc["verb"] == "-".join(argv[:2])
    assert doc["tau"] == [0.0, 1.0] and doc["order"] == 4 and doc["tolerance"] == 0.5
    assert doc["all_passed"] is (doc["failed"] == [])


def test_theta_expand_verb(capsys):
    code, out = run(capsys, "theta", "expand", "--kind", "theta3", "--order", "3")
    doc = json.loads(out)
    assert doc["trig"] == "none"
    by_grade = {t["grade"]: t["coeff"] for t in doc["series"]["terms"]}
    assert by_grade["1/2"] == {"-1": "1", "1": "1"}


def test_modforms_verbs(capsys):
    code, out = run(capsys, "modforms", "expand", "--name", "eps2", "--order", "3")
    doc = json.loads(out)
    assert doc["weight"] == 4
    by_grade = {t["grade"]: t["coeff"] for t in doc["series"]["terms"]}
    assert by_grade["1/2"] == "1"
    code, out = run(capsys, "modforms", "check", "--tau", "0,1", "--order", "60", "--tol", "1e-8")
    assert json.loads(out)["all_passed"] is True


def test_bundle_expand_series_and_character(capsys):
    code, out = run(capsys, "bundle", "expand", "--expr",
                    "(theta1 (tilde (sum (rep 2) (rep -2))))", "--order", "2")
    doc = json.loads(out)
    assert doc["type"] == "series"
    by_grade = {t["grade"]: t["coeff"] for t in doc["series"]["terms"]}
    assert by_grade["1"] == {"-2": "2", "0": "-4", "2": "2"}

    code, out = run(capsys, "bundle", "expand", "--expr", "(tilde (rep 3))", "--order", "2")
    doc = json.loads(out)
    assert doc["type"] == "character"
    assert doc["character"] == {"0": "-1", "3": "1"}
    assert doc["rank"] == "0"


def test_cancellation_verb(capsys):
    code, out = run(capsys, "cancellation", "--k", "2", "--order", "3")
    doc = json.loads(out)
    assert doc["residual_is_zero"] is True
    assert doc["exponents"] == [6, 0]
    assert doc["schedule"] == "2^(3k-6j)"


# SHA-256 of the stdout of cancellation --k k --order o, o in {k//2 + 1, 4, 10},
# and of the SingularSystem document at k = 5, order 2 (2 < 3 unknowns)
CANCELLATION_DIGESTS = [
    (1, 1, 0, "42e6332ee05fce3cb12e652f2a66124295040ef60477f7ff4422fcbfa78036b5"),
    (1, 4, 0, "42e6332ee05fce3cb12e652f2a66124295040ef60477f7ff4422fcbfa78036b5"),
    (1, 10, 0, "42e6332ee05fce3cb12e652f2a66124295040ef60477f7ff4422fcbfa78036b5"),
    (2, 2, 0, "885d3e81c68b1369ea7ff052ef68ac17bb67cb714e392b0a91dc3bd0c4990ec5"),
    (2, 4, 0, "885d3e81c68b1369ea7ff052ef68ac17bb67cb714e392b0a91dc3bd0c4990ec5"),
    (2, 10, 0, "885d3e81c68b1369ea7ff052ef68ac17bb67cb714e392b0a91dc3bd0c4990ec5"),
    (3, 2, 0, "d66c33c69cc60eb3fe24e4e246356692c930c6d6585c8bb99c669dfaa1be30c1"),
    (3, 4, 0, "d66c33c69cc60eb3fe24e4e246356692c930c6d6585c8bb99c669dfaa1be30c1"),
    (3, 10, 0, "d66c33c69cc60eb3fe24e4e246356692c930c6d6585c8bb99c669dfaa1be30c1"),
    (4, 3, 0, "5d2afcb3587fca83b1a1f8387b50cb12dd6b16c14d298d143e066a357e85446d"),
    (4, 4, 0, "5d2afcb3587fca83b1a1f8387b50cb12dd6b16c14d298d143e066a357e85446d"),
    (4, 10, 0, "5d2afcb3587fca83b1a1f8387b50cb12dd6b16c14d298d143e066a357e85446d"),
    (5, 3, 0, "2cf72b7476bcfb2ca71a6805bc5682394d7c5a1a4b216d4770ba546b305ac5c2"),
    (5, 4, 0, "2cf72b7476bcfb2ca71a6805bc5682394d7c5a1a4b216d4770ba546b305ac5c2"),
    (5, 10, 0, "2cf72b7476bcfb2ca71a6805bc5682394d7c5a1a4b216d4770ba546b305ac5c2"),
    (6, 4, 0, "207d4cc8c4df2e46b26354ccf9557e72f23c7261ee2b4fe12be4b8cb1ad0c002"),
    (6, 10, 0, "207d4cc8c4df2e46b26354ccf9557e72f23c7261ee2b4fe12be4b8cb1ad0c002"),
    (5, 2, DOMAIN_ERROR, "4fbd62451940511e2c310021437e534869265a31aab2eb39ffb8f8eee7796b6f"),
]


@pytest.mark.parametrize("k, order, code, digest", CANCELLATION_DIGESTS,
                         ids=[f"k{k}-order{o}" for k, o, _, _ in CANCELLATION_DIGESTS])
def test_cancellation_bytes_are_pinned(capsys, k, order, code, digest):
    got, out = run(capsys, "cancellation", "--k", str(k), "--order", str(order))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The bytes of the Theta2 twist itself.  Both genera of a Theta2 twist
# vanish identically, so a fixed-point sum cannot pin it: a sign flip of
# Jacobi's triple product leaves every such sum zero, but changes these.
THETA2_DIGESTS = [
    ("(theta2 (tilde (sum (rep 1) (rep -1))))", 4,
     "02ee6e46e390f4fb9e491caeaaeaa7413b75ff24e4b035586cd70dbe9e11e50f"),
    ("(theta2 (tilde (sum (rep 1) (rep -1) (rep 3) (rep -3))))", 10,
     "afb174b5301d3b8192a1de8ee7064e80c0a01038e855917fe49e29ff867f9a31"),
]


@pytest.mark.parametrize("expr, order, digest", THETA2_DIGESTS,
                         ids=[f"pairs{expr.count('rep') // 2}-order{o}" for expr, o, _ in THETA2_DIGESTS])
def test_theta2_bundle_bytes_are_pinned(capsys, expr, order, digest):
    got, out = run(capsys, "bundle", "expand", "--expr", expr, "--order", str(order))
    assert got == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Fixed-point sums whose twists are laid out unlike the certificate: the
# kernel's digit width is wider or narrower than the certificate's, or
# the twist's exponents step by g = 2.
LAYOUT_DIGESTS = [
    ("kernel64-cert32", ["--weights", "0,1,2,5", "--twist", "theta2", "--order", "20"],
     "b038991089e7970e81e80ff78beaec6be23c0d01fce7f98ead289b6c73d020bc"),
    ("kernel32-cert64", ["--weights", "0,1,2,3,4,6", "--order", "12"],
     "c62ab59f01f455feec0598492d935a09e3b07c8aa16c2f8a713bd67eee7d8126"),
    ("kernel72-cert64", ["--weights", "0,1,2,3,4,6,7,9", "--twist", "theta2", "--order", "20"],
     "8aec1d5dae502473505ab8360cc40c729c34b06755b1fdd1d5e99cffb8be8a8d"),
    ("step2", ["--weights", "0,2,4,6", "--operator", "signature", "--twist", "theta1",
               "--order", "10"],
     "22c0caa46f244f41d1bc7df5e0d794546a35c1bcd882bd1687bccdf7225fd0fb"),
]


@pytest.mark.parametrize("argv, digest", [case[1:] for case in LAYOUT_DIGESTS],
                         ids=[case[0] for case in LAYOUT_DIGESTS])
def test_relaid_twist_bytes_are_pinned(capsys, argv, digest):
    got, out = run(capsys, "lefschetz", *argv)
    assert got == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emitted_series_round_trips_into_library(capsys):
    from propergenus.induction import averaged_witten_genus

    _, out = run(capsys, "witten-genus", "--weights", "0,1,2,5", "--order", "5")
    doc = json.loads(out)
    series = averaged_witten_genus((0, 1, 2, 5), N=5)
    assert doc["series"] == series.to_json()
    assert series.coefficient(2) == -2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["modforms", "expand", "--name", "delta1", "--order", "2",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["name"] == "delta1"


@pytest.mark.parametrize("where, argv, lost", [
    ("missing", ["modforms", "expand", "--name", "delta2"], None),
    ("directory", ["modforms", "expand", "--name", "delta2"], None),
    # exit 64 takes precedence, and the verb's domain error is named on stderr
    ("missing", ["witten-genus", "--weights", "0,1"], "OddWeightSum"),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, where, argv, lost):
    target = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "2", "--output", str(target)])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"propergenus: error: cannot write '{target}'")
    assert (f"; {lost}: " in captured.err) == (lost is not None)

