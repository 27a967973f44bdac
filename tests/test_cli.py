import json

import pytest

from propergenus.cli import DOMAIN_ERROR, USAGE_ERROR, build_parser, main


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


@pytest.mark.parametrize("argv, expected", [
    (["theta", "check", "--v", "0,300", "--tau", "0,1"], "NumericOverflow"),
    (["theta", "check", "--v", "0,120", "--tau", "0,1"], "NumericOverflow"),
    (["theta", "check", "--v", "0.1,0", "--tau", "0,1e-300"], "NotUpperHalfPlane"),
    (["theta", "check", "--v", "0.1,0", "--tau", "0,1e300"], "NotUpperHalfPlane"),
    (["modforms", "check", "--tau", "0,1e-300"], "NotUpperHalfPlane"),
    # 2 pi v overflows inside cmath.exp, which raises ValueError
    (["theta", "check", "--v", "1e308,0", "--tau", "0,1"], "NumericOverflow"),
    # tau is in the upper half-plane; its S-image underflows onto the axis
    (["modforms", "check", "--tau", "1e308,1"],
     "NotUpperHalfPlane: -1/tau = (-1e-308+0j) is not in the upper half-plane"),
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


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cancellation_k_below_one_is_usage_error(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["cancellation", "--k", k, "--order", "3"])
    assert exc.value.code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"k must be at least 1, got {k}" in captured.err


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

