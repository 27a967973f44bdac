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
])
def test_non_finite_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    assert capsys.readouterr().out == ""


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
    from propergenus.core import RATIONAL, QSeries
    from propergenus.induction import averaged_witten_genus

    _, out = run(capsys, "witten-genus", "--weights", "0,1,2,5", "--order", "5")
    doc = json.loads(out)
    parsed = QSeries.from_json(doc["series"], RATIONAL)
    assert parsed == averaged_witten_genus((0, 1, 2, 5), N=5)
    assert parsed.coefficient(2) == -2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["modforms", "expand", "--name", "delta1", "--order", "2",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["name"] == "delta1"
