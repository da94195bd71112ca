import json
import subprocess
import sys

from friezeinv import (
    FriezeGroup,
    TruncatedSeries,
    composition,
    elementary_sym,
    expand_basis_function,
    make_index,
)
from friezeinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_example(capsys):
    code, out, _ = run_cli(capsys, "canon", "--group", "F1", "x[3] x[5]^2")
    assert code == 0
    assert out.splitlines() == ["f1[(1,0,2)]", "x[3] x[5]^2"]


def test_canon_f3_reversal(capsys):
    code, out, _ = run_cli(capsys, "canon", "--group", "F3", "x[1]^2 x[2]")
    assert code == 0
    assert out.splitlines()[0] == "f3[(1,2)]"


def test_canon_unit_monomial_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "canon", "--group", "F1", "")
    assert code == 2
    assert "parse error" in err


def test_canon_json(capsys):
    code, out, _ = run_cli(capsys, "canon", "--group", "F6", "x[0] y[0]", "--json")
    assert code == 0
    assert json.loads(out) == {
        "group": "F6",
        "label": "f6[(1),(1);Δ=0]",
        "monomial": "x[0] y[0]",
    }


def test_canon_parse_error_position(capsys):
    code, _, err = run_cli(capsys, "canon", "--group", "F1", "x[1] bogus")
    assert code == 2
    assert "position 5" in err


def test_expand_label_error_position(capsys):
    for label, position in (("f6[(1),(2);Δ=x]", 13), ("f6[(1),(2,-1);Δ=0]", 7)):
        code, out, err = run_cli(capsys, "expand", label, "-N", "2")
        assert code == 2 and out == ""
        assert f"at position {position}:" in err


def test_expand_f1(capsys):
    code, out, _ = run_cli(capsys, "expand", "f1[(1)]", "-N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1 and payload["window"] == 2
    assert [t["monomial"] for t in payload["terms"]] == [
        "x[-2]", "x[-1]", "x[0]", "x[1]", "x[2]",
    ]
    assert all(t["coeff"] == "1" for t in payload["terms"])


def test_expand_f6_diagonal(capsys):
    code, out, _ = run_cli(capsys, "expand", "f6[(1),(1);Δ=0]", "-N", "1")
    assert code == 0
    assert [t["monomial"] for t in json.loads(out)["terms"]] == [
        "x[-1] y[-1]", "x[0] y[0]", "x[1] y[1]",
    ]


def test_expand_f2_primed_equality(capsys):
    code1, out1, _ = run_cli(capsys, "expand", "f2[(1),(1);Δ=0]", "-N", "2")
    code2, out2, _ = run_cli(capsys, "expand", "f2'[(1),(1);Δ=0]", "-N", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_expand_label_with_spaces_around_the_shape_comma(capsys):
    _, expected, _ = run_cli(capsys, "expand", "f6[(1),(2);Δ=0]", "-N", "1")
    for label in ("f6[(1), (2);Δ=0]", "f6[(1) ,(2);Δ=0]", "f6[(1) , (2);Δ=0]"):
        assert run_cli(capsys, "expand", label, "-N", "1") == (0, expected, "")
    code, out, err = run_cli(capsys, "expand", "f6[(1)(2);Δ=0]", "-N", "1")
    assert code == 2 and out == ""
    assert "two shapes and an offset are required" in err


def test_expand_bad_label(capsys):
    code, _, err = run_cli(capsys, "expand", "f9[(1)]", "-N", "2")
    assert code == 2
    assert "parse error" in err


def test_expand_label_without_terms_is_parse_error(capsys):
    code, out, err = run_cli(capsys, "expand", "f1[()]", "-N", "2")
    assert code == 2 and out == ""
    assert "parse error" in err and "Traceback" not in err


def test_expand_output_parses_back(capsys):
    code, out, _ = run_cli(capsys, "expand", "f4[(1),(2);Δ=1]", "-N", "3")
    assert code == 0
    series = TruncatedSeries.from_json_dict(json.loads(out))
    idx = make_index(FriezeGroup.F4, composition(1), composition(2), 1)
    assert series == expand_basis_function(idx, 3)


def test_check_pass_and_fail(tmp_path, capsys):
    idx = make_index(FriezeGroup.F6, composition(1), composition(2), -1)
    series = expand_basis_function(idx, 4)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(series.to_json_dict()))
    code, out, _ = run_cli(capsys, "check", "--group", "F6", str(good), "--margin", "2")
    assert code == 0
    assert json.loads(out)["invariant"] is True

    payload = series.to_json_dict()
    payload["terms"][0]["coeff"] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", "--group", "F6", str(bad))
    assert code == 1
    assert json.loads(out)["invariant"] is False


def test_check_io_and_parse_failures_are_distinct(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "check", "--group", "F1", str(missing))
    assert code == 2, err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "check", "--group", "F1", str(garbled))
    assert code == 2
    assert "parse error" in err


def test_check_alphabet_mismatch(tmp_path, capsys):
    series = expand_basis_function(make_index(FriezeGroup.F1, composition(1)), 3)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(series.to_json_dict()))
    code, out, err = run_cli(capsys, "check", "--group", "F6", str(path))
    assert code == 2
    assert out == ""
    assert err.strip()


def test_census_f6_odd_degree(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--group", "F6", "-k", "3", "--max-parts", "3", "--max-delta", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["LINE"] == 0
    assert payload["DOUBLE"] > 0


def test_census_negative_max_delta_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "census", "--group", "F6", "-k", "2", "--max-parts", "1", "--max-delta", "-3"
    )
    assert code == 2
    assert out == ""
    assert "max_abs_delta" in err
    assert "Traceback" not in err


def test_symfunc_expand_basis(capsys):
    code, out, _ = run_cli(
        capsys, "symfunc", "e", "2", "-N", "4", "--expand-basis", "--group", "F1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "e"
    assert payload["basis"], "expected a nonempty basis expansion"
    for entry in payload["basis"]:
        assert entry["coeff"] == "1"
        label = entry["index"]
        inner = label[label.index("[") + 1:-1]
        assert all(int(p) <= 1 for p in inner.strip("()").split(","))


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "F3", "x[1]^2 x[2]", "-N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert "x[-2]^2 x[-1]" in payload["orbit"]


def test_stab_command(capsys):
    code, out, _ = run_cli(capsys, "stab", "--group", "F6", "x[1] y[1]")
    assert code == 0
    payload = json.loads(out)
    assert payload["trivial"] is False
    assert payload["elements"] == ["h"]

    code, out, _ = run_cli(capsys, "stab", "--group", "F1", "x[0]")
    assert code == 0
    assert json.loads(out)["trivial"] is True


def test_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "expand", "f5[(1),(1);Δ=1]", "-N", "3")
    _, out2, _ = run_cli(capsys, "expand", "f5[(1),(1);Δ=1]", "-N", "3")
    assert out1.encode() == out2.encode()


def test_unknown_group_is_usage_error(capsys):
    code = main(["canon", "--group", "F9", "x[1]"])
    capsys.readouterr()
    assert code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "friezeinv.cli", "canon", "--group", "F1", "x[2]"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "f1[(1)]"


def test_package_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "friezeinv", "canon", "--group", "F1", "x[3] x[5]^2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["f1[(1,0,2)]", "x[3] x[5]^2"]


def test_check_reads_stdin():
    series = expand_basis_function(make_index(FriezeGroup.F1, composition(1)), 3)
    result = subprocess.run(
        [sys.executable, "-m", "friezeinv.cli", "check", "--group", "F1", "-"],
        input=json.dumps(series.to_json_dict()),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["invariant"] is True


def _check_payload(tmp_path, capsys, payload, *extra):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "check", "--group", "F1", str(path), *extra)


def _x_payload():
    return expand_basis_function(make_index(FriezeGroup.F1, composition(1)), 3).to_json_dict()


def _assert_clean_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_check_term_without_monomial_is_usage_error(tmp_path, capsys):
    payload = _x_payload()
    payload["terms"][0] = {"coeff": "1"}
    _assert_clean_usage_error(*_check_payload(tmp_path, capsys, payload))


def test_check_float_coefficient_is_usage_error(tmp_path, capsys):
    payload = _x_payload()
    payload["terms"][0]["coeff"] = 1.5
    _assert_clean_usage_error(*_check_payload(tmp_path, capsys, payload))


def test_check_non_integer_degree_or_window_is_usage_error(tmp_path, capsys):
    for key, value in (("degree", 1.9), ("degree", True), ("window", 3.0), ("window", True)):
        payload = dict(_x_payload(), **{key: value})
        _assert_clean_usage_error(*_check_payload(tmp_path, capsys, payload))


def test_symfunc_margin_beyond_window_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "symfunc", "e", "2", "-N", "2", "--expand-basis", "--margin", "5"
    )
    _assert_clean_usage_error(code, out, err)
    assert "interior is empty" in err


def test_symfunc_negative_degree_is_usage_error(capsys):
    for kind in ("e", "h"):
        _assert_clean_usage_error(*run_cli(capsys, "symfunc", kind, "-1", "-N", "2"))


def test_check_margin_beyond_window_is_usage_error(tmp_path, capsys):
    payload = {"alphabet": "X", "degree": 1, "window": 2,
               "terms": [{"monomial": "x[0]", "coeff": "1"}]}
    code, out, err = _check_payload(tmp_path, capsys, payload, "--margin", "3")
    _assert_clean_usage_error(code, out, err)
    assert "interior is empty" in err
    # the widest margin with a nonempty interior, [0, 0], still checks
    code, out, _ = _check_payload(tmp_path, capsys, payload, "--margin", "2")
    assert code == 1
    assert json.loads(out)["invariant"] is False


def test_interior_narrower_than_every_monomial_is_usage_error(tmp_path, capsys):
    # e_2 at N = 2: the interior [0, 0] holds no product of distinct variables
    code, out, err = run_cli(
        capsys, "symfunc", "e", "2", "-N", "2", "--expand-basis", "--margin", "2"
    )
    _assert_clean_usage_error(code, out, err)
    assert "nothing to check" in err
    payload = elementary_sym(2, 2).to_json_dict()
    code, out, err = _check_payload(tmp_path, capsys, payload, "--margin", "2")
    _assert_clean_usage_error(code, out, err)
    # h_2 has x_0^2 in [0, 0], so it is checked
    code, _, _ = run_cli(
        capsys, "symfunc", "h", "2", "-N", "2", "--expand-basis", "--margin", "2"
    )
    assert code == 0


def test_check_deeply_nested_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "check", "--group", "F1", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


def test_check_exponent_coefficient_is_usage_error(tmp_path, capsys):
    for coeff in ("1e3", "1e999999999"):
        payload = _x_payload()
        payload["terms"][0]["coeff"] = coeff
        code, out, err = _check_payload(tmp_path, capsys, payload)
        _assert_clean_usage_error(code, out, err)
        assert "exponent notation" in err
