import argparse
import contextlib
import errno
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friezeinv import (
    FriezeGroup,
    TruncatedSeries,
    composition,
    elementary_sym,
    expand_basis_function,
    make_index,
    parse_monomial,
)
from friezeinv import cli
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
    for label, position in (
        ("f6[(1),(2);Δ=x]", 13),
        ("f6[(1),(2,-1);Δ=0]", 7),
        ("f6[(1),(2);Δ=--5]", 13),
        ("f1[(1,--2)]", 3),
    ):
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


def test_check_of_one_term_at_a_wide_window_answers_at_once(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    document = {"alphabet": "X", "degree": 1, "window": 10**7, "terms": [
        {"monomial": "x[0]", "coeff": "1"}]}
    path.write_text(json.dumps(document))
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", "--group", "F1", str(path))
    assert time.perf_counter() - started < 2
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


def test_census_with_many_parts(capsys):
    # shapes of up to 2000 parts are counted, never built part by part
    code, out, _ = run_cli(capsys, "census", "--group", "F1", "-k", "1", "--max-parts", "2000")
    assert code == 0
    assert json.loads(out)["LINE"] == 1


def test_census_refuses_a_group_before_any_work(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--group", "F3", "-k", "1000", "--max-parts", "50")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == "error: component classification is defined for F1 and F6, not F3\n"


def test_census_reads_its_arguments_before_the_group(capsys):
    code, out, err = run_cli(capsys, "census", "--group", "F3", "-k", "0", "--max-parts", "0")
    assert (code, out) == (2, "")
    assert err == "error: degree must be at least 1\n"


def test_census_count_past_the_digit_limit_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "census", "--group", "F1", "-k", "20000", "--max-parts", "20000"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_console_script_names_cli_main():
    # the [project.scripts] entry point an installed package runs as `friezeinv`
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attribute = scripts["friezeinv"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is main


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


# a span of 10^15 indices: the block list of such a monomial cannot be allocated
_WIDE = 10**15


def test_too_wide_monomial_is_usage_error(tmp_path, capsys):
    half = _WIDE // 2
    for argv in (
        ["canon", "--group", "F1", f"x[0] x[{_WIDE}]"],
        ["orbit", "--group", "F6", f"y[{-_WIDE}] x[1] y[0]", "-N", "3"],
        ["stab", "--group", "F3", f"x[0] x[{10**30}]"],
    ):
        code, out, err = run_cli(capsys, *argv)
        _assert_clean_usage_error(code, out, err)
        assert "too wide" in err
    payload = {"alphabet": "X", "degree": 2, "window": _WIDE,
               "terms": [{"monomial": f"x[{-half}] x[{half}]", "coeff": "1"}]}
    code, out, err = _check_payload(tmp_path, capsys, payload)
    _assert_clean_usage_error(code, out, err)
    assert "too wide" in err


_LONG = "1" * 5000  # past the interpreter's 4,300-digit limit for int(str)


def _assert_overlong_at(code, out, err, position):
    assert (code, out) == (2, "")
    assert err == f"parse error: at position {position}: an integer of 5000 digits is too long to read\n"


def test_overlong_monomial_integer_is_a_positioned_parse_error(capsys):
    for monomial, position in (
        (f"x[{_LONG}]", 0),
        (f"x[0] x[-{_LONG}]", 5),
        (f"x[1]^{_LONG}", 0),
    ):
        _assert_overlong_at(*run_cli(capsys, "canon", "--group", "F1", monomial), position)
    _assert_overlong_at(*run_cli(capsys, "canon", "--group", "F6", f"x[1] y[{_LONG}]"), 5)


def test_overlong_composition_part_is_a_positioned_parse_error(capsys):
    for label, position in (
        (f"f1[({_LONG})]", 3),
        (f"f1[(1,-{_LONG})]", 3),
        (f"f6[(1),({_LONG});Δ=0]", 7),
    ):
        _assert_overlong_at(*run_cli(capsys, "expand", label, "-N", "2"), position)


def test_overlong_label_offset_is_a_positioned_parse_error(capsys):
    for label in (f"f6[(1),(1);Δ={_LONG}]", f"f6[(1),(1);delta=-{_LONG}]"):
        _assert_overlong_at(*run_cli(capsys, "expand", label, "-N", "2"), label.index("=") + 1)


def test_overlong_json_integer_is_a_parse_error(tmp_path, capsys):
    # json.loads reads these integers itself, so no position comes with them
    path = tmp_path / "series.json"
    limit = sys.get_int_max_str_digits()
    for degree, window, coeff in ((_LONG, 2, 1), (1, _LONG, 1), (1, 2, _LONG)):
        path.write_text(
            f'{{"alphabet": "X", "degree": {degree}, "window": {window}, '
            f'"terms": [{{"monomial": "x[0]", "coeff": {coeff}}}]}}'
        )
        code, out, err = run_cli(capsys, "check", "--group", "F1", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(
            f"parse error: bad series JSON: an integer of more than {limit} digits "
            "is too long to read; write a coefficient as a rational string"
        )
        assert "Traceback" not in err


def test_overlong_coefficient_string_is_a_short_usage_error(tmp_path, capsys):
    # Fraction reads the string with int, so the digit limit applies; the
    # message names it and quotes only a prefix of the coefficient
    limit = sys.get_int_max_str_digits()
    for coeff in (_LONG, "1/" + _LONG, "-" + _LONG + "/3"):
        payload = _x_payload()
        payload["terms"][0]["coeff"] = coeff
        code, out, err = _check_payload(tmp_path, capsys, payload)
        _assert_clean_usage_error(code, out, err)
        assert err.count("\n") == 1 and len(err.encode()) < 200, err[:300]
        assert f"more than {limit} digits" in err


_GARBAGE = "q" * 5000


def _assert_short_usage_error(code, out, err):
    # the message quotes only a prefix of the offending input
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:300]
    assert "..." in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("coeff", _GARBAGE),
        ("coeff", "1e" + _GARBAGE),
        ("coeff", [1] * 2000),
        ("monomial", f"x[{_GARBAGE}]"),
        ("monomial", "x[0]^-" + "1" * 4000),
        ("alphabet", _GARBAGE),
        ("degree", _GARBAGE),
    ],
)
def test_series_file_errors_quote_a_bounded_prefix(tmp_path, capsys, field, value):
    payload = _x_payload()
    if field in ("coeff", "monomial"):
        payload["terms"][0][field] = value
    else:
        payload[field] = value
    _assert_short_usage_error(*_check_payload(tmp_path, capsys, payload))


@pytest.mark.parametrize("command", ["canon", "stab", "orbit"])
def test_monomial_errors_quote_a_bounded_prefix(capsys, command):
    window = ("-N", "2") if command == "orbit" else ()
    argv = (command, "--group", "F1", f"x[0] {_GARBAGE}", *window)
    _assert_short_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize(
    "label",
    [f"f9[{_GARBAGE}]", f"f1[{_GARBAGE}]", f"f1[(1,{_GARBAGE})]", f"f6[(1),(2);Δ={_GARBAGE}]",
     f"f6[(1),(2);{_GARBAGE}]", f"f6[(1){_GARBAGE}]"],
)
def test_label_errors_quote_a_bounded_prefix(capsys, label):
    _assert_short_usage_error(*run_cli(capsys, "expand", label, "-N", "2"))


def test_unknown_group_quotes_a_bounded_prefix(capsys):
    code, out, err = run_cli(capsys, "canon", "--group", _GARBAGE, "x[0]")
    assert (code, out) == (2, "")
    *_, message = err.splitlines()  # argparse prints its usage line first
    assert len(message.encode()) < 200 and "unknown group 'qqq" in message, err[:300]


def test_unreadable_series_path_is_quoted_by_a_bounded_prefix(tmp_path, capsys, monkeypatch):
    code, out, err = run_cli(capsys, "check", "--group", "F1", f"{tmp_path}/{_GARBAGE}.json")
    _assert_short_usage_error(code, out, err)
    assert err.startswith("error: cannot read ") and "name too long" in err, err[:300]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "check", "--group", "F1", "missing.json")
    reason = os.strerror(errno.ENOENT)
    assert (code, out, err) == (2, "", f"error: cannot read 'missing.json': {reason}\n")


_ARGUMENTS = {
    "-N": ("expand", "f1[(1)]", "-N", _GARBAGE),
    "orbit -N": ("orbit", "--group", "F1", "x[1]", "-N", _GARBAGE),
    "symfunc -N": ("symfunc", "e", "2", "-N", _GARBAGE),
    "-k": ("census", "--group", "F1", "-k", _GARBAGE, "--max-parts", "2"),
    "--max-parts": ("census", "--group", "F1", "-k", "2", "--max-parts", _GARBAGE),
    "--max-delta": ("census", "--group", "F1", "-k", "2", "--max-parts", "2",
                    "--max-delta", _GARBAGE),
    "--margin": ("check", "--group", "F1", "series.json", "--margin", _GARBAGE),
    "symfunc --margin": ("symfunc", "e", "2", "-N", "2", "--margin", _GARBAGE),
    "r": ("symfunc", "e", _GARBAGE, "-N", "2"),
    "kind": ("symfunc", _GARBAGE, "2", "-N", "2"),
}


@pytest.mark.parametrize("argv", _ARGUMENTS.values(), ids=_ARGUMENTS.keys())
def test_malformed_argument_values_are_quoted_by_a_bounded_prefix(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "Traceback" not in err
    # argparse prints its usage line first; only the message names the value
    *usage, message = err.splitlines()
    assert "qqq" not in "".join(usage) and "qqq" in message and "..." in message
    assert all(len(line.encode()) <= 300 for line in err.splitlines()), err[:400]


def test_short_argument_values_are_quoted_whole(capsys):
    code, out, err = run_cli(capsys, "expand", "f1[(1)]", "-N", "abc")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "friezeinv expand: error: argument -N/--window: invalid int value: 'abc'"
    )
    code, out, err = run_cli(capsys, "symfunc", "x", "2", "-N", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "friezeinv symfunc: error: argument kind: invalid choice: 'x' (choose from 'e', 'h')"
    )


def test_short_inputs_are_quoted_whole(tmp_path, capsys):
    payload = _x_payload()
    payload["terms"][0]["coeff"] = "abc"
    code, out, err = _check_payload(tmp_path, capsys, payload)
    assert err == "error: malformed term 0: bad coefficient 'abc'\n"
    code, out, err = run_cli(capsys, "expand", "f9[(1)]", "-N", "2")
    assert err == "parse error: at position 0: bad basis label 'f9[(1)]'\n"


def test_check_monomial_parse_error_names_its_term(tmp_path, capsys):
    for monomials, expected in (
        (["x[0]", "x[1]", "x[q]"], "malformed term 2: at position 0: bad monomial factor 'x[q]'"),
        (["x[0] x[1]", "x[1] y[2]"], "malformed term 1: at position 5: y-variables are not "
         "allowed in a one-alphabet monomial"),
    ):
        degree = len(monomials[0].split())
        payload = {"alphabet": "X", "degree": degree, "window": 2,
                   "terms": [{"monomial": monomial, "coeff": 1} for monomial in monomials]}
        code, out, err = _check_payload(tmp_path, capsys, payload)
        assert (code, out, err) == (2, "", f"parse error: {expected}\n")


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


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_x_payload()))
    perturbed = _x_payload()
    perturbed["terms"][0]["coeff"] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(perturbed))
    # every command, with usage errors between the successes
    sweep = [
        ["canon", "--group", "F3", "x[1]^2 x[2]"],
        ["check", "--group", "F1", str(good), "--margin", "x"],
        ["check", "--group", "F1", str(good)],
        ["canon", "--group", "F9", "x[1]"],
        ["check", "--group", "F1", str(bad), "--json"],
        ["--help"],
        ["expand", "f6[(1),(2);Δ=-1]", "-N", "3"],
        ["expand", "--help"],
        ["census", "--group", "F6", "-k", "3", "--max-parts", "2"],
        [],
        ["symfunc", "h", "2", "-N", "2", "--expand-basis"],
        ["symfunc", "q", "2", "-N", "2"],
        ["orbit", "--group", "F7", "x[0] y[1]", "-N", "2"],
        ["stab", "--group", "F3", "x[0] x[1]"],
        ["stab", "--group", "F3"],
        ["expand", "f1[(1,--2)]", "-N", "3"],
    ]
    calls = sweep + sweep[::-1]
    cached = [run_cli(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert {code for code, _, _ in cached} == {0, 1, 2}


def _reference_from_json(data):
    """``TruncatedSeries.from_json_dict`` with every coefficient checked and
    parsed on its own, term by term, in the same order of checks."""
    if not isinstance(data, dict):
        raise ValueError("not an object")
    try:
        alphabet, degree, window, raw_terms = (
            data[key] for key in ("alphabet", "degree", "window", "terms")
        )
    except KeyError as exc:
        raise ValueError("missing key") from exc
    for value in (degree, window):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("degree and window are integers")
    if not isinstance(raw_terms, list):
        raise ValueError("terms are a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or not isinstance(entry.get("monomial"), str):
            raise ValueError("a term has a monomial string")
        coeff = entry.get("coeff")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, str)):
            raise ValueError("a coefficient is an integer or a string")
        if isinstance(coeff, str) and "e" in coeff.lower():
            raise ValueError("no exponent notation")
        try:
            value = Fraction(coeff)
        except ZeroDivisionError as exc:
            raise ValueError("zero denominator") from exc
        terms.append((parse_monomial(entry["monomial"], alphabet), value))
    return TruncatedSeries(alphabet, degree, window, terms)


_MONOMIALS = ["x[-2]", "x[-1]", "x[0]", "x[1]", "x[2]", "x[3]", "x[0]^2", "y[0]", "bogus", "", 5]
_GOOD_COEFFS = st.one_of(
    st.integers(-2, 2), st.sampled_from(["1", "-1", "1/2", "2/4", "0", "-0", " 3 ", "0.5"])
)
_BAD_COEFFS = st.one_of(
    st.sampled_from(["1e9", "1/0", "x", ""]),
    st.booleans(),
    st.floats(-2, 2),
    st.lists(st.integers(0, 1), max_size=2),
    st.none(),
)
_GOOD_TERMS = st.fixed_dictionaries(
    {"monomial": st.sampled_from(_MONOMIALS[:5]), "coeff": _GOOD_COEFFS}
)
_TERMS = st.one_of(
    _GOOD_TERMS,
    _GOOD_TERMS,
    _GOOD_TERMS,
    st.fixed_dictionaries(
        {}, optional={"monomial": st.sampled_from(_MONOMIALS), "coeff": _BAD_COEFFS}
    ),
    st.integers(),
)
_FIELDS = {
    "alphabet": st.sampled_from(["X", "XY", "x"]),
    "degree": st.sampled_from([1, 0, 2, True, 1.0, "1"]),
    "window": st.sampled_from([2, 0, 1, 3, False, "2"]),
}


@st.composite
def _split_invariant_documents(draw):
    """One coefficient on each monomial of window 2, each given as two terms
    that add up to it, in any order; an int part and a string part."""
    value = draw(st.sampled_from([-2, -1, 1, 2]))
    terms = []
    for monomial in _MONOMIALS[:5]:
        part = draw(st.integers(-2, 2))
        terms += [{"monomial": monomial, "coeff": part},
                  {"monomial": monomial, "coeff": str(value - part)}]
    return {"alphabet": "X", "degree": 1, "window": 2, "terms": draw(st.permutations(terms))}


_HEADER = {"alphabet": st.just("X"), "degree": st.just(1), "window": st.just(2)}
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(dict(_HEADER, terms=st.lists(_TERMS, max_size=8))),
    st.fixed_dictionaries(dict(_HEADER, terms=st.lists(_GOOD_TERMS, min_size=1, max_size=8))),
    _split_invariant_documents(),
    st.fixed_dictionaries(dict(_FIELDS, terms=st.lists(_TERMS, max_size=3))),
    st.fixed_dictionaries({}, optional=dict(_FIELDS, terms=st.lists(_TERMS, max_size=3))),
    st.lists(st.integers(), max_size=2),
)


def _document(*coeffs, monomials=("x[-2]", "x[-1]", "x[0]", "x[1]", "x[2]")):
    terms = [{"monomial": m, "coeff": c} for m, c in zip(monomials, coeffs)]
    return {"alphabet": "X", "degree": 1, "window": 2, "terms": terms}


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS, st.sampled_from(["1", "2", "3"]))
@example(_document(1, 1, 1, 1, 1), "1")
@example(_document("1/2", "1/2", "1/2", "1/2", "1/2"), "1")
@example(_document(1, True), "1")
@example(_document("1", 1), "1")
@example(_document(1, "1", 1, "1", True), "1")
@example(_document(1, -1, monomials=("x[0]", "x[0]")), "1")
@example(_document("2", 1, 1, 1, 1, "-1", monomials=_MONOMIALS[:5] + ["x[-2]"]), "1")
def test_check_on_any_series_document(tmp_path_factory, document, margin):
    text = json.dumps(document)
    path = tmp_path_factory.mktemp("fuzz") / "series.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--group", "F1", str(path), "--margin", margin])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err

    data = json.loads(text)
    try:
        expected = _reference_from_json(data)
    except (ValueError, TypeError) as exc:
        expected = exc
    try:
        series = TruncatedSeries.from_json_dict(data)
    except (ValueError, TypeError) as exc:
        assert type(exc) is type(expected)
        assert code == 2 and out == ""
        return
    assert series == expected
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == "" and json.loads(out)["invariant"] is (code == 0)


# ---------------------------------------------------------------------------
# argv fuzzing: every command with drawn flags, groups, labels and monomials,
# at bounded sizes (|N| <= 6, k <= 4, at most 3 parts) so that no draw runs
# unbounded
# ---------------------------------------------------------------------------

_VALID_GROUPS = [g.value for g in FriezeGroup]
_GROUP_ARGS = st.sampled_from(_VALID_GROUPS * 3 + ["f3", "F8", "F0", "", "x"])
_NUMBER = st.integers(0, 6).map(str)
_SMALL = st.one_of(_NUMBER, _NUMBER, st.integers(-6, 6).map(str), st.sampled_from(["", "x", "1.5"]))
_MARGIN = st.one_of(st.integers(1, 2).map(str), _SMALL)
_JUNK = st.text("xyz[]^-0123 ,()f;Δ='", max_size=10)


@st.composite
def _monomial_texts(draw):
    factors = draw(st.lists(
        st.tuples(st.sampled_from("xxxyy"), st.integers(-6, 6), st.integers(1, 3)), max_size=4
    ))
    text = " ".join(f"{v}[{i}]" + (f"^{e}" if e != 1 else "") for v, i, e in factors)
    return draw(st.sampled_from([text] * 4 + [draw(_JUNK)]))


@st.composite
def _shape_texts(draw):
    parts = draw(st.lists(st.integers(0, 3), max_size=3))
    if parts and draw(st.integers(0, 3)) < 3:  # mostly positive ends
        parts[0], parts[-1] = parts[0] or 1, parts[-1] or 2
    return "(" + ",".join(map(str, parts)) + ")"


@st.composite
def _label_texts(draw):
    digit = draw(st.sampled_from(list(range(1, 8)) * 3 + [0, 8]))
    prime = draw(st.sampled_from(["", "", "", "'"]))
    body = draw(_shape_texts())
    if (digit not in (1, 3)) is not (draw(st.integers(0, 7)) == 7):  # mostly the right form
        offset = draw(st.sampled_from(["Δ="] * 4 + ["delta=", ""])) + draw(_SMALL)
        body += f",{draw(_shape_texts())};{offset}"
    return draw(st.sampled_from([f"f{digit}{prime}[{body}]"] * 4 + [draw(_JUNK)]))


@st.composite
def _argvs(draw, paths):
    command = draw(st.sampled_from(["canon", "expand", "check", "census", "symfunc", "orbit",
                                    "stab", "bogus"]))
    group = ["--group", draw(_GROUP_ARGS)]
    window = ["-N", draw(_SMALL)]
    if command in ("canon", "stab"):
        argv = [command, *group, draw(_monomial_texts())]
    elif command == "orbit":
        argv = [command, *group, draw(_monomial_texts()), *window]
    elif command == "expand":
        argv = [command, draw(_label_texts()), *window]
    elif command == "check":
        argv = [command, *group, draw(st.sampled_from(paths)), "--margin", draw(_MARGIN)]
    elif command == "census":
        argv = [command, *group, "-k", str(draw(st.integers(-1, 4))),
                "--max-parts", str(draw(st.integers(-1, 3))),
                "--max-delta", str(draw(st.integers(-2, 3)))]
    elif command == "symfunc":
        argv = [command, draw(st.sampled_from(["e", "h", "e", "h", "q"])),
                str(draw(st.integers(-1, 4))), *window]
        if draw(st.booleans()):
            argv += [*group, "--expand-basis", "--margin", draw(_MARGIN)]
    else:
        argv = [command]
    if draw(st.integers(0, 7)) == 7:  # drop trailing arguments, sometimes required ones
        argv = argv[: draw(st.integers(1, len(argv)))]
    return argv + draw(st.lists(st.sampled_from(["--json"] * 4 + ["--bogus", "-N"]), max_size=1))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_any_argv_ends_in_an_answer_or_a_usage_error(tmp_path_factory, data):
    folder = tmp_path_factory.getbasetemp() / "argv_fuzz"
    if not folder.exists():
        folder.mkdir()
        (folder / "e2.json").write_text(json.dumps(elementary_sym(2, 2).to_json_dict()))
        perturbed = elementary_sym(2, 2).to_json_dict()
        perturbed["terms"][0]["coeff"] = "2"
        (folder / "bad.json").write_text(json.dumps(perturbed))
        (folder / "junk.json").write_text("{")
    names = ("e2.json", "e2.json", "bad.json", "bad.json", "junk.json", "missing.json", "")
    argv = data.draw(_argvs([str(folder / name) for name in names]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
    assert code != 1 or argv[0] == "check", argv


def test_degree_zero_series_check_at_every_margin(tmp_path, capsys):
    # the unit lies in every window, also after a shift: margin == N passes
    path = tmp_path / "unit.json"
    for group in FriezeGroup:
        for window in (1, 2, 3):
            payload = {"alphabet": group.alphabet, "degree": 0, "window": window,
                       "terms": [{"monomial": "1", "coeff": "3"}]}
            path.write_text(json.dumps(payload))
            for margin in range(1, window + 1):
                code, out, err = run_cli(
                    capsys, "check", "--group", group.value, str(path), "--margin", str(margin)
                )
                assert (code, err) == (0, ""), (group, window, margin)
                assert json.loads(out)["invariant"] is True


_CHECK_DATA = pathlib.Path(__file__).parent / "data" / "check"


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--group", "F1", str(_CHECK_DATA / "f1-perturbed.json")],
        ["canon", "--group", "F1", "x[3] x[5]^2"],
    ],
    ids=["check-json", "canon-text"],
)
def test_stdout_write_error_is_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


_HELP_ROW = (
    ["-h", "--help"], "help", False, argparse.SUPPRESS, None, "show this help message and exit"
)
_GROUP_ROW = (["--group"], "group", True, None, None, None)
_JSON_ROW = (["--json"], "json", False, False, None, None)
_MONOMIAL_ROW = ([], "monomial", True, None, None, None)
_WINDOW_ROW = (["-N", "--window"], "window", True, None, None, None)
_MARGIN_ROW = (["--margin"], "margin", False, 1, None, None)

# each parser's actions, in order: (option_strings, dest, required, default, choices, help)
_SURFACE = {
    "friezeinv": [
        _HELP_ROW,
        ([], "command", True, None,
         ["canon", "expand", "check", "census", "symfunc", "orbit", "stab"], None),
    ],
    "canon": [
        _HELP_ROW,
        _GROUP_ROW,
        ([], "monomial", True, None, None, "monomial text, e.g. 'x[3] x[5]^2'"),
        _JSON_ROW,
    ],
    "expand": [
        _HELP_ROW,
        ([], "label", True, None, None, "basis label, e.g. 'f6[(1),(2);Δ=-3]'"),
        _WINDOW_ROW,
        _JSON_ROW,
    ],
    "check": [
        _HELP_ROW,
        _GROUP_ROW,
        ([], "series", True, None, None, "path to a series JSON file, or - for stdin"),
        _MARGIN_ROW,
        _JSON_ROW,
    ],
    "census": [
        _HELP_ROW,
        _GROUP_ROW,
        (["-k", "--degree"], "degree", True, None, None, None),
        (["--max-parts"], "max_parts", True, None, None, None),
        (["--max-delta"], "max_delta", False, 0, None, None),
        _JSON_ROW,
    ],
    "symfunc": [
        _HELP_ROW,
        ([], "kind", True, None, ["e", "h"], None),
        ([], "r", True, None, None, None),
        _WINDOW_ROW,
        (["--group"], "group", False, FriezeGroup.F1, None, None),
        (["--expand-basis"], "expand_basis", False, False, None, None),
        _MARGIN_ROW,
        _JSON_ROW,
    ],
    "orbit": [_HELP_ROW, _GROUP_ROW, _MONOMIAL_ROW, _WINDOW_ROW, _JSON_ROW],
    "stab": [_HELP_ROW, _GROUP_ROW, _MONOMIAL_ROW, _JSON_ROW],
}
_SUMMARIES = [
    ("canon", "canonical basis label of a monomial"),
    ("expand", "truncated expansion of a basis label"),
    ("check", "test a series file for invariance"),
    ("census", "component census of a graded piece"),
    ("symfunc", "elementary/complete symmetric functions"),
    ("orbit", "orbit of a monomial inside a window"),
    ("stab", "stabilizer of a monomial"),
]


def _actions(parser):
    return [
        (action.option_strings, action.dest, action.required, action.default,
         None if action.choices is None else list(action.choices), action.help)
        for action in parser._actions
    ]


def test_cli_surface_is_pinned():
    # the help text differs between Python versions, so the actions behind it are pinned
    parser = cli.build_parser()
    (sub,) = (action for action in parser._actions if action.dest == "command")
    surface = {"friezeinv": _actions(parser)}
    surface.update((name, _actions(each)) for name, each in sub.choices.items())
    assert surface == _SURFACE
    assert [(action.dest, action.help) for action in sub._choices_actions] == _SUMMARIES
