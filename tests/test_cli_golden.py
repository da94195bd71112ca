"""Golden stdout of the CLI: every recorded call prints the same bytes and
exits with the same code.

The calls and their outputs live in ``tests/data/cli_golden.json``.  They
cover canon, expand, census (F1 and F6), symfunc --expand-basis, orbit and
stab over every applicable group at small sizes, including some usage
errors (whose stdout is empty), and check on the series files in
``tests/data/check/``: valid and perturbed orbit sums of every group,
repeated and cancelling terms, and malformed files.  Regenerate the files
with ``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output
change is intended, and say which outputs changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from friezeinv import ALPHABET_X, FriezeGroup, enumerate_indices, expand_basis_function
from friezeinv.cli import main
from friezeinv.monomials import fits_window

DATA = Path(__file__).parent / "data" / "cli_golden.json"
# the check calls name their files relative to DATA.parent, where they run
CHECK_DIR = "check"

_MONOMIALS_X = ("x[3] x[5]^2", "x[1]^2 x[2]", "x[-1] x[0]^3", "x[0]", "x[-2] x[1]")
_MONOMIALS_XY = (
    "x[0] y[0]",
    "x[1] y[1] y[3]",
    "x[-2]^2 y[1]",
    "y[0]^2 y[2]",
    "x[0] x[2] y[-1]^2",
    "x[1]",
)


def _monomials(group: FriezeGroup) -> tuple[str, ...]:
    return _MONOMIALS_X if group.alphabet == ALPHABET_X else _MONOMIALS_XY


def _spelled(text: str, reverse: bool) -> str:
    """Another spelling of a monomial text: each power as repeated factors,
    in reverse order when asked."""
    factors = []
    for token in text.split():
        variable, _, exponent = token.partition("^")
        factors += [variable] * int(exponent or 1)
    return " ".join(factors[::-1] if reverse else factors)


def _check_documents() -> dict[str, tuple[str, list[str], dict]]:
    """File name -> (group, margins, series document) of the recorded check calls."""
    docs = {}
    for group in FriezeGroup:
        labels = enumerate_indices(group, 2, 2, 1)
        series = expand_basis_function(labels[0], 3).add(
            expand_basis_function(labels[-1], 3).scale("-3/2"))
        payload = series.to_json_dict()
        name = group.value.lower()
        docs[f"{name}-orbit-sum"] = (group.value, ["1", "2"], payload)
        terms = [dict(term) for term in payload["terms"]]
        interior = next(n for n, (m, _) in enumerate(series.terms()) if fits_window(m, 2))
        terms[interior]["coeff"] = str(series.terms()[interior][1] + 1)
        docs[f"{name}-perturbed"] = (group.value, ["1"], dict(payload, terms=terms))
    f1 = docs["f1-orbit-sum"][2]
    halves = [
        {"monomial": _spelled(term["monomial"], reverse), "coeff": str(Fraction(term["coeff"]) / 2)}
        for reverse in (False, True) for term in f1["terms"]
    ]
    docs["f1-repeated"] = ("F1", ["1"], dict(f1, terms=halves[::2] + halves[1::2]))
    extra = [{"monomial": "x[-1] x[1]", "coeff": "5/7"}, {"monomial": "x[0] x[0]", "coeff": 0},
             {"monomial": "x[0]^2", "coeff": 1}, {"monomial": "x[1] x[-1]", "coeff": "-5/7"},
             {"monomial": "x[2]^2", "coeff": 0}, {"monomial": " x[0]^1  x[0] ", "coeff": "-1"}]
    docs["f1-cancelling"] = ("F1", ["1"], dict(f1, terms=extra[:3] + f1["terms"] + extra[3:]))
    docs["f1-for-f6"] = ("F6", ["1"], f1)
    for name, monomial in (
        ("bad-token-repeated", "x[2 x[0] x[2"),
        ("bad-token-prefix", "x[1] x[1"),
        ("y-in-x", "x[0] y[1]"),
        ("exponent-zero", "x[0]^0 x[1]^2"),
        ("exponent-negative", "x[0]^-1 x[1]^3"),
        ("wrong-degree", "x[0]^3"),
        ("out-of-window", "x[-5] x[0]"),
    ):
        terms = f1["terms"][:3] + [{"monomial": monomial, "coeff": "1"}] + f1["terms"][3:]
        docs[name] = ("F1", ["1"], dict(f1, terms=terms))
    docs["bad-alphabet"] = ("F1", ["1"], dict(f1, alphabet="Z"))
    return docs


def _argvs() -> list[list[str]]:
    argvs: list[list[str]] = []
    for group in FriezeGroup:
        name = group.value
        for text in _monomials(group):
            argvs.append(["canon", "--group", name, text])
            argvs.append(["canon", "--group", name, text, "--json"])
            argvs.append(["stab", "--group", name, text])
            argvs.append(["orbit", "--group", name, text, "-N", "3"])
        argvs.append(["canon", "--group", name, ""])
        argvs.append(["canon", "--group", name, "z[1]"])
        for degree in (1, 2):
            for label in enumerate_indices(group, degree, 2, 1):
                argvs.append(["expand", str(label), "-N", "2"])
    for label in ("f6[(1),(2);Δ=-3]", "f2'[(1),(1);Δ=0]", "f3[(2,1)]", "f7[(1),(1,0,1);Δ=0]",
                  "f4[(1),(1);delta=1]", "f6[(1),(2);Δ=x]", "f1[(0,1)]", "f5'[(2),();Δ=0]"):
        argvs.append(["expand", label, "-N", "3"])
    for group in ("F1", "F6"):
        for degree in (1, 2, 3, 4):
            for parts in (1, 2, 3):
                for delta in (0, 1, 2):
                    argvs.append(["census", "--group", group, "-k", str(degree),
                                  "--max-parts", str(parts), "--max-delta", str(delta)])
    argvs.append(["census", "--group", "F3", "-k", "2", "--max-parts", "2"])
    for kind in ("e", "h"):
        for r in (1, 2, 3):
            for window in (1, 2):
                argvs.append(["symfunc", kind, str(r), "-N", str(window)])
                for group in ("F1", "F3"):
                    argvs.append(["symfunc", kind, str(r), "-N", str(window), "--group",
                                  group, "--expand-basis", "--margin", "1"])
        # the two-alphabet groups reject a one-alphabet series
        for group in ("F2", "F4", "F5", "F6", "F7"):
            argvs.append(["symfunc", kind, "2", "-N", "2", "--group", group, "--expand-basis"])
    for name, (group, margins, _) in _check_documents().items():
        for margin in margins:
            argvs.append(["check", "--group", group, f"{CHECK_DIR}/{name}.json",
                          "--margin", margin])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _cases() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


# a missing recording fails the coverage test below, not the collection
@pytest.mark.parametrize(
    "case", _cases() if DATA.exists() else [], ids=lambda case: " ".join(case["argv"])
)
def test_stdout_is_byte_identical_to_the_recording(case, monkeypatch):
    monkeypatch.chdir(DATA.parent)
    code, out = run(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_recording_covers_every_command_and_group():
    cases = _cases()
    commands = {case["argv"][0] for case in cases}
    assert commands == {"canon", "expand", "census", "symfunc", "orbit", "stab", "check"}
    for command in ("canon", "orbit", "stab", "check"):
        groups = {case["argv"][2] for case in cases if case["argv"][0] == command}
        assert groups == {group.value for group in FriezeGroup}
    assert {case["exit"] for case in cases} == {0, 1, 2}


if __name__ == "__main__":
    (DATA.parent / CHECK_DIR).mkdir(parents=True, exist_ok=True)
    for name, (_, _, payload) in _check_documents().items():
        path = DATA.parent / CHECK_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    os.chdir(DATA.parent)
    cases = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv)))) for argv in _argvs()]
    DATA.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} calls to {DATA}")
