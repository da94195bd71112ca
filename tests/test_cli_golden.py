"""Golden stdout of the CLI: every recorded call prints the same bytes and
exits with the same code.

The calls and their outputs live in ``tests/data/cli_golden.json``.  They
cover canon, expand, census (F1 and F6), symfunc --expand-basis, orbit and
stab over every applicable group at small sizes, including some usage
errors (whose stdout is empty).  Regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when an output change
is intended, and say which outputs changed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from friezeinv import ALPHABET_X, FriezeGroup, enumerate_indices
from friezeinv.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

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
def test_stdout_is_byte_identical_to_the_recording(case):
    code, out = run(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_recording_covers_every_command_and_group():
    cases = _cases()
    commands = {case["argv"][0] for case in cases}
    assert commands == {"canon", "expand", "census", "symfunc", "orbit", "stab"}
    for command in ("canon", "orbit", "stab"):
        groups = {case["argv"][2] for case in cases if case["argv"][0] == command}
        assert groups == {group.value for group in FriezeGroup}
    assert {case["exit"] for case in cases} == {0, 2}


if __name__ == "__main__":
    cases = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv)))) for argv in _argvs()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} calls to {DATA}")
