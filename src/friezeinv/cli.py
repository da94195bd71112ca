"""Command-line front end.

Commands: canon, expand, check, census, symfunc, orbit, stab.
Exit codes: 0 success, 1 check failed, 2 usage or parse error.
All reports are deterministic JSON with exact rational coefficient strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .basis import (
    expand_basis_function,
    expand_in_basis,
    format_basis_label,
    index_of_monomial,
    parse_basis_label,
)
from .errors import ParseError
from .groups import FriezeGroup
from .monomials import format_monomial, parse_monomial
from .actions import orbit_in_window, stabilizer
from .series import TruncatedSeries, complete_sym, elementary_sym, is_invariant
from .structure import decomposition_census

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _group(value: str) -> FriezeGroup:
    try:
        return FriezeGroup(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown group {value!r} (expected F1..F7)")


@functools.cache  # parse_args leaves the parser as it was and reads sys.stdout/stderr per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friezeinv",
        description="Exact orbit-sum invariants of the seven frieze groups on truncated "
        "formal series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser("canon", help="canonical basis label of a monomial")
    canon.add_argument("--group", type=_group, required=True)
    canon.add_argument("monomial", help="monomial text, e.g. 'x[3] x[5]^2'")
    canon.add_argument("--json", action="store_true")

    expand = sub.add_parser("expand", help="truncated expansion of a basis label")
    expand.add_argument("label", help="basis label, e.g. 'f6[(1),(2);Δ=-3]'")
    expand.add_argument("-N", "--window", type=int, required=True)
    expand.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="test a series file for invariance")
    check.add_argument("--group", type=_group, required=True)
    check.add_argument("series", help="path to a series JSON file, or - for stdin")
    check.add_argument("--margin", type=int, default=1)
    check.add_argument("--json", action="store_true")

    census = sub.add_parser("census", help="component census of a graded piece")
    census.add_argument("--group", type=_group, required=True)
    census.add_argument("-k", "--degree", type=int, required=True)
    census.add_argument("--max-parts", type=int, required=True)
    census.add_argument("--max-delta", type=int, default=0)
    census.add_argument("--json", action="store_true")

    symfunc = sub.add_parser("symfunc", help="elementary/complete symmetric functions")
    symfunc.add_argument("kind", choices=("e", "h"))
    symfunc.add_argument("r", type=int)
    symfunc.add_argument("-N", "--window", type=int, required=True)
    symfunc.add_argument("--group", type=_group, default=FriezeGroup.F1)
    symfunc.add_argument("--expand-basis", action="store_true")
    symfunc.add_argument("--margin", type=int, default=1)
    symfunc.add_argument("--json", action="store_true")

    orbit = sub.add_parser("orbit", help="orbit of a monomial inside a window")
    orbit.add_argument("--group", type=_group, required=True)
    orbit.add_argument("monomial")
    orbit.add_argument("-N", "--window", type=int, required=True)
    orbit.add_argument("--json", action="store_true")

    stab = sub.add_parser("stab", help="stabilizer of a monomial")
    stab.add_argument("--group", type=_group, required=True)
    stab.add_argument("monomial")
    stab.add_argument("--json", action="store_true")

    return parser


def _cmd_canon(args) -> int:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    if monomial.is_unit:
        raise ParseError("the unit monomial has no basis label")
    index = index_of_monomial(args.group, monomial)
    if args.json:
        _print_json(
            {
                "group": args.group.value,
                "label": format_basis_label(index),
                "monomial": format_monomial(monomial),
            }
        )
    else:
        sys.stdout.write(format_basis_label(index) + "\n")
        sys.stdout.write(format_monomial(monomial) + "\n")
    return EXIT_OK


def _cmd_expand(args) -> int:
    index = parse_basis_label(args.label)
    series = expand_basis_function(index, args.window)
    _print_json(series.to_json_dict())
    return EXIT_OK


def _load_series(path: str) -> TruncatedSeries:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad series JSON: {exc}") from exc
    except ValueError:  # json reads an integer past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"bad series JSON: an integer of more than {limit} digits is too long to read; "
            f'write a coefficient as a rational string "p/q" of at most {limit} digits each'
        ) from None
    except RecursionError as exc:
        raise ParseError("bad series JSON: nested too deeply") from exc
    return TruncatedSeries.from_json_dict(data)


def _cmd_check(args) -> int:
    series = _load_series(args.series)
    ok = is_invariant(args.group, series, args.margin)
    _print_json(
        {
            "group": args.group.value,
            "degree": series.degree,
            "window": series.window,
            "margin": args.margin,
            "invariant": ok,
        }
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_census(args) -> int:
    report = decomposition_census(args.group, args.degree, args.max_parts, args.max_delta)
    _print_json(report.to_json_dict())
    return EXIT_OK


def _cmd_symfunc(args) -> int:
    build = elementary_sym if args.kind == "e" else complete_sym
    series = build(args.r, args.window)
    payload = {
        "kind": args.kind,
        "r": args.r,
        "window": args.window,
        "series": series.to_json_dict(),
    }
    if args.expand_basis:
        coeffs = expand_in_basis(args.group, series, args.margin)
        payload["group"] = args.group.value
        payload["basis"] = [
            {"index": format_basis_label(index), "coeff": str(coeff)}
            for index, coeff in coeffs.items()
        ]
    _print_json(payload)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    orbit = orbit_in_window(args.group, monomial, args.window)
    listing = sorted(orbit, key=lambda m: m.sort_key())
    _print_json(
        {
            "group": args.group.value,
            "monomial": format_monomial(monomial),
            "window": args.window,
            "count": len(listing),
            "orbit": [format_monomial(m) for m in listing],
        }
    )
    return EXIT_OK


def _cmd_stab(args) -> int:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    if monomial.is_unit:
        raise ParseError("the unit monomial has no stabilizer description")
    elements = stabilizer(args.group, monomial)
    _print_json(
        {
            "group": args.group.value,
            "monomial": format_monomial(monomial),
            "trivial": not elements,
            "elements": [str(element) for element in elements],
        }
    )
    return EXIT_OK


_COMMANDS = {
    "canon": _cmd_canon,
    "expand": _cmd_expand,
    "check": _cmd_check,
    "census": _cmd_census,
    "symfunc": _cmd_symfunc,
    "orbit": _cmd_orbit,
    "stab": _cmd_stab,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        kind = "parse error" if isinstance(exc, ParseError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
