"""Command-line front end.

Commands: canon, expand, check, census, symfunc, orbit, stab; each is one
``command`` entry in ``build_parser`` whose handler returns its report, and
``main`` writes every report.  Every command accepts ``--json``.  Only canon
has a text form without it (the label line, then the monomial line); the
others always print deterministic JSON with exact rational coefficient strings.
Exit codes: 0 success, 1 only from check when the series is not invariant,
2 usage or parse error (a failed write to stdout included).  Integer options
are read here by ``int``; the library reads each integer argument once, a
bounded one through ``errors.at_least``.
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
from .errors import ParseError, quote
from .groups import FriezeGroup
from .monomials import format_monomial, parse_monomial
from .actions import orbit_in_window, stabilizer
from .series import TruncatedSeries, complete_sym, elementary_sym, is_invariant
from .structure import decomposition_census

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _argument(read, message: str):
    """An argparse type: ``read`` of the value, or ``message`` naming it by ``quote``
    when ``read`` raises ValueError or KeyError (argparse's own messages echo it whole)."""

    def convert(value: str):
        try:
            return read(value)
        except (ValueError, KeyError):
            raise argparse.ArgumentTypeError(message.format(quote(value))) from None

    return convert


_group = _argument(lambda value: FriezeGroup(value.upper()), "unknown group {} (expected F1..F7)")
_int = _argument(int, "invalid int value: {}")
_kind = _argument({"e": "e", "h": "h"}.__getitem__, "invalid choice: {} (choose from 'e', 'h')")


@functools.cache  # parse_args leaves the parser as it was and reads sys.stdout/stderr per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friezeinv",
        description="Exact orbit-sum invariants of the seven frieze groups on truncated "
        "formal series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, group: bool = True) -> argparse.ArgumentParser:
        """The subcommand ``name``, answered by ``run(args)``; ``--group`` comes first."""
        subparser = sub.add_parser(name, help=summary)
        subparser.set_defaults(run=run)
        if group:
            subparser.add_argument("--group", type=_group, required=True)
        return subparser

    canon = command("canon", _canon, "canonical basis label of a monomial")
    canon.add_argument("monomial", help="monomial text, e.g. 'x[3] x[5]^2'")

    expand = command("expand", _expand, "truncated expansion of a basis label", group=False)
    expand.add_argument("label", help="basis label, e.g. 'f6[(1),(2);Δ=-3]'")
    expand.add_argument("-N", "--window", type=_int, required=True)

    check = command("check", _check, "test a series file for invariance")
    check.add_argument("series", help="path to a series JSON file, or - for stdin")
    check.add_argument("--margin", type=_int, default=1)

    census = command("census", _census, "component census of a graded piece")
    census.add_argument("-k", "--degree", type=_int, required=True)
    census.add_argument("--max-parts", type=_int, required=True)
    census.add_argument("--max-delta", type=_int, default=0)

    symfunc = command("symfunc", _symfunc, "elementary/complete symmetric functions", group=False)
    symfunc.add_argument("kind", type=_kind, choices=("e", "h"))  # choices: for the help text
    symfunc.add_argument("r", type=_int)
    symfunc.add_argument("-N", "--window", type=_int, required=True)
    symfunc.add_argument("--group", type=_group, default=FriezeGroup.F1)
    symfunc.add_argument("--expand-basis", action="store_true")
    symfunc.add_argument("--margin", type=_int, default=1)

    orbit = command("orbit", _orbit, "orbit of a monomial inside a window")
    orbit.add_argument("monomial")
    orbit.add_argument("-N", "--window", type=_int, required=True)

    stab = command("stab", _stab, "stabilizer of a monomial")
    stab.add_argument("monomial")

    for each in sub.choices.values():  # last, where every usage line has always shown it
        each.add_argument("--json", action="store_true")
    return parser


def _canon(args) -> dict | str:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    if monomial.is_unit:
        raise ParseError("the unit monomial has no basis label")
    label = format_basis_label(index_of_monomial(args.group, monomial))
    if args.json:
        return {"group": args.group.value, "label": label, "monomial": format_monomial(monomial)}
    return f"{label}\n{format_monomial(monomial)}"


def _expand(args) -> dict:
    index = parse_basis_label(args.label)
    return expand_basis_function(index, args.window).to_json_dict()


def _load_series(path: str) -> TruncatedSeries:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:  # its message echoes the whole path
            raise ValueError(f"cannot read {quote(path)}: {exc.strerror}") from exc
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


def _check(args) -> dict:
    series = _load_series(args.series)
    return {
        "group": args.group.value,
        "degree": series.degree,
        "window": series.window,
        "margin": args.margin,
        "invariant": is_invariant(args.group, series, args.margin),
    }


def _census(args) -> dict:
    report = decomposition_census(args.group, args.degree, args.max_parts, args.max_delta)
    return report.to_json_dict()


def _symfunc(args) -> dict:
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
    return payload


def _orbit(args) -> dict:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    orbit = orbit_in_window(args.group, monomial, args.window)
    listing = sorted(orbit, key=lambda m: m.sort_key())
    return {
        "group": args.group.value,
        "monomial": format_monomial(monomial),
        "window": args.window,
        "count": len(listing),
        "orbit": [format_monomial(m) for m in listing],
    }


def _stab(args) -> dict:
    monomial = parse_monomial(args.monomial, args.group.alphabet)
    if monomial.is_unit:
        raise ParseError("the unit monomial has no stabilizer description")
    elements = stabilizer(args.group, monomial)
    return {
        "group": args.group.value,
        "monomial": format_monomial(monomial),
        "trivial": not elements,
        "elements": [str(element) for element in elements],
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        report = args.run(args)
        # inside the try: a failed write, such as a closed pipe, is an error line too
        if isinstance(report, str):  # canon's text form
            sys.stdout.write(report + "\n")
        else:
            sys.stdout.write(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    except (ParseError, ValueError, OSError) as exc:
        kind = "parse error" if isinstance(exc, ParseError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return EXIT_USAGE
    return EXIT_CHECK_FAILED if args.command == "check" and not report["invariant"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
