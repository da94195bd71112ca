"""Seeded operation lists for the four benchmark workloads.

Each workload is a list of ``Op`` values built from one ``random.Random(seed)``.
An op holds a zero-argument call into the library (looked up through the
module attribute at call time, so the tracer's wrappers are seen), the size
parameters of its inputs, and a checker that compares the result against a
known answer.  Checkers raise ``Mismatch``; they run outside the timed region.

The mixes are stratified so that two seeds ask for about the same amount of
work: the kinds, windows N, degrees k and bounds of the ops form a fixed grid,
and the seed picks the labels, monomials, coefficients and perturbations inside
it and the order of the ops.  Heavy ops use labels with a trivial stabilizer,
so that their orbit sizes do not depend on the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb

import friezeinv as fz
from friezeinv import cli

F = fz.FriezeGroup
GROUPS = list(F)
WORKLOADS = ("build", "check", "census", "cli")
DEFAULT_SEED = 1


class Mismatch(Exception):
    """An operation returned something other than its known answer."""


class Op:
    """One library call with its size parameters and known-answer check."""

    __slots__ = ("kind", "text", "call", "check", "sizes", "probe")

    def __init__(self, kind, text, call, check, sizes, probe=False):
        self.kind = kind
        self.text = text
        self.call = call
        self.check = check
        self.sizes = sizes
        # a probe is a malformed request: its known answer is a clean exit 2
        self.probe = probe


# ---------------------------------------------------------------- helpers


def rand_shape(rng: random.Random, order: int, parts: int) -> fz.Composition:
    """A composition of ``order`` with exactly ``parts`` parts (first and last
    positive, interior entries free)."""
    if order == 0:
        return fz.EMPTY
    if parts == 1 or order == 1:
        return fz.Composition((order,))
    entries = [1] + [0] * (parts - 2) + [1]
    for _ in range(order - 2):
        entries[rng.randrange(parts)] += 1
    return fz.Composition(tuple(entries))


def rand_label(rng: random.Random, group: F, degree: int, free: bool = False):
    """A canonical label of the given degree with at most three parts per shape
    and |delta| <= 2; ``free`` asks for a trivial stabilizer (a full orbit)."""
    while True:
        if group.alphabet == fz.ALPHABET_X:
            idx = fz.canonical_index(group, rand_shape(rng, degree, rng.randint(1, 3)))
        else:
            order_x = rng.randint(0, degree)
            sx = rand_shape(rng, order_x, rng.randint(1, 3))
            sy = rand_shape(rng, degree - order_x, rng.randint(1, 3))
            primed = group.uses_glide and rng.random() < 0.5
            idx = fz.canonical_index(group, sx, sy, rng.randint(-2, 2), primed)
        if not free or not fz.stabilizer(group, fz.representative_monomial(idx)):
            return idx


def distinct_labels(rng, group, degree, count):
    labels: list = []
    while len(labels) < count:
        idx = rand_label(rng, group, degree, free=True)
        if idx not in labels:
            labels.append(idx)
    return labels


def rand_coeff(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return value if rng.random() < 0.7 else -value


def orbit_combination(labels, coeffs, window):
    total = None
    for idx, c in zip(labels, coeffs):
        term = fz.expand_basis_function(idx, window).scale(c)
        total = term if total is None else total.add(term)
    return total


def rep_support(idx) -> tuple[int, int]:
    """Support of the label's representative monomial, computed from the label."""
    base = -1 if idx.primed else 0
    spans = []
    if idx.shape_x.num_parts:
        spans.append((base + 1, base + idx.shape_x.num_parts))
    if idx.shape_y.num_parts:
        lo = base + idx.delta + 1
        spans.append((lo, lo + idx.shape_y.num_parts - 1))
    return min(s[0] for s in spans), max(s[1] for s in spans)


def series_text(series) -> str:
    return "|".join(
        [series.alphabet, str(series.degree), str(series.window)]
        + [f"{m.sort_key()}:{c}" for m, c in series.terms()]
    )


def digest_text(result) -> str:
    """Canonical text of an exact result, for output digests."""
    if isinstance(result, fz.TruncatedSeries):
        return series_text(result)
    if isinstance(result, dict):
        return repr(sorted((str(k), str(v)) for k, v in result.items()))
    if isinstance(result, list):
        return repr([str(x) for x in result])
    if isinstance(result, fz.CensusReport):
        return json.dumps(result.to_json_dict(), sort_keys=True)
    if isinstance(result, tuple) and len(result) == 4:  # a cli outcome
        return f"{result[0]}\n{result[1]}"
    return str(result)


def digest(result) -> str:
    return hashlib.sha256(digest_text(result).encode()).hexdigest()[:16]


def terms_out(result) -> int:
    if isinstance(result, fz.TruncatedSeries):
        return result.num_terms
    if isinstance(result, (dict, list)):
        return len(result)
    if isinstance(result, fz.CensusReport):
        return result.total
    return 1


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def coeff_sum(series) -> Fraction:
    return sum((c for _, c in series.terms()), Fraction(0))


def in_window(monomial, window: int) -> bool:
    lo, hi = monomial.support()
    return -window <= lo and hi <= window


def check_series_shape(series, alphabet, degree, window) -> None:
    expect(isinstance(series, fz.TruncatedSeries), f"not a series: {type(series).__name__}")
    expect(
        (series.alphabet, series.degree, series.window) == (alphabet, degree, window),
        f"series header {(series.alphabet, series.degree, series.window)}",
    )


# ---------------------------------------------------------------- build


def _symfunc_op(kind, r, window):
    build = "elementary_sym" if kind == "e" else "complete_sym"
    count = comb(2 * window + 1, r) if kind == "e" else comb(2 * window + r, r)

    def check(s):
        check_series_shape(s, fz.ALPHABET_X, r, window)
        expect(s.num_terms == count, f"{kind}_{r} has {s.num_terms} terms, want {count}")
        expect(coeff_sum(s) == count, "symmetric function coefficients are not all 1")

    return Op(
        "symfunc",
        f"{build}({r}, {window})",
        lambda: getattr(fz, build)(r, window),
        check,
        {"N": window, "k": r},
    )


def _expand_fn_op(idx, window):
    def check(s):
        check_series_shape(s, idx.group.alphabet, idx.degree, window)
        expect(all(c == 1 for _, c in s.terms()), "orbit sum coefficient differs from 1")

    return Op(
        "expand_fn",
        f"expand_basis_function({idx}, {window})",
        lambda: fz.expand_basis_function(idx, window),
        check,
        {"N": window, "k": idx.degree},
    )


def _multiply_op(a, b, text):
    want = coeff_sum(a) * coeff_sum(b)

    def check(s):
        check_series_shape(s, a.alphabet, a.degree + b.degree, a.window)
        expect(coeff_sum(s) == want, "coefficient sum of product is not the product of sums")

    return Op(
        "multiply",
        text,
        lambda: a.multiply(b),
        check,
        {"N": a.window, "k": a.degree + b.degree, "terms_in": a.num_terms * b.num_terms},
    )


def _linear_ops(rng, group, window):
    degree = 3
    ia, ib = distinct_labels(rng, group, degree, 2)
    a = fz.expand_basis_function(ia, window)
    b = fz.expand_basis_function(ib, window)
    ca = rand_coeff(rng)
    sizes = {"N": window, "k": degree, "terms_in": a.num_terms}
    want_sum = coeff_sum(a) + coeff_sum(b)

    def check_add(s):
        check_series_shape(s, a.alphabet, a.degree, a.window)
        expect(coeff_sum(s) == want_sum, "coefficient sum of a sum is not additive")

    def check_scale(s):
        check_series_shape(s, a.alphabet, a.degree, a.window)
        expect(coeff_sum(s) == ca * coeff_sum(a), "scaling did not scale the coefficient sum")

    inner = window - rng.randint(1, window // 2)
    kept = sum(1 for m in a.monomials() if in_window(m, inner))

    def check_project(s):
        check_series_shape(s, a.alphabet, a.degree, inner)
        expect(s.num_terms == kept, f"projection kept {s.num_terms} terms, want {kept}")

    element = rng.choice(fz.generators(group)) * fz.shift(group, rng.randint(-3, 3))
    # the action is a bijection on monomials, so every term whose image stays
    # in the window gives one term of the image
    moved = sum(1 for m in a.monomials() if in_window(fz.act(element, m), window))

    def check_act(s):
        # an orbit sum is invariant, so its image is the part of it that stays in the window
        check_series_shape(s, a.alphabet, a.degree, a.window)
        expect(s.num_terms == moved, f"image has {s.num_terms} terms, want {moved}")
        expect(all(a.coefficient(m) == c for m, c in s.terms()), "image is not a part of the orbit sum")

    return [
        Op("add", f"add({ia}, {ib}, {window})", lambda: a.add(b), check_add, dict(sizes)),
        Op("scale", f"scale({ia}, {ca}, {window})", lambda: a.scale(ca), check_scale, dict(sizes)),
        Op("project", f"project({ia}, {window}->{inner})", lambda: a.project(inner),
           check_project, dict(sizes)),
        Op("act_series", f"act_series({element}, {ia}, {window})",
           lambda: fz.act_series(element, a), check_act, dict(sizes)),
    ]


def _multiply_pair(rng, group, degree_a, degree_b, window):
    ia = rand_label(rng, group, degree_a)
    ib = rand_label(rng, group, degree_b)
    a = fz.expand_basis_function(ia, window)
    b = fz.expand_basis_function(ib, window)
    return _multiply_op(a, b, f"multiply({ia}, {ib}, {window})")


SYMFUNC_GRID = (("e", 2, 14), ("h", 2, 12), ("e", 3, 9), ("h", 3, 8), ("e", 4, 7), ("h", 4, 6))
# F3 labels of degree <= 2 are all palindromes, so every draw has the same orbit sizes
MULTIPLY_GRID = ((F.F1, 1, 3, 25), (F.F1, 2, 3, 20), (F.F3, 1, 2, 25), (F.F3, 2, 2, 20))


def build_ops(rng: random.Random) -> list[Op]:
    # symmetric functions of 300 to 5000 terms
    ops = [_symfunc_op(kind, r, window) for kind, r, window in SYMFUNC_GRID]
    # orbit sums of every group at the three windows
    for group in GROUPS:
        for window in (10, 40, 160):
            ops.append(_expand_fn_op(rand_label(rng, group, 3, free=True), window))
    # products of F1/F3 orbit sums: degree 1-2 times degree 2-3
    for group, degree_a, degree_b, window in MULTIPLY_GRID:
        ops.append(_multiply_pair(rng, group, degree_a, degree_b, window))
    # linear operations and the action on prebuilt combinations
    for group in GROUPS:
        for window in (40, 160):
            ops.extend(_linear_ops(rng, group, window))
    return ops


# ---------------------------------------------------------------- check


def _check_ops_for(rng, group, window, margin):
    degree = 3
    labels = distinct_labels(rng, group, degree, 2)
    coeffs = [rand_coeff(rng) for _ in labels]
    series = orbit_combination(labels, coeffs, window)
    lo, hi = -window + margin, window - margin
    want = {
        idx: c for idx, c in zip(labels, coeffs)
        if lo <= rep_support(idx)[0] and rep_support(idx)[1] <= hi
    }
    # perturb one interior coefficient: the shift generator moves every
    # monomial, so the interior test must catch it
    interior = sorted(
        (m for m in series.monomials() if lo <= m.support()[0] and m.support()[1] <= hi),
        key=lambda m: m.sort_key(),
    )
    victim = rng.choice(interior)
    bump = fz.TruncatedSeries(series.alphabet, degree, window, {victim: 1})
    perturbed = series.add(bump)
    sizes = {"N": window, "k": degree, "terms_in": series.num_terms}
    name = "+".join(str(i) for i in labels)

    def check_true(ok):
        expect(ok is True, "is_invariant is not True on an orbit-sum combination")

    def check_false(ok):
        expect(ok is False, "is_invariant passed a perturbed series")

    def check_expand(result):
        expect(result == want, f"expand_in_basis gave {len(result)} labels, want {len(want)}")

    return [
        Op("is_invariant", f"is_invariant({group}, {name}, {window})",
           lambda: fz.is_invariant(group, series, margin), check_true, dict(sizes)),
        Op("is_invariant", f"is_invariant({group}, {name}+{victim}, {window})",
           lambda: fz.is_invariant(group, perturbed, margin), check_false, dict(sizes)),
        Op("expand_in_basis", f"expand_in_basis({group}, {name}, {window})",
           lambda: fz.expand_in_basis(group, series, margin), check_expand, dict(sizes)),
    ]


def symfunc_expansion(group: F, kind: str, r: int, window: int, margin: int) -> dict:
    """Known expansion of e_r / h_r: every orbit of a monomial with all
    exponents <= 1 (e) or of any monomial (h) appears with coefficient 1,
    restricted to labels whose representative is interior."""
    width = 2 * (window - margin) + 1
    out = {}
    for length in range(1, width + 1):
        for inner in _weak_compositions(r, length, 1 if kind == "e" else r):
            idx = fz.canonical_index(group, fz.Composition(inner))
            lo, hi = rep_support(idx)
            if -window + margin <= lo and hi <= window - margin:
                out[idx] = Fraction(1)
    return out


def _weak_compositions(order, length, cap):
    """Tuples of ``length`` entries in [0, cap] summing to order, with the
    first and last positive."""
    if length == 1:
        if 1 <= order <= cap:
            yield (order,)
        return
    for first in range(1, cap + 1):
        for last in range(1, cap + 1):
            rest = order - first - last
            if rest < 0:
                continue
            for middle in _bounded(rest, length - 2, cap):
                yield (first, *middle, last)


def _bounded(total, slots, cap):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for v in range(0, min(cap, total) + 1):
        for tail in _bounded(total - v, slots - 1, cap):
            yield (v, *tail)


SYMFUNC_CHECK_GRID = (("e", F.F1, 3, 8), ("h", F.F1, 2, 9), ("e", F.F3, 2, 10), ("h", F.F3, 3, 6))


def check_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for group in GROUPS:
        for window in (10, 40, 160):
            ops.extend(_check_ops_for(rng, group, window, rng.randint(1, 2)))
    for kind, group, r, window in SYMFUNC_CHECK_GRID:
        margin = rng.randint(1, 2)
        series = (fz.elementary_sym if kind == "e" else fz.complete_sym)(r, window)
        want = symfunc_expansion(group, kind, r, window, margin)
        sizes = {"N": window, "k": r, "terms_in": series.num_terms}

        def check_true(ok):
            expect(ok is True, "is_invariant is not True on a symmetric function")

        def check_expand(result, want=want):
            expect(result == want, "symmetric function expansion differs from the closed form")

        ops.append(Op("is_invariant", f"is_invariant({group}, {kind}_{r}, {window})",
                      lambda g=group, s=series, m=margin: fz.is_invariant(g, s, m),
                      check_true, dict(sizes)))
        ops.append(Op("expand_in_basis", f"expand_in_basis({group}, {kind}_{r}, {window})",
                      lambda g=group, s=series, m=margin: fz.expand_in_basis(g, s, m),
                      check_expand, dict(sizes)))
    return ops


# ---------------------------------------------------------------- census


def f1_count(degree: int, max_parts: int) -> int:
    """Stars and bars: compositions of ``degree`` with at most ``max_parts``
    parts, first and last positive."""
    total = 1 if degree >= 1 else 0
    for parts in range(2, max_parts + 1):
        if degree >= 2:
            total += comb(degree - 2 + parts - 1, parts - 1)
    return total


def _enumerate_op(group, degree, max_parts, max_delta):
    def check(labels):
        expect(all(i.group is group and i.degree == degree for i in labels), "label of the wrong kind")
        expect(len(set(labels)) == len(labels), "duplicate labels")
        if group is F.F1:
            want = f1_count(degree, max_parts)
            expect(len(labels) == want, f"F1 enumeration has {len(labels)} labels, want {want}")

    return Op(
        "enumerate",
        f"enumerate_indices({group}, {degree}, {max_parts}, {max_delta})",
        lambda: fz.enumerate_indices(group, degree, max_parts, max_delta),
        check,
        {"k": degree},
    )


def _census_op(group, degree, max_parts, max_delta):
    def check(report):
        expect(report.degree == degree and report.group is group, "census header")
        if group is F.F1:
            want = f1_count(degree, max_parts)
            expect((report.line, report.double) == (want, 0), f"F1 census {report.line}, want {want}")
        if group is F.F6 and degree % 2:
            expect(report.line == 0, "F6 census has LINE components at odd degree")

    return Op(
        "census",
        f"decomposition_census({group}, {degree}, {max_parts}, {max_delta})",
        lambda: fz.decomposition_census(group, degree, max_parts, max_delta),
        check,
        {"k": degree},
    )


def _raw_label_args(rng, group, degree):
    """Arguments of ``canonical_index`` for a random raw label of the degree."""
    if group.alphabet == fz.ALPHABET_X:
        return (rand_shape(rng, degree, rng.randint(1, 4)),)
    order_x = rng.randint(0, degree)
    return (
        rand_shape(rng, order_x, rng.randint(1, 4)),
        rand_shape(rng, degree - order_x, rng.randint(1, 4)),
        rng.randint(-4, 4),
        group.uses_glide and rng.random() < 0.5,
    )


# one canonical op canonicalizes a raw label of every group at every degree,
# so that every op of the kind asks for the same work and the median latency
# of the workload falls inside one tight cluster
CANONICAL_DEGREES = (2, 3, 4, 5, 6)


def _canonical_op(rng):
    labels = [(group, degree, _raw_label_args(rng, group, degree))
              for group in GROUPS for degree in CANONICAL_DEGREES]

    def call():
        return [fz.canonical_index(group, *args) for group, _, args in labels]

    def check(result):
        expect(len(result) == len(labels), f"{len(result)} labels for {len(labels)} requests")
        for idx, (group, degree, args) in zip(result, labels):
            expect(idx.group is group and idx.degree == degree, "canonical label of the wrong kind")
            if group is F.F1:
                expect(idx.shape_x == args[0], "F1 labels are their own canonical form")
            if group is F.F3:
                least = min(args[0].parts, args[0].parts[::-1])
                expect(idx.shape_x.parts == least, "F3 canonical label is not the least reversal")

    first = fz.make_index(labels[0][0], *labels[0][2])
    # no single degree: left out of the per-k columns of the traced report
    return Op("canonical", f"canonical_index x{len(labels)} ({first}, ...)", call, check, {})


def census_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    # bounds cycle through max_parts 3-4 and max_delta 2-4 over the (group, k) grid
    for degree in (3, 4, 5, 6):
        for g, group in enumerate(GROUPS):
            ops.append(_enumerate_op(group, degree, 3 + (g + degree) % 2, 2 + (g + degree) % 3))
        for g, group in enumerate((F.F1, F.F6)):
            ops.append(_census_op(group, degree, 3 + (g + degree) % 2, 2 + degree % 3))
    # more canonical ops than the other kinds together: the median is one of them
    ops.extend(_canonical_op(rng) for _ in range(45))
    return ops


# ---------------------------------------------------------------- cli


def run_cli(argv: list[str]):
    """Call ``cli.main`` in process; returns (exit code, stdout, stderr, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI must never let one escape
            code, escaped = None, exc
    return code, out.getvalue(), err.getvalue(), escaped


def _cli_check(code_want, stdout_check):
    def check(outcome):
        code, out, err, escaped = outcome
        expect(escaped is None, f"exception escaped: {type(escaped).__name__}: {escaped}")
        expect(code == code_want, f"exit code {code}, want {code_want}; stderr {err.strip()[:120]!r}")
        stdout_check(out)

    return check


def _probe_check(outcome):
    code, _, err, escaped = outcome
    expect(escaped is None, f"traceback: {type(escaped).__name__}: {escaped}")
    expect(code == 2, f"malformed input exited {code}, want 2")
    expect(err.strip() != "" and "Traceback" not in err, "no clean diagnostic on stderr")


def _rand_monomial_text(rng, group) -> str:
    letters = "x" if group.alphabet == fz.ALPHABET_X else "xy"
    factors = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.choice(letters), rng.randint(-6, 6))
        factors[key] = factors.get(key, 0) + 1
    return " ".join(f"{l}[{i}]" + (f"^{e}" if e > 1 else "") for (l, i), e in sorted(factors.items()))


def _cli_op(kind, argv, check, sizes, probe=False):
    return Op(f"cli.{kind}", " ".join(argv), lambda: run_cli(argv), check, sizes, probe)


def _json_equal(want):
    def check(out):
        expect(json.loads(out) == want, "stdout differs from the library result")
    return check


def _write(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload if isinstance(payload, str) else json.dumps(payload))


def _check_file_series(rng, group, target):
    """An orbit-sum combination with about ``target`` terms."""
    degree = 3
    labels = distinct_labels(rng, group, degree, 2)
    coeffs = [rand_coeff(rng) for _ in labels]
    probe = orbit_combination(labels, coeffs, 20)
    window = max(8, round(20 * target / max(probe.num_terms, 1)))
    return orbit_combination(labels, coeffs, window)


def _canon_op(rng, workdir, i):
    group = GROUPS[i % len(GROUPS)]
    text = _rand_monomial_text(rng, group)
    m = fz.parse_monomial(text, group.alphabet)
    lines = [fz.format_basis_label(fz.index_of_monomial(group, m)), fz.format_monomial(m)]

    def check_lines(out):
        expect(out.splitlines() == lines, "canon output differs from the library result")

    return _cli_op("canon", ["canon", "--group", group.value, text],
                   _cli_check(0, check_lines), {"k": m.degree})


def _stab_op(rng, workdir, i):
    group = GROUPS[i % len(GROUPS)]
    text = _rand_monomial_text(rng, group)
    m = fz.parse_monomial(text, group.alphabet)
    elements = [str(e) for e in fz.stabilizer(group, m)]
    want = {"group": group.value, "monomial": fz.format_monomial(m),
            "trivial": not elements, "elements": elements}
    return _cli_op("stab", ["stab", "--group", group.value, text, "--json"],
                   _cli_check(0, _json_equal(want)), {"k": m.degree})


def _orbit_op(rng, workdir, i):
    group = GROUPS[i % len(GROUPS)]
    m = fz.representative_monomial(rand_label(rng, group, rng.randint(1, 3)))
    window = 4 + i % 7
    text = fz.format_monomial(m)
    listing = sorted(fz.orbit_in_window(group, m, window), key=lambda x: x.sort_key())
    want = {"group": group.value, "monomial": text, "window": window,
            "count": len(listing), "orbit": [fz.format_monomial(x) for x in listing]}
    return _cli_op("orbit", ["orbit", "--group", group.value, text, "-N", str(window)],
                   _cli_check(0, _json_equal(want)), {"N": window, "k": m.degree})


def _expand_op(rng, workdir, i):
    group = GROUPS[i % len(GROUPS)]
    idx = rand_label(rng, group, 3, free=True)
    window = 5 + (13 * i) % 36
    want = fz.expand_basis_function(idx, window).to_json_dict()
    return _cli_op("expand", ["expand", str(idx), "-N", str(window)],
                   _cli_check(0, _json_equal(want)), {"N": window, "k": idx.degree})


def _census_cli_op(rng, workdir, i):
    group = (F.F1, F.F6)[i % 2]
    degree, max_parts, max_delta = 2 + i % 3, 3, (i // 2) % 3
    want = fz.decomposition_census(group, degree, max_parts, max_delta).to_json_dict()
    argv = ["census", "--group", group.value, "-k", str(degree),
            "--max-parts", str(max_parts), "--max-delta", str(max_delta)]
    return _cli_op("census", argv, _cli_check(0, _json_equal(want)), {"k": degree})


def _symfunc_cli_op(rng, workdir, i):
    kind, r, window = "eh"[i % 2], 1 + i % 3, 2 + i % 5
    series = (fz.elementary_sym if kind == "e" else fz.complete_sym)(r, window)
    want = {"kind": kind, "r": r, "window": window, "series": series.to_json_dict()}
    argv = ["symfunc", kind, str(r), "-N", str(window)]
    if i % 4 < 2:
        group = (F.F1, F.F3)[i % 2]
        coeffs = symfunc_expansion(group, kind, r, window, 1)
        want["group"] = group.value
        want["basis"] = [
            {"index": fz.format_basis_label(i), "coeff": str(c)}
            for i, c in sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())
        ]
        argv += ["--expand-basis", "--group", group.value]
    return _cli_op("symfunc", argv, _cli_check(0, _json_equal(want)), {"N": window, "k": r})


def _check_cli_op(rng, workdir, n, group, target, ok):
    """``check`` on an invariant file of about ``target`` terms, or on a copy
    with one interior coefficient changed."""
    series = _check_file_series(rng, group, target)
    margin = rng.randint(1, 2)
    if not ok:
        lo, hi = -series.window + margin, series.window - margin
        interior = sorted(
            (m for m in series.monomials() if lo <= m.support()[0] and m.support()[1] <= hi),
            key=lambda m: m.sort_key(),
        )
        series = series.add(fz.TruncatedSeries(series.alphabet, series.degree, series.window,
                                               {rng.choice(interior): 1}))
    path = os.path.join(workdir, f"series-{n}.json")
    _write(path, series.to_json_dict())

    def check_report(out):
        expect(json.loads(out)["invariant"] is ok, "check verdict differs from the library")

    argv = ["check", "--group", group.value, path, "--margin", str(margin)]
    return _cli_op("check", argv, _cli_check(0 if ok else 1, check_report),
                   {"N": series.window, "k": series.degree, "terms_in": series.num_terms})


_CLI_MIX = ((_canon_op, 40), (_stab_op, 30), (_orbit_op, 30), (_expand_op, 30),
            (_census_cli_op, 15), (_symfunc_cli_op, 15))
# series files for ``check``: ten log-spaced sizes from 10^2 to 10^4 terms
_CHECK_SIZES = tuple(round(10 ** (2 + j / 4.5)) for j in range(10))


def cli_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = [make(rng, workdir, i) for make, count in _CLI_MIX for i in range(count)]
    for n, target in enumerate(_CHECK_SIZES):
        ops.append(_check_cli_op(rng, workdir, n, GROUPS[n % len(GROUPS)], target, n % 2 == 0))
    ops.extend(_malformed_ops(rng, workdir))
    return ops


def _malformed_ops(rng, workdir) -> list[Op]:
    """One request of each malformed kind; each must exit 2 with a diagnostic."""
    group = rng.choice((F.F1, F.F3))
    window = rng.randint(2, 5)
    good = fz.elementary_sym(1, window).to_json_dict()
    files = {
        "missing-monomial": dict(good, terms=[{"coeff": "1"}] + good["terms"][1:]),
        "float-coeff": dict(good, terms=[dict(good["terms"][0], coeff=1.5)] + good["terms"][1:]),
        "float-degree": dict(good, degree=1.9),
        "bad-json": '{"alphabet": "X", "degree": 1,',
        "bad-monomial": dict(good, terms=[{"monomial": "x[1", "coeff": "1"}]),
    }
    argvs = []
    for name, payload in files.items():
        path = os.path.join(workdir, f"malformed-{name}.json")
        _write(path, payload)
        argvs.append(["check", "--group", group.value, path])
    empty = os.path.join(workdir, "malformed-empty-interior.json")
    _write(empty, {"alphabet": "X", "degree": 1, "window": 2,
                   "terms": [{"monomial": "x[0]", "coeff": "1"}]})
    argvs.append(["check", "--group", group.value, empty, "--margin", "3"])
    argvs.append(["check", "--group", group.value, os.path.join(workdir, "no-such-file.json")])
    argvs.append(["canon", "--group", group.value, f"x[{rng.randint(-5, 5)}"])
    argvs.append(["canon", "--group", "F9", "x[1]"])
    argvs.append(["expand", f"f6[({rng.randint(1, 3)}),(1);Δ=x]", "-N", "3"])
    argvs.append(["stab", "--group", rng.choice(("F6", "F7")), "1"])
    return [_cli_op("malformed", argv, _probe_check, {}, probe=True) for argv in argvs]


# ---------------------------------------------------------------- entry


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The seeded operation list of one workload, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "build":
        ops = build_ops(rng)
    elif workload == "check":
        ops = check_ops(rng)
    elif workload == "census":
        ops = census_ops(rng)
    elif workload == "cli":
        ops = cli_ops(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str, workdir: str) -> list[Op]:
    """One small fixed op of each kind the workload runs, independent of the seed."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "build":
        return [_symfunc_op("e", 2, 4), _expand_fn_op(rand_label(rng, F.F7, 2), 6),
                _multiply_pair(rng, F.F1, 1, 2, 6)] + _linear_ops(rng, F.F6, 6)
    if workload == "check":
        return _check_ops_for(rng, F.F7, 6, 1)
    if workload == "census":
        return [_enumerate_op(F.F6, 2, 2, 1), _census_op(F.F1, 2, 2, 0), _canonical_op(rng)]
    if workload == "cli":
        ops = [make(rng, workdir, 0) for make, _ in _CLI_MIX]
        ops.append(_check_cli_op(rng, workdir, "warmup", F.F7, 50, True))
        return ops + _malformed_ops(rng, workdir)[:1]
    raise ValueError(f"unknown workload {workload!r}")
