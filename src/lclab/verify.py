"""Independent oracle and structural-law harness.

The oracle rebuilds the generator-side Čech complex at one multidegree
at a time, on the raw generators as written, and the pattern engine
builds variable-side link complexes on the normalized supports: the two
routes share no complex, so their agreement is a genuine two-route
check.  The oracle decides survival by divisibility: a generator
subset's localization is nonzero at α exactly when its product exponent
is positive on every negative coordinate of α.  So an alive family, an
int bitset over generator subsets, is one AND of per-variable positive
rows per negative coordinate, and the box sweep decides each set of
negative coordinates once, weighed by the number of box points sharing
it.  Between points only those rows and the rank cache keyed by the
alive family are carried.  On top of it sit a battery of named
structural checks and a built-in corpus of worked examples with frozen
expectations.  Each check's law is stated once, in the table
``_LAWS`` keyed by check name, and every pass, fail and skip record of
the check reads its statement there.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations, product

from .exactlin import binom_ext
from .monocech import (
    INFINITE,
    UNIT_IDEAL,
    DimValue,
    InfiniteDimsError,
    MonomialIdeal,
    PatternShape,
    ShapeViolationError,
    VariableContext,
    cohomology_profile,
    hilbert_pair,
    localize,
    normalize,
    pattern_report,
    piece_dimension,
    piece_nonzero,
    strand_dimension,
    support_dim,
    support_min_primes,
)
from .monocech import _cech_dims
from .weylact import (
    LocalCohomologyModule,
    NotEulerianError,
    derham_homology,
    euler_eigencheck,
    gen_eulerian_exponent,
    koszul_homology_X,
    koszul_homology_Y,
)


# ---------------------------------------------------------------------------
# the window oracle
# ---------------------------------------------------------------------------


def _positive_rows(generators):
    """Per-variable survival rows over every generator subset, with no bound.

    Bit σ of ``rows[v]`` is set when the product x^e of subset σ, read off
    the raw exponents as written, has e_v > 0, that is, when some generator
    in σ has a positive exponent at v; ``full`` has every bit set.  A row is
    built by doubling over the generators: a σ whose highest generator is j
    is σ' + 2^j for some σ' < 2^j, and it is in the row when generator j is
    positive at v, or else when σ' is.
    """
    rows = []
    for v in range(len(generators[0])):
        row = 0
        for j, gen in enumerate(generators):
            width = 1 << j
            row |= (((1 << width) - 1) if gen[v] > 0 else row) << width
        rows.append(row)
    return (1 << (1 << len(generators))) - 1, rows


def _alive_by_divisibility(rows, alpha):
    """Alive family at α: bit σ is set when σ's localization is nonzero there.

    For the product monomial x^e of a subset, the localization at x^e is
    nonzero at α exactly when some power x^{t·e} lifts α into the
    nonnegative orthant.  Exponents are nonnegative, so a coordinate with
    α_v ≥ 0 always passes, and one with α_v < 0 is cleared by a large
    enough t exactly when e_v > 0.  So the alive family is the AND of the
    positive rows over α's negative coordinates, for every subset at once.
    """
    alive, positive = rows
    for v, a in enumerate(alpha):
        if a < 0:
            alive &= positive[v]
    return alive


def window_oracle(ideal, i, alpha):
    """Slice rank h^i at a single multidegree, from scratch.

    Uses the raw generator exponents as written (no normalization), so it
    also exercises radical invariance whenever the input is not reduced.
    The rows have no bound, so a far point costs what a near one does.
    """
    alpha = tuple(alpha)
    if len(alpha) != ideal.context.nvars:
        raise ValueError("multidegree length mismatch")
    rows = _positive_rows(ideal.generators)
    dims = _cech_dims(_alive_by_divisibility(rows, alpha), len(ideal.generators))
    return dims[i] if 0 <= i < len(dims) else 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


# tail rigidity fails under one of two narrower laws
_TAIL_LAW = "one nonzero tail piece forces the whole tail"
_GAP_LAW = "a nonzero piece strictly inside the gap forces every degree"
_LAWS = {
    "five-shapes": "every nonvanishing set is one of the five admissible shapes",
    "index-zero": "index-0 components of a proper nonzero ideal vanish",
    "tail-rigidity": "one nonzero tail piece forces the whole tail; gap pieces force everything",
    "nonneg-witness": "nonnegative-only components admit a degree-0 witness ideal",
    "growth-polynomials": "piece dimensions follow the two validity-range polynomials exactly",
    "growth-gap-form": "a zero gap degree pins top-degree growth scaled by the outer dims",
    "support-stability": "minimal support primes are constant along each tail",
    "support-dim-gap": "gap-degree support dimension is bounded by both tail dimensions",
    "localization-route": "localized profiles agree with the direct pattern restriction",
    "euler-diagonal": "the degree operator acts diagonally with exponent one",
    "oracle-box": "divisibility oracle and pattern engine agree on every window piece",
}


class CheckResult(namedtuple("CheckResult", "name statement status witness")):
    """One named check: what law was tested, how it went ("pass", "fail" or
    "skip"), and on what (a witness dict, or None); an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, name, statement, status, witness=None):
        if status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {status!r}")
        return super().__new__(cls, name, statement, status, witness)


class VerificationReport:
    """An ordered collection of check results with summary accessors."""

    def __init__(self):
        self.results = []

    def add(self, name, statement, status, witness=None):
        self.results.append(CheckResult(name, statement, status, witness))

    def record(self, name, status, witness=None, law=None):
        """Add a result of the named check, stated by its law in the table
        unless a narrower law is given."""
        self.add(name, law or _LAWS[name], status, witness)

    def extend(self, other):
        self.results.extend(other.results)

    @property
    def failures(self):
        return [r for r in self.results if r.status == "fail"]

    @property
    def passed(self):
        return not self.failures

    def counts(self):
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_json(self):
        return {
            "passed": self.passed,
            "counts": self.counts(),
            "checks": [
                {
                    "name": r.name,
                    "statement": r.statement,
                    "status": r.status,
                    **({"witness": r.witness} if r.witness is not None else {}),
                }
                for r in self.results
            ],
        }


def _repro(ideal, **extra):
    block = {"ideal": ideal.spec_dict()}
    block.update(extra)
    return block


# ---------------------------------------------------------------------------
# oracle vs engine over a box
# ---------------------------------------------------------------------------


def oracle_compare(ideal, bound=2):
    """Compare the divisibility oracle with the pattern engine at every
    multidegree in [−bound, bound]^nvars and every index from −1 to one
    past the top, so both routes must also read 0 outside the complex.

    Both routes read only which coordinates of a point are negative: the
    oracle ANDs the positive rows of those coordinates and the engine
    looks up the pattern they form.  So each set S of negative coordinates
    is decided once, at its point with −bound on S and 0 elsewhere, and a
    mismatch there weighs the bound^|S|·(bound+1)^(nvars−|S|) points of
    the box that share S: 2^nvars points decide the box.  That point is
    S's first in box order, and the points come in box order, so the count
    and the first witness are those of a walk over every point.  The two
    rank vectors are compared once per set, the engine's padded with
    zeros to the oracle's length; only where they differ are the indices
    walked to count and locate the mismatches."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    nvars = ideal.context.nvars
    profile = cohomology_profile(ideal)
    g_raw = len(ideal.generators)
    top = max(g_raw, profile.gen_count)
    rows = _positive_rows(ideal.generators)
    zeros = (0,) * (g_raw + 1)
    engine = {
        sum(1 << v for v in pattern): ranks + zeros[len(ranks) :]
        for pattern, ranks in profile.by_pattern.items()
    }
    mismatch_count, first = 0, None
    for alpha in product((-bound, 0), repeat=nvars):
        dims = _cech_dims(_alive_by_divisibility(rows, alpha), g_raw)
        ranks = engine.get(sum(1 << v for v, a in enumerate(alpha) if a), zeros)
        if dims == ranks:
            continue
        zero = alpha.count(0)
        weight = bound ** (nvars - zero) * (bound + 1) ** zero
        for i in range(-1, top + 2):
            oracle = dims[i] if 0 <= i < len(dims) else 0
            other = ranks[i] if 0 <= i < len(ranks) else 0
            if oracle != other:
                mismatch_count += weight
                if first is None:
                    first = (alpha, i, oracle, other)

    report = VerificationReport()
    if mismatch_count:
        alpha, i, oracle, other = first
        witness = _repro(
            ideal, alpha=list(alpha), i=i, oracle=oracle, engine=other, mismatch_count=mismatch_count
        )
        report.record("oracle-box", "fail", witness)
    else:
        witness = {"bound": bound, "points": (2 * bound + 1) ** nvars}
        report.record("oracle-box", "pass", witness)
    return report


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

_PROBE_TAILS_NEG = (0, -1, -3, -5, -7)  # offsets below -m
_PROBE_TAILS_POS = (0, 1, 3, 5, 7)


def _check_shapes(ideal, report):
    g = len(normalize(ideal).supports)
    try:
        shapes = {i: pattern_report(ideal, i).shape for i in range(g + 2)}
    except ShapeViolationError as exc:
        report.record("five-shapes", "fail", _repro(ideal, error=str(exc)))
        return {}
    report.record("five-shapes", "pass")
    if shapes.get(0) is PatternShape.EMPTY:
        report.record("index-zero", "pass")
    else:
        report.record("index-zero", "fail", _repro(ideal, shape=shapes[0].value))
    return shapes


def _check_tails(ideal, shapes, report):
    """Pointwise tail rigidity: one nonzero piece in a tail (or the gap)
    forces the whole tail (or everything)."""
    m = ideal.context.m
    for i, shape in shapes.items():
        probes = {n: piece_nonzero(ideal, i, n) for n in range(-m - 7, 8)}
        for n, nz in probes.items():
            if not nz:
                continue
            if -m < n < 0:
                if shape is not PatternShape.ALL_Z:
                    witness = _repro(ideal, i=i, n=n, shape=shape.value)
                    report.record("tail-rigidity", "fail", witness, _GAP_LAW)
                    return
                continue
            tail = range(-m - 7, n + 1) if n <= -m else range(n, 8)
            if not all(probes[s] for s in tail):
                report.record("tail-rigidity", "fail", _repro(ideal, i=i, n=n), _TAIL_LAW)
                return
    report.record("tail-rigidity", "pass")


def _check_type2(ideal, shapes, report):
    """Nonnegative-only shapes force every generator to carry a degree-0
    variable, exhibiting the witness ideal generated by those parts."""
    norm = normalize(ideal)
    y = norm.context.y_indices
    hits = [i for i, s in shapes.items() if s is PatternShape.NONNEG_ONLY]
    if not hits:
        report.record("nonneg-witness", "skip", {"reason": "no nonnegative-only index"})
        return
    bad = [s for s in norm.supports if not s & y]
    if bad:
        witness = _repro(ideal, i=hits[0], generator_support=sorted(bad[0]))
        report.record("nonneg-witness", "fail", witness)
        return
    names = norm.context.names
    witness_q = sorted("*".join(names[v] for v in sorted(s & y)) for s in norm.supports)
    report.record("nonneg-witness", "pass", {"indices": hits, "witness_ideal": witness_q})


def _check_hilbert(ideal, shapes, report):
    ctx = ideal.context
    if ctx.d != 0:
        reason = "dimensions are over the degree-0 subring when d >= 1"
        report.record("growth-polynomials", "skip", {"reason": reason})
        return
    m = ctx.m
    checked = 0
    gap_checked = 0
    skip_reasons = []
    for i in shapes:
        try:
            f, g = hilbert_pair(ideal, i)
        except InfiniteDimsError as exc:
            skip_reasons.append({"i": i, "reason": str(exc)})
            continue
        checked += 1
        ok_deg = (f.degree is None or f.degree <= m - 1) and (
            g.degree is None or g.degree <= m - 1
        )
        # the tail dimensions both checks read: n = -m-10..-m and 0..10
        neg_tail, pos_tail = range(-m - 10, -m + 1), range(0, 11)
        dims = {n: piece_dimension(ideal, i, n).value for n in (*neg_tail, *pos_tail)}
        ok_fit = all(f.evaluate(n) == dims[n] for n in neg_tail) and all(
            g.evaluate(n) == dims[n] for n in pos_tail
        )
        if not (ok_deg and ok_fit):
            report.record("growth-polynomials", "fail", _repro(ideal, i=i, f=str(f), g=str(g)))
            return
        if shapes[i] is not PatternShape.EMPTY and any(
            not piece_nonzero(ideal, i, r) for r in range(-m + 1, 0)
        ):
            # a zero gap degree in a nonzero module pins the sharp form:
            # each polynomial is zero or of top degree, and the tail dims
            # are the appropriate outer dimension times a binomial
            gap_checked += 1
            sharp = (f.is_zero() or f.degree == m - 1) and (
                g.is_zero() or g.degree == m - 1
            )
            scaled = all(
                dims[n] == dims[-m] * abs(binom_ext(n + m - 1, m - 1)) for n in neg_tail
            ) and all(dims[n] == dims[0] * binom_ext(n + m - 1, m - 1) for n in pos_tail)
            if not (sharp and scaled):
                report.record("growth-gap-form", "fail", _repro(ideal, i=i, f=str(f), g=str(g)))
                return
    if checked:
        witness = {"indices": checked, **({"skipped": skip_reasons} if skip_reasons else {})}
        report.record("growth-polynomials", "pass", witness)
    else:
        report.record("growth-polynomials", "skip", {"skipped": skip_reasons})
    if gap_checked:
        report.record("growth-gap-form", "pass", {"indices": gap_checked})


def _check_support(ideal, shapes, report):
    ctx = ideal.context
    if ctx.d == 0:
        report.record("support-stability", "skip", {"reason": "no degree-0 variables"})
        return
    m = ctx.m
    for i in shapes:
        neg = [support_min_primes(ideal, i, -m + off) for off in _PROBE_TAILS_NEG]
        pos = [support_min_primes(ideal, i, off) for off in _PROBE_TAILS_POS]
        if any(s != neg[0] for s in neg) or any(s != pos[0] for s in pos):
            report.record("support-stability", "fail", _repro(ideal, i=i))
            return
        outer = min(support_dim(ideal, i, -m), support_dim(ideal, i, 0))
        for r in range(-m + 1, 0):
            if support_dim(ideal, i, r) > outer:
                report.record("support-dim-gap", "fail", _repro(ideal, i=i, n=r))
                return
    report.record("support-stability", "pass")
    report.record("support-dim-gap", "pass")


def _check_localization_route(ideal, report):
    """Dual route for supports: localized profiles vs the contributor rule."""
    norm = normalize(ideal)
    ctx = norm.context
    if ctx.d == 0 or ctx.d > 3:
        report.record("localization-route", "skip", {"reason": "checked for 1 <= d <= 3"})
        return
    y_sorted = sorted(ctx.y_indices)
    base = cohomology_profile(norm)
    for r in range(len(y_sorted) + 1):
        for w in combinations(y_sorted, r):
            w = frozenset(w)
            localized = localize(norm, w)
            if localized is UNIT_IDEAL:
                if any(not (p & w) for p in base.patterns()):
                    report.record("localization-route", "fail", _repro(ideal, inverted=sorted(w)))
                    return
                continue
            loc = cohomology_profile(localized)
            for pattern in set(base.patterns()) | set(loc.patterns()):
                if pattern & w:
                    ok = pattern not in loc.by_pattern
                else:
                    ok = all(
                        base.h(pattern, i) == loc.h(pattern, i)
                        for i in range(max(base.gen_count, loc.gen_count) + 1)
                    )
                if not ok:
                    witness = _repro(ideal, inverted=sorted(w), pattern=sorted(pattern))
                    report.record("localization-route", "fail", witness)
                    return
    report.record("localization-route", "pass")


def _check_euler(ideal, shapes, report):
    """The degree operator Σ X_v ∂_v on two multidegrees of each pattern
    must act as the coarse degree, with Eulerian exponent one.

    It reads only off-wall transitions: a term with a nonzero derivative
    needs α_v ≠ 0, so its multiplication back starts at α_v − 1 ≠ −1 and
    never crosses the wall.  The check therefore re-adds the coarse
    degree and cannot see a fault in a wall crossing; reaching a wall
    would raise ValueError and be recorded as a fail."""
    norm = normalize(ideal)
    nvars = norm.context.nvars
    for i, shape in shapes.items():
        if shape is PatternShape.EMPTY:
            continue
        module = LocalCohomologyModule(norm, i)
        for pattern in module.patterns():
            for variant in (
                tuple(-1 if v in pattern else 0 for v in range(nvars)),
                tuple(-2 if v in pattern else 1 for v in range(nvars)),
            ):
                try:
                    eig = euler_eigencheck(module, variant)
                    exponent = gen_eulerian_exponent(module, variant)
                except (NotEulerianError, ValueError) as exc:
                    error = {"error": str(exc)}
                else:
                    if eig == norm.context.coarse_degree(variant) and exponent == 1:
                        continue
                    error = {}
                witness = _repro(ideal, i=i, alpha=list(variant), **error)
                report.record("euler-diagonal", "fail", witness)
                return
    report.record("euler-diagonal", "pass")


# the sweep decides 2^nvars sets of negative coordinates, 32 at five, and
# each builds a Čech complex with one cell per raw generator subset
_ORACLE_SUITE_MAX_NVARS = 5
_ORACLE_SUITE_MAX_GENERATORS = 10


def theorem_suite(ideal):
    """Run every structural check on one ideal; failures carry a
    machine-readable reproduction block, never an exception."""
    report = VerificationReport()
    shapes = _check_shapes(ideal, report)
    if not shapes:
        return report
    _check_tails(ideal, shapes, report)
    _check_type2(ideal, shapes, report)
    _check_hilbert(ideal, shapes, report)
    _check_support(ideal, shapes, report)
    _check_localization_route(ideal, report)
    _check_euler(ideal, shapes, report)
    if ideal.context.nvars > _ORACLE_SUITE_MAX_NVARS:
        reason = f"window sweep capped at {_ORACLE_SUITE_MAX_NVARS} variables"
        report.record("oracle-box", "skip", {"reason": reason})
    elif len(ideal.generators) > _ORACLE_SUITE_MAX_GENERATORS:
        reason = f"window sweep capped at {_ORACLE_SUITE_MAX_GENERATORS} raw generators"
        report.record("oracle-box", "skip", {"reason": reason})
    else:
        report.extend(oracle_compare(ideal, 2))
    return report


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_ideal(seed, d, m, gen_count, max_support=None):
    """Deterministic pseudo-random squarefree ideal; stable across runs."""
    if m < 1:
        raise ValueError("need m >= 1")
    nvars = d + m
    if max_support is None:
        max_support = nvars
    max_support = min(max_support, nvars)
    rng = random.Random(f"lclab:{seed}:{d}:{m}:{gen_count}:{max_support}")
    ctx = VariableContext(
        tuple(f"Y{j}" for j in range(1, d + 1)),
        tuple(f"X{j}" for j in range(1, m + 1)),
    )
    gens = []
    for _ in range(gen_count):
        size = rng.randint(1, max_support)
        support = rng.sample(range(nvars), size)
        gens.append(tuple(1 if v in support else 0 for v in range(nvars)))
    return MonomialIdeal(ctx, gens)


def exhaustive_ideals(max_nvars=4):
    """Every normalized squarefree ideal on up to max_nvars variables,
    over every (d, m) split with m ≥ 1: all antichains of nonempty
    supports, one normalized representative each."""
    for nvars in range(1, max_nvars + 1):
        subsets = [frozenset(s) for r in range(1, nvars + 1) for s in combinations(range(nvars), r)]
        families = []
        for mask in range(1, 1 << len(subsets)):
            family = [subsets[j] for j in range(len(subsets)) if mask >> j & 1]
            if any(a < b for a in family for b in family):
                continue
            families.append(family)
        for d in range(0, nvars):
            m = nvars - d
            ctx = VariableContext(
                tuple(f"Y{j}" for j in range(1, d + 1)),
                tuple(f"X{j}" for j in range(1, m + 1)),
            )
            for family in families:
                gens = [
                    tuple(1 if v in s else 0 for v in range(nvars)) for s in family
                ]
                yield MonomialIdeal(ctx, gens)


def random_battery(count=1000, seed=20260823, max_nvars=7):
    """Seed-stable stream of random ideals with d + m ≤ max_nvars."""
    rng = random.Random(f"lclab-battery:{seed}")
    for t in range(count):
        nvars = rng.randint(2, max_nvars)
        m = rng.randint(1, nvars)
        d = nvars - m
        gen_count = rng.randint(1, min(5, 2 ** (nvars - 1)))
        yield random_ideal(f"{seed}-{t}", d, m, gen_count, max_support=nvars)


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------


class GoldenCase(
    namedtuple("GoldenCase", "case_id ideal source shapes nonzero dims strands socles min_primes koszul")
):
    """A worked example with frozen expectations, as an immutable named tuple.

    source says where each case's numbers come from: "published-example"
    for values quoted from the worked examples this reproduces,
    "hand-derived" for values computed by hand for this corpus.  Each
    expectation left out is a fresh empty dict:

        shapes       i -> PatternShape
        nonzero      (i, n) -> bool
        dims         (i, n) -> DimValue (d = 0 only)
        strands      (i, y_part, n) -> DimValue
        socles       (i, n) -> DimValue
        min_primes   (i, n) -> set of tuples
        koszul       (i, kind, v, n) -> (h1, h0)
    """

    __slots__ = ()

    def __new__(cls, case_id, ideal, source, **expectations):
        kinds = cls._fields[3:]
        unknown = expectations.keys() - set(kinds)
        if unknown:
            raise TypeError(f"unknown expectations: {', '.join(sorted(unknown))}")
        return super().__new__(cls, case_id, ideal, source, *(expectations.get(k, {}) for k in kinds))


def golden_corpus():
    cases = []

    for m in range(1, 5):
        ctx = VariableContext((), tuple(f"X{j}" for j in range(1, m + 1)))
        gens = [tuple(1 if t == s else 0 for t in range(m)) for s in range(m)]
        shapes = {i: PatternShape.EMPTY for i in range(m)}
        shapes[m] = PatternShape.NEG_TAIL_ONLY
        koszul = {}
        if m == 1:
            # the one-variable top module: multiplication homology lives
            # only at degree 0, derivative homology only at degree -1
            koszul = {
                (1, "mult", 0, 0): (DimValue(1), DimValue(0)),
                (1, "mult", 0, 1): (DimValue(0), DimValue(0)),
                (1, "mult", 0, -1): (DimValue(0), DimValue(0)),
                (1, "derham", 0, -1): (DimValue(0), DimValue(1)),
                (1, "derham", 0, 0): (DimValue(0), DimValue(0)),
                (1, "derham", 0, -2): (DimValue(0), DimValue(0)),
            }
        cases.append(
            GoldenCase(
                case_id=f"maximal-x-m{m}",
                ideal=MonomialIdeal(ctx, gens),
                source="published-example",
                shapes=shapes,
                nonzero={(m, -m): True, (m, -m + 1): False, (m, 0): False},
                dims={
                    (m, -m): DimValue(1),
                    (m, -m - 1): DimValue(m),
                    (m, -m + 1): DimValue(0),
                },
                koszul=koszul,
            )
        )

    ctx_y = VariableContext(("Y1",), ("X1",))
    cases.append(
        GoldenCase(
            case_id="y-plane",
            ideal=MonomialIdeal(ctx_y, [(1, 0)]),
            source="published-example",
            shapes={1: PatternShape.NONNEG_ONLY, 2: PatternShape.EMPTY},
            nonzero={(1, 0): True, (1, 3): True, (1, -1): False},
            strands={
                (1, (-1,), 3): DimValue(1),
                (1, (-1,), 0): DimValue(1),
                (1, (0,), 2): DimValue(0),
            },
            socles={(1, n): DimValue(1) for n in range(0, 11)}
            | {(1, n): DimValue(0) for n in range(-10, 0)},
            min_primes={(1, 0): {(0,)}, (1, 2): {(0,)}},
        )
    )

    ctx_y2 = VariableContext(("Y1", "Y2"), ("X1",))
    cases.append(
        GoldenCase(
            case_id="y-hyperplane-d2",
            ideal=MonomialIdeal(ctx_y2, [(1, 0, 0)]),
            source="hand-derived",
            shapes={1: PatternShape.NONNEG_ONLY},
            nonzero={(1, 0): True, (1, -1): False},
            strands={
                (1, (-1, 0), 1): DimValue(1),
                (1, (-1, 5), 2): DimValue(1),
                (1, (-1, -3), 1): DimValue(0),
            },
            min_primes={(1, 0): {(0,)}},
        )
    )

    cases.append(
        GoldenCase(
            case_id="mixed-pinch",
            ideal=MonomialIdeal(ctx_y2, [(1, 1, 0), (1, 0, 1)]),
            source="published-example",
            shapes={1: PatternShape.NONNEG_ONLY, 2: PatternShape.NEG_TAIL_ONLY},
            nonzero={(1, 0): True, (1, -1): False, (2, -1): True, (2, 0): False},
            strands={
                (1, (-1, 0), 0): DimValue(1),
                (2, (-1, -1), -1): DimValue(1),
                (2, (0, -1), -1): DimValue(1),
                (1, (-1, -1), 0): DimValue(0),
            },
            socles={(i, n): DimValue(0) for i in (1, 2) for n in (-2, -1, 0, 1)},
            min_primes={(1, 0): {(0,)}, (2, -1): {(1,)}},
        )
    )

    ctx_2x = VariableContext((), ("X1", "X2"))
    cases.append(
        GoldenCase(
            case_id="free-line-m2",
            ideal=MonomialIdeal(ctx_2x, [(1, 0)]),
            source="published-example",
            shapes={1: PatternShape.ALL_Z},
            nonzero={(1, 0): True, (1, -1): True, (1, 5): True},
            dims={(1, n): INFINITE for n in (-3, 0, 5)},
        )
    )

    ctx_22 = VariableContext(("Y1", "Y2"), ("X1", "X2"))
    cases.append(
        GoldenCase(
            case_id="cross-tails",
            ideal=MonomialIdeal(
                ctx_22, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
            ),
            source="hand-derived",
            shapes={2: PatternShape.TWO_TAILS, 3: PatternShape.NEG_TAIL_ONLY},
            nonzero={(2, -2): True, (2, 0): True, (2, -1): False},
            min_primes={(2, 0): {(0, 1)}, (2, -2): {()}},
        )
    )

    return sorted(cases, key=lambda c: c.case_id)


def run_golden_case(case):
    """Check one corpus case's frozen expectations plus the oracle box."""
    report = VerificationReport()
    ideal = case.ideal
    d = ideal.context.d
    hits = []

    def hit(kind, expected, got, **key):
        hits.append({"kind": kind, **key, "expected": expected, "got": got})

    for i, shape in sorted(case.shapes.items()):
        got = pattern_report(ideal, i).shape
        if got is not shape:
            hit("shape", shape.value, got.value, i=i)
    for (i, n), expected in sorted(case.nonzero.items()):
        got = piece_nonzero(ideal, i, n)
        if got != expected:
            hit("nonzero", expected, got, i=i, n=n)
    for (i, n), expected in sorted(case.dims.items()):
        got = piece_dimension(ideal, i, n)
        if got != expected:
            hit("dim", expected.to_json(), got.to_json(), i=i, n=n)
    for (i, y_part, n), expected in sorted(case.strands.items()):
        got = strand_dimension(ideal, i, y_part, n)
        if got != expected:
            hit("strand", expected.to_json(), got.to_json(), i=i, y_part=list(y_part), n=n)
    for (i, n), expected in sorted(case.socles.items()):
        got = koszul_homology_Y(ideal, i, n) if d else None
        if got != expected:
            hit("socle", expected.to_json(), None if got is None else got.to_json(), i=i, n=n)
    for (i, n), expected in sorted(case.min_primes.items()):
        got = {tuple(sorted(t)) for t in support_min_primes(ideal, i, n)}
        if got != set(expected):
            hit("min-primes", sorted(expected), sorted(got), i=i, n=n)
    for (i, kind, v, n), expected in sorted(case.koszul.items()):
        homology = koszul_homology_X if kind == "mult" else derham_homology
        got = homology(LocalCohomologyModule(ideal, i), v, n)
        if got != expected:
            hit("koszul", [h.to_json() for h in expected], [h.to_json() for h in got], i=i, op=kind, v=v, n=n)
    report.add(
        f"golden:{case.case_id}",
        f"frozen expectations of the {case.source} case hold exactly",
        "fail" if hits else "pass",
        _repro(ideal, mismatches=hits) if hits else None,
    )
    report.extend(oracle_compare(ideal, 2))
    return report


def run_corpus():
    """All corpus cases plus the full structural suite on each."""
    report = VerificationReport()
    for case in golden_corpus():
        report.extend(run_golden_case(case))
        report.extend(theorem_suite(case.ideal))
    return report
