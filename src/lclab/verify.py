"""Independent oracle and structural-law harness.

The oracle rebuilds the covering complex at one multidegree at a time,
deciding which localizations are nonzero there by explicit divisibility
witnesses — deliberately not by the sign-pattern rule — so agreement
with the pattern engine is a genuine two-route check.  On top of it sit
a battery of named structural checks and a built-in corpus of worked
examples with frozen expectations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

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


def _mask_exponent_sums(generators):
    """Exponent vector of the product monomial for every generator subset."""
    g = len(generators)
    nvars = len(generators[0])
    sums = [None] * (1 << g)
    sums[0] = tuple([0] * nvars)
    for mask in range(1, 1 << g):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = sums[mask ^ low]
        sums[mask] = tuple(a + b for a, b in zip(prev, generators[j]))
    return sums


def _alive_by_divisibility(mask_sums, alpha):
    """Subsets whose localization is nonzero at α, decided by an explicit
    witness exponent: the least t ≥ 0 with α + t·e componentwise ≥ 0."""
    alive = set()
    for mask, e in enumerate(mask_sums):
        t = 0
        for a, ev in zip(alpha, e):
            if a < 0:
                if ev == 0:
                    t = None
                    break
                t = max(t, (-a + ev - 1) // ev)  # ceil(-a / ev)
        if t is None:
            continue
        if all(a + t * ev >= 0 for a, ev in zip(alpha, e)):
            alive.add(mask)
    return frozenset(alive)


def window_oracle(ideal, i, alpha):
    """Slice rank h^i at a single multidegree, from scratch.

    Uses the raw generator exponents as written (no normalization), so it
    also exercises radical invariance whenever the input is not reduced.
    """
    alpha = tuple(alpha)
    if len(alpha) != ideal.context.nvars:
        raise ValueError("multidegree length mismatch")
    mask_sums = _mask_exponent_sums(ideal.generators)
    dims = _cech_dims(_alive_by_divisibility(mask_sums, alpha), len(ideal.generators))
    return dims[i] if 0 <= i < len(dims) else 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named check: what law was tested, how it went, and on what."""

    name: str
    statement: str
    status: str  # "pass" | "fail" | "skip"
    witness: dict | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {self.status!r}")


@dataclass
class VerificationReport:
    """An ordered collection of check results with summary accessors."""

    results: list = field(default_factory=list)

    def add(self, name, statement, status, witness=None):
        self.results.append(CheckResult(name, statement, status, witness))

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


def _box(bound, nvars):
    if nvars == 0:
        yield ()
        return
    for rest in _box(bound, nvars - 1):
        for a in range(-bound, bound + 1):
            yield rest + (a,)


def oracle_compare(ideal, bound=2):
    """Compare the divisibility oracle with the pattern engine at every
    multidegree in [−bound, bound]^nvars and every index from −1 to one
    past the top, so both routes must also read 0 outside the complex."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    ctx = ideal.context
    profile = cohomology_profile(ideal)
    g_raw = len(ideal.generators)
    top = max(g_raw, profile.gen_count)
    mask_sums = _mask_exponent_sums(ideal.generators)
    mismatches = []
    for alpha in _box(bound, ctx.nvars):
        alive = _alive_by_divisibility(mask_sums, alpha)
        dims = _cech_dims(alive, g_raw)
        pattern = ctx.sign_pattern(alpha)
        for i in range(-1, top + 2):
            oracle = dims[i] if 0 <= i < len(dims) else 0
            engine = profile.h(pattern, i)
            if oracle != engine:
                mismatches.append((alpha, i, oracle, engine))

    report = VerificationReport()
    if mismatches:
        alpha, i, oracle, engine = mismatches[0]
        report.add(
            "oracle-box",
            "divisibility oracle and pattern engine agree on every window piece",
            "fail",
            _repro(
                ideal,
                alpha=list(alpha),
                i=i,
                oracle=oracle,
                engine=engine,
                mismatch_count=len(mismatches),
            ),
        )
    else:
        report.add(
            "oracle-box",
            "divisibility oracle and pattern engine agree on every window piece",
            "pass",
            {"bound": bound, "points": (2 * bound + 1) ** ctx.nvars},
        )
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
        report.add(
            "five-shapes",
            "every nonvanishing set is one of the five admissible shapes",
            "fail",
            _repro(ideal, error=str(exc)),
        )
        return {}
    report.add(
        "five-shapes",
        "every nonvanishing set is one of the five admissible shapes",
        "pass",
    )
    if shapes.get(0) is PatternShape.EMPTY:
        report.add("index-zero", "index-0 components of a proper nonzero ideal vanish", "pass")
    else:
        report.add(
            "index-zero",
            "index-0 components of a proper nonzero ideal vanish",
            "fail",
            _repro(ideal, shape=shapes[0].value),
        )
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
            if -m < n < 0 and shape is not PatternShape.ALL_Z:
                report.add(
                    "tail-rigidity",
                    "a nonzero piece strictly inside the gap forces every degree",
                    "fail",
                    _repro(ideal, i=i, n=n, shape=shape.value),
                )
                return
            if n <= -m and not all(probes[s] for s in range(-m - 7, n + 1)):
                report.add(
                    "tail-rigidity",
                    "one nonzero tail piece forces the whole tail",
                    "fail",
                    _repro(ideal, i=i, n=n),
                )
                return
            if n >= 0 and not all(probes[s] for s in range(n, 8)):
                report.add(
                    "tail-rigidity",
                    "one nonzero tail piece forces the whole tail",
                    "fail",
                    _repro(ideal, i=i, n=n),
                )
                return
    report.add(
        "tail-rigidity",
        "one nonzero tail piece forces the whole tail; gap pieces force everything",
        "pass",
    )


def _check_type2(ideal, shapes, report):
    """Nonnegative-only shapes force every generator to carry a degree-0
    variable, exhibiting the witness ideal generated by those parts."""
    norm = normalize(ideal)
    y = norm.context.y_indices
    hits = [i for i, s in shapes.items() if s is PatternShape.NONNEG_ONLY]
    if not hits:
        report.add(
            "nonneg-witness",
            "nonnegative-only components admit a degree-0 witness ideal",
            "skip",
            {"reason": "no nonnegative-only index"},
        )
        return
    bad = [s for s in norm.supports if not s & y]
    if bad:
        report.add(
            "nonneg-witness",
            "nonnegative-only components admit a degree-0 witness ideal",
            "fail",
            _repro(ideal, i=hits[0], generator_support=sorted(bad[0])),
        )
        return
    names = norm.context.names
    witness_q = sorted("*".join(names[v] for v in sorted(s & y)) for s in norm.supports)
    report.add(
        "nonneg-witness",
        "nonnegative-only components admit a degree-0 witness ideal",
        "pass",
        {"indices": hits, "witness_ideal": witness_q},
    )


def _check_hilbert(ideal, shapes, report):
    ctx = ideal.context
    if ctx.d != 0:
        report.add(
            "growth-polynomials",
            "piece dimensions follow the two validity-range polynomials exactly",
            "skip",
            {"reason": "dimensions are over the degree-0 subring when d >= 1"},
        )
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
        ok_fit = all(
            f.evaluate(n) == piece_dimension(ideal, i, n).value
            for n in range(-m - 10, -m + 1)
        ) and all(
            g.evaluate(n) == piece_dimension(ideal, i, n).value for n in range(0, 11)
        )
        if not (ok_deg and ok_fit):
            report.add(
                "growth-polynomials",
                "piece dimensions follow the two validity-range polynomials exactly",
                "fail",
                _repro(ideal, i=i, f=str(f), g=str(g)),
            )
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
            r_neg = piece_dimension(ideal, i, -m).value
            r_pos = piece_dimension(ideal, i, 0).value
            scaled = all(
                piece_dimension(ideal, i, n).value
                == r_neg * abs(binom_ext(n + m - 1, m - 1))
                for n in range(-m - 10, -m + 1)
            ) and all(
                piece_dimension(ideal, i, n).value
                == r_pos * binom_ext(n + m - 1, m - 1)
                for n in range(0, 11)
            )
            if not (sharp and scaled):
                report.add(
                    "growth-gap-form",
                    "a zero gap degree pins top-degree growth scaled by the outer dims",
                    "fail",
                    _repro(ideal, i=i, f=str(f), g=str(g)),
                )
                return
    if checked:
        report.add(
            "growth-polynomials",
            "piece dimensions follow the two validity-range polynomials exactly",
            "pass",
            {"indices": checked} if not skip_reasons else {"indices": checked, "skipped": skip_reasons},
        )
    else:
        report.add(
            "growth-polynomials",
            "piece dimensions follow the two validity-range polynomials exactly",
            "skip",
            {"skipped": skip_reasons},
        )
    if gap_checked:
        report.add(
            "growth-gap-form",
            "a zero gap degree pins top-degree growth scaled by the outer dims",
            "pass",
            {"indices": gap_checked},
        )


def _check_support(ideal, shapes, report):
    ctx = ideal.context
    if ctx.d == 0:
        report.add(
            "support-stability",
            "minimal support primes are constant along each tail",
            "skip",
            {"reason": "no degree-0 variables"},
        )
        return
    m = ctx.m
    for i in shapes:
        neg = [support_min_primes(ideal, i, -m + off) for off in _PROBE_TAILS_NEG]
        pos = [support_min_primes(ideal, i, off) for off in _PROBE_TAILS_POS]
        if any(s != neg[0] for s in neg) or any(s != pos[0] for s in pos):
            report.add(
                "support-stability",
                "minimal support primes are constant along each tail",
                "fail",
                _repro(ideal, i=i),
            )
            return
        outer = min(support_dim(ideal, i, -m), support_dim(ideal, i, 0))
        for r in range(-m + 1, 0):
            if support_dim(ideal, i, r) > outer:
                report.add(
                    "support-dim-gap",
                    "gap-degree support dimension is bounded by both tail dimensions",
                    "fail",
                    _repro(ideal, i=i, n=r),
                )
                return
    report.add(
        "support-stability",
        "minimal support primes are constant along each tail",
        "pass",
    )
    report.add(
        "support-dim-gap",
        "gap-degree support dimension is bounded by both tail dimensions",
        "pass",
    )


def _check_localization_route(ideal, report):
    """Dual route for supports: localized profiles vs the contributor rule."""
    norm = normalize(ideal)
    ctx = norm.context
    if ctx.d == 0 or ctx.d > 3:
        report.add(
            "localization-route",
            "localized profiles agree with the direct pattern restriction",
            "skip",
            {"reason": "checked for 1 <= d <= 3"},
        )
        return
    y_sorted = sorted(ctx.y_indices)
    base = cohomology_profile(norm)
    for r in range(len(y_sorted) + 1):
        for w in combinations(y_sorted, r):
            w = frozenset(w)
            localized = localize(norm, w)
            if localized is UNIT_IDEAL:
                if any(not (p & w) for p in base.patterns()):
                    report.add(
                        "localization-route",
                        "localized profiles agree with the direct pattern restriction",
                        "fail",
                        _repro(ideal, inverted=sorted(w)),
                    )
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
                    report.add(
                        "localization-route",
                        "localized profiles agree with the direct pattern restriction",
                        "fail",
                        _repro(ideal, inverted=sorted(w), pattern=sorted(pattern)),
                    )
                    return
    report.add(
        "localization-route",
        "localized profiles agree with the direct pattern restriction",
        "pass",
    )


def _check_euler(ideal, shapes, report):
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
                    report.add(
                        "euler-diagonal",
                        "the degree operator acts diagonally with exponent one",
                        "fail",
                        _repro(ideal, i=i, alpha=list(variant), error=str(exc)),
                    )
                    return
                if eig != norm.context.coarse_degree(variant) or exponent != 1:
                    report.add(
                        "euler-diagonal",
                        "the degree operator acts diagonally with exponent one",
                        "fail",
                        _repro(ideal, i=i, alpha=list(variant)),
                    )
                    return
    report.add(
        "euler-diagonal",
        "the degree operator acts diagonally with exponent one",
        "pass",
    )


_ORACLE_SUITE_MAX_NVARS = 5  # box size (2·2+1)^nvars stays around 3k points


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
    if ideal.context.nvars <= _ORACLE_SUITE_MAX_NVARS:
        report.extend(oracle_compare(ideal, 2))
    else:
        report.add(
            "oracle-box",
            "divisibility oracle and pattern engine agree on every window piece",
            "skip",
            {"reason": f"window sweep capped at {_ORACLE_SUITE_MAX_NVARS} variables"},
        )
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


@dataclass(frozen=True)
class GoldenCase:
    """A worked example with frozen expectations.

    source says where each case's numbers come from: "published-example"
    for values quoted from the worked examples this reproduces,
    "hand-derived" for values computed by hand for this corpus.
    """

    case_id: str
    ideal: MonomialIdeal
    source: str
    shapes: dict = field(default_factory=dict)  # i -> PatternShape
    nonzero: dict = field(default_factory=dict)  # (i, n) -> bool
    dims: dict = field(default_factory=dict)  # (i, n) -> DimValue (d = 0 only)
    strands: dict = field(default_factory=dict)  # (i, y_part, n) -> DimValue
    socles: dict = field(default_factory=dict)  # (i, n) -> DimValue
    min_primes: dict = field(default_factory=dict)  # (i, n) -> set of tuples
    koszul: dict = field(default_factory=dict)  # (i, kind, v, n) -> (h1, h0)


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
    ok = True
    hits = []
    for i, shape in sorted(case.shapes.items()):
        got = pattern_report(ideal, i).shape
        if got is not shape:
            ok = False
            hits.append({"kind": "shape", "i": i, "expected": shape.value, "got": got.value})
    for (i, n), expected in sorted(case.nonzero.items()):
        got = piece_nonzero(ideal, i, n)
        if got != expected:
            ok = False
            hits.append({"kind": "nonzero", "i": i, "n": n, "expected": expected, "got": got})
    for (i, n), expected in sorted(case.dims.items()):
        got = piece_dimension(ideal, i, n)
        if got != expected:
            ok = False
            hits.append({"kind": "dim", "i": i, "n": n, "expected": expected.to_json(), "got": got.to_json()})
    for (i, y_part, n), expected in sorted(case.strands.items()):
        got = strand_dimension(ideal, i, y_part, n)
        if got != expected:
            ok = False
            hits.append({"kind": "strand", "i": i, "n": n, "got": got.to_json()})
    for (i, n), expected in sorted(case.socles.items()):
        got = koszul_homology_Y(ideal, i, n) if d else None
        if got != expected:
            ok = False
            hits.append({"kind": "socle", "i": i, "n": n, "got": None if got is None else got.to_json()})
    for (i, n), expected in sorted(case.min_primes.items()):
        got = {tuple(sorted(t)) for t in support_min_primes(ideal, i, n)}
        if got != set(expected):
            ok = False
            hits.append({"kind": "min-primes", "i": i, "n": n, "got": sorted(got)})
    modules = {}  # one per index, so its crossings carry across degrees
    for (i, kind, v, n), expected in sorted(case.koszul.items()):
        if i not in modules:
            modules[i] = LocalCohomologyModule(ideal, i)
        module = modules[i]
        homology = koszul_homology_X if kind == "mult" else derham_homology
        got = homology(module, v, n)
        if got != expected:
            ok = False
            hits.append(
                {
                    "kind": "koszul",
                    "i": i,
                    "op": kind,
                    "n": n,
                    "got": [got[0].to_json(), got[1].to_json()],
                }
            )
    report.add(
        f"golden:{case.case_id}",
        f"frozen expectations of the {case.source} case hold exactly",
        "pass" if ok else "fail",
        None if ok else _repro(ideal, mismatches=hits),
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
