"""Oracle-vs-engine agreement, the structural-law suite, and the corpus."""

import hashlib
import json
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import verify
from lclab.exactlin import IntegerPolynomial
from lclab.monocech import (
    UNIT_IDEAL,
    CohomologyProfile,
    DimValue,
    MonomialIdeal,
    PatternShape,
    ShapeViolationError,
    VariableContext,
    pattern_report,
)
from lclab.monocech import _cech_dims
from lclab.weylact import NotEulerianError
from lclab.verify import (
    CheckResult,
    VerificationReport,
    exhaustive_ideals,
    golden_corpus,
    oracle_compare,
    random_battery,
    random_ideal,
    run_corpus,
    run_golden_case,
    theorem_suite,
    window_oracle,
)

CTX_X2 = VariableContext((), ("X1", "X2"))
MAXX2 = MonomialIdeal(CTX_X2, [(1, 0), (0, 1)])
CTX_MIXED = VariableContext(("Y1", "Y2"), ("X1",))
MIXED = MonomialIdeal(CTX_MIXED, [(1, 1, 0), (1, 0, 1)])


# ---------------------------------------------------------------------------
# window oracle
# ---------------------------------------------------------------------------


def test_window_oracle_frozen_values():
    assert window_oracle(MAXX2, 2, (-1, -1)) == 1
    assert window_oracle(MAXX2, 2, (0, -2)) == 0
    assert window_oracle(MAXX2, 1, (-1, -1)) == 0
    assert window_oracle(MAXX2, 0, (3, 1)) == 0
    assert window_oracle(MIXED, 1, (-1, 0, 0)) == 1
    assert window_oracle(MIXED, 1, (-1, 0, -1)) == 0
    assert window_oracle(MIXED, 2, (2, -1, -1)) == 1


def test_window_oracle_is_zero_at_negative_indices():
    assert window_oracle(MAXX2, -1, (-1, -1)) == 0
    assert window_oracle(MAXX2, -3, (-1, -1)) == 0
    assert window_oracle(MIXED, -1, (2, -1, -1)) == 0


def test_window_oracle_rejects_wrong_length():
    with pytest.raises(ValueError):
        window_oracle(MAXX2, 1, (0, 0, 0))


def test_window_oracle_sees_through_exponents():
    # raw exponents > 1 shift where the witness power kicks in, but the
    # alive/dead answer only depends on the supports
    fat = MonomialIdeal(CTX_X2, [(3, 0), (0, 2)])
    for alpha in [(-1, -1), (-5, -1), (0, -2), (2, 3), (-4, 0)]:
        for i in range(3):
            assert window_oracle(fat, i, alpha) == window_oracle(MAXX2, i, alpha)


def test_window_oracle_ignores_redundant_generators():
    # an extra generator divisible by another changes the raw complex but
    # not the answer
    padded = MonomialIdeal(CTX_MIXED, [(1, 1, 0), (1, 0, 1), (2, 1, 1)])
    for alpha in [(-1, 0, 0), (-1, -1, -1), (0, -1, -1), (1, 1, 1), (-2, 0, -3)]:
        for i in range(4):
            assert window_oracle(padded, i, alpha) == window_oracle(MIXED, i, alpha)


def test_window_oracle_far_point_builds_only_its_rows():
    # on the 4-cycle edge ideal; the positive rows have no bound, so a point
    # 2,000 out builds the same four 16-bit rows as a point next to the origin
    ctx = VariableContext((), ("X1", "X2", "X3", "X4"))
    cycle = MonomialIdeal(ctx, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
    profile = verify.cohomology_profile(cycle)
    # the second point's pattern {X1, X3} has h^2 = 1, so one answer is nonzero
    points = [(-2000, -1, 0, 0), (-2000, 0, -1, 0)]
    expected = [profile.h(ctx.sign_pattern(a), i) for a in points for i in range(5)]
    tracemalloc.start()
    try:
        got = [window_oracle(cycle, i, a) for a in points for i in range(5)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected and any(expected)
    assert peak < 20 * 2**20


def test_oracle_compare_passes_on_raw_nonreduced_input():
    report = oracle_compare(MonomialIdeal(CTX_MIXED, [(2, 3, 0), (1, 0, 2), (3, 3, 2)]))
    assert report.passed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 2), st.integers(1, 3))
def test_oracle_matches_engine_on_random_ideals(seed, d, m, gens):
    assert oracle_compare(random_ideal(seed, d, m, gens)).passed


@st.composite
def raw_exponents_and_alpha(draw):
    nvars = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).filter(any)
    generators = draw(st.lists(vectors, min_size=1, max_size=4))
    alpha = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
    return generators, tuple(alpha)


def _witness_search(generators, alpha):
    """The alive family at α by a literal search for a power t ≤ max|α_v|
    with α + t·e ≥ 0, over every generator subset's exponent sum e."""
    bound = max(map(abs, alpha), default=0)
    alive = 0
    for mask in range(1 << len(generators)):
        e = [sum(g[v] for j, g in enumerate(generators) if mask >> j & 1) for v in range(len(alpha))]
        if any(all(a + t * ev >= 0 for a, ev in zip(alpha, e)) for t in range(bound + 1)):
            alive |= 1 << mask
    return alive


@settings(max_examples=300, deadline=None)
@given(raw_exponents_and_alpha())
def test_alive_by_divisibility_matches_witness_search(case):
    generators, alpha = case
    expected = _witness_search(generators, alpha)
    rows = verify._positive_rows(generators)
    assert verify._alive_by_divisibility(rows, alpha) == expected


def _raw_generator_lists(count, seed):
    """Generator exponent vectors as written, up to four variables and
    exponent 3; most are not squarefree and many carry redundant
    generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4))]
        if all(any(g) for g in gens):
            out.append(gens)
    return out


def test_alive_family_ignores_nonnegative_coordinates():
    # the oracle sweep decides each set of negative coordinates once, at a
    # point with the others set to 0
    raw = _raw_generator_lists(60, seed=3)
    assert sum(max(map(max, gens)) > 1 for gens in raw) > len(raw) // 2
    for generators in [ideal.generators for ideal in exhaustive_ideals(3)] + raw:
        rows = verify._positive_rows(generators)
        for alpha in product(range(-2, 3), repeat=len(generators[0])):
            clipped = tuple(min(a, 0) for a in alpha)
            assert verify._alive_by_divisibility(rows, alpha) == verify._alive_by_divisibility(
                rows, clipped
            ), (generators, alpha)


def test_oracle_compare_reports_a_rank_off_by_one(monkeypatch):
    real = verify.cohomology_profile(MIXED)
    pattern, dims = next(iter(real.by_pattern.items()))
    i = next(t for t, h in enumerate(dims) if h)
    broken = CohomologyProfile(
        real.ideal,
        real.gen_count,
        {**real.by_pattern, pattern: dims[:i] + (dims[i] + 1,) + dims[i + 1 :]},
    )
    monkeypatch.setattr(verify, "cohomology_profile", lambda ideal: broken)
    report = oracle_compare(MIXED)
    [result] = report.results
    assert result.name == "oracle-box" and result.status == "fail"
    witness = result.witness
    assert MIXED.context.sign_pattern(witness["alpha"]) == pattern
    assert witness["i"] == i
    assert (witness["oracle"], witness["engine"]) == (dims[i], dims[i] + 1)
    # every box point with the broken pattern disagrees once, at index i
    points = 1
    for v in range(MIXED.context.nvars):
        points *= 2 if v in pattern else 3
    assert witness["mismatch_count"] == points


def _rank_plus_one(by_pattern, nvars, top):
    pattern, dims = next(iter(by_pattern.items()))
    i = next(t for t, h in enumerate(dims) if h)
    return {**by_pattern, pattern: dims[:i] + (dims[i] + 1,) + dims[i + 1 :]}


def _extra_pattern(by_pattern, nvars, top):
    # a pattern the engine reads as zero, made nonzero at index 0 and one
    # past the top; the empty pattern only when every other one is taken
    pattern = next(
        frozenset(c)
        for r in (*range(1, nvars + 1), 0)
        for c in combinations(range(nvars), r)
        if frozenset(c) not in by_pattern
    )
    return {**by_pattern, pattern: (1,) + (0,) * top + (1,)}


def _dropped_pattern(by_pattern, nvars, top):
    dropped = next(iter(by_pattern))
    return {p: dims for p, dims in by_pattern.items() if p != dropped}


@pytest.mark.parametrize(
    "breaker",
    [_rank_plus_one, _extra_pattern, _dropped_pattern],
    ids=["rank-plus-one", "extra-pattern", "dropped-pattern"],
)
def test_oracle_compare_counts_mismatches_like_a_plain_walk(monkeypatch, breaker):
    # raw and non-reduced: three generators against the engine's two
    ideal = MonomialIdeal(CTX_MIXED, [(2, 3, 0), (1, 0, 2), (3, 3, 2)])
    real = verify.cohomology_profile(ideal)
    nvars = ideal.context.nvars
    top = max(len(ideal.generators), real.gen_count)
    broken = CohomologyProfile(
        real.ideal, real.gen_count, breaker(real.by_pattern, nvars, top)
    )
    hits = [
        (list(alpha), i)
        for alpha in product(range(-2, 3), repeat=nvars)
        for i in range(-1, top + 2)
        if window_oracle(ideal, i, alpha) != broken.h(ideal.context.sign_pattern(alpha), i)
    ]
    assert hits
    monkeypatch.setattr(verify, "cohomology_profile", lambda ideal: broken)
    [result] = oracle_compare(ideal).results
    assert result.status == "fail"
    witness = result.witness
    assert witness["mismatch_count"] == len(hits)
    assert (witness["alpha"], witness["i"]) == hits[0]
    alpha, i = hits[0]
    assert witness["oracle"] == window_oracle(ideal, i, alpha)
    assert witness["engine"] == broken.h(ideal.context.sign_pattern(alpha), i)


def _raw_ideals(count, seed):
    """Ideals on the raw generator lists as written, the first variable of
    each of degree 0 where there are two or more."""
    out = []
    for generators in _raw_generator_lists(count, seed):
        nvars = len(generators[0])
        d = 1 if nvars > 1 else 0
        ctx = VariableContext(tuple(f"Y{v}" for v in range(d)), tuple(f"X{v}" for v in range(nvars - d)))
        out.append(MonomialIdeal(ctx, generators))
    return out


def test_oracle_compare_matches_a_walk_over_every_point(monkeypatch):
    # the reference walks every point of the box and every index, deciding
    # survival by the literal witness search and reading the engine point
    # by point; the report must match it unfaulted and under each fault
    ideals = (
        list(exhaustive_ideals(3))
        + list(random_battery(count=12, seed=5, max_nvars=4))
        + _raw_ideals(12, seed=11)
    )
    real_profile = verify.cohomology_profile
    breakers = (lambda by_pattern, nvars, top: by_pattern, _rank_plus_one, _dropped_pattern, _extra_pattern)
    failed = 0
    for ideal in ideals:
        real = real_profile(ideal)
        g_raw, nvars = len(ideal.generators), ideal.context.nvars
        top = max(g_raw, real.gen_count)
        for bound in (2, 3):
            box = [
                (list(alpha), ideal.context.sign_pattern(alpha),
                 _cech_dims(_witness_search(ideal.generators, alpha), g_raw))
                for alpha in product(range(-bound, bound + 1), repeat=nvars)
            ]
            for breaker in breakers:
                broken = CohomologyProfile(real.ideal, real.gen_count, breaker(real.by_pattern, nvars, top))
                hits = []
                for alpha, pattern, dims in box:
                    for i in range(-1, top + 2):
                        oracle = dims[i] if 0 <= i < len(dims) else 0
                        engine = broken.h(pattern, i)
                        if oracle != engine:
                            hits.append((alpha, i, oracle, engine))
                monkeypatch.setattr(verify, "cohomology_profile", lambda ideal, b=broken: b)
                [result] = oracle_compare(ideal, bound).results
                if not hits:
                    assert result.status == "pass", (ideal, bound)
                    assert result.witness == {"bound": bound, "points": len(box)}
                    continue
                failed += 1
                assert result.status == "fail", (ideal, bound)
                alpha, i, oracle, engine = hits[0]
                expected = dict(alpha=alpha, i=i, oracle=oracle, engine=engine, mismatch_count=len(hits))
                assert result.witness == {"ideal": ideal.spec_dict(), **expected}, (ideal, bound)
    assert failed == 3 * 2 * len(ideals)


def test_oracle_compare_decides_one_point_per_set_of_negative_coordinates(monkeypatch):
    calls = []
    real = verify._alive_by_divisibility

    def counted(rows, alpha):
        calls.append(alpha)
        return real(rows, alpha)

    monkeypatch.setattr(verify, "_alive_by_divisibility", counted)
    for nvars, bound in ((3, 2), (5, 2), (5, 3)):
        calls.clear()
        assert oracle_compare(random_ideal(1, 1, nvars - 1, 4), bound).passed
        assert len(calls) == len(set(calls)) == 2**nvars
        assert {a for alpha in calls for a in alpha} == {-bound, 0}


def test_theorem_suite_skips_the_oracle_past_its_raw_generator_cap():
    # on five variables, but 22 raw generators: 2^22 subsets per point
    ctx = VariableContext((), tuple(f"X{v}" for v in range(1, 6)))
    generators = [(k, 1, 0, 0, 0) for k in range(1, 21)] + [(0, 0, 1, 1, 0), (0, 0, 0, 0, 1)]
    report = theorem_suite(MonomialIdeal(ctx, generators))
    [oracle] = [r for r in report.results if r.name == "oracle-box"]
    assert oracle.status == "skip"
    assert oracle.witness == {"reason": "window sweep capped at 10 raw generators"}
    assert report.passed


def test_oracle_compare_rejects_tiny_boxes():
    with pytest.raises(ValueError):
        oracle_compare(MAXX2, bound=1)


def test_oracle_compare_wider_box():
    assert oracle_compare(MAXX2, bound=3).passed
    assert oracle_compare(MIXED, bound=3).passed
    # five-variable instances exercise the widest box the dual route must agree on
    for seed in range(2):
        for d, m in ((2, 3), (3, 2), (1, 4), (0, 5)):
            report = oracle_compare(random_ideal(seed, d, m, 3), bound=3)
            assert report.passed, (seed, d, m, report.to_json())


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_check_result_validates_status():
    with pytest.raises(ValueError):
        CheckResult("x", "y", "maybe")


def test_value_types_are_immutable_named_tuples():
    result = CheckResult("x", "y", "pass")
    assert result.witness is None and result == ("x", "y", "pass", None)
    case = next(c for c in golden_corpus() if c.case_id == "y-plane")
    report = pattern_report(case.ideal, 1)
    values = ((result, "status"), (case, "dims"), (report, "shape"), (case.ideal.context, "d"))
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None
    assert report == (case.ideal, 1, report.shape, report.contributors)
    assert report._replace(i=2).i == 2 and report.i == 1


def test_golden_case_expectations_default_to_fresh_dicts():
    ideal = next(iter(golden_corpus())).ideal
    first, second = (verify.GoldenCase(case_id, ideal, "hand-derived") for case_id in "ab")
    assert first.dims == second.dims == {} and first.dims is not second.dims
    first.dims[(1, 0)] = DimValue(1)
    assert second.dims == {}
    with pytest.raises(TypeError):
        verify.GoldenCase("c", ideal, "hand-derived", dimensions={})


def test_report_counts_and_json():
    report = VerificationReport()
    report.add("a", "first law", "pass")
    report.add("b", "second law", "fail", {"n": 3})
    report.add("c", "third law", "skip", {"reason": "n/a"})
    assert report.counts() == {"pass": 1, "fail": 1, "skip": 1}
    assert not report.passed
    assert [r.name for r in report.failures] == ["b"]
    blob = report.to_json()
    assert blob["passed"] is False
    assert blob["checks"][1]["witness"] == {"n": 3}
    assert "witness" not in blob["checks"][0]


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def test_random_ideal_is_deterministic():
    a = random_ideal(42, 2, 2, 3)
    b = random_ideal(42, 2, 2, 3)
    assert a == b
    assert a.generators == b.generators
    assert random_ideal(43, 2, 2, 3) != a or random_ideal(44, 2, 2, 3) != a


def test_random_ideal_shape():
    ideal = random_ideal("s", 3, 2, 4, max_support=2)
    assert ideal.context.d == 3 and ideal.context.m == 2
    assert len(ideal.generators) == 4
    assert all(sum(g) <= 2 for g in ideal.generators)
    assert all(set(g) <= {0, 1} for g in ideal.generators)


def test_random_battery_is_seed_stable():
    first = [i.generators for i in random_battery(count=10, seed=5)]
    second = [i.generators for i in random_battery(count=10, seed=5)]
    assert first == second
    assert all(i.context.nvars <= 7 for i in random_battery(count=10, seed=5))


def test_exhaustive_ideals_counts():
    # antichain counts over nonempty supports: 1, 4, 18 families for
    # 1, 2, 3 variables, times the number of (d, m) splits
    by_nvars = {}
    for ideal in exhaustive_ideals(3):
        by_nvars[ideal.context.nvars] = by_nvars.get(ideal.context.nvars, 0) + 1
    assert by_nvars == {1: 1, 2: 8, 3: 54}


def test_exhaustive_ideals_are_normalized_antichains():
    for ideal in exhaustive_ideals(3):
        supports = ideal.supports
        assert len(set(supports)) == len(supports)
        assert not any(a < b for a in supports for b in supports)


# ---------------------------------------------------------------------------
# structural suite
# ---------------------------------------------------------------------------


def test_theorem_suite_passes_on_corpus():
    for case in golden_corpus():
        report = theorem_suite(case.ideal)
        assert report.passed, (case.case_id, [f.witness for f in report.failures])


def test_theorem_suite_emits_nonneg_witness():
    report = theorem_suite(MIXED)
    byname = {r.name: r for r in report.results}
    check = byname["nonneg-witness"]
    assert check.status == "pass"
    assert check.witness["indices"] == [1]
    assert check.witness["witness_ideal"] == ["Y1", "Y1*Y2"]


def test_theorem_suite_witness_for_extended_plane():
    plane = MonomialIdeal(VariableContext(("Y1",), ("X1",)), [(1, 0)])
    byname = {r.name: r for r in theorem_suite(plane).results}
    assert byname["nonneg-witness"].witness["witness_ideal"] == ["Y1"]


def test_theorem_suite_passes_on_fixed_random_instance():
    assert theorem_suite(random_ideal(2, 2, 2, 3)).passed


def test_theorem_suite_skips_oracle_on_large_contexts():
    big = random_ideal(1, 4, 2, 2)
    byname = {r.name: r for r in theorem_suite(big).results}
    assert byname["oracle-box"].status == "skip"


def test_theorem_suite_growth_records_infinite_skips():
    free = MonomialIdeal(CTX_X2, [(1, 0)])
    byname = {r.name: r for r in theorem_suite(free).results}
    check = byname["growth-polynomials"]
    # the vanishing indices still satisfy the (zero) polynomials; the
    # infinite-dimensional index is recorded as skipped, not silently passed
    assert check.status == "pass"
    assert [s["i"] for s in check.witness["skipped"]] == [1]


def test_theorem_suite_growth_gap_form_runs_on_maximal_ideal():
    byname = {r.name: r for r in theorem_suite(MAXX2).results}
    assert byname["growth-polynomials"].status == "pass"
    assert byname["growth-gap-form"].status == "pass"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_theorem_suite_passes_on_random_small_ideals(seed):
    ideal = random_ideal(seed, seed % 3, 1 + seed % 2, 1 + seed % 3)
    assert theorem_suite(ideal).passed


class _DegreeZeroClaim(IntegerPolynomial):
    """Same values and rendering, but a nonzero polynomial claims degree 0."""

    __slots__ = ()

    @property
    def degree(self):
        return 0 if self.coeffs else None


def _raise_shape_violation(orig):
    def fake(ideal, i):
        if i == 1:
            raise ShapeViolationError("injected: index 1 breaks the five shapes")
        return orig(ideal, i)

    return fake


def _shape_at(index, shape):
    def wrap(orig):
        def fake(ideal, i):
            report = orig(ideal, i)
            return report._replace(shape=shape) if i == index else report

        return fake

    return wrap


def _low_degree_pair(orig):
    def fake(ideal, i):
        return tuple(_DegreeZeroClaim(p.coeffs, p.side, p.bound) for p in orig(ideal, i))

    return fake


def _raise_not_eulerian(orig):
    def fake(module, alpha):
        raise NotEulerianError("injected: E is not diagonal")

    return fake


# One injected engine fault per structural fail site of theorem_suite: the
# name rebound in verify, the corpus ideal, how the fault wraps the
# original, the checks that fail, and the SHA-256 of the whole report's
# JSON, captured at commit f9c72f7, before the statements were gathered
# into one table.  Tail rigidity, localization-route and euler-diagonal
# each have more than one fail site, and every one is reached.
FAIL_SITES = {
    "five-shapes": (
        "pattern_report", "maximal-x-m2", _raise_shape_violation,
        ["five-shapes"],
        "6b827dd671fe8d06e83b4a00bb605c3088f41bbaa199185ff5a43bb6242913e0",
    ),
    "index-zero": (
        "pattern_report", "maximal-x-m2",
        _shape_at(0, PatternShape.NEG_TAIL_ONLY),
        ["index-zero"],
        "eb00631c9ffe5787bb40c0b712c75b17b58178e79c83ef6e937203913fe18866",
    ),
    "tail-rigidity-gap": (
        "piece_nonzero", "maximal-x-m2",
        lambda orig: lambda ideal, i, n: orig(ideal, i, n) or n == -1,
        ["tail-rigidity"],
        "8742af1cb63e62ec4ecb62943dd48267adf89d87c7677777d45a6806b69478e0",
    ),
    "tail-rigidity-negative": (
        "piece_nonzero", "maximal-x-m2",
        lambda orig: lambda ideal, i, n: orig(ideal, i, n) and n != -5,
        ["tail-rigidity"],
        "aa1992e782a2a25d1a4ab8339490cad95c97c40888efe8c5343a7d75bf81efd1",
    ),
    "tail-rigidity-positive": (
        "piece_nonzero", "maximal-x-m2",
        lambda orig: lambda ideal, i, n: orig(ideal, i, n) or n == 3,
        ["tail-rigidity"],
        "7aa932ec9fe2950cf7f22f7580982d6a5b3e88b124232969c7c7003e0ca5df1b",
    ),
    "nonneg-witness": (
        "pattern_report", "maximal-x-m2",
        _shape_at(1, PatternShape.NONNEG_ONLY),
        ["nonneg-witness"],
        "ce8f6345e598bd6455d7f7a5a0829808132716b629a437e532627b753e999dd6",
    ),
    "growth-polynomials": (
        "hilbert_pair", "maximal-x-m2",
        lambda orig: lambda ideal, i: orig(ideal, i)[::-1],
        ["growth-polynomials"],
        "544160ef3dd4e01d43e643fa7027dbc4f3457a8bef04ef4427bfe32b65b7c4d7",
    ),
    "growth-gap-form": (
        "hilbert_pair", "maximal-x-m2", _low_degree_pair,
        ["growth-gap-form"],
        "f16860f802214ae9b1b7e0be300ec175fc4c43aad7902788179ace85863a141d",
    ),
    "support-stability": (
        "support_min_primes", "cross-tails",
        lambda orig: lambda ideal, i, n: frozenset() if n == 1 else orig(ideal, i, n),
        ["support-stability"],
        "6fe5fefed1806683d1557c78ca8e5a751b9cb790c9c6d206626f6dc1d7c121db",
    ),
    "support-dim-gap": (
        "support_dim", "cross-tails",
        lambda orig: lambda ideal, i, n: 3 if n == -1 else orig(ideal, i, n),
        ["support-dim-gap"],
        "e4ec443fc0e8a1b36ff6f4283cba33e81e10602e4e53c3a5ad47cbd5eb5ab4af",
    ),
    "localization-route-unit": (
        "localize", "mixed-pinch",
        lambda orig: lambda ideal, invert: UNIT_IDEAL,
        ["localization-route"],
        "d8495eba804c9a5c2df409ab5a71619057ecb8902794d716db6c2bb21d0168fb",
    ),
    "localization-route-pattern": (
        "localize", "mixed-pinch",
        lambda orig: lambda ideal, invert: orig(ideal, frozenset()),
        ["localization-route"],
        "4531f75fe568ccc55868e1dfdc123de56e0924e37599f436ac3a36ed7210e10e",
    ),
    "euler-diagonal-raises": (
        "euler_eigencheck", "maximal-x-m2", _raise_not_eulerian,
        ["euler-diagonal"],
        "4ff6b329df06849e0ab9d6590927efa4c93a7aeb0c16b637e19b07cb69af6846",
    ),
    "euler-diagonal-exponent": (
        "gen_eulerian_exponent", "maximal-x-m2",
        lambda orig: lambda module, alpha: 2,
        ["euler-diagonal"],
        "10a4d463c77e46771e761ebf43cef9ac858532fcc012a68ee9ec32fb868ce7bd",
    ),
}


@pytest.mark.parametrize("site", sorted(FAIL_SITES))
def test_theorem_suite_fail_site_is_pinned(monkeypatch, site):
    name, case_id, fault, failing, digest = FAIL_SITES[site]
    ideal = next(c.ideal for c in golden_corpus() if c.case_id == case_id)
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    report = theorem_suite(ideal)
    assert [r.name for r in report.failures] == failing
    text = json.dumps(report.to_json())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------


def test_corpus_ids_are_unique_and_sorted():
    ids = [c.case_id for c in golden_corpus()]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids)) == 9


def test_every_golden_case_passes():
    for case in golden_corpus():
        report = run_golden_case(case)
        assert report.passed, (case.case_id, [f.witness for f in report.failures])


def test_corrupted_expectation_fails_with_repro():
    case = next(c for c in golden_corpus() if c.case_id == "maximal-x-m2")
    bad = case._replace(dims={**case.dims, (2, -2): DimValue(7)})
    report = run_golden_case(bad)
    assert not report.passed
    witness = report.failures[0].witness
    assert witness["ideal"] == case.ideal.spec_dict()
    assert any(
        hit["kind"] == "dim" and hit["i"] == 2 and hit["n"] == -2 and hit["got"] == 1
        for hit in witness["mismatches"]
    )


def test_corrupted_shape_fails():
    case = next(c for c in golden_corpus() if c.case_id == "y-plane")
    bad = case._replace(shapes={1: PatternShape.ALL_Z})
    assert not run_golden_case(bad).passed


def test_corrupted_koszul_expectation_fails():
    case = next(c for c in golden_corpus() if c.case_id == "maximal-x-m1")
    assert case.koszul  # the m = 1 concentration data lives on this case
    bad = case._replace(koszul={(1, "mult", 0, 5): (DimValue(3), DimValue(0))})
    report = run_golden_case(bad)
    assert not report.passed
    assert any(
        hit["kind"] == "koszul" and hit["got"] == [0, 0]
        for hit in report.failures[0].witness["mismatches"]
    )


def test_every_golden_mismatch_carries_its_key_expected_and_got():
    # one corrupted expectation of each of the seven kinds: the hit names
    # its kind and whole key, the expectation and the value computed
    corpus = {c.case_id: c for c in golden_corpus()}
    corruptions = [
        ("y-plane", "shapes", 1, PatternShape.ALL_Z, {"kind": "shape", "i": 1, "expected": "AllZ", "got": "NonnegOnly"}),
        ("y-plane", "nonzero", (1, -1), True, {"kind": "nonzero", "i": 1, "n": -1, "expected": True, "got": False}),
        ("maximal-x-m2", "dims", (2, -2), DimValue(7), {"kind": "dim", "i": 2, "n": -2, "expected": 7, "got": 1}),
        (
            "y-plane",
            "strands",
            (1, (-1,), 3),
            DimValue(5),
            {"kind": "strand", "i": 1, "y_part": [-1], "n": 3, "expected": 5, "got": 1},
        ),
        ("y-plane", "socles", (1, 0), DimValue(4), {"kind": "socle", "i": 1, "n": 0, "expected": 4, "got": 1}),
        ("y-plane", "min_primes", (1, 0), {()}, {"kind": "min-primes", "i": 1, "n": 0, "expected": [[]], "got": [[0]]}),
        (
            "maximal-x-m1",
            "koszul",
            (1, "mult", 0, 0),
            (DimValue(0), DimValue(2)),
            {"kind": "koszul", "i": 1, "op": "mult", "v": 0, "n": 0, "expected": [0, 2], "got": [1, 0]},
        ),
    ]
    for case_id, field, key, wrong, hit in corruptions:
        case = corpus[case_id]
        expectations = getattr(case, field)
        assert key in expectations and expectations[key] != wrong, (case_id, key)
        report = run_golden_case(case._replace(**{field: {**expectations, key: wrong}}))
        [failure] = report.failures
        assert failure.name == f"golden:{case_id}"
        assert json.loads(json.dumps(failure.witness["mismatches"])) == [hit]


def test_run_corpus_is_green():
    report = run_corpus()
    assert report.passed
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 50
