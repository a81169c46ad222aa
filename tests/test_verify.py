"""Oracle-vs-engine agreement, the structural-law suite, and the corpus."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import verify
from lclab.monocech import DimValue, MonomialIdeal, PatternShape, VariableContext
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


def test_oracle_compare_passes_on_raw_nonreduced_input():
    report = oracle_compare(MonomialIdeal(CTX_MIXED, [(2, 3, 0), (1, 0, 2), (3, 3, 2)]))
    assert report.passed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 2), st.integers(1, 3))
def test_oracle_matches_engine_on_random_ideals(seed, d, m, gens):
    assert oracle_compare(random_ideal(seed, d, m, gens)).passed


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
    bad = dataclasses.replace(case, dims={**case.dims, (2, -2): DimValue(7)})
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
    bad = dataclasses.replace(case, shapes={1: PatternShape.ALL_Z})
    assert not run_golden_case(bad).passed


def test_corrupted_koszul_expectation_fails():
    case = next(c for c in golden_corpus() if c.case_id == "maximal-x-m1")
    assert case.koszul  # the m = 1 concentration data lives on this case
    bad = dataclasses.replace(
        case, koszul={(1, "mult", 0, 5): (DimValue(3), DimValue(0))}
    )
    report = run_golden_case(bad)
    assert not report.passed
    assert any(
        hit["kind"] == "koszul" and hit["got"] == [0, 0]
        for hit in report.failures[0].witness["mismatches"]
    )


def test_golden_case_builds_one_koszul_module_per_index(monkeypatch):
    built = Counter()

    class CountingModule(verify.LocalCohomologyModule):
        def __init__(self, ideal, i):
            built[i] += 1
            super().__init__(ideal, i)

    monkeypatch.setattr(verify, "LocalCohomologyModule", CountingModule)
    case = next(c for c in golden_corpus() if c.case_id == "maximal-x-m1")
    extra = {(2, "mult", 0, n): (DimValue(0), DimValue(0)) for n in range(-3, 3)}
    case = dataclasses.replace(case, koszul={**case.koszul, **extra})
    assert len(case.koszul) == 12
    run_golden_case(case)
    assert built == {1: 1, 2: 1}


def test_run_corpus_is_green():
    report = run_corpus()
    assert report.passed
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 50
