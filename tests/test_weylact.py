import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import exactlin, monocech, verify, weylact
from lclab.monocech import (
    INFINITE,
    CohomologyProfile,
    DimValue,
    MonomialIdeal,
    PatternShape,
    VariableContext,
    cohomology_profile,
)
from lclab.verify import exhaustive_ideals, random_battery
from lclab.weylact import (
    KoszulConvention,
    LocalCohomologyModule,
    LocalizationModule,
    NotEulerianError,
    derham_homology,
    euler_eigencheck,
    four_term_check,
    gen_eulerian_exponent,
    koszul_homology_X,
    koszul_homology_Y,
)

CTX1 = VariableContext((), ("X1",))
R1 = LocalizationModule(CTX1)  # K[X]
RX = LocalizationModule(CTX1, {0})  # K[X] with X inverted
E1 = LocalCohomologyModule(MonomialIdeal(CTX1, [(1,)]), 1)  # top torsion of (X)

CTX2 = VariableContext((), ("X1", "X2"))
R2 = LocalizationModule(CTX2)
H2 = LocalCohomologyModule(MonomialIdeal(CTX2, [(1, 0), (0, 1)]), 2)
MFREE = LocalCohomologyModule(MonomialIdeal(CTX2, [(1, 0)]), 1)

CTX_MIX = VariableContext(("Y1", "Y2"), ("X1",))
MIXED = MonomialIdeal(CTX_MIX, [(1, 1, 0), (1, 0, 1)])

CTX_Y = VariableContext(("Y1",), ("X1",))
YPLANE = MonomialIdeal(CTX_Y, [(1, 0)])


def cycle_ideal(k):
    """Edge ideal of the k-cycle in k degree-1 variables."""
    ctx = VariableContext((), tuple(f"X{j}" for j in range(1, k + 1)))
    return MonomialIdeal(
        ctx, [tuple(1 if t in (j, (j + 1) % k) else 0 for t in range(k)) for j in range(k)]
    )


C7 = cycle_ideal(7)


def fin(n):
    return DimValue(n)


def matmul(a, b, out_cols):
    if not b:
        return [[Fraction(0)] * out_cols for _ in a]
    return [
        [sum((ra[t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(out_cols)]
        for ra in a
    ]


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def test_localization_pieces():
    assert R1.piece_dim((3,)) == 1
    assert R1.piece_dim((-1,)) == 0
    assert RX.piece_dim((-5,)) == 1
    r_part = LocalizationModule(CTX_MIX, {0})
    assert r_part.piece_dim((-2, 0, 1)) == 1
    assert r_part.piece_dim((-2, -1, 1)) == 0
    assert sorted(map(sorted, RX.patterns())) == [[], [0]]


def test_cohomology_module_dims_match_profile():
    prof = cohomology_profile(MIXED)
    mod = LocalCohomologyModule(MIXED, 2)
    for pattern in prof.patterns():
        assert mod.pattern_dim(pattern) == prof.h(pattern, 2)
    assert mod.pattern_dim(frozenset({2})) == 0


def test_transition_identity_off_the_wall():
    mod = LocalCohomologyModule(MIXED, 1)
    # Y1 negative but not at −1: same pattern on both sides
    assert mod.transition((-2, 0, 0), 0) == [[Fraction(1)]]
    assert mod.transition((-1, 0, 0), 1) == [[Fraction(1)]]  # Y2: 0 → 1, no wall


def test_crossing_out_of_the_module_is_zero_shaped():
    mod = LocalCohomologyModule(MIXED, 1)
    # crossing Y1 at the wall leaves the only contributing pattern
    assert mod.crossing_rank({0}, 0) == 0
    with pytest.raises(ValueError):
        mod.crossing_rank(frozenset({1}), 0)
    # every module reads a wall as a rank, never as a matrix
    for module in (mod, LocalizationModule(CTX_MIX, {0}), RX):
        with pytest.raises(ValueError, match="crossing_rank"):
            module.transition((-1,) + (0,) * (module.context.nvars - 1), 0)


def test_derham_transition_scalars():
    assert R2.derham_transition((3, 1), 0) == [[Fraction(3)]]
    assert R2.derham_transition((0, 1), 0) == []  # target piece is zero
    assert RX.derham_transition((-2,), 0) == [[Fraction(-2)]]
    with pytest.raises(ValueError):
        LocalizationModule(CTX_MIX).derham_transition((0, 0, 0), 0)  # Y variable


def test_coarse_dimension():
    assert [E1.coarse_dimension(n) for n in (-2, -1, 0)] == [fin(1), fin(1), fin(0)]
    assert [R2.coarse_dimension(n) for n in (-1, 0, 2)] == [fin(0), fin(1), fin(3)]
    assert [H2.coarse_dimension(n) for n in (-3, -2, -1)] == [fin(2), fin(1), fin(0)]
    assert MFREE.coarse_dimension(0) is INFINITE
    assert LocalizationModule(CTX_Y).coarse_dimension(0) is INFINITE


# ---------------------------------------------------------------------------
# Euler operator
# ---------------------------------------------------------------------------


def test_euler_frozen_examples():
    assert euler_eigencheck(R2, (2, 0)) == 2
    assert euler_eigencheck(RX, (-3,)) == -3
    assert euler_eigencheck(H2, (-1, -1)) == -2
    assert gen_eulerian_exponent(R2, (2, 0)) == 1
    assert gen_eulerian_exponent(RX, (-1,)) == 1
    mixed1 = LocalCohomologyModule(MIXED, 1)
    assert euler_eigencheck(mixed1, (-1, 0, 0)) == 0
    assert gen_eulerian_exponent(mixed1, (-1, 0, 0)) == 1


def test_euler_rejects_zero_piece():
    with pytest.raises(ValueError):
        euler_eigencheck(R1, (-1,))
    with pytest.raises(ValueError):
        gen_eulerian_exponent(E1, (0,))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_euler_diagonal_everywhere(data):
    module = data.draw(
        st.sampled_from(
            [R1, RX, E1, R2, H2, MFREE, LocalCohomologyModule(MIXED, 1), LocalCohomologyModule(MIXED, 2)]
        )
    )
    nvars = module.context.nvars
    alpha = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars)
    )
    if module.piece_dim(alpha) == 0:
        return
    assert euler_eigencheck(module, alpha) == module.context.coarse_degree(alpha)
    assert gen_eulerian_exponent(module, alpha) == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_transition_squares_commute(data):
    # off the walls every step keeps the sign pattern, so a square is
    # identity∘identity on pieces of one size; a step from a wall raises
    module = data.draw(
        st.sampled_from(
            [
                R2,
                LocalizationModule(CTX2, {0}),
                LocalizationModule(CTX2, {0, 1}),
                LocalizationModule(CTX_MIX, {0, 1}),
                LocalizationModule(CTX_MIX, {1, 2}),
                H2,
                MFREE,
                LocalCohomologyModule(MIXED, 1),
                LocalCohomologyModule(MIXED, 2),
            ]
        )
    )
    nvars = module.context.nvars
    alpha = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars)
    )
    v = data.draw(st.integers(min_value=0, max_value=nvars - 1))
    w = data.draw(st.integers(min_value=0, max_value=nvars - 1))

    def bump(a, u):
        return tuple(x + 1 if t == u else x for t, x in enumerate(a))

    steps = [(alpha, v), (bump(alpha, v), w), (alpha, w), (bump(alpha, w), v)]
    on_wall = [(source, u) for source, u in steps if source[u] == -1]
    for source, u in on_wall:
        with pytest.raises(ValueError):
            module.transition(source, u)
    if on_wall:
        return
    dim = module.piece_dim(alpha)
    via_v = matmul(module.transition(bump(alpha, v), w), module.transition(alpha, v), dim)
    via_w = matmul(module.transition(bump(alpha, w), v), module.transition(alpha, w), dim)
    assert len(via_v) == len(via_w) == module.piece_dim(bump(bump(alpha, v), w)) == dim
    assert via_v == via_w == [[int(r == c) for c in range(dim)] for r in range(dim)]


# ---------------------------------------------------------------------------
# Koszul / de Rham homology (frozen values)
# ---------------------------------------------------------------------------


def test_koszul_X_m1_concentration():
    for n in range(-10, 11):
        assert koszul_homology_X(R1, 0, n) == (fin(0), fin(1) if n == 0 else fin(0))
        assert koszul_homology_X(E1, 0, n) == (fin(1) if n == 0 else fin(0), fin(0))


def test_derham_m1_concentration():
    for n in range(-10, 11):
        assert derham_homology(R1, 0, n) == (fin(1) if n == -1 else fin(0), fin(0))
        assert derham_homology(E1, 0, n) == (fin(0), fin(1) if n == -1 else fin(0))


def test_koszul_X_on_top_torsion_m2():
    # kernel of X2 concentrated along the negative tail
    for n in range(-4, 2):
        expected_h1 = fin(1) if n <= -1 else fin(0)
        assert koszul_homology_X(H2, 1, n) == (expected_h1, fin(0))


def test_derham_partial2_on_polynomials_m2():
    # ker ∂2 on homogeneous polynomials: the X1-power alone, from degree −1 on
    for n in range(-4, 4):
        expected_h1 = fin(1) if n >= -1 else fin(0)
        assert derham_homology(R2, 1, n) == (expected_h1, fin(0))


def test_koszul_X2_on_free_line_module():
    # components of the (X1)-torsion in two variables modulo X2
    for n in range(-4, 3):
        expected_h0 = fin(1) if n <= -1 else fin(0)
        assert koszul_homology_X(MFREE, 1, n) == (fin(0), expected_h0)


def test_koszul_on_degree_zero_variable():
    # R = K[Y][X], multiplication by Y: torsion-free, cokernel K[X]
    ring = LocalizationModule(CTX_Y)
    for n in range(-3, 4):
        h1, h0 = koszul_homology_X(ring, 0, n)
        assert h1 == fin(0)
        assert h0 == (fin(1) if n >= 0 else fin(0))


def test_koszul_infinite_with_witness():
    mod = LocalCohomologyModule(MIXED, 1)
    h1, h0 = koszul_homology_X(mod, 0, 2)
    assert h1 is INFINITE and h0 == fin(0)
    # the wall at pattern {Y1} keeps a kernel, counted over infinitely many
    # multidegrees
    assert mod.pattern_dim({0}) - mod.crossing_rank({0}, 0) > 0
    assert koszul_homology_X(mod, 0, -1) == (fin(0), fin(0))


# ---------------------------------------------------------------------------
# crossing ranks: kept across degrees, and read off the profile and one link
# ---------------------------------------------------------------------------

SHARED_IDEALS = pytest.mark.parametrize(
    "ideal",
    [C7, *random_battery(count=12, seed=5)],
    ids=["C7", *(f"battery-5-{t}" for t in range(12))],
)


@SHARED_IDEALS
def test_shared_module_matches_fresh_modules(ideal):
    ctx = ideal.context
    degrees = range(-4, 5)
    for i in range(len(ideal.generators) + 1):
        shared = LocalCohomologyModule(ideal, i)
        if not shared.patterns():
            continue
        for v in range(ctx.nvars):
            kinds = [koszul_homology_X] + ([derham_homology] if v in ctx.x_indices else [])
            for homology in kinds:
                for n in degrees:
                    fresh = homology(LocalCohomologyModule(ideal, i), v, n)
                    assert homology(shared, v, n) == fresh, (i, v, n, homology.__name__)


@SHARED_IDEALS
def test_crossings_after_a_degree_range_match_a_fresh_module(ideal):
    ctx = ideal.context
    checked = 0
    for i in range(len(ideal.generators) + 1):
        module = LocalCohomologyModule(ideal, i)
        for v in range(ctx.nvars):
            for n in range(-6, 7):
                koszul_homology_X(module, v, n)
        for pattern in module.patterns():
            for v in range(ctx.nvars):
                source = pattern | {v}
                fresh = LocalCohomologyModule(ideal, i)
                assert module.crossing_rank(source, v) == fresh.crossing_rank(source, v), (i, pattern, v)
                checked += 1
    assert checked or not cohomology_profile(ideal).by_pattern


@pytest.mark.parametrize("ideal", [C7, cycle_ideal(8), MIXED], ids=["C7", "C8", "mixed"])
def test_koszul_builds_no_generator_side_slice(monkeypatch, ideal):
    # every crossing is read off the profile and the variable-side ranks
    # of the link of v at P∖v: no slice, no alive family and no rank in
    # weylact
    def forbidden(*args):
        raise AssertionError("a koszul query reached the generator side")

    for home, name in [
        (monocech, "slice_basis"),
        (weylact, "slice_basis"),
        (monocech, "_alive_masks"),
        (weylact, "rank"),
    ]:
        monkeypatch.setattr(home, name, forbidden)
    ctx = ideal.context
    read = 0
    for i in range(len(ideal.generators) + 1):
        module = LocalCohomologyModule(ideal, i)
        for v in range(ctx.nvars):
            kinds = [koszul_homology_X] + ([derham_homology] if v in ctx.x_indices else [])
            for homology in kinds:
                for n in range(-6, 7):  # 13 degrees
                    homology(module, v, n)
                    read += 1
        read += bool(module.patterns())
    assert read > 13


@pytest.mark.parametrize(
    "pattern, k",
    [({0, 1, 2}, 2), ({1, 2}, 1)],
    ids=["source-rank", "target-rank"],
)
def test_a_profile_fault_fails_the_crossing_check(pattern, k):
    # one rank of the profile off by one, at the source or at the target of
    # the crossing of Y1 out of {Y1, Y2, X1}, whose true rank is 1
    module = LocalCohomologyModule(MIXED, 2)
    assert module.crossing_rank({0, 1, 2}, 0) == 1
    real = module.profile
    dims = list(real.by_pattern[frozenset(pattern)])
    dims[k] += 1
    broken = LocalCohomologyModule(MIXED, 2)
    broken.profile = CohomologyProfile(
        real.ideal, real.gen_count, {**real.by_pattern, frozenset(pattern): tuple(dims)}
    )
    with pytest.raises(AssertionError, match=r"crossing rank -?\d+ out of range in H\^\d+, pattern \[0, 1, 2\]"):
        broken.crossing_rank({0, 1, 2}, 0)


def _les_ranks(h_sub, h_whole, c):
    """Ranks of H^k(A) → H^k(B), k = 0..g, read off the long exact
    sequence of a subcomplex C(A) ⊂ C(B) whose quotient has cohomology c:
    ρ_0 = h^0(A) and ρ_{k+1} = h^{k+1}(A) + h^k(B) − ρ_k − c_k.  The last
    connecting map must vanish, since there is no H^{g+1}(A)."""
    rho = [h_sub[0]]
    for k in range(len(c) - 1):
        rho.append(h_sub[k + 1] + h_whole[k] - rho[k] - c[k])
    assert c[-1] - h_whole[-1] + rho[-1] == 0
    return rho


LES_IDEALS = [*exhaustive_ideals(4), *random_battery(count=400, seed=9, max_nvars=7)]


def test_crossing_quotients_are_slices_of_the_ideal_missing_v():
    # the quotient C(B)/C(A) of a crossing (P, v), A = alive(P) and
    # B = alive(P∖v), built on the generator side, against the
    # variable-side profile of I_v, the generators missing v, at P∖v, and
    # against the ranks of that one pattern that crossing_rank reads, the
    # link of v in K|_P at I_v's own index bound
    checked = 0
    for ideal in LES_IDEALS:
        ideal = monocech.normalize(ideal)
        g = len(ideal.supports)
        for pattern in cohomology_profile(ideal).patterns():
            for v in pattern:
                target = pattern - {v}
                if not target:
                    continue  # the ring summand: a zero piece, never read
                rest = [gen for gen, s in zip(ideal.generators, ideal.supports) if v not in s]
                alive = monocech._alive_masks(ideal.supports, target)
                alive &= ~monocech._alive_masks(ideal.supports, pattern)
                quotient = cohomology_profile(MonomialIdeal(ideal.context, rest)) if rest else None
                expected = tuple(quotient.h(target, k) if quotient else 0 for k in range(g + 1))
                assert monocech._cech_dims(alive, g) == expected, (ideal, pattern, v)
                masks = [sum(1 << u for u in s) for s in ideal.supports if v not in s]
                link = monocech._pattern_dims(masks, sum(1 << u for u in target), len(masks))
                assert link == expected[: len(masks) + 1], (ideal, pattern, v)
                assert not any(expected[len(masks) + 1 :]), (ideal, pattern, v)
                checked += 1
    assert checked == 16485


def test_koszul_calls_no_normalize(monkeypatch):
    # a built module reads its crossings with no normal form computed
    module = LocalCohomologyModule(cycle_ideal(8), 5)

    def refuse(ideal):
        raise AssertionError(f"normalized {ideal!r}")

    monkeypatch.setattr(monocech, "normalize", refuse)
    monkeypatch.setattr(weylact, "normalize", refuse)
    for n in range(-2, 3):
        koszul_homology_X(module, 0, n)


def test_koszul_builds_no_second_ideal(monkeypatch):
    # once a module is built, no koszul or derham query constructs an
    # ideal or profiles one
    modules = [
        LocalCohomologyModule(ideal, i) for ideal in (C7, MIXED) for i in range(len(ideal.generators) + 1)
    ]

    def forbidden(*args):
        raise AssertionError("a koszul query built or profiled a second ideal")

    for home in (monocech, weylact):
        for name in ("MonomialIdeal", "_profile_normalized", "cohomology_profile"):
            if hasattr(home, name):
                monkeypatch.setattr(home, name, forbidden)
    nonzero = 0
    for module in modules:
        ctx = module.context
        for v in range(ctx.nvars):
            for n in range(-4, 5):
                nonzero += koszul_homology_X(module, v, n) != (fin(0), fin(0))
                if v in ctx.x_indices:
                    nonzero += derham_homology(module, v, n) != (fin(0), fin(0))
    assert nonzero


def test_each_wall_crossing_is_ranked_once(monkeypatch):
    # C8, i = 5, v = X1: one link rank per wall whose two pieces are both
    # nonzero, and none more when the module reads a second degree range
    module = LocalCohomologyModule(cycle_ideal(8), 5)
    calls = []
    real = weylact._pattern_dims

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weylact, "_pattern_dims", counted)
    walls = {pattern - {0} for pattern in module.patterns()}
    both = [t for t in walls if module.pattern_dim(t) and module.pattern_dim(t | {0})]
    for n in range(-12, 9):
        koszul_homology_X(module, 0, n)
    assert len(calls) == len(both) > 0
    for n in range(-30, 31):
        koszul_homology_X(module, 0, n)
    assert len(calls) == len(both)


def test_crossing_ranks_match_the_long_exact_sequences():
    # a crossing (P, v) is the map induced by C(A) ⊂ C(B), A = alive(P) and
    # B = alive(P∖v), with quotient complex C(B∖A), here built on the
    # generator side.  For two Y variables the socle's joint rank is the
    # middle map of the Mayer–Vietoris sequence of C(B1), C(B2), which
    # meet in C(A) and span C(B1 ∪ B2).  Neither route chooses a cocycle
    # or calls kernel_basis.
    pairs = nonzero = corners = stacked = finite = 0
    for ideal in LES_IDEALS:
        ideal = monocech.normalize(ideal)
        ctx = ideal.context
        g = len(ideal.supports)
        profile = cohomology_profile(ideal)
        modules = [LocalCohomologyModule(ideal, k) for k in range(g + 1)]

        def alive(pattern):
            return monocech._alive_masks(ideal.supports, pattern)

        def dims(pattern):
            return [profile.h(pattern, k) for k in range(g + 1)]

        socles = [[] for _ in modules]  # (k, socle) per corner and index
        for pattern in profile.patterns():
            for v in pattern:
                target = pattern - {v}
                quotient = monocech._cech_dims(alive(target) & ~alive(pattern), g)
                rho = _les_ranks(dims(pattern), dims(target), quotient)
                assert [m.crossing_rank(pattern, v) for m in modules] == rho, (ideal, pattern, v)
                pairs += 1
                nonzero += sum(map(bool, rho))
            if ctx.d != 2 or not ctx.y_indices <= pattern:
                continue
            y1, y2 = sorted(ctx.y_indices)
            b1, b2 = alive(pattern - {y1}), alive(pattern - {y2})
            assert b1 & b2 == alive(pattern)
            both = [a + b for a, b in zip(dims(pattern - {y1}), dims(pattern - {y2}))]
            rho = _les_ranks(dims(pattern), both, monocech._cech_dims(b1 | b2, g))
            corners += 1
            for i, r in enumerate(rho):
                socles[i].append((len(pattern & ctx.x_indices), profile.h(pattern, i) - r))
            # the joint rank beats every single crossing rank
            stacked += any(
                r > max(m.crossing_rank(pattern, y1), m.crossing_rank(pattern, y2))
                for r, m in zip(rho, modules)
            )
        # corner Y ∪ S is the only finite contributor at n = 0 when S = ∅,
        # and at n = −m when S is all of X
        for i, corner_socles in enumerate(socles):
            for n in {0, -ctx.m} if corner_socles else ():
                expected = DimValue(0)
                for k, socle in corner_socles:
                    expected = expected + monocech.x_lattice_count(ctx.m, k, n).scaled(socle)
                assert koszul_homology_Y(ideal, i, n) == expected, (ideal, i, n)
                finite += not expected.is_infinite and expected.value > 0
    assert (pairs, nonzero, corners, stacked, finite) == (17370, 9068, 462, 29, 67)


def _fraction_echelon(rows, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        pick = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if pick is None:
            continue
        top = len(pivots)
        rows[top], rows[pick] = rows[pick], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _fraction_null_space(rows, ncols):
    """Basis of {x : row · x = 0 for every row}, over Fraction."""
    echelon, pivots = _fraction_echelon(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, col in zip(echelon, pivots):
            x[col] = -row[free]
        basis.append(x)
    return basis


def _socle_by_fractions(ideal, pattern, i):
    """dim ker(H^i(P) → ⊕_y H^i(P∖y)) over every Y at once, as
    dim Z^i(A) ∩ ⋂_y (C^i(A) ∩ im d^{i−1}_{B_y}) less rank d^{i−1}_A,
    with A = alive(P) and B_y = alive(P∖y), by Gaussian elimination over
    Fraction on slice_complex matrices."""
    level = monocech.slice_basis(ideal, pattern)[i]
    diffs = monocech.slice_complex(ideal, pattern).diffs
    # the equations of the intersection: d^i_A, then each W_y's annihilator
    equations = diffs[i].to_rows() if i < len(diffs) else []
    for y in sorted(ideal.context.y_indices):
        target = pattern - {y}
        t_level = monocech.slice_basis(ideal, target)[i]
        if not i:
            equations += _fraction_null_space([], len(level))  # W_y = 0
            continue
        d = monocech.slice_complex(ideal, target).diffs[i - 1]
        inside = set(level)
        # the cochains of B_y whose coboundary vanishes off A ...
        chains = _fraction_null_space(
            [row for sigma, row in zip(t_level, d.to_rows()) if sigma not in inside], d.ncols
        )
        on_a = dict(zip(t_level, d.to_rows()))
        # ... and those coboundaries, on A's coordinates, span W_y
        spanning = [[sum(a * b for a, b in zip(on_a[sigma], c)) for sigma in level] for c in chains]
        equations += _fraction_null_space(spanning, len(level))
    joint = len(level) - len(_fraction_echelon(equations, len(level))[1])
    coboundaries = len(_fraction_echelon(diffs[i - 1].to_rows(), diffs[i - 1].ncols)[1]) if i else 0
    return joint - coboundaries


def test_socle_matches_fraction_elimination_past_two_y(monkeypatch):
    # with three or more Y variables neither a long exact sequence nor
    # Mayer–Vietoris gives the joint rank; each corner is read alone, at
    # weight one, so koszul_homology_Y returns that corner's socle
    corner = []
    monkeypatch.setattr(LocalCohomologyModule, "patterns", lambda self: corner)
    monkeypatch.setattr(weylact, "x_lattice_count", lambda m, k, n: DimValue(1))
    ideals = [ideal for ideal in exhaustive_ideals(4) if ideal.context.d == 3]
    ideals += [ideal for ideal in LES_IDEALS[-400:] if ideal.context.d >= 3]
    corners = socles = joint = 0
    for ideal in ideals:
        y_all = ideal.context.y_indices
        profile = cohomology_profile(ideal)
        for i in range(profile.gen_count + 1):
            module = LocalCohomologyModule(ideal, i)
            for contributor in profile.contributors(i):
                pattern = contributor.pattern
                if not y_all <= pattern:
                    continue
                corner[:] = [pattern]
                socle = _socle_by_fractions(ideal, pattern, i)
                assert koszul_homology_Y(ideal, i, 0) == DimValue(socle), (ideal, i, pattern)
                corners += 1
                socles += bool(socle)
                # the joint rank beats every single crossing rank
                crossings = [module.crossing_rank(pattern, y) for y in y_all]
                joint += contributor.rank - socle > max(crossings)
    assert (len(ideals), corners, socles, joint) == (283, 255, 34, 19)


def test_euler_check_builds_each_matrix_once(monkeypatch):
    built = Counter()
    real_euler = weylact._euler_matrix

    def counting_euler(module, alpha):
        built[module.ideal, module.i, alpha] += 1
        return real_euler(module, alpha)

    monkeypatch.setattr(weylact, "_euler_matrix", counting_euler)
    expected = 0
    for ideal in [MIXED, YPLANE, MonomialIdeal(CTX2, [(1, 0), (0, 1)])]:
        report = verify.VerificationReport()
        shapes = verify._check_shapes(ideal, report)
        verify._check_euler(ideal, shapes, report)
        assert report.passed, report.to_json()
        for i, shape in shapes.items():
            if shape is not PatternShape.EMPTY:
                # two multidegrees per nonzero pattern
                expected += 2 * len(LocalCohomologyModule(ideal, i).patterns())
    assert expected > 0
    assert len(built) == expected
    assert set(built.values()) == {1}


def _euler_by_products(module, alpha):
    """Σ X_v ∂_v as the plain sum of full matrix products."""
    dim = module.piece_dim(alpha)
    total = weylact._zero_rows(dim, dim)
    for v in sorted(module.context.x_indices):
        down = module.derham_transition(alpha, v)
        back = module.transition(tuple(a - (t == v) for t, a in enumerate(alpha)), v)
        total = weylact._mat_add(total, weylact._matmul(back, down, dim))
    return total


class _JordanModule(weylact.PatternModulePresentation):
    """Two-dimensional pieces whose derivative is a Jordan block, nonzero
    at α_v = 0, so the Euler sum needs a real product across the wall."""

    def pattern_dim(self, pattern):
        return 2

    def transition(self, alpha, v):
        if alpha[v] == -1:
            return [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        return super().transition(alpha, v)

    def derham_transition(self, alpha, v):
        return [[Fraction(alpha[v]), Fraction(1)], [Fraction(0), Fraction(alpha[v])]]


def test_euler_matrix_matches_the_full_products():
    # a localization module raises at a wall, so its full products are
    # taken where no degree-1 exponent is 0 and none reaches one
    modules = [_JordanModule(CTX2)] + [
        LocalizationModule(ctx, inverted)
        for ctx in (CTX1, CTX2, CTX_MIX)
        for r in range(ctx.nvars + 1)
        for inverted in combinations(range(ctx.nvars), r)
    ]
    checked = 0
    for module in modules:
        x_indices = module.context.x_indices
        for alpha in product(range(-2, 3), repeat=module.context.nvars):
            if not module.piece_dim(alpha):
                continue
            if isinstance(module, LocalizationModule) and any(alpha[v] == 0 for v in x_indices):
                continue
            assert weylact._euler_matrix(module, alpha) == _euler_by_products(module, alpha)
            checked += 1
    # 25 Jordan points and 6 + 36 + 384 localization points
    assert checked == 451


def test_maps_off_the_crossings_are_integer_rows():
    modules = [
        LocalCohomologyModule(ideal, i)
        for ideal in exhaustive_ideals(3)
        for i in range(len(ideal.generators) + 1)
    ] + [
        LocalizationModule(ctx, inverted)
        for ctx in (CTX1, CTX2, CTX_MIX)
        for r in range(ctx.nvars + 1)
        for inverted in combinations(range(ctx.nvars), r)
    ]
    checked = 0
    for module in modules:
        ctx = module.context
        for alpha in product(range(-2, 3), repeat=ctx.nvars):
            if not module.piece_dim(alpha):
                continue
            maps = [module.transition(alpha, v) for v in range(ctx.nvars) if alpha[v] != -1]
            maps += [module.derham_transition(alpha, v) for v in sorted(ctx.x_indices)]
            maps.append(weylact._euler_matrix(module, alpha))
            assert all(type(x) is int for rows in maps for row in rows for x in row), (
                module, alpha,
            )
            checked += 1
    assert checked > 1000


def test_euler_check_builds_no_crossings():
    # the wall is only reached at α_v = 0, where the derivative is zero;
    # a transition across it raises ValueError, which the check would
    # record as a fail
    checked = 0
    for ideal in [*exhaustive_ideals(3), *random_battery(count=60, seed=5)]:
        report = verify.VerificationReport()
        shapes = verify._check_shapes(ideal, report)
        verify._check_euler(ideal, shapes, report)
        assert report.passed, report.to_json()
        checked += any(shape is not PatternShape.EMPTY for shape in shapes.values())
    assert checked > 50


# ---------------------------------------------------------------------------
# four-term sequences
# ---------------------------------------------------------------------------


def test_four_term_frozen():
    assert four_term_check(R1, 0, "derham", -1) is True
    assert four_term_check(E1, 0, "mult", 0) is True
    assert four_term_check(H2, 1, "mult", -1) is True
    with pytest.raises(ValueError):
        four_term_check(R1, 0, "divided", 0)


def test_four_term_all_probed_degrees():
    modules = [R1, RX, E1, R2, H2]
    for module in modules:
        for v in sorted(module.context.x_indices):
            for kind in ("mult", "derham"):
                for n in range(-10, 11):
                    assert four_term_check(module, v, kind, n) in (True, None)


def test_four_term_skips_on_infinite():
    assert four_term_check(MFREE, 1, "mult", 0) is None


def test_convention_offsets():
    assert KoszulConvention.MULT_SOURCE_OFFSET == -1
    assert KoszulConvention.DERHAM_SOURCE_OFFSET == 1


# ---------------------------------------------------------------------------
# socle extraction
# ---------------------------------------------------------------------------


def test_socle_yplane():
    for n in range(0, 11):
        assert koszul_homology_Y(YPLANE, 1, n) == fin(1)
    for n in range(-10, 0):
        assert koszul_homology_Y(YPLANE, 1, n) == fin(0)


def test_socle_free_components_vanish():
    ctx = VariableContext(("Y1",), ("X1", "X2"))
    free = MonomialIdeal(ctx, [(0, 1, 0), (0, 0, 1)])
    for n in (-3, -2, 0, 2):
        assert koszul_homology_Y(free, 2, n) == fin(0)


def test_socle_mixed_vanishes_both_indices():
    # Y1 multiplies the corner classes isomorphically, so no socle survives
    for i in (1, 2):
        for n in (-2, -1, 0, 1):
            assert koszul_homology_Y(MIXED, i, n) == fin(0)


def test_socle_rejects_no_y():
    with pytest.raises(ValueError):
        koszul_homology_Y(MonomialIdeal(CTX2, [(1, 0)]), 1, 0)


def _y_corners_with_targets(ideal, i):
    """The corners (patterns holding every Y) of the index-i module with a
    nonzero Y-target: the ones koszul_homology_Y ranks."""
    module = LocalCohomologyModule(ideal, i)
    y_all = ideal.context.y_indices
    return [
        pattern
        for pattern in module.patterns()
        if y_all <= pattern and any(module.pattern_dim(pattern - {y}) for y in y_all)
    ]


def test_socle_source_check_names_a_corner_off_by_one(monkeypatch):
    # |C^i| − rank d^i − rank d^{i−1} of the corner's slice must be the
    # profile's h^i there: a piece one too large at one corner is caught
    true_dim = LocalCohomologyModule.pattern_dim
    checked = 0
    for ideal in [MIXED, *verify.random_battery(count=40, seed=5)]:
        if not ideal.context.d:
            continue
        for i in range(len(ideal.generators) + 1):
            for corner in _y_corners_with_targets(ideal, i):
                h = true_dim(LocalCohomologyModule(ideal, i), corner)
                message = f"{h} cocycle classes, not {h + 1}, at pattern {sorted(corner)}"
                with monkeypatch.context() as patch, pytest.raises(AssertionError, match=re.escape(message)):
                    patch.setattr(
                        LocalCohomologyModule,
                        "pattern_dim",
                        lambda self, pattern, corner=corner: true_dim(self, pattern) + (pattern == corner),
                    )
                    koszul_homology_Y(ideal, i, 0)
                checked += 1
    assert checked == 42


def test_socle_builds_no_kernel_basis(monkeypatch):
    # the socle ranks one block matrix; nothing in the package solves for
    # cocycles, so neither the kernel basis nor its back step is reached
    def forbidden(*args):
        raise AssertionError("the socle built a kernel basis")

    monkeypatch.setattr(exactlin, "kernel_basis", forbidden)
    monkeypatch.setattr(exactlin, "_back", forbidden)
    assert not [m for m in (monocech, verify, weylact) if hasattr(m, "kernel_basis")]
    socles = corners = 0
    for case in verify.golden_corpus():
        for (i, n), expected in case.socles.items():
            assert koszul_homology_Y(case.ideal, i, n) == expected, (case.case_id, i, n)
            socles += 1
    for ideal in verify.random_battery(count=60, seed=5):
        ctx = ideal.context
        if not ctx.d:
            continue
        for i in range(len(ideal.generators) + 1):
            corners += len(_y_corners_with_targets(ideal, i))
            for n in {-ctx.m, 0, 2}:
                koszul_homology_Y(ideal, i, n)
    assert (socles, corners) == (29, 56)
