from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab.exactlin import cohomology_dims
from lclab.monocech import (
    INFINITE,
    UNIT_IDEAL,
    DimValue,
    InfiniteDimsError,
    MonomialIdeal,
    PatternShape,
    UnitIdealError,
    VariableContext,
    cohomology_profile,
    hilbert_pair,
    localize,
    normalize,
    pattern_report,
    piece_dimension,
    piece_nonzero,
    slice_complex,
    strand_dimension,
    support_dim,
    support_min_primes,
    x_lattice_count,
)
from lclab import monocech
from lclab.monocech import _alive_masks, _link_complex, _profile_normalized
from lclab.verify import exhaustive_ideals, random_battery

CTX_MIXED = VariableContext(("Y1", "Y2"), ("X1",))
MIXED = MonomialIdeal(CTX_MIXED, [(1, 1, 0), (1, 0, 1)])  # (Y1*Y2, Y1*X1)

CTX_X2 = VariableContext((), ("X1", "X2"))
MAXX2 = MonomialIdeal(CTX_X2, [(1, 0), (0, 1)])  # (X1, X2)
FREELINE = MonomialIdeal(CTX_X2, [(1, 0)])  # (X1) with two degree-1 variables

CTX_YLINE = VariableContext(("Y1",), ("X1",))
YPLANE = MonomialIdeal(CTX_YLINE, [(1, 0)])  # (Y1)

CTX_22 = VariableContext(("Y1", "Y2"), ("X1", "X2"))
CROSS = MonomialIdeal(
    CTX_22, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
)  # (Y1X1, Y1X2, Y2X1, Y2X2): both tails live at i=2


def profile_dict(ideal):
    return {
        tuple(sorted(s)): dims
        for s, dims in cohomology_profile(ideal).by_pattern.items()
    }


# ---------------------------------------------------------------------------
# contexts, ideals, normal form
# ---------------------------------------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        VariableContext(("Y1",), ())  # no degree-1 variables
    with pytest.raises(ValueError):
        VariableContext(("A", "A"), ("X",))
    assert CTX_MIXED.d == 2 and CTX_MIXED.m == 1
    assert CTX_MIXED.names == ("Y1", "Y2", "X1")
    assert CTX_MIXED.coarse_degree((5, -1, 3)) == 3
    assert CTX_MIXED.sign_pattern((0, -2, -1)) == frozenset({1, 2})


def test_cached_context_attributes_keep_value_semantics():
    names = (("Y1", "Y2"), ("X1", "X2", "X3"))
    read, fresh = VariableContext(*names), VariableContext(*names)
    derived = ("d", "m", "names", "nvars", "y_indices", "x_indices")
    values = {attr: getattr(read, attr) for attr in derived}
    # computed once: a second read returns the same object
    assert all(getattr(read, attr) is values[attr] for attr in derived)
    assert values == {
        "d": len(read.deg0),
        "m": len(read.deg1),
        "names": read.deg0 + read.deg1,
        "nvars": len(read.deg0) + len(read.deg1),
        "y_indices": frozenset(range(len(read.deg0))),
        "x_indices": frozenset(range(len(read.deg0), len(read.deg0) + len(read.deg1))),
    }
    # equality, hash and repr still see only the two blocks
    assert read == fresh and read is not fresh
    assert hash(read) == hash(fresh) == hash(names)
    expected = "VariableContext(deg0=('Y1', 'Y2'), deg1=('X1', 'X2', 'X3'))"
    assert repr(read) == repr(fresh) == expected
    assert read != VariableContext(("Y1",), ("Y2", "X1", "X2", "X3"))
    with pytest.raises(AttributeError):
        read.deg0 = ()


def test_ideal_hash_is_kept_and_keys_the_profile_cache():
    gens = [(2, 1, 0), (1, 0, 3), (3, 3, 3)]
    first, second = MonomialIdeal(CTX_MIXED, gens), MonomialIdeal(CTX_MIXED, gens)
    assert first == second and first is not second
    assert hash(first) == hash(second) == hash((CTX_MIXED, first.generators))
    assert hash(MIXED) == hash((MIXED.context, MIXED.generators))
    assert cohomology_profile(first) is cohomology_profile(second)


def test_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(CTX_X2, [])
    with pytest.raises(UnitIdealError):
        MonomialIdeal(CTX_X2, [(0, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(CTX_X2, [(1, -1)])
    assert MIXED.supports == (frozenset({0, 1}), frozenset({0, 2}))


def test_normalize_squarefree_and_pruning():
    # a monomial power normalizes to its support
    assert normalize(MonomialIdeal(CTX_MIXED, [(2, 0, 3)])).generators == ((1, 0, 1),)
    # support containment prunes the bigger generator
    two = MonomialIdeal(CTX_X2, [(1, 1), (2, 1)])
    assert normalize(two).generators == ((1, 1),)
    # no pruning between incomparable supports
    assert len(normalize(MIXED).generators) == 2
    # idempotent
    assert normalize(normalize(MIXED)) == normalize(MIXED)


# ---------------------------------------------------------------------------
# slices and profiles (frozen)
# ---------------------------------------------------------------------------


def test_slice_mixed_at_y1():
    c = slice_complex(MIXED, {0})
    assert list(c.levels) == [0, 2, 1]
    assert c.diffs[1].to_rows() == [[-1, 1]]


def test_slice_maxx2_at_full_pattern():
    c = slice_complex(MAXX2, {0, 1})
    assert list(c.levels) == [0, 0, 1]


def test_slice_dead_pattern_is_zero():
    # a pattern touching a variable outside every support kills everything
    c = slice_complex(MIXED, {1, 2})  # {Y2, X1}: only the top face survives
    assert list(c.levels) == [0, 0, 1]
    c2 = slice_complex(YPLANE, {0, 1})
    assert list(c2.levels) == [0, 0]


def test_profile_mixed_frozen():
    assert profile_dict(MIXED) == {
        (0,): (0, 1, 0),
        (1, 2): (0, 0, 1),
        (0, 1, 2): (0, 0, 1),
    }


def test_profile_maximal_x_frozen():
    assert profile_dict(MAXX2) == {(0, 1): (0, 0, 1)}
    ctx3 = VariableContext((), ("X1", "X2", "X3"))
    full3 = MonomialIdeal(ctx3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert profile_dict(full3) == {(0, 1, 2): (0, 0, 0, 1)}


def test_profile_yplane_frozen():
    assert profile_dict(YPLANE) == {(0,): (0, 1)}


def test_profile_cross_frozen():
    assert profile_dict(CROSS) == {
        (0, 1): (0, 0, 1, 0, 0),
        (2, 3): (0, 0, 1, 0, 0),
        (0, 1, 2, 3): (0, 0, 0, 1, 0),
    }


def test_profile_h_defaults_to_zero():
    prof = cohomology_profile(MIXED)
    assert prof.h(frozenset({2}), 1) == 0
    assert prof.h(frozenset({0}), 7) == 0  # beyond the generator count


def test_profile_h_is_zero_at_negative_indices():
    # a negative index must not wrap round to the top of the rank vector
    for ideal in (MIXED, MAXX2, CROSS):
        prof = cohomology_profile(ideal)
        for pattern in prof.patterns():
            assert prof.h(pattern, -1) == 0
            assert prof.h(pattern, -prof.gen_count - 1) == 0
    assert pattern_report(MAXX2, -1).shape is PatternShape.EMPTY
    assert piece_dimension(MAXX2, -1, -3) == DimValue(0)


def test_profile_cache_is_bounded():
    assert _profile_normalized.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# the per-ideal analysis object: normal form and contributors computed once
# ---------------------------------------------------------------------------


def _fresh_patterns_and_contributors(ideal, i):
    """Patterns and index-i contributors of an uncached profile, read off
    its rank table directly."""
    prof = _profile_normalized.__wrapped__(normalize(ideal))
    x_vars = ideal.context.x_indices
    patterns = sorted(prof.by_pattern, key=lambda s: (len(s), sorted(s)))
    contributors = []
    for pattern in patterns:
        dims = prof.by_pattern[pattern]
        if 0 <= i < len(dims) and dims[i]:
            contributors.append((pattern, dims[i], len(pattern & x_vars)))
    return patterns, contributors


def _try_to_mutate(container):
    for attempt in (
        lambda: container.append(None),
        lambda: container.clear(),
        lambda: container.__setitem__(0, None),
    ):
        try:
            attempt()
        except (AttributeError, TypeError, IndexError):
            pass


@pytest.mark.parametrize(
    "ideals",
    [lambda: exhaustive_ideals(3), lambda: random_battery(count=30, seed=5)],
    ids=["exhaustive-3", "battery-5"],
)
def test_cached_contributors_match_a_fresh_computation(ideals):
    for ideal in ideals():
        prof = cohomology_profile(ideal)
        g = len(normalize(ideal).supports)
        for i in range(-1, g + 2):
            patterns, contributors = _fresh_patterns_and_contributors(ideal, i)
            assert list(prof.patterns()) == patterns, ideal
            got = prof.contributors(i)
            assert [(c.pattern, c.rank, c.k) for c in got] == contributors, (ideal, i)
            _try_to_mutate(got)
            _try_to_mutate(prof.patterns())
            assert [tuple(c) for c in cohomology_profile(ideal).contributors(i)] == contributors
            assert list(cohomology_profile(ideal).patterns()) == patterns


def test_normal_form_is_computed_once_per_ideal():
    gens = [(2, 1, 0), (1, 0, 3), (3, 3, 3)]
    first, second = MonomialIdeal(CTX_MIXED, gens), MonomialIdeal(CTX_MIXED, gens)
    assert first == second and first is not second
    assert normalize(first) == normalize(second)
    # kept on each ideal, not in a shared cache
    assert normalize(first) is normalize(first)
    assert normalize(first) is not normalize(second)
    norm = normalize(first)
    assert norm.generators == ((1, 1, 0), (1, 0, 1))
    assert normalize(norm) is norm
    # an ideal already in normal form is its own normal form
    assert normalize(MIXED) is MIXED


# ---------------------------------------------------------------------------
# link-complex engine against the generator-side slice complex
# ---------------------------------------------------------------------------


def _assert_profile_matches_slices(ideal):
    prof = cohomology_profile(ideal)
    zero = (0,) * (prof.gen_count + 1)
    nvars = ideal.context.nvars
    for r in range(nvars + 1):
        for subset in combinations(range(nvars), r):
            pattern = frozenset(subset)
            expected = cohomology_dims(slice_complex(ideal, pattern))
            assert prof.by_pattern.get(pattern, zero) == expected, (ideal, subset)


def test_link_profile_matches_slices_exhaustively():
    for ideal in exhaustive_ideals(4):
        _assert_profile_matches_slices(ideal)


def test_link_profile_matches_slices_on_random_battery():
    for ideal in random_battery(count=120, seed=7, max_nvars=7):
        _assert_profile_matches_slices(ideal)


def _edge_ideal(n, edges):
    ctx = VariableContext((), tuple(f"X{j}" for j in range(1, n + 1)))
    return MonomialIdeal(ctx, [tuple(1 if v in e else 0 for v in range(n)) for e in edges])


@pytest.mark.parametrize(
    "ideal",
    [
        _edge_ideal(8, [(j, (j + 1) % 8) for j in range(8)]),
        _edge_ideal(5, list(combinations(range(5), 2))),
    ],
    ids=["C8", "K5"],
)
def test_cone_pruned_patterns_are_exactly_the_zero_ones(ideal):
    prof = cohomology_profile(ideal)
    masks = [sum(1 << v for v in s) for s in normalize(ideal).supports]
    nvars = ideal.context.nvars
    for r in range(1, nvars + 1):
        for subset in combinations(range(nvars), r):
            cone = _is_cone_by_scan(masks, subset)
            assert cone == (frozenset(subset) not in prof.by_pattern), subset


def _covers_by_scan(supports, pattern, sigma_mask):
    covered = frozenset()
    for j, support in enumerate(supports):
        if sigma_mask >> j & 1:
            covered |= support
    return pattern <= covered


@pytest.mark.parametrize(
    "ideals",
    [lambda: exhaustive_ideals(3), lambda: random_battery(count=60, seed=5)],
    ids=["exhaustive-3", "battery-5"],
)
def test_alive_masks_is_the_family_that_covers_the_pattern(ideals):
    for ideal in ideals():
        supports = normalize(ideal).supports
        g, nvars = len(supports), ideal.context.nvars
        for r in range(nvars + 1):
            for subset in combinations(range(nvars), r):
                pattern = frozenset(subset)
                expected = sum(
                    1 << sigma for sigma in range(1 << g) if _covers_by_scan(supports, pattern, sigma)
                )
                assert _alive_masks(supports, pattern) == expected, (ideal, subset)


# ---------------------------------------------------------------------------
# Alexander duality: the link complex K|_P against its dual D_P inside P
# ---------------------------------------------------------------------------


def _dual_faces_by_scan(masks, pattern_mask):
    """Faces of D_P = {S ⊆ P : no supp_j ∩ P lies in S}, from all 2^|P| subsets."""
    bits = [1 << v for v in range(pattern_mask.bit_length()) if pattern_mask >> v & 1]
    faces = set()
    for choice in range(1 << len(bits)):
        s = sum(b for j, b in enumerate(bits) if choice >> j & 1)
        if not any(m & pattern_mask & ~s == 0 for m in masks):
            faces.add(s)
    return faces


def _link_faces_by_scan(masks, pattern_mask):
    """Faces of K|_P = {S ⊆ P : some supp_j misses S}, from all 2^|P| subsets."""
    bits = [1 << v for v in range(pattern_mask.bit_length()) if pattern_mask >> v & 1]
    faces = set()
    for choice in range(1 << len(bits)):
        s = sum(b for j, b in enumerate(bits) if choice >> j & 1)
        if any(not m & s for m in masks):
            faces.add(s)
    return faces


def _is_cone_by_scan(masks, subset):
    """Whether K|_P is a cone: some v ∈ P with F ∪ {v} a face for every face F."""
    faces = _link_faces_by_scan(masks, sum(1 << v for v in subset))
    return any(all(f | 1 << v in faces for f in faces) for v in subset)


def _assert_sides_agree(ideal):
    supports = normalize(ideal).supports
    masks = [sum(1 << v for v in s) for s in supports]
    union = sorted(frozenset().union(*supports))
    for r in range(1, len(union) + 1):
        for subset in combinations(union, r):
            if _is_cone_by_scan(masks, subset):
                continue
            pattern_mask = sum(1 << v for v in subset)
            restricted = {m & pattern_mask for m in masks}
            minimal = [t for t in restricted if not any(u != t and u & t == u for u in restricted)]
            by_scan = _dual_faces_by_scan(masks, pattern_mask)
            # with room for every subset of P the search lists every face once
            found = monocech._dual_faces(minimal, pattern_mask, 1 << r)
            assert len(found) == len(by_scan) and set(found) == by_scan, (ideal, subset)
            link = cohomology_dims(_link_complex(_link_faces_by_scan(masks, pattern_mask)))
            dual = cohomology_dims(_link_complex(by_scan))
            assert len(link) <= r and len(dual) <= r, (ideal, subset)
            # H̃^j(K|_P) sits at index j+1, H̃^{r-j-3}(D_P) at index r-j-2
            for j in range(-1, r - 1):
                k_side = link[j + 1] if j + 1 < len(link) else 0
                d_side = dual[r - j - 2] if r - j - 2 < len(dual) else 0
                assert k_side == d_side, (ideal, subset, j)


@pytest.mark.parametrize(
    "ideals",
    [lambda: exhaustive_ideals(4), lambda: random_battery(count=120, seed=7)],
    ids=["exhaustive-4", "battery-7"],
)
def test_link_and_dual_sides_agree(ideals):
    for ideal in ideals():
        _assert_sides_agree(ideal)


def _cycle(n):
    return _edge_ideal(n, [(j, (j + 1) % n) for j in range(n)])


def _built_complexes(monkeypatch, ideal, decisions=None):
    """Cells of every complex a cold profile builds, and how many patterns
    went to the dual side and how many to the link side; each side choice
    is also appended to ``decisions`` as (pattern mask, whether D_P was
    taken)."""
    cells, sides = [], {"dual": 0, "link": 0}
    real_complex, real_dual = monocech._link_complex, monocech._dual_faces

    def counting_complex(faces):
        complex_ = real_complex(faces)
        cells.append(sum(complex_.levels))
        return complex_

    def counting_dual(minimal, pattern_mask, cap):
        faces = real_dual(minimal, pattern_mask, cap)
        sides["link" if faces is None else "dual"] += 1
        if decisions is not None:
            decisions.append((pattern_mask, faces is not None))
        return faces

    monkeypatch.setattr(monocech, "_link_complex", counting_complex)
    monkeypatch.setattr(monocech, "_dual_faces", counting_dual)
    _profile_normalized.__wrapped__(normalize(ideal))
    monkeypatch.undo()
    return cells, sides


def test_each_pattern_is_computed_on_the_smaller_side(monkeypatch):
    # C12: K|_P reaches 3,774 cells on some pattern, D_P at most 322
    cells, sides = _built_complexes(monkeypatch, _cycle(12))
    assert len(cells) == 192 and max(cells) <= 400
    assert sides == {"dual": 192, "link": 0}
    # (X1⋯X10): every K|_P is the empty face alone, D_P is a sphere
    principal = MonomialIdeal(VariableContext((), tuple(f"X{j}" for j in range(1, 11))), [(1,) * 10])
    cells, sides = _built_complexes(monkeypatch, principal)
    assert len(cells) == 1023 and sum(cells) <= 1100
    assert sides["link"] > 0


def test_the_dual_side_is_taken_exactly_when_it_has_no_more_faces(monkeypatch):
    taken = set()
    for ideal in random_battery(count=120, seed=7):
        decisions = []
        _built_complexes(monkeypatch, ideal, decisions)
        masks = [sum(1 << v for v in s) for s in normalize(ideal).supports]
        for pattern_mask, took_dual in decisions:
            dual_faces = len(_dual_faces_by_scan(masks, pattern_mask))
            # the non-faces of K|_P are the complements of the faces of D_P
            link_faces = (1 << pattern_mask.bit_count()) - dual_faces
            assert took_dual == (dual_faces <= link_faces), (ideal, pattern_mask)
            taken.add(took_dual)
    assert taken == {True, False}


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def test_shapes_frozen():
    assert pattern_report(MAXX2, 2).shape is PatternShape.NEG_TAIL_ONLY
    assert pattern_report(MIXED, 1).shape is PatternShape.NONNEG_ONLY
    assert pattern_report(MIXED, 2).shape is PatternShape.NEG_TAIL_ONLY
    assert pattern_report(FREELINE, 1).shape is PatternShape.ALL_Z
    assert pattern_report(MAXX2, 1).shape is PatternShape.EMPTY
    assert pattern_report(CROSS, 2).shape is PatternShape.TWO_TAILS
    assert pattern_report(CROSS, 3).shape is PatternShape.NEG_TAIL_ONLY


def test_shape_descriptions():
    assert pattern_report(MAXX2, 2).describe() == "n <= -2"
    assert pattern_report(MIXED, 1).describe() == "n >= 0"
    assert pattern_report(MIXED, 2).describe() == "n <= -1"
    assert pattern_report(FREELINE, 1).describe() == "all n"
    assert pattern_report(CROSS, 2).describe() == "n <= -2 or n >= 0"


def test_contributor_metadata():
    report = pattern_report(CROSS, 2)
    triples = [(tuple(sorted(c.pattern)), c.rank, c.k) for c in report.contributors]
    assert triples == [((0, 1), 1, 0), ((2, 3), 1, 2)]


def test_piece_nonzero_frozen():
    assert piece_nonzero(MAXX2, 2, -2)
    assert not piece_nonzero(MAXX2, 2, -1)
    assert piece_nonzero(MIXED, 1, 0)
    assert not piece_nonzero(MIXED, 1, -1)
    for n in (-3, 0, 2):
        assert not piece_nonzero(MIXED, 0, n)
    assert piece_nonzero(CROSS, 2, -2) and piece_nonzero(CROSS, 2, 0)
    assert not piece_nonzero(CROSS, 2, -1)


def test_piece_nonzero_matches_the_report_without_building_one(monkeypatch):
    real_report = monocech.pattern_report
    reports = []

    def counting_report(ideal, i):
        reports.append((ideal, i))
        return real_report(ideal, i)

    monkeypatch.setattr(monocech, "pattern_report", counting_report)
    checked = 0
    for ideal in [*exhaustive_ideals(3), *random_battery(count=60, seed=5)]:
        m = ideal.context.m
        for i in range(len(ideal.generators) + 2):
            shape = real_report(ideal, i).shape
            for n in range(-m - 3, 4):
                assert piece_nonzero(ideal, i, n) == shape.contains(n, m), (ideal, i, n)
                checked += 1
    assert checked > 1000
    assert not reports


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_x_lattice_count_frozen():
    assert x_lattice_count(0, 0, 0) == DimValue(1)
    assert x_lattice_count(0, 0, 3) == DimValue(0)
    assert x_lattice_count(2, 0, 4) == DimValue(5)
    assert x_lattice_count(2, 2, -2) == DimValue(1)
    assert x_lattice_count(2, 2, -3) == DimValue(2)
    assert x_lattice_count(2, 2, -1) == DimValue(0)
    assert x_lattice_count(3, 1, 100) is INFINITE


def test_dimvalue_arithmetic():
    assert DimValue(2) + DimValue(3) == DimValue(5)
    assert DimValue(2) + INFINITE == INFINITE
    assert INFINITE.scaled(4) == INFINITE
    assert INFINITE.scaled(0) == DimValue(0)
    assert DimValue(3).scaled(2) == DimValue(6)
    assert DimValue(0).to_json() == 0 and INFINITE.to_json() == "infinite"
    with pytest.raises(ValueError):
        DimValue(-1)


def test_piece_dimension_frozen():
    assert piece_dimension(MAXX2, 2, -2) == DimValue(1)
    assert piece_dimension(MAXX2, 2, -3) == DimValue(2)
    assert piece_dimension(MAXX2, 2, 0) == DimValue(0)
    assert piece_dimension(FREELINE, 1, 5) == INFINITE
    assert piece_dimension(FREELINE, 1, -17) == INFINITE


def test_piece_dimension_rejects_positive_d():
    with pytest.raises(ValueError):
        piece_dimension(MIXED, 1, 0)


def test_strand_dimension_frozen():
    assert strand_dimension(YPLANE, 1, (-1,), 3) == DimValue(1)
    assert strand_dimension(YPLANE, 1, (0,), 3) == DimValue(0)
    assert strand_dimension(MIXED, 1, (-1, 0), 0) == DimValue(1)
    assert strand_dimension(MIXED, 2, (-1, -1), -1) == DimValue(1)
    assert strand_dimension(MIXED, 2, (0, -1), -1) == DimValue(1)
    assert strand_dimension(MIXED, 1, (-1, -1), 0) == DimValue(0)
    with pytest.raises(ValueError):
        strand_dimension(MIXED, 1, (-1,), 0)


def test_strand_equals_piece_when_no_degree_zero_vars():
    for i in range(3):
        for n in range(-5, 4):
            assert strand_dimension(MAXX2, i, (), n) == piece_dimension(MAXX2, i, n)


# ---------------------------------------------------------------------------
# Hilbert data
# ---------------------------------------------------------------------------


def test_hilbert_pair_maxx2():
    f, g = hilbert_pair(MAXX2, 2)
    assert f.coeffs == (Fraction(0), Fraction(-1))  # −binom(n+1,1) = −n−1
    assert (f.side, f.bound) == ("le", -2)
    assert f.render() == "-n - 1"
    assert g.is_zero() and (g.side, g.bound) == ("ge", 0)
    assert f.degree == 1  # = m − 1


def test_hilbert_pair_empty_shape():
    f, g = hilbert_pair(MAXX2, 1)
    assert f.is_zero() and g.is_zero()


def test_hilbert_pair_m1():
    ctx = VariableContext((), ("X1",))
    line = MonomialIdeal(ctx, [(1,)])
    f, g = hilbert_pair(line, 1)
    assert f.coeffs == (Fraction(1),)  # constant 1 on n ≤ −1
    assert (f.side, f.bound) == ("le", -1)
    assert g.is_zero()


def test_hilbert_pair_infinite_dims():
    with pytest.raises(InfiniteDimsError):
        hilbert_pair(FREELINE, 1)
    with pytest.raises(ValueError):
        hilbert_pair(MIXED, 1)  # d ≥ 1


def test_hilbert_matches_piece_dimension_on_validity_ranges():
    for m in (2, 3):
        ctx = VariableContext((), tuple(f"X{t}" for t in range(1, m + 1)))
        gens = [tuple(1 if t == s else 0 for t in range(m)) for s in range(m)]
        ideal = MonomialIdeal(ctx, gens)
        for i in range(m + 1):
            f, g = hilbert_pair(ideal, i)
            for n in range(-m - 10, -m + 1):
                assert f.evaluate(n) == piece_dimension(ideal, i, n).value
            for n in range(0, 11):
                assert g.evaluate(n) == piece_dimension(ideal, i, n).value


# ---------------------------------------------------------------------------
# localization and support
# ---------------------------------------------------------------------------


def test_localize_frozen():
    assert localize(MIXED, {1}) == normalize(
        MonomialIdeal(CTX_MIXED, [(1, 0, 0)])
    )  # invert Y2: (Y1)
    assert localize(YPLANE, {0}) is UNIT_IDEAL
    assert localize(MAXX2, frozenset()) == normalize(MAXX2)
    assert localize(MIXED, {0}) == normalize(
        MonomialIdeal(CTX_MIXED, [(0, 1, 0), (0, 0, 1)])
    )  # invert Y1: (Y2, X1)
    with pytest.raises(ValueError):
        localize(MIXED, {2})  # degree-1 variables cannot be inverted


def test_support_min_primes_frozen():
    assert support_min_primes(MIXED, 1, 0) == frozenset({frozenset({0})})
    assert support_min_primes(MIXED, 2, -1) == frozenset({frozenset({1})})
    assert support_min_primes(MIXED, 1, -1) == frozenset()
    assert support_min_primes(YPLANE, 1, 2) == frozenset({frozenset({0})})
    # free components survive inverting everything: the zero ideal
    ctx = VariableContext(("Y1",), ("X1", "X2"))
    free = MonomialIdeal(ctx, [(0, 1, 0), (0, 0, 1)])
    assert support_min_primes(free, 2, -2) == frozenset({frozenset()})


def test_support_dim_frozen():
    assert support_dim(MIXED, 1, 0) == 1
    assert support_dim(MIXED, 2, -1) == 1
    assert support_dim(MIXED, 1, -1) == -1
    ctx = VariableContext(("Y1", "Y2", "Y3"), ("X1", "X2"))
    free = MonomialIdeal(ctx, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert support_dim(free, 2, -2) == 3


def test_localized_piece_matches_min_primes():
    """The minimal primes really are the minimal surviving localizations."""
    ctx = MIXED.context
    for i in (1, 2):
        for n in (-2, -1, 0, 2):
            mins = support_min_primes(MIXED, i, n)
            for t in ({0}, {1}, {0, 1}, set()):
                t = frozenset(t)
                localized = localize(MIXED, ctx.y_indices - t)
                if localized is UNIT_IDEAL:
                    survives = False
                else:
                    survives = any(
                        c.degree_range_contains(n, ctx.m)
                        for c in cohomology_profile(localized).contributors(i)
                        if not c.pattern & (ctx.y_indices - t)
                    )
                assert survives == any(p <= t for p in mins)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@st.composite
def small_ideals(draw):
    d = draw(st.integers(min_value=0, max_value=2))
    m = draw(st.integers(min_value=1, max_value=3))
    ctx = VariableContext(
        tuple(f"Y{j}" for j in range(1, d + 1)),
        tuple(f"X{j}" for j in range(1, m + 1)),
    )
    nvars = d + m
    gens = draw(
        st.lists(
            st.sets(
                st.integers(min_value=0, max_value=nvars - 1), min_size=1
            ).map(lambda s: tuple(1 if v in s else 0 for v in range(nvars))),
            min_size=1,
            max_size=4,
        )
    )
    return MonomialIdeal(ctx, gens)


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_h0_always_vanishes(ideal):
    """Torsion of a nonzero proper ideal in a domain starts at index 1."""
    prof = cohomology_profile(ideal)
    for pattern in prof.patterns():
        assert prof.h(pattern, 0) == 0


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_empty_pattern_never_contributes(ideal):
    assert frozenset() not in cohomology_profile(ideal).by_pattern


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.integers(min_value=0, max_value=4))
def test_shape_is_union_of_contributor_ranges(ideal, i):
    report = pattern_report(ideal, i)
    m = ideal.context.m
    for n in range(-m - 3, 4):
        expected = any(c.degree_range_contains(n, m) for c in report.contributors)
        assert report.shape.contains(n, m) == expected


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.data())
def test_redundant_generator_changes_nothing(ideal, data):
    """Appending a product of existing generators leaves the profile alone."""
    gens = list(ideal.generators)
    j = data.draw(st.integers(min_value=0, max_value=len(gens) - 1))
    k = data.draw(st.integers(min_value=0, max_value=len(gens) - 1))
    product = tuple(a + b for a, b in zip(gens[j], gens[k]))
    bigger = MonomialIdeal(ideal.context, gens + [product])
    assert profile_dict(bigger) == profile_dict(ideal)
    for i in range(len(gens) + 2):
        a, b = pattern_report(ideal, i), pattern_report(bigger, i)
        assert (a.shape, a.contributors) == (b.shape, b.contributors)


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.data())
def test_localization_keeps_untouched_patterns(ideal, data):
    """Inverting W deletes W-touching patterns and preserves the rest."""
    ctx = ideal.context
    invert = frozenset(
        data.draw(
            st.sets(st.sampled_from(sorted(ctx.y_indices)))
            if ctx.d
            else st.just(set())
        )
    )
    localized = localize(ideal, invert)
    base = cohomology_profile(ideal)
    if localized is UNIT_IDEAL:
        # every contributing pattern must have met the inverted set
        for pattern in base.patterns():
            assert pattern & invert
        return
    loc = cohomology_profile(localized)
    for pattern in set(base.patterns()) | set(loc.patterns()):
        if pattern & invert:
            assert pattern not in loc.by_pattern
        else:
            for i in range(max(base.gen_count, loc.gen_count) + 1):
                assert base.h(pattern, i) == loc.h(pattern, i)
