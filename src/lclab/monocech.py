"""Sign-pattern engine for graded pieces of torsion cohomology of monomial ideals.

The ambient ring is K[Y_1..Y_d][X_1..X_m] with deg Y = 0 and deg X = 1,
char K = 0.  Variables are indexed 0..d-1 (the Y block) then d..d+m-1
(the X block).  Every multidegree α sees, inside the generator-indexed
Čech complex, a finite slice that depends only on the sign pattern
P = N(α) = {v : α_v < 0}.  The profile takes each slice's cohomology on
the variable side instead, by Mustaţă's formula: for nonempty P,

    h^i(P) = H̃^{i−2}(K|_P),   K = {Q : some generator support misses Q},

so the work follows the variables in P rather than the subsets of the
generators.  Everything about a pattern is read off one list, computed
once: the minimal restricted supports, the inclusion-minimal sets
supp_j ∩ P.  The facets of K|_P are the sets P∖r for r in that list, so
K|_P is a cone, hence acyclic, exactly when some variable of P lies in
no r, and such a pattern is skipped without linear algebra.  Every other
pattern is computed on the smaller side of Alexander duality: the dual
of K|_P inside P is D_P = {S ⊆ P : no supp_j ∩ P lies in S}, the sets
containing no r, and combinatorial Alexander duality (Björner–Tancer,
Discrete Comput. Geom. 42, 2009) gives

    h^i(P) = H̃^{|P|−i−1}(D_P).

The non-faces of K|_P are the complements of the faces of D_P, so the
two face counts add up to 2^|P|.  Each pattern's faces are enumerated
once, on one side: the search of D_P lists its faces until it knows D_P
is the larger side, and only then are K|_P's facets expanded into
faces; the complex is built from that face list.  One function,
_pattern_dims, does all of this for one pattern: the profile loops it
over the patterns, and each Koszul crossing calls it once, for the link
of v at P∖v.  The Y-socle reads K|_P as well: _link_faces lists its
faces for the profile and the socle alike, and _link_window gives the
socle the level that carries h^i with its two coboundaries.  The
generator-side slices (slice_basis, slice_complex) are test references
that no library path calls; they and the window oracle's _cech_dims
build through _complex_from_basis, which the engine never calls.  From
the profile this module derives nonvanishing shapes, dimensions,
Hilbert data, localizations and supports.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import combinations

from .exactlin import (
    ExactMatrix,
    FiniteComplex,
    IntegerPolynomial,
    binom_ext,
    cohomology_dims,
)


class UnitIdealError(ValueError):
    """A generator is the constant 1, so the ideal is the whole ring."""


class InfiniteDimsError(ValueError):
    """A requested closed form does not exist because some piece is infinite-dimensional."""


class ShapeViolationError(AssertionError):
    """A nonvanishing set escaped the five admissible shapes.

    This must never fire: raising it means either an engine bug or a
    counterexample to the classification it encodes.
    """


class VariableContext(namedtuple("VariableContext", "deg0 deg1")):
    """Named variables with the (0,1)-degree split: deg0 = Y block, deg1 = X block.

    An immutable named tuple of the two blocks, so equality, hash and repr
    read only ``deg0`` and ``deg1``.  The attributes derived from them are
    computed on first read and kept in the instance dict.
    """

    def __new__(cls, deg0, deg1):
        self = super().__new__(cls, tuple(deg0), tuple(deg1))
        if len(self.deg1) < 1:
            raise ValueError("need at least one degree-1 variable")
        names = self.deg0 + self.deg1
        if any(not isinstance(s, str) or not s for s in names):
            raise ValueError("variable names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: VariableContext is immutable")

    @cached_property
    def d(self):
        return len(self.deg0)

    @cached_property
    def m(self):
        return len(self.deg1)

    @cached_property
    def names(self):
        return self.deg0 + self.deg1

    @cached_property
    def nvars(self):
        return self.d + self.m

    @cached_property
    def y_indices(self):
        return frozenset(range(self.d))

    @cached_property
    def x_indices(self):
        return frozenset(range(self.d, self.d + self.m))

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def coarse_degree(self, alpha):
        """Sum of the degree-1 coordinates of a multidegree."""
        return sum(alpha[v] for v in range(self.d, self.d + self.m))

    def sign_pattern(self, alpha):
        """N(α) = the set of variables with strictly negative exponent."""
        if len(alpha) != self.nvars:
            raise ValueError("multidegree length mismatch")
        return frozenset(v for v, a in enumerate(alpha) if a < 0)


class MonomialIdeal:
    """A monomial ideal given by generator exponent vectors.

    Exponents are kept as written (for display and for the brute-force
    oracle); everything cohomological only reads the squarefree supports.
    The normal form is kept on the ideal once ``normalize`` has computed
    it, and its hash from the start; the ideal is immutable, so neither
    goes stale.
    """

    __slots__ = ("context", "generators", "_supports", "_normal", "_hash")

    def __init__(self, context, generators):
        generators = tuple(tuple(int(e) for e in g) for g in generators)
        if not generators:
            raise ValueError("need at least one generator (the zero ideal is rejected)")
        for g in generators:
            if len(g) != context.nvars:
                raise ValueError(f"generator {g} has wrong length for {context.nvars} variables")
            if any(e < 0 for e in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise UnitIdealError("a generator is the constant 1")
        self.context = context
        self.generators = generators
        self._supports = tuple(
            frozenset(v for v, e in enumerate(g) if e > 0) for g in generators
        )
        self._normal = None
        self._hash = hash((context, generators))

    @property
    def supports(self):
        return self._supports

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.context == other.context and self.generators == other.generators

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonomialIdeal({', '.join(self.render_generator(j) for j in range(len(self.generators)))})"

    def render_generator(self, j):
        names = self.context.names
        parts = [
            names[v] if e == 1 else f"{names[v]}^{e}"
            for v, e in enumerate(self.generators[j])
            if e
        ]
        return "*".join(parts)

    def spec_dict(self):
        """Round-trippable plain-data form (the CLI input format)."""
        return {
            "deg0_vars": list(self.context.deg0),
            "deg1_vars": list(self.context.deg1),
            "generators": [self.render_generator(j) for j in range(len(self.generators))],
        }


class _UnitIdeal:
    """Flag value for the unit ideal (all cohomology vanishes by definition)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UnitIdeal"


UNIT_IDEAL = _UnitIdeal()


def normalize(ideal):
    """Radical-and-prune normal form: squarefree generators, deduplicated,
    supports strictly containing another support dropped.

    Torsion cohomology only depends on the radical, and a generator whose
    support contains another's is redundant after taking radicals; the
    brute-force oracle independently tests that pruning changes nothing.
    The result is computed once per ideal and kept on it; an ideal that
    is already in normal form is its own normal form.
    """
    if ideal._normal is not None:
        return ideal._normal
    supports = set(ideal.supports)
    kept = sorted(
        (s for s in supports if not any(t < s for t in supports)),
        key=lambda s: (len(s), sorted(s)),
    )
    gens = tuple(
        tuple(1 if v in s else 0 for v in range(ideal.context.nvars)) for s in kept
    )
    normal = ideal if gens == ideal.generators else MonomialIdeal(ideal.context, gens)
    normal._normal = normal
    ideal._normal = normal
    return normal


# ---------------------------------------------------------------------------
# Slice complexes and cohomology profiles
# ---------------------------------------------------------------------------


def _complex_from_basis(basis):
    """The Čech complex on per-level generator subsets (level p lists
    p-tuples of generator indices); the differential carries the usual
    (−1)^position signs under the fixed generator order."""
    index = [{sigma: col for col, sigma in enumerate(level)} for level in basis]
    diffs = []
    for p in range(len(basis) - 1):
        entries = {}
        for row, tau in enumerate(basis[p + 1]):
            for t in range(len(tau)):
                sigma = tau[:t] + tau[t + 1 :]
                col = index[p].get(sigma)
                if col is not None:
                    entries[(row, col)] = -1 if t % 2 else 1
        diffs.append(ExactMatrix(len(basis[p + 1]), len(basis[p]), entries))
    return FiniteComplex([len(level) for level in basis], diffs)


@lru_cache(maxsize=65536)
def _cech_dims(alive, g):
    """Cohomology dimensions for an upward-closed family of generator subsets,
    given as an alive family (bit σ set when σ is alive).

    Keyed only by the alive family so distinct multidegrees (and distinct
    ideals) with the same combinatorics share one rank computation.
    """
    basis = [[] for _ in range(g + 1)]
    for mask in range(1 << g):
        if alive >> mask & 1:
            sigma = tuple(j for j in range(g) if mask >> j & 1)
            basis[len(sigma)].append(sigma)
    return cohomology_dims(_complex_from_basis(basis))


def slice_basis(ideal, pattern):
    """Per-level basis of the slice at sign pattern ``pattern``: level p
    lists the p-subsets σ of the generators with pattern ⊆ supp(m_σ), in
    ``combinations`` order.

    This is the literal rule, a reference for the tests: no library path
    calls it or slice_complex, and both keep their names here because the
    span tracer in bench/tracer.py wraps them by name.
    """
    supports = normalize(ideal).supports
    pattern = frozenset(pattern)

    def covers(sigma):
        return pattern <= frozenset().union(*(supports[j] for j in sigma))

    g = len(supports)
    return [[sigma for sigma in combinations(range(g), p) if covers(sigma)] for p in range(g + 1)]


def slice_complex(ideal, pattern):
    """The finite complex seen at any multidegree with sign pattern
    ``pattern``, on the basis slice_basis lists."""
    return _complex_from_basis(slice_basis(ideal, pattern))


class CohomologyProfile:
    """The per-ideal analysis object: slice cohomology rank vectors
    (h^0..h^g) by sign pattern, with the sorted patterns and each index's
    contributors computed once, as tuples, for every query to read.

    Only patterns with some nonzero rank are stored; everything else is
    zero, including every pattern containing a variable outside all
    generator supports.
    """

    __slots__ = ("ideal", "gen_count", "by_pattern", "_patterns", "_contributors")

    def __init__(self, ideal, gen_count, by_pattern):
        self.ideal = ideal
        self.gen_count = gen_count
        self.by_pattern = dict(by_pattern)
        self._patterns = tuple(sorted(self.by_pattern, key=lambda s: (len(s), sorted(s))))
        x_vars = ideal.context.x_indices
        width = max(map(len, self.by_pattern.values()), default=0)
        self._contributors = tuple(
            tuple(
                Contributor(pattern, self.by_pattern[pattern][i], len(pattern & x_vars))
                for pattern in self._patterns
                if self.h(pattern, i)
            )
            for i in range(width)
        )

    def h(self, pattern, i):
        dims = self.by_pattern.get(frozenset(pattern))
        if dims is None or not 0 <= i < len(dims):
            return 0
        return dims[i]

    def patterns(self):
        return self._patterns

    def contributors(self, i):
        """All (pattern, rank, k) with h^i ≠ 0, k = the degree-1 part size."""
        return self._contributors[i] if 0 <= i < len(self._contributors) else ()

    def __repr__(self):
        return f"CohomologyProfile({self.ideal!r}, {len(self.by_pattern)} patterns)"


def _link_levels(faces):
    """Faces grouped by vertex count (level 0 is the empty face), each level
    in increasing mask order."""
    levels = [[] for _ in range(max(f.bit_count() for f in faces) + 1)]
    for q in sorted(faces):
        levels[q.bit_count()].append(q)
    return levels


def _coboundary(lower, upper):
    """The coboundary from the faces ``lower`` to the faces ``upper``, one
    vertex larger, every face of ``upper`` having its facets in ``lower``;
    the t-th vertex of a face in increasing order carries the sign (−1)^t."""
    index = {q: col for col, q in enumerate(lower)}
    entries = {}
    for row, tau in enumerate(upper):
        rest, t = tau, 0
        while rest:
            low = rest & -rest
            entries[(row, index[tau ^ low])] = -1 if t % 2 else 1
            rest ^= low
            t += 1
    return ExactMatrix(len(upper), len(lower), entries)


def _link_complex(faces):
    """Augmented simplicial cochain complex of a simplicial complex given by
    all of its faces, each once, as bitmasks (K|_P or its Alexander dual
    D_P), on the levels _link_levels lists.

    Kept apart from _complex_from_basis, through which only the window
    oracle and the generator-side test references build, so the engine
    and the oracle share no complex code.
    """
    levels = _link_levels(faces)
    return FiniteComplex(map(len, levels), map(_coboundary, levels, levels[1:]))


def _link_window(faces, i):
    """The window of K|_P's augmented cochain complex, given by its faces,
    that carries h^i(P) = H̃^{i−2}(K|_P) for i ≥ 1: the faces with i − 1
    vertices, the coboundary into them and the one out of them, as
    (level, d_in, d_out); past either end of the complex the next level
    is empty."""
    lower, level, upper = [[], *_link_levels(faces), []][i - 1 : i + 2]
    return level, _coboundary(lower, level), _coboundary(level, upper)


def _link_faces(masks, pattern_mask):
    """Every face of K|_P, each once, as bitmasks: the subsets of the facets
    P∖s for the supports s in ``masks`` (one not minimal on P adds no
    face)."""
    faces = {0}
    for s in masks:
        f = sub = pattern_mask & ~s
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    return faces


def _dual_faces(minimal, pattern_mask, cap):
    """Every face of the Alexander dual D_P = {S ⊆ P : no supp_j ∩ P lies
    in S}, each once, or None once D_P has more than ``cap`` faces.

    ``minimal`` lists the minimal restricted supports, the
    inclusion-minimal sets supp_j ∩ P as bitmasks, so the faces of D_P
    are the subsets of P that contain none of them.  One depth-first
    search over the vertices of P, adding them in increasing order, grows
    a face only while that holds; a new vertex can only complete a
    support that contains it.
    """
    bits = [1 << v for v in range(pattern_mask.bit_length()) if pattern_mask >> v & 1]
    blockers = {b: [r for r in minimal if r & b] for b in bits}
    faces = [0]
    stack = [(0, pattern_mask)]
    while stack:
        face, rest = stack.pop()
        while rest:
            low = rest & -rest
            rest ^= low
            grown = face | low
            if all(r & grown != r for r in blockers[low]):
                faces.append(grown)
                if len(faces) > cap:
                    return None
                stack.append((grown, rest))
    return faces


def _pattern_dims(masks, pattern_mask, g):
    """h^0..h^g at the nonempty pattern P given as ``pattern_mask``, for the
    generators whose supports are the bitmasks ``masks``; the index bound
    g is the generator count.  No supports, or a variable of P in none of
    them, make K|_P a cone and give zeros."""
    # the minimal restricted supports: K|_P's facets are P∖t for t in the
    # list (the full simplex when some supp_j misses P, then the list is
    # [0]), and D_P's faces contain no t
    minimal, covered = [], 0
    for t in sorted({s & pattern_mask for s in masks}, key=int.bit_count):
        if all(u & t != u for u in minimal):
            minimal.append(t)
            covered |= t
    if covered != pattern_mask:
        # a vertex in no t lies in every facet: K|_P is a cone
        return (0,) * (g + 1)
    r = pattern_mask.bit_count()
    # Non-faces of K|_P are the complements of faces of D_P, so
    # |K|_P| = 2^r − |D_P|; the union bound over the facets also caps
    # |K|_P|.  D_P is used when it has at most as many faces.
    cap = min(1 << (r - 1), 1 + sum((1 << (r - t.bit_count())) - 1 for t in minimal))
    dual = _dual_faces(minimal, pattern_mask, cap)
    if dual is None:
        # h^i(P) = H̃^{i-2}(K|_P), and H̃^{i-2} sits at index i-1
        dims = (0,) + cohomology_dims(_link_complex(_link_faces(minimal, pattern_mask)))
    else:
        # h^i(P) = H̃^{r-i-1}(D_P), and H̃^{r-i-1} sits at index r-i
        found = cohomology_dims(_link_complex(dual))
        dims = (0,) * (r + 1 - len(found)) + found[::-1]
    # on the dual side index i > g is H̃ below degree |P|−g−1 of D_P
    if any(dims[g + 1 :]):
        subset = tuple(v for v in range(pattern_mask.bit_length()) if pattern_mask >> v & 1)
        raise AssertionError(f"link cohomology beyond index {g} at {subset}")
    return dims[: g + 1] + (0,) * (g + 1 - len(dims))


@lru_cache(maxsize=1024)
def _profile_normalized(ideal):
    supports = ideal.supports
    g = len(supports)
    masks = [sum(1 << v for v in s) for s in supports]
    union = sorted(frozenset().union(*supports))
    by_pattern = {}
    for r in range(1, len(union) + 1):
        for subset in combinations(union, r):
            dims = _pattern_dims(masks, sum(1 << v for v in subset), g)
            if any(dims):
                by_pattern[frozenset(subset)] = dims
    return CohomologyProfile(ideal, g, by_pattern)


def cohomology_profile(ideal):
    """Full sign-pattern profile of an ideal (computed on its normal form).

    Each nonempty pattern P inside the union of the supports gets
    h^i(P) = H̃^{i−2}(K|_P) (Mustaţă's formula); patterns where K|_P is a
    cone are zero and build no complex.  Every other pattern reads its
    ranks off the augmented cochain complex of whichever of K|_P and its
    Alexander dual D_P = {S ⊆ P : no supp_j ∩ P lies in S} has fewer
    faces, through h^i(P) = H̃^{|P|−i−1}(D_P) on the dual side
    (Björner–Tancer's combinatorial Alexander duality).  The empty
    pattern is always zero.
    """
    return _profile_normalized(normalize(ideal))


# ---------------------------------------------------------------------------
# Nonvanishing shapes
# ---------------------------------------------------------------------------


class PatternShape(enum.Enum):
    """The five admissible Z-degree nonvanishing sets of a component family."""

    EMPTY = "Empty"
    NONNEG_ONLY = "NonnegOnly"
    NEG_TAIL_ONLY = "NegTailOnly"
    ALL_Z = "AllZ"
    TWO_TAILS = "TwoTails"

    def describe(self, m):
        if self is PatternShape.EMPTY:
            return "none"
        if self is PatternShape.NONNEG_ONLY:
            return "n >= 0"
        if self is PatternShape.NEG_TAIL_ONLY:
            return f"n <= {-m}"
        if self is PatternShape.ALL_Z:
            return "all n"
        return f"n <= {-m} or n >= 0"

    def contains(self, n, m):
        if self is PatternShape.EMPTY:
            return False
        if self is PatternShape.NONNEG_ONLY:
            return n >= 0
        if self is PatternShape.NEG_TAIL_ONLY:
            return n <= -m
        if self is PatternShape.ALL_Z:
            return True
        return n <= -m or n >= 0


class Contributor(namedtuple("Contributor", "pattern rank k")):
    """A (pattern, rank, k) triple: a sign pattern (a frozenset) with
    nonzero slice rank, and k the size of its degree-1 part."""

    __slots__ = ()

    def degree_range_contains(self, n, m):
        """Whether coarse degree n is realized by a multidegree with this pattern."""
        if self.k == 0:
            return n >= 0
        if self.k == m:
            return n <= -m
        return True


class PatternReport(namedtuple("PatternReport", "ideal i shape contributors")):
    """Nonvanishing classification of one cohomological index: an immutable
    named tuple of the ideal, the index i, its PatternShape and the
    contributors that realize it."""

    __slots__ = ()

    def describe(self):
        return self.shape.describe(self.ideal.context.m)


def pattern_report(ideal, i):
    """Classify the Z-degree nonvanishing set of the index-i components.

    The shape is the union, over patterns with nonzero rank, of the coarse
    degree ranges their k = |pattern ∩ X| allows: k=0 gives {n ≥ 0}, k=m
    gives {n ≤ −m}, anything in between covers all of Z.
    """
    ideal = normalize(ideal)
    m = ideal.context.m
    contributors = cohomology_profile(ideal).contributors(i)
    has_nonneg = any(c.k == 0 for c in contributors)
    has_negtail = any(c.k == m for c in contributors)
    has_mixed = any(0 < c.k < m for c in contributors)
    if has_mixed:
        shape = PatternShape.ALL_Z
    elif has_nonneg and has_negtail:
        # for m = 1 the tails {n ≤ −1} and {n ≥ 0} exhaust Z
        shape = PatternShape.ALL_Z if m == 1 else PatternShape.TWO_TAILS
    elif has_nonneg:
        shape = PatternShape.NONNEG_ONLY
    elif has_negtail:
        shape = PatternShape.NEG_TAIL_ONLY
    else:
        shape = PatternShape.EMPTY
    if shape is PatternShape.TWO_TAILS and m < 2:
        raise ShapeViolationError(f"two tails with m={m} on {ideal!r}")
    if shape is not PatternShape.EMPTY and not contributors:
        raise ShapeViolationError(f"nonempty shape without contributors on {ideal!r}")
    return PatternReport(ideal, i, shape, contributors)


def piece_nonzero(ideal, i, n):
    """Whether the coarse-degree-n component of the index-i module is nonzero."""
    m = ideal.context.m
    return any(c.degree_range_contains(n, m) for c in cohomology_profile(ideal).contributors(i))


# ---------------------------------------------------------------------------
# Dimension counting
# ---------------------------------------------------------------------------


class DimValue:
    """An exact K-dimension: a nonnegative integer or Infinite.

    Infinite is an expected first-class answer (free-module components),
    never an error.  value is None exactly in the infinite case.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None and (not isinstance(value, int) or value < 0):
            raise ValueError(f"dimension must be a nonnegative integer or None: {value!r}")
        self.value = value

    @property
    def is_infinite(self):
        return self.value is None

    def __add__(self, other):
        if self.is_infinite or other.is_infinite:
            return INFINITE
        return DimValue(self.value + other.value)

    def scaled(self, c):
        """Multiply by a nonnegative integer count; 0 · Infinite = 0."""
        if c < 0:
            raise ValueError("negative multiplicity")
        if c == 0:
            return DimValue(0)
        if self.is_infinite:
            return INFINITE
        return DimValue(self.value * c)

    def to_json(self):
        return "infinite" if self.is_infinite else self.value

    def __eq__(self, other):
        if not isinstance(other, DimValue):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("DimValue", self.value))

    def __repr__(self):
        return "Infinite" if self.is_infinite else f"Finite({self.value})"


INFINITE = DimValue(None)


def x_lattice_count(m, k, n):
    """Number of α ∈ Z^m with a fixed set of exactly k negative coordinates
    and coordinate sum n, as a DimValue.

    All-nonnegative (k=0) counts compositions; all-negative (k=m) counts
    them after reflection; a mixed fixed set has solutions at every n and
    infinitely many of them.
    """
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    if m == 0:
        return DimValue(1 if n == 0 else 0)
    if k == 0:
        return DimValue(binom_ext(n + m - 1, m - 1) if n >= 0 else 0)
    if k == m:
        return DimValue(binom_ext(-n - 1, m - 1) if n <= -m else 0)
    return INFINITE


def degree_count(y_count, m, k, n):
    """Number of multidegrees with a fixed sign pattern and coarse degree n,
    where the variable set carries ``y_count`` degree-0 variables (free in
    either sign direction) and m degree-1 variables, k of them negative.
    """
    xc = x_lattice_count(m, k, n)
    if xc == DimValue(0):
        return DimValue(0)
    if y_count >= 1:
        return INFINITE
    return xc


def piece_dimension(ideal, i, n):
    """Exact K-dimension of the coarse-degree-n component (d = 0 only).

    With degree-0 variables present the components are modules over the
    coefficient ring and K-dimension is the wrong measure; use
    strand_dimension with a pinned Y-multidegree instead.
    """
    if ideal.context.d != 0:
        raise ValueError("piece_dimension needs d = 0; use strand_dimension for d >= 1")
    return strand_dimension(ideal, i, (), n)


def strand_dimension(ideal, i, y_part, n):
    """K-dimension of the components with a fixed Y-multidegree and coarse degree n."""
    ideal = normalize(ideal)
    ctx = ideal.context
    y_part = tuple(int(a) for a in y_part)
    if len(y_part) != ctx.d:
        raise ValueError(f"y_part must have length d = {ctx.d}")
    neg_y = frozenset(j for j, a in enumerate(y_part) if a < 0)
    total = DimValue(0)
    for c in cohomology_profile(ideal).contributors(i):
        if c.pattern & ctx.y_indices == neg_y:
            total = total + x_lattice_count(ctx.m, c.k, n).scaled(c.rank)
    return total


def hilbert_pair(ideal, i):
    """The two counting polynomials (f for the n ≤ −m tail, g for n ≥ 0).

    Both are exact on their whole validity half-lines, not just
    asymptotically; both have degree ≤ m − 1.  Demands d = 0 and finite
    dimensions everywhere.
    """
    ideal = normalize(ideal)
    ctx = ideal.context
    if ctx.d != 0:
        raise ValueError("hilbert_pair needs d = 0")
    m = ctx.m
    contributors = cohomology_profile(ideal).contributors(i)
    mixed = [c for c in contributors if 0 < c.k < m]
    if mixed:
        witness = ",".join(ctx.names[v] for v in sorted(mixed[0].pattern))
        raise InfiniteDimsError(
            f"infinite dimensions at every degree (pattern {{{witness}}})"
        )
    h_neg = sum(c.rank for c in contributors if c.k == m)
    h_pos = sum(c.rank for c in contributors if c.k == 0)
    # counts in the binomial basis: the k=m tail is (−1)^{m−1} binom(n+m−1, m−1)
    sign = -1 if (m - 1) % 2 else 1
    f = IntegerPolynomial([0] * (m - 1) + [sign * h_neg], "le", -m)
    g = IntegerPolynomial([0] * (m - 1) + [h_pos], "ge", 0)
    return f, g


# ---------------------------------------------------------------------------
# Localization and supports
# ---------------------------------------------------------------------------


def localize(ideal, invert):
    """Delete inverted degree-0 variables from every generator support.

    Returns UNIT_IDEAL when some support is wiped out entirely (that
    generator became a unit, so the localized ideal is the whole ring).
    """
    ideal = normalize(ideal)
    ctx = ideal.context
    invert = frozenset(invert)
    if not invert <= ctx.y_indices:
        raise ValueError("can only invert degree-0 variables")
    new_supports = [s - invert for s in ideal.supports]
    if any(not s for s in new_supports):
        return UNIT_IDEAL
    gens = [tuple(1 if v in s else 0 for v in range(ctx.nvars)) for s in new_supports]
    return normalize(MonomialIdeal(ctx, gens))


def support_min_primes(ideal, i, n):
    """Minimal T ⊆ Y-variables such that the (i, n) piece survives
    inverting the complement Y∖T; T = ∅ encodes the zero ideal.

    The piece survives inverting W exactly when some contributing pattern
    avoids W and allows coarse degree n, so the minimal primes are the
    inclusion-minimal Y-parts of the active contributors.
    """
    ideal = normalize(ideal)
    ctx = ideal.context
    active = [
        c.pattern & ctx.y_indices
        for c in cohomology_profile(ideal).contributors(i)
        if c.degree_range_contains(n, ctx.m)
    ]
    minimal = {t for t in active if not any(u < t for u in active)}
    return frozenset(minimal)


def support_dim(ideal, i, n):
    """Krull dimension of the coefficient-ring support of the (i, n) piece;
    −1 for the zero piece."""
    primes = support_min_primes(ideal, i, n)
    if not primes:
        return -1
    d = normalize(ideal).context.d
    return max(d - len(t) for t in primes)
