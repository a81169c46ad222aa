"""Operator actions on pattern-presented modules.

Modules here are given by one finite-dimensional piece per sign pattern
(the piece at a multidegree α depends only on N(α)) together with the
transition maps induced by multiplying with a variable or applying a
partial derivative.  Away from the walls α_v = −1 (for multiplication)
and α_v = 0 (for derivatives) every transition is an isomorphism, so
kernels and cokernels live on finitely many walls and the homology of
the one-variable two-term complexes aggregates wall data with lattice
counts.  A wall enters only through the rank of the map it induces.
That reduction is what makes Koszul/de Rham homology and socle
extraction exact and fast.
"""

from __future__ import annotations

from itertools import combinations

from .exactlin import ExactMatrix, rank
from .monocech import (
    DimValue,
    _complex_from_basis,
    _pattern_dims,
    cohomology_profile,
    degree_count,
    normalize,
    slice_basis,
    x_lattice_count,
)


class NotEulerianError(AssertionError):
    """The Euler operator failed to act as expected on a piece.

    For modules built from monomial data this must never fire.
    """


class KoszulConvention:
    """Grading offsets for one-variable Koszul and de Rham homology.

    Fixed once, globally, by back-reading the four-term exact sequences
    relating a module to its kernels and cokernels:

      H1(v; M)_j  = ker(v: M_{j-deg v} -> M_j),  H0(v; M)_j = coker at M_j
      H1(dv; M)_j = ker(dv: M_{j+1} -> M_j),     H0(dv; M)_j = coker at M_j

    so multiplication by a degree-1 variable reads M_{j-1} -> M_j, a
    degree-0 variable reads M_j -> M_j, and a derivative reads
    M_{j+1} -> M_j.  Every homology routine in this module uses these
    offsets and nothing else.
    """

    MULT_SOURCE_OFFSET = -1  # times deg(v): kernel of v sits deg(v) below j
    DERHAM_SOURCE_OFFSET = +1  # kernel of dv sits one degree above j


# ---------------------------------------------------------------------------
# small exact matrix helpers (integer rows)
# ---------------------------------------------------------------------------


def _zero_rows(nr, nc):
    return [[0] * nc for _ in range(nr)]


def _scaled_identity(n, c):
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b, out_cols):
    """a @ b with explicit column count so empty factors keep their shape."""
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(out_cols)] for row in a]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# module presentations
# ---------------------------------------------------------------------------


class PatternModulePresentation:
    """Base for modules with pattern-indexed pieces and wall transitions.

    Subclasses provide ``pattern_dim``, ``patterns`` and ``crossing_rank``
    (the rank of multiplication by v out of a pattern holding v, the same
    at every degree).  A wall enters only through that rank: no module
    carries a crossing matrix.
    """

    def __init__(self, context):
        self.context = context
        self._euler = None  # (α, Euler matrix) of the last α checked

    def pattern_dim(self, pattern):
        raise NotImplementedError

    def patterns(self):
        """All patterns with a nonzero piece, in a deterministic order."""
        raise NotImplementedError

    def piece_dim(self, alpha):
        return self.pattern_dim(self.context.sign_pattern(alpha))

    def transition(self, alpha, v):
        """Multiplication by variable v: piece(α) → piece(α + e_v), off the
        wall α_v = −1.

        There the two patterns agree and the monomial identification is the
        identity.  The wall itself is read as a rank (``crossing_rank``), so
        asking for its matrix raises ValueError.
        """
        if alpha[v] == -1:
            raise ValueError("a wall α_v = −1 is read by crossing_rank, not as a matrix")
        return _scaled_identity(self.piece_dim(alpha), 1)

    def derham_transition(self, alpha, v):
        """Derivative along a degree-1 variable: piece(α) → piece(α − e_v).

        The scalar is the source exponent α_v, so the wall α_v = 0 carries
        the zero map (derivative of something constant in v) and
        everything else is a scalar isomorphism.
        """
        alpha = tuple(alpha)
        if v not in self.context.x_indices:
            raise ValueError("derivatives are only taken in degree-1 variables")
        pattern = self.context.sign_pattern(alpha)
        if alpha[v] == 0:
            return _zero_rows(self.pattern_dim(pattern | {v}), self.pattern_dim(pattern))
        return _scaled_identity(self.pattern_dim(pattern), alpha[v])

    def coarse_dimension(self, n):
        """K-dimension of the whole coarse-degree-n component."""
        ctx = self.context
        total = DimValue(0)
        for pattern in self.patterns():
            count = degree_count(ctx.d, ctx.m, len(pattern & ctx.x_indices), n)
            total = total + count.scaled(self.pattern_dim(pattern))
        return total


class LocalizationModule(PatternModulePresentation):
    """The ring localized at a set of variables: one-dimensional pieces.

    piece(α) = K exactly when every non-inverted exponent is nonnegative,
    i.e. when N(α) ⊆ inverted; every defined multiplication is the
    identity on the monomial basis.  inverted = ∅ is the ring itself.
    """

    def __init__(self, context, inverted=()):
        super().__init__(context)
        self.inverted = frozenset(inverted)
        if not self.inverted <= frozenset(range(context.nvars)):
            raise ValueError("inverted set contains unknown variable indices")

    def pattern_dim(self, pattern):
        return 1 if frozenset(pattern) <= self.inverted else 0

    def patterns(self):
        inv = sorted(self.inverted)
        return [
            frozenset(c) for r in range(len(inv) + 1) for c in combinations(inv, r)
        ]

    def crossing_rank(self, pattern, v):
        # one-dimensional pieces, and the identity between nonzero ones
        return self.pattern_dim(pattern)

    def __repr__(self):
        names = self.context.names
        inv = ",".join(names[v] for v in sorted(self.inverted))
        return f"LocalizationModule({{{inv}}})"


class LocalCohomologyModule(PatternModulePresentation):
    """An index-i torsion cohomology module of a monomial ideal, presented
    pattern-wise by the profile's ranks.

    A wall crossing is one rank, read by the long exact sequence of a pair
    of slices off the profile and one more pattern's ranks, and kept per
    (pattern, v), since it is the same at every degree; like every module
    here, it raises ValueError for a transition across a wall α_v = −1.

    Every index is accepted: one outside 0..g (g the generator count) has
    no nonzero pattern in the profile, so it reads as the zero module, as
    in every subcommand.
    """

    def __init__(self, ideal, i):
        ideal = normalize(ideal)
        super().__init__(ideal.context)
        self.ideal = ideal
        self.i = i
        self.profile = cohomology_profile(ideal)
        self._rho = {}  # (pattern, v) -> crossing rank, for the crossings read

    def pattern_dim(self, pattern):
        return self.profile.h(pattern, self.i)

    def patterns(self):
        return [c.pattern for c in self.profile.contributors(self.i)]

    def crossing_rank(self, pattern, v):
        """Rank ρ_i of H^i(P) → H^i(P∖v), by the long exact sequence of the
        pair C(A) ⊂ C(B), A = alive(P) ⊆ B = alive(P∖v).  σ lies in B∖A
        exactly when its generators all miss v and supp σ ⊇ P∖v, so the
        quotient is the slice at P∖v of I_v, the ideal of the generators
        missing v, with the same signs: its ranks c are those of the link
        of v in K|_P, which is K^{I_v}|_{P∖v}.  With a, b the ranks at A and
        B: ρ_{−1} = 0, ρ_k = a_k + b_{k−1} − c_{k−1} − ρ_{k−1}, and each ρ_k
        lies in [0, min(a_k, b_k)], which closes the sequence at 0."""
        pattern = frozenset(pattern)
        if v not in pattern:
            raise ValueError("crossing needs the variable negative on the source side")
        target = pattern - {v}
        if not self.pattern_dim(pattern) or not self.pattern_dim(target):
            return 0
        if (pattern, v) in self._rho:
            return self._rho[pattern, v]
        h, g = self.profile.h, self.profile.gen_count
        rest = [sum(1 << u for u in s) for s in self.ideal.supports if v not in s]
        # c_{k−1} at index k, for k = 0..g + 1
        c = (0,) + _pattern_dims(rest, sum(1 << u for u in target), len(rest))
        c += (0,) * (g + 2 - len(c))
        rho = [0]
        for k in range(g + 2):
            r = h(pattern, k) + h(target, k - 1) - c[k] - rho[-1]
            if not 0 <= r <= min(h(pattern, k), h(target, k)):
                raise AssertionError(f"crossing rank {r} out of range in H^{k}, pattern {sorted(pattern)}")
            rho.append(r)
        self._rho[pattern, v] = rho[self.i + 1]
        return rho[self.i + 1]

    def __repr__(self):
        return f"LocalCohomologyModule({self.ideal!r}, i={self.i})"


# ---------------------------------------------------------------------------
# Euler operator
# ---------------------------------------------------------------------------


def _euler_matrix(module, alpha):
    """Σ X_v ∂_v on piece(α): over each degree-1 variable, the product of
    the derivative and the multiplication back, summed on integer rows.

    The multiplication back would cross the wall only at α_v = 0, where
    the derivative is zero, so a zero derivative skips the term and every
    product read is off the wall."""
    ctx = module.context
    dim = module.piece_dim(alpha)
    total = _zero_rows(dim, dim)
    for v in sorted(ctx.x_indices):
        down = module.derham_transition(alpha, v)
        if not any(any(row) for row in down):
            continue
        alpha_down = tuple(a - 1 if t == v else a for t, a in enumerate(alpha))
        back = module.transition(alpha_down, v)
        total = _mat_add(total, _matmul(back, down, dim))
    return total


def _euler_action(module, alpha):
    """The Euler matrix at α, built once for the checks that read it in a
    row (euler_eigencheck, then gen_eulerian_exponent) and kept on the
    module until another α is asked for."""
    if module._euler is None or module._euler[0] != alpha:
        module._euler = (alpha, _euler_matrix(module, alpha))
    return module._euler[1]


def euler_eigencheck(module, alpha):
    """Verify Σ X_v ∂_v acts as a scalar on piece(α) and return the scalar.

    The scalar must be the coarse degree (the sum of the degree-1
    exponents); anything else raises NotEulerianError.
    """
    alpha = tuple(alpha)
    dim = module.piece_dim(alpha)
    if dim == 0:
        raise ValueError("piece is zero; no eigenvalue to check")
    coarse = module.context.coarse_degree(alpha)
    expected = _scaled_identity(dim, coarse)
    if _euler_action(module, alpha) != expected:
        raise NotEulerianError(f"Euler action at {alpha} is not the scalar {coarse}")
    return coarse


def gen_eulerian_exponent(module, alpha):
    """Least a with (E − coarse degree)^a vanishing on piece(α).

    Equals 1 for every module built from monomial data (the action is
    already diagonal); computed honestly by powering the defect matrix.
    """
    alpha = tuple(alpha)
    dim = module.piece_dim(alpha)
    if dim == 0:
        raise ValueError("piece is zero")
    coarse = module.context.coarse_degree(alpha)
    defect = _mat_add(_euler_action(module, alpha), _scaled_identity(dim, -coarse))
    power = defect
    a = 1
    while any(any(row) for row in power):
        power = _matmul(power, defect, dim)
        a += 1
        if a > dim:
            raise NotEulerianError(f"(E - {coarse}) is not nilpotent at {alpha}")
    return a


# ---------------------------------------------------------------------------
# one-variable Koszul and de Rham homology
# ---------------------------------------------------------------------------


def _remaining_count(ctx, v, pattern, n):
    """Multidegree count over the variables other than v with the given
    pattern on them and coarse degree n."""
    y_count = ctx.d - (1 if v < ctx.d else 0)
    m = ctx.m - (1 if v >= ctx.d else 0)
    k = len(frozenset(pattern) & ctx.x_indices - {v})
    return degree_count(y_count, m, k, n)


def _walls(module, v):
    """Each wall of v once, as the pattern T = P∖v on its target side, over
    the patterns P with a nonzero piece on either side of it."""
    return dict.fromkeys(pattern - {v} for pattern in module.patterns())


def koszul_homology_X(module, v, n):
    """(dim H1, dim H0) of multiplication by variable v at coarse degree n.

    Cited convention: KoszulConvention (kernel of v: M_{n−deg v} → M_n and
    cokernel at M_n).  Kernels live on walls where the source pattern
    contains v, cokernels where the target pattern omits it, so each wall
    T ∪ {v} → T gives both from one crossing rank.  The per-wall coarse
    offsets of a kernel (−deg v, then +deg v back from the negative
    exponent) cancel, so both sides count the remaining variables at target
    degree n.  Works for either variable block; the name keeps the degree-1
    case, the main one, in front.
    """
    ctx = module.context
    h1 = h0 = DimValue(0)
    for target in _walls(module, v):
        source = target | {v}
        rho = module.crossing_rank(source, v)
        count = _remaining_count(ctx, v, target, n)
        h1 = h1 + count.scaled(module.pattern_dim(source) - rho)
        h0 = h0 + count.scaled(module.pattern_dim(target) - rho)
    return h1, h0


def derham_homology(module, v, n):
    """(dim H1, dim H0) of the derivative along v at coarse degree n.

    Kernels are whole pieces on the wall α_v = 0 (coarse n+1, per
    KoszulConvention), cokernels whole pieces on the wall α_v = −1 at
    coarse n; both remainders sit at coarse degree n+1 after removing v,
    so each wall T ∪ {v}, T gives both from one count.
    """
    ctx = module.context
    if v not in ctx.x_indices:
        raise ValueError("derivatives are only taken in degree-1 variables")
    h1 = h0 = DimValue(0)
    for target in _walls(module, v):
        count = _remaining_count(ctx, v, target, n + 1)
        h1 = h1 + count.scaled(module.pattern_dim(target))
        h0 = h0 + count.scaled(module.pattern_dim(target | {v}))
    return h1, h0


def four_term_check(module, v, kind, n):
    """Alternating-sum check of the four-term sequence at degree n.

    For kind "mult": 0 → H1(v)_n → M_{n−deg v} → M_n → H0(v)_n → 0.
    For kind "derham": 0 → H1(∂v)_n → M_{n+1} → M_n → H0(∂v)_n → 0.
    Returns True/False, or None (skip) when any of the four dimensions is
    infinite.
    """
    ctx = module.context
    if kind == "mult":
        h1, h0 = koszul_homology_X(module, v, n)
        deg_v = 1 if v in ctx.x_indices else 0
        m_prev = module.coarse_dimension(n + KoszulConvention.MULT_SOURCE_OFFSET * deg_v)
    elif kind == "derham":
        h1, h0 = derham_homology(module, v, n)
        m_prev = module.coarse_dimension(n + KoszulConvention.DERHAM_SOURCE_OFFSET)
    else:
        raise ValueError(f"kind must be 'mult' or 'derham', not {kind!r}")
    m_here = module.coarse_dimension(n)
    dims = (h1, m_prev, m_here, h0)
    if any(x.is_infinite for x in dims):
        return None
    return h1.value - m_prev.value + m_here.value - h0.value == 0


# ---------------------------------------------------------------------------
# Y-corner socle
# ---------------------------------------------------------------------------


def _slice(module, pattern, width):
    """The slice's level i at one pattern with the differentials among its
    ``width`` levels from i − 1 (zero past either end): (level, d^{i−1})
    for width 2 and (level, d^{i−1}, d^i) for width 3."""
    levels = ([[]] + slice_basis(module.ideal, pattern) + [[]])[module.i : module.i + width]
    return (levels[1], *_complex_from_basis(levels).diffs)


def koszul_homology_Y(ideal, i, n):
    """Dimension of the top Koszul homology in all degree-0 variables of
    the index-i cohomology module, at coarse degree n.

    Away from the all-(−1) corner some Y-transition is an isomorphism, so
    only corner multidegrees contribute, weighted by the count of degree-1
    exponent tails; there the joint kernel is the piece less the rank of
    its map into every Y-crossing at once.  With d the source slice's d^i,
    ι its level i included by position into each target slice (the alive
    family only grows as the pattern shrinks) and D the block diagonal of
    the targets' d^{i−1}, that rank is rank M − rank d − rank D for
    M = [[d, 0], [ι, D]], since rank M = rank d + rank [ι on ker d, D]:
    split the source as ker d ⊕ W, and the columns from W have
    independent tops d(W), while every other column has top zero.
    """
    module = LocalCohomologyModule(ideal, i)
    ctx = module.context
    if ctx.d == 0:
        raise ValueError("no degree-0 variables to take Koszul homology in")
    y_all = ctx.y_indices
    total = DimValue(0)
    for pattern in module.patterns():
        if not y_all <= pattern:
            continue
        dim = module.pattern_dim(pattern)
        targets = [pattern - {y} for y in sorted(y_all) if module.pattern_dim(pattern - {y})]
        image = 0
        if targets:
            level, d_in, d = _slice(module, pattern, 3)
            r = rank(d)  # then plus each target's rank, so rank d + rank D
            classes = len(level) - r - rank(d_in)
            if classes != dim:
                raise AssertionError(f"{classes} cocycle classes, not {dim}, at pattern {sorted(pattern)}")
            entries = dict(d.entries)
            nrows, ncols = d.nrows, len(level)
            for target in targets:
                t_level, t_d = _slice(module, target, 2)
                r += rank(t_d)
                position = {sigma: nrows + t for t, sigma in enumerate(t_level)}
                for col, sigma in enumerate(level):
                    entries[position[sigma], col] = 1
                for (row, col), x in t_d.entries.items():
                    entries[nrows + row, ncols + col] = x
                nrows += t_d.nrows
                ncols += t_d.ncols
            image = rank(ExactMatrix(nrows, ncols, entries)) - r
            if not 0 <= image <= min(dim, sum(map(module.pattern_dim, targets))):
                raise AssertionError(f"image rank {image} out of range at pattern {sorted(pattern)}")
        total = total + x_lattice_count(ctx.m, len(pattern & ctx.x_indices), n).scaled(dim - image)
    return total
