"""Morphism spaces of windowed complexes, read off the Hom complex.

For complexes X and Y in window n, the Hom complex Hom^*(X, Y) has in degree k
the families h = (h^i : X^i -> Y^{i+k}) and the differential

    D^k(h) = d_Y h - (-1)^k h d_X.

Families are solved exactly in path coordinates: one scalar unknown per
admissible path per matrix entry (``coords._VarLayout``), and ``_differential`` gives
the nonzero rows of D^k in those coordinates.  The public solves read its
cohomology:

* ``hom_basis``: Z^0 = ker D^0, the chain maps X -> Y;
* ``null_homotopy_span``: B^0 = im D^-1, the null-homotopic chain maps;
* ``ext_classes(z, x)``: Ext(Z, X) = Hom_K(Z, X[1]), the chain maps from Z
  moved one cell right to X, in window n + 1, modulo B^0: the classes the
  pair rule cones and the AR pass extends by (``ExtClassSpace``);
* ``can_extend_left`` / ``can_extend_right``: whether Z^0 from a stalk at
  position 1, or to a stalk at position n, is nonzero, i.e. whether the
  complex extends past its window on that side.

A ``HomSpace`` keeps its kernel vectors (rad^2 composes them in path
coordinates) and builds chain maps only to cone or compose them.  Endomorphism
radicals, isomorphism tests and Krull-Schmidt splitting go through the scalar
images ``_scalar_images``, read off the vectors: phi(f) keeps the trivial-path
coefficients of a map, one small matrix per (position, vertex).  On End(X), phi
is an algebra map with nilpotent kernel, so rad End(X) is the kernel of the
trace form tr(phi(a) phi(b)) in characteristic 0, and whether X splits is read
off phi(End(X)): from the eigenvalues of phi-matrices over Q, from a scan for
an idempotent over GF(p).  Either witness is lifted to an idempotent chain map
of End(X), only to split; g . f is an isomorphism iff phi(g) phi(f) is.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .complexes import (
    ChainMap,
    Complex,
    canonical_sort,
    compose,
    concatenate,
    make_stalk,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_neg,
    select_summands,
    shift_window,
    shift_window_map,
)
from .coords import _VarLayout
from .errors import (
    CapExceeded,
    DecompositionFailure,
    IncompleteUniverse,
    InvalidClass,
    SearchSpaceTooLarge,
    ShapeMismatch,
    WindowMismatch,
    ZeroComplex,
)
from .linalg import (
    SpanBasis,
    first_split,
    idempotent_combination,
    identity_matrix,
    kernel,
    matmul,
    nullspace,
    rank,
    rref,
    solve,
    split_candidates,
)

# Cap on the p^m combinations of End(X)'s scalar images that the idempotent
# scan over GF(p) visits.
IDEMPOTENT_CAP = 1 << 16


def _differential(x: Complex, y: Complex, src: _VarLayout, k: int) -> dict:
    """Rows of D^k(h) = d_Y h - (-1)^k h d_X on the unknowns of ``src``, the
    degree-k layout of (x, y), keyed by their degree-(k+1) coordinate
    (position i of X^i -> Y^{i+k+1}, row, column, path); rows never reached are
    zero and absent.
    """
    alg = x.alg
    n = x.window
    zero = alg.field.zero
    rows = collections.defaultdict(lambda: [zero] * src.nvars)
    negate = k % 2 == 0  # the sign -(-1)^k of h d_X
    for j, r, c, paths in src.slots:
        i = j + src.lo  # these unknowns are h^i[r][c]: X^i[c] -> Y^{i+k}[r]
        off = src.offset[(j, r, c)]
        if i + k + 1 < n:
            # (d_Y h)^i[r2][c] gets d_Y^{i+k}[r2][r] . h^i[r][c]
            for r2, drow in enumerate(y.diffs[i + k]):
                for dp, dc in drow[r].coeffs.items():
                    for t, q in enumerate(paths):
                        if (pq := alg.mult_path(dp, q)) is not None:
                            rows[(i, r2, c, pq)][off + t] += dc
        if i >= 1:
            # (h d_X)^{i-1}[r][c2] gets h^i[r][c] . d_X^{i-1}[c][c2]
            for c2, de in enumerate(x.diffs[i - 1][c]):
                for dp, dc in de.coeffs.items():
                    if negate:
                        dc = -dc
                    for t, q in enumerate(paths):
                        if (qp := alg.mult_path(q, dp)) is not None:
                            rows[(i - 1, r, c2, qp)][off + t] += dc
    return rows


def _boundaries(x: Complex, y: Complex, src: _VarLayout, tgt: _VarLayout, k: int):
    """The matrix of D^k from ``src`` to ``tgt`` coordinates."""
    mat = [[x.alg.field.zero] * src.nvars for _ in range(tgt.nvars)]
    for (i, r, c, p), row in _differential(x, y, src, k).items():
        mat[tgt.var(i - tgt.lo, r, c, p)] = row
    return mat


class HomSpace:
    """The chain maps X -> Y, kept as the kernel vectors of D^0 in path
    coordinates (``vectors``, deterministic echelon order) and built as
    ``ChainMap``s only on the first read of ``basis``, which keeps them."""

    def __init__(self, source: Complex, target: Complex, vectors: list, layout: _VarLayout,
                 free: list[int], basis: list[ChainMap] | None = None):
        self.source, self.target = source, target
        self.vectors, self._layout, self._free = vectors, layout, free
        self.dimension = len(vectors)
        self._basis = basis

    @property
    def basis(self) -> list[ChainMap]:
        if self._basis is None:
            self._basis = [self.chain_map(v) for v in self.vectors]
        return self._basis

    def chain_map(self, vec) -> ChainMap:
        """The chain map with path coordinates ``vec``."""
        return ChainMap(self.source, self.target, self._layout.materialize(vec), check=False)

    def coordinates(self, f: ChainMap) -> list:
        """Coordinates of a chain map in this basis (free-column convention)."""
        vec = self._layout.vectorize(f.comps)
        return [vec[j] for j in self._free]

    def subspace(self, coords) -> "HomSpace":
        """Span of the given combinations of this basis; coordinates stay this space's."""
        f = self.source.alg.field
        vecs = [_combine(f, self.vectors, v) for v in coords]
        return HomSpace(self.source, self.target, vecs, self._layout, self._free)

    @classmethod
    def zero(cls, x: Complex, y: Complex) -> "HomSpace":
        """What ``hom_basis(x, y)`` returns when Hom(x, y) = 0, built without the solve."""
        return cls(x, y, [], _VarLayout(x, y, 0), [])

    def moved(self, x: Complex, y: Complex, p: int) -> "HomSpace":
        """Hom(x, y) for the translates x and y of this space's ends by +p.

        Translates have the same path coordinates in the same order, so the
        kernel vectors and free columns are this space's, and the basis they
        build is this one moved by p, exactly what ``hom_basis(x, y)`` returns;
        a basis already built is moved, and an unbuilt one stays unbuilt.
        """
        basis = None if self._basis is None else [
            shift_window_map(g, p, x.window, x, y) for g in self._basis]
        return HomSpace(x, y, self.vectors, _VarLayout(x, y, 0), self._free, basis)


def hom_basis(x: Complex, y: Complex) -> HomSpace:
    """The chain maps X -> Y: Z^0 = ker D^0 of the Hom complex."""
    if x.window != y.window:
        raise WindowMismatch("hom between different windows")
    layout = _VarLayout(x, y, 0)
    if layout.nvars == 0:
        return HomSpace(x, y, [], layout, [])
    # the reduced echelon form, and so the basis, does not depend on the row order
    rows = [row for row in _differential(x, y, layout, 0).values() if any(row)]
    vecs, free = kernel(x.alg.field, rows, layout.nvars)
    return HomSpace(x, y, vecs, layout, free)


def can_extend_left(x: Complex) -> bool:
    """True iff d^1 is not mono, so a new first cell can be glued on.

    A chain map from the stalk P_v at position 1 is a map P_v -> X^1 killed
    by d^1; one is nonzero for some vertex v exactly when ker d^1 != 0.  An
    empty first cell never extends.
    """
    return any(hom_basis(make_stalk(x.alg, v, 1, x.window), x).dimension
               for v in x.alg.quiver.vertices)


def can_extend_right(x: Complex) -> bool:
    """True iff Hom(coker d^{n-1}, Lambda) != 0, so a new last cell can be glued on.

    A chain map to the stalk P_v at position n is a map X^n -> P_v killed by
    d^{n-1}, i.e. a map coker d^{n-1} -> P_v.
    """
    n = x.window
    return any(hom_basis(x, make_stalk(x.alg, v, n, n)).dimension
               for v in x.alg.quiver.vertices)


# -- endomorphism rings, radicals, indecomposability ---------------------------


def _scalar_images(hs: HomSpace) -> list:
    """phi(f) for each basis map f of ``hs``, read off its vector: one matrix
    of trivial-path coefficients per (position, vertex), in the order of
    ``ChainMap.scalar_blocks``.  A trivial path is the first coordinate of its
    slot, as ``paths_between`` sorts by length.

    On End(X), phi is an algebra map to prod M_m(k).  Its kernel, the maps
    with every entry in the arrow ideal, is nilpotent, so rad End(X) is the
    preimage of the radical of phi(End(X)) and idempotents lift along phi.
    On Hom(X, Y) and Hom(Y, X), phi(g . f) is the blockwise product phi(g) phi(f).
    """
    at = []
    for i, (tgt, src) in enumerate(hs._layout.shapes):
        for v in sorted(set(tgt) | set(src)):
            cols = [c for c, w in enumerate(src) if w == v]
            at.append([[hs._layout.offset[(i, r, c)] for c in cols]
                       for r, w in enumerate(tgt) if w == v])
    return [[[[vec[o] for o in row] for row in blk] for blk in at] for vec in hs.vectors]


def _is_iso_product(field_, g, f) -> bool:
    """Whether g . f is an isomorphism, from the images phi(g) and phi(f) of
    maps X -> Y -> X: every block product phi(g) phi(f) is regular."""
    return all(rank(field_, matmul(field_, a, b, len(b), len(a)), len(a)) == len(a)
               for a, b in zip(g, f))


def _trace_of_product(field_, a, b):
    tr = field_.zero
    for blk_a, blk_b in zip(a, b):
        for r, row in enumerate(blk_a):
            for c, v in enumerate(row):
                if v and blk_b[c][r]:
                    tr = tr + v * blk_b[c][r]
    return tr


def end_radical_coords(x: Complex, end: HomSpace | None = None, images=None) -> list[list]:
    """Coordinates (in End basis) of a basis of rad End(X); ``images`` are
    End's scalar images when the caller holds them.

    Characteristic zero only: by Dickson's trace criterion the radical is the
    kernel of the form ``(a, b) -> tr(phi(a) phi(b))`` on the scalar images.
    """
    f = x.alg.field
    if f.char != 0:
        raise ShapeMismatch("trace-form radical needs characteristic zero")
    if end is None:
        end = hom_basis(x, x)
    if images is None:
        images = _scalar_images(end)
    gram = [[_trace_of_product(f, a, b) for b in images] for a in images]
    return nullspace(f, gram, end.dimension)


def is_indecomposable(x: Complex) -> bool:
    """End(X) local: ``_split`` finds no split.  Its verdict reads only End's
    scalar images, so no projection, idempotent or chain map is built."""
    if x.is_zero():
        raise ZeroComplex("the zero complex is not indecomposable")
    return _split(x) is None


def is_isomorphic(x: Complex, y: Complex) -> bool:
    """Exact isomorphism test.

    Fast paths: equal structure, mismatched signatures.  Otherwise both sides
    are split (Krull-Schmidt) and their summands matched greedily, each with
    the first unmatched summand of equal signature that ``_iso_indecomposable``
    pairs with it.  Zero complexes split to [] and compare equal.
    """
    if x.alg is not y.alg or x.window != y.window:
        return False
    if x.signature() != y.signature():
        return False
    if canonical_sort(x).serial_key() == canonical_sort(y).serial_key():
        return True
    unmatched = [w for w, _, _ in decompose_with_maps(y)]
    for w, _, _ in decompose_with_maps(x):
        hit = next((u for u in unmatched if u.signature() == w.signature()
                    and _iso_indecomposable(w, u)), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return not unmatched


def _iso_indecomposable(x: Complex, y: Complex) -> bool:
    fwd = hom_basis(x, y)
    if fwd.dimension == 0:
        return False
    bwd = hom_basis(y, x)
    if bwd.dimension == 0:
        return False
    fwd_images = _scalar_images(fwd)
    return any(_is_iso_product(x.alg.field, g, f_)
               for g in _scalar_images(bwd) for f_ in fwd_images)


# -- Krull-Schmidt splitting -----------------------------------------------------


def decompose(x: Complex):
    """Indecomposable summands with multiplicities (Krull-Schmidt)."""
    parts = [w for (w, _, _) in decompose_with_maps(x)]
    out: list[list] = []
    for w in parts:
        for slot in out:
            if _iso_indecomposable(slot[0], w):
                slot[1] += 1
                break
        else:
            out.append([w, 1])
    return [(w, m) for w, m in out]


def decompose_with_maps(x: Complex):
    """List of (summand, inclusion, projection); empty for the zero complex.

    Each piece is first cut along ``components``, which needs no End solve;
    only a connected piece looks for a splitting idempotent.
    """
    if x.is_zero():
        return []
    ident = ChainMap.identity(x)
    stack = [(x, ident, ident)]
    out = []
    while stack:
        w, incl, proj = stack.pop()
        parts = components(w)
        if not parts:
            e = _splitting_idempotent(w)
            if e is None:
                out.append((w, incl, proj))
                continue
            parts = _split_by_idempotent(w, e)
        for wk, ik, pk in parts:
            stack.append((wk, compose(incl, ik), compose(pk, proj)))
    out.sort(key=lambda t: t[0].serial_key())
    return out


def components(x: Complex) -> list:
    """(W, inclusion, projection) for each connected component of X's summand
    graph, in the order of their first summands; [] when the graph is connected.

    The nodes are the summands P_v of the cells, joined when the differential
    entry between them is nonzero.  A component's summands, in X's order, carry
    a subcomplex W that no other summand's differential enters or leaves, so X
    is the direct sum of its components: the inclusion i_k and projection p_k
    pick W's summands with unit entries, p_k i_k = 1 and the i_k p_k sum to 1.
    Splitting along components needs no End solve.
    """
    keeps = _component_summands(x)
    if len(keeps) <= 1:
        return []
    out = []
    for keep in keeps:
        w = select_summands(x, keep)
        out.append((w, *_unit_maps(x, w, keep)))
    return out


def _unit_maps(x: Complex, w: Complex, keep):
    """(inclusion W -> X, projection X -> W) for W the summands ``keep[i]`` of
    each cell of X (``select_summands``): unit entries on the kept summands."""
    alg = x.alg
    incl = [[[alg.unit(v) if r == s else alg.zero_element(v, cell[s]) for s in rs]
             for r, v in enumerate(cell)] for cell, rs in zip(x.cells, keep)]
    proj = [[[alg.unit(cell[s]) if r == s else alg.zero_element(cell[s], v)
              for r, v in enumerate(cell)] for s in rs] for cell, rs in zip(x.cells, keep)]
    return ChainMap(w, x, incl, check=False), ChainMap(x, w, proj, check=False)


def _component_summands(x: Complex) -> list:
    """Per connected component of X's summand graph (see ``components``), in
    the order of their first summands, the summand indices it holds in each cell."""
    offsets = list(itertools.accumulate((len(c) for c in x.cells), initial=0))
    parent = list(range(offsets[-1]))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, d in enumerate(x.diffs):
        for r, row in enumerate(d):
            for c, e in enumerate(row):
                if not e.is_zero():
                    parent[find(offsets[p] + c)] = find(offsets[p + 1] + r)
    roots = [find(a) for a in range(len(parent))]
    return [[[r for r in range(len(cell)) if roots[offsets[p] + r] == root]
             for p, cell in enumerate(x.cells)] for root in dict.fromkeys(roots)]


def _splitting_idempotent(x: Complex):
    """A nontrivial idempotent of End(X), or None when End(X) is local."""
    lift = _split(x)
    return None if lift is None else lift()


def _split(x: Complex):
    """None when End(X) is local, else a thunk that builds a nontrivial
    idempotent of End(X).

    Nothing splits when m = dim End(X) <= 1.  The verdict reads only the
    scalar images phi(End(X)), whose kernel is nilpotent, so phi(End(X)) has a
    nontrivial idempotent exactly when End(X) does, and the verdict's witness
    goes to the thunk, which lifts it (``_lift_idempotent``).  Over GF(p) all
    p^m combinations of the images are scanned (at most ``IDEMPOTENT_CAP``),
    and ``idempotent_combination`` gives the coefficients of the first
    idempotent one.  Over Q a candidate b splits when phi(b) has a rational
    eigenvalue lam whose Fitting projection is neither 0 nor 1
    (``first_split`` gives b and lam); that projection lies in phi(End(X)),
    and the thunk pulls it back to coefficients by one linear solve.  The
    basis images are tried before the trace-form radical, as no phi(b) of a
    local End(X) splits: each has a single eigenvalue.  A refused root search
    defers to the radical; the candidates after it, which start with the
    basis images again, raise CapExceeded where it was refused.  When
    End(X)/rad has dimension > 1 and no candidate (basis elements, then the sum
    and product of each pair) splits, DecompositionFailure is raised, as exact
    rational arithmetic cannot tell a residue field larger than Q from a split
    it cannot see.
    """
    end = hom_basis(x, x)
    m, f = end.dimension, x.alg.field
    if m <= 1:
        return None
    images = _scalar_images(end)
    if f.char != 0:
        if f.char ** m > IDEMPOTENT_CAP:
            raise SearchSpaceTooLarge(
                f"idempotent scan refused: End(X) has dimension {m} over GF({f.char}), and its "
                f"{f.char ** m:,} elements exceed IDEMPOTENT_CAP = {IDEMPOTENT_CAP:,}")
        coeffs = idempotent_combination(f, images)
        return None if coeffs is None else functools.partial(_lift_idempotent, end, coeffs)
    try:
        found = first_split(f, images)
    except CapExceeded:
        found = None
    if found is None:
        if m - len(end_radical_coords(x, end, images)) == 1:
            return None
        found = first_split(f, split_candidates(f, images))
    if found is None:
        raise DecompositionFailure(
            "End(X)/rad End(X) has dimension > 1 over Q but no candidate element produced a "
            "rational spectral split: End(X) may be local with a residue field larger "
            "than Q (X indecomposable), or split only over a field extension")
    cand, lam = found
    return lambda: _lift_idempotent(end, _fitting_coeffs(f, images, cand, lam))


def _fitting_coeffs(f, images, cand, lam):
    """Coordinates over End's basis, by one solve against its ``images``, of the
    Fitting projection of ``cand`` at ``lam``, a polynomial in it, so in phi(End(X))."""
    proj = [_fitting_part(f, blk, lam) for blk in cand]
    flat = [[v for blk in img for row in blk for v in row] for img in images]
    coeffs = solve(f, [list(col) for col in zip(*flat)], len(images),
                   [v for blk in proj for row in blk for v in row])
    assert coeffs is not None, "a polynomial in phi(b) lies in phi(End(X))"
    return coeffs


def _lift_idempotent(end: HomSpace, coeffs):
    """The idempotent of End(X) over the combination of End's basis with
    ``coeffs``, whose scalar image is idempotent, by e -> 3e^2 - 2e^3.  As
    e'^2 - e' = (e^2 - e)^2 (4e^2 - 4e - 3) in every characteristic and
    e^2 - e lies in the nilpotent ker phi, the lift stops."""
    f = end.source.alg.field
    e = end.chain_map(_combine(f, end.vectors, coeffs))
    while True:
        e2 = compose(e, e)
        if e2.comps == e.comps:
            return e
        e = e2.scale(f.of(3)) + compose(e2, e).scale(f.of(-2))


def _fitting_part(f, blk, lam):
    """Projection onto ker (B - lam)^d along im (B - lam)^d on k^d."""
    d = len(blk)
    shifted = [[v - lam if r == c else v for c, v in enumerate(row)]
               for r, row in enumerate(blk)]
    power = identity_matrix(f, d)
    for _ in range(d):
        power = matmul(f, power, shifted, d, d)
    ker = nullspace(f, power, d)
    if not ker:
        return [[f.zero] * d for _ in range(d)]
    image = [[row[c] for row in power] for c in rref(f, [list(r) for r in power], d)]
    if not image:
        return identity_matrix(f, d)
    basis = ker + image
    inv = _invert_scalar(f, [[v[r] for v in basis] for r in range(d)], d)
    return [[sum((ker[j][r] * inv[j][c] for j in range(len(ker))), f.zero)
             for c in range(d)] for r in range(d)]


def _split_by_idempotent(x: Complex, e: ChainMap):
    """X = im e (+) im (1 - e), each summand with its inclusion and projection."""
    rest = ChainMap.identity(x) + e.scale(-x.alg.field.one)
    return _image_summand(x, e), _image_summand(x, rest)


def _image_summand(x: Complex, e: ChainMap):
    """(W, i, p) with W = im e for an idempotent e of End(X).

    Per cell, rows R and columns C pick an invertible scalar minor of e of
    full rank in each vertex block; i = e[:, C] and p = e[R, C]^-1 e[R, :].
    Then p i = 1 and i p = e, so d_W = p d_X i makes i and p chain maps.
    """
    alg = x.alg
    f = alg.field
    rows = [[] for _ in x.cells]
    cols = [[] for _ in x.cells]
    for i, idxs, _, s in e.scalar_blocks():
        pivots = rref(f, [list(r) for r in s], len(s))
        rows[i] += [idxs[r] for r in rref(f, [[row[c] for row in s] for c in pivots], len(s))]
        cols[i] += [idxs[c] for c in pivots]
    cells, incl, proj = [], [], []
    for i, cell in enumerate(x.cells):
        comp = e.comps[i]
        sub = tuple(cell[c] for c in cols[i])
        minor = [[comp[r][c] for c in cols[i]] for r in rows[i]]
        cells.append(sub)
        incl.append([[row[c] for c in cols[i]] for row in comp])
        proj.append(mat_mul(alg, _invert_unit_matrix(alg, minor, sub),
                            [comp[r] for r in rows[i]], sub, sub, cell))
    diffs = [mat_mul(alg, proj[i + 1],
                     mat_mul(alg, x.diffs[i], incl[i], x.cells[i + 1], x.cells[i], cells[i]),
                     cells[i + 1], x.cells[i + 1], cells[i])
             for i in range(x.window - 1)]
    w = Complex(alg, cells, diffs)
    return w, ChainMap(w, x, incl, check=False), ChainMap(x, w, proj, check=False)


def _invert_scalar(f, mat, n):
    work = [list(row) + [f.one if i == j else f.zero for j in range(n)]
            for i, row in enumerate(mat)]
    pivots = rref(f, work, 2 * n)
    assert pivots[:n] == list(range(n)), "scalar matrix not invertible"
    return [row[n:] for row in work[:n]]


def _invert_unit_matrix(alg, mat, cell):
    """Inverse of a square matrix over ``cell`` with invertible scalar part s:
    s^-1 (1 + q + q^2 + ...), where q = 1 - mat s^-1 is nilpotent."""
    n = len(cell)
    s = _invert_scalar(alg.field, [[v.unit_coeff() for v in row] for row in mat], n)
    s_inv = [[alg.unit(v).scale(s[r][c]) if s[r][c] else alg.zero_element(v, cell[c])
              for c in range(n)] for r, v in enumerate(cell)]
    one = mat_identity(alg, cell)
    q = mat_add(one, mat_neg(mat_mul(alg, mat, s_inv, cell, cell, cell)))
    acc = term = one
    while True:
        term = mat_mul(alg, term, q, cell, cell, cell)
        if mat_is_zero(term):
            return mat_mul(alg, s_inv, acc, cell, cell, cell)
        acc = mat_add(acc, term)


# -- category radical -----------------------------------------------------------


def rad_basis(x: Complex, y: Complex, universe) -> HomSpace:
    """Radical morphisms X -> Y for universe representatives.

    Distinct representatives are non-isomorphic, so rad = Hom; on an object
    against itself rad = rad End(X).
    """
    if not universe.closed:
        raise IncompleteUniverse("radical quantifies over a closed universe")
    if x is y or x == y:
        end = hom_basis(x, x)
        return end.subspace(end_radical_coords(x, end))
    return hom_basis(x, y)


def rad2_basis(x: Complex, y: Complex, universe, hom: HomSpace | None = None,
               factors=None, stats: dict | None = None) -> HomSpace:
    """Span of composites of two radical morphisms through the universe.

    ``hom`` is Hom(X, Y) and ``factors`` yields the pairs (rad(X, W), rad(W, Y))
    over the universe classes W, in universe order; it may skip any W with
    rad(X, W) = 0 or rad(W, Y) = 0, which adds no composite.  Callers that cache these spaces
    pass them, and by default both are solved afresh.  Each composite g . f is read
    in path coordinates off the kernel vectors of f and g (``stats["rad2_composites"]``
    counts them); the scan stops once they span Hom(X, Y), as no later one can add.
    """
    if not universe.closed:
        raise IncompleteUniverse("rad^2 quantifies over a closed universe")
    hs = hom if hom is not None else hom_basis(x, y)
    if factors is None:
        factors = _fresh_rad_factors(x, y, universe)
    span = SpanBasis(x.alg.field, len(hs._free))
    vecs, formed = [], 0
    pairs = ((f_, g) for first, second in factors for f_, g in itertools.product(
        first._layout.entries(first.vectors), second._layout.entries(second.vectors)))
    for f_, g in pairs:
        if span.dim == hs.dimension:
            break
        vec, formed = hs._layout.composite(g, f_), formed + 1
        if span.add([vec[j] for j in hs._free]):
            vecs.append(vec)
    if stats is not None:
        stats["rad2_composites"] += formed
    return HomSpace(x, y, vecs, hs._layout, hs._free)


def _fresh_rad_factors(x: Complex, y: Complex, universe):
    for w in universe.representatives:
        first = rad_basis(x, w, universe)
        if first.dimension:
            yield first, rad_basis(w, y, universe)


def _combine(f, vectors, coeffs):
    """sum_k coeffs[k] vectors[k], for coefficients not all zero."""
    assert any(coeffs)
    acc = [f.zero] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            acc = [a + c * v for a, v in zip(acc, vec)]
    return acc


def null_homotopy_span(hs: HomSpace) -> SpanBasis:
    """B^0 = im D^-1 in the hom layout coordinates: the null-homotopic maps X -> Y.

    Spanned by D^-1(h) = d_Y h + h d_X over degree -1 families h; used to
    decide whether a chain map vanishes in the homotopy category.
    """
    x, y = hs.source, hs.target
    span = SpanBasis(x.alg.field, hs._layout.nvars)
    for col in zip(*_boundaries(x, y, _VarLayout(x, y, -1), hs._layout, -1)):
        span.add(col)
    return span


# -- extension classes ------------------------------------------------------------


class ExtClassSpace:
    """Ext(Z, X) = Hom_K(Z, X[1]): the chain maps sigma: Z+ -> X in window
    n + 1, Z+ being Z moved one cell right, modulo null homotopies.

    ``vectors`` are the kernel vectors of ``hom`` = Hom(Z+, X) that are
    independent modulo ``null_homotopy_span``, in kernel order, as
    ``universe.pair_cones`` picks them; class coordinates c stand for
    sum_k c_k vectors[k].
    """

    def __init__(self, z: Complex, x: Complex, hom: HomSpace, vectors: list):
        self.source, self.target, self.hom = z, x, hom  # Z, the quotient term; X, the sub term
        self.vectors, self.dimension = vectors, len(vectors)

    @functools.cached_property
    def basis(self) -> list[ChainMap]:
        return [self.hom.chain_map(v) for v in self.vectors]

    def chain_map(self, coords) -> ChainMap:
        """The class with coordinates ``coords``, as a chain map Z+ -> X."""
        return self.hom.chain_map(_combine(self.source.alg.field, self.vectors, coords))

    def vanishing_on(self, maps) -> list:
        """The classes sigma with sigma . a+ = 0 in Hom_K(W+, X) for every chain
        map a: W -> Z of ``maps``, each with the lifts of the maps.

        One nullspace of [sigma_k . a+ | -D^-1(W+, X)], stacked over the maps:
        its unknowns are the class coordinates c and, per map, a degree -1
        family H with sigma_c . a+ = D^-1(H).  Per kernel vector whose c is
        independent of the c before it, this returns (c, [h_a per map a]), so
        the c span the classes that every map kills.  h^i = (-1)^(i+1) H^(i+1)
        is a degree-0 family W -> X for which (h; a): W -> Y is a chain map
        into the Y that ``assemble_extension`` builds from sigma_c, with
        d . (h; a) = a.
        """
        f, m = self.source.alg.field, self.dimension
        zp, xp = self.hom.source, self.hom.target
        blocks, ncols = [], m  # per map: its H layout and first column, sigma_k . a+, D^-1
        for a in maps:
            wp = shift_window(a.source, 1, xp.window)
            ap = shift_window_map(a, 1, xp.window, wp, zp)
            layout, families = _VarLayout(wp, xp, 0), _VarLayout(wp, xp, -1)
            cols = [layout.vectorize(compose(s, ap).comps) for s in self.basis]
            blocks.append((families, ncols, cols, _boundaries(wp, xp, families, layout, -1)))
            ncols += families.nvars
        rows = []
        for families, first, cols, bd in blocks:
            for r, drow in enumerate(bd):
                row = [col[r] for col in cols] + [f.zero] * (ncols - m)
                row[first:first + families.nvars] = [-v for v in drow]
                rows.append(row)
        span, out = SpanBasis(f, m), []
        for vec in nullspace(f, rows, ncols):
            if span.add(vec[:m]):
                lifts = [[mat_neg(h) if i % 2 == 0 else h for i, h in enumerate(
                    families.materialize(vec[first:first + families.nvars]))]
                    for families, first, _, _ in blocks]
                out.append((vec[:m], lifts))
        return out


def ext_classes(z: Complex, x: Complex) -> ExtClassSpace:
    """Extension classes of conflations X -> Y -> Z within the window: the
    chain maps Z+ -> X in window n + 1 modulo null homotopies (``ExtClassSpace``)."""
    if z.window != x.window:
        raise WindowMismatch("ext between different windows")
    n = z.window + 1
    hom = hom_basis(shift_window(z, 1, n), shift_window(x, 0, n))
    vecs = []
    if hom.dimension:
        classes = null_homotopy_span(hom)
        vecs = [v for v in hom.vectors if classes.add(v)]
    return ExtClassSpace(z, x, hom, vecs)


def assemble_extension(z: Complex, x: Complex, sigma: ChainMap):
    """Conflation X -> Y -> Z of a class sigma: Z+ -> X of ``ext_classes(z, x)``:
    Y^i = X^i (+) Z^i and d^i = [[d_X^i, tau^i], [0, d_Z^i]] with
    tau^i = (-1)^i sigma^{i+1}, the sign that makes d^2 = 0."""
    if sigma.source.cells[1:] != z.cells or sigma.target.cells[:-1] != x.cells:
        raise InvalidClass("class does not match the given pair")
    link = [mat_neg(t) if i % 2 else t for i, t in enumerate(sigma.comps[1:-1])]
    try:
        y = concatenate(x, z, link, check=True)
    except ShapeMismatch as exc:
        raise InvalidClass(f"the class is not a chain map: {exc}") from exc
    xs = [range(len(c)) for c in x.cells]
    zs = [range(len(a), len(a) + len(b)) for a, b in zip(x.cells, z.cells)]
    return y, _unit_maps(y, x, xs)[0], _unit_maps(y, z, zs)[1]
