"""Property tests over randomly assembled valid complexes.

Complexes are generated by composing constructors (stalks, J's, direct sums,
admissible support extensions), so every sample is valid by construction and
the d^2 = 0 invariant is re-checked by the Complex constructor on every
functor application.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnproj.algebra import Quiver, build_algebra, products_vanish
from cnproj.complexes import (
    ChainMap,
    Complex,
    canonical_sort,
    compose,
    direct_sum,
    direct_sum_many,
    drop_first,
    drop_last,
    embed_left,
    embed_left_map,
    embed_right,
    embed_right_map,
    length,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_neg,
    shift_window,
    shift_window_map,
    strip_contractible,
)
from cnproj.homspaces import (
    _boundaries,
    _is_iso_product,
    _scalar_images,
    _VarLayout,
    assemble_extension,
    decompose,
    end_radical_coords,
    ext_classes,
    hom_basis,
    is_isomorphic,
    null_homotopy_span,
    rad2_basis,
)
from cnproj.linalg import ROOT_SEARCH_CAP, kernel, matmul, rank, rational_roots
from cnproj.scalars import RationalField
from cnproj.universe import enumerate_indecomposables

_ALGEBRAS = {}


def _algebra(tag, field="rational"):
    if (tag, field) not in _ALGEBRAS:
        if tag == "point":
            alg = build_algebra(Quiver((1,), ()), [], field)
        elif tag == "a2":
            alg = build_algebra(Quiver((1, 2), (("a", 1, 2),)), [], field)
        else:  # "a3" with the relation ab, "a3_path" without it
            q = Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3)))
            alg = build_algebra(q, [("a", "b")] if tag == "a3" else [], field)
        _ALGEBRAS[(tag, field)] = alg
    return _ALGEBRAS[(tag, field)]


_REPS = {}


def _reps(tag, n, field="rational"):
    if (tag, n, field) not in _REPS:
        _REPS[(tag, n, field)] = enumerate_indecomposables(_algebra(tag, field), n).representatives
    return _REPS[(tag, n, field)]


_TAGS = ["point", "a2", "a3"]


@st.composite
def complexes(draw, window=3, tag=None, field="rational"):
    tag = tag or draw(st.sampled_from(_TAGS))
    reps = _reps(tag, window, field)
    count = draw(st.integers(min_value=1, max_value=3))
    picks = [draw(st.sampled_from(reps)) for _ in range(count)]
    return direct_sum_many(picks)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_drop_embed_identities(x):
    assert drop_first(embed_left(x)) == x
    assert drop_last(embed_right(x)) == x


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_embeds_are_relocations(x):
    n = x.window
    left, right = embed_left(x), embed_right(x)
    assert left.cells == ((),) + x.cells and left.diffs[1:] == x.diffs
    assert right.cells == x.cells + ((),) and right.diffs[:-1] == x.diffs
    assert left == shift_window(x, 1, n + 1)
    assert right == shift_window(x, 0, n + 1)
    ident = ChainMap.identity(x)
    assert embed_left_map(ident).comps == shift_window_map(ident, 1, n + 1).comps
    assert embed_right_map(ident).comps == shift_window_map(ident, 0, n + 1).comps


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_strip_idempotent(x):
    s = strip_contractible(x)
    assert strip_contractible(s) == s
    # no unit entries survive
    for m in s.diffs:
        for row in m:
            for e in row:
                assert not (e.start == e.end and e.unit_coeff())


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_shift_zero_is_identity(x):
    assert shift_window(x, 0, x.window) == x


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_canonical_sort_is_isomorphic(x):
    assert is_isomorphic(canonical_sort(x), x)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_canonical_sort_permutes_stably(x):
    y = canonical_sort(x)
    # Python's sort is stable, so equal vertices keep their order
    perms = [sorted(range(len(c)), key=c.__getitem__) for c in x.cells]
    assert y.cells == tuple(tuple(sorted(c)) for c in x.cells)
    for d_y, d_x, rows, cols in zip(y.diffs, x.diffs, perms[1:], perms):
        assert d_y == tuple(tuple(d_x[r][c] for c in cols) for r in rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_TAGS).flatmap(lambda t: st.tuples(complexes(tag=t), complexes(tag=t))))
def test_direct_sum_is_block_diagonal(pair):
    x, y = pair
    s = direct_sum(x, y)
    assert s.cells == tuple(a + b for a, b in zip(x.cells, y.cells))
    for d, d_x, d_y, (xs, xt) in zip(s.diffs, x.diffs, y.diffs,
                                     zip(map(len, x.cells), map(len, x.cells[1:]))):
        assert tuple(row[:xs] for row in d[:xt]) == d_x
        assert tuple(row[xs:] for row in d[xt:]) == d_y
        assert all(e.is_zero() for row in d[:xt] for e in row[xs:])
        assert all(e.is_zero() for row in d[xt:] for e in row[:xs])


@settings(max_examples=30, deadline=None)
@given(complexes(), complexes())
def test_length_of_sum_is_support_union(x, y):
    # the minimal form of a sum is the sum of minimal forms, so its support is
    # the union; the naive max-of-lengths law fails when supports are disjoint
    # (e.g. S(P) + T(P) has length 1 while both stalks have length 0)
    if x.alg is not y.alg or x.window != y.window:
        return
    sx, sy = strip_contractible(x), strip_contractible(y)
    if sx.is_zero() or sy.is_zero():
        return
    lo = min(sx.support()[0], sy.support()[0])
    hi = max(sx.support()[1], sy.support()[1])
    assert length(direct_sum(x, y)) == hi - lo
    assert length(direct_sum(x, y)) >= max(length(x), length(y))


@settings(max_examples=25, deadline=None)
@given(complexes())
def test_decompose_round_trip(x):
    parts = decompose(x)
    if not parts:
        return
    rebuilt = direct_sum_many([w for w, m in parts for _ in range(m)])
    assert is_isomorphic(rebuilt, x)


@settings(max_examples=40, deadline=None)
@given(complexes(), st.integers(min_value=0, max_value=2))
def test_d_squared_after_functors(x, k):
    # constructors validate d^2 = 0; run a pipeline and revalidate explicitly
    y = embed_left(embed_right(x))
    for _ in range(k):
        y = drop_last(y)
    Complex(y.alg, y.cells, y.diffs, check=True)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_TAGS).flatmap(lambda t: st.tuples(complexes(tag=t), complexes(tag=t))),
       st.sampled_from([-1, 0, 1]))
def test_hom_complex_differential_squares_to_zero(pair, k):
    # D^k's rows come keyed by target coordinate; the layouts place them
    x, y = pair
    src, mid, tgt = (_VarLayout(x, y, k + t) for t in range(3))
    first = _boundaries(x, y, src, mid, k)
    second = _boundaries(x, y, mid, tgt, k + 1)
    product = matmul(x.alg.field, second, first, mid.nvars, src.nvars)
    assert not any(any(row) for row in product)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.sampled_from(_TAGS), st.sampled_from(["rational", "gf2"])).flatmap(
    lambda tf: st.tuples(complexes(tag=tf[0], field=tf[1]), complexes(tag=tf[0], field=tf[1]))))
def test_hom_space_vectors_agree_with_its_maps(pair):
    # a Hom space keeps its kernel vectors and builds chain maps on first read;
    # phi and the iso test read the vectors, and must say what the maps say
    x, y = pair
    for a, b in ((x, y), (x, x)):
        fwd, bwd = hom_basis(a, b), hom_basis(b, a)
        for hs in (fwd, bwd):
            assert hs.vectors == [hs._layout.vectorize(g.comps) for g in hs.basis]
            assert _scalar_images(hs) == [[blk for *_, blk in g.scalar_blocks()]
                                          for g in hs.basis]
        for g, phi_g in zip(bwd.basis, _scalar_images(bwd)):
            for f, phi_f in zip(fwd.basis, _scalar_images(fwd)):
                assert (_is_iso_product(a.alg.field, phi_g, phi_f)
                        == compose(g, f).is_isomorphism())


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.sampled_from(_TAGS), st.sampled_from(["rational", "gf2"])).flatmap(
    lambda tf: st.tuples(*(complexes(tag=tf[0], field=tf[1]) for _ in range(3)))))
def test_one_solve_gives_the_killed_classes_and_their_lifts(triple):
    # ExtClassSpace.vanishing_on solves once for the classes sigma that chain maps
    # a: W -> Z kill and for each a's lift (h; a) through d: Y -> Z, Y the
    # extension by sigma; with no maps every class is killed, and no nonzero
    # class is killed by Z's identity
    z, x, w = triple
    ext, maps = ext_classes(z, x), hom_basis(w, z).basis
    for c, lifts in ext.vanishing_on(maps):
        y, _, d = assemble_extension(z, x, ext.chain_map(c))
        for a, h in zip(maps, lifts, strict=True):
            b = ChainMap(w, y, [[*hm, *am] for hm, am in zip(h, a.comps)])  # checks d b = b d
            assert compose(d, b).comps == a.comps
    every = [c for c, _ in ext.vanishing_on([])]
    assert len(every) == rank(z.alg.field, every, ext.dimension) == ext.dimension
    assert ext.vanishing_on([*maps, ChainMap.identity(z)]) == []


def _factor_pairs(x, w, y, extra, p):
    """(X', Y', rad(X', W'), rad(W', Y')) for three kinds of factor: plain Hom spaces,
    both moved by p into window n + extra (other positions, same vectors), and, over
    Q, the End-radical subspace of End(X) and of End(Y) as one factor (over GF(2),
    where the trace form does not apply, the span of End's basis sum stands in)."""
    def radical(c):
        end = hom_basis(c, c)
        if c.alg.field.char == 0:
            return end.subspace(end_radical_coords(c, end))
        return end.subspace([[c.alg.field.one] * end.dimension] if end.dimension else [])

    first, second = hom_basis(x, w), hom_basis(w, y)
    xs, ws, ys = (shift_window(c, p, c.window + extra) for c in (x, w, y))
    return [(x, y, first, second),
            (xs, ys, first.moved(xs, ws, p), second.moved(ws, ys, p)),
            (x, y, radical(x), hom_basis(x, y)),
            (x, y, hom_basis(x, y), radical(y))]


def _check_rad2_composites(x, w, y, extra, p):
    # rad2_basis reads g . f in Hom(X, Y)'s path coordinates off the kernel
    # vectors of f and g; fed one basis pair at a time, each composite it keeps
    # is the vectorized chain-map composite (a zero composite adds nothing)
    closed = SimpleNamespace(closed=True)
    for x_, y_, first, second in _factor_pairs(x, w, y, extra, p):
        hs, fld = hom_basis(x_, y_), x.alg.field
        units = [[[fld.one if t == k else fld.zero for t in range(sp.dimension)]
                  for k in range(sp.dimension)] for sp in (first, second)]
        for f, uf in zip(first.basis, units[0]):
            for g, ug in zip(second.basis, units[1]):
                stats = {"rad2_composites": 0}
                got = rad2_basis(x_, y_, closed, hs, [(first.subspace([uf]),
                                                       second.subspace([ug]))], stats)
                want = hs._layout.vectorize(compose(g, f).comps)
                assert got.vectors == ([want] if any(want) else [])
                assert stats["rad2_composites"] == (1 if hs.dimension else 0)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.sampled_from(_TAGS), st.sampled_from(["rational", "gf2"])).flatmap(
    lambda tf: st.tuples(*(complexes(tag=tf[0], field=tf[1]) for _ in range(3)))),
       st.integers(min_value=1, max_value=2), st.data())
def test_rad2_composites_in_coordinates_are_the_composed_maps(triple, extra, data):
    _check_rad2_composites(*triple, extra, data.draw(st.integers(min_value=0, max_value=extra)))


@pytest.mark.parametrize("field", ["rational", "gf2"])
def test_rad2_composites_through_a_path_of_length_two(field):
    # no _TAGS algebra has a nonzero path of length 2, so there a composite
    # never shows the order of mult_path's operands; a3_path's stalks compose
    # through a . b at every position
    stalks = [r for r in _reps("a3_path", 3, field) if r.total_summands() == 1]
    for x, w, y in itertools.product(stalks, repeat=3):
        _check_rad2_composites(x, w, y, 1, 1)


def _moved(new, old, p):
    """The components ``new`` are ``old`` moved p positions on, with no entry elsewhere."""
    rest = new[:p] + new[p + len(old):]
    return new[p:p + len(old)] == old and not any(row for m in rest for row in m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_TAGS).flatmap(lambda t: st.tuples(complexes(tag=t), complexes(tag=t))),
       st.integers(min_value=1, max_value=2), st.data())
def test_hom_and_ext_are_translation_equivariant(pair, extra, data):
    # the closure engine runs each rule once per (shape pair, offset) and
    # skips or replays translates; that rests on this equivariance
    x, y = pair
    p = data.draw(st.integers(min_value=0, max_value=extra))
    xs, ys = (shift_window(c, p, c.window + extra) for c in (x, y))
    hom, hom_s = hom_basis(x, y), hom_basis(xs, ys)
    assert hom_s.dimension == hom.dimension and hom_s._free == hom._free
    assert all(_moved(g.comps, f.comps, p) for f, g in zip(hom.basis, hom_s.basis))
    assert null_homotopy_span(hom_s).rows == null_homotopy_span(hom).rows
    ext, ext_s = ext_classes(x, y), ext_classes(xs, ys)
    assert ext_s.dimension == ext.dimension
    assert all(_moved(t.comps, s.comps, p) for s, t in zip(ext.basis, ext_s.basis))
    assert ext_s.vectors == ext.vectors


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)], ncols


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_kernel_stays_exact_on_integer_matrices(mat):
    rows, ncols = mat
    qq = RationalField()
    basis, free = kernel(qq, rows, ncols)
    for v in basis:
        assert all(type(e) in (int, Fraction) for e in v)
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # the same matrix with every entry a Fraction gives the same basis
    assert kernel(qq, [[Fraction(e) for e in row] for row in rows], ncols) == (basis, free)


@st.composite
def acyclic_quivers(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    pairs = st.tuples(st.integers(1, k), st.integers(1, k)).filter(lambda p: p[0] < p[1])
    ends = draw(st.lists(pairs, max_size=6)) if k > 1 else []
    return Quiver(tuple(range(1, k + 1)),
                  tuple((f"x{i}", s, t) for i, (s, t) in enumerate(ends)))


@settings(max_examples=60, deadline=None)
@given(acyclic_quivers())
def test_acyclic_path_algebras_are_hereditary(quiver):
    # kQ of an acyclic quiver is hereditary, and semisimple without arrows
    gldim = build_algebra(quiver, [], "rational").global_dimension()
    assert gldim == (1 if quiver.arrows else 0)


@st.composite
def product_terms(draw, field):
    # two products a b and c d of random path-combination matrices over A3
    # without relations, with coefficients in {-1, 0, 1}; half the time c d is
    # a b with its middle summands permuted, so the difference cancels
    alg = _algebra("a3_path", field)
    cell = st.lists(st.sampled_from((1, 2, 3)), max_size=2)
    tgt, mid, src = draw(cell), draw(cell), draw(cell)

    def matrix(rows, cols):
        return [[alg.element(r, c, {p: draw(st.sampled_from((-1, 0, 1)))
                                    for p in alg.paths_between(r, c)}) for c in cols]
                for r in rows]

    a, b = matrix(tgt, mid), matrix(mid, src)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(len(mid))))
        other = [[row[k] for k in perm] for row in a], [b[k] for k in perm], [mid[k] for k in perm]
    else:
        mid2 = draw(cell)
        other = matrix(tgt, mid2), matrix(mid2, src), mid2
    return alg, tgt, mid, src, (a, b), other


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["rational", "gf2"]).flatmap(product_terms))
def test_products_vanish_matches_composed_matrices(case):
    # the d^2 = 0 and chain-map kernel agrees with composing AlgElement matrices
    alg, tgt, mid, src, (a, b), (c, d, mid2) = case
    one = alg.field.one
    want = mat_is_zero(mat_add(mat_mul(alg, a, b, tgt, mid, src),
                               mat_neg(mat_mul(alg, c, d, tgt, mid2, src))))
    assert products_vanish(alg, len(tgt), len(src), (one, a, b), (-one, c, d)) == want
    assert products_vanish(alg, len(tgt), len(src), (one, a, b)) == \
        mat_is_zero(mat_mul(alg, a, b, tgt, mid, src))


def _roots_by_fraction_evaluation(poly):
    # the rational root theorem, each candidate +-p/q evaluated as a Fraction
    lcm = math.lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * lcm) for c in poly]
    roots = set()
    while ints and ints[0] == 0:
        roots.add(Fraction(0))
        ints = ints[1:]
    if not ints:
        return sorted(roots)

    def divisors(n):
        return [k for k in range(1, abs(n) + 1) if n % k == 0]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** k for k, c in enumerate(ints)) == 0:
                    roots.add(r)
    return sorted(roots)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("seed", range(5))
def test_rational_roots_match_fraction_evaluation(seed):
    # seeded products of (q t - p) factors, some repeated, some at t = 0, with
    # an irreducible quadratic now and then, scaled by an int or a Fraction
    rng = random.Random(seed)
    for _ in range(40):
        poly, planted = [rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 3)))], set()
        for _ in range(rng.randint(0, 4)):
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            planted.add(root)
            for _ in range(rng.choice((1, 1, 2))):
                poly = _poly_mul(poly, [-root.numerator, root.denominator])
        if rng.random() < 0.3:
            poly = _poly_mul(poly, rng.choice(([1, 0, 1], [-2, 0, 1], [1, 1, 1])))
        roots = rational_roots(poly)
        assert roots == _roots_by_fraction_evaluation(poly), poly
        assert planted <= set(roots)
        assert all(type(r) is Fraction for r in roots)


def test_rational_roots_refuse_past_the_cap():
    cap = ROOT_SEARCH_CAP
    assert rational_roots([-cap, 1]) == [cap]
    assert rational_roots([-1, cap]) == [Fraction(1, cap)]
    assert rational_roots([cap + 1, 1]) is None
    assert rational_roots([1, cap + 1]) is None
    assert rational_roots([0, 0, Fraction(-(cap + 1), 2), 1]) is None  # after t^2 is factored out
    assert rational_roots([]) == []
