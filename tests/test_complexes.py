import pytest

from cnproj.complexes import (
    ChainMap,
    Complex,
    canonical_sort,
    compose,
    cone,
    direct_sum,
    drop_first,
    drop_first_map,
    drop_last,
    drop_last_map,
    embed_left,
    embed_left_map,
    embed_right,
    embed_right_map,
    extend_left,
    extend_right,
    length,
    make_J,
    make_stalk,
    mat_zero,
    shift_window,
    shift_window_map,
    strip_contractible,
    zero_complex,
)
from cnproj.errors import NotAnExtension, PositionOutOfRange, ShapeMismatch, \
    SupportOverflow, WindowMismatch
from cnproj.homspaces import can_extend_left, can_extend_right, is_isomorphic


def witness(a3_alg):
    b = a3_alg.hom_proj_basis(3, 2)[0]
    a = a3_alg.hom_proj_basis(2, 1)[0]
    return Complex(a3_alg, [(3,), (2,), (1,)], [[[b]], [[a]]])


def two_cell(a3_alg):
    b = a3_alg.hom_proj_basis(3, 2)[0]
    return Complex(a3_alg, [(3,), (2,)], [[[b]]])


def test_make_j(point_alg):
    j = make_J(point_alg, 1, 1, 2)
    assert j.cells == ((1,), (1,))
    assert j.diffs[0][0][0].unit_coeff()
    assert length(j) == 0
    with pytest.raises(PositionOutOfRange):
        make_J(point_alg, 1, 2, 2)


def test_make_stalk(point_alg):
    s = make_stalk(point_alg, 1, 1, 3)
    t = make_stalk(point_alg, 1, 3, 3)
    assert s.support() == (1, 1) and t.support() == (3, 3)
    assert length(s) == 0 == length(t)
    with pytest.raises(PositionOutOfRange):
        make_stalk(point_alg, 1, 4, 3)


def test_d_squared_enforced(a3_alg):
    b = a3_alg.hom_proj_basis(3, 2)[0]
    c = a3_alg.hom_proj_basis(2, 2)[0]  # e2 after b composes to b, not zero
    with pytest.raises(ShapeMismatch):
        Complex(a3_alg, [(3,), (2,), (2,)], [[[b]], [[c]]])


def _a3_path(field):
    from cnproj.algebra import Quiver, build_algebra

    return build_algebra(Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3))), [], field)


def _two_routes(alg, d2):
    # P3 -> P2 + P2 -> P1 with d^1 = (b, b): d^2 d^1 is a sum over the two
    # middle summands of products that all give the path ab
    b = alg.hom_proj_basis(3, 2)[0]
    return Complex(alg, [(3,), (2, 2), (1,)], [[[b], [b]], [d2]])


def test_d_squared_sums_products_per_path():
    # the d^2 = 0 check adds the coefficients of each path over the middle
    # summands: they cancel as 1 + 1 over GF(2) and as 1 - 1 over Q, and a
    # nonzero sum is refused with the same error as an uncancelled product
    gf2, q = _a3_path("gf2"), _a3_path("rational")
    a2, aq = gf2.hom_proj_basis(2, 1)[0], q.hom_proj_basis(2, 1)[0]
    assert _two_routes(gf2, [a2, a2]).diffs[1] == ((a2, a2),)
    assert _two_routes(q, [aq, -aq]).diffs[1] == ((aq, -aq),)
    for d2 in ([aq, aq], [aq, aq.scale(-2)], [aq, q.zero_element(1, 2)]):
        with pytest.raises(ShapeMismatch, match=r"^d\^2 d\^1 != 0$"):
            _two_routes(q, d2)


def test_chain_map_check_sums_both_sides():
    # d f - f d is checked entry by entry as one sum of path coefficients
    from cnproj.errors import NotAChainMap

    alg = _a3_path("rational")
    a = alg.hom_proj_basis(2, 1)[0]
    x = Complex(alg, [(2,), (1,)], [[[a]]])
    one, zero = alg.unit, alg.zero_element
    assert ChainMap(x, x, [[[one(2)]], [[one(1)]]]).comps[1] == ((one(1),),)
    ChainMap(x, x, [[[one(2).scale(3)]], [[one(1).scale(3)]]])  # 3a - a 3 = 0
    for comps in ([[[one(2)]], [[zero(1, 1)]]], [[[one(2).scale(2)]], [[one(1)]]]):
        with pytest.raises(NotAChainMap, match="^d f != f d at position 1$"):
            ChainMap(x, x, comps)


def test_functor_identities(a3_alg):
    x = direct_sum(two_cell(a3_alg), make_J(a3_alg, 1, 1, 2))
    assert drop_first(embed_left(x)) == x
    assert drop_last(embed_right(x)) == x
    assert embed_right(make_stalk(a3_alg, 2, 1, 2)) == make_stalk(a3_alg, 2, 1, 3)
    # companions on chain maps
    f = ChainMap.identity(x)
    for emb, drop in ((embed_left_map, drop_first_map), (embed_right_map, drop_last_map)):
        g = drop(emb(f))
        assert g.comps == f.comps


def test_direct_sum(a3_alg):
    s = make_stalk(a3_alg, 1, 1, 2)
    t = make_stalk(a3_alg, 1, 2, 2)
    d = direct_sum(s, t)
    assert d.cells == ((1,), (1,))
    assert all(e.is_zero() for row in d.diffs[0] for e in row)
    z = zero_complex(a3_alg, 2)
    assert is_isomorphic(direct_sum(s, z), s)
    with pytest.raises(WindowMismatch):
        direct_sum(s, make_stalk(a3_alg, 1, 1, 3))


def test_cone_identity_is_contractible(a3_alg):
    s = make_stalk(a3_alg, 2, 1, 2)
    c = cone(ChainMap.identity(s))
    assert is_isomorphic(c, make_J(a3_alg, 2, 1, 3))
    assert strip_contractible(c).is_zero()


def test_cone_of_stalk_map_builds_the_witness(a3_alg):
    w = witness(a3_alg)
    m = Complex(a3_alg, [(2,), (1,)], [[[a3_alg.hom_proj_basis(2, 1)[0]]]])
    s3 = make_stalk(a3_alg, 3, 1, 2)
    f = ChainMap(s3, m, [[[a3_alg.hom_proj_basis(3, 2)[0]]],
                         mat_zero(a3_alg, (1,), ())])
    assert cone(f) == w


def test_cone_of_zero_splits(a3_alg):
    x = make_stalk(a3_alg, 1, 1, 2)
    y = make_stalk(a3_alg, 2, 2, 2)
    zero = ChainMap(x, y, [mat_zero(a3_alg, (), (1,)), mat_zero(a3_alg, (2,), ())])
    c = cone(zero)
    assert is_isomorphic(c, direct_sum(embed_right(x), embed_left(y)))


def test_strip(a3_alg):
    w = witness(a3_alg)
    assert strip_contractible(make_J(a3_alg, 2, 1, 4)).is_zero()
    assert strip_contractible(w) == w
    d = direct_sum(w, make_J(a3_alg, 3, 2, 3))
    assert is_isomorphic(strip_contractible(d), w)
    # idempotent
    assert strip_contractible(strip_contractible(d)) == strip_contractible(d)


def test_length(a3_alg):
    assert length(make_stalk(a3_alg, 1, 1, 4)) == 0
    assert length(make_J(a3_alg, 1, 2, 4)) == 0
    assert length(witness(a3_alg)) == 2
    assert length(zero_complex(a3_alg, 3)) == 0


def test_length_of_sum_with_nested_supports(a3_alg):
    # max-of-lengths holds when one support contains the other; the general
    # law (support union) is property-tested in test_properties
    w = witness(a3_alg)
    m = embed_right(two_cell(a3_alg))
    assert length(direct_sum(w, m)) == max(length(w), length(m))


def test_can_extend(a3_alg, a2_alg):
    m = two_cell(a3_alg)
    assert not can_extend_left(m)       # b acts injectively on P3
    assert can_extend_right(m)          # coker = S2, Hom(S2, Lambda) != 0
    s = make_stalk(a3_alg, 1, 1, 2)
    assert can_extend_left(s)
    a = a2_alg.hom_proj_basis(2, 1)[0]
    ma = Complex(a2_alg, [(2,), (1,)], [[[a]]])
    assert not can_extend_left(ma)
    assert not can_extend_right(ma)     # coker = S1, Hom(S1, Lambda) = 0
    # empty boundary cells can never extend
    w3 = embed_left(two_cell(a3_alg))
    assert not can_extend_left(w3)
    assert not can_extend_right(embed_right(two_cell(a3_alg)))


def test_extend(a3_alg):
    s = make_stalk(a3_alg, 1, 1, 1)
    j = extend_left(s, 1, a3_alg.unit(1))
    assert j == make_J(a3_alg, 1, 1, 2)
    w = extend_right(two_cell(a3_alg), 1, a3_alg.hom_proj_basis(2, 1)[0])
    assert w == witness(a3_alg)
    with pytest.raises(NotAnExtension):
        extend_left(s, 1, a3_alg.zero_element(1, 1))
    with pytest.raises(NotAnExtension):
        # e2 into P2 does not compose to zero with a
        m = Complex(a3_alg, [(2,), (1,)], [[[a3_alg.hom_proj_basis(2, 1)[0]]]])
        extend_left(m, 2, a3_alg.unit(2))


def test_shift_window(a3_alg):
    s = make_stalk(a3_alg, 1, 1, 2)
    assert shift_window(s, 1, 2) == make_stalk(a3_alg, 1, 2, 2)
    w = witness(a3_alg)
    assert shift_window(w, 0, 3) == w
    m = two_cell(a3_alg)
    sh = shift_window(m, 1, 3)
    assert sh.cells == ((), (3,), (2,))
    with pytest.raises(SupportOverflow):
        shift_window(w, 1, 3)


def test_shift_window_map(a3_alg):
    # every chain map between window-3 classes, moved into window 4: it is a
    # chain map between the moved ends, and moving commutes with composition
    from cnproj.homspaces import hom_basis
    from cnproj.universe import enumerate_indecomposables

    reps = enumerate_indecomposables(a3_alg, 3).representatives
    homs = {(i, j): hom_basis(x, y).basis
            for i, x in enumerate(reps) for j, y in enumerate(reps)}
    composites = 0
    for (i, j), basis in homs.items():
        lo = min(r.support()[0] for r in (reps[i], reps[j]))
        hi = max(r.support()[1] for r in (reps[i], reps[j]))
        for f in basis:
            for p in range(1 - lo, 5 - hi):
                g = shift_window_map(f, p, 4)
                assert (g.source, g.target) == (shift_window(reps[i], p, 4),
                                                shift_window(reps[j], p, 4))
                ChainMap(g.source, g.target, g.comps, check=True)
            with pytest.raises(SupportOverflow):
                shift_window_map(f, 5 - hi, 4)
            with pytest.raises(SupportOverflow):
                shift_window_map(f, -lo, 4)
            for k in range(len(reps)):
                p = 4 - max(hi, reps[k].support()[1])  # >= 1, and the three ends fit
                for h in homs[(j, k)]:
                    gf = compose(h, f)
                    composites += not gf.is_zero()
                    moved = compose(shift_window_map(h, p, 4), shift_window_map(f, p, 4))
                    assert moved.comps == shift_window_map(gf, p, 4).comps
    assert composites


def test_canonical_sort(a3_alg):
    w = witness(a3_alg)
    d = direct_sum(make_stalk(a3_alg, 3, 1, 3), w)
    cs = canonical_sort(d)
    assert cs.cells[0] == (3, 3)
    assert is_isomorphic(cs, d)


def test_extensions_stay_indecomposable(a3_alg):
    from cnproj.homspaces import is_indecomposable

    m = two_cell(a3_alg)
    w = extend_right(m, 1, a3_alg.hom_proj_basis(2, 1)[0])
    assert is_indecomposable(w)
    s = make_stalk(a3_alg, 1, 1, 1)
    assert is_indecomposable(extend_left(s, 1, a3_alg.unit(1)))
