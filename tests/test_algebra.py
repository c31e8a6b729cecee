import math
import pathlib

import pytest

from cnproj.algebra import Quiver, build_algebra
from cnproj.algfile import load_algebra
from cnproj.complexes import mat_mul
from cnproj.errors import (
    IncomposableElements,
    InfiniteDimensional,
    MalformedRelation,
    ShapeMismatch,
)


def test_a3_path_basis(a3_alg):
    # basis {e1, e2, e3, a, b}: the composite ab dies
    assert a3_alg.dimension == 5
    assert a3_alg.paths_between(1, 2) == (("a",),)
    assert a3_alg.paths_between(1, 3) == ()


def test_single_vertex_basis(point_alg):
    assert point_alg.dimension == 1
    assert point_alg.paths_between(1, 1) == ((),)


def test_a6_basis_is_finite(a6_alg):
    # 6 trivial paths + 5 arrows + the surviving composite cd
    assert a6_alg.dimension == 12
    assert a6_alg.paths_between(3, 5) == (("c", "d"),)


def test_infinite_dimensional_loop():
    loop = Quiver((1,), (("a", 1, 1),))
    with pytest.raises(InfiniteDimensional):
        build_algebra(loop, [], "rational", path_cap=50)


def test_malformed_relation():
    q = Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3)))
    with pytest.raises(MalformedRelation):
        build_algebra(q, [("b", "a")], "rational")
    with pytest.raises(MalformedRelation):
        build_algebra(q, [("a",)], "rational")


def test_relation_reduction():
    q = Quiver((1, 2, 3, 4), (("a", 1, 2), ("b", 2, 3), ("c", 3, 4)))
    alg = build_algebra(q, [("a", "b"), ("a", "b", "c")], "rational")
    assert alg.relations == (("a", "b"),)


def test_hom_proj_basis(a3_alg):
    hom32 = a3_alg.hom_proj_basis(3, 2)
    assert len(hom32) == 1
    assert list(hom32[0].coeffs) == [("b",)]
    # identity morphism always present
    assert any(e.unit_coeff() for e in a3_alg.hom_proj_basis(2, 2))
    # composite through the relation vanishes
    beta = hom32[0]
    alpha = a3_alg.hom_proj_basis(2, 1)[0]
    assert a3_alg.multiply(alpha, beta).is_zero()


def test_multiply(a3_alg, a6_alg):
    e2 = a3_alg.unit(2)
    assert a3_alg.multiply(e2, e2) == e2
    a = a3_alg.arrow_element("a")
    b = a3_alg.arrow_element("b")
    assert a3_alg.multiply(a, b).is_zero()
    d = a6_alg.arrow_element("d")
    e = a6_alg.arrow_element("e")
    assert a6_alg.multiply(d, e).is_zero()
    with pytest.raises(IncomposableElements):
        a3_alg.multiply(a, a)


def test_multiply_associative_on_a3_basis(a3_alg):
    elems = [a3_alg.hom_proj_basis(s, t) for s in (1, 2, 3) for t in (1, 2, 3)]
    flat = [e for grp in elems for e in grp]
    for x in flat:
        for y in flat:
            if x.end != y.start:
                continue
            xy = a3_alg.multiply(x, y)
            for z in flat:
                if y.end != z.start:
                    continue
                lhs = a3_alg.multiply(xy, z)
                rhs = a3_alg.multiply(x, a3_alg.multiply(y, z))
                assert lhs == rhs


def test_dimension_equals_hom_sum(a3_alg, a6_alg, a2_alg):
    for alg in (a3_alg, a6_alg, a2_alg):
        total = sum(len(alg.hom_proj_basis(a, b))
                    for a in alg.quiver.vertices for b in alg.quiver.vertices)
        assert total == alg.dimension


def test_global_dimension(a3_alg, a6_alg, a2_alg, point_alg):
    assert a6_alg.global_dimension() == 3
    assert point_alg.global_dimension() == 0
    assert a3_alg.global_dimension() == 2
    assert a2_alg.global_dimension() == 1


# gl.dim of every fixture.  All but syzygy_cycle match the projective
# resolutions of the simple modules; syzygy_cycle's resolution never ends.
FIXTURE_GLDIM = {
    "point.alg": 0,
    "a2.alg": 1,
    "a3_relation.alg": 2,
    "a4_abc.alg": 2,
    "a6_relations.alg": 3,
    "d4.alg": 1,
    "e6.alg": 2,
    "e7.alg": 2,
    "d8_linear.alg": 4,
    "cyc2.alg": math.inf,
    "syzygy_cycle.alg": math.inf,
}


def _fixture_algebras():
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    names = sorted(p.name for p in fixtures.glob("*.alg") if p.name != "bad_key.alg")
    assert names == sorted(FIXTURE_GLDIM)  # a new fixture lands pinned
    return [(name, load_algebra(str(fixtures / name))[1]) for name in names]


def test_global_dimension_of_every_fixture():
    for name, alg in _fixture_algebras():
        assert alg.global_dimension() == FIXTURE_GLDIM[name], name


def test_mult_path_lookup_matches_relation_scan():
    # mult_path looks the product up among the admissible paths; by definition
    # it is killed exactly when some relation is a subpath of it
    for name, alg in _fixture_algebras():
        vs = alg.quiver.vertices
        paths = [(s, t, p) for s in vs for t in vs for p in alg.paths_between(s, t)]
        pairs = 0
        for s, t, p in paths:
            for s2, t2, q in paths:
                if t != s2:
                    continue
                pairs += 1
                scan = None if any(alg._contains(p + q, r) for r in alg.relations) else p + q
                assert alg.mult_path(p, q) == scan, (name, p, q)
        assert pairs >= len(paths), name  # every path composes with a trivial one


def test_mat_mul_checks_zero_entries(a3_alg, a2_alg):
    # a zero factor adds nothing to an entry, but it is still checked for its
    # algebra, for composability and for the entry's endpoints
    alg = a3_alg
    a, e2 = alg.arrow_element("a"), alg.unit(2)
    assert mat_mul(alg, [[a, alg.zero_element(1, 2)]], [[e2], [e2]],
                   (1,), (2, 2), (2,)) == [[a]]
    cases = [
        (IncomposableElements, [[a, alg.zero_element(1, 2)]], [[e2], [a2_alg.zero_element(2, 2)]]),
        (IncomposableElements, [[a, alg.zero_element(1, 2)]], [[e2], [alg.zero_element(3, 2)]]),
        (ShapeMismatch, [[a, alg.zero_element(2, 2)]], [[e2], [e2]]),
        (ShapeMismatch, [[a, alg.zero_element(1, 2)]], [[e2], [alg.zero_element(2, 3)]]),
    ]
    for exc, left, right in cases:
        with pytest.raises(exc):
            mat_mul(alg, left, right, (1,), (2, 2), (2,))


A8 = Quiver(tuple(range(1, 9)), tuple((aid, i, i + 1) for i, aid in enumerate("abcdefg", 1)))


@pytest.mark.parametrize("quiver, relations, gldim", [
    # E6 tree 1->2->3->4->5 plus 6->3, relations ab, cd
    (Quiver((1, 2, 3, 4, 5, 6), (("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 4, 5),
                                 ("f", 6, 3))), [("a", "b"), ("c", "d")], 2),
    # linear A8 with relations ab, bc, cd, efg (derived type D8)
    (A8, [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f", "g")], 4),
    # Kronecker: two arrows 1 -> 2
    (Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], 1),
    # the 2-cycle 1 <-> 2 with only ab = 0
    (Quiver((1, 2), (("a", 1, 2), ("b", 2, 1))), [("a", "b")], 2),
    # a loop with x^2 = 0: Omega(x Lambda) = x Lambda
    (Quiver((1,), (("x", 1, 1),)), [("x", "x")], math.inf),
])
def test_global_dimension_probe_quivers(quiver, relations, gldim):
    assert build_algebra(quiver, relations, "rational").global_dimension() == gldim


def test_prime_field_build():
    q = Quiver((1, 2, 3), (("a", 1, 2), ("b", 2, 3)))
    alg = build_algebra(q, [("a", "b")], "gf2")
    assert alg.dimension == 5
    a = alg.arrow_element("a")
    assert (a + a).is_zero()


def test_rational_field_is_integer_first():
    from fractions import Fraction

    from cnproj.scalars import RationalField

    qq = RationalField()
    assert type(qq.zero) is int and type(qq.one) is int
    assert type(qq.of(3)) is int and qq.of(3) == 3
    assert type(qq.of(Fraction(6, 2))) is int
    assert qq.of(Fraction(1, 2)) == Fraction(1, 2)
    for x in (1, -1, Fraction(1), Fraction(-1)):
        assert type(qq.inv(x)) is int and qq.inv(x) == x
    assert qq.inv(2) == Fraction(1, 2) and type(qq.inv(2)) is Fraction
    assert qq.inv(Fraction(2, 3)) == Fraction(3, 2)
    for x in (2, -3, 7, Fraction(2, 3), Fraction(-5, 4)):
        assert not isinstance(qq.inv(x), float)
        assert x * qq.inv(x) == 1


def test_products_through_relations_vanish(a3_alg, a6_alg):
    # any composable chain that threads a forbidden path dies, whatever is
    # glued on either side
    for alg in (a3_alg, a6_alg):
        for rel in alg.relations:
            mid = alg._arrow[rel[0]][1]  # vertex inside the relation path
            r1 = alg.element(alg._arrow[rel[0]][0], mid, {(rel[0],): 1})
            rest = rel[1:]
            r2 = alg.element(mid, alg._arrow[rest[-1]][1], {rest: 1}) \
                if alg.is_admissible(rest) or len(rest) == 1 else None
            if r2 is None:
                continue
            start, end = r1.start, r2.end
            for s in alg.quiver.vertices:
                for p in alg.paths_between(s, start):
                    left = alg.element(s, start, {p: 1})
                    prod = alg.multiply(alg.multiply(left, r1), r2)
                    assert prod.is_zero()
