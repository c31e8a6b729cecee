import pytest

from cnproj import universe as universe_mod
from cnproj.complexes import direct_sum, drop_first, length, make_stalk, strip_contractible
from cnproj.errors import NotClosed, SearchSpaceTooLarge
from cnproj.homspaces import is_isomorphic
from cnproj.universe import (
    EnumConfig,
    brute_force_indecomposables,
    enumerate_indecomposables,
    max_length,
)


def test_single_vertex_three_classes(point_alg):
    uni = enumerate_indecomposables(point_alg, 2)
    assert uni.closed
    assert sorted(r.label() for r in uni.representatives) == [
        "0->P1", "P1->0", "P1->P1"]


def test_a2_seven_classes(a2_alg):
    uni = enumerate_indecomposables(a2_alg, 2)
    assert uni.closed
    assert len(uni.representatives) == 7
    labels = sorted(r.label() for r in uni.representatives)
    assert "P2->P1" in labels


def test_a3_window_two_keeps_full_support_class(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 2)
    assert len(uni.representatives) == 11
    full = [r for r, j in zip(uni.representatives, uni.j_flags)
            if not j and r.cells[0] and r.cells[1]]
    assert sorted(r.label() for r in full) == ["P2->P1", "P3->P2"]


def test_representatives_pairwise_non_isomorphic(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 2)
    reps = uni.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not is_isomorphic(reps[i], reps[j])


def test_no_j_summand_after_strip(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 3)
    for rep, is_j in zip(uni.representatives, uni.j_flags):
        if not is_j:
            assert strip_contractible(rep).total_summands() == rep.total_summands()


def test_window_shift_bijection(a2_alg, a3_alg):
    # classes of window n with empty first cell <-> classes of window n-1
    for alg in (a2_alg, a3_alg):
        hi = enumerate_indecomposables(alg, 3)
        lo = enumerate_indecomposables(alg, 2)
        upstairs = [r for r in hi.representatives if not r.cells[0]]
        assert len(upstairs) == len(lo.representatives)
        images = set()
        for r in upstairs:
            idx = lo.find(drop_first(r))
            assert idx is not None
            images.add(idx)
        assert len(images) == len(lo.representatives)


def test_brute_force_matches_engine(point_alg, a2_alg, a3_alg):
    cases = [
        (point_alg, 2, 1), (point_alg, 3, 1),
        (a2_alg, 2, 2), (a2_alg, 3, 2),
        (a3_alg, 2, 2),
    ]
    for alg, n, bound in cases:
        engine = enumerate_indecomposables(alg, n)
        oracle = brute_force_indecomposables(alg, n, bound, 2)
        assert len(engine.representatives) == len(oracle.representatives)
        assert engine.signatures() == oracle.signatures()


def test_brute_force_bound_zero(a2_alg):
    uni = brute_force_indecomposables(a2_alg, 2, 0, 2)
    assert uni.representatives == []


def test_brute_force_space_cap(a3_alg):
    cfg = EnumConfig(oracle_space_cap=10)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_indecomposables(a3_alg, 2, 2, 2, cfg)


def test_max_length(point_alg, a3_alg):
    uni = enumerate_indecomposables(point_alg, 3)
    ell, _ = max_length(uni)
    assert ell == 0
    uni3 = enumerate_indecomposables(a3_alg, 3)
    ell, wit = max_length(uni3)
    assert ell == 2
    from cnproj.complexes import Complex
    b = a3_alg.hom_proj_basis(3, 2)[0]
    a = a3_alg.hom_proj_basis(2, 1)[0]
    target = Complex(a3_alg, [(3,), (2,), (1,)], [[[b]], [[a]]])
    assert is_isomorphic(wit, target)


def test_max_length_needs_closed(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 2)
    uni.closed = False
    with pytest.raises(NotClosed):
        max_length(uni)
    uni.closed = True


def test_full_support_classes_have_full_length(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 3)
    for rep, is_j in zip(uni.representatives, uni.j_flags):
        if not is_j and rep.cells[0] and rep.cells[-1]:
            assert length(rep) == uni.window - 1


def test_window_one(a3_alg):
    uni = enumerate_indecomposables(a3_alg, 1)
    assert uni.closed
    assert len(uni.representatives) == 3


def test_round_cap_leaves_unclosed(a3_alg):
    cfg = EnumConfig(max_rounds=1)
    uni = enumerate_indecomposables(a3_alg, 3, cfg)
    assert not uni.closed


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_admit_verifies_each_new_class_once(alg_name, request, monkeypatch):
    alg = request.getfixturevalue(alg_name)
    calls = []
    real = universe_mod.is_indecomposable

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(universe_mod, "is_indecomposable", counting)
    uni = enumerate_indecomposables(alg, 4)
    added = uni.stats["added_by_rule"]
    assert len(calls) == len(uni.representatives) - added["seed"]
    assert len(calls) == added["ext"] + added["cone"] + added["summand"] > 0
    # integer-first rationals: no coefficient of these classes needs a denominator
    assert all(type(c) is int for rep in uni.representatives for m in rep.diffs
               for row in m for e in row for c in e.coeffs.values())


def test_new_decomposable_candidate_still_raises(point_alg, monkeypatch):
    def split_candidate(alg, x):
        return [direct_sum(make_stalk(alg, 1, 1, 2), make_stalk(alg, 1, 2, 2))]

    monkeypatch.setattr(universe_mod, "_support_extensions", split_candidate)
    with pytest.raises(AssertionError, match="decomposable"):
        enumerate_indecomposables(point_alg, 2)
