import dataclasses
import functools
import re

import pytest

from cnproj.arquiver import (
    build_ar_quiver,
    check_window_stability,
    classify_irreducible_components,
    derived_window,
    gamma_bar,
    is_left_almost_split,
    is_right_almost_split,
    is_right_minimal,
)
from cnproj.complexes import ChainMap, Complex, direct_sum, make_J, make_stalk, mat_zero
from cnproj.errors import (
    CertificationFailure,
    EtaZero,
    NoCandidateFound,
    NotClosed,
    ShapeViolation,
)
from cnproj.homspaces import decompose
from cnproj.sgldim import compute_sgldim


@pytest.fixture(scope="module")
def point_quiver(point_alg):
    return build_ar_quiver(point_alg, 2)


@pytest.fixture(scope="module")
def a2_quiver(a2_alg):
    return build_ar_quiver(a2_alg, 2)


def test_point_quiver_shape(point_quiver):
    q = point_quiver
    labels = {i: q.label(i) for i in range(q.class_count())}
    arrows = sorted((labels[i], labels[j]) for (i, j) in q.arrows)
    assert arrows == [("0->P1", "P1->P1"), ("P1->P1", "P1->0")]
    assert len(q.conflations) == 1
    conf = next(iter(q.conflations.values()))
    assert conf.certified
    assert (conf.x.label(), conf.y.label(), conf.z.label()) == \
        ("0->P1", "P1->P1", "P1->0")
    assert {labels[z]: labels[x] for z, x in q.tau.items()} == {"P1->0": "0->P1"}


def test_point_quiver_flags(point_quiver):
    q = point_quiver
    for i in range(q.class_count()):
        lab = q.label(i)
        if lab == "P1->P1":
            assert q.proj_injective[i] and q.en_projective[i] and q.en_injective[i]
        elif lab == "0->P1":
            assert q.en_projective[i] and not q.en_injective[i]
        else:
            assert q.en_injective[i] and not q.en_projective[i]


def test_a2_quiver_arrows(a2_quiver):
    q = a2_quiver
    labels = {i: q.label(i) for i in range(q.class_count())}
    arrows = sorted((labels[i], labels[j]) for (i, j) in q.arrows)
    assert arrows == [
        ("0->P1", "P2->P1"), ("0->P2", "0->P1"), ("0->P2", "P2->P2"),
        ("P1->P1", "P1->0"), ("P2->0", "P1->0"), ("P2->P1", "P1->P1"),
        ("P2->P1", "P2->0"), ("P2->P2", "P2->P1"),
    ]
    assert all(m == 1 for m in q.arrows.values())


def test_a2_quiver_conflations(a2_quiver):
    q = a2_quiver
    triples = sorted(
        (c.x.label(), tuple(sorted(q.label(s) for s in c.y_summands)), c.z.label())
        for c in q.conflations.values())
    assert triples == [
        ("0->P1", ("P2->P1",), "P2->0"),
        ("0->P2", ("0->P1", "P2->P2"), "P2->P1"),
        ("P2->P1", ("P1->P1", "P2->0"), "P1->0"),
    ]
    assert all(c.certified for c in q.conflations.values())


def test_middle_matches_arrows(a2_quiver):
    q = a2_quiver
    for z_idx, conf in q.conflations.items():
        outgoing = sorted(j for (i, j), m in q.arrows.items()
                          for _ in range(m) if i == conf.x_idx)
        incoming = sorted(i for (i, j), m in q.arrows.items()
                          for _ in range(m) if j == z_idx)
        assert outgoing == sorted(conf.y_summands) == incoming


def test_conflation_uniqueness_and_decomposition(a2_quiver):
    q = a2_quiver
    zs = [c.z_idx for c in q.conflations.values()]
    assert len(zs) == len(set(zs))
    for conf in q.conflations.values():
        got = sorted(q.universe.find(w) for w, _ in decompose(conf.y)
                     for _ in range(1))
        assert got == sorted(set(conf.y_summands)) or got == sorted(conf.y_summands)


def test_right_almost_split_examples(point_quiver, point_alg):
    q = point_quiver
    conf = next(iter(q.conflations.values()))
    assert is_right_almost_split(q.universe, conf.d)
    assert is_left_almost_split(q.universe, conf.i)
    assert is_right_minimal(q.universe, conf.d)
    # a retraction is never right almost split
    s = make_stalk(point_alg, 1, 1, 2)
    assert not is_right_almost_split(q.universe, ChainMap.identity(s))
    # the zero map into a class with radical maps fails too
    j = make_J(point_alg, 1, 1, 2)
    zero = ChainMap(j, s, [mat_zero(point_alg, (1,), (1,)),
                           mat_zero(point_alg, (), (1,))])
    assert not is_right_almost_split(q.universe, zero)


def test_classify_components(a2_quiver):
    q = a2_quiver
    kinds = {}
    for (i, j), f in q.arrow_reps.items():
        shape = classify_irreducible_components(f)
        kinds[(q.label(i), q.label(j))] = (shape.kind, shape.split_index)
    assert kinds[("P2->P2", "P2->P1")] == ("split-at", 2)
    assert kinds[("P2->P1", "P2->0")][0] == "all-retractions"
    assert kinds[("0->P1", "P2->P1")][0] == "all-sections"


def test_classify_rejects_identity(a2_quiver):
    rep = a2_quiver.universe.representatives[0]
    with pytest.raises(ShapeViolation):
        classify_irreducible_components(ChainMap.identity(rep))


def test_gamma_bar_a2(a2_quiver):
    gb = gamma_bar(a2_quiver)
    labels = sorted(a2_quiver.label(i) for i in gb.vertices)
    assert labels == ["0->P1", "0->P2", "P1->0", "P2->0", "P2->P1"]
    assert [a2_quiver.label(a) for a in gb.anchors] == ["P2->P1"]
    assert not any(a2_quiver.proj_injective[i] for i in gb.vertices)


def test_gamma_bar_a3(a3_alg):
    q3 = build_ar_quiver(a3_alg, 3)
    gb = gamma_bar(q3)
    witness_idx = [i for i in gb.vertices
                   if q3.label(i) == "P3->P2->P1"]
    assert witness_idx
    assert witness_idx[0] in gb.anchors


def test_derived_window_counts(a2_quiver):
    gb = gamma_bar(a2_quiver)
    dw0 = derived_window(gb, 0, 0)
    assert len(dw0.vertices) == gb.vertex_count()
    assert all(a[1] == b[1] for a, b, _ in dw0.arrows)
    dw = derived_window(gb, -1, 1)
    assert len(dw.vertices) == 3 * gb.vertex_count()


def test_window_stability_a2(a2_alg):
    rep = check_window_stability(a2_alg, 3, 1)
    assert rep.ok()
    assert rep.checked["drop"] > 0 and rep.checked["embed"] > 0


def test_window_stability_boundary_check_is_the_sgldim_violators(a3_alg):
    # with eta one short, window eta + 2 = 3 still has a full-support class: the
    # boundary check names exactly the classes the sgldim window loop counts
    rep = check_window_stability(a3_alg, 4, 1)
    report = compute_sgldim(a3_alg)
    windows = report.universes
    assert [v for v in rep.violations if v[0] == "boundary"] == [
        ("boundary", m, x.label()) for m in (3, 4) for x in windows[m].violators()]
    assert [v for _, _, v in report.per_window] == [2, 1, 0]
    assert rep.checked["boundary"] == sum(len(windows[m].representatives) for m in (3, 4))


def test_window_stability_eta_zero(point_alg):
    with pytest.raises(EtaZero):
        check_window_stability(point_alg, 2, 0)


def test_arrow_endpoints_share_an_empty_boundary(a3_alg):
    # arrows at window eta+2 = 4 live entirely away from one boundary
    q4 = build_ar_quiver(a3_alg, 4)
    for (i, j) in q4.arrows:
        x = q4.universe.representatives[i]
        y = q4.universe.representatives[j]
        assert (not x.cells[0] and not y.cells[0]) or \
            (not x.cells[-1] and not y.cells[-1])


def test_top_window_conflation_is_new(a3_alg):
    # the conflation ending at the full-support witness in C_3 cannot drop to C_2
    q3 = build_ar_quiver(a3_alg, 3)
    witness_confs = [c for c in q3.conflations.values()
                     if c.z.cells[0] and c.z.cells[-1]]
    assert len(witness_confs) == 1
    conf = witness_confs[0]
    assert conf.certified
    triple = (conf.x, conf.y, conf.z)
    assert not all(not t.cells[0] for t in triple)
    assert not all(not t.cells[-1] for t in triple)


def test_is_minimal_sides(a2_quiver):
    conf = next(iter(a2_quiver.conflations.values()))
    assert is_right_minimal(a2_quiver.universe, conf.d)


def test_almost_split_quantifiers_need_a_representative_end(a2_quiver, a2_alg):
    # P2 -2a-> P1 is isomorphic to the representative P2 -a-> P1 but is not it,
    # and a sum of two classes is no class at all: both ends are refused by name
    a = a2_alg.arrow_element("a")
    scaled = Complex(a2_alg, [(2,), (1,)], [[[a.scale(2)]]])
    pair = direct_sum(make_stalk(a2_alg, 1, 1, 2), make_stalk(a2_alg, 2, 1, 2))
    for end in (scaled, pair):
        ident = ChainMap.identity(end)
        with pytest.raises(NotClosed, match=re.escape(f"the target {end.label()} is not")):
            is_right_almost_split(a2_quiver.universe, ident)
        with pytest.raises(NotClosed, match=re.escape(f"the source {end.label()} is not")):
            is_left_almost_split(a2_quiver.universe, ident)


def test_gamma_bar_window_one_is_eta_zero(point_alg):
    q1 = build_ar_quiver(point_alg, 1)
    with pytest.raises(EtaZero):
        gamma_bar(q1)


def test_a2_flags_match_classification(a2_quiver):
    q = a2_quiver
    for i in range(q.class_count()):
        lab = q.label(i)
        rep = q.universe.representatives[i]
        is_j = q.universe.j_flags[i]
        is_t = rep.total_summands() == 1 and rep.support() == (q.window, q.window)
        is_s = rep.total_summands() == 1 and rep.support() == (1, 1)
        assert q.en_projective[i] == (is_j or is_t), lab
        assert q.en_injective[i] == (is_j or is_s), lab
        assert q.proj_injective[i] == is_j, lab


def test_classification_stable_under_embedding(a2_quiver):
    from cnproj.complexes import embed_left_map, embed_right_map

    for (i, j), f in a2_quiver.arrow_reps.items():
        base = classify_irreducible_components(f)
        left = classify_irreducible_components(embed_left_map(f))
        right = classify_irreducible_components(embed_right_map(f))
        assert left.kind == base.kind == right.kind
        if base.kind == "split-at":
            assert left.split_index == base.split_index + 1
            assert right.split_index == base.split_index


def test_six_vertex_derived_pipeline(a6_alg):
    # the full pipeline at the window where the length-4 witness lives:
    # 100 classes, all conflations certified, one anchor component
    q5 = build_ar_quiver(a6_alg, 5)
    assert q5.class_count() == 100
    assert len(q5.conflations) == 70
    assert all(c.certified for c in q5.conflations.values())
    for z_idx, conf in q5.conflations.items():
        outgoing = sorted(j for (i, j), m in q5.arrows.items()
                          for _ in range(m) if i == conf.x_idx)
        incoming = sorted(i for (i, j), m in q5.arrows.items()
                          for _ in range(m) if j == z_idx)
        assert outgoing == sorted(conf.y_summands) == incoming
    gb = gamma_bar(q5)
    assert gb.vertex_count() == 76
    witness = [i for i in gb.anchors if q5.label(i) == "P6->P5->P3->P2->P1"]
    assert witness
    dw = derived_window(gb, -1, 1)
    assert len(dw.vertices) == 3 * gb.vertex_count()
    assert not dw.notes


def test_not_closed_names_the_cap(a3_alg):
    from cnproj.universe import EnumConfig

    with pytest.raises(NotClosed, match="window 3: max_rounds = 1 ran out before a fixpoint"):
        build_ar_quiver(a3_alg, 3, EnumConfig(max_rounds=1))


@pytest.mark.parametrize("alg_name, n, widest", [("a2_alg", 2, 2), ("a6_alg", 3, 3)])
def test_padded_right_map_is_almost_split_but_not_minimal(request, alg_name, n, widest):
    # [d, 0]: Y (+) W -> Z factors exactly what d does, so it stays right almost
    # split, and dropping W's component leaves a proper sub-family that is too;
    # conflation k pads with the classes k, k + c, k + 2c, ... (c conflations)
    from cnproj.arquiver import _Ctx

    q = build_ar_quiver(request.getfixturevalue(alg_name), n)
    ctx = _Ctx(q.universe)
    confs = list(q.conflations.values())
    assert max(len(c.y_summands) for c in confs) == widest
    for k, conf in enumerate(confs):
        for w in q.universe.representatives[k::len(confs)]:
            comps = [[list(row) + zero for row, zero in zip(dc, mat_zero(w.alg, z_cell, w_cell))]
                     for dc, z_cell, w_cell in zip(conf.d.comps, conf.z.cells, w.cells)]
            padded = ChainMap(direct_sum(conf.y, w), conf.z, comps)
            assert is_right_almost_split(q.universe, padded, _ctx=ctx)
            assert not is_right_minimal(q.universe, padded, _ctx=ctx)


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_radical_graph_and_early_stopping_rad2(request, alg_name):
    # the neighbour lists are the classes W with rad != 0, and rad^2, which
    # stops once its composites span Hom(X, Y), is the span of every composite
    from cnproj.arquiver import _Ctx
    from cnproj.complexes import compose
    from cnproj.homspaces import rad_basis
    from cnproj.linalg import SpanBasis
    from cnproj.universe import enumerate_indecomposables

    universe = enumerate_indecomposables(request.getfixturevalue(alg_name), 3)
    ctx = _Ctx(universe)
    reps, m = ctx.reps, len(ctx.reps)
    nonzero = {(i, j) for i in range(m) for j in range(m)
               if rad_basis(reps[i], reps[j], universe).dimension}
    for k in range(m):
        assert ctx.neighbours(k, into=True) == [w for w in range(m) if (w, k) in nonzero]
        assert ctx.neighbours(k, into=False) == [w for w in range(m) if (k, w) in nonzero]
    full = 0
    for i, j in sorted(nonzero):
        hs = ctx.hom(i, j)
        span = SpanBasis(hs.source.alg.field, len(hs._free))
        for w in range(m):
            for f in ctx.rad(i, w).basis:
                for g in ctx.rad(w, j).basis:
                    span.add(hs.coordinates(compose(g, f)))
        assert ctx.rad2(i, j).dimension == span.dim, (i, j)
        full += span.dim == hs.dimension
    assert full > 0  # the early stop is reached


def _ext_memo(ctx):
    """Ext(z, x) between classes of ``ctx``, each solved once."""
    from cnproj.homspaces import ext_classes

    return functools.cache(lambda z, x: ext_classes(ctx.reps[z], ctx.reps[x]))


def _criterion_nullspace(ctx, ext, z, x, pairs):
    """The sigma in Ext(z, x) with sigma . g null-homotopic for every (w, g) of
    ``pairs``: the reduced echelon basis of their class coordinates."""
    from cnproj.linalg import rref

    espace = ext(z, x)
    rows = [c for c, _ in espace.vanishing_on([g for _, g in pairs])]
    return rows[:len(rref(ctx.reps[z].alg.field, rows, espace.dimension))]


@pytest.mark.parametrize("fixture, n", [("a3_relation.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 3), ("d4.alg", 2),
                                        ("a4_abc.alg", 3)])
def test_sink_rows_match_the_radical_criterion(fixtures_dir, fixture, n):
    # the sink components generate rad(-, z), so their rows cut out the same
    # almost split classes as the rows of every radical g: W -> z from every
    # W; every non-E_n-projective z has Ext(z, tau z) != 0, so each is met
    from cnproj.algfile import load_algebra
    from cnproj.arquiver import _Ctx
    from cnproj.universe import enumerate_indecomposables

    ctx = _Ctx(enumerate_indecomposables(load_algebra(str(fixtures_dir / fixture))[1], n))
    ext = _ext_memo(ctx)
    m = len(ctx.reps)
    ends = set()
    for z in range(m):
        every = [(w, g) for w in range(m) for g in ctx.rad(w, z).basis]
        for x in range(m):
            if ext(z, x).dimension:
                assert (_criterion_nullspace(ctx, ext, z, x, ctx.sink(z))
                        == _criterion_nullspace(ctx, ext, z, x, every)), (z, x)
                ends.add(z)
    assert ends


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_sink_completes_rad2_to_rad(request, alg_name):
    # per pair (w, z): dim rad - dim rad^2 sink maps from w, spanning rad with rad^2
    from cnproj.arquiver import _Ctx
    from cnproj.linalg import SpanBasis
    from cnproj.universe import enumerate_indecomposables

    ctx = _Ctx(enumerate_indecomposables(request.getfixturevalue(alg_name), 3))
    m = len(ctx.reps)
    for z in range(m):
        for w in range(m):
            maps = [g for v, g in ctx.sink(z) if v == w]
            rad, rad2 = ctx.rad(w, z), ctx.rad2(w, z)
            assert len(maps) == rad.dimension - rad2.dimension, (w, z)
            hs = ctx.hom(w, z)
            span = SpanBasis(hs.source.alg.field, len(hs._free))
            for g in rad2.basis + maps:
                span.add(hs.coordinates(g))
            assert span.dim == rad.dimension
            assert all(span.contains(hs.coordinates(g)) for g in rad.basis), (w, z)


def _scan_certified(universe, ctx, ext, z):
    """The classes X whose almost split candidate in Ext(z, X), from the sink rows,
    passes the definitional tests: a scan over every X, as the search once was."""
    from cnproj.homspaces import assemble_extension

    reps = ctx.reps
    found = []
    for x in range(len(reps)):
        sol = _criterion_nullspace(ctx, ext, z, x, ctx.sink(z))
        if not sol:
            continue
        sigma = ext(z, x).chain_map(sol[0])
        _, i_map, d_map = assemble_extension(reps[z], reps[x], sigma)
        if (is_right_almost_split(universe, d_map, _ctx=ctx)
                and is_left_almost_split(universe, i_map, _ctx=ctx)
                and is_right_minimal(universe, d_map, _ctx=ctx)):
            found.append(x)
    return found


@pytest.mark.parametrize("fixture, n", [("a2.alg", 2), ("point.alg", 2),
                                        ("a3_relation.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 3), ("d4.alg", 2),
                                        ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_predicted_tau_is_the_scan_certified_class(fixtures_dir, fixture, n):
    # tau Z read off the Hom-dimension table is the one class that the scan
    # over every X certifies with the factorisation tests; an E_n-projective
    # Z has none, and the straight path refuses it by name
    from cnproj.algfile import load_algebra
    from cnproj.arquiver import _Ctx, almost_split_ending_at

    q = build_ar_quiver(load_algebra(str(fixtures_dir / fixture))[1], n)
    ctx = _Ctx(q.universe)
    ext = _ext_memo(ctx)
    assert q.conflations
    for z in range(q.class_count()):
        expected = [q.tau[z]] if z in q.tau else []
        assert _scan_certified(q.universe, ctx, ext, z) == expected, z
        if z not in q.tau:
            with pytest.raises((NoCandidateFound, CertificationFailure),
                               match=re.escape(f"class {z} ({q.label(z)})")):
                almost_split_ending_at(ctx, z)
    for conf in q.conflations.values():
        assert conf.certified
        assert is_right_almost_split(q.universe, conf.d, _ctx=ctx)
        assert is_left_almost_split(q.universe, conf.i, _ctx=ctx)
        assert is_right_minimal(q.universe, conf.d, _ctx=ctx)


@pytest.mark.parametrize("alg_name, n", [("a2_alg", 2), ("a3_alg", 3)])
def test_certify_refuses_a_swapped_start_or_a_dropped_summand(request, alg_name, n):
    from cnproj.arquiver import _Ctx, _certify

    q = build_ar_quiver(request.getfixturevalue(alg_name), n)
    ctx = _Ctx(q.universe)
    for conf in q.conflations.values():
        named = re.escape(f"at class {conf.z_idx} ({q.label(conf.z_idx)})")
        for other in range(q.class_count()):
            if other != conf.x_idx:
                with pytest.raises(CertificationFailure, match=named):
                    _certify(ctx, dataclasses.replace(conf, x_idx=other, certified=False))
        with pytest.raises(CertificationFailure, match=named):
            _certify(ctx, dataclasses.replace(conf, y_summands=conf.y_summands[1:],
                                              certified=False))
        again = dataclasses.replace(conf, certified=False)
        _certify(ctx, again)
        assert again.certified


def _built_with_fresh_solves(monkeypatch, fixtures_dir, fixture, n):
    """The AR quiver of a fixture and the classes whose conflation was solved afresh."""
    from cnproj import arquiver
    from cnproj.algfile import load_algebra

    fresh, solve = [], arquiver.almost_split_ending_at
    monkeypatch.setattr(arquiver, "almost_split_ending_at",
                        lambda ctx, z: fresh.append(z) or solve(ctx, z))
    q = build_ar_quiver(load_algebra(str(fixtures_dir / fixture))[1], n)
    monkeypatch.undo()
    return q, fresh


@pytest.mark.parametrize("fixture, n", [("a2.alg", 2), ("point.alg", 2),
                                        ("a3_relation.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 3), ("d4.alg", 2), ("d4.alg", 3),
                                        ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_keyed_hom_table_is_hom_basis(fixtures_dir, fixture, n):
    # one solve per (shape, shape, offset) of a pair whose supports overlap: the
    # table is every pair's dimension, and a translate pair's moved basis is
    # hom_basis's basis entry for entry
    from cnproj.algfile import load_algebra
    from cnproj.homspaces import hom_basis

    q = build_ar_quiver(load_algebra(str(fixtures_dir / fixture))[1], n)
    uni = q.universe
    ctx, reps, spans = q._ctx, uni.representatives, uni.spans
    m = len(reps)
    fresh = {(i, j): hom_basis(reps[i], reps[j]) for i in range(m) for j in range(m)}
    assert ctx.h == [[fresh[(i, j)].dimension for j in range(m)] for i in range(m)]
    overlapping = [(i, j) for i, j in fresh
                   if spans[j][0] <= spans[i][1] and spans[i][0] <= spans[j][1]]
    assert len(ctx._keys) == len({uni.key(i, j) for i, j in overlapping})
    assert len(overlapping) < len(fresh)  # the stalks at 1 and at n never overlap
    walked = {(w, k) for k in range(m) for w in ctx.neighbours(k, into=True)}
    walked |= {(k, w) for k in range(m) for w in ctx.neighbours(k, into=False)}
    moved = 0
    for i, j in sorted(walked):
        hs = ctx.hom(i, j)
        assert (hs.source, hs.target) == (reps[i], reps[j])
        assert [g.comps for g in hs.basis] == [g.comps for g in fresh[(i, j)].basis], (i, j)
        assert hs._free == fresh[(i, j)]._free
        assert hs._layout.slots == fresh[(i, j)]._layout.slots
        moved += ctx._keyed(i, j)[0] != i
    assert moved or n == 2


@pytest.mark.parametrize("fixture, n", [("a3_relation.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 3), ("d4.alg", 3),
                                        ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_translated_conflations_are_the_solved_ones(monkeypatch, fixtures_dir, fixture, n):
    # a conflation moved from an earlier class with equal terms has the end terms
    # and middle summands of a fresh solve, and passes the definitional tests
    from cnproj.arquiver import almost_split_ending_at

    q, fresh = _built_with_fresh_solves(monkeypatch, fixtures_dir, fixture, n)
    translated = [c for z, c in q.conflations.items() if z not in fresh]
    assert translated
    for conf in translated:
        solved = almost_split_ending_at(q._ctx, conf.z_idx)
        assert conf.certified and conf.x_idx == solved.x_idx
        assert sorted(conf.y_summands) == sorted(solved.y_summands)
        assert (conf.x, conf.z) == (q.universe.representatives[conf.x_idx],
                                    q.universe.representatives[conf.z_idx])
        assert is_right_almost_split(q.universe, conf.d, _ctx=q._ctx)
        assert is_left_almost_split(q.universe, conf.i, _ctx=q._ctx)
        assert is_right_minimal(q.universe, conf.d, _ctx=q._ctx)


def _moved_from(q) -> dict:
    """Each conflation's end Z -> the first class with Z's terms up to translation,
    whose solved conflation was moved to Z (Z itself when Z was solved)."""
    from cnproj.arquiver import _terms

    first = {}
    return {z: first.setdefault(_terms(q._ctx, z), z) for z in sorted(q.conflations)}


@pytest.mark.parametrize("fixture, n", [("a3_relation.alg", 4), ("a6_relations.alg", 3),
                                        ("d4.alg", 3), ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_one_fresh_solve_per_terms_up_to_translation(monkeypatch, fixtures_dir, fixture, n):
    # Z is solved only when no earlier class has its terms up to translation; a
    # translate may reuse any earlier class with equal terms, not only the
    # first non-projective class of its shape
    q, fresh = _built_with_fresh_solves(monkeypatch, fixtures_dir, fixture, n)
    bases = _moved_from(q)
    assert sorted(fresh) == sorted(set(bases.values()))
    shape_firsts = {}
    for z in sorted(q.conflations):
        shape_firsts.setdefault(q.universe.classes[z][0], z)
    later = [z for z, b in bases.items() if b != z and b != shape_firsts[q.universe.classes[b][0]]]
    assert later or (fixture, n) != ("a3_relation.alg", 4)


def test_certify_refuses_a_mistranslated_conflation(monkeypatch, fixtures_dir):
    # a moved conflation that drops a middle summand, or whose start and middle
    # moved by k +- 1 instead of k from the conflation it was moved from, fails to
    # certify and names Z
    from cnproj.arquiver import _certify

    q, fresh = _built_with_fresh_solves(monkeypatch, fixtures_dir, "a3_relation.alg", 4)
    uni, ctx, refused = q.universe, q._ctx, 0
    for z, b in _moved_from(q).items():
        if z in fresh:
            continue
        conf, base = q.conflations[z], q.conflations[b]
        named = re.escape(f"at class {z} ({q.label(z)})")
        with pytest.raises(CertificationFailure, match=named):
            _certify(ctx, dataclasses.replace(conf, y_summands=conf.y_summands[1:],
                                              certified=False))
        k = uni.classes[z][1] - uni.classes[b][1]
        for off in (k - 1, k + 1):
            x_idx = uni.translate(base.x_idx, off)
            ys = [uni.translate(w, off) for w in base.y_summands]
            if x_idx is None or None in ys:
                continue
            with pytest.raises(CertificationFailure, match=named):
                _certify(ctx, dataclasses.replace(conf, x_idx=x_idx, y_summands=ys,
                                                  certified=False))
            refused += 1
    assert refused


# sha256 of the AR-quiver DOT of a branching quiver (d4) and of a length-3
# relation (a4_abc), which the linear goldens of tests/golden do not cover
_DOT_SHA256 = {
    ("d4.alg", 3): "3b16a4920a725b5f91ca8f3a01bcdb6cb0ec07553298ee2ede3130e2bef8ef1b",
    ("a4_abc.alg", 4): "c81370269330946849479eaeff53fefe288275d7ad34c3f7f501c7ec6665cc37",
}


@pytest.mark.parametrize("fixture, n", sorted(_DOT_SHA256))
def test_ar_quiver_dot_is_pinned(fixtures_dir, fixture, n):
    import hashlib

    from cnproj.algfile import load_algebra
    from cnproj.exports import ar_quiver_to_dot

    _, alg = load_algebra(str(fixtures_dir / fixture))
    dot = ar_quiver_to_dot(build_ar_quiver(alg, n))
    assert hashlib.sha256(dot.encode()).hexdigest() == _DOT_SHA256[(fixture, n)]


# sha256 of the AR quiver named by class labels (sorted labels, arrows with
# multiplicity, tau, and the en-projective, en-injective and
# projective-injective flags), with the sizes of those four lists; unlike the
# DOT bytes, these do not move when a representative is written in another sign
_LABELLED_QUIVER = {
    ("e6.alg", 4): ((104, 171, 80, 104),
                    "504f15f86593ea1b558d265a1eafdd6d8ff9efc7314bac91e580d13f774ec7bb"),
    ("cyc2.alg", 3): ((16, 26, 10, 16),
                      "7fb68a1c88e0d788bef3ecf0eff02f30987e27d98c435b6907553fcec1ec3587"),
}


@pytest.mark.parametrize("fixture, n", sorted(_LABELLED_QUIVER))
def test_ar_quiver_is_pinned_by_label(fixtures_dir, fixture, n):
    import hashlib

    from cnproj.algfile import load_algebra

    _, alg = load_algebra(str(fixtures_dir / fixture))
    q = build_ar_quiver(alg, n)
    label = q.label
    labels = sorted(label(i) for i in range(q.class_count()))
    assert len(set(labels)) == len(labels)  # a label names one class
    record = (labels,
              sorted((label(i), label(j), m) for (i, j), m in q.arrows.items()),
              sorted((label(z), label(x)) for z, x in q.tau.items()),
              sorted((label(i), q.en_projective[i], q.en_injective[i], q.proj_injective[i])
                     for i in range(q.class_count())))
    sizes, digest = _LABELLED_QUIVER[(fixture, n)]
    assert tuple(map(len, record)) == sizes
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


@pytest.mark.parametrize("fixture, n", [("a6_relations.alg", 5), ("d4.alg", 3)])
def test_lifted_sink_refuses_a_wrong_sink_or_class(fixtures_dir, fixture, n):
    # the sink map lifts through d: Y -> Z to an isomorphism onto Y, and the lift is a
    # certificate: it refuses, naming Z, a sink with a component dropped, a sink with
    # Z's identity (not radical) added, a class of Ext(Z, tau Z) not proportional to
    # sigma, and a nonzero null-homotopic sigma (the zero class) in place of sigma; a
    # nonzero multiple of sigma is almost split too.  Ext(Z, tau Z) has dimension 1 at
    # every Z of these fixtures, so the third case does not occur on them
    from cnproj.algfile import load_algebra
    from cnproj.arquiver import _lifted_sink
    from cnproj.complexes import ChainMap
    from cnproj.homspaces import ExtClassSpace, ext_classes, null_homotopy_span

    q = build_ar_quiver(load_algebra(str(fixtures_dir / fixture))[1], n)
    ctx, boundaries = q._ctx, 0
    for z, conf in q.conflations.items():
        named = re.escape(f"at class {z} ({q.label(z)})")
        sink, espace = ctx.sink(z), ext_classes(conf.z, conf.x)

        def lifted(vectors=espace.vectors, sink=sink, conf=conf, hom=espace.hom):
            # the pass's class solve and lift, on the classes spanned by ``vectors``
            space = ExtClassSpace(conf.z, conf.x, hom, vectors)
            return sorted(_lifted_sink(ctx, z, sink, space)[3])

        want = sorted(conf.y_summands)
        assert lifted() == want
        assert lifted([[2 * v for v in vec] for vec in espace.vectors]) == want
        assert lifted([[-v for v in vec] for vec in espace.vectors]) == want
        wrong = [{"sink": sink[:k] + sink[k + 1:]} for k in range(len(sink))]
        wrong.append({"sink": [*sink, (z, ChainMap.identity(conf.z))]})
        (coords, _), = espace.vanishing_on([a for _, a in sink])
        wrong += [{"vectors": [vec]} for j, vec in enumerate(espace.vectors)
                  if any(c for i, c in enumerate(coords) if i != j)]
        # a nonzero null-homotopic chain map is a class 0: Y splits as X (+) Z
        nulls = null_homotopy_span(espace.hom).rows
        if nulls:
            wrong.append({"vectors": nulls[:1]})
            boundaries += 1
        for case in wrong:
            with pytest.raises(CertificationFailure, match=named):
                lifted(**case)
    assert boundaries


@pytest.mark.parametrize("fixture, n", [("a2.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 5), ("d4.alg", 3),
                                        ("a4_abc.alg", 4), ("cyc2.alg", 3), ("e6.alg", 4)])
def test_lifted_summands_are_the_split_summands(monkeypatch, fixtures_dir, fixture, n):
    # differential check: the AR pass, with Krull-Schmidt splitting refused, names the
    # middle summands that splitting Y names
    from cnproj import arquiver
    from cnproj.algfile import load_algebra
    from cnproj.homspaces import decompose_with_maps

    def refuse(y):
        raise AssertionError("the AR pass split a middle term")

    monkeypatch.setattr(arquiver, "decompose_with_maps", refuse)
    q = build_ar_quiver(load_algebra(str(fixtures_dir / fixture))[1], n)
    monkeypatch.undo()
    assert q.conflations
    for conf in q.conflations.values():
        split = [q.universe.find(w) for w, _, _ in decompose_with_maps(conf.y)]
        assert sorted(conf.y_summands) == sorted(split), conf.z_idx


def _full_scan_sink(ctx, z):
    """Z's sink components from ``ctx.rad2`` on every neighbour w: no pair skipped."""
    from cnproj.linalg import SpanBasis

    comps = []
    for w in ctx.neighbours(z, into=True):
        hs, rad, rad2 = ctx.hom(w, z), ctx.rad(w, z), ctx.rad2(w, z)
        span = SpanBasis(hs.source.alg.field, len(hs._free))
        for g in rad2.basis:
            span.add(hs.coordinates(g))
        comps.extend((w, g.comps) for g in rad.basis if span.add(hs.coordinates(g)))
    return comps


@pytest.mark.parametrize("fixture, n", [("a2.alg", 3), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 5), ("d4.alg", 3),
                                        ("a4_abc.alg", 4), ("cyc2.alg", 3), ("e6.alg", 4)])
def test_certified_sink_is_the_full_scan(fixtures_dir, fixture, n):
    # a translate whose witnesses move with it skips its rad^2 scan, and the sink is
    # still the one that scanning every radical pair gives, component for component
    from cnproj.algfile import load_algebra
    from cnproj.arquiver import _Ctx
    from cnproj.universe import enumerate_indecomposables

    ctx = _Ctx(enumerate_indecomposables(load_algebra(str(fixtures_dir / fixture))[1], n))
    pairs = 0
    for z in range(len(ctx.reps)):
        assert [(w, g.comps) for w, g in ctx.sink(z)] == _full_scan_sink(ctx, z), z
        pairs += len(ctx.neighbours(z, into=True))
    assert ctx.stats["rad2_scans"] + ctx.stats["rad2_by_translation"] == pairs
    assert ctx.stats["rad2_by_translation"]


def test_ar_pass_counts_its_work(monkeypatch, a6_alg):
    # on a6 at n = 5 the 1,517 radical pairs fall into 605 keys: 756 pairs are
    # scanned and 761 certified by translation, the scans form 778 composites,
    # and of the 70 conflations 36 are solved and 34 moved; tau Z is read off
    # the Hom table once per non-projective Z; the stats are the calls the pass makes
    from cnproj import arquiver

    calls = {"rad2_basis": 0, "almost_split_ending_at": 0, "classes_with_column": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("rad2_basis", "almost_split_ending_at"):
        monkeypatch.setattr(arquiver, name, counted(name, getattr(arquiver, name)))
    monkeypatch.setattr(arquiver._Ctx, "classes_with_column",
                        counted("classes_with_column", arquiver._Ctx.classes_with_column))
    q = build_ar_quiver(a6_alg, 5)
    assert q.stats == {"rad2_scans": 756, "rad2_by_translation": 761, "rad2_composites": 778,
                       "conflations_solved": 36, "conflations_moved": 34}
    assert calls == {"rad2_basis": 756, "almost_split_ending_at": 36, "classes_with_column": 70}
    assert q.tau == q._ctx._tau
    assert len(q.conflations) == 70
    assert len({q.universe.key(w, z) for z in range(q.class_count())
                for w in q._ctx.neighbours(z, into=True)}) == 605
