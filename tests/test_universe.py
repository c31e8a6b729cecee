import hashlib

import pytest

from cnproj import universe as universe_mod
from cnproj.algebra import Quiver, build_algebra
from cnproj.algfile import load_algebra
from cnproj.complexes import (
    Complex,
    direct_sum,
    drop_first,
    length,
    make_stalk,
    shift_window,
    strip_contractible,
    zero_complex,
)
from cnproj.errors import NotClosed, SearchSpaceTooLarge
from cnproj.homspaces import hom_basis, is_isomorphic
from cnproj.sgldim import compute_sgldim
from cnproj.universe import (
    EnumConfig,
    _ShapeRegistry,
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


def _non_seed_shapes(alg, shapes):
    # the stalk and J seeds are one shape per vertex each
    return len(shapes.reps) - 2 * len(alg.quiver.vertices)


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_admit_verifies_each_new_class_once(alg_name, request, monkeypatch):
    # each non-seed shape is proven indecomposable exactly once per run, by the
    # pair rule where it is registered, under a stalk key or any other, always
    # at support 1..w; the other proofs are connected cones that the pair rule
    # drops as decomposable
    alg = request.getfixturevalue(alg_name)
    calls = []
    real = universe_mod.is_indecomposable

    def counting(x):
        calls.append((x, real(x)))
        return calls[-1][1]

    def proven():
        return [x for x, ok in calls if ok]

    monkeypatch.setattr(universe_mod, "is_indecomposable", counting)
    uni = enumerate_indecomposables(alg, 4)
    added = uni.stats["added_by_rule"]
    non_seed = added["ext"] + added["cone"]
    assert len(uni.representatives) - added["seed"] == non_seed
    seeds = len(uni.shapes.reps) - _non_seed_shapes(alg, uni.shapes)
    # the proven complexes are the non-seed shapes, in the order they were registered
    assert proven() == uni.shapes.reps[seeds:] and len(proven()) > 0
    assert all(x.support() == (1, x.window) for x, _ in calls)
    # a growth run proves each shape once, not once per window
    calls.clear()
    report = compute_sgldim(alg)
    shapes = report.universes[report.m0].shapes
    assert proven() == shapes.reps[seeds:]
    # the rule candidates are dropped once nothing can replay them
    assert uni.shapes.candidates == {} and shapes.candidates == {}
    # integer-first rationals: no coefficient of these classes needs a denominator
    assert all(type(c) is int for rep in uni.representatives for m in rep.diffs
               for row in m for e in row for c in e.coeffs.values())


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_find_maps_every_fitting_shift_to_its_translate(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    n = 4
    uni = enumerate_indecomposables(alg, n)
    for i, rep in enumerate(uni.representatives):
        assert uni.find(rep) == i
        sid, lo = uni.classes[i]
        width = uni.shapes.reps[sid].window
        for p in range(1 - lo, n - width - lo + 2):
            j = uni.find(shift_window(rep, p, n))
            assert j is not None and uni.classes[j] == (sid, lo + p)
            assert uni.representatives[j] == shift_window(rep, p, n)
            assert uni.translate(i, p) == j
            assert all(uni.key(j, m) == uni.key(i, mi) and uni.key(m, j) == uni.key(mi, i)
                       for mi in range(len(uni.classes))
                       if (m := uni.translate(mi, p)) is not None)
        assert uni.translate(i, n - width - lo + 2) is None


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_find_rejects_other_windows_zero_and_sums(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    uni = enumerate_indecomposables(alg, 4)
    other = enumerate_indecomposables(alg, 3)
    assert all(uni.find(rep) is None for rep in other.representatives)
    assert uni.find(zero_complex(alg, 4)) is None
    reps = uni.representatives
    for i, j in [(0, 0), (0, 1), (len(reps) - 1, len(reps) // 2)]:
        assert uni.find(direct_sum(reps[i], reps[j])) is None


def test_decomposable_stalk_key_cone_is_dropped(a2_alg, monkeypatch):
    # a stalk key runs the pair rule, so a connected cone that the proof finds
    # decomposable is dropped there, never registered, and the window is the
    # same; every non-seed shape is registered right after its own proof
    a = a2_alg.hom_proj_basis(2, 1)[0]
    split = Complex(a2_alg, [(2,), (1, 1)], [[[a], [a]]])  # (P2 -> P1) (+) (0 -> P1)
    plain = enumerate_indecomposables(a2_alg, 2)
    real_cones, real_proof, real_add = (universe_mod.pair_cones, universe_mod.is_indecomposable,
                                        _ShapeRegistry.add)
    injected, events = [], []

    def cones(uni, i, j):
        if uni.representatives[i].total_summands() == uni.representatives[j].total_summands() == 1:
            injected.append(uni.key(i, j))
            yield split
        yield from real_cones(uni, i, j)

    def proof(x):
        events.append(("proof", x, real_proof(x)))
        return events[-1][2]

    def add(self, x, found=None):
        out = real_add(self, x, found)
        events.append(("add", out))
        return out

    monkeypatch.setattr(universe_mod, "pair_cones", cones)
    monkeypatch.setattr(universe_mod, "is_indecomposable", proof)
    monkeypatch.setattr(_ShapeRegistry, "add", add)
    shapes = _ShapeRegistry()
    uni = enumerate_indecomposables(a2_alg, 2, _registry=shapes)
    monkeypatch.undo()
    assert ("proof", split, False) in events
    assert shapes._lookup(split)[-1] is None
    assert uni.representatives == plain.representatives and uni.stats == plain.stats
    # the stalk loop met these keys, so every candidate they keep is rule (a)'s
    assert injected and {rule for key in injected for rule, _, _ in shapes.candidates[key]} == {"ext"}
    seeds = len(shapes.reps) - _non_seed_shapes(a2_alg, shapes)
    registered = [(k, e[1][0]) for k, e in enumerate(events) if e[0] == "add" and e[1][0] >= seeds]
    assert len(registered) == len(shapes.reps) - seeds > 0
    assert all(events[k - 1] == ("proof", shapes.reps[sid], True) for k, sid in registered)


def _one_cell_extensions(alg, x, v, left):
    """Rule (a) built by hand: a new first cell P_v at lo - 1 whose differential
    is a basis chain map from the stalk P_v at lo into X, or a new last cell
    P_v at hi + 1 fed by a basis chain map from X to the stalk at hi."""
    out = []
    lo, hi = x.support()
    n = x.window
    if left:
        for g in hom_basis(make_stalk(alg, v, lo, n), x).basis:
            cells, diffs = list(x.cells), list(x.diffs)
            cells[lo - 2] = (v,)
            diffs[lo - 2] = g.comps[lo - 1]
            if lo >= 3:
                diffs[lo - 3] = [[]]  # one empty row into the new single summand
            out.append(Complex(alg, cells, diffs))
    else:
        for g in hom_basis(x, make_stalk(alg, v, hi, n)).basis:
            cells, diffs = list(x.cells), list(x.diffs)
            cells[hi] = (v,)
            diffs[hi - 1] = g.comps[hi - 1]
            out.append(Complex(alg, cells, diffs))
    return out


def _cone_sign(y, x, z):
    """Y = X (+) Z with d = [[d_X, sigma], [0, d_Z]] rewritten in the sign of
    ``cone``: Z (+) X with d = [[-d_Z, 0], [sigma, d_X]]."""
    order = [list(range(len(x.cells[p]), len(y.cells[p]))) + list(range(len(x.cells[p])))
             for p in range(y.window)]
    diffs = [[[-d[r][c] if r < len(z.cells[p + 1]) and c < len(z.cells[p]) else d[r][c]
               for c in order[p]] for r in order[p + 1]]
             for p, d in enumerate(y.diffs)]
    return Complex(y.alg, [z.cells[p] + x.cells[p] for p in range(y.window)], diffs)


@pytest.mark.parametrize("fixture, n", [("a3_relation.alg", 4), ("a6_relations.alg", 4),
                                        ("d4.alg", 3), ("kronecker", 3)])
def test_rule_a_is_the_one_cell_extension(fixtures_dir, fixture, n):
    # Ext(stalk at lo - 1, X) has the slots and equations of Hom(stalk at lo, X)
    # (and likewise on the right), so the cones of a stalk key are the
    # hand-built one-cell extensions written in cone sign, in order, whichever
    # loop met the key first.  J classes have no extensions and no stalk key.
    if fixture == "kronecker":
        # Hom(P_2, P_1) has basis a, b, so a stalk gains a new cell in two ways;
        # the closure does not end, and one round runs rule (a) on the seeds
        alg = build_algebra(Quiver((1, 2), (("a", 1, 2), ("b", 1, 2))), [], "rational")
        config = EnumConfig(max_rounds=1)
    else:
        _, alg = load_algebra(str(fixtures_dir / fixture))
        config = None
    shapes = _ShapeRegistry()  # keeps the rule keys the loops ran
    uni = enumerate_indecomposables(alg, n, config, _registry=shapes)
    reps = uni.representatives
    vertices = sorted(alg.quiver.vertices)
    sides, widest, met_first = 0, 0, set()
    for i in range(len(reps) if config is None else uni.stats["added_by_rule"]["seed"]):
        lo, hi = uni.spans[i]
        for left, ok, offset in ((True, lo >= 2, lo - 2), (False, hi <= n - 1, hi)):
            if not ok:
                continue
            if uni.j_flags[i]:
                assert all(_one_cell_extensions(alg, reps[i], v, left) == [] for v in vertices)
                assert not any(uni.key(*((s, i) if left else (i, s))) in shapes.candidates
                               for v in range(len(vertices))
                               if (s := uni.translate(v, offset)) is not None)
                continue
            sides += 1
            for v, vertex in enumerate(vertices):
                s = uni.translate(v, offset)
                z, sub = (s, i) if left else (i, s)
                cands = shapes.candidates[uni.key(z, sub)]
                met_first |= {rule for rule, _, _ in cands}
                ys = [_cone_sign(y, reps[sub], reps[z])
                      for y in _one_cell_extensions(alg, reps[i], vertex, left)]
                assert [y for _, y, _ in cands] == [
                    w for y in ys if (w := universe_mod._normalise(y)) is not None], (i, left, v)
                widest = max(widest, len(cands))
    assert sides and uni.stats["added_by_rule"]["ext"] > 0
    assert widest == (2 if fixture == "kronecker" else 1)
    # the loops that met a stalk pair's key first
    assert met_first == ({"ext", "cone"} if fixture in ("a3_relation.alg", "a6_relations.alg")
                         else {"ext"})


@pytest.mark.parametrize("fixture, n", [("point.alg", 4), ("a2.alg", 4), ("a3_relation.alg", 4),
                                        ("a6_relations.alg", 3), ("d4.alg", 3),
                                        ("a4_abc.alg", 3), ("cyc2.alg", 3)])
def test_support_gate_is_exact(fixtures_dir, fixture, n, monkeypatch):
    # disjoint supports leave no shared position for a chain map, and a
    # degree-1 map rep[i] -> rep[j] needs a position p of rep[i] with p + 1 in
    # rep[j], so Ext(i, j) vanishes on the pairs the pair rule's gate skips.
    # Inside that gate, the pair rule solves Hom(rep[i], rep[j] moved one cell
    # left) exactly once for each key with a path from a vertex of rep[i] at p
    # to one of rep[j] at p + 1, stalk keys included; the others have no path
    # coordinate, so Hom and Ext are 0, and their keys keep an empty entry
    from cnproj.homspaces import ext_classes, hom_basis

    solved, nvars = [], []
    real_hom = universe_mod.hom_basis

    def recording_hom(x, y):
        # x is rep[i] moved one cell right of rep[j]'s alignment
        sx, sy, offset = _translation_key(x, y)
        solved.append((sx, sy, offset - 1))
        hs = real_hom(x, y)
        nvars.append(hs._layout.nvars)
        return hs

    monkeypatch.setattr(universe_mod, "hom_basis", recording_hom)
    alg = load_algebra(str(fixtures_dir / fixture))[1]
    shapes = _ShapeRegistry()  # keeps the rule keys the pair loop ran
    uni = enumerate_indecomposables(alg, n, _registry=shapes)
    monkeypatch.undo()
    reps, spans = uni.representatives, uni.spans
    assert spans == [rep.support() for rep in reps]
    skipped = edge_ext = path_gated = 0
    with_path = set()
    for i, (a, b) in enumerate(spans):
        for j, (c, d) in enumerate(spans):
            if c > b or a > d:
                assert hom_basis(reps[i], reps[j]).dimension == 0, (i, j)
            gated = c >= b + 2 or d <= a
            if gated:
                skipped += 1
                assert ext_classes(reps[i], reps[j]).dimension == 0, (i, j)
            elif c == b + 1 or d == a + 1:
                edge_ext += ext_classes(reps[i], reps[j]).dimension > 0
            if uni.j_flags[i] or uni.j_flags[j]:
                continue
            # every non-J pair is visited; exactly the gated ones skip the pair rule
            assert (uni.key(i, j) in shapes.candidates) != gated, (i, j)
            if gated:
                continue
            if any(alg.paths_between(t, s)
                   for p in range(n - 1) for s in reps[i].cells[p] for t in reps[j].cells[p + 1]):
                with_path.add(_translation_key(reps[i], reps[j]))
            else:
                path_gated += 1
                assert shapes.candidates[uni.key(i, j)] == []
                assert ext_classes(reps[i], reps[j]).dimension == 0, (i, j)
    # the gate skips some pairs, and one position inside it Ext can be nonzero
    assert skipped and edge_ext
    assert 0 not in nvars
    assert len(solved) == len(set(solved))
    assert set(solved) == with_path
    # a path joins every two vertices of one vertex or of a 2-cycle
    assert bool(path_gated) == (fixture not in ("point.alg", "cyc2.alg"))


@pytest.mark.parametrize("fixture, n", [("a6_relations.alg", 3), ("d4.alg", 2),
                                        ("a4_abc.alg", 3), ("a3_relation.alg", 4),
                                        ("cyc2.alg", 3), ("e6.alg", 3)])
def test_ar_pass_ext_is_the_pair_rule_ext(fixtures_dir, fixture, n):
    # the AR pass and the pair rule read Ext(rep[i], rep[j]) as one space: the
    # classes of ext_classes cone to the pair rule's middle terms, in order,
    # on the first pair of every key with a path coordinate
    from cnproj.complexes import cone
    from cnproj.homspaces import ext_classes

    uni = enumerate_indecomposables(load_algebra(str(fixtures_dir / fixture))[1], n)
    reps, keys, classes = uni.representatives, set(), 0
    for i in range(len(reps)):
        for j in range(len(reps)):
            if uni.key(i, j) in keys or not uni.has_path(i, j, 1):
                continue
            keys.add(uni.key(i, j))
            ext = ext_classes(reps[i], reps[j])
            cones = [universe_mod._normalise(cone(s)) for s in ext.basis]
            assert ([y.serial_key() for y in cones if y is not None]
                    == [y.serial_key() for y in universe_mod.pair_cones(uni, i, j)]), (i, j)
            classes += len(cones)
    assert classes


def test_lookup_of_a_normalised_complex_makes_no_copy(a6_alg, monkeypatch):
    # a complex with support 1..w in window w is sorted as it is, with no
    # shift_window copy; a shifted copy in a wider window finds the same shape
    # and id, at its own first position
    uni = enumerate_indecomposables(a6_alg, 4)
    shapes = uni.shapes
    sorted_args = []
    real = universe_mod.canonical_sort
    monkeypatch.setattr(universe_mod, "canonical_sort",
                        lambda x: sorted_args.append(x) or real(x))
    for sid, rep in enumerate(shapes.reps):
        x, sig, key, lo, found = shapes._lookup(rep)
        assert (x, lo, found) == (rep, 1, sid) and sorted_args.pop() is rep
        for p in range(1, uni.window - rep.window + 1):
            moved = shift_window(rep, p, uni.window)
            assert shapes._lookup(moved) == (x, sig, key, 1 + p, sid)
            assert sorted_args.pop() == rep
    assert shift_window(rep, 0, rep.window) is rep


def test_registry_cone_is_admitted_unsplit(a6_alg, monkeypatch):
    # no enumeration splits a complex: the pair rule keeps registry shapes and
    # proven indecomposable cones only.  A second run of window 3 over the first
    # run's shapes, with nothing to replay, proves nothing new: every cone it
    # keeps is a registry shape, admitted with the shape id its lookup found
    from cnproj import homspaces

    def refuse(*args):
        raise AssertionError("an enumeration split a complex")

    monkeypatch.setattr(homspaces, "decompose_with_maps", refuse)
    monkeypatch.setattr(homspaces, "_split_by_idempotent", refuse)
    assert not hasattr(universe_mod, "decompose_with_maps")
    shapes = _ShapeRegistry()
    first = enumerate_indecomposables(a6_alg, 3, _registry=shapes)
    shapes.candidates.clear()
    count = len(shapes.reps)
    proofs = []
    real = universe_mod.is_indecomposable
    monkeypatch.setattr(universe_mod, "is_indecomposable",
                        lambda x: proofs.append(real(x)) or proofs[-1])
    again = enumerate_indecomposables(a6_alg, 3, _registry=shapes)
    assert again.representatives == first.representatives
    assert len(shapes.reps) == count and not any(proofs)
    cands = [c for cands in shapes.candidates.values() for c in cands]
    assert any(rule == "cone" for rule, _, _ in cands)
    assert all(sid is not None for _, _, sid in cands)
    # the same holds for a growth run and over GF(2)
    compute_sgldim(a6_alg)
    enumerate_indecomposables(build_algebra(a6_alg.quiver, a6_alg.relations, "gf2"), 4)


@pytest.mark.parametrize("alg_name", ["a3_alg", "a6_alg"])
def test_replayed_candidates_keep_their_shape_id(alg_name, request, monkeypatch):
    # a later window of a sgldim run places the candidates it replays from the
    # shape id the pair rule stored, with no lookup, and each window still
    # equals a standalone enumeration
    from cnproj import sgldim as sgldim_mod

    alg = request.getfixturevalue(alg_name)
    real_lookup, real_enumerate = _ShapeRegistry._lookup, sgldim_mod.enumerate_indecomposables
    stored: set[int] = set()  # ids of candidates with a stored shape id, kept alive by the registry
    replayed_lookups = []

    def lookup(self, x):
        replayed_lookups.append(id(x) in stored)
        return real_lookup(self, x)

    def window(alg, n, config=None, *, _registry):
        stored.clear()
        stored.update(id(y) for cands in _registry.candidates.values()
                      for _, y, sid in cands if sid is not None)
        replayed_lookups.clear()
        uni = real_enumerate(alg, n, config, _registry=_registry)
        assert replayed_lookups and not any(replayed_lookups)
        assert bool(stored) == (uni.stats["replayed"] > 0) == (n > 2)
        # a stored id is the shape a fresh lookup finds
        assert all(real_lookup(_registry, y)[-1] == sid
                   for cands in _registry.candidates.values() for _, y, sid in cands
                   if sid is not None)
        return uni

    monkeypatch.setattr(_ShapeRegistry, "_lookup", lookup)
    monkeypatch.setattr(sgldim_mod, "enumerate_indecomposables", window)
    grown = compute_sgldim(alg).universes
    monkeypatch.undo()
    assert len(grown) >= 3
    assert _window_rows(grown) == _window_rows(
        {n: enumerate_indecomposables(alg, n) for n in grown})


# sha256 of repr([(n, serial keys, sorted added_by_rule items)]) over the
# windows; the serial keys are those of standalone enumerations before the
# translation memo existed, except on d4 and cyc2, where the pair rule writes
# some representatives in cone sign
_WINDOW_SHA256 = {
    ("a3_relation.alg", "rational"):
        "1ba5b6fffe681d165549404990e22320e32fc255484c3aeb9246a15ff989e343",
    ("a3_relation.alg", "gf2"):
        "1ba5b6fffe681d165549404990e22320e32fc255484c3aeb9246a15ff989e343",
    ("a6_relations.alg", "rational"):
        "5655c7a640cdee05ed07badb265ab7d1a44481e412da0e6f90b6eff1d84be00d",
    ("a6_relations.alg", "gf2"):
        "1d6eadc0d626fca426cb1b88161e85a80177a40a7bfbd1515fbccc5e5cf03b94",
    ("d4.alg", "rational"):
        "39a9df4096b75aa6b9356c495c9400b7a7b6b0ba37f933be04ef985f7df3cbbf",
    ("a4_abc.alg", "rational"):
        "15aac1a8ef2a9db7d8da8312afa975b2f414a171a951a801227c776a5f80d80b",
    ("cyc2.alg", "rational"):
        "854bb94eb5018ae4a245c65292b43e633dcbc52817b236ff9d493b6278d12617",
}


def _window_rows(universes):
    return [(n, [r.serial_key() for r in uni.representatives],
             sorted(uni.stats["added_by_rule"].items()))
            for n, uni in sorted(universes.items())]


@pytest.mark.parametrize("name, field", sorted(_WINDOW_SHA256))
def test_grown_windows_equal_fresh_windows(name, field, fixtures_dir):
    _, alg = load_algebra(str(fixtures_dir / name))
    alg = build_algebra(alg.quiver, alg.relations, field)
    if name == "cyc2.alg":
        # infinite gl.dim: compute_sgldim stops before enumerating, so grow
        # windows 2..4 through one registry as the drivers do
        shapes = _ShapeRegistry()
        grown = {n: enumerate_indecomposables(alg, n, _registry=shapes) for n in (2, 3, 4)}
    else:
        grown = compute_sgldim(alg).universes
    fresh = {n: enumerate_indecomposables(alg, n) for n in grown}
    rows = _window_rows(grown)
    assert rows == _window_rows(fresh)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _WINDOW_SHA256[(name, field)]
    later = [grown[n].stats for n in sorted(grown)[1:]]
    assert all(st["replayed"] > 0 for st in later)
    assert all(uni.stats["replayed"] == 0 for uni in fresh.values())


def _translation_key(z, x):
    """(shape of z, shape of x, relative offset): equal for translated pairs."""
    def shape(c):
        lo, hi = c.support()
        key = c.serial_key()
        return (key[1][lo - 1:hi], key[2][lo - 1:hi - 1]), lo
    (sz, lz), (sx, lx) = shape(z), shape(x)
    return sz, sx, lz - lx


def test_ext_solved_once_per_translation_key(a6_alg, monkeypatch):
    # Ext(A, B) is solved as Hom(A moved one cell right, B), once per key of a
    # run and never with a J side: J is projective-injective in C_n(proj Lambda),
    # so Ext with it vanishes, and both loops skip J classes
    keys, contractible = [], []
    real = universe_mod.hom_basis

    def recording(x, y):
        keys.append(_translation_key(x, y))
        contractible.extend(c for c in (x, y) if strip_contractible(c).is_zero())
        return real(x, y)

    monkeypatch.setattr(universe_mod, "hom_basis", recording)
    shapes = _ShapeRegistry()
    unis = [enumerate_indecomposables(a6_alg, n, _registry=shapes) for n in (2, 3, 4)]
    assert keys and len(keys) == len(set(keys))
    assert contractible == []
    assert all(u.stats["translate_skips"] > 0 for u in unis)
