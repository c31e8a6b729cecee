"""The Auslander-Reiten quiver of C_n(proj Lambda) and its derived shadow.

Arrows come from rad/rad^2 dimensions over a closed universe, and the work
follows the nonzero radical graph: ``_Ctx`` lists, per class k, the classes
W with rad(W, k) != 0 and those with rad(k, W) != 0, and every quantifier
over universe classes W below walks these lists.  rad^2(X, Y) is the span
of the composites X -> W -> Y over the W that X has radical maps to; its
scan stops once the composites span Hom(X, Y).

A scan that ends with rad^2(w, z) = rad(w, z) (no arrow) is a certificate for
the key of (w, z): ``_Ctx`` keeps z and the classes U whose composites it took,
and a translate (w + k, z + k) has no arrow, unscanned, when every u + k is a
class.  Translation by k maps rad(w, u) onto rad(w + k, u + k) and rad(u, z)
onto rad(u + k, z + k) (rad End is kept per shape, so also for u = w or z),
so the moved composites span dim rad(w, z) = dim rad(w + k, z + k) inside
rad^2(w + k, z + k), which lies in rad.  The witness test is needed: near the
ends of the window a translate has other neighbours, and on a6 at n = 5, 23 of
the 605 keys of radical pairs have an arrow at one translate and none at
another.  First pairs, arrow pairs and translates whose witnesses leave the
window are scanned (ARS V for rad^2 and irreducible maps).

Almost split conflations ending at a non-projective class Z are read off
the Hom-dimension table h(V, W) = dim Hom(V, W), with t(K) = dim End(K) -
dim rad End(K).  The middle term is the source of Z's sink map (``_Ctx.sink``),
so tau Z is the class X with h(-, X) = sum of h(-, W) over the sink sources W,
minus h(-, Z), plus t(Z) at Z.  Only Ext(Z, X) is solved: the sink components a
generate rad(-, Z), so sigma is almost split iff every sigma . a is a boundary.
Y is never split: each a lifts through d: Y -> Z by the degree-0 family that
bounds sigma . a, and the lifts must form an isomorphism from the sum of the
sink sources onto Y, which are then Y's summands (ARS V: two minimal right
almost split maps into Z are isomorphic over Z).
Hom(V, -) is left exact on X -> Y -> Z, so d: Y -> Z is right almost split iff
its defect h(V, X) - h(V, Y) + h(V, Z) is 0 at every class V but Z and t(Z) at Z;
i is left almost split dually, and an indecomposable X makes d right minimal.
``check`` runs the definitions (``_factors_all``) on every conflation.

The pass works up to translation, through ``Universe.key(i, j)`` = (shape of i,
shape of j, lo_i - lo_j).  ``_Ctx`` solves one Hom space per key and moves its
basis to the translate pairs (``HomSpace.moved``); a pair with disjoint
supports has Hom = 0 and is not solved.  Z's terms up to translation
are its shape, key(tau Z, Z) and the keys key(W, Z) of its sink sources; Z is
solved only when no earlier class had equal terms, else that conflation is
moved to Z and certified.  The defects depend only on the terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import (
    ChainMap,
    Complex,
    compose,
    direct_sum_many,
    drop_first,
    drop_last,
    embed_left,
    embed_right,
    shift_window,
    shift_window_map,
    zero_complex,
)
from .errors import (
    AmbiguousAnchor,
    CertificationFailure,
    CharacteristicUnsupported,
    EtaZero,
    NoAnchorFound,
    NoCandidateFound,
    NotClosed,
    ShapeViolation,
)
from .homspaces import (
    DegreeOneMap,
    HomSpace,
    assemble_extension,
    can_extend_left,
    can_extend_right,
    decompose_with_maps,
    end_radical_coords,
    ext_classes,
    hom_basis,
    rad2_basis,
)
from .linalg import SpanBasis, nullspace, rank
from .universe import EnumConfig, Universe, enumerate_indecomposables


@dataclass
class Conflation:
    """An E_n-conflation X -> Y -> Z with degreewise split rows."""

    x: Complex
    y: Complex
    z: Complex
    i: ChainMap
    d: ChainMap
    certified: bool = False
    x_idx: int = -1
    z_idx: int = -1
    y_summands: list = field(default_factory=list)  # universe indices, repeated per multiplicity


@dataclass
class ARQuiver:
    alg: object
    window: int
    universe: Universe
    en_projective: list[bool]
    en_injective: list[bool]
    proj_injective: list[bool]
    arrows: dict          # (i, j) -> multiplicity = dim rad/rad^2
    arrow_reps: dict      # (i, j) -> a radical chain map not in rad^2
    conflations: dict     # z_idx -> Conflation
    tau: dict             # z_idx -> x_idx
    _ctx: _Ctx | None = field(default=None, repr=False, compare=False)  # the build's caches
    stats: dict = field(default_factory=dict)  # the build's rad^2 and conflation counts

    def class_count(self) -> int:
        return len(self.universe.representatives)

    def label(self, idx: int) -> str:
        return self.universe.representatives[idx].label()


class _Ctx:
    """Shared caches over one universe, keyed by translation.

    ``h[i][j]`` = dim Hom(i, j) is built once, with one ``hom_basis`` per
    ``Universe.key`` of supports that meet and have a path coordinate; the Hom
    spaces, radicals and sink maps below are built only for the pairs that the
    radical graph walks.  ``_no_arrow`` keeps, per key, the first rad^2 = rad
    scan's z and witnesses U, which ``sink`` moves to the key's translates whose
    U moves with them (see the module docstring); ``stats`` counts the pairs
    scanned and moved.
    """

    def __init__(self, universe: Universe):
        if not universe.closed:
            raise NotClosed("AR constructions need a closed universe"
                            + (f"; {universe.cap_note}" if universe.cap_note else ""))
        self.universe = universe
        self.reps = universe.representatives
        # key -> (its first class i, dim, the space; None for dim 0, rebuilt empty)
        self._keys: dict[tuple, tuple[int, int, HomSpace | None]] = {}
        # key -> (z, the classes U whose composites gave rad^2 = rad at (w, z))
        self._no_arrow: dict[tuple, tuple[int, list[int]]] = {}
        self.stats = {"rad2_scans": 0, "rad2_by_translation": 0}
        # a chain map needs a shared position: disjoint supports give h = 0 unsolved,
        # and as the test reads only widths and offset, a key's translates agree
        spans = universe.spans
        self.h = [[0 if c > b or a > d else self._keyed(i, j)[1]
                   for j, (c, d) in enumerate(spans)] for i, (a, b) in enumerate(spans)]
        self._hom: dict[tuple[int, int], HomSpace] = {}
        self._rad_end: dict[int, HomSpace] = {}
        self._rad_coords: dict[int, list] = {}  # shape -> rad End coordinates
        self._neighbours: dict[tuple[int, bool], list[int]] = {}
        self._sink: dict[int, list] = {}
        self._columns: dict[tuple, list[int]] | None = None

    def _keyed(self, i, j) -> tuple[int, int, HomSpace | None]:
        if (key := self.universe.key(i, j)) not in self._keys:
            # with no path coordinate (``Universe.has_path``) h = 0 unsolved
            hs = hom_basis(self.reps[i], self.reps[j]) if self.universe.has_path(i, j) else None
            self._keys[key] = (i, hs.dimension, hs) if hs and hs.dimension else (i, 0, None)
        return self._keys[key]

    def hom(self, i, j) -> HomSpace:
        """Hom(i, j): the key's space, moved to the pair when the pair is a translate."""
        if (i, j) not in self._hom:
            x, y = self.reps[i], self.reps[j]
            if not self.h[i][j]:
                hs = HomSpace.zero(x, y)
            else:
                i0, _, hs = self._keyed(i, j)
                if p := self.universe.classes[i][1] - self.universe.classes[i0][1]:
                    hs = hs.moved(x, y, p)
            self._hom[(i, j)] = hs
        return self._hom[(i, j)]

    def _end_radical(self, k) -> list:
        """Coordinates of rad End(k) in End(k)'s basis, solved once per shape."""
        sid = self.universe.classes[k][0]
        if sid not in self._rad_coords:
            self._rad_coords[sid] = end_radical_coords(self.reps[k], self.hom(k, k))
        return self._rad_coords[sid]

    def t(self, k) -> int:
        """dim End(k) / rad End(k); is_indecomposable's test is t = 1."""
        return self.h[k][k] - len(self._end_radical(k))

    def r(self, i, j) -> int:
        """dim rad(i, j) from the table: h, less t on the diagonal."""
        return self.h[i][j] - (self.t(i) if i == j else 0)

    def classes_with_column(self, col: tuple) -> list[int]:
        """The classes X whose Hom column (h(V, X) over every class V) is ``col``."""
        if self._columns is None:
            self._columns = {}
            for x, column in enumerate(zip(*self.h)):
                self._columns.setdefault(column, []).append(x)
        return self._columns.get(col, [])

    def rad(self, i, j) -> HomSpace:
        if i != j:
            return self.hom(i, j)
        if i not in self._rad_end:
            self._rad_end[i] = self.hom(i, i).subspace(self._end_radical(i))
        return self._rad_end[i]

    def neighbours(self, k, into: bool) -> list[int]:
        """The classes W with rad(W, k) != 0 (``into``) or with rad(k, W) != 0,
        in universe order."""
        if (k, into) not in self._neighbours:
            self._neighbours[(k, into)] = [
                w for w in range(len(self.reps)) if (self.r(w, k) if into else self.r(k, w))]
        return self._neighbours[(k, into)]

    def rad2(self, i, j, used: list | None = None) -> HomSpace:
        """rad^2(i, j) from the cached Hom and radical spaces, through the
        classes W with rad(i, W) != 0 and rad(W, j) != 0; ``used`` receives
        the classes W whose composites the scan took (list.append returns None)."""
        used = [] if used is None else used
        factors = ((self.rad(i, w), self.rad(w, j)) for w in self.neighbours(i, into=False)
                   if self.r(w, j) and not used.append(w))
        return rad2_basis(self.reps[i], self.reps[j], self.universe, self.hom(i, j), factors)

    def sink(self, z) -> list:
        """The sink map's components (w, g) into class z: per neighbour w, in universe
        order, the maps of rad(w, z)'s basis that greedily complete rad^2 to rad."""
        if z not in self._sink:
            comps, uni = [], self.universe
            for w in self.neighbours(z, into=True):
                # a certificate (z0, U) of the key holds here if every u in U moves by k
                z0, used = self._no_arrow.get(key := uni.key(w, z), (z, None))
                k = uni.classes[z][1] - uni.classes[z0][1]
                if used is not None and all(uni.translate(u, k) is not None for u in used):
                    self.stats["rad2_by_translation"] += 1
                    continue
                self.stats["rad2_scans"] += 1
                used = []
                hs, rad, rad2 = self.hom(w, z), self.rad(w, z), self.rad2(w, z, used)
                if rad2.dimension < rad.dimension:  # else no irreducible map w -> z
                    span = SpanBasis(hs.source.alg.field, len(hs._free))
                    for g in rad2.basis:
                        span.add(hs.coordinates(g))
                    comps.extend((w, g) for g in rad.basis if span.add(hs.coordinates(g)))
                else:
                    self._no_arrow.setdefault(key, (z, used))
            self._sink[z] = comps
        return self._sink[z]


def require_characteristic_zero(alg):
    """Raise CharacteristicUnsupported over GF(p): rad End(X) needs the char-0 trace form."""
    if alg.field.char != 0:
        raise CharacteristicUnsupported(
            f"AR quivers need characteristic 0; this algebra is over GF({alg.field.char})")


def build_ar_quiver(alg, n: int, config: EnumConfig | None = None,
                    universe: Universe | None = None) -> ARQuiver:
    """Enumerate, compute arrows from rad/rad^2, attach certified conflations."""
    require_characteristic_zero(alg)
    if universe is None:
        universe = enumerate_indecomposables(alg, n, config)
    ctx = _Ctx(universe)
    reps = ctx.reps
    en_proj, en_inj, proj_inj = [], [], []
    for rep, is_j in zip(reps, universe.j_flags):
        sup = rep.support()
        stalk = rep.total_summands() == 1
        en_proj.append(is_j or (stalk and sup == (n, n)))
        en_inj.append(is_j or (stalk and sup == (1, 1)))
        proj_inj.append(is_j)
    arrows, arrow_reps = {}, {}  # row-major; dim rad/rad^2 sink components, the first as rep
    comps = ((w, z, g) for z in range(len(reps)) for w, g in ctx.sink(z))
    for w, z, g in sorted(comps, key=lambda c: c[:2]):
        arrows[(w, z)] = arrows.get((w, z), 0) + 1
        arrow_reps.setdefault((w, z), g)
    conflations, solved = {}, {}  # solved: Z's terms up to translation -> Z's conflation
    for z in range(len(reps)):
        if not en_proj[z]:
            terms = _terms(ctx, z)
            if terms in solved:
                conflations[z] = _moved(ctx, solved[terms], z)
            else:
                conflations[z] = solved[terms] = almost_split_ending_at(ctx, z)
    tau = {z: conf.x_idx for z, conf in conflations.items()}
    stats = {**ctx.stats, "conflations_solved": len(solved),
             "conflations_moved": len(conflations) - len(solved)}
    return ARQuiver(alg, n, universe, en_proj, en_inj, proj_inj,
                    arrows, arrow_reps, conflations, tau, ctx, stats)


def _where(ctx: _Ctx, z_idx: int) -> str:
    return f"at class {z_idx} ({ctx.reps[z_idx].label()})"


def _predicted_tau(ctx: _Ctx, z_idx: int) -> int:
    """The class X with h(-, X) = sum of h(-, W) over Z's sink sources W, minus
    h(-, Z), plus t(Z) at Z; NoCandidateFound names Z unless exactly one matches."""
    sources = [w for w, _ in ctx.sink(z_idx)]
    tz = ctx.t(z_idx)
    column = tuple(sum(row[w] for w in sources) - row[z_idx] + tz * (v == z_idx)
                   for v, row in enumerate(ctx.h))
    matches = ctx.classes_with_column(column)
    if len(matches) != 1:
        raise NoCandidateFound(f"the predicted column of tau Z matches classes {matches} "
                               f"{_where(ctx, z_idx)}")
    return matches[0]


def almost_split_ending_at(ctx: _Ctx, z_idx: int) -> Conflation:
    """The almost split conflation ending at a non-projective class Z: tau Z from the
    Hom-dimension table, sigma from Z's sink components, certified by defect counts."""
    reps, z, sink = ctx.reps, ctx.reps[z_idx], ctx.sink(z_idx)
    x_idx = _predicted_tau(ctx, z_idx)
    x = reps[x_idx]
    espace = ext_classes(z, x)
    exts = {w: ext_classes(reps[w], x) for w, _ in sink}
    # sigma almost split <=> [sigma . a] = 0 for every sink component a: W -> Z
    rows = [row for w, a in sink
            for row in zip(*(exts[w].reduce(sigma.compose_right(a)) for sigma in espace.basis))]
    sol = nullspace(z.alg.field, rows, espace.dimension)
    if len(sol) != 1:
        raise CertificationFailure(f"{len(sol)} almost split classes in Ext(Z, {x_idx}) "
                                   f"{_where(ctx, z_idx)}")
    vec = [sum((c * v for c, v in zip(sol[0], col) if c), z.alg.field.zero)
           for col in zip(*espace._qrep_vecs)]
    sigma = DegreeOneMap(z, x, espace._layout.materialize(vec))
    y, i_map, d_map = assemble_extension(z, x, sigma)
    conf = Conflation(x, y, z, i_map, d_map, x_idx=x_idx, z_idx=z_idx,
                      y_summands=_lifted_sink(ctx, z_idx, sink, sigma, y, exts))
    _certify(ctx, conf)
    return conf


def _lifted_sink(ctx: _Ctx, z_idx: int, sink, sigma, y: Complex, exts) -> list[int]:
    """The sources of ``sink`` as the summands of Y, the extension by sigma, unsplit.

    Each component a: W -> Z lifts through d: Y -> Z as b = (h; a), where h
    bounds sigma . a in ``exts[W]``.  As d and the sink map are both minimal
    right almost split, every lift phi = [b_1 ... b_m]: (+) W -> Y is an
    isomorphism (ARS V); a failed lift, or a phi validated as a chain map that
    is not an isomorphism, raises CertificationFailure naming Z.
    """
    lifts = []
    for w, a in sink:
        if (h := exts[w].bounding(sigma.compose_right(a))) is None:
            raise CertificationFailure(f"the sink map does not lift {_where(ctx, z_idx)}")
        lifts.append([[*hm, *am] for hm, am in zip(h, a.comps)])
    comps = [[[e for b in lifts for e in b[i][r]] for r in range(len(cell))]
             for i, cell in enumerate(y.cells)]
    ws = direct_sum_many([zero_complex(y.alg, y.window), *(ctx.reps[w] for w, _ in sink)])
    if not ChainMap(ws, y, comps).is_isomorphism():
        raise CertificationFailure(f"the lifted sink map is not invertible {_where(ctx, z_idx)}")
    return [w for w, _ in sink]


def _terms(ctx: _Ctx, z_idx: int) -> tuple:
    """The terms of Z's conflation up to translation: Z's shape, key(tau Z, Z) and
    the sorted key(W, Z) over Z's sink sources W."""
    key = ctx.universe.key
    return (ctx.universe.classes[z_idx][0], key(_predicted_tau(ctx, z_idx), z_idx),
            tuple(sorted(key(w, z_idx) for w, _ in ctx.sink(z_idx))))


def _moved(ctx: _Ctx, conf: Conflation, z_idx: int) -> Conflation:
    """conf moved by k to end at Z, a translate of its end by k with equal terms, and
    certified: its X is tau Z and its middle summands are Z's sink sources."""
    uni = ctx.universe
    k = uni.classes[z_idx][1] - uni.classes[conf.z_idx][1]
    x_idx = uni.translate(conf.x_idx, k)
    x, z, y = ctx.reps[x_idx], ctx.reps[z_idx], shift_window(conf.y, k, uni.window)
    moved = Conflation(x, y, z, shift_window_map(conf.i, k, uni.window, x, y),
                       shift_window_map(conf.d, k, uni.window, y, z), x_idx=x_idx, z_idx=z_idx,
                       y_summands=[uni.translate(w, k) for w in conf.y_summands])
    _certify(ctx, moved)
    return moved


def _certify(ctx: _Ctx, conf: Conflation):
    """Defect counts on the Hom-dimension table; CertificationFailure names Z on any miss.

    With Y = (+) Y_k, the defect of d at V is h(V, X) - sum h(V, Y_k) + h(V, Z); a
    defect t(Z) > 0 at Z also makes the conflation non-split.
    """
    x, z, ys, h = conf.x_idx, conf.z_idx, conf.y_summands, ctx.h
    where = _where(ctx, z)
    tx, tz = ctx.t(x), ctx.t(z)
    if tx != 1 or tz != 1:
        raise CertificationFailure(f"conflation end terms must be indecomposable {where}")
    if None in ys or sorted(ys) != sorted(w for w, _ in ctx.sink(z)):
        raise CertificationFailure(f"middle summands {ys} are not the sink sources {where}")
    for v, row in enumerate(h):
        right = row[x] - sum(row[y] for y in ys) + row[z]
        left = h[z][v] - sum(h[y][v] for y in ys) + h[x][v]
        if (right, left) != (tz * (v == z), tx * (v == x)):
            raise CertificationFailure(f"defects {right}, {left} at V = {v} {where}")
    conf.certified = True


def _representative_index(universe: Universe, x: Complex, end: str) -> int:
    """The class index of a representative of a closed universe; NotClosed
    names an open universe or any other end."""
    if not universe.closed:
        raise NotClosed("the factorisation quantifier needs a closed universe")
    idx = universe.find(x)
    if idx is None or universe.representatives[idx] != x:
        raise NotClosed(f"the {end} {x.label()} is not a universe representative")
    return idx


def _factors_all(ctx: _Ctx, k: int, family, into: bool, memo: dict | None = None) -> bool:
    """Whether the identity of class k does not factor through ``family`` but
    every radical map W -> k (k -> W) from a universe class W does.

    With ``into`` the maps f of ``family`` end at k and the composites are
    f . s for s: W -> source of f; otherwise they start at k, composites s . f.
    ``memo`` keeps the coordinates of the composites per (W, f), so that
    families sharing maps solve each Hom(W, source of f) once.
    """
    memo = {} if memo is None else memo

    def composites(w: int):
        hs = ctx.hom(w, k) if into else ctx.hom(k, w)
        span = SpanBasis(ctx.reps[k].alg.field, len(hs._free))
        for f in family:
            if (w, f) not in memo:
                if into:
                    maps = (compose(f, s) for s in hom_basis(ctx.reps[w], f.source).basis)
                else:
                    maps = (compose(s, f) for s in hom_basis(f.target, ctx.reps[w]).basis)
                memo[(w, f)] = [hs.coordinates(g) for g in maps]
            for vec in memo[(w, f)]:
                span.add(vec)
        return hs, span

    own = hs, span = composites(k)
    if span.contains(hs.coordinates(ChainMap.identity(ctx.reps[k]))):
        return False
    for w in ctx.neighbours(k, into):
        rad = ctx.rad(w, k) if into else ctx.rad(k, w)
        hs, span = own if w == k else composites(w)
        if not all(span.contains(hs.coordinates(g)) for g in rad.basis):
            return False
    return True


def is_right_almost_split(universe: Universe, d: ChainMap, _ctx: _Ctx | None = None) -> bool:
    """Every radical map W -> Z from the universe factors through d, and d is
    not a retraction.  Z must be a class's own representative."""
    k = _representative_index(universe, d.target, "target")
    return _factors_all(_ctx or _Ctx(universe), k, [d], into=True)


def is_left_almost_split(universe: Universe, i_map: ChainMap, _ctx: _Ctx | None = None) -> bool:
    """Every radical map X -> W into the universe factors through i, and i is
    not a section.  X must be a class's own representative."""
    k = _representative_index(universe, i_map.source, "source")
    return _factors_all(_ctx or _Ctx(universe), k, [i_map], into=False)


def is_right_minimal(universe: Universe, d: ChainMap, _ctx: _Ctx | None = None) -> bool:
    """No proper direct summand restriction of the source stays right almost split.

    For Y = (+) Y_k, Hom(W, Y) = (+) Hom(W, Y_k), so d restricted to the sum
    of a subset of the Y_k factors what its components d . incl_k do.
    """
    ctx = _ctx or _Ctx(universe)
    summands = decompose_with_maps(d.source)
    k = _representative_index(universe, d.target, "target")
    parts = [compose(d, incl) for _, incl, _ in summands]
    memo: dict = {}
    return not any(_factors_all(ctx, k, sub, into=True, memo=memo)
                   for size in range(1, len(parts))
                   for sub in itertools.combinations(parts, size))


# -- component shapes of irreducible morphisms -----------------------------------


@dataclass
class ComponentShape:
    kind: str                 # all-sections | all-retractions | split-at
    split_index: int | None = None


def classify_irreducible_components(f: ChainMap) -> ComponentShape:
    """Check the section/retraction component shape of an irreducible morphism.

    Raises ShapeViolation when no admissible shape fits (which would signal a
    bug in upstream irreducibility detection), or when the input is split.
    """
    alg = f.source.alg
    n = f.source.window
    if f.is_isomorphism():
        raise ShapeViolation("identity-like input: split morphisms are not irreducible")
    # a component is a section (retraction) iff every scalar block has full
    # column (row) rank
    sec, ret = [True] * n, [True] * n
    for i, rows, cols, blk in f.scalar_blocks():
        r = rank(alg.field, blk, len(cols))
        sec[i] = sec[i] and r == len(cols)
        ret[i] = ret[i] and r == len(rows)
    if all(sec):
        return ComponentShape("all-sections")
    if all(ret):
        return ComponentShape("all-retractions")
    neither = [i for i in range(n) if not sec[i] and not ret[i]]
    if len(neither) != 1:
        raise ShapeViolation(f"components neither section nor retraction at {neither}")
    i0 = neither[0]
    if not all(sec[j] for j in range(i0 + 1, n)):
        raise ShapeViolation("a component after the split index is not a section")
    if not all(ret[j] for j in range(i0)):
        raise ShapeViolation("a component before the split index is not a retraction")
    if _in_rad_square(f.comps[i0]):
        raise ShapeViolation("the split component is not irreducible in proj")
    return ComponentShape("split-at", i0 + 1)


def _in_rad_square(mat) -> bool:
    """All entries supported on paths of length >= 2."""
    return all(len(p) >= 2 for row in mat for e in row for p in e.coeffs)


# -- the derived subquiver and its translate windows ------------------------------


@dataclass
class GammaBar:
    quiver: ARQuiver
    vertices: list[int]          # universe indices kept
    arrows: dict                 # (i, j) -> multiplicity, within kept vertices
    anchors: list[int]
    tau: dict

    def vertex_count(self) -> int:
        return len(self.vertices)


def gamma_bar(q: ARQuiver) -> GammaBar:
    """Remove classes that are both E_n-projective and E_n-injective, then take
    the component of a doubly non-extendable class.

    For windows n >= 2 the removed classes are exactly the contractible
    J-types; at window 1 every stalk is both, which is the semisimple
    degenerate case.
    """
    kept = [i for i in range(q.class_count())
            if not (q.en_projective[i] and q.en_injective[i])]
    if not kept:
        raise EtaZero("every class is projective-injective; "
                      "the subquiver construction needs eta >= 1")
    kept_set = set(kept)
    arrows = {(i, j): m for (i, j), m in q.arrows.items()
              if i in kept_set and j in kept_set}
    anchors = [i for i in kept
               if not can_extend_left(q.universe.representatives[i])
               and not can_extend_right(q.universe.representatives[i])]
    if not anchors:
        raise NoAnchorFound("no class extends in neither direction")
    adj: dict[int, set[int]] = {i: set() for i in kept}
    for (i, j) in arrows:
        adj[i].add(j)
        adj[j].add(i)
    comp_of = {}
    for root in kept:
        if root in comp_of:
            continue
        stack = [root]
        comp_of[root] = root
        while stack:
            u = stack.pop()
            for v2 in adj[u]:
                if v2 not in comp_of:
                    comp_of[v2] = root
                    stack.append(v2)
    anchor_comps = {comp_of[a] for a in anchors}
    if len(anchor_comps) > 1:
        raise AmbiguousAnchor(
            f"non-extendable classes sit in {len(anchor_comps)} components: "
            f"{sorted(anchor_comps)}")
    root = anchor_comps.pop()
    vertices = sorted(i for i in kept if comp_of[i] == root)
    vset = set(vertices)
    arrows = {(i, j): m for (i, j), m in arrows.items() if i in vset and j in vset}
    tau = {z: x for z, x in q.tau.items() if z in vset and x in vset}
    return GammaBar(q, vertices, arrows, anchors, tau)


@dataclass
class DerivedWindow:
    gb: GammaBar
    t_min: int
    t_max: int
    vertices: list            # (universe idx, t)
    arrows: list              # ((idx, t), (idx2, t2), multiplicity)
    shift_pairs: list         # (idx, idx2) with rep[idx2] = rep[idx] shifted by +1
    notes: list


def derived_window(gb: GammaBar, t_min: int, t_max: int) -> DerivedWindow:
    """Translates of Gamma-bar with connecting arrows between consecutive copies.

    The object identified with (c, t) in the next copy is c shifted one cell
    to the right; for each such pair (c, c') in Gamma-bar, every arrow
    c' -> V contributes a connecting arrow (c, t) -> (V, t+1).  Boundaries
    with no derivable connecting arrow are flagged in notes, never invented.
    """
    q = gb.quiver
    vertices = [(i, t) for t in range(t_min, t_max + 1) for i in gb.vertices]
    arrows = []
    for t in range(t_min, t_max + 1):
        for (i, j), m in gb.arrows.items():
            arrows.append(((i, t), (j, t), m))
    vset = set(gb.vertices)
    shift_pairs = [(i, j) for i in gb.vertices
                   if (j := q.universe.translate(i)) is not None and j in vset]
    notes = []
    connecting = 0
    for t in range(t_min, t_max):
        for (c, cp) in shift_pairs:
            for (i, j), m in gb.arrows.items():
                if i == cp:
                    arrows.append(((c, t), (j, t + 1), m))
                    connecting += 1
    if t_max > t_min and not connecting:
        notes.append("no derivable connecting arrows between consecutive translates")
    return DerivedWindow(gb, t_min, t_max, vertices, arrows, shift_pairs, notes)


# -- cross-window stability checkers ----------------------------------------------


@dataclass
class WindowStabilityReport:
    window_high: int
    window_low: int
    violations: list
    checked: dict

    def ok(self) -> bool:
        return not self.violations


def _triple_key(universe: Universe, triple, middle=None):
    """(class of X, sorted classes of Y's summands, class of Z) for a triple
    X -> Y -> Z, or None when a term has no class.  ``middle`` holds the
    classes of Y's summands when they are known."""
    x, y, z = triple
    if middle is None:
        middle = [universe.find(w) for w, _, _ in decompose_with_maps(y)]
    ends = universe.find(x), universe.find(z)
    if None in ends or None in middle:
        return None
    return ends[0], tuple(sorted(middle)), ends[1]


def _drop_rule(triple):
    """The drop functor that every term allows, or None when none does."""
    if all(not t.cells[0] for t in triple):
        return drop_first
    if all(not t.cells[-1] for t in triple):
        return drop_last
    return None


def _embed_rule(triple):
    """Embed on the side where the first term does not extend."""
    return embed_right if can_extend_left(triple[0]) else embed_left


def check_window_stability(alg, n: int, eta: int, config: EnumConfig | None = None,
                           quivers: dict | None = None,
                           universes: dict | None = None) -> WindowStabilityReport:
    """Cross-window almost-split comparison between windows n and eta+1.

    (1) every certified conflation at window n drops (first or last) to the
        certified conflation list at eta+1; (2) every conflation at eta+1
        embeds, per extendability, to a certified conflation at window n;
    (3) no class at a window past eta+1 has both boundary cells nonzero.

    ``quivers`` and ``universes`` map a window to what was already built
    there; the quivers built here are added to ``quivers``.
    """
    if eta < 1:
        raise EtaZero("cross-window stability assumes eta >= 1")
    if n < eta + 2:
        raise ValueError("check needs n >= eta + 2")
    quivers = quivers if quivers is not None else {}
    universes = universes or {}
    for m in (n, eta + 1):
        if m not in quivers:
            quivers[m] = build_ar_quiver(alg, m, config, universe=universes.get(m))
    q_hi, q_lo = quivers[n], quivers[eta + 1]
    violations = []
    checked = {"boundary": 0, "drop": 0, "embed": 0}
    # (3) boundary-cell vanishing at every window between eta+2 and n
    for m in range(eta + 2, n + 1):
        qm = quivers.get(m)
        uni = (qm.universe if qm else universes.get(m)
               or enumerate_indecomposables(alg, m, config))
        checked["boundary"] += len(uni.representatives)
        violations.extend(("boundary", m, rep.label()) for rep in uni.violators())
    # (1) drop every window-n conflation to eta+1, (2) embed every eta+1
    # conflation to n, and look each result up among the certified ones there
    for kind, src, dst, rule in (("drop", q_hi, q_lo, _drop_rule),
                                 ("embed", q_lo, q_hi, _embed_rule)):
        keys = {_triple_key(dst.universe, (c.x, c.y, c.z), c.y_summands)
                for c in dst.conflations.values()}
        for z_idx, conf in src.conflations.items():
            checked[kind] += 1
            triple = (conf.x, conf.y, conf.z)
            for _ in range(n - (eta + 1)):
                step = rule(triple)
                if step is None:
                    violations.append((f"{kind}-stuck", triple[2].window, conf.z.label()))
                    break
                triple = tuple(step(t) for t in triple)
            else:
                key = _triple_key(dst.universe, triple)
                if key is None or key not in keys:
                    violations.append((f"{kind}-unmatched", z_idx, conf.z.label()))
    return WindowStabilityReport(n, eta + 1, violations, checked)
