"""The Auslander-Reiten quiver of C_n(proj Lambda) and its derived shadow.

Arrows come from rad/rad^2 dimensions over a closed universe, and the work
follows the nonzero radical graph: ``_Ctx`` lists, per class k, the classes
W with rad(W, k) != 0 and those with rad(k, W) != 0, and every quantifier
over universe classes W below walks these lists.  rad^2(X, Y) is the span
of the composites X -> W -> Y over the W that X has radical maps to; its
scan stops once the composites span Hom(X, Y).

Almost split conflations ending at a non-projective class Z are found by a
linear criterion: a nonzero extension class sigma in Ext(Z, X) gives an
almost split conflation iff sigma . g is a boundary for every radical map
g: W -> Z from a universe class W.  The closed universe is finite, so the
radical of End((+) classes) is nilpotent and rad(-, Z) is generated by the
irreducible maps a into Z, the sink map's components (``_Ctx.sink``); as
sigma . (a . h) = (sigma . a) . h, the rows need only those a.  Each
candidate X -> Y -> Z is then certified by one factorisation test and its
dual (``_factors_all``): d: Y -> Z is right almost split when the identity
of Z does not factor through d and every radical map W -> Z from a universe
class does, and i: X -> Y is left almost split dually.  Right minimality is
the same test on the proper sub-families of the components of d on the
summands of Y, and both end terms must be indecomposable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import (
    ChainMap,
    Complex,
    compose,
    drop_first,
    drop_last,
    embed_left,
    embed_right,
)
from .errors import (
    AmbiguousAnchor,
    CertificationFailure,
    CharacteristicUnsupported,
    EtaZero,
    MultipleCertified,
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
    is_indecomposable,
    rad2_basis,
    _iso_indecomposable,
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

    def class_count(self) -> int:
        return len(self.universe.representatives)

    def label(self, idx: int) -> str:
        return self.universe.representatives[idx].label()


class _Ctx:
    """Shared caches over one universe."""

    def __init__(self, universe: Universe):
        if not universe.closed:
            raise NotClosed("AR constructions need a closed universe"
                            + (f"; {universe.cap_note}" if universe.cap_note else ""))
        self.universe = universe
        self.reps = universe.representatives
        self._hom: dict[tuple[int, int], HomSpace] = {}
        self._ext: dict[tuple[int, int], object] = {}
        self._rad: dict[tuple[int, int], HomSpace] = {}
        self._neighbours: dict[tuple[int, bool], list[int]] = {}
        self._sink: dict[int, list] = {}

    def hom(self, i, j) -> HomSpace:
        if (i, j) not in self._hom:
            self._hom[(i, j)] = hom_basis(self.reps[i], self.reps[j])
        return self._hom[(i, j)]

    def ext(self, z, x):
        if (z, x) not in self._ext:
            self._ext[(z, x)] = ext_classes(self.reps[z], self.reps[x])
        return self._ext[(z, x)]

    def rad(self, i, j) -> HomSpace:
        if (i, j) not in self._rad:
            hs = self.hom(i, j)
            self._rad[(i, j)] = (hs.subspace(end_radical_coords(self.reps[i], hs))
                                 if i == j else hs)
        return self._rad[(i, j)]

    def neighbours(self, k, into: bool) -> list[int]:
        """The classes W with rad(W, k) != 0 (``into``) or with rad(k, W) != 0,
        in universe order."""
        if (k, into) not in self._neighbours:
            self._neighbours[(k, into)] = [
                w for w in range(len(self.reps))
                if (self.rad(w, k) if into else self.rad(k, w)).dimension]
        return self._neighbours[(k, into)]

    def rad2(self, i, j) -> HomSpace:
        """rad^2(i, j) from the cached Hom and radical spaces, through the
        classes W that i has a radical map to."""
        factors = ((self.rad(i, w), self.rad(w, j)) for w in self.neighbours(i, into=False))
        return rad2_basis(self.reps[i], self.reps[j], self.universe, self.hom(i, j), factors)

    def sink(self, z) -> list:
        """The sink map's components (w, g) into class z: per neighbour w, in universe
        order, the maps of rad(w, z)'s basis that greedily complete rad^2 to rad."""
        if z not in self._sink:
            comps = []
            for w in self.neighbours(z, into=True):
                hs, rad, rad2 = self.hom(w, z), self.rad(w, z), self.rad2(w, z)
                if rad2.dimension < rad.dimension:  # else no irreducible map w -> z
                    span = SpanBasis(hs.source.alg.field, len(hs._free))
                    for g in rad2.basis:
                        span.add(hs.coordinates(g))
                    comps.extend((w, g) for g in rad.basis if span.add(hs.coordinates(g)))
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
    conflations = {z: almost_split_ending_at(ctx, z) for z in range(len(reps)) if not en_proj[z]}
    tau = {z: conf.x_idx for z, conf in conflations.items()}
    return ARQuiver(alg, n, universe, en_proj, en_inj, proj_inj,
                    arrows, arrow_reps, conflations, tau)


def almost_split_ending_at(ctx: _Ctx, z_idx: int) -> Conflation:
    """The unique certified almost split conflation ending at a non-projective class: sigma
    from Z's sink components, which generate rad(-, Z); certified on every radical W -> Z."""
    reps = ctx.reps
    z = reps[z_idx]
    field_ = z.alg.field
    certified = []
    for x_idx in range(len(reps)):
        espace = ctx.ext(z_idx, x_idx)
        if espace.dimension == 0:
            continue
        # sigma almost split <=> [sigma . a] = 0 for every sink component a: W -> Z
        rows = [row for w_idx, a in ctx.sink(z_idx)
                for row in zip(*(ctx.ext(w_idx, x_idx).reduce(sigma.compose_right(a))
                                 for sigma in espace.basis))]
        sol = nullspace(field_, rows, espace.dimension)
        if not sol:
            continue
        vec = [sum((c * v for c, v in zip(sol[0], col) if c), field_.zero)
               for col in zip(*espace._qrep_vecs)]
        sigma_star = DegreeOneMap(z, reps[x_idx], espace._layout.materialize(vec))
        y, i_map, d_map = assemble_extension(z, reps[x_idx], sigma_star)
        conf = Conflation(reps[x_idx], y, z, i_map, d_map, x_idx=x_idx, z_idx=z_idx)
        _certify(ctx, conf)
        certified.append(conf)
    if not certified:
        table = {x: ctx.ext(z_idx, x).dimension for x in range(len(reps))
                 if ctx.ext(z_idx, x).dimension}
        raise NoCandidateFound(
            f"no almost split conflation ends at class {z_idx} ({z.label()}); "
            f"nonzero Ext dimensions: {table}")
    if len(certified) > 1:
        first = certified[0]
        for other in certified[1:]:
            if other.x_idx != first.x_idx or not _iso_indecomposable(other.y, first.y):
                raise MultipleCertified(
                    f"classes {first.x_idx} and {other.x_idx} both start certified "
                    f"conflations ending at {z_idx}")
    return certified[0]


def _certify(ctx: _Ctx, conf: Conflation):
    """Full almost-split verification; raises CertificationFailure on any miss."""
    if not is_indecomposable(conf.x) or not is_indecomposable(conf.z):
        raise CertificationFailure("conflation end terms must be indecomposable")
    if not is_right_almost_split(ctx.universe, conf.d, _ctx=ctx):
        raise CertificationFailure("right map is not right almost split")
    if not is_left_almost_split(ctx.universe, conf.i, _ctx=ctx):
        raise CertificationFailure("left map is not left almost split")
    summands = decompose_with_maps(conf.y)
    conf.y_summands = [ctx.universe.find(w) for w, _, _ in summands]
    if None in conf.y_summands:
        raise CertificationFailure("middle summand escapes the universe")
    if not is_right_minimal(ctx.universe, conf.d, summands, _ctx=ctx):
        raise CertificationFailure("right map is not right minimal")
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


def is_right_minimal(universe: Universe, d: ChainMap, summands=None,
                     _ctx: _Ctx | None = None) -> bool:
    """No proper direct summand restriction of the source stays right almost split.

    For Y = (+) Y_k, Hom(W, Y) = (+) Hom(W, Y_k), so d restricted to the sum
    of a subset of the Y_k factors what its components d . incl_k do.
    """
    ctx = _ctx or _Ctx(universe)
    if summands is None:
        summands = decompose_with_maps(d.source)
    if len(summands) <= 1:
        return True
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
        for rep, is_j in zip(uni.representatives, uni.j_flags):
            checked["boundary"] += 1
            if not is_j and rep.cells[0] and rep.cells[-1]:
                violations.append(("boundary", m, rep.label()))
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
