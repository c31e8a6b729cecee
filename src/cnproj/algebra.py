"""Monomial bound quiver algebras, their projectives, and module linear algebra.

Conventions (fixed once, used everywhere):

* Right modules; ``P_v = e_v * Lambda`` has basis the admissible paths that
  start at ``v``.
* Paths compose left to right: ``a . b`` means "a then b" and is composable
  when ``end(a) == start(b)``.
* ``Hom(P_a, P_b)`` is spanned by admissible paths from ``b`` to ``a``, acting
  by left multiplication; composition of homs is the path product of their
  elements.  With this choice the complex ``P3 -> P2 -> P1`` over the quiver
  ``1 -> 2 -> 3`` is literal: its differentials are the arrow paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    IncomposableElements,
    InfiniteDimensional,
    MalformedRelation,
    ResolutionCapExceeded,
    ShapeMismatch,
)
from .linalg import SpanBasis, matmul, nullspace, rank, rref, solve
from .scalars import field_from_tag


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: vertex ids and arrows (id, source, target)."""

    vertices: tuple[int, ...]
    arrows: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = [a[0] for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vs = set(self.vertices)
        for aid, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {aid}: endpoint not a declared vertex")

    def arrow_map(self) -> dict[str, tuple[int, int]]:
        return {aid: (s, t) for aid, s, t in self.arrows}


class AlgElement:
    """Element of ``e_start * Lambda * e_end``: a path-linear combination.

    As a morphism it maps ``P_end -> P_start`` by left multiplication.
    """

    __slots__ = ("alg", "start", "end", "coeffs")

    def __init__(self, alg, start: int, end: int, coeffs: dict, _checked: bool = False):
        self.alg = alg
        self.start = start
        self.end = end
        if not _checked:
            clean = {}
            for path, c in coeffs.items():
                if not c:
                    continue
                s, t = alg.path_endpoints(path, start_hint=start)
                if (s, t) != (start, end):
                    raise ShapeMismatch(f"path {path} does not run {start} -> {end}")
                clean[path] = c
            coeffs = clean
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def unit_coeff(self):
        """Coefficient of the trivial path (zero unless start == end)."""
        return self.coeffs.get((), self.alg.field.zero)

    def __add__(self, other: "AlgElement") -> "AlgElement":
        if (self.start, self.end) != (other.start, other.end):
            raise ShapeMismatch("adding elements with different endpoints")
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            s = coeffs.get(p, self.alg.field.zero) + c
            if s:
                coeffs[p] = s
            else:
                coeffs.pop(p, None)
        return AlgElement(self.alg, self.start, self.end, coeffs, _checked=True)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.alg, self.start, self.end,
                          {p: -c for p, c in self.coeffs.items()}, _checked=True)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + (-other)

    def scale(self, c) -> "AlgElement":
        if not c:
            return AlgElement(self.alg, self.start, self.end, {}, _checked=True)
        return AlgElement(self.alg, self.start, self.end,
                          {p: c * x for p, x in self.coeffs.items()}, _checked=True)

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        return self.alg.multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgElement) and self.start == other.start
                and self.end == other.end and self.coeffs == other.coeffs)

    def key(self):
        """Deterministic ordering/serialisation key."""
        items = sorted(((len(p), p, str(c)) for p, c in self.coeffs.items()))
        return (self.start, self.end, tuple(items))

    def __repr__(self):
        if not self.coeffs:
            return f"0[{self.start}->{self.end}]"
        terms = []
        for _, p, c in sorted((len(p), p, c) for p, c in self.coeffs.items()):
            name = "e%d" % self.start if not p else "".join(p)
            terms.append(name if c == self.alg.field.one else f"{c}*{name}")
        return " + ".join(terms)


class MonomialAlgebra:
    """A path algebra bound by monomial (forbidden path) relations."""

    def __init__(self, quiver: Quiver, relations: Sequence[Sequence[str]], field,
                 path_cap: int = 10_000):
        self.quiver = quiver
        self.field = field
        self._arrow = quiver.arrow_map()
        self.relations = self._normalise_relations(relations)
        self._rel_set = set(self.relations)
        self._enumerate_paths(path_cap)
        self._proj_cache: dict[int, FinModule] = {}
        self._lmul_cache: dict = {}

    # -- construction ---------------------------------------------------

    def _normalise_relations(self, relations) -> tuple[tuple[str, ...], ...]:
        rels = []
        for rel in relations:
            rel = tuple(rel)
            if len(rel) < 2:
                raise MalformedRelation(f"relation {rel} shorter than 2 arrows")
            for aid in rel:
                if aid not in self._arrow:
                    raise MalformedRelation(f"relation {rel}: unknown arrow {aid}")
            for a, b in zip(rel, rel[1:]):
                if self._arrow[a][1] != self._arrow[b][0]:
                    raise MalformedRelation(f"relation {rel} is not composable")
            rels.append(rel)
        # reduce: drop a relation that contains a shorter one as contiguous subpath
        rels = sorted(set(rels), key=lambda r: (len(r), r))
        reduced: list[tuple[str, ...]] = []
        for rel in rels:
            if not any(self._contains(rel, r) for r in reduced):
                reduced.append(rel)
        return tuple(reduced)

    @staticmethod
    def _contains(path: tuple[str, ...], sub: tuple[str, ...]) -> bool:
        if len(sub) > len(path):
            return False
        return any(path[i:i + len(sub)] == sub for i in range(len(path) - len(sub) + 1))

    def _enumerate_paths(self, cap: int):
        by_pair: dict[tuple[int, int], list[tuple[str, ...]]] = {}
        ends: dict[tuple[str, ...], tuple[int, int]] = {}
        total = 0
        for v in self.quiver.vertices:
            by_pair.setdefault((v, v), []).append(())
            total += 1
        frontier: list[tuple[int, tuple[str, ...], int]] = [(v, (), v) for v in self.quiver.vertices]
        arrows_from: dict[int, list[tuple[str, int]]] = {}
        for aid, s, t in self.quiver.arrows:
            arrows_from.setdefault(s, []).append((aid, t))
        for v in arrows_from:
            arrows_from[v].sort()
        while frontier:
            nxt = []
            for start, path, end in frontier:
                for aid, t in arrows_from.get(end, []):
                    new = path + (aid,)
                    if any(self._contains(new, r) for r in self.relations):
                        continue
                    total += 1
                    if total > cap:
                        raise InfiniteDimensional(
                            f"more than {cap} admissible paths; "
                            "cyclic quiver whose cycles survive the relations?")
                    by_pair.setdefault((start, t), []).append(new)
                    ends[new] = (start, t)
                    nxt.append((start, new, t))
            frontier = nxt
        for key in by_pair:
            by_pair[key].sort(key=lambda p: (len(p), p))
        self._pairs = {k: tuple(v) for k, v in by_pair.items()}
        self._ends = ends
        self.dimension = total
        self._max_path_len = max((len(p) for p in ends), default=0)

    # -- path bookkeeping -------------------------------------------------

    def path_endpoints(self, path: tuple[str, ...], start_hint: int | None = None):
        if not path:
            if start_hint is None:
                raise ValueError("trivial path needs a start hint")
            if start_hint not in self.quiver.vertices:
                raise ShapeMismatch(f"unknown vertex {start_hint}")
            return (start_hint, start_hint)
        if path not in self._ends:
            raise ShapeMismatch(f"path {path} is not admissible")
        return self._ends[path]

    def paths_between(self, s: int, t: int) -> tuple[tuple[str, ...], ...]:
        return self._pairs.get((s, t), ())

    def is_admissible(self, path: tuple[str, ...]) -> bool:
        return not path or path in self._ends

    def mult_path(self, p: tuple[str, ...], q: tuple[str, ...]):
        """Concatenation ``p . q``; None if a relation kills it."""
        new = p + q
        if any(self._contains(new, r) for r in self.relations):
            return None
        return new

    # -- elements ----------------------------------------------------------

    def unit(self, v: int) -> AlgElement:
        if v not in self.quiver.vertices:
            raise ShapeMismatch(f"unknown vertex {v}")
        return AlgElement(self, v, v, {(): self.field.one}, _checked=True)

    def arrow_element(self, aid: str) -> AlgElement:
        s, t = self._arrow[aid]
        return AlgElement(self, s, t, {(aid,): self.field.one}, _checked=True)

    def zero_element(self, start: int, end: int) -> AlgElement:
        return AlgElement(self, start, end, {}, _checked=True)

    def element(self, start: int, end: int, coeffs: dict) -> AlgElement:
        return AlgElement(self, start, end, {p: self.field.of(c) for p, c in coeffs.items()})

    def multiply(self, x: AlgElement, y: AlgElement) -> AlgElement:
        """Bilinear path product ``x . y`` (x then y)."""
        if x.alg is not self or y.alg is not self:
            raise IncomposableElements("elements of different algebras")
        if x.end != y.start:
            raise IncomposableElements(f"end(x)={x.end} != start(y)={y.start}")
        coeffs: dict = {}
        for p, cp in x.coeffs.items():
            for q, cq in y.coeffs.items():
                pq = self.mult_path(p, q)
                if pq is None:
                    continue
                s = coeffs.get(pq, self.field.zero) + cp * cq
                if s:
                    coeffs[pq] = s
                else:
                    coeffs.pop(pq, None)
        return AlgElement(self, x.start, y.end, coeffs, _checked=True)

    def hom_proj_basis(self, a: int, b: int) -> list[AlgElement]:
        """Basis of Hom(P_a, P_b): one element per admissible path b -> a."""
        if a not in self.quiver.vertices or b not in self.quiver.vertices:
            raise ShapeMismatch("undeclared vertex")
        return [AlgElement(self, b, a, {p: self.field.one}, _checked=True)
                for p in self.paths_between(b, a)]

    def invert_local(self, u: AlgElement) -> AlgElement:
        """Inverse of a unit of ``e_v Lambda e_v`` (nonzero trivial coefficient)."""
        if u.start != u.end:
            raise ShapeMismatch("only same-vertex elements can be units")
        c = u.unit_coeff()
        if not c:
            raise ShapeMismatch("element has no unit component")
        cinv = self.field.inv(c)
        rho = (u - self.unit(u.start).scale(c)).scale(-cinv)
        acc = self.unit(u.start)
        term = self.unit(u.start)
        for _ in range(self._max_path_len + 1):
            term = self.multiply(term, rho)
            if term.is_zero():
                break
            acc = acc + term
        else:
            if not term.is_zero():
                raise ShapeMismatch("radical part failed to be nilpotent")
        return acc.scale(cinv)

    # -- left-multiplication realisation -----------------------------------

    def lmul_block(self, u: AlgElement, w: int):
        """Matrix of ``u . (-) : (P_end)_w -> (P_start)_w`` in the path bases."""
        cols = self.paths_between(u.end, w)
        rows = self.paths_between(u.start, w)
        row_idx = {p: i for i, p in enumerate(rows)}
        out = [[self.field.zero] * len(cols) for _ in range(len(rows))]
        for p, c in u.coeffs.items():
            key = (p, u.start, u.end, w)
            blk = self._lmul_cache.get(key)
            if blk is None:
                blk = []
                for j, q in enumerate(cols):
                    pq = self.mult_path(p, q)
                    if pq is not None:
                        blk.append((row_idx[pq], j))
                self._lmul_cache[key] = blk
            for i, j in blk:
                out[i][j] = out[i][j] + c
        return out

    # -- modules -------------------------------------------------------------

    def projective_as_module(self, v: int) -> "FinModule":
        if v not in self._proj_cache:
            dims = {w: len(self.paths_between(v, w)) for w in self.quiver.vertices}
            action = {}
            for aid, x, y in self.quiver.arrows:
                src = self.paths_between(v, x)
                tgt = self.paths_between(v, y)
                tgt_idx = {p: i for i, p in enumerate(tgt)}
                m = [[self.field.zero] * len(src) for _ in range(len(tgt))]
                for j, p in enumerate(src):
                    pa = self.mult_path(p, (aid,))
                    if pa is not None:
                        m[tgt_idx[pa]][j] = self.field.one
                action[aid] = m
            self._proj_cache[v] = FinModule(self, dims, action, note=f"P{v}")
        return self._proj_cache[v]

    def simple_as_module(self, v: int) -> "FinModule":
        dims = {w: (1 if w == v else 0) for w in self.quiver.vertices}
        action = {aid: [[self.field.zero] * dims[x] for _ in range(dims[y])]
                  for aid, x, y in self.quiver.arrows}
        return FinModule(self, dims, action, note=f"S{v}")

    def regular_module(self) -> "FinModule":
        return FinModule.direct_sum(
            self, [self.projective_as_module(v) for v in sorted(self.quiver.vertices)])

    def global_dimension(self, cap: int = 64) -> int:
        return max(self.projective_dimension(self.simple_as_module(v), cap=cap)
                   for v in self.quiver.vertices)

    def projective_dimension(self, m: "FinModule", cap: int = 64) -> int:
        if m.is_zero():
            return 0
        cur = m
        for step in range(cap):
            cover = projective_cover(cur)
            ker, _ = _kernel_pair(cover)
            if ker.is_zero():
                return step
            cur = ker
        raise ResolutionCapExceeded(f"resolution exceeded {cap} steps")

    def __repr__(self):
        return (f"MonomialAlgebra({len(self.quiver.vertices)} vertices, "
                f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
                f"dim {self.dimension}, {self.field!r})")


def build_algebra(quiver: Quiver, relations: Sequence[Sequence[str]], field_tag: str,
                  path_cap: int = 10_000) -> MonomialAlgebra:
    """Build the bound quiver algebra over the tagged scalar field."""
    return MonomialAlgebra(quiver, relations, field_from_tag(field_tag), path_cap=path_cap)


class FinModule:
    """A finite dimensional right module: per-vertex dimensions and arrow matrices.

    The matrix of arrow ``a: x -> y`` has shape (dim_y, dim_x); composites
    along every relation must vanish, which the constructor checks.
    """

    def __init__(self, alg: MonomialAlgebra, dims: dict[int, int],
                 action: dict[str, list], note: str = "", check: bool = True):
        self.alg = alg
        self.dims = {v: dims.get(v, 0) for v in alg.quiver.vertices}
        self.action = action
        self.note = note
        if check:
            self._validate()

    def _validate(self):
        for aid, x, y in self.alg.quiver.arrows:
            m = self.action.get(aid)
            if m is None:
                raise ShapeMismatch(f"missing action matrix for arrow {aid}")
            if len(m) != self.dims[y] or any(len(r) != self.dims[x] for r in m):
                raise ShapeMismatch(f"arrow {aid}: matrix shape does not match dims")
        for rel in self.alg.relations:
            m = self.act_along(rel)
            if any(any(c for c in row) for row in m):
                raise ShapeMismatch(f"relation {rel} does not act by zero")

    def act_along(self, path: tuple[str, ...]):
        """Matrix of the right action of a path (composite of arrow actions)."""
        f = self.alg.field
        start = self.alg._arrow[path[0]][0]
        cur = None
        for aid in path:
            x, _ = self.alg._arrow[aid]
            m = self.action[aid]
            if cur is None:
                cur = [list(r) for r in m]
            else:
                cur = matmul(f, m, cur, self.dims[x], self.dims[start])
        return cur if cur is not None else []

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    @staticmethod
    def direct_sum(alg: MonomialAlgebra, mods: list["FinModule"]) -> "FinModule":
        f = alg.field
        dims = {v: sum(m.dims[v] for m in mods) for v in alg.quiver.vertices}
        action = {}
        for aid, x, y in alg.quiver.arrows:
            rows = []
            col_off = [0]
            for m in mods:
                col_off.append(col_off[-1] + m.dims[x])
            total_cols = col_off[-1]
            for k, m in enumerate(mods):
                for r in m.action[aid]:
                    row = [f.zero] * total_cols
                    row[col_off[k]:col_off[k] + m.dims[x]] = r
                    rows.append(row)
            action[aid] = rows
        return FinModule(alg, dims, action, note="+".join(m.note for m in mods), check=False)

    def __repr__(self):
        d = ",".join(str(self.dims[v]) for v in sorted(self.dims))
        return f"FinModule[{self.note}]({d})"


class ModuleMap:
    """A homomorphism of FinModules: per-vertex matrices commuting with actions."""

    def __init__(self, source: FinModule, target: FinModule, mats: dict[int, list],
                 check: bool = True):
        self.source = source
        self.target = target
        self.mats = {v: mats.get(v, [[]] * target.dims[v]) for v in source.alg.quiver.vertices}
        if check:
            self._validate()

    def _validate(self):
        alg = self.source.alg
        f = alg.field
        for v in alg.quiver.vertices:
            m = self.mats[v]
            if len(m) != self.target.dims[v] or any(len(r) != self.source.dims[v] for r in m):
                raise ShapeMismatch(f"vertex {v}: map shape mismatch")
        for aid, x, y in alg.quiver.arrows:
            lhs = matmul(f, self.mats[y], self.source.action[aid],
                         self.source.dims[y], self.source.dims[x])
            rhs = matmul(f, self.target.action[aid], self.mats[x],
                         self.target.dims[x], self.source.dims[x])
            if lhs != rhs:
                raise ShapeMismatch(f"map does not commute with arrow {aid}")


def hom_module(m: FinModule, n: FinModule) -> int:
    """Dimension of Hom(M, N): solution space of the intertwining equations."""
    alg = m.alg
    f = alg.field
    offs = {}
    nvars = 0
    for v in alg.quiver.vertices:
        offs[v] = nvars
        nvars += n.dims[v] * m.dims[v]
    if nvars == 0:
        return 0
    rows = []
    for aid, x, y in alg.quiver.arrows:
        # f_y M(a) - N(a) f_x = 0, entry (i, j): i over n.dims[y], j over m.dims[x]
        for i in range(n.dims[y]):
            for j in range(m.dims[x]):
                row = [f.zero] * nvars
                for k in range(m.dims[y]):
                    c = m.action[aid][k][j]
                    if c:
                        row[offs[y] + i * m.dims[y] + k] = row[offs[y] + i * m.dims[y] + k] + c
                for k in range(n.dims[x]):
                    c = n.action[aid][i][k]
                    if c:
                        row[offs[x] + k * m.dims[x] + j] = row[offs[x] + k * m.dims[x] + j] - c
                if any(row):
                    rows.append(row)
    return nvars - rank(f, rows, nvars) if rows else nvars


def _kernel_pair(f_map: ModuleMap) -> tuple[FinModule, ModuleMap]:
    """Kernel with its inclusion, vertexwise nullspaces with induced actions."""
    alg = f_map.source.alg
    f = alg.field
    basis = {}
    dims = {}
    for v in alg.quiver.vertices:
        vecs = nullspace(f, f_map.mats[v], f_map.source.dims[v])
        basis[v] = vecs
        dims[v] = len(vecs)
    action = {}
    for aid, x, y in alg.quiver.arrows:
        cols = []
        for vec in basis[x]:
            img = [sum((c * z for c, z in zip(row, vec) if c and z), f.zero)
                   for row in f_map.source.action[aid]]
            # solve B_y * col = img
            rows_mat = [[basis[y][k][i] for k in range(dims[y])]
                        for i in range(f_map.source.dims[y])]
            col = solve(f, rows_mat, dims[y], img)
            assert col is not None, "kernel not arrow-stable"
            cols.append(col)
        action[aid] = [[cols[j][i] for j in range(dims[x])] for i in range(dims[y])]
    ker = FinModule(alg, dims, action, note=f"ker({f_map.source.note})", check=False)
    mats = {v: [[basis[v][k][i] for k in range(dims[v])]
                for i in range(f_map.source.dims[v])] for v in alg.quiver.vertices}
    return ker, ModuleMap(ker, f_map.source, mats, check=False)


def _cokernel_pair(f_map: ModuleMap) -> tuple[FinModule, ModuleMap]:
    """Cokernel with its projection."""
    alg = f_map.source.alg
    f = alg.field
    proj = {}
    dims = {}
    free_cols = {}
    for v in alg.quiver.vertices:
        n_v = f_map.target.dims[v]
        img_rows = []
        for j in range(f_map.source.dims[v]):
            img_rows.append([f_map.mats[v][i][j] for i in range(n_v)])
        work = [list(r) for r in img_rows]
        pivots = rref(f, work, n_v)
        work = work[:len(pivots)]
        free = [c for c in range(n_v) if c not in set(pivots)]
        dims[v] = len(free)
        free_cols[v] = free
        # projection: eliminate pivot coordinates, read off free ones
        p_mat = []
        for fc in free:
            row = [f.zero] * n_v
            row[fc] = f.one
            p_mat.append(row)
        for r_echelon, p in zip(work, pivots):
            for fc_i, fc in enumerate(free):
                if r_echelon[fc]:
                    p_mat[fc_i][p] = p_mat[fc_i][p] - r_echelon[fc]
        proj[v] = p_mat
    action = {}
    for aid, x, y in alg.quiver.arrows:
        # coker action column = pi_y(N(a) . lift), lift = free standard vector
        cols = []
        for fc in free_cols[x]:
            lift = [f.zero] * f_map.target.dims[x]
            lift[fc] = f.one
            img = [sum((c * z for c, z in zip(row, lift) if c and z), f.zero)
                   for row in f_map.target.action[aid]]
            cols.append([sum((c * z for c, z in zip(row, img) if c and z), f.zero)
                         for row in proj[y]])
        action[aid] = [[cols[j][i] for j in range(dims[x])] for i in range(dims[y])]
    cok = FinModule(alg, dims, action, note=f"coker({f_map.source.note})", check=False)
    mats = {v: proj[v] for v in alg.quiver.vertices}
    return cok, ModuleMap(f_map.target, cok, mats, check=False)


def module_kernel(f_map: ModuleMap) -> FinModule:
    """Kernel of a module map, with its induced arrow actions."""
    return _kernel_pair(f_map)[0]


def module_cokernel(f_map: ModuleMap) -> FinModule:
    """Cokernel of a module map, with its induced arrow actions."""
    return _cokernel_pair(f_map)[0]


def radical_submodule_spans(m: FinModule) -> dict[int, SpanBasis]:
    """Per-vertex span of the radical ``sum of images of arrow actions``."""
    f = m.alg.field
    spans = {v: SpanBasis(f, m.dims[v]) for v in m.alg.quiver.vertices}
    for aid, x, y in m.alg.quiver.arrows:
        for j in range(m.dims[x]):
            spans[y].add([m.action[aid][i][j] for i in range(m.dims[y])])
    return spans


def projective_cover(m: FinModule) -> ModuleMap:
    """Minimal projective cover ``(+) P_v^{t_v} -> M`` via top(M)."""
    alg = m.alg
    f = alg.field
    spans = radical_submodule_spans(m)
    generators: list[tuple[int, list]] = []
    for v in sorted(alg.quiver.vertices):
        pivot_set = set(spans[v].pivots)
        for j in range(m.dims[v]):
            if j not in pivot_set:
                gen = [f.zero] * m.dims[v]
                gen[j] = f.one
                generators.append((v, gen))
                spans[v].add(gen)
    if not generators:
        raise ShapeMismatch("projective cover of the zero module")
    projs = [alg.projective_as_module(v) for v, _ in generators]
    dom = FinModule.direct_sum(alg, projs)
    mats = {w: [[f.zero] * dom.dims[w] for _ in range(m.dims[w])]
            for w in alg.quiver.vertices}
    col_off = {w: 0 for w in alg.quiver.vertices}
    for (v, gen) in generators:
        # column for path p (v -> w): the element gen . p
        for w in alg.quiver.vertices:
            for p in alg.paths_between(v, w):
                vec = gen
                for aid in p:
                    vec = [sum((c * z for c, z in zip(row, vec) if c and z), f.zero)
                           for row in m.action[aid]]
                col = col_off[w]
                for i in range(m.dims[w]):
                    mats[w][i][col] = vec[i]
                col_off[w] += 1
    return ModuleMap(dom, m, mats)
