"""Monomial bound quiver algebras: path bases, products and global dimension.

Conventions (fixed once, used everywhere):

* Right modules; ``P_v = e_v * Lambda`` has basis the admissible paths that
  start at ``v``.
* Paths compose left to right: ``a . b`` means "a then b" and is composable
  when ``end(a) == start(b)``.
* ``Hom(P_a, P_b)`` is spanned by admissible paths from ``b`` to ``a``, acting
  by left multiplication; composition of homs is the path product of their
  elements.  With this choice the complex ``P3 -> P2 -> P1`` over the quiver
  ``1 -> 2 -> 3`` is literal: its differentials are the arrow paths.

The global dimension is path combinatorics too (``global_dimension``): an
exact walk over syzygy paths, with no resolution cap, that returns
``math.inf`` when a resolution never ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    IncomposableElements,
    InfiniteDimensional,
    MalformedRelation,
    ShapeMismatch,
)
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
        """Concatenation ``p . q`` of composable paths; None if a relation kills it.

        A path is admissible iff no relation is a subpath of it.  Then no
        relation is a subpath of its prefixes either, so ``_enumerate_paths``
        lists every admissible path in ``_ends`` and this is a lookup.
        """
        new = p + q
        return new if not new or new in self._ends else None

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

    # -- global dimension ----------------------------------------------------

    def _syzygy_paths(self, p: tuple[str, ...]) -> list[tuple[str, ...]]:
        """The minimal paths q with pq = 0: Omega(p Lambda) is the sum of the q Lambda."""
        t = self._ends[p][1]
        return [q for w in self.quiver.vertices for q in self.paths_between(t, w)
                if q and self.mult_path(p, q) is None and self.mult_path(p, q[:-1]) is not None]

    def global_dimension(self) -> int | float:
        """gl.dim = max pd(S_v), read off path syzygies; ``math.inf`` if unbounded.

        Over a monomial algebra the syzygy of a path ideal p Lambda is the
        direct sum of the q Lambda over the minimal paths q with pq = 0
        (Green-Happel-Zacharia), and Omega(S_v) is the sum of a Lambda over
        the arrows a out of v.  So pd(p Lambda) is 0 when no such q exists and
        1 + max pd(q Lambda) otherwise, and pd(S_v) is 0 at a sink and
        1 + max pd(a Lambda) elsewhere.  The walk below evaluates this
        recursion depth first; a path met again on its stack is a direct
        summand of one of its own syzygies, so its resolution never ends.
        """
        pd: dict[tuple[str, ...], int] = {}
        for aid in sorted(self._arrow):
            root = (aid,)
            if root in pd:
                continue
            qs = self._syzygy_paths(root)
            stack = [(root, qs, iter(qs))]
            on_stack = {root}
            while stack:
                p, qs, todo = stack[-1]
                q = next((q for q in todo if q not in pd), None)
                if q is None:
                    stack.pop()
                    on_stack.discard(p)
                    pd[p] = 1 + max((pd[q] for q in qs), default=-1)
                elif q in on_stack:
                    return math.inf
                else:
                    on_stack.add(q)
                    qs = self._syzygy_paths(q)
                    stack.append((q, qs, iter(qs)))
        return 1 + max((pd[(aid,)] for aid in self._arrow), default=-1)

    def __repr__(self):
        return (f"MonomialAlgebra({len(self.quiver.vertices)} vertices, "
                f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
                f"dim {self.dimension}, {self.field!r})")


def build_algebra(quiver: Quiver, relations: Sequence[Sequence[str]], field_tag: str,
                  path_cap: int = 10_000) -> MonomialAlgebra:
    """Build the bound quiver algebra over the tagged scalar field."""
    return MonomialAlgebra(quiver, relations, field_from_tag(field_tag), path_cap=path_cap)


def products_vanish(alg, nrows: int, ncols: int, *terms) -> bool:
    """Whether sum_k s_k a_k b_k = 0 for the terms (s_k, a_k, b_k): a scalar,
    an nrows x m_k and an m_k x ncols matrix of elements of ``alg``.  Path
    coefficients are summed per entry in a dict, so no element is built."""
    mult, zero = alg.mult_path, alg.field.zero
    for r in range(nrows):
        for c in range(ncols):
            acc = {}
            for sign, a, b in terms:
                for k, x in enumerate(a[r]):
                    if not x.coeffs:
                        continue
                    y = b[k][c].coeffs
                    for p, cp in x.coeffs.items():
                        cp = sign * cp
                        for q, cq in y.items():
                            if (pq := mult(p, q)) is not None:
                                acc[pq] = acc.get(pq, zero) + cp * cq
            if any(acc.values()):
                return False
    return True
