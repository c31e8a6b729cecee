"""Windowed complexes of projectives and the functors between windows.

A ``Complex`` in window n keeps, per position 1..n, the list of vertices of
its indecomposable projective summands, and per adjacent pair a matrix of
``AlgElement`` differential entries.  Positions are 1-based in the public
vocabulary and 0-based in the stored tuples.

The differential entry in row r, column c of ``diffs[i]`` is an element of
``Hom(P_{cells[i][c]}, P_{cells[i+1][r]})``, i.e. a path combination from
``cells[i+1][r]`` to ``cells[i][c]``.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .algebra import AlgElement, MonomialAlgebra, products_vanish
from .errors import (
    NotAChainMap,
    NotAnExtension,
    PositionOutOfRange,
    ShapeMismatch,
    SupportOverflow,
    WindowMismatch,
)
from .linalg import rank


# -- AlgElement matrices -------------------------------------------------


def mat_zero(alg, tgt_cell, src_cell):
    return [[alg.zero_element(tv, sv) for sv in src_cell] for tv in tgt_cell]


def mat_identity(alg, cell):
    return [[alg.unit(v) if i == j else alg.zero_element(v, w)
             for j, w in enumerate(cell)] for i, v in enumerate(cell)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_mul(alg, a, b, tgt_cell, mid_cell, src_cell):
    """Composite a . b with explicit cells, so empty matrices keep their type."""
    out = []
    for r, tv in enumerate(tgt_cell):
        out_row = []
        for c, sv in enumerate(src_cell):
            acc = alg.zero_element(tv, sv)
            for k in range(len(mid_cell)):
                acc = acc + alg.multiply(a[r][k], b[k][c])
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


class Complex:
    """An object of C_n(proj Lambda)."""

    __slots__ = ("alg", "cells", "diffs")

    def __init__(self, alg: MonomialAlgebra, cells, diffs, check: bool = True):
        self.alg = alg
        self.cells = tuple(tuple(c) for c in cells)
        self.diffs = tuple(_freeze(m) for m in diffs)
        if check:
            self._validate()

    def _validate(self):
        n = len(self.cells)
        if n < 1:
            raise ShapeMismatch("window must be >= 1")
        if len(self.diffs) != n - 1:
            raise ShapeMismatch("diffs length must be window - 1")
        vs = set(self.alg.quiver.vertices)
        for c in self.cells:
            for v in c:
                if v not in vs:
                    raise ShapeMismatch(f"unknown vertex {v} in a cell")
        for i, m in enumerate(self.diffs):
            tgt, src = self.cells[i + 1], self.cells[i]
            if len(m) != len(tgt) or any(len(row) != len(src) for row in m):
                raise ShapeMismatch(f"diff {i + 1}: matrix shape mismatch")
            for r, row in enumerate(m):
                for c, entry in enumerate(row):
                    if (entry.start, entry.end) != (tgt[r], src[c]):
                        raise ShapeMismatch(
                            f"diff {i + 1} entry ({r},{c}) typed {entry.start}->{entry.end}, "
                            f"expected {tgt[r]}->{src[c]}")
        one = self.alg.field.one
        for i in range(len(self.diffs) - 1):
            if not products_vanish(self.alg, len(self.cells[i + 2]), len(self.cells[i]),
                                    (one, self.diffs[i + 1], self.diffs[i])):
                raise ShapeMismatch(f"d^{i + 2} d^{i + 1} != 0")

    @property
    def window(self) -> int:
        return len(self.cells)

    def support(self):
        """1-based (first, last) nonzero positions, or None for the zero complex."""
        nz = [i + 1 for i, c in enumerate(self.cells) if c]
        return (nz[0], nz[-1]) if nz else None

    def is_zero(self) -> bool:
        return self.support() is None

    def total_summands(self) -> int:
        return sum(len(c) for c in self.cells)

    def signature(self):
        return tuple(tuple(sorted(c)) for c in self.cells)

    def label(self) -> str:
        return "->".join("0" if not c else "+".join(f"P{v}" for v in sorted(c))
                         for c in self.cells)

    def witness_label(self) -> str:
        """Support cells only, spelled `P6 -> P5 -> ...`."""
        sup = self.support()
        if sup is None:
            return "0"
        return " -> ".join("+".join(f"P{v}" for v in sorted(c))
                           for c in self.cells[sup[0] - 1:sup[1]])

    def serial_key(self):
        return (self.window, self.signature(),
                tuple(tuple(e.key() for row in m for e in row) for m in self.diffs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Complex) and self.alg is other.alg
                and self.cells == other.cells and self.diffs == other.diffs)

    def __repr__(self):
        return f"Complex[{self.label()}]"


class ChainMap:
    """A morphism of complexes with equal window."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Complex, target: Complex, comps, check: bool = True):
        if source.window != target.window:
            raise WindowMismatch("chain map between different windows")
        self.source = source
        self.target = target
        self.comps = tuple(_freeze(m) for m in comps)
        if check:
            self._validate()

    def _validate(self):
        alg = self.source.alg
        n = self.source.window
        if len(self.comps) != n:
            raise ShapeMismatch("one component per position required")
        for i, m in enumerate(self.comps):
            tgt, src = self.target.cells[i], self.source.cells[i]
            if len(m) != len(tgt) or any(len(row) != len(src) for row in m):
                raise ShapeMismatch(f"component {i + 1}: shape mismatch")
            for r, row in enumerate(m):
                for c, entry in enumerate(row):
                    if (entry.start, entry.end) != (tgt[r], src[c]):
                        raise ShapeMismatch(f"component {i + 1}: entry typing mismatch")
        one = alg.field.one
        for i in range(n - 1):
            if not products_vanish(alg, len(self.target.cells[i + 1]), len(self.source.cells[i]),
                                    (one, self.target.diffs[i], self.comps[i]),
                                    (-one, self.comps[i + 1], self.source.diffs[i])):
                raise NotAChainMap(f"d f != f d at position {i + 1}")

    @staticmethod
    def identity(x: Complex) -> "ChainMap":
        return ChainMap(x, x, [mat_identity(x.alg, c) for c in x.cells], check=False)

    def is_zero(self) -> bool:
        return all(e.is_zero() for m in self.comps for row in m for e in row)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        assert self.source is other.source and self.target is other.target
        return ChainMap(self.source, self.target,
                        [mat_add([list(r) for r in a], [list(r) for r in b])
                         for a, b in zip(self.comps, other.comps)], check=False)

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        [[[e.scale(c) for e in row] for row in m] for m in self.comps],
                        check=False)

    def scalar_blocks(self):
        """Yield (position, rows, cols, block) per position and per vertex v of
        either cell there, in sorted vertex order.

        ``rows`` and ``cols`` index the summands P_v of the target and source
        cells; ``block`` holds the trivial-path coefficients of the component
        on them.  Modulo the radical, each component is the sum of its blocks.
        """
        for i, (comp, tgt, src) in enumerate(zip(self.comps, self.target.cells,
                                                 self.source.cells)):
            for v in sorted(set(tgt) | set(src)):
                rows = [r for r, w in enumerate(tgt) if w == v]
                cols = [c for c, w in enumerate(src) if w == v]
                yield i, rows, cols, [[comp[r][c].unit_coeff() for c in cols] for r in rows]

    def is_isomorphism(self) -> bool:
        """All components invertible: square scalar blocks per vertex, all regular.

        A map of projective sums is invertible iff it is invertible modulo the
        radical, i.e. the per-vertex matrices of trivial-path coefficients are
        square and regular.
        """
        if any(sorted(src) != sorted(tgt)
               for src, tgt in zip(self.source.cells, self.target.cells)):
            return False
        field = self.source.alg.field
        return all(rank(field, blk, len(cols)) == len(cols)
                   for _, _, cols, blk in self.scalar_blocks())

    def __repr__(self):
        return f"ChainMap[{self.source.label()} -> {self.target.label()}]"


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.target.cells != g.source.cells or f.target.diffs != g.source.diffs:
        raise ShapeMismatch("composition: middle complexes differ")
    alg = f.source.alg
    comps = [mat_mul(alg, g.comps[i], f.comps[i],
                     g.target.cells[i], g.source.cells[i], f.source.cells[i])
             for i in range(f.source.window)]
    return ChainMap(f.source, g.target, comps, check=False)


# -- constructors ----------------------------------------------------------


def zero_complex(alg: MonomialAlgebra, n: int) -> Complex:
    return Complex(alg, [() for _ in range(n)],
                   [[] for _ in range(n - 1)], check=False)


def make_stalk(alg: MonomialAlgebra, v: int, pos: int, n: int) -> Complex:
    """Stalk P_v at a position: pos 1 is S(P), pos n is T(P)."""
    if not 1 <= pos <= n:
        raise PositionOutOfRange(f"position {pos} not in 1..{n}")
    cells = [(v,) if i + 1 == pos else () for i in range(n)]
    diffs = [mat_zero(alg, cells[i + 1], cells[i]) for i in range(n - 1)]
    return Complex(alg, cells, diffs, check=False)


def make_J(alg: MonomialAlgebra, v: int, k: int, n: int) -> Complex:
    """The contractible two-cell complex P_v --id--> P_v at positions k, k+1."""
    if not 1 <= k <= n - 1:
        raise PositionOutOfRange(f"J position {k} not in 1..{n - 1}")
    cells = [(v,) if i + 1 in (k, k + 1) else () for i in range(n)]
    diffs = []
    for i in range(n - 1):
        if i + 1 == k:
            diffs.append([[alg.unit(v)]])
        else:
            diffs.append(mat_zero(alg, cells[i + 1], cells[i]))
    return Complex(alg, cells, diffs, check=False)


# -- the four window functors ------------------------------------------------


def embed_left(x: Complex) -> Complex:
    """Window n -> n+1, inserting an empty first cell."""
    return shift_window(x, 1, x.window + 1)


def embed_right(x: Complex) -> Complex:
    """Window n -> n+1, appending an empty last cell."""
    return shift_window(x, 0, x.window + 1)


def drop_first(x: Complex) -> Complex:
    """Window n+1 -> n, truncating the first cell (total)."""
    if x.window < 2:
        raise WindowMismatch("cannot drop below window 1")
    return Complex(x.alg, x.cells[1:], x.diffs[1:], check=False)


def drop_last(x: Complex) -> Complex:
    """Window n+1 -> n, truncating the last cell (total)."""
    if x.window < 2:
        raise WindowMismatch("cannot drop below window 1")
    return Complex(x.alg, x.cells[:-1], x.diffs[:-1], check=False)


def embed_left_map(f: ChainMap) -> ChainMap:
    return shift_window_map(f, 1, f.source.window + 1)


def embed_right_map(f: ChainMap) -> ChainMap:
    return shift_window_map(f, 0, f.source.window + 1)


def drop_first_map(f: ChainMap) -> ChainMap:
    return ChainMap(drop_first(f.source), drop_first(f.target), f.comps[1:], check=False)


def drop_last_map(f: ChainMap) -> ChainMap:
    return ChainMap(drop_last(f.source), drop_last(f.target), f.comps[:-1], check=False)


def shift_window(x: Complex, p: int, new_window: int) -> Complex:
    """Relocate the support by +p inside a window of size new_window.

    A pure relocation: differentials are copied unchanged (the sign-free
    convention; any global sign yields an isomorphic complex).
    """
    if p == 0 and new_window == x.window:
        return x  # complexes are immutable, so no copy
    sup = x.support()
    if sup is None:
        return zero_complex(x.alg, new_window)
    lo, hi = sup
    if lo + p < 1 or hi + p > new_window:
        raise SupportOverflow(f"support {sup} shifted by {p} leaves 1..{new_window}")
    cells = [()] * new_window
    cells[lo - 1 + p:hi + p] = x.cells[lo - 1:hi]
    # x's differentials between its support cells; the others have an empty side
    diffs = [x.diffs[k - p] if lo - 1 <= k - p < hi - 1 else [[]] * len(cells[k + 1])
             for k in range(new_window - 1)]
    return Complex(x.alg, cells, diffs, check=False)


def shift_window_map(f: ChainMap, p: int, new_window: int, source: Complex | None = None,
                     target: Complex | None = None) -> ChainMap:
    """``shift_window`` on a chain map: its components move by +p with its ends.

    ``source`` and ``target`` are the shifted ends when the caller holds them
    (they must equal ``shift_window`` of f's ends); by default they are built.
    Raises SupportOverflow when the support of either end leaves 1..new_window.
    """
    comps = [[] for _ in range(new_window)]
    for i, (tc, sc) in enumerate(zip(f.target.cells, f.source.cells)):
        if tc or sc:
            if not 0 <= i + p < new_window:
                raise SupportOverflow(f"position {i + 1} shifted by {p} leaves 1..{new_window}")
            comps[i + p] = f.comps[i]
    if source is None:
        source = shift_window(f.source, p, new_window)
    if target is None:
        target = shift_window(f.target, p, new_window)
    return ChainMap(source, target, comps, check=False)


def select_summands(x: Complex, keep) -> Complex:
    """The summands ``keep[i]`` of each cell i, in that order, with the
    differential entries between them."""
    cells = [tuple(c[r] for r in rs) for c, rs in zip(x.cells, keep)]
    diffs = [[[d[r][c] for c in keep[i]] for r in keep[i + 1]] for i, d in enumerate(x.diffs)]
    return Complex(x.alg, cells, diffs, check=False)


def concatenate(x: Complex, y: Complex, link=None, check: bool = False) -> Complex:
    """Cells x_i + y_i with d^i = [[d_x^i, link^i], [0, d_y^i]].

    ``link^i`` maps y's cell i to x's cell i+1; without it the blocks are
    zero and the result is the direct sum.
    """
    if x.window != y.window:
        raise WindowMismatch("concatenation needs equal windows")
    alg = x.alg
    diffs = []
    for i, (dx, dy) in enumerate(zip(x.diffs, y.diffs)):
        top = link[i] if link is not None else mat_zero(alg, x.cells[i + 1], y.cells[i])
        bottom = mat_zero(alg, y.cells[i + 1], x.cells[i])
        diffs.append([[*a, *b] for a, b in zip(dx, top)] + [[*a, *b] for a, b in zip(bottom, dy)])
    return Complex(alg, [a + b for a, b in zip(x.cells, y.cells)], diffs, check=check)


def direct_sum(x: Complex, y: Complex) -> Complex:
    """Cellwise concatenation with block-diagonal differentials."""
    return concatenate(x, y)


def direct_sum_many(parts: Sequence[Complex]) -> Complex:
    return functools.reduce(direct_sum, parts)


def cone(f: ChainMap) -> Complex:
    """Mapping cone in window n+1: cell j = X^j (+) Y^{j-1}, d = [[-dX, 0], [f, dY]]."""
    x, y = f.source, f.target
    alg = x.alg
    n = x.window
    cells = []
    for j in range(n + 1):
        xs = x.cells[j] if j < n else ()
        ys = y.cells[j - 1] if j >= 1 else ()
        cells.append(xs + ys)
    diffs = []
    for j in range(n):
        m = mat_zero(alg, cells[j + 1], cells[j])
        x_src = len(x.cells[j]) if j < n else 0
        x_tgt = len(x.cells[j + 1]) if j + 1 < n else 0
        # -d_X block
        if j + 1 < n:
            for r in range(x_tgt):
                for c in range(x_src):
                    m[r][c] = -x.diffs[j][r][c]
        # f block: X^j -> Y^j
        for r in range(len(y.cells[j])):
            for c in range(x_src):
                m[x_tgt + r][c] = f.comps[j][r][c]
        # d_Y block: Y^{j-1} -> Y^j
        if j >= 1:
            for r in range(len(y.cells[j])):
                for c in range(len(y.cells[j - 1])):
                    m[x_tgt + r][x_src + c] = y.diffs[j - 1][r][c]
        diffs.append(m)
    return Complex(alg, cells, diffs)


def canonical_sort(x: Complex) -> Complex:
    """Stable-sort every cell by vertex id, permuting differentials to match;
    x itself when every cell is already in order."""
    if all(list(c) == sorted(c) for c in x.cells):
        return x
    return select_summands(x, [sorted(range(len(c)), key=lambda i: (c[i], i)) for c in x.cells])


# -- homotopy-minimal stripping ------------------------------------------------


def strip_contractible(x: Complex) -> Complex:
    """Remove all contractible (J-type) direct summands.

    Repeatedly locates a differential entry that is a unit of some
    ``e_v Lambda e_v``, clears its row and column by a base change, and
    deletes the matched pair of summands.  The result is the homotopy-minimal
    representative, unique up to isomorphism.
    """
    alg = x.alg
    cells = [list(c) for c in x.cells]
    diffs = [[list(row) for row in m] for m in x.diffs]

    def find_unit():
        for i, m in enumerate(diffs):
            for r, row in enumerate(m):
                for c, e in enumerate(row):
                    if e.start == e.end and e.unit_coeff():
                        return i, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, c = hit
        u = diffs[i][r][c]
        uinv = alg.invert_local(u)
        m = diffs[i]
        # row operations on cell i+1: clear column c below/above the pivot
        for r2 in range(len(m)):
            if r2 == r or m[r2][c].is_zero():
                continue
            w = alg.multiply(m[r2][c], uinv)
            for c2 in range(len(m[0])):
                m[r2][c2] = m[r2][c2] - alg.multiply(w, m[r][c2])
            if i + 1 < len(diffs):
                nxt = diffs[i + 1]
                for s in range(len(nxt)):
                    nxt[s][r] = nxt[s][r] + alg.multiply(nxt[s][r2], w)
        # column operations on cell i: clear row r
        for c2 in range(len(m[0])):
            if c2 == c or m[r][c2].is_zero():
                continue
            w = alg.multiply(uinv, m[r][c2])
            for r2 in range(len(m)):
                m[r2][c2] = m[r2][c2] - alg.multiply(m[r2][c], w)
            if i - 1 >= 0:
                prv = diffs[i - 1]
                for t in range(len(prv[0]) if prv else 0):
                    prv[c][t] = prv[c][t] + alg.multiply(w, prv[c2][t])
        # delete summand c of cell i and summand r of cell i+1
        del cells[i][c]
        for row in diffs[i]:
            del row[c]
        if i - 1 >= 0:
            del diffs[i - 1][c]
        del cells[i + 1][r]
        del diffs[i][r]
        if i + 1 < len(diffs):
            for row in diffs[i + 1]:
                del row[r]
    return Complex(alg, cells, diffs)


def length(x: Complex) -> int:
    """Support width of the homotopy-minimal representative; 0 for zero."""
    sup = strip_contractible(x).support()
    if sup is None:
        return 0
    return sup[1] - sup[0]


def extend_left(x: Complex, v: int, d0: Sequence[AlgElement] | AlgElement) -> Complex:
    """Left extension: window grows by one, with new first cell P_v."""
    col = [d0] if isinstance(d0, AlgElement) else list(d0)
    if len(col) != len(x.cells[0]):
        raise NotAnExtension("d0 must have one entry per first-cell summand")
    for r, e in enumerate(col):
        if (e.start, e.end) != (x.cells[0][r], v):
            raise NotAnExtension(f"entry {r} typed {e.start}->{e.end}, "
                                 f"expected {x.cells[0][r]}->{v}")
    if all(e.is_zero() for e in col):
        raise NotAnExtension("extension morphism must be nonzero")
    mat = [[e] for e in col]
    if x.window >= 2 and not products_vanish(x.alg, len(x.cells[1]), 1,
                                              (x.alg.field.one, x.diffs[0], mat)):
        raise NotAnExtension("d^1 . d^0 != 0")
    return Complex(x.alg, [(v,), *x.cells], [mat, *x.diffs])


def extend_right(x: Complex, v: int, dm: Sequence[AlgElement] | AlgElement) -> Complex:
    """Right extension: window grows by one, with new last cell P_v."""
    row = [dm] if isinstance(dm, AlgElement) else list(dm)
    if len(row) != len(x.cells[-1]):
        raise NotAnExtension("dm must have one entry per last-cell summand")
    for c, e in enumerate(row):
        if (e.start, e.end) != (v, x.cells[-1][c]):
            raise NotAnExtension(f"entry {c} typed {e.start}->{e.end}, "
                                 f"expected {v}->{x.cells[-1][c]}")
    if all(e.is_zero() for e in row):
        raise NotAnExtension("extension morphism must be nonzero")
    mat = [row]
    if x.window >= 2 and not products_vanish(x.alg, 1, len(x.cells[-2]),
                                              (x.alg.field.one, mat, x.diffs[-1])):
        raise NotAnExtension("d^m . d^{n-1} != 0")
    return Complex(x.alg, [*x.cells, (v,)], [*x.diffs, mat])
