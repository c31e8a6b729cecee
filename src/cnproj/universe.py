"""Enumeration of the indecomposable objects of C_n(proj Lambda).

The main path is a cone-closure engine: seed with the stalk and contractible
complexes, then repeatedly apply two growth rules

  (a) one-cell support extensions by an indecomposable projective P_v: the
      middle terms of a basis of Ext(S, X) for the stalk S = P_v at lo - 1
      (new first cell) and of Ext(X, S) for S at hi + 1 (new last cell);
  the pair rule: for known classes A and B, the middle term Y of each basis
      class of conflations B -> Y -> A, kept when Y is indecomposable.  A
      class is a map f: A -> B[1] in the homotopy category, B[1] being B
      moved one cell left, picked from a basis of chain maps modulo null
      homotopies as ``ext_classes`` picks cocycles modulo boundaries; Y is
      cone(f), A (+) B with -d_A.  On the pair (A, B moved one cell right)
      these are the cones of the maps A -> B;

until a full pass adds nothing.  Closure is certified only in that fixpoint
sense; completeness is checked against the brute-force finite-field oracle
at small scale, never assumed.

A universe is its shapes times their translates.  Isomorphic complexes have
equal supports, so a class of window n is a pair (shape, first position), a
shape being the class moved to support 1..w.  One ``_ShapeRegistry``, shared
by the windows of a run, keeps each shape once (moved, never stripped, so the
J seeds are shapes too), proven indecomposable once, when it is registered.
``admit`` places the translates a window lacks of each candidate at first
positions 1..n - w + 1, in that order.

Rule (a) is the pair rule on a stalk pair, run first.  The supports of S and
X are disjoint, so Hom vanishes both ways and no degree-0 family bounds;
Ext(S at lo - 1, X) is then the space of chain maps from the stalk at lo into
X, and each class glues S onto X by one cell.  A stalk pair's key is run
once, by whichever loop meets it first; either way its candidates are cones.

The rules are translation-equivariant, so they run up to translation too.
Each rule runs once per ``Universe.key`` = (shape of i, shape of j,
lo_i - lo_j): rule (a) per key(S, X) when lo >= 2 and key(X, S) when
hi <= n - 1, for every vertex and every X but the projective-injective J
classes, and the pair rule per key(i, j) when some position p of rep[i] has
p + 1 in rep[j], as Ext(i, j) vanishes otherwise.  A round visits only the
pairs that hold a representative new in the last round: every non-J j for a
new i, the new j for an old i.  A later translate is skipped, as ``admit``
has already placed every translate of the first translate's candidates.

The pair rule does only work that can be new, and splits nothing.  It solves
Hom only when a vertex of rep[i] at some p has a path to a vertex of rep[j] at
p + 1 (else Hom and Ext are 0 and the key keeps an empty entry).  It drops a
disconnected cone with no End solve; a registry hit is a proven shape and
keeps its id; a miss that ``is_indecomposable`` proves is registered with a
new id (or kept with None over the summand cap); any other cone is dropped.
That is the one place a candidate gets its shape id.  The lookup is sound for
any complex: a hit is an equal serial key or an equal signature with a
composite rep -> y -> rep that is an automorphism; then rep is a summand of
y, equal cell multisets leave a zero complement, and y is isomorphic to the
indecomposable rep.  Indecomposable middle terms suffice for modules over a
representation-finite algebra (Bongartz 2013); here the check entry "split
closure adds nothing" tests that on one window.

The registry keeps the candidates of each key stripped and normalised to
support 1..w, each with the shape id the pair rule gave it.  When a growth
run (``sgldim``) meets the key again in a later window, they go back through
``admit`` in the same order: no Hom or Ext is solved for the key, and each
candidate places its translates with no lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import MonomialAlgebra, build_algebra
from .complexes import (
    Complex,
    canonical_sort,
    cone,
    make_J,
    make_stalk,
    mat_is_zero,
    mat_mul,
    strip_contractible,
    shift_window,
    length,
)
from .errors import NotClosed, SearchSpaceTooLarge
from .homspaces import (
    hom_basis,
    is_indecomposable,
    null_homotopy_span,
    _component_summands,
    _iso_indecomposable,
)


@dataclass
class EnumConfig:
    max_rounds: int = 50
    max_total_summands: int = 24
    oracle_space_cap: int = 4_000_000


def _normalise(x: Complex) -> Complex | None:
    """x stripped and moved to support 1..w in window w; None if contractible."""
    x = strip_contractible(x)
    sup = x.support()
    return None if sup is None else shift_window(x, 1 - sup[0], sup[1] - sup[0] + 1)


class _ShapeRegistry:
    """Shapes up to isomorphism, shared by the windows of one run.

    Shape ``sid`` is ``reps[sid]``, canonically sorted with support 1..w, and
    ``contractible[sid]`` says whether it is a J complex.  A bucket holds the
    ``(shape id, serial key)`` pairs of one signature, so a lookup computes
    only the candidate's key.  ``candidates`` maps a rule key to its
    normalised candidates, each a ``(rule, candidate, shape id)`` tuple with
    the shape id the pair rule gave it, None for a cone over the summand cap.
    """

    def __init__(self):
        self.reps: list[Complex] = []
        self.contractible: list[bool] = []
        self.buckets: dict[tuple, list[tuple[int, tuple]]] = {}
        self.candidates: dict[tuple, list[tuple]] = {}

    def _lookup(self, x: Complex):
        """(shape of a nonzero x, its signature and key, first position, shape id or None)."""
        lo, hi = x.support()
        x = canonical_sort(shift_window(x, 1 - lo, hi - lo + 1))  # no copy if normalised
        sig = x.signature()
        key = x.serial_key()
        for sid, rep_key in self.buckets.get(sig, ()):
            if rep_key == key or _iso_indecomposable(self.reps[sid], x):
                return x, sig, key, lo, sid
        return x, sig, key, lo, None

    def add(self, x: Complex, found: tuple | None = None) -> tuple[int, int, bool]:
        """(shape id, first position, whether it is new) of a nonzero x, ``found`` its lookup."""
        x, sig, key, lo, sid = found or self._lookup(x)
        if sid is not None:
            return sid, lo, False
        sid = len(self.reps)
        self.reps.append(x)
        self.contractible.append(strip_contractible(x).is_zero())
        self.buckets.setdefault(sig, []).append((sid, key))
        return sid, lo, True


@dataclass
class Universe:
    """Iso classes of indecomposables in C_n, with a closure certificate.

    Class i is the translate ``classes[i]`` = (shape id, first position) of a
    shape of ``shapes``; ``representatives[i]`` is that shape moved there, and
    ``spans[i]`` its support (first, last position).
    An enumeration that stops short of closure names the caps it hit, their
    values and how far it got in ``cap_note``.
    """

    alg: MonomialAlgebra
    window: int
    shapes: _ShapeRegistry = field(repr=False)
    representatives: list[Complex] = field(default_factory=list)
    classes: list[tuple[int, int]] = field(default_factory=list)
    spans: list[tuple[int, int]] = field(default_factory=list)
    j_flags: list[bool] = field(default_factory=list)
    closed: bool = False
    stats: dict = field(default_factory=dict)
    cap_note: str | None = None
    _index: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def place(self, sid: int, lo: int) -> int | None:
        """Add the translate of shape sid at first position lo; None if present."""
        if (sid, lo) in self._index:
            return None
        idx = self._index[(sid, lo)] = len(self.classes)
        rep = self.shapes.reps[sid]
        self.classes.append((sid, lo))
        self.spans.append((lo, lo + rep.window - 1))
        self.representatives.append(shift_window(rep, lo - 1, self.window))
        self.j_flags.append(self.shapes.contractible[sid])
        return idx

    def find(self, x: Complex) -> int | None:
        """Index of the class of x; None for another window, the zero complex
        or a complex isomorphic to no class."""
        if x.window != self.window or x.is_zero():
            return None
        *_, lo, sid = self.shapes._lookup(x)
        return self._index.get((sid, lo))

    def key(self, i: int, j: int) -> tuple[int, int, int]:
        """(shape of i, shape of j, lo_i - lo_j): equal for a pair and its translates."""
        (si, lo_i), (sj, lo_j) = self.classes[i], self.classes[j]
        return si, sj, lo_i - lo_j

    def translate(self, i: int, k: int = 1) -> int | None:
        """Index of class i moved k positions right; None if it leaves the window."""
        sid, lo = self.classes[i]
        return self._index.get((sid, lo + k))

    def has_path(self, i: int, j: int, shift: int = 0) -> bool:
        """Whether a vertex of rep[i] at some p has a path to one of rep[j] at
        p + shift: else Hom(rep[i] moved shift cells right, rep[j]) has no
        path coordinate, so it is 0 with no solve."""
        xi, xj = self.representatives[i].cells, self.representatives[j].cells
        return any(self.alg.paths_between(t, s) for p in range(self.window - shift)
                   for s in xi[p] for t in xj[p + shift])

    def violators(self) -> list[Complex]:
        """Representatives that are not contractible and fill the whole window:
        both the first and the last cell nonzero."""
        return [rep for rep, is_j in zip(self.representatives, self.j_flags)
                if not is_j and rep.cells[0] and rep.cells[-1]]

    def signatures(self):
        return sorted(rep.signature() for rep in self.representatives)

    def __repr__(self):
        return (f"Universe(n={self.window}, classes={len(self.representatives)}, "
                f"closed={self.closed})")


def _seeds(alg: MonomialAlgebra, n: int):
    out = []
    for pos in range(1, n + 1):
        for v in sorted(alg.quiver.vertices):
            out.append(make_stalk(alg, v, pos, n))
    for k in range(1, n):
        for v in sorted(alg.quiver.vertices):
            out.append(make_J(alg, v, k, n))
    return out


def pair_cones(uni: Universe, i: int, j: int):
    """The normalised middle terms of a basis of the conflations rep[j] -> Y -> rep[i];
    Hom(rep[i], rep[j] moved one cell left) is solved as Hom(rep[i] moved one cell
    right, rep[j]) in the smallest window that holds both, to save memory."""
    if not uni.has_path(i, j, 1):
        return
    reps = uni.representatives
    (a, b), (c, d) = uni.spans[i], uni.spans[j]
    lo = min(a + 1, c)
    width = max(b + 1, d) - lo + 1
    hspace = hom_basis(shift_window(reps[i], 2 - lo, width),
                       shift_window(reps[j], 1 - lo, width))
    if not hspace.dimension:
        return
    classes = null_homotopy_span(hspace)
    for f_ in hspace.basis:
        if not classes.add(hspace._layout.vectorize(f_.comps)):
            continue  # null-homotopic modulo the maps already taken
        if (y := _normalise(cone(f_))) is not None:
            yield y


def enumerate_indecomposables(alg: MonomialAlgebra, n: int,
                              config: EnumConfig | None = None, *,
                              _registry: _ShapeRegistry | None = None) -> Universe:
    """Closure enumeration of ind C_n(proj Lambda); see the module docstring.

    ``_registry`` is private to the window-growth drivers, which share one
    across the windows of a run; by default each call starts a fresh one.
    Besides the per-rule ``added_by_rule`` counts, ``stats`` has
    ``translate_skips`` (rule keys met again in this window and skipped) and
    ``replayed`` (rule keys whose candidates came from an earlier window).
    """
    config = config or EnumConfig()
    shapes = _ShapeRegistry() if _registry is None else _registry
    stats = {"rounds": 0, "candidates": 0, "cap_skips": 0, "translate_skips": 0,
             "replayed": 0, "added_by_rule": {"seed": 0, "ext": 0, "cone": 0}}
    uni = Universe(alg, n, shapes, stats=stats)
    reps, spans = uni.representatives, uni.spans

    def admit(cand: tuple) -> list[int]:
        """Place the missing translates of a ``(rule, candidate, shape id)`` entry;
        returns new indices.  A shape id None is a proven cone over the summand
        cap, which is counted and skipped."""
        rule, x, sid = cand
        stats["candidates"] += 1
        if sid is None:
            stats["cap_skips"] += 1
            return []
        new = [idx for lo in range(1, n - x.window + 2)
               if (idx := uni.place(sid, lo)) is not None]
        stats["added_by_rule"][rule] += len(new)
        return new

    for s in _seeds(alg, n):
        sid, lo, _ = shapes.add(s)
        if uni.place(sid, lo) is not None:
            stats["added_by_rule"]["seed"] += 1

    stalks = range(len(alg.quiver.vertices))
    done: set[tuple] = set()

    def rule_pair(i, j, rule):
        # the one place a candidate gets its shape id: a registry hit keeps its
        # id, a proven cone is registered, or yielded with None over the summand
        # cap for admit to skip; every other cone is dropped
        for y in pair_cones(uni, i, j):
            if len(_component_summands(y)) > 1:
                continue
            found = shapes._lookup(y)
            if (sid := found[-1]) is None:
                if not is_indecomposable(found[0]):
                    continue
                if y.total_summands() <= config.max_total_summands:
                    sid = shapes.add(y, found)[0]
            yield rule, y, sid

    def run(i, j, rule) -> list[int]:
        """Admit the candidates of the key of (i, j), once per window."""
        key = uni.key(i, j)
        if key in done:
            stats["translate_skips"] += 1
            return []
        done.add(key)
        cands = shapes.candidates.get(key)
        if cands is None:
            cands = shapes.candidates[key] = list(rule_pair(i, j, rule))
        else:
            stats["replayed"] += 1
        return [idx for cand in cands for idx in admit(cand)]

    new_idxs = list(range(len(reps)))
    caps = []
    while stats["rounds"] < config.max_rounds:
        stats["rounds"] += 1
        added: list[int] = []
        new_set = set(new_idxs)
        # rule (a): the pair rule on the stalk keys of the new representatives,
        # the stalk at lo - 1 (left) and at hi + 1 (right); class v < |V| is
        # the stalk of the v-th vertex at position 1, the first seeds.  J is
        # projective-injective, so Ext with it vanishes both ways.  This loop
        # is only a visiting order: it picks which representative of a class is
        # registered first, and so the serial keys that the DOT hashes pin
        for i in sorted(new_set):
            if uni.j_flags[i]:
                continue
            lo, hi = spans[i]
            if lo >= 2:
                for v in stalks:
                    s = uni.translate(v, lo - 2)
                    added.extend(run(s, i, "ext"))
            if hi <= n - 1:
                for v in stalks:
                    s = uni.translate(v, hi)
                    added.extend(run(i, s, "ext"))
        # the pair rule over pairs touching a new representative, in row-major
        # order: every non-J j for a new i, the new ones for an old i.  Ext(i, j)
        # needs a position p of rep[i] with p + 1 in rep[j], so the other pairs
        # have no conflations
        count = len(reps)
        every_j = [j for j in range(count) if not uni.j_flags[j]]
        new_js = [j for j in sorted(new_set) if not uni.j_flags[j]]
        for i in range(count):
            if uni.j_flags[i]:
                continue
            a, b = spans[i]
            for j in (every_j if i in new_set else new_js):
                c, d = spans[j]
                if c >= b + 2 or d <= a:
                    continue
                if a > 1 and c > 1:  # its key's pair one position left came first
                    stats["translate_skips"] += 1
                    continue
                added.extend(run(i, j, "cone"))
        if not added:
            break
        new_idxs = added
    else:
        caps.append(f"max_rounds = {config.max_rounds} ran out before a fixpoint")
    if stats["cap_skips"]:
        caps.append(f"max_total_summands = {config.max_total_summands} skipped "
                    f"{stats['cap_skips']} candidates")
    uni.closed = not caps
    uni.cap_note = f"window {n}: " + "; ".join(caps) if caps else None
    if _registry is None:
        shapes.candidates.clear()  # no later window replays them
    stats["classes"] = len(reps)
    return uni


def max_length(universe: Universe) -> tuple[int, Complex]:
    """Maximum length over the representatives, with a deterministic witness."""
    if not universe.closed:
        raise NotClosed("max_length needs a closed universe")
    best = -1
    witness = None
    for rep in sorted(universe.representatives, key=lambda r: r.serial_key()):
        ell = length(rep)
        if ell > best:
            best = ell
            witness = rep
    return best, witness


# -- brute-force oracle over a prime field ------------------------------------


def brute_force_indecomposables(alg: MonomialAlgebra, n: int, bound: int, p: int,
                                config: EnumConfig | None = None) -> Universe:
    """Exhaustive enumeration over GF(p) with per-cell multiplicity <= bound.

    Complete within the bound by construction: every cell-multiset vector and
    every differential entry over the full finite Hom spaces is visited,
    candidates are filtered by d^2 = 0 and indecomposability and deduplicated
    up to isomorphism.  This is the independent oracle for the closure engine.
    """
    config = config or EnumConfig()
    gf = build_algebra(alg.quiver, alg.relations, f"gf{p}")
    f = gf.field
    verts = sorted(gf.quiver.vertices)
    cell_choices = []
    for size in range(bound + 1):
        cell_choices.extend(itertools.combinations_with_replacement(verts, size))
    # estimate the search space before running
    total = 0
    shapes = [s for s in itertools.product(cell_choices, repeat=n) if any(s)]
    for shape in shapes:
        nvars = 0
        for i in range(n - 1):
            for tv in shape[i + 1]:
                for sv in shape[i]:
                    nvars += len(gf.paths_between(tv, sv))
        total += p ** nvars
    if total > config.oracle_space_cap:
        raise SearchSpaceTooLarge(total)
    stats = {"shapes": len(shapes), "space": total, "checked": 0, "d2_ok": 0}
    uni = Universe(gf, n, _ShapeRegistry(), closed=True, stats=stats)
    elements = f.elements()
    for shape in shapes:
        entry_paths = []
        for i in range(n - 1):
            for r, tv in enumerate(shape[i + 1]):
                for c, sv in enumerate(shape[i]):
                    for path in gf.paths_between(tv, sv):
                        entry_paths.append((i, r, c, path))
        for assignment in itertools.product(elements, repeat=len(entry_paths)):
            stats["checked"] += 1
            diffs = [[[gf.zero_element(tv, sv) for sv in shape[i]]
                      for tv in shape[i + 1]] for i in range(n - 1)]
            for (i, r, c, path), coeff in zip(entry_paths, assignment):
                if coeff:
                    diffs[i][r][c] = diffs[i][r][c] + \
                        gf.element(shape[i + 1][r], shape[i][c], {path: 1}).scale(coeff)
            ok = True
            for i in range(n - 2):
                prod = mat_mul(gf, diffs[i + 1], diffs[i],
                               shape[i + 2], shape[i + 1], shape[i])
                if not mat_is_zero(prod):
                    ok = False
                    break
            if not ok:
                continue
            stats["d2_ok"] += 1
            x = Complex(gf, shape, diffs, check=False)
            if len(_component_summands(x)) > 1:
                continue  # disconnected: a sum of its components
            if not is_indecomposable(x):
                continue
            uni.place(*uni.shapes.add(x)[:2])
    stats["classes"] = len(uni.representatives)
    return uni

