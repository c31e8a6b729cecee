"""Path coordinates of degree-k families of maps between windowed complexes."""

from .algebra import AlgElement
from .complexes import Complex
from .errors import ShapeMismatch


class _VarLayout:
    """Path coordinates of the degree-k families h^i : X^i -> Y^{i+k}.

    ``slots`` lists ``(j, r, c, paths)``: component j is h^{j + lo}, entry row
    r, column c, with one unknown per admissible path; ``offset[(j, r, c)]``
    is the index of the slot's first unknown.
    """

    def __init__(self, x: Complex, y: Complex, k: int):
        alg = x.alg
        n = x.window
        self.alg = alg
        self.lo = max(0, -k)
        self.shapes = [(y.cells[i + k], x.cells[i]) for i in range(self.lo, min(n, n - k))]
        self.slots = []
        self.offset = {}
        nvars = 0
        for j, (tgt, src) in enumerate(self.shapes):
            for r, tv in enumerate(tgt):
                for c, sv in enumerate(src):
                    paths = alg.paths_between(tv, sv)
                    if paths:
                        self.offset[(j, r, c)] = nvars
                        self.slots.append((j, r, c, paths))
                        nvars += len(paths)
        self.nvars = nvars

    def var(self, j, r, c, path) -> int:
        """The coordinate of ``path`` in slot (j, r, c)."""
        tgt, src = self.shapes[j]
        return self.offset[(j, r, c)] + self.alg.paths_between(tgt[r], src[c]).index(path)

    def vectorize(self, mats) -> list:
        vec = [self.alg.field.zero] * self.nvars
        found = 0
        for j, r, c, paths in self.slots:
            coeffs = mats[j][r][c].coeffs
            if coeffs:
                off = self.offset[(j, r, c)]
                for t, p in enumerate(paths):
                    if p in coeffs:
                        vec[off + t] = coeffs[p]
                        found += 1
        if found != sum(len(e.coeffs) for m in mats for row in m for e in row):
            raise ShapeMismatch("entry outside the layout")
        return vec

    def materialize(self, vec):
        alg = self.alg
        mats = []
        for tgt, src in self.shapes:
            mats.append([[alg.zero_element(tv, sv) for sv in src] for tv in tgt])
        for (j, r, c, paths) in self.slots:
            off = self.offset[(j, r, c)]
            coeffs = {p: vec[off + t] for t, p in enumerate(paths) if vec[off + t]}
            if coeffs:
                mats[j][r][c] = AlgElement(alg, self.shapes[j][0][r], self.shapes[j][1][c],
                                           coeffs, _checked=True)
        return mats

    def entries(self, vectors) -> list[dict]:
        """Per vector, its nonzero coordinates: (j, row) -> [(column, path, coefficient)]."""
        out = [{} for _ in vectors]
        for j, r, c, paths in self.slots:
            for t, p in enumerate(paths, self.offset[(j, r, c)]):
                for ent, vec in zip(out, vectors):
                    if vec[t]:
                        ent.setdefault((j, r), []).append((c, p, vec[t]))
        return out

    def composite(self, g: dict, f: dict) -> list:
        """Coordinates of g . f, for the ``entries`` of g: W -> Y and f: X -> W."""
        alg, vec = self.alg, [self.alg.field.zero] * self.nvars
        for (j, r), row in g.items():  # (g f)^j[r][c] = sum over k of g^j[r][k] f^j[k][c]
            for k, q, b in row:
                for c, p, a in f.get((j, k), ()):
                    if (qp := alg.mult_path(q, p)) is not None:
                        vec[self.var(j, r, c, qp)] += b * a
        return vec
