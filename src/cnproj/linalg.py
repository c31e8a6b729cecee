"""Dense exact linear algebra over the scalar fields.

Matrices are plain lists of row lists; vectors are lists.  Everything is
deterministic: pivots are chosen first-nonzero in column order, and nullspace
bases follow the reduced-echelon free-column convention, so basis orders are
reproducible across runs.

Two decisions on square matrices cut into diagonal blocks serve the
endomorphism rings of ``homspaces``: ``split_eigenvalue`` (over Q) and
``has_idempotent`` (over GF(p)).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import CapExceeded

# rational_roots refuses a polynomial whose constant or leading integer
# coefficient exceeds this bound, rather than factor it by trial division.
ROOT_SEARCH_CAP = 10**9


def mat_copy(rows):
    return [list(r) for r in rows]


def identity_matrix(field, n):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = field.one
    return rows


def matmul(field, a, b, inner: int, out_cols: int):
    """a (m x inner) times b (inner x out_cols)."""
    out = []
    for row in a:
        acc = [field.zero] * out_cols
        for k in range(inner):
            x = row[k]
            if not x:
                continue
            brow = b[k]
            for j in range(out_cols):
                y = brow[j]
                if y:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def rref(field, rows, ncols: int):
    """Reduced row echelon form in place; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(field, rows, ncols: int) -> int:
    work = mat_copy(rows)
    return len(rref(field, work, ncols))


def kernel(field, rows, ncols: int):
    """Right nullspace from one row reduction: (basis, free columns).

    One basis vector per free column, with a 1 there and 0 at the other free
    columns, so a kernel vector's coordinates are its free-column entries.
    """
    work = mat_copy(rows)
    pivots = rref(field, work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -work[r][f]
        basis.append(v)
    return basis, free


def nullspace(field, rows, ncols: int):
    """Basis of the right nullspace, one vector per free column."""
    return kernel(field, rows, ncols)[0]


def solve(field, rows, ncols: int, rhs):
    """One solution of A x = b, or None if inconsistent."""
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref(field, work, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = work[r][ncols]
    return x


class SpanBasis:
    """Incremental echelon span of vectors of fixed length."""

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self._reduce(vec)
        for c in range(self.ncols):
            if v[c]:
                inv = self.field.inv(v[c])
                v = [x * inv for x in v]
                # keep reduced form: eliminate the new pivot from old rows
                for i, row in enumerate(self.rows):
                    if row[c]:
                        f = row[c]
                        self.rows[i] = [a - f * b for a, b in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(c)
                return True
        return False

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)


# -- univariate polynomials (coefficient lists, low degree first) -------------


def poly_trim(field, p):
    while p and not p[-1]:
        p.pop()
    return p


def minimal_polynomial(field, mat, n: int):
    """Monic minimal polynomial of an n x n matrix, via Krylov on the flattened powers."""
    if n == 0:
        return [field.one]
    span = SpanBasis(field, n * n)
    powers = [identity_matrix(field, n)]
    span.add([x for row in powers[0] for x in row])
    while True:
        nxt = matmul(field, powers[-1], mat, n, n)
        flat = [x for row in nxt for x in row]
        if not span.add(flat):
            # express nxt in the span of previous powers
            k = len(powers)
            cols = [[x for row in p for x in row] for p in powers]
            rows = [[cols[j][i] for j in range(k)] for i in range(n * n)]
            sol = solve(field, rows, k, flat)
            assert sol is not None
            poly = [-c for c in sol] + [field.one]
            return poly_trim(field, poly)
        powers.append(nxt)


def rational_roots(poly):
    """All rational roots of a polynomial with int or Fraction coefficients.

    Clears denominators and tries each +-p/q with p dividing the constant and
    q the leading integer, in lowest terms, by integer Horner on
    q^d P(p/q); refuses (returns None) when either integer exceeds
    ``ROOT_SEARCH_CAP``.
    """
    if not poly:
        return []
    roots = set()
    lcm = 1
    for c in poly:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in poly]
    while ints and ints[0] == 0:
        roots.add(Fraction(0))
        ints = ints[1:]  # factor out t
    if not ints:
        return sorted(roots)
    a0, ad = abs(ints[0]), abs(ints[-1])
    if a0 > ROOT_SEARCH_CAP or ad > ROOT_SEARCH_CAP:
        return None
    for p in _divisors(a0):
        for q in _divisors(ad):
            if math.gcd(p, q) == 1:
                roots.update(Fraction(s, q) for s in (p, -p) if not _scaled_value(ints, s, q))
    return sorted(roots)


def _scaled_value(ints, p: int, q: int) -> int:
    """q^d P(p/q) for the integer coefficients ``ints`` (low degree first) of P."""
    acc, qk = ints[-1], 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


# -- decisions on block-diagonal matrices (lists of square blocks) -------------


def split_eigenvalue(field, blocks):
    """The least rational eigenvalue lam of ``blocks`` (over Q) whose blockwise
    projection onto the generalised lam-eigenspace, along the other
    eigenvalues, is neither 0 nor 1: some block has lam and some block another
    eigenvalue, rational or not.  None when there is no such lam.

    Read off the minimal polynomials, with no projection built.  Raises
    CapExceeded when ``rational_roots`` refuses one, which would otherwise read
    as "no rational eigenvalue".
    """
    polys, eigen = [], set()
    for blk in blocks:
        if len(blk) == 1:
            polys.append([-blk[0][0], field.one])
            eigen.add(blk[0][0])
            continue
        polys.append(minimal_polynomial(field, blk, len(blk)))
        roots = rational_roots(polys[-1])
        if roots is None:
            raise CapExceeded(
                f"rational root search refused: a minimal polynomial coefficient "
                f"exceeds ROOT_SEARCH_CAP = {ROOT_SEARCH_CAP:,}")
        eigen.update(roots)
    if len(eigen) != 1:
        return min(eigen, default=None)
    lam = eigen.pop()
    # lam is a block's only eigenvalue iff its minimal polynomial is (t - lam)^d
    if any(p != [math.comb(len(p) - 1, k) * (-lam) ** (len(p) - 1 - k) for k in range(len(p))]
           for p in polys):
        return lam
    return None


def split_candidates(field, images):
    """``images`` (each a list of square blocks), then the blockwise sum and
    product of each pair of them."""
    yield from images
    for i, a in enumerate(images):
        for b in images[i:]:
            blocks = list(zip(a, b))
            yield [[[u + v for u, v in zip(ra, rb)] for ra, rb in zip(p, q)] for p, q in blocks]
            yield [matmul(field, p, q, len(p), len(p)) for p, q in blocks]


def first_split(field, candidates):
    """The first of ``candidates`` with a ``split_eigenvalue``, or None."""
    return next((c for c in candidates if split_eigenvalue(field, c) is not None), None)


def has_idempotent(field, images) -> bool:
    """Whether some combination of ``images`` (over GF(p), each a list of
    square blocks of the same shapes) is an idempotent other than 0 and 1,
    scanning all p^m coefficient vectors."""
    ident = [identity_matrix(field, len(blk)) for blk in images[0]]
    zero = [[[field.zero] * len(blk) for _ in blk] for blk in images[0]]
    for combo in itertools.product(field.elements(), repeat=len(images)):
        if not any(combo):
            continue
        e = [[[sum((c * img[b][r][s] for c, img in zip(combo, images) if c), field.zero)
               for s in range(len(blk))] for r in range(len(blk))]
             for b, blk in enumerate(images[0])]
        if e != zero and e != ident and all(
                matmul(field, blk, blk, len(blk), len(blk)) == blk for blk in e):
            return True
    return False
