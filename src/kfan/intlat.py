"""Exact linear algebra over the integers.

Everything here runs on plain Python ints (arbitrary precision); no floats,
no modular shortcuts.  The module provides the small kit the rest of the
package leans on:

* Hermite and Smith normal forms with their unimodular transforms,
* integer linear solving, and the determinant with the adjugate from one
  fraction-free pass (fan.cone_frames reads every cone's dual basis there),
* quotient lattices (by the saturation of a sublattice) with a section,
* primitive vectors,
* two sparse incremental echelons on {column: coeff} rows: RowLattice,
  an exact Z-basis for kernels, member bases and membership probes, and
  RowSpan, an echelon of the rational span for callers that read only a
  rank or the pivot columns.

IntMatrix and the normal forms above are dense and meant for the small
matrices of fan geometry.  Both sparse echelons reduce each inserted row
in place on one working copy.  Neither has a proven bound on its entries.
RowLattice's gcd pivoting lets them compound: on the ideal lattices of the
horospherical datum A3, parabolic set {0,1}, embedding w3 they pass
500,000 bits.  RowSpan stores primitive rows and keeps the same lattices
under 20 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Optional, Sequence


class IntMatrix:
    """Immutable-by-convention dense integer matrix (row major)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = [list(map(int, row)) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [list(map(int, c)) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
        else:
            height = 0 if rows is None else rows
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)], cols=len(cols))

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)], cols=self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row_i = self.data[i]
            out.append([sum(row_i[k] * other.data[k][j] for k in range(self.cols))
                        for j in range(other.cols)])
        return IntMatrix(out, cols=other.cols)

    def mul_vec(self, v: Sequence[int]) -> list:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return [sum(row[k] * v[k] for k in range(self.cols)) for row in self.data]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data and self.cols == other.cols

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def _swap_rows(a: list, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _add_row(a: list, dst: int, src: int, factor: int) -> None:
    if factor:
        row_d, row_s = a[dst], a[src]
        for k in range(len(row_d)):
            row_d[k] += factor * row_s[k]


def hermite_normal_form(m: IntMatrix) -> tuple:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and h = u * m.  Pivots are positive,
    entries above each pivot are reduced into [0, pivot), pivot columns
    increase strictly and zero rows come last.
    """
    h = [row[:] for row in m.data]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    pivot_row = 0
    for col in range(m.cols):
        while True:
            live = [i for i in range(pivot_row, m.rows) if h[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(h[i][col]))
            if best != pivot_row:
                _swap_rows(h, pivot_row, best)
                _swap_rows(u, pivot_row, best)
            clean = True
            for i in range(pivot_row + 1, m.rows):
                if h[i][col]:
                    q = h[i][col] // h[pivot_row][col]
                    _add_row(h, i, pivot_row, -q)
                    _add_row(u, i, pivot_row, -q)
                    if h[i][col]:
                        clean = False
            if clean:
                break
        if pivot_row < m.rows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            piv = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // piv
                _add_row(h, i, pivot_row, -q)
                _add_row(u, i, pivot_row, -q)
            pivot_row += 1
            if pivot_row == m.rows:
                break
    return IntMatrix(h, cols=m.cols), IntMatrix(u, cols=m.rows)


def _snf_with_inverses(m: IntMatrix) -> tuple:
    """Smith normal form with its transforms and the row transform's inverse.

    Returns (d, p, q, p_inv) with p * m * q = d, d diagonal with
    d_1 | d_2 | ... and all diagonal entries nonnegative.
    """
    r, c = m.rows, m.cols
    a = [row[:] for row in m.data]
    p = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    p_inv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    q = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_op(dst: int, src: int, f: int) -> None:
        # a_dst += f * a_src; keeps p * m * q = a, updating p and p_inv.
        _add_row(a, dst, src, f)
        _add_row(p, dst, src, f)
        for i in range(r):
            p_inv[i][src] -= f * p_inv[i][dst]

    def col_op(dst: int, src: int, f: int) -> None:
        for i in range(r):
            a[i][dst] += f * a[i][src]
        for i in range(c):
            q[i][dst] += f * q[i][src]

    def row_swap(i: int, j: int) -> None:
        _swap_rows(a, i, j)
        _swap_rows(p, i, j)
        for k in range(r):
            p_inv[k][i], p_inv[k][j] = p_inv[k][j], p_inv[k][i]

    def col_swap(i: int, j: int) -> None:
        for k in range(r):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(c):
            q[k][i], q[k][j] = q[k][j], q[k][i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        p[i] = [-x for x in p[i]]
        for k in range(r):
            p_inv[k][i] = -p_inv[k][i]

    for t in range(min(r, c)):
        while True:
            entries = [(abs(a[i][j]), i, j) for i in range(t, r) for j in range(t, c) if a[i][j]]
            if not entries:
                break
            _, bi, bj = min(entries)
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    row_op(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    col_op(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1)
        if t < min(r, c) and a[t][t] < 0:
            row_negate(t)
    d = IntMatrix(a, cols=c)
    return d, IntMatrix(p), IntMatrix(q), IntMatrix(p_inv)


def smith_normal_form(m: IntMatrix) -> tuple:
    """Smith normal form: returns (d, p, q) with p * m * q = d diagonal,
    nonnegative, each diagonal entry dividing the next."""
    d, p, q, _ = _snf_with_inverses(m)
    return d, p, q


def invariant_factors(m: IntMatrix) -> list:
    d, _, _ = smith_normal_form(m)
    return [d.data[i][i] for i in range(min(d.rows, d.cols)) if d.data[i][i] != 0]


def adjugate(m: IntMatrix) -> tuple:
    """(det, adj) of a square matrix from one fraction-free Gauss-Jordan pass.

    Bareiss's update a_ij <- (p * a_ij - a_ik * a_kj) / prev, with p the
    pivot and prev the one before, runs on [m | I] above and below every
    pivot, so each division is exact and every entry stays a minor of
    [m | I].  The left block ends as d * I with d = +-det (the sign of the
    row swaps), and the right block as d * m^-1 = +-adj(m).  A singular
    matrix gives (0, None).
    """
    if m.rows != m.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.data)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0, None
            _swap_rows(a, k, swap)
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    adj = IntMatrix([[sign * x for x in row[n:]] for row in a], cols=n)
    return sign * prev, adj


def det(m: IntMatrix) -> int:
    """Exact determinant, read from the adjugate pass."""
    return adjugate(m)[0]


def primitive(v: Sequence[int]) -> tuple:
    """Primitive integer vector on the same ray through the origin."""
    v = tuple(int(x) for x in v)
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("primitive vector of the zero vector is undefined")
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class QuotientLattice:
    """Quotient of Z^ambient_rank by the saturation of a sublattice.

    project maps the ambient lattice onto Z^rank with kernel exactly the
    saturation; section is a right inverse (project * section = identity).
    """

    ambient_rank: int
    rank: int
    project: IntMatrix
    section: IntMatrix

    def project_vec(self, v: Sequence[int]) -> tuple:
        return tuple(self.project.mul_vec(list(v)))

    def section_vec(self, w: Sequence[int]) -> tuple:
        return tuple(self.section.mul_vec(list(w)))


def quotient_lattice(ambient_rank: int, sub_basis: IntMatrix) -> QuotientLattice:
    """Quotient of Z^ambient_rank by the saturation of the column span.

    Raises ValueError if the columns are dependent (they must form a basis
    of the sublattice they span).
    """
    n = ambient_rank
    k = sub_basis.cols
    if sub_basis.rows != n:
        raise ValueError("sub_basis rows must match ambient rank")
    if k == 0:
        eye = IntMatrix.identity(n)
        return QuotientLattice(n, n, eye, eye)
    d, p, _, p_inv = _snf_with_inverses(sub_basis)
    nonzero = sum(1 for i in range(min(d.rows, d.cols)) if d.data[i][i] != 0)
    if nonzero != k:
        raise ValueError("dependent columns in sublattice basis")
    project = IntMatrix([p.data[i] for i in range(k, n)], cols=n)
    section = IntMatrix.from_columns([p_inv.column(j) for j in range(k, n)], rows=n)
    return QuotientLattice(n, n - k, project, section)


class IntSolver:
    """Factored integer linear system a * x = b, reusable across many b.

    The Hermite form of a^T is computed once; each solve is a forward
    substitution with exact divisibility checks.  solve returns None when
    no integer solution exists.
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        self.n_vars = a.cols
        self.n_eqs = a.rows
        h, u = hermite_normal_form(a.transpose())
        self._h = h.data
        self._u = u.data
        self._pivots = []
        for i in range(h.rows):
            lead = next((j for j in range(h.cols) if h.data[i][j] != 0), None)
            if lead is None:
                break
            self._pivots.append((i, lead))

    def solve(self, b: Sequence[int]) -> Optional[list]:
        if len(b) != self.n_eqs:
            raise ValueError("right-hand side has wrong length")
        residual = list(map(int, b))
        y = {}
        for i, lead in self._pivots:
            piv = self._h[i][lead]
            val = residual[lead]
            if val % piv:
                return None
            t = val // piv
            if t:
                y[i] = t
                row = self._h[i]
                for j in range(lead, self.n_eqs):
                    if row[j]:
                        residual[j] -= t * row[j]
        if any(residual):
            return None
        x = [0] * self.n_vars
        for i, t in y.items():
            row = self._u[i]
            for j in range(self.n_vars):
                if row[j]:
                    x[j] += t * row[j]
        return x


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[list]:
    """One-shot integer solve of a * x = b; None when unsolvable over Z."""
    return IntSolver(a).solve(b)


def _ext_gcd(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, g > 0 for nonzero input."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _Echelon:
    """Shared shell of the two sparse echelons below: rows are {column:
    coeff} dicts, one stored row per pivot column with a positive leading
    entry, so the rank is the number of pivots.

    A row is copied once on entry and then reduced in place: pivot rows are
    subtracted into that one working dict, and a heap of its columns yields
    the next leading column.  Neither the caller's row nor any dict already
    stored in `pivots` is ever mutated, so rows read out of `pivots` stay
    valid.  That is also what makes copy() cheap: it copies the `pivots`
    mapping but shares the stored rows, and inserting into either echelon
    later leaves the other one's pivots and rank as they were.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def copy(self):
        """An independent echelon with the same stored rows."""
        new = type(self)()
        new.pivots = dict(self.pivots)
        return new

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _sparse(row) -> dict:
        if isinstance(row, dict):
            return {int(c): int(x) for c, x in row.items() if x}
        return {c: int(x) for c, x in enumerate(row) if x}


class RowLattice(_Echelon):
    """Incremental echelon basis of the Z-lattice spanned by inserted rows.

    Use it where the lattice itself is the answer: saturated kernels
    (sparse_kernel_basis), member bases, and exact integer membership by
    leading-term reduction (contains).  A caller that reads only the rank
    or the pivot columns wants RowSpan, which answers the same over Q.

    Keeping an exact Z-basis takes gcd pivoting: when the pivot does not
    divide the entry below it, the pivot row is replaced by an extended-gcd
    combination (a new dict; stored rows are never edited) and the
    remainder row is reduced again.  These combinations compound; see the
    module docstring for a case where the entries pass 500,000 bits.
    """

    __slots__ = ()

    def insert(self, row) -> bool:
        """Add a row to the lattice; True when the rank grew."""
        pivots = self.pivots
        before = len(pivots)
        stack = [self._sparse(row)]
        while stack:
            r = stack.pop()
            heap = list(r)
            heapify(heap)
            while heap:
                c = heappop(heap)
                b = r.get(c)
                if b is None:
                    continue  # stale entry: the column was cancelled
                piv = pivots.get(c)
                if piv is None:
                    pivots[c] = {k: -v for k, v in r.items()} if b < 0 else dict(r)
                    break
                a = piv[c]
                if b % a == 0:
                    _sub_into(r, b // a, piv, heap)
                else:
                    g, s, t = _ext_gcd(a, b)
                    new = _row_comb(s, piv, t, r)
                    rem = dict(piv)
                    _sub_into(rem, a // g, new, [])
                    _sub_into(r, b // g, new, heap)
                    pivots[c] = new
                    if rem:
                        stack.append(rem)
        return len(pivots) > before

    def contains(self, row) -> bool:
        """Exact membership of the row in the current lattice."""
        r = self._sparse(row)
        heap = list(r)
        heapify(heap)
        while heap:
            c = heappop(heap)
            b = r.get(c)
            if b is None:
                continue
            piv = self.pivots.get(c)
            if piv is None or b % piv[c]:
                return False
            _sub_into(r, b // piv[c], piv, heap)
        return True


class RowSpan(_Echelon):
    """Incremental echelon of the rational span of inserted rows.

    For callers that read only the rank or the pivot columns (the
    extended box ranks' ideal lattices, the flag probe's in-box pivot
    count): the rank of a Z-lattice is the rank of its rational span, and
    the pivot columns of any echelon of it are the same, so these answers
    equal RowLattice's.

    When the pivot a does not divide the entry b, the working row is
    scaled by a/gcd(a, b) and the pivot row subtracted; nothing is
    replaced and no remainder row arises.  A row that becomes a pivot is
    stored as its primitive part (content divided out, leading entry
    positive); a row of content 1 is stored as it is, as RowLattice
    stores it.
    """

    __slots__ = ()

    def insert(self, row) -> bool:
        """Add a row to the span; True when the rank grew."""
        pivots = self.pivots
        r = self._sparse(row)
        heap = list(r)
        heapify(heap)
        while heap:
            c = heappop(heap)
            b = r.get(c)
            if b is None:
                continue  # stale entry: the column was cancelled
            piv = pivots.get(c)
            if piv is None:
                g = gcd(*r.values())
                if b < 0:
                    g = -g
                if g == 1:
                    pivots[c] = dict(r)
                else:
                    pivots[c] = {k: v // g for k, v in r.items()}
                return True
            a = piv[c]
            if b % a:
                g = gcd(a, b)
                s = a // g
                for k in r:
                    r[k] *= s
                f = b // g
            else:
                f = b // a
            _sub_into(r, f, piv, heap)
        return False


def _sub_into(r: dict, f: int, p: dict, heap: list) -> None:
    """r -= f*p in place (f nonzero); columns that fill in go on the heap."""
    for c, x in p.items():
        v = r.get(c)
        if v is None:
            r[c] = -f * x
            heappush(heap, c)
        else:
            v -= f * x
            if v:
                r[c] = v
            else:
                del r[c]


def _row_comb(s: int, p: dict, t: int, r: dict) -> dict:
    """s*p + t*r for sparse rows."""
    out = {}
    for c, x in p.items():
        v = s * x
        if v:
            out[c] = v
    for c, x in r.items():
        v = out.get(c, 0) + t * x
        if v:
            out[c] = v
        else:
            out.pop(c, None)
    return out


def sparse_kernel_basis(n_cols: int, rows) -> list:
    """Saturated kernel of a sparse system, for systems with many columns.

    `rows` is an iterable of sparse {column: coeff} constraint rows over
    n_cols variables.  Returns an echelon list of sparse kernel vectors
    spanning the full integer kernel lattice, built by tracking coordinates
    through a RowLattice whose leading block holds the constraint values.  The rows are read once and
    held by columns, each column dropped as it goes into the lattice.
    """
    columns = {}
    n_rows = 0
    for row in rows:
        for c, x in RowLattice._sparse(row).items():
            columns.setdefault(c, {})[n_rows] = x
        n_rows += 1
    lat = RowLattice()
    for i in range(n_cols):
        vec = columns.pop(i, {})
        vec[n_rows + i] = 1
        lat.insert(vec)
    out = []
    for c in sorted(lat.pivots):
        if c >= n_rows:
            row = lat.pivots[c]
            out.append({k - n_rows: v for k, v in row.items()})
    return out
