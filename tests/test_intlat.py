"""Tests for exact integer linear algebra.

Frozen expected values were derived by hand row reduction; property tests
use seeded randomness so failures reproduce.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from kfan.intlat import (
    IntMatrix,
    IntSolver,
    adjugate,
    det,
    hermite_normal_form,
    invariant_factors,
    primitive,
    quotient_lattice,
    smith_normal_form,
    solve_integer,
    sparse_kernel_basis,
    RowLattice,
    RowSpan,
)
from oracles import kernel_basis, leibniz_det, rank, rank_of_rows, solve_rational


def random_matrix(rng, rows, cols, bound=5):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def is_echelon(h: IntMatrix) -> bool:
    last = -1
    seen_zero_row = False
    for row in h.data:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            seen_zero_row = True
            continue
        if seen_zero_row or lead <= last:
            return False
        if row[lead] <= 0:
            return False
        last = lead
    return True


def test_hnf_hand_example():
    m = IntMatrix([[2, 4], [0, 3]])
    h, u = hermite_normal_form(m)
    assert h.data == [[2, 1], [0, 3]]
    assert u.mul(m).data == h.data
    assert abs(det(u)) == 1


def test_hnf_properties_random():
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        h, u = hermite_normal_form(m)
        assert u.mul(m).data == h.data
        if rows:
            assert abs(det(u)) == 1
        assert is_echelon(h)
        # Entries above each pivot are reduced into [0, pivot).
        for i, row in enumerate(h.data):
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            for k in range(i):
                assert 0 <= h.data[k][lead] < row[lead]


def test_snf_hand_examples():
    d, p, q = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert [d.data[0][0], d.data[1][1]] == [1, 6]
    assert p.mul(IntMatrix([[2, 0], [0, 3]])).mul(q).data == d.data

    d2, _, _ = smith_normal_form(IntMatrix([[2, 0], [0, 2]]))
    assert [d2.data[0][0], d2.data[1][1]] == [2, 2]


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d, p, q = smith_normal_form(m)
        assert p.mul(m).mul(q).data == d.data
        assert abs(det(p)) == 1
        assert abs(det(q)) == 1
        diag = [d.data[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.data[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_kernel_hand_example():
    m = IntMatrix([[1, 2]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert m.mul(k).data == [[0]]
    assert sorted(abs(x) for x in k.column(0)) == [1, 2]


def test_kernel_properties_random():
    rng = random.Random(37)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        k = kernel_basis(m)
        assert k.cols == cols - rank(m)
        if k.cols:
            prod = m.mul(k)
            assert all(all(x == 0 for x in row) for row in prod.data)
            # Saturated: the kernel basis extends to a basis of the ambient
            # lattice, so its invariant factors are all 1.
            assert invariant_factors(k) == [1] * k.cols


def test_quotient_lattice_example():
    q = quotient_lattice(2, IntMatrix.from_columns([(1, 2)]))
    assert q.rank == 1
    assert q.project_vec((1, 2)) == (0,)
    assert q.project.mul(q.section).data == [[1]]


def test_quotient_lattice_saturates():
    # Quotient by span{(2, 4)} equals quotient by its saturation span{(1, 2)}.
    q = quotient_lattice(2, IntMatrix.from_columns([(2, 4)]))
    assert q.rank == 1
    assert q.project_vec((1, 2)) == (0,)


def test_quotient_lattice_rejects_dependent_columns():
    with pytest.raises(ValueError):
        quotient_lattice(2, IntMatrix.from_columns([(1, 2), (2, 4)]))


def test_quotient_lattice_properties_random():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        cols = []
        for _ in range(k):
            cols.append([rng.randint(-4, 4) for _ in range(n)])
        sub = IntMatrix.from_columns(cols, rows=n)
        if k and rank(sub) < k:
            with pytest.raises(ValueError):
                quotient_lattice(n, sub)
            continue
        q = quotient_lattice(n, sub)
        assert q.rank == n - k
        assert q.project.mul(q.section).data == IntMatrix.identity(n - k).data
        if k:
            proj_sub = q.project.mul(sub)
            assert all(all(x == 0 for x in row) for row in proj_sub.data)


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-2, -4)) == (-1, -2)
    assert primitive((0, 3, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_det_examples():
    assert det(IntMatrix([[2, 0], [0, 3]])) == 6
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0


def test_det_matches_definition_random():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, bound=4)
        assert det(m) == leibniz_det(m)


def test_adjugate_examples():
    assert adjugate(IntMatrix([[2, 1], [1, 1]])) == (1, IntMatrix([[1, -1], [-1, 2]]))
    # a zero pivot forces a row swap; adj(P) = det(P) * P^-1 = -P
    assert adjugate(IntMatrix([[0, 1], [1, 0]])) == (-1, IntMatrix([[0, -1], [-1, 0]]))
    assert adjugate(IntMatrix([[1, 2], [2, 4]])) == (0, None)
    assert adjugate(IntMatrix([])) == (1, IntMatrix([]))
    with pytest.raises(ValueError):
        adjugate(IntMatrix([[1, 2]]))


def test_adjugate_matches_det_and_inverse_random():
    # m * adj = det * I, det is the Leibniz sum, and adj / det is the
    # Fraction Gauss-Jordan inverse; a quarter of the matrices are made
    # singular by a dependent last row
    rng = random.Random(1968)
    singular = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        bound = rng.choice((2, 5, 1000))
        m = random_matrix(rng, n, n, bound=bound)
        if n > 1 and rng.random() < 0.25:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m = IntMatrix(m.data[:-1] + [[a * x + b * y for x, y in zip(m.data[0], m.data[1])]])
        d, adj = adjugate(m)
        assert d == leibniz_det(m)
        assert det(m) == d
        if d == 0:
            singular += 1
            assert adj is None
            with pytest.raises(ValueError):
                solve_rational(m, [1] + [0] * (n - 1))
            continue
        assert m.mul(adj) == IntMatrix([[d * (i == j) for j in range(n)] for i in range(n)])
        for j in range(n):
            col = solve_rational(m, [int(i == j) for i in range(n)])
            assert [adj.data[i][j] for i in range(n)] == [d * x for x in col]
    assert singular > 150


def test_solve_rational():
    x = solve_rational(IntMatrix([[1, 0], [0, 2]]), [1, 1])
    assert [str(v) for v in x] == ["1", "1/2"]
    with pytest.raises(ValueError):
        solve_rational(IntMatrix([[1, 2], [2, 4]]), [1, 1])


def test_solve_integer_roundtrip_random():
    rng = random.Random(67)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, bound=4)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = a.mul_vec(x)
        got = solve_integer(a, b)
        assert got is not None
        assert a.mul_vec(got) == b


def test_solve_integer_unsolvable():
    assert solve_integer(IntMatrix([[2]]), [1]) is None
    assert solve_integer(IntMatrix([[1, 0], [0, 2]]), [1, 1]) is None
    assert solve_integer(IntMatrix([[1], [1]]), [1, 2]) is None


def test_int_solver_reuse():
    a = IntMatrix([[1, 2, 0], [0, 2, 2]])
    solver = IntSolver(a)
    rng = random.Random(71)
    for _ in range(50):
        x = [rng.randint(-6, 6) for _ in range(3)]
        b = a.mul_vec(x)
        got = solver.solve(b)
        assert got is not None and a.mul_vec(got) == b


def test_row_lattice_rank_matches_dense():
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        lat, span = RowLattice(), RowSpan()
        for row in m.data:
            lat.insert(row)
            span.insert(row)
        assert lat.rank == span.rank == rank_of_rows(m.data)
        # a Q-echelon of the same span pivots on the same columns
        assert sorted(span.pivots) == sorted(lat.pivots)
        for c, row in span.pivots.items():
            assert row[c] > 0 and gcd(*row.values()) == 1


def test_row_span_copy_is_independent():
    rng = random.Random(9)
    span = RowSpan()
    for _ in range(8):
        span.insert(_random_sparse_row(rng, 12, big=True))
    frozen = {c: dict(p) for c, p in span.pivots.items()}
    rank = span.rank
    twin = span.copy()
    assert type(twin) is RowSpan
    for _ in range(20):
        twin.insert(_random_sparse_row(rng, 16, big=True))
    assert twin.rank > rank
    assert span.rank == rank and span.pivots == frozen


def test_row_lattice_membership():
    lat = RowLattice()
    lat.insert([2, 0, 1])
    lat.insert([0, 3, 1])
    assert lat.contains([2, 3, 2])
    assert lat.contains([4, -3, 1])
    assert lat.contains([0, 0, 0])
    assert not lat.contains([1, 0, 0])
    assert not lat.contains([2, 3, 1])


def test_row_lattice_membership_random():
    rng = random.Random(32)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(2, 6)
        m = random_matrix(rng, rows, cols)
        lat = RowLattice()
        for row in m.data:
            lat.insert(row)
        combo = [0] * cols
        for row in m.data:
            f = rng.randint(-3, 3)
            combo = [c + f * x for c, x in zip(combo, row)]
        assert lat.contains(combo)
        # inserting a member must never grow the rank
        r = lat.rank
        lat.insert(combo)
        assert lat.rank == r


def test_sparse_kernel_matches_dense():
    rng = random.Random(33)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols)
        dense = kernel_basis(m)
        sparse = sparse_kernel_basis(cols, [dict(enumerate(r)) for r in m.data])
        assert len(sparse) == dense.cols
        a = RowLattice()
        for j in range(dense.cols):
            a.insert(dense.column(j))
        b = RowLattice()
        for vec in sparse:
            b.insert(vec)
            full = [0] * cols
            for c, x in vec.items():
                full[c] = x
            assert all(sum(row[j] * full[j] for j in range(cols)) == 0 for row in m.data)
            assert a.contains(full)
        assert a.rank == b.rank
        for j in range(dense.cols):
            assert b.contains(dense.column(j))


# --- oracle: the copy-per-step RowLattice elimination, frozen -----------------
#
# The library reduces rows in place; this is the earlier formulation that
# builds a new dict for every row operation.  Both must give the same
# pivots, entry for entry and in the same key order.


def _oracle_row_sub(r: dict, f: int, p: dict) -> dict:
    if not f:
        return dict(r)
    out = dict(r)
    for c, x in p.items():
        v = out.get(c, 0) - f * x
        if v:
            out[c] = v
        else:
            out.pop(c, None)
    return out


def _oracle_row_comb(s: int, p: dict, t: int, r: dict) -> dict:
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


def _oracle_ext_gcd(a: int, b: int) -> tuple:
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


class OracleRowLattice:
    def __init__(self):
        self.pivots = {}
        self.gcd_steps = 0

    def insert(self, row) -> bool:
        before = len(self.pivots)
        stack = [RowLattice._sparse(row)]
        while stack:
            r = stack.pop()
            while r:
                c = min(r)
                piv = self.pivots.get(c)
                if piv is None:
                    if r[c] < 0:
                        r = {k: -v for k, v in r.items()}
                    self.pivots[c] = r
                    r = None
                    break
                a, b = piv[c], r[c]
                if b % a == 0:
                    r = _oracle_row_sub(r, b // a, piv)
                else:
                    self.gcd_steps += 1
                    g, s, t = _oracle_ext_gcd(a, b)
                    new = _oracle_row_comb(s, piv, t, r)
                    rem = _oracle_row_sub(piv, a // g, new)
                    r = _oracle_row_sub(r, b // g, new)
                    self.pivots[c] = new
                    if rem:
                        stack.append(rem)
        return len(self.pivots) > before

    def contains(self, row) -> bool:
        r = RowLattice._sparse(row)
        while r:
            c = min(r)
            piv = self.pivots.get(c)
            if piv is None or r[c] % piv[c]:
                return False
            r = _oracle_row_sub(r, r[c] // piv[c], piv)
        return True


def _oracle_kernel(n_cols: int, rows) -> list:
    rows = [RowLattice._sparse(r) for r in rows]
    n_rows = len(rows)
    lat = OracleRowLattice()
    for i in range(n_cols):
        vec = {j: row[i] for j, row in enumerate(rows) if row.get(i, 0)}
        vec[n_rows + i] = 1
        lat.insert(vec)
    return [{k - n_rows: v for k, v in lat.pivots[c].items()}
            for c in sorted(lat.pivots) if c >= n_rows]


def _layout(pivots: dict) -> list:
    """Pivots with their key order, so dict order differences show."""
    return [(c, list(p.items())) for c, p in pivots.items()]


def _random_sparse_row(rng, n_cols: int, big: bool) -> dict:
    row = {}
    for c in rng.sample(range(n_cols), rng.randint(1, min(6, n_cols))):
        if big and rng.random() < 0.4:
            x = rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70)
        else:
            x = rng.choice((-7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7))
        row[c] = x
    return row


@pytest.mark.parametrize("big", [False, True], ids=["small", "above-2**64"])
def test_row_lattice_matches_oracle(big):
    rng = random.Random(41 if big else 40)
    gcd_steps = 0
    for _ in range(60):
        n_cols = rng.randint(2, 12)
        lat, oracle = RowLattice(), OracleRowLattice()
        for _ in range(rng.randint(1, 3 * n_cols)):
            row = _random_sparse_row(rng, n_cols, big)
            assert lat.insert(row) == oracle.insert(row)
            assert _layout(lat.pivots) == _layout(oracle.pivots)
        for _ in range(10):
            probe = _random_sparse_row(rng, n_cols, big)
            assert lat.contains(probe) == oracle.contains(probe)
            member = {}
            for p in oracle.pivots.values():
                f = rng.randint(-3, 3)
                for c, x in p.items():
                    member[c] = member.get(c, 0) + f * x
            assert lat.contains(member) and oracle.contains(member)
        gcd_steps += oracle.gcd_steps
    assert gcd_steps > 100  # the gcd branch is exercised, not just exact steps


def test_row_lattice_never_mutates_rows():
    rng = random.Random(42)
    lat = RowLattice()
    handed_out = []
    for _ in range(200):
        row = _random_sparse_row(rng, 10, big=False)
        frozen = dict(row)
        lat.insert(row)
        assert row == frozen and list(row) == list(frozen)
        lat.contains(row)
        assert row == frozen
        for p in lat.pivots.values():
            assert p is not row
        handed_out.extend((p, list(p.items())) for p in lat.pivots.values())
        for p, items in handed_out:
            assert list(p.items()) == items


def test_row_lattice_copy_is_independent():
    rng = random.Random(8)
    first = [_random_sparse_row(rng, 10, big=False) for _ in range(12)]
    later = [_random_sparse_row(rng, 14, big=True) for _ in range(40)]
    lat = RowLattice()
    for row in first:
        lat.insert(row)
    frozen = {c: dict(p) for c, p in lat.pivots.items()}
    rank = lat.rank
    twin = lat.copy()
    for row in later:
        twin.insert(row)
    assert twin.rank > rank
    assert lat.rank == rank and lat.pivots == frozen
    # the copy echelons exactly as one lattice fed every row in order would
    fresh = RowLattice()
    for row in first + later:
        fresh.insert(row)
    assert twin.pivots == fresh.pivots
    # and inserting into the original leaves the copy alone
    lat.insert({13: 1})
    assert lat.rank == rank + 1 and twin.pivots == fresh.pivots


def _member_rows(fan, radius: int) -> tuple:
    """The wall-congruence system of the box-truncated member space."""
    from kfan.fan import walls
    from kfan.laurent import box_points, coset_rep

    exps = box_points(fan.rank, radius)
    block = len(exps)
    rows = []
    for w in walls(fan):
        classes = {}
        for k, e in enumerate(exps):
            classes.setdefault(coset_rep(e, w.character), []).append(k)
        for members in classes.values():
            row = {}
            for k in members:
                row[w.left * block + k] = 1
                row[w.right * block + k] = -1
            rows.append(row)
    return block * len(fan.max_cones), rows


def test_sparse_kernel_matches_oracle_on_p3_member_system():
    from kfan.fan import Fan

    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    p3 = Fan(rank=3, rays=rays, max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    n_cols, rows = _member_rows(p3, 2)
    got = sparse_kernel_basis(n_cols, rows)
    want = _oracle_kernel(n_cols, rows)
    assert len(got) == len(want) > 0
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
