"""Independent characterizations the library is tested against."""

import itertools
from array import array
from fractions import Fraction
from typing import Sequence

from kfan.fan import Cone, Fan, walls
from kfan.intlat import IntMatrix, RowSpan, _add_row, _swap_rows, hermite_normal_form
from kfan.kring import MemberSpace, RankReport, _wall_rows, box_stabilize, member_space
from kfan.laurent import box_index, box_points


# --- dense linear algebra: the library reads cone_frames and RowSpan instead --


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of the span of the given integer row vectors (exact)."""
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return 0
    cols = len(a[0])
    rank = 0
    for col in range(cols):
        while True:
            live = [i for i in range(rank, len(a)) if a[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(a[i][col]))
            if best != rank:
                _swap_rows(a, rank, best)
            clean = True
            for i in range(rank + 1, len(a)):
                if a[i][col]:
                    q = a[i][col] // a[rank][col]
                    _add_row(a, i, rank, -q)
                    if a[i][col]:
                        clean = False
            if clean:
                break
        if rank < len(a) and a[rank][col] != 0:
            rank += 1
            if rank == len(a):
                break
    return rank


def rank(m: IntMatrix) -> int:
    return rank_of_rows(m.data)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel {x : m * x = 0}, as columns."""
    h, u = hermite_normal_form(m.transpose())
    zero_rows = [i for i in range(h.rows) if not any(h.data[i])]
    return IntMatrix.from_columns([u.data[i] for i in zero_rows], rows=m.cols)


def leibniz_det(m: IntMatrix) -> int:
    """Determinant as the signed sum over permutations."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m.data[i][perm[i]]
        total += sign * term
    return total


def solve_rational(a: IntMatrix, b: Sequence[int]) -> list:
    """Exact solution of a square nonsingular system over the rationals."""
    n = a.rows
    if a.cols != n or len(b) != n:
        raise ValueError("solve_rational expects a square system")
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a.data, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


# --- fan and ring oracles ------------------------------------------------------


def distinguished_face_bruteforce(f: Fan, cone_index: int, v: Sequence) -> Cone:
    """Oracle for cellular.distinguished_face: the inclusion-wise minimal
    face tau of sigma with v in span(tau) + sigma.

    Enumerates every face and solves the membership exactly; asserts the
    minimal face is unique.
    """
    cone = f.max_cones[cone_index]
    n = len(cone.ray_indices)
    # rays are a rational basis, so membership in span(tau) + sigma reduces
    # to the unique expansion having nonnegative coefficients off tau
    coords = solve_rational(f.ray_matrix(cone), [Fraction(x) for x in v])
    hits = []
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if all(coords[j] >= 0 for j in range(n) if j not in subset):
                hits.append(frozenset(subset))
    minimal = [h for h in hits if not any(o < h for o in hits)]
    assert len(minimal) == 1, "minimal face is not unique"
    return Cone(tuple(cone.ray_indices[j] for j in sorted(minimal[0])))


def member_dim(fan: Fan, radius: int) -> int:
    """member_space(fan, radius).dim without building the basis.

    The kernel's dimension is the number of box positions minus the rank
    of the wall-congruence rows, and that rank needs only an echelon of
    the rows, while the kernel tracks one coordinate column per position
    (for P1xP1xP1 at radius 3: 588 rows against 2,744 columns)."""
    exps = box_points(fan.rank, radius)
    wall_chars = ((w.left, w.right, w.character) for w in walls(fan))
    lat = RowSpan()
    for row in _wall_rows(wall_chars, exps):
        lat.insert(row)
    return len(exps) * len(fan.max_cones) - lat.rank


def augmentation_ideal_rank(fan: Fan, radius: int, inner: MemberSpace) -> int:
    """Rank of the span of (e^u - 1) * b for b in the inner member basis
    and u running over the radius-1 box, inside the radius box.

    Only the rows the keep rule below allows are built.  Let r be the
    inner radius and F(b) the faces b touches: (i, s) is in F(b) when some
    exponent in b's support has coordinate i equal to s*r (at r = 0 both
    signs, for every i).  The row for (u, b) is kept when
      - u = +e_i: always;
      - u = -e_i: iff (i, -1) is in F(b);
      - u has two or more nonzero coordinates: iff (i, sign u_i) is in F(b)
        for every i with u_i != 0.
    The span is unchanged.  Members are closed under multiplication by a
    character, so when (i, s) is not in F(b), e^(s*e_i) * b is a member in
    the inner box and lies in the span of the inner basis.  Then
      (e^-e_i - 1) * b = -(e^e_i - 1) * (e^-e_i * b)
    puts a dropped single-coordinate row in the span of kept +e_i rows.  A
    dropped row with two or more nonzero coordinates has an i with
    (i, sign u_i) not in F(b); with v = u_i * e_i,
      (e^u - 1) * b = (e^(u-v) - 1) * (e^v * b) + (e^v - 1) * b
    writes it through rows whose shifts have fewer nonzero coordinates, so
    induction on that number finishes the proof.  (r = 0 puts every face in
    F(b), as the exponent 0 is both +r and -r.)

    Only the rank is needed, so the products go in sparsest first (ties in
    shift order, then basis order), with column k of the outer box mapped
    to column n_cols - 1 - k so the last column leads.  A first pass drops
    the rows the rule rejects, builds each kept product once and files its
    index under its length, in a C array; the second pass rebuilds the
    products length by length.  So neither the products nor one Python int
    per product are ever held at once.
    """
    block = (2 * radius + 1) ** fan.rank
    last = block * len(fan.max_cones) - 1
    n_basis = len(inner.basis)
    r = inner.radius

    def columns(u) -> array:
        # outer column (last one first) of each inner position times e^u
        out = array("I")
        for pos in range(inner.block * len(fan.max_cones)):
            cone, k = divmod(pos, inner.block)
            target = tuple(a + d for a, d in zip(inner.exps[k], u))
            out.append(last - (cone * block + box_index(target, radius)))
        return out

    # faces as bits: 2i for (i, +1), 2i + 1 for (i, -1)
    def faces(exp) -> int:
        return sum((x == r) << 2 * i | (x == -r) << 2 * i + 1
                   for i, x in enumerate(exp))

    def needs(u) -> int:
        # the faces b must touch for the row (u, b) to be kept
        bits = [1 << 2 * i + (x < 0) for i, x in enumerate(u) if x]
        return 0 if len(bits) == 1 and max(u) == 1 else sum(bits)

    exp_faces = [faces(e) for e in inner.exps]
    touched = [0] * n_basis
    for j, b in enumerate(inner.basis):
        for pos in b:
            touched[j] |= exp_faces[pos % inner.block]

    shifts = [u for u in box_points(fan.rank, 1) if any(u)]
    need = [needs(u) for u in shifts]
    origin = columns((0,) * fan.rank)
    shifted = [columns(u) for u in shifts]

    def product(k: int) -> dict:
        to = shifted[k // n_basis]
        vec = {}
        for pos, x in inner.basis[k % n_basis].items():
            for key, y in ((to[pos], x), (origin[pos], -x)):
                v = vec.get(key, 0) + y
                if v:
                    vec[key] = v
                else:
                    vec.pop(key, None)
        return vec

    by_length = {}
    for s, want in enumerate(need):
        for j in range(n_basis):
            if touched[j] & want == want:
                k = s * n_basis + j
                by_length.setdefault(len(product(k)), array("I")).append(k)
    lat = RowSpan()
    for length in sorted(by_length):
        for k in by_length[length]:
            lat.insert(product(k))
    return lat.rank


def ordinary_box_rank(fan: Fan, max_radius: int = 5) -> RankReport:
    """The box estimate of the ordinary K-ring rank, kept as an oracle.

    At box radius d the estimate is dim(members at d) minus the rank of
    (augmentation ideal) * (members at d-1) pushed into the d-box, stopped
    by box_stabilize.

    Step d builds one member basis, at radius d-1, because the ideal reads
    its vectors; the dimension at d comes from member_dim, which builds no
    basis.  box_stabilize draws the steps lazily, so the basis at the top
    radius, the largest and costliest kernel, is never built.

    The estimate is not monotone in d: two successive radii can agree on a
    value above the rank (F3 and the 12-ray polygon stabilize at 11 and 17).
    """

    def step(d: int) -> tuple:
        dim = member_dim(fan, d)
        ideal_rank = augmentation_ideal_rank(fan, d, member_space(fan, d - 1))
        return d, dim, ideal_rank, dim - ideal_rank

    return box_stabilize(step, max_radius)
