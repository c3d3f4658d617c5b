import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import exactla
from pqgeom.algebra import IMAGINARY_UNITS, UNITS, SplitQuaternion
from pqgeom.linalg import (PQMatrix, PQVector, apply_metric, metric_matrix,
                           module_scalar_product, random_integers,
                           right_mult_matrix,
                           sp_group_membership, unit_action, unit_frame)
from pqgeom.projspace import (CompletionFailureError, DegenerateOrbitError,
                              NullLineError, Quotient, SpherePoint,
                              TangentLineError, _stack, _transitive_columns,
                              base_point, induced_geometry, quotient_frame,
                              random_sphere_point, random_unit_quaternion,
                              sphere_point_through, sphere_quotient,
                              transitive_element)
from pqgeom.reduction import (admissible_directions, reduced_jacobi,
                              weighted_level_sample,
                              weighted_level_sample_float)

from test_linalg import (random_pq_vector, ref_module_scalar_product,
                         ref_random_quaternion, ref_right_mul, ref_solve,
                         right_mul)


def hermitian_pairing(u, v) -> SplitQuaternion:
    """Quaternion-valued pairing s(u, v) = sum conj(u_i) v_i of two
    sequences of SplitQuaternions; its real part is the neutral scalar
    product."""
    total = SplitQuaternion()
    for a, b in zip(u, v):
        total = total + a.conj() * b
    return total


def horizontal_integers(C, L, V):
    """L^2 times the horizontal part of V at the sphere point x = C / L,
    for integer arrays C and V: an integer array.  On the unit sphere the
    frame (x, x i, x j, x k) has the Gram matrix diag(1, 1, -1, -1), so the
    coefficients are a sign flip of its pairings with V."""
    frame4 = unit_frame(C)
    return L * L * V - frame4 @ apply_metric(frame4.T @ apply_metric(V))


def horizontal_project(x: SpherePoint, v):
    """Orthogonal projection of an ambient vector (or of the columns of a
    matrix) onto the horizontal space at x (drops the position and fiber
    components), on scaled integers."""
    C, L = x.x.scaled
    V, LV = exactla.scaled_integers(v)
    return exactla.from_scaled_integers(horizontal_integers(C, L, V),
                                        L * L * LV)


def ref_sphere_point_through(base: SpherePoint, direction: PQVector):
    """The Fraction route of sphere_point_through: t = -2 <b, d> / <d, d>
    from scalar products of the entries, then b + t d entry by entry."""
    dd = ref_module_scalar_product(direction, direction)
    if dd == 0:
        raise ValueError("null direction")
    t = Fraction(-2) * ref_module_scalar_product(base.x, direction) / dd
    if t == 0:
        raise ValueError("direction tangent to the sphere at the base")
    return SpherePoint(PQVector(a + b.scale(t) for a, b in
                                zip(base.x.entries, direction.entries)))


def ref_random_sphere_point(rng, rank: int) -> SpherePoint:
    """The Fraction draws random_sphere_point made before it drew
    integers: ref_random_quaternion entries, through the Fraction route."""
    o = base_point(rank)
    while True:
        d = PQVector(ref_random_quaternion(rng, 4) for _ in range(rank))
        try:
            return ref_sphere_point_through(o, d)
        except ValueError:
            continue


def unit_scaling(norm) -> SplitQuaternion:
    """A quaternion q with |q|^2 = 1/norm, for any nonzero rational norm.

    The norm form a^2 + b^2 - c^2 - d^2 represents every rational value:
    with b = c = 0 it factors as (a - d)(a + d)."""
    r = Fraction(1) / Fraction(norm)
    return SplitQuaternion((1 + r) / 2, 0, 0, (r - 1) / 2)


def ref_transitive_element(target: SpherePoint) -> PQMatrix:
    """Modified Gram-Schmidt for the hermitian pairing on split-quaternion
    columns, from the target through the coordinate vectors e_s, then,
    while columns are missing, through the first non-null of the e_s and
    the e_s + e_t q (s < t, q = 1, i, j, k); each residual is rescaled by
    unit_scaling.  The reference for the scaled-integer route of
    transitive_element."""
    rank = target.rank
    cols = [target.x.entries]

    def unit(s):
        return tuple(SplitQuaternion(1 if i == s else 0) for i in range(rank))

    def take(v) -> bool:
        for c in cols:
            s = hermitian_pairing(c, v)
            v = tuple(a - b * s for a, b in zip(v, c))
        r = hermitian_pairing(v, v).a
        if r == 0:
            return False
        scaling = unit_scaling(r)
        cols.append(tuple(a * scaling for a in v))
        return True

    for s in range(rank):
        if len(cols) == rank:
            break
        take(unit(s))
    pool = [unit(s) for s in range(rank)]
    pool += [tuple(a + b * q for a, b in zip(unit(s), unit(t)))
             for s in range(rank) for t in range(s + 1, rank) for q in UNITS]
    while len(cols) < rank:
        if not any(take(v) for v in pool):
            raise CompletionFailureError("candidate pool exhausted")
    return PQMatrix([[cols[c][r] for c in range(rank)]
                     for r in range(rank)])


def ref_transitive_columns(target: SpherePoint) -> list[tuple]:
    """The per-point route of _transitive_columns: the same fraction-free
    Gram-Schmidt on one target, a Python loop over its columns, each
    column (F, L) with F = [C, C i, C j, C k].  The reference for the
    stacked route, which runs the points of a stack together."""
    rank = target.rank
    cols = []

    def append(C, L):
        cols.append((unit_frame(C), L))

    def take(W) -> bool:
        den = math.lcm(*(L * L for _, L in cols))
        V = den * W
        for F, L in cols:
            V -= (den // (L * L)) * (F @ apply_metric(F.T @ apply_metric(W)))
        N = V @ apply_metric(V)
        if N == 0:
            return False
        C = ((N + den * den) * V
             - (den * den - N) * unit_action(V, 2))
        g = math.gcd(*C, 2 * den * N) * (1 if N > 0 else -1)
        append(C // g, 2 * den * N // g)
        return True

    append(*target.x.scaled)
    e = np.eye(4 * rank, dtype=object)
    for s in range(rank):
        if len(cols) == rank:
            break
        take(e[4 * s])
    pool = [e[4 * s] for s in range(rank)]
    pool += [e[4 * s] + e[4 * t + m] for s in range(rank)
             for t in range(s + 1, rank) for m in range(4)]
    while len(cols) < rank:
        if not any(take(W) for W in pool):
            raise CompletionFailureError("candidate pool exhausted")
    return cols


# targets with two entries of square norm 1: after the first column the
# candidates e_s have square norm 1 - |x_s|^2, so the e_s alone can run out
UNIT_ENTRY_TARGETS = [
    SpherePoint(PQVector([SplitQuaternion(*c) for c in coeffs]))
    for coeffs in [((1,), (1,), (0, 0, 1)), ((1,), (0, 0, 1), (1,)),
                   ((0, 0, 1), (1,), (1,))]]


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(PQVector([SplitQuaternion(2), SplitQuaternion()]))
    x = base_point(2)
    assert module_scalar_product(x.x, x.x) == 1
    # the check is exact, and a float lift cannot be formed at all
    with pytest.raises(TypeError, match="exact arithmetic"):
        SpherePoint(PQVector([SplitQuaternion(1.0 + 1e-12),
                              SplitQuaternion(0.0)]))


def test_reprs_are_exact():
    # the reprs print every coefficient exactly, through the text format
    # of the entries
    h = SplitQuaternion(1, Fraction(-1, 2), 0, 3)
    assert repr(h) == "SplitQuaternion(1, Fraction(-1, 2), 0, 3)"
    v = PQVector([h, SplitQuaternion(0, 0, 1, 0)])
    assert repr(v) == "PQVector(1 - 1/2 i + 0 j + 3 k, 0 + 0 i + 1 j + 0 k)"
    m = PQMatrix([[h, SplitQuaternion(2)],
                  [SplitQuaternion(), SplitQuaternion(0, 0, 0, -1)]])
    assert repr(m) == ("PQMatrix([1 - 1/2 i + 0 j + 3 k, "
                       "2 + 0 i + 0 j + 0 k], "
                       "[0 + 0 i + 0 j + 0 k, 0 + 0 i + 0 j - 1 k])")
    assert repr(base_point(2)) == ("SpherePoint(PQVector(1 + 0 i + 0 j + 0 k, "
                                   "0 + 0 i + 0 j + 0 k))")


def test_random_sphere_points_exact():
    rng = random.Random(0)
    for _ in range(20):
        x = random_sphere_point(rng, 3)
        assert module_scalar_product(x.x, x.x) == 1


@pytest.mark.parametrize("seed", range(10))
def test_sphere_points_match_fraction_route(seed):
    # the same points from the same rng calls, held as the least common
    # denominator pair of their coordinates
    for rank in (1, 2, 3, 4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_sphere_point(rng, rank)
        want = ref_random_sphere_point(ref_rng, rank)
        assert got.x == want.x and got.x.entries == want.x.entries
        C, L = exactla.scaled_integers(want.x.to_real())
        assert (got.x.scaled[0] == C).all() and got.x.scaled[1] == L
        assert rng.getstate() == ref_rng.getstate()
    # through other base points, and the two refusals
    rng = random.Random(100 + seed)
    base = random_sphere_point(rng, 3)
    for d in [random_pq_vector(rng, 3) for _ in range(5)] + [
            PQVector([SplitQuaternion(0, 0, 1, 1), SplitQuaternion(),
                      SplitQuaternion()]),
            PQVector([SplitQuaternion(0, 1), SplitQuaternion(),
                      SplitQuaternion()])]:
        try:
            want = ref_sphere_point_through(base, d)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                sphere_point_through(base, d)
        else:
            assert sphere_point_through(base, d).x == want.x


class BudgetRandom(random.Random):
    """A generator that raises RuntimeError after `budget` getrandbits
    calls (every draw of random.Random goes through one), so a sampler
    that would redraw forever fails instead of hanging."""

    def __init__(self, seed, budget):
        super().__init__(seed)
        self.budget = budget

    def getrandbits(self, k):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("draw budget exhausted")
        return super().getrandbits(k)


def test_random_sphere_point_redraws_only_null_and_tangent_lines(
        monkeypatch):
    o = base_point(2)
    e = [SplitQuaternion()]
    with pytest.raises(NullLineError):
        sphere_point_through(o, PQVector([SplitQuaternion(1, 0, 1)] + e))
    with pytest.raises(TangentLineError):
        sphere_point_through(o, PQVector([SplitQuaternion(0, 1)] + e))
    # with the reflection sign flipped every point is off the sphere (by
    # 8 <d, d> <o, d>^2): the sampler raises instead of redrawing
    import pqgeom.projspace as proj

    def flipped(base, direction):
        (B, LB), (D, _) = base.x.scaled, direction.scaled
        dd, bd = D @ apply_metric(D), B @ apply_metric(D)
        if dd == 0:
            raise NullLineError("null direction")
        if bd == 0:
            raise TangentLineError("tangent direction")
        return SpherePoint(PQVector.from_scaled_integers(dd * B + 2 * bd * D,
                                                         LB * dd))

    monkeypatch.setattr(proj, "sphere_point_through", flipped)
    with pytest.raises(ValueError, match="not a unit vector"):
        random_sphere_point(BudgetRandom(0, 1000), 3)


def test_unit_scaling_represents_every_rational():
    for r in (Fraction(2), Fraction(-3, 7), Fraction(1, 5), Fraction(-1)):
        q = unit_scaling(r)
        assert q.square_norm() == 1 / r


def test_fiber_translation():
    rng = random.Random(1)
    x = random_sphere_point(rng, 3)
    q = random_unit_quaternion(rng)
    assert q.square_norm() == 1
    y = SpherePoint(right_mul(x.x, q))
    assert module_scalar_product(y.x, y.x) == 1
    with pytest.raises(ValueError, match="not a unit vector"):
        SpherePoint(right_mul(x.x, SplitQuaternion(2)))


def frames(x: SpherePoint):
    """The Fraction views of the fiber frame (x i, x j, x k) and of the
    horizontal frame of induced_geometry at x."""
    _, (N, L, _) = induced_geometry(x)
    return (unit_frame(x.x.to_real())[:, 1:],
            exactla.from_scaled_integers(N, L))


def test_tangent_split_at_base():
    o = base_point(3)
    vertical, horizontal = frames(o)
    want = np.zeros((12, 3))
    want[1, 0] = want[2, 1] = want[3, 2] = 1
    assert np.max(np.abs(np.array(vertical, dtype=float) - want)) == 0
    g = metric_matrix(3)
    assert exactla.max_abs(horizontal.T @ g @ vertical) == 0
    assert exactla.max_abs(horizontal.T @ g
                           @ o.x.to_real().reshape(-1, 1)) == 0
    assert horizontal.shape == (12, 8)


def test_vertical_gram_signature_everywhere():
    rng = random.Random(2)
    g = metric_matrix(3)
    for _ in range(10):
        x = random_sphere_point(rng, 3)
        vertical, _ = frames(x)
        gram = vertical.T @ g @ vertical
        assert exactla.inertia(gram) == (1, 2, 0)
        # on the unit sphere the fiber Gram is exactly diag(1, -1, -1)
        assert exactla.max_abs(
            gram - exactla.fracarray([[1, 0, 0], [0, -1, 0], [0, 0, -1]])) == 0


def test_tangent_split_degenerate_guard():
    # a lift scaled off the sphere: the fiber Gram is scaled by |x|^2 = 1/4,
    # which leaves its inertia unchanged but not its entries
    bad = SpherePoint(PQVector([SplitQuaternion(Fraction(1, 2)),
                                SplitQuaternion(), SplitQuaternion()]),
                      check=False)
    with pytest.raises(DegenerateOrbitError):
        induced_geometry(bad)


@pytest.mark.parametrize("first", [
    SplitQuaternion(2),         # |x|^2 = 4, same inertia as on the sphere
    SplitQuaternion(0, 0, 1),   # j: |x|^2 = -1
    SplitQuaternion(1, 0, 1),   # 1 + j: |x|^2 = 0
])
def test_tangent_split_rejects_exact_off_sphere_lifts(first):
    bad = SpherePoint(PQVector([first, SplitQuaternion(), SplitQuaternion()]),
                      check=False)
    with pytest.raises(DegenerateOrbitError, match="fiber Gram"):
        induced_geometry(bad)


def _float_lift(x: SpherePoint, scale: float = 1.0) -> SpherePoint:
    return SpherePoint(PQVector(
        SplitQuaternion(*(scale * float(c) for c in q.coefficients()))
        for q in x.x.entries), check=False)


def test_tangent_split_float_lifts():
    # a lift is exact: one with float coordinates is refused when it is
    # formed, also one whose fiber Gram rounds to diag(1, -1, -1) exactly
    x = random_sphere_point(random.Random(9), 3)
    for point, scale in ((x, 1.0), (base_point(3), 1.0), (x, 1 + 1e-6)):
        with pytest.raises(TypeError, match="exact arithmetic"):
            _float_lift(point, scale)
    assert induced_geometry(x)[1][0].shape == (12, 8)


@pytest.mark.parametrize("seed", [5, 8, 18])
def test_float_lifts_raise_type_error(seed):
    # the float image of an exact level point is its rounded coordinates,
    # which form no lift; the reduced-Jacobi chain refuses a float
    # direction
    u = weighted_level_sample(random.Random(seed), 1, 2)
    X = admissible_directions(1, 2, u, random.Random(seed), 1)[0]
    coords = weighted_level_sample_float(random.Random(seed), 1, 2)
    assert coords.dtype == float
    assert (coords == np.array(u.x.to_real(), dtype=float)).all()
    for make in (lambda: PQVector(SplitQuaternion(*coords[4 * v:4 * v + 4])
                                  for v in range(3)),
                 lambda: _float_lift(u)):
        with pytest.raises(TypeError, match="exact arithmetic"):
            make()
    with pytest.raises(TypeError, match="exact arithmetic"):
        reduced_jacobi(1, 2, u, np.array(X, dtype=float))


def test_horizontal_spaces_structure_invariant():
    rng = random.Random(3)
    g = metric_matrix(3)
    x = random_sphere_point(rng, 3)
    vertical, frame = frames(x)
    for u in IMAGINARY_UNITS:
        img = np.stack([ref_right_mul(frame[:, c], u.conj())
                        for c in range(frame.shape[1])], axis=1)
        # images stay horizontal: orthogonal to the fiber frame and x
        assert exactla.max_abs(img.T @ g @ vertical) == 0
        assert exactla.max_abs(img.T @ g @ x.x.to_real().reshape(-1, 1)) == 0


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sphere_quotient_is_the_norm_and_the_right_units(rank):
    # the one row is the Hessian g of 1/2 |x|^2, and the generators are
    # x -> x e_a, against the SplitQuaternion products of ref_right_mul
    Q = sphere_quotient(rank)
    x = random_integers(random.Random(rank), (4 * rank,), -9, 9)
    assert (Q.rows == metric_matrix(rank)[None]).all()
    assert len(Q.generators) == 3
    for G, e in zip(Q.generators, IMAGINARY_UNITS):
        assert (G @ x == ref_right_mul(x, e)).all()


def test_quotient_frame_guards():
    C, _ = random_sphere_point(random.Random(6), 3).x.scaled
    sphere = sphere_quotient(3)
    # without the fiber fields, the complement of x is not invariant
    with pytest.raises(DegenerateOrbitError, match="does not preserve"):
        quotient_frame(Quotient(sphere.rows, sphere.generators[:0]), C)
    # a repeated field leaves one dimension too many
    with pytest.raises(DegenerateOrbitError, match="dimension 8, not 7"):
        quotient_frame(Quotient(sphere.rows, np.concatenate(
            [sphere.generators, sphere.generators[:1]])), C)


def test_induced_geometry_at_base():
    o = base_point(3)
    H, _ = induced_geometry(o)
    assert exactla.max_abs(H.g - metric_matrix(2)) == 0
    assert H.comrel_residual() == 0 and H.skew_residual() == 0


def test_induced_geometry_generic():
    rng = random.Random(4)
    for _ in range(4):
        x = random_sphere_point(rng, 3)
        H, _ = induced_geometry(x)
        assert H.comrel_residual() == 0
        assert H.skew_residual() == 0
        assert H.signature() == (4, 4)


def test_lift_independence_of_structure_span():
    from test_forms import in_rotation_group
    rng = random.Random(5)
    x = random_sphere_point(rng, 3)
    q = random_unit_quaternion(rng)
    Hx, (N, L, _) = induced_geometry(x)
    fx = exactla.from_scaled_integers(N, L)
    # transport the frame along the fiber and read the structure there
    fq = np.stack([ref_right_mul(fx[:, c], q) for c in range(fx.shape[1])],
                  axis=1)
    gram = fq.T @ fq
    rows = []
    for e in IMAGINARY_UNITS:
        img = np.stack([ref_right_mul(fq[:, c], e.conj())
                        for c in range(fq.shape[1])], axis=1)
        coords = ref_solve(gram, fq.T @ img)
        assert exactla.max_abs(fq @ coords - img) == 0
        coeffs = Hx.span_coefficients(coords)
        assert coeffs is not None
        rows.append(list(coeffs))
    # the two lifts see the same span, related by an invariant-form rotation
    ok, res = in_rotation_group(exactla.fracarray(rows))
    assert ok and res == 0


def test_horizontal_project():
    rng = random.Random(6)
    x = random_sphere_point(rng, 3)
    g = metric_matrix(3)
    v = exactla.fracarray([rng.randint(-4, 4) for _ in range(12)])
    h = horizontal_project(x, v)
    assert h @ g @ x.x.to_real() == 0
    for u in IMAGINARY_UNITS:
        assert (h @ g @ ref_right_mul(x.x.to_real(), u)) == 0
    # projection is idempotent
    assert exactla.max_abs(horizontal_project(x, h) - h) == 0


def test_transitive_element_base_and_flow_targets():
    assert transitive_element(base_point(3)) == PQMatrix.identity(3)
    tgt = SpherePoint(PQVector([SplitQuaternion(Fraction(5, 4), 0,
                                                Fraction(3, 4), 0),
                                SplitQuaternion(), SplitQuaternion()]))
    M = transitive_element(tgt)
    assert sp_group_membership(M) == 0
    assert (M @ base_point(3).x) == tgt.x


def test_transitive_element_random_targets():
    rng = random.Random(7)
    for _ in range(6):
        tgt = random_sphere_point(rng, 3)
        M = transitive_element(tgt)
        assert sp_group_membership(M) == 0
        assert (M @ base_point(3).x) == tgt.x


def test_transitive_element_orthogonality_table():
    # the completed columns are orthonormal for the quaternion pairing,
    # and each bar-swapped companion column has square norm -1 and is
    # orthogonal to its source
    rng = random.Random(8)
    tgt = random_sphere_point(rng, 3)
    M = transitive_element(tgt)
    cols = [PQVector([M.entries[r][c] for r in range(3)]) for c in range(3)]
    for a in range(3):
        for b in range(3):
            want = SplitQuaternion(1 if a == b else 0)
            assert hermitian_pairing(cols[a].entries, cols[b].entries) == want
    for col in cols:
        swapped = []
        for h in col.entries:
            (r1, i1), (r2, i2) = h.complex_rep_exact()
            # the companion with (z1, z2) = (conj(z2), conj(z1)) of h
            swapped.append(SplitQuaternion(r2, -i2, r1, i1))
        other = PQVector(swapped)
        assert module_scalar_product(other, other) == -1
        assert module_scalar_product(col, other) == 0


@pytest.mark.parametrize("target", UNIT_ENTRY_TARGETS,
                         ids=["1-1-j", "1-j-1", "j-1-1"])
def test_transitive_element_completes_past_the_coordinate_vectors(target):
    M = transitive_element(target)
    assert sp_group_membership(M) == 0
    assert (M @ base_point(3).x) == target.x


def test_sphere_point_through_errors():
    o = base_point(2)
    with pytest.raises(ValueError):
        sphere_point_through(o, PQVector([SplitQuaternion(0, 0, 1, 1),
                                          SplitQuaternion()]))


def test_transitive_element_matches_scalar_gram_schmidt():
    rng = random.Random(31)
    # at (i, 0, 0) the first candidate e_0 projects to zero and is skipped
    targets = [SpherePoint(PQVector([SplitQuaternion(0, 1), SplitQuaternion(),
                                     SplitQuaternion()]))]
    targets += [base_point(rank) for rank in (2, 3, 4)]
    for rank in (2, 3, 4):
        targets += [random_sphere_point(rng, rank) for _ in range(16)]
    targets += [weighted_level_sample(rng, p, q)
                for p, q in ((1, 2), (2, 1), (3, 4)) for _ in range(5)]
    targets += UNIT_ENTRY_TARGETS
    for tgt in targets:
        assert transitive_element(tgt) == ref_transitive_element(tgt)


def zero_set_points(seed, p, q, count=20):
    """The points of the zero-set cross-check at the rng seed: level
    points and random sphere points, alternating."""
    rng = random.Random(seed)
    return [weighted_level_sample(rng, p, q) if k % 2 == 0
            else random_sphere_point(rng, 3) for k in range(count)]


@pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("seed", range(5))
def test_transitive_columns_match_per_point_route(seed, p, q):
    # the stacked Gram-Schmidt gives every point the columns and scales
    # of the per-point loop, in the same lowest-terms pairs
    points = zero_set_points(seed, p, q)
    F, LF = _transitive_columns(*_stack(points))
    for x, Fx, LFx in zip(points, F, LF):
        want = ref_transitive_columns(x)
        assert list(LFx) == [L for _, L in want]
        assert all((Fx[c] == Fc).all() for c, (Fc, _) in enumerate(want))


def test_transitive_columns_run_points_of_every_kind_together():
    # one stack of targets that need the pool (the unit-entry targets, a
    # target whose first candidate is null) and generic ones, over ranks
    # of one size: each point keeps its own candidate sequence
    odd = SpherePoint(PQVector([SplitQuaternion(0, 1), SplitQuaternion(),
                                SplitQuaternion()]))
    rng = random.Random(32)
    points = (UNIT_ENTRY_TARGETS + [odd, base_point(3)]
              + [random_sphere_point(rng, 3) for _ in range(4)])
    F, LF = _transitive_columns(*_stack(points))
    for x, Fx, LFx in zip(points, F, LF):
        want = ref_transitive_columns(x)
        assert list(LFx) == [L for _, L in want]
        assert all((Fx[c] == Fc).all() for c, (Fc, _) in enumerate(want))


@pytest.mark.parametrize("rank", [1, 3])
def test_unit_actions_match_right_multiplication(rank):
    # unit_action is x -> x conj(e_a) and unit_frame is [x, x i, x j, x k],
    # entrywise, against the blocks of right_mult_matrix and against the
    # products of the reference; on exact and on float columns
    rng = random.Random(40 + rank)
    exact = np.stack([random_pq_vector(rng, rank).to_real() for _ in range(3)],
                     axis=1)
    eye = np.eye(rank, dtype=object)
    for cols in (exact, np.asarray(exact, dtype=float) / 7):
        frame = unit_frame(cols)
        assert frame.shape == cols.shape + (4,) and frame.dtype == cols.dtype
        for a, e in enumerate(UNITS):
            assert (frame[..., a] == np.kron(eye, right_mult_matrix(e))
                    @ cols).all()
            assert (frame[:, 0, a] == ref_right_mul(cols[:, 0], e)).all()
        for a, e in enumerate(IMAGINARY_UNITS):
            got = unit_action(cols, a)
            assert got.dtype == cols.dtype
            assert (got == np.kron(eye, right_mult_matrix(e.conj()))
                    @ cols).all()
            want = np.stack([ref_right_mul(cols[:, c], e.conj())
                             for c in range(cols.shape[1])], axis=1)
            assert (unit_action(cols, a) == want).all()
        assert (apply_metric(cols) == metric_matrix(rank) @ cols).all()
