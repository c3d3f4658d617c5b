import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqgeom import exactla
from pqgeom.algebra import EPS, IMAGINARY_UNITS, I, J, K, SplitQuaternion
from pqgeom.curvature import (CurvatureTensor, NullDirectionError,
                              ambient_projective_curvature, bianchi_residual,
                              einstein_check, projective_curvature,
                              restrict_to_complement, ricci)
from pqgeom.linalg import (REDRAW_LIMIT, PQMatrix, PQVector, apply_metric,
                           metric_matrix, module_scalar_product,
                           random_integers, right_mult_matrix,
                           structure_endos, unit_action, unit_frame)
from pqgeom.projspace import (DegenerateOrbitError, SpherePoint, _stack,
                              base_point, induced_geometry, quotient_frame,
                              random_sphere_point, sphere_quotient,
                              transitive_element)
from pqgeom.reduction import (DegenerateLevelSetError,
                              NonRegularError, NullOrbitError,
                              admissible_directions, empty_levelset_check,
                              flat_level_sample,
                              flat_moment_gradient_check,
                              flat_quotient_coordinates,
                              flat_quotient_residuals, flat_reduced_structure,
                              isotropy_moment_traces, moment_quotient,
                              orthogonality_check, pq_zero_set_check,
                              reduced_jacobi, weighted_level_sample,
                              weighted_level_sample_float,
                              weighted_level_value, weighted_quotient)
from pqgeom.reduction import _moment, _norm_factor, _weights

from test_algebra import circle_point
from test_linalg import (eye, ref_inverse, ref_left_mul, ref_nullspace,
                         ref_right_mul, right_mul)
from test_projspace import (horizontal_project, ref_transitive_columns,
                            zero_set_points)


def weighted_regularity(p, q, u: SpherePoint):
    """(is_regular, value) for q^2 |u0|^2 + p^2 |u1|^2 + p^2 |u2|^2 != 0,
    by the square norms of the entries."""
    val = sum(c * c * h.square_norm() for c, h in zip((q, p, p), u.x.entries))
    return val != 0, val


def level_value(p, q, u: SpherePoint):
    """The level value at u as three Fractions: weighted_level_value at
    the integer coordinates U of u = U / L, over L^2."""
    U, L = u.x.scaled
    return tuple(Fraction(y, L * L) for y in weighted_level_value(p, q, U))


def level_zero(p, q, u: SpherePoint) -> bool:
    return not any(level_value(p, q, u))


def generator(p, q):
    """The matrix D of the Killing field of the weighted action, the
    first generator of its record."""
    return weighted_quotient(p, q).generators[0]


def killing_field(p, q, u: SpherePoint) -> PQVector:
    """The Killing field D u of the weighted action at u: D on the integer
    coordinates U of u = U / L, over L."""
    U, L = u.x.scaled
    return PQVector.from_scaled_integers(generator(p, q) @ U, L)


def killing_derivative(p, q, u: SpherePoint, X):
    """The covariant derivative V_X of the package chain as Fractions:
    the P = L^2 D X of reduced_jacobi over L^2 and the scale of X."""
    _, L = u.x.scaled
    XN, LX = exactla.scaled_integers(X)
    return exactla.from_scaled_integers(L * L * (generator(p, q) @ XN),
                                        L * L * LX)


# -- flat circle reduction ----------------------------------------------------


def ref_flat_moment(x):
    """The classical components f = (-(|z|^2 + |w|^2), -Re(z w),
    -Im(z w)) of the circle moment at the real coordinates x (last axis;
    leading axes a batch), from the complex coordinates z = a + b i and
    w = c - d i of the entries: the reference for the table contraction,
    sum conj(h_v) i h_v = (-f1, -2 f3, -2 f2)."""
    x = np.asarray(x)
    a, b, c, d = np.moveaxis(x.reshape(x.shape[:-1] + (-1, 4)), -1, 0)
    # z w = (ac + bd) + (bc - ad) i
    return (-(a * a + b * b + c * c + d * d).sum(axis=-1),
            -(a * c + b * d).sum(axis=-1), -(b * c - a * d).sum(axis=-1))


def flat_moment(x):
    """_moment of the circle action (i, every weight 1) at x."""
    return _moment(0, (1,) * (np.shape(x)[-1] // 4), x)


def ref_flat_level_sample(rng, rank):
    """The Fraction route of flat_level_sample: the circle point of the
    slope u, the two directions as Fraction lists with disjoint supports,
    each rescaled to a Euclidean unit vector by ref_euclidean_unit, and the
    entries (s z_re, s z_im, t w_re, -t w_im)."""
    while True:
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        den = 1 + u * u
        s, t = (1 - u * u) / den, 2 * u / den
        if s == 0 or t == 0 or s * s == t * t:
            continue
        size = rng.randrange(1, rank)
        support = rng.sample(range(rank), size)
        zdir = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(2 * rank)]
        wdir = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(2 * rank)]
        for v in range(rank):
            if v in support:
                wdir[2 * v] = wdir[2 * v + 1] = Fraction(0)
            else:
                zdir[2 * v] = zdir[2 * v + 1] = Fraction(0)
        zn = sum(x * x for x in zdir)
        wn = sum(x * x for x in wdir)
        if zn == 0 or wn == 0:
            continue
        zvec = ref_euclidean_unit(zdir, zn)
        wvec = ref_euclidean_unit(wdir, wn)
        return PQVector([SplitQuaternion(s * zvec[2 * v], s * zvec[2 * v + 1],
                                         t * wvec[2 * v], -t * wvec[2 * v + 1])
                         for v in range(rank)])


def ref_euclidean_unit(direction, norm):
    """The reflection of the first axis e_p of the support of the
    direction in it: e_p - 2 direction_p direction / norm, a rational
    Euclidean unit vector."""
    pivot = next(i for i, x in enumerate(direction) if x != 0)
    lam = Fraction(-2) * direction[pivot] / norm
    out = [lam * d for d in direction]
    out[pivot] += 1
    assert sum(x * x for x in out) == 1
    return out


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_flat_level_sample_matches_fraction_route(rank):
    # the integer route draws by the same rng calls and returns the same
    # point, in the same lowest-terms pair
    rng, ref_rng = random.Random(rank), random.Random(rank)
    for _ in range(20):
        h, want = flat_level_sample(rng, rank), ref_flat_level_sample(
            ref_rng, rank)
        assert h == want
        assert h.scaled[1] == want.scaled[1]
        assert list(h.scaled[0]) == list(want.scaled[0])
        assert all(type(x) is int for x in h.scaled[0])
    assert rng.getstate() == ref_rng.getstate()


def test_flat_moment_values():
    zero = PQVector([SplitQuaternion(), SplitQuaternion()])
    assert list(flat_moment(zero.to_real())) == [0, 0, 0]
    # the first classical component is the negated euclidean norm of
    # (z, w); the basis lift therefore evaluates to (-1, 0, 0), and the
    # moment to (1, 0, 0)
    e1 = PQVector([SplitQuaternion(1), SplitQuaternion(), SplitQuaternion()])
    assert ref_flat_moment(e1.to_real()) == (-1, 0, 0)
    assert list(flat_moment(e1.to_real())) == [1, 0, 0]
    assert list(flat_moment(e1.scaled[0])) == [1, 0, 0]


@pytest.mark.parametrize("dtype", [object, np.int64])
def test_flat_moment_is_the_complex_coordinate_formula(dtype):
    # sum conj(h) i h = (-f1, -2 f3, -2 f2) on integer points, as a batch,
    # on Python ints and on int64, which the moment keeps
    rng = random.Random(12)
    X = random_integers(rng, (6, 2, 12), -9, 9, dtype)
    f1, f2, f3 = ref_flat_moment(X)
    got = flat_moment(X)
    assert got.dtype == X.dtype
    assert (got == np.stack([-f1, -2 * f3, -2 * f2], axis=-1)).all()


def test_flat_level_sampler_equations():
    rng = random.Random(0)
    for _ in range(10):
        h = flat_level_sample(rng, 3)
        f = ref_flat_moment(h.to_real())
        assert f == (Fraction(-1), Fraction(0), Fraction(0))
        U, L = h.scaled
        assert list(flat_moment(U)) == [L * L, 0, 0]
        # spelled out: unit euclidean norm and vanishing bilinear pairing
        zs = [(q.a, q.b) for q in h.entries]
        ws = [(q.c, -q.d) for q in h.entries]
        norm = sum(a * a + b * b for a, b in zs) \
            + sum(a * a + b * b for a, b in ws)
        zw_re = sum(z[0] * w[0] - z[1] * w[1] for z, w in zip(zs, ws))
        zw_im = sum(z[0] * w[1] + z[1] * w[0] for z, w in zip(zs, ws))
        assert norm == 1 and zw_re == 0 and zw_im == 0


def test_flat_moment_and_killing_take_a_batch():
    # leading axes of the coordinates are a batch of points; the field
    # takes the batch through exactla.contract, on its dtype
    rng = random.Random(11)
    D = moment_quotient(0, (1, 1, 1)).generators[0]
    for dtype in (object, np.int64):
        X = random_integers(rng, (5, 12), -9, 9, dtype)
        batch = flat_moment(X.reshape(5, 1, 12))
        V = exactla.contract(X, D, 1)
        assert V.dtype == X.dtype
        for s, x in enumerate(X):
            assert (batch[s, 0] == flat_moment(x)).all()
            assert (V[s] == D @ x).all()


def test_flat_moment_circle_invariance():
    rng = random.Random(1)
    h = flat_level_sample(rng, 3)
    x = h.to_real()
    for t in (Fraction(1, 3), Fraction(-2, 5)):
        rotated = ref_left_mul(x, circle_point(t))
        assert (flat_moment(rotated) == flat_moment(x)).all()


def test_flat_adapted_gradient_exact():
    # the moment rows satisfy d mu_a(X) = 2 eps_a g(J_a V, X) identically,
    # checked here with exact differentials rather than differences
    rng = random.Random(2)
    H = structure_endos(3)
    g = metric_matrix(3)
    for _ in range(6):
        coords = exactla.fracarray([Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4))
                                    for _ in range(12)])
        quotient = moment_quotient(0, (1, 1, 1))
        rows, V = quotient.rows @ coords, quotient.generators[0] @ coords
        # the Killing value is left multiplication by i
        assert (V == ref_left_mul(coords, I)).all()
        for a in range(3):
            want = 2 * EPS[a] * (H.J[a] @ V) @ g
            assert exactla.max_abs(rows[a] - want) == 0


@pytest.mark.parametrize("a", [0, 1, 2])
def test_moment_rows_are_the_polarisation_of_the_moment(a):
    # mu(x + y) - mu(x - y) = 2 d mu_x(y) for the quadratic moment, at
    # integer points and weights, for every generator unit: the rows of
    # the record at x are the differential, and the rows are the
    # Hessians, 1/2 x^T rows x = mu(x)
    rng = random.Random(30 + a)
    for rank in (1, 3):
        weights = tuple(rng.randint(-4, 4) for _ in range(rank))
        rows = moment_quotient(a, weights).rows
        assert rows.shape == (3, 4 * rank, 4 * rank)
        x, y = random_integers(rng, (2, 4 * rank), -9, 9)
        want = _moment(a, weights, x + y) - _moment(a, weights, x - y)
        assert (2 * (rows @ x) @ y == want).all()
        assert (x @ rows @ x == 2 * _moment(a, weights, x)).all()
        # the generator: the weights times e_a x_v, entrywise
        D = moment_quotient(a, weights).generators[0]
        assert (D @ x == np.repeat(weights, 4)
                * ref_left_mul(x, IMAGINARY_UNITS[a])).all()


def test_records_are_cached_read_only_python_ints():
    for make in (lambda: sphere_quotient(2), lambda: weighted_quotient(1, 2),
                 lambda: moment_quotient(0, (1, 1))):
        Q = make()
        assert make() is Q
        for arr in (Q.rows, Q.generators):
            assert not arr.flags.writeable
            assert all(type(v) is int for v in arr.reshape(-1))


def test_flat_gradient_check_numeric(monkeypatch):
    # the quartered difference of a quadratic is half its differential:
    # exact 0
    assert flat_moment_gradient_check(3, 120, random.Random(3)) == 0
    # the classical components f in place of the moment fail the
    # defining equation
    import pqgeom.reduction as red
    monkeypatch.setattr(red, "_moment", lambda a, weights, x: np.stack(
        ref_flat_moment(x), axis=-1))
    assert flat_moment_gradient_check(3, 5, random.Random(3)) > 0


def test_flat_level_sample_rejects_rank_one():
    # at rank 1 the two supports of z and w cannot both be nonempty; the
    # sampler used to fail inside randrange with an unrelated message
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="rank >= 2"):
        flat_level_sample(rng, 1)
    assert rng.getstate() == state


def test_flat_reduced_structure_exact():
    rng = random.Random(4)
    for rank in (2, 3):
        for _ in range(4):
            h = flat_level_sample(rng, rank)
            H, _ = flat_reduced_structure(h)
            assert H.comrel_residual() == 0
            assert H.skew_residual() == 0
            assert H.signature() == (2 * (rank - 1), 2 * (rank - 1))


def test_flat_reduced_structure_matches_fraction_products():
    # the frame images and the reduced metric, formed on scaled integers,
    # against the Fraction products J_a @ frame and frame^T g frame
    rng = random.Random(7)
    for rank in (2, 3):
        for _ in range(3):
            h = flat_level_sample(rng, rank)
            H, (N, L, _) = flat_reduced_structure(h)
            F = exactla.from_scaled_integers(N, L)
            g = metric_matrix(rank)
            for Ja, Jred in zip(structure_endos(rank).J, H.J):
                assert (F @ Jred == Ja @ F).all()
            assert (H.g == F.T @ g @ F).all()
            assert all(type(x) is Fraction for x in H.g.reshape(-1))


def test_flat_reduced_structure_guards():
    rng = random.Random(5)
    h = flat_level_sample(rng, 3)
    off = PQVector([q.scale(2) for q in h.entries])
    with pytest.raises(DegenerateLevelSetError):
        flat_reduced_structure(off)
    # balanced lift: |z|^2 = |w|^2 = 1/2 with disjoint supports is on the
    # level set but the orbit through it is null
    half = Fraction(1, 2)
    balanced = PQVector([SplitQuaternion(half, half, 0, 0),
                         SplitQuaternion(0, 0, half, -half),
                         SplitQuaternion()])
    assert ref_flat_moment(balanced.to_real()) == (-1, 0, 0)
    with pytest.raises(NullOrbitError):
        flat_reduced_structure(balanced)


def test_flat_quotient_image_equations():
    rng = random.Random(6)
    for _ in range(8):
        h = flat_level_sample(rng, 3)
        qa, qb = flat_quotient_residuals(h)
        assert qa == 0 and qb == 0
        # the circle acts projectively trivially on the image coordinates
        rotated = ref_left_mul(h.to_real(), circle_point(Fraction(2, 7)))
        A1, B1 = flat_quotient_coordinates(h.to_real())
        A2, B2 = flat_quotient_coordinates(rotated)
        # proportionality over the complexified coordinates
        flat1 = [complex(float(x), float(y)) for x, y in A1 + B1]
        flat2 = [complex(float(x), float(y)) for x, y in A2 + B2]
        pivot = max(range(len(flat1)), key=lambda k: abs(flat1[k]))
        lam = flat2[pivot] / flat1[pivot]
        assert max(abs(a * lam - b) for a, b in zip(flat1, flat2)) < 1e-9
    # off the level set the residuals are those of the Fraction coordinates
    x = exactla.fracarray([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(12)])
    A, B = flat_quotient_coordinates(x)
    im = sum(a * t - b * s for (a, b), (s, t) in zip(A, B))
    want = (abs(sum(a * a + b * b for a, b in A)
                - sum(a * a + b * b for a, b in B)), abs(im))
    h = PQVector(SplitQuaternion(*x[4 * v:4 * v + 4]) for v in range(3))
    assert flat_quotient_residuals(h) == want and min(want) > 0


def test_flat_orthogonality():
    rng = random.Random(7)
    points = [flat_level_sample(rng, 3) for _ in range(4)]
    assert orthogonality_check(moment_quotient(0, (1, 1, 1)), points) == 0


# -- weighted hyperbolic reduction --------------------------------------------


PQ_WEIGHTS = [(1, 2), (2, 1), (3, 4), (1, 3), (2, 5)]


def slice_level_sample(rng, p, q):
    """Exact level point of the slice family of entries x + y j.

    On it the level value is proportional to x^2 - y^2 per entry; the
    weighted sum cancels at sigma = p/(p-q) in the first slot, split
    rationally across the other two, hyperbola rotations per entry
    randomise within the family.  Every point of the family has the
    regularity value -pq and the reduced ratio -p/q, which the pinned
    values below refer to; weighted_level_sample draws generic points.
    """
    sigma = Fraction(p, p - q)
    rest = 1 - sigma
    while True:
        split = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s1, s2 = rest / 2 + split, rest / 2 - split
        entries = []
        for target in (sigma, s1, s2):
            x, y = (target + 1) / 2, (target - 1) / 2
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            den = 1 - t * t
            if den == 0:
                break
            ch, sh = (1 + t * t) / den, 2 * t / den
            entries.append(SplitQuaternion(x * ch + y * sh, 0,
                                           x * sh + y * ch, 0))
        if len(entries) != 3:
            continue
        u = SpherePoint(PQVector(entries))
        assert level_zero(p, q, u)
        if weighted_regularity(p, q, u)[0]:
            return u


def weighted_flow_exact(p, q, param, u):
    """Rational point of the flow: parameter s on the unit hyperbola acts
    with (cosh, sinh) = ((1+s^2)/(1-s^2), 2s/(1-s^2)) raised to the
    integer weights."""
    s = Fraction(param)
    den = 1 - s * s
    if den == 0:
        raise ValueError("parameter on the asymptote")
    one_step = SplitQuaternion((1 + s * s) / den, 0, 2 * s / den, 0)
    out = []
    for c, h in zip(_weights(p, q), u.entries):
        flow = SplitQuaternion(1)
        for _ in range(c):
            flow = flow * one_step
        out.append(flow * h)
    return PQVector(out)


def test_weighted_killing_example():
    u = base_point(3)
    V = killing_field(1, 2, u)
    assert V.entries[0] == J.scale(2)
    assert V.entries[1] == 0 and V.entries[2] == 0
    assert module_scalar_product(V, u.x) == 0


def test_weighted_killing_tangency_generic():
    rng = random.Random(9)
    for _ in range(8):
        u = random_sphere_point(rng, 3)
        V = killing_field(1, 2, u)
        assert module_scalar_product(V, u.x) == 0


def test_weight_validation():
    assert _weights(1, 2) == (2, 1, 1)
    for p, q in [(2, 2), (2, 4), (0, 1)]:
        with pytest.raises(ValueError):
            _weights(p, q)


def test_level_value_examples():
    u = base_point(3)
    assert level_value(1, 2, u) == (0, 2, 0)
    regular, value = weighted_regularity(1, 2, u)
    assert regular and value == 4


def ref_weighted_level_value(p, q, u):
    """sum_v c_v conj(u_v) j u_v by SplitQuaternion products, real part
    included: the reference for the closed form of weighted_level_value."""
    total = SplitQuaternion()
    for c, h in zip((q, p, p), u.x.entries):
        total = total + (h.conj() * J * h).scale(c)
    return total


def sandwich_i(h: SplitQuaternion):
    """conj(h) i h as an (i, j, k) triple by its closed form; the
    i-component is the Euclidean square norm a^2 + b^2 + c^2 + d^2 of
    h = a + b i + c j + d k."""
    a, b, c, d = h.coefficients()
    return (a * a + b * b + c * c + d * d, 2 * (b * c - a * d),
            2 * (a * c + b * d))


def sandwich_j(h: SplitQuaternion):
    """conj(h) j h as an (i, j, k) triple by its closed form; its square
    norm is -|h|^4."""
    a, b, c, d = h.coefficients()
    return (-2 * (a * d + b * c), a * a - b * b - c * c + d * d,
            -2 * (a * b + c * d))


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
       st.integers(1, 12), st.booleans())
def test_sandwich_closed_forms_match_products(coefficients, den, rational):
    # conj(h) i h and conj(h) j h by SplitQuaternion products, by their
    # closed forms and by the table contraction of _moment, on int and on
    # Fraction coefficients
    h = SplitQuaternion(*(Fraction(c, den) if rational else c
                          for c in coefficients))
    x = np.array(h.coefficients(), dtype=object)
    for a, (unit, closed) in enumerate(((I, sandwich_i), (J, sandwich_j))):
        want = h.conj() * unit * h
        got = closed(h)
        assert want.a == 0 and got == (want.b, want.c, want.d)
        assert tuple(_moment(a, (1,), x)) == got
        assert all(type(x) is (Fraction if rational else int) for x in got)
    want = h.conj() * K * h
    assert tuple(_moment(2, (1,), x)) == (want.b, want.c, want.d)


@pytest.mark.parametrize("p,q", [(1, 2), (3, 2)])
def test_level_value_closed_form_matches_products(p, q):
    rng = random.Random(23 + p)
    exact = ([weighted_level_sample(rng, p, q) for _ in range(5)]
             + [random_sphere_point(rng, 3) for _ in range(5)])
    for u in exact:
        want = ref_weighted_level_value(p, q, u)
        assert want.a == 0
        assert level_value(p, q, u) == (want.b, want.c, want.d)


def test_level_sampler_and_flow_invariance():
    rng = random.Random(10)
    for sampler in (slice_level_sample, weighted_level_sample):
        values = set()
        for _ in range(6):
            u = sampler(rng, 1, 2)
            assert module_scalar_product(u.x, u.x) == 1
            assert level_zero(1, 2, u)
            regular, value = weighted_regularity(1, 2, u)
            assert regular
            values.add(value)
            moved = weighted_flow_exact(1, 2, Fraction(1, 4), u.x)
            assert module_scalar_product(moved, moved) == 1
            assert level_zero(1, 2, SpherePoint(moved))
        # the slice family has the one regularity value -pq; generic
        # points have many
        if sampler is slice_level_sample:
            assert values == {-2}
        else:
            assert len(values) == 6


def test_level_sampler_other_weights():
    rng = random.Random(11)
    u = slice_level_sample(rng, 2, 3)
    assert level_zero(2, 3, u)
    regular, value = weighted_regularity(2, 3, u)
    assert regular and value == -6
    u = weighted_level_sample(rng, 2, 3)
    assert level_zero(2, 3, u)
    regular, value = weighted_regularity(2, 3, u)
    assert regular and value != -6


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PQ_WEIGHTS))
def test_level_sampler_generic_points(seed, weights):
    # exactly on the sphere and on the zero level set, regular, and the
    # float sampler's coordinates are the float image of the same draw
    p, q = weights
    u = weighted_level_sample(random.Random(seed), p, q)
    assert all(type(c) in (int, Fraction)
               for h in u.x.entries for c in h.coefficients())
    assert module_scalar_product(u.x, u.x) == 1
    assert level_zero(p, q, u)
    assert weighted_regularity(p, q, u)[0]
    uf = weighted_level_sample_float(random.Random(seed), p, q)
    assert list(uf) == [float(c) for c in u.x.to_real()]


@pytest.mark.parametrize("p, q", PQ_WEIGHTS)
def test_killing_field_horizontal_on_level_set(p, q):
    # g(V, x) = 0 on the sphere and the g(V, x e_a) are the components of
    # the level value, so V is horizontal exactly on the zero level set;
    # g(V, V) is minus the regularity value
    rng = random.Random(26)
    for _ in range(4):
        u = weighted_level_sample(rng, p, q)
        V = killing_field(p, q, u).to_real()
        assert exactla.max_abs(horizontal_project(u, V) - V) == 0
        _, value = weighted_regularity(p, q, u)
        assert apply_metric(V) @ V == -value
    off = random_sphere_point(rng, 3)
    assert not level_zero(p, q, off)
    V = killing_field(p, q, off).to_real()
    assert exactla.max_abs(horizontal_project(off, V) - V) != 0


def test_flow_preserves_norms():
    # off the level set too: the flow preserves the scalar product
    rng = random.Random(12)
    u = random_sphere_point(rng, 3)
    for param in (Fraction(37, 100), Fraction(-2, 3)):
        moved = weighted_flow_exact(1, 2, param, u.x)
        assert module_scalar_product(moved, moved) == 1


def test_level_value_fiber_translation():
    # under a fiber translation the level value transforms by the
    # conjugation action, so the zero set descends to the quotient
    rng = random.Random(13)
    from pqgeom.projspace import random_unit_quaternion
    u = random_sphere_point(rng, 3)
    rho = random_unit_quaternion(rng)
    v = SplitQuaternion(0, *level_value(1, 2, u))
    want = rho.conj() * v * rho
    assert (level_value(1, 2, SpherePoint(right_mul(u.x, rho)))
            == (want.b, want.c, want.d))


def test_level_gradient_row_consistency():
    # directional derivative of the level value along an exact flow curve
    rng = random.Random(14)
    u = weighted_level_sample(rng, 1, 2)
    rows = moment_quotient(1, _weights(1, 2)).rows @ u.x.to_real()
    V = killing_field(1, 2, u).to_real()
    # the flow preserves the level function, so its derivative kills V
    assert exactla.max_abs(rows @ V) == 0


def test_isotropy_route_zero_set_agreement():
    assert pq_zero_set_check(1, 2, 30, random.Random(15)) == 0


def traces(p, q, points):
    """isotropy_moment_traces on the stack of the points, as one triple of
    Fractions per point."""
    T, LT = isotropy_moment_traces(p, q, *_stack(points))
    return [tuple(Fraction(t, L) for t in row) for row, L in zip(T, LT)]


def test_isotropy_traces_nonzero_off_level():
    u = base_point(3)  # not on the level set
    assert any(t != 0 for t in traces(1, 2, [u])[0])


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (2, 3), (3, 4), (1, 5)])
@pytest.mark.parametrize("seed", range(5))
def test_traces_are_a_constant_multiple_of_the_level_value(seed, p, q):
    # Tr(J_a L) = c_a mu_a(u) with c = (-8, 8, 8), on the level set (both
    # 0) and off it, at 100 points per row: half level points, half sphere
    # points; the residual of the cross-check is that difference
    points = zero_set_points(seed, p, q, 100)
    for u, T in zip(points, traces(p, q, points)):
        assert T == tuple(c * m for c, m in zip((-8, 8, 8),
                                                level_value(p, q, u)))
    assert pq_zero_set_check(p, q, 100, random.Random(seed)) == 0


def _generator_matrix(p, q):
    """The action generator diag(q j, p j, p j) as a PQMatrix."""
    return PQMatrix([[J.scale(c) if r == v else SplitQuaternion()
                      for r in range(3)] for v, c in enumerate((q, p, p))])


def test_generator_action_matches_pq_matrix():
    # the generator of the record is the real action of the PQMatrix
    # diag(q j, p j, p j), and so is the field at a point
    rng = random.Random(28)
    for p, q in PQ_WEIGHTS:
        A, LA = _generator_matrix(p, q).to_real_action()
        assert LA == 1 and (generator(p, q) == A).all()
        x = random_sphere_point(rng, 3).x
        want = (_generator_matrix(p, q) @ x).to_real()
        assert (killing_field(p, q, SpherePoint(x)).to_real() == want).all()
        # on a stack of two (the last axis) through exactla.contract, and
        # on floats too (dyadic entries, so both routes are exact)
        rows = np.arange(24).reshape(2, 12).astype(object) * Fraction(1, 4)
        got = exactla.contract(np.asarray(rows, dtype=float),
                               generator(p, q), 1)
        assert got.dtype == float
        assert (got == exactla.contract(rows, generator(p, q), 1)).all()
        for row, image in zip(rows, got):
            assert (image == generator(p, q) @ row).all()


@pytest.mark.parametrize("p, q", PQ_WEIGHTS)
def test_weighted_quotient_is_the_sphere_and_the_moment_of_j(p, q):
    # the rows are g and the Hessians of the level value at (q, p, p), the
    # generators V (test_generator_action_matches_pq_matrix) and x e_a
    Q = weighted_quotient(p, q)
    assert Q.rows.shape == Q.generators.shape == (4, 12, 12)
    assert (Q.rows[0] == metric_matrix(3)).all()
    x = random_integers(random.Random(p + 10 * q), (12,), -9, 9)
    assert (x @ Q.rows[1:] @ x == 2 * weighted_level_value(p, q, x)).all()
    for G, e in zip(Q.generators[1:], IMAGINARY_UNITS):
        assert (G @ x == ref_right_mul(x, e)).all()


def ref_isotropy_moment_traces(p, q, u):
    """The PQMatrix route: eta = g^-1 G g as split-quaternion matrix
    products, s = eta[0][0], L the real action of the lower-right 2 x 2
    block plus right multiplication by conj(s) on each entry.  The
    reference for the real-action route of isotropy_moment_traces."""
    gmat = transitive_element(u)
    eta = gmat.conj_transpose() @ _generator_matrix(p, q) @ gmat
    s = eta.entries[0][0]
    block = PQMatrix([[eta.entries[r + 1][c + 1] for c in range(2)]
                      for r in range(2)])
    L = exactla.from_scaled_integers(*block.to_real_action())
    for v in range(2):
        L[4 * v:4 * v + 4, 4 * v:4 * v + 4] += right_mult_matrix(s.conj())
    return tuple((Ja * L.T).sum() for Ja in structure_endos(2).J)


@pytest.mark.parametrize("p,q", [(1, 2), (3, 2)])
def test_isotropy_traces_match_pq_matrix_route(p, q):
    rng = random.Random(17 + p)
    points = ([weighted_level_sample(rng, p, q) for _ in range(20)]
              + [random_sphere_point(rng, 3) for _ in range(20)])
    for u, got in zip(points, traces(p, q, points)):
        assert got == ref_isotropy_moment_traces(p, q, u)


def ref_integer_traces(p, q, u):
    """The per-point route of isotropy_moment_traces, (T, LT): the real
    action A / LA of the columns of ref_transitive_columns at their lcm
    scale, E = G A^T G D A in blocks, one point at a time.  The reference
    for the stacked route."""
    cols = ref_transitive_columns(u)
    LA = math.lcm(*(L for _, L in cols))
    A = np.concatenate([F * (LA // L) for F, L in cols], axis=1)
    DA = generator(p, q) @ A
    GAG = apply_metric(apply_metric(A).T)
    E = GAG[4:] @ DA[:, 4:]
    rconj = right_mult_matrix(SplitQuaternion(*(GAG[:4] @ DA[:, 0])).conj())
    for v in range(2):
        E[4 * v:4 * v + 4, 4 * v:4 * v + 4] += rconj
    return ([np.trace(unit_action(E, a)) for a in range(3)],
            LA * LA)


@pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("seed", range(5))
def test_stacked_traces_and_points_match_per_point_routes(seed, p, q):
    # the points of the cross-check at the seed: the integer sampler
    # returns the point of the Fraction route, in lowest terms, after the
    # same rng calls; the stacked traces equal the per-point ones, pair
    # for pair
    points = zero_set_points(seed, p, q)
    rng = random.Random(seed)
    for k, u in enumerate(points):
        if k % 2 == 0:
            want = ref_weighted_level_sample(rng, p, q)
            assert u.x == want.x
            assert math.gcd(*u.x.scaled[0], u.x.scaled[1]) == 1
        else:
            random_sphere_point(rng, 3)
    assert rng.getstate() == zero_set_rng_state(seed, p, q)
    T, LT = isotropy_moment_traces(p, q, *_stack(points))
    for u, row, L in zip(points, T, LT):
        want, LW = ref_integer_traces(p, q, u)
        assert list(row) == want and L == LW


def zero_set_rng_state(seed, p, q, count=20):
    rng = random.Random(seed)
    for k in range(count):
        (weighted_level_sample if k % 2 == 0 else
         lambda rng, p, q: random_sphere_point(rng, 3))(rng, p, q)
    return rng.getstate()


def test_killing_derivative_is_skew():
    rng = random.Random(16)
    g = metric_matrix(3)
    u = weighted_level_sample(rng, 1, 2)
    dirs = admissible_directions(1, 2, u, rng, 3)
    for X in dirs:
        for Y in dirs:
            a = killing_derivative(1, 2, u, X) @ g @ Y
            b = killing_derivative(1, 2, u, Y) @ g @ X
            assert a + b == 0


def ref_killing_derivative(p, q, u, X):
    """The Fraction-array route of killing_derivative: the derivative
    DX - vert_u coef_a - vert_X coef_b at the coordinates of u, then the
    horizontal projection v - F diag(1, 1, -1, -1) F^T g v with the frame
    F = (x, x i, x j, x k).  The reference for the scaled-integer chain."""
    coords = u.x.to_real()
    DX, Du = generator(p, q) @ X, generator(p, q) @ coords
    vert_u = unit_frame(coords)[:, 1:]
    vert_X = unit_frame(X)[:, 1:]
    coef_a = vert_u.T @ apply_metric(DX) + vert_X.T @ apply_metric(Du)
    coef_b = vert_u.T @ apply_metric(Du)
    coef_a[1:], coef_b[1:] = -coef_a[1:], -coef_b[1:]
    deriv = DX - vert_u @ coef_a - vert_X @ coef_b
    frame4 = unit_frame(coords)
    return deriv - frame4 @ apply_metric(frame4.T @ apply_metric(deriv))


def ref_reduced_jacobi(p, q, u, X):
    """(eigenvalues, ratio) by Fraction arrays: h(V_X) is
    V_X minus its part in the Killing span, whose Gram matrix is
    g(V, V) diag(1, 1, -1, -1) with g(V, V) minus the regularity value,
    and rho = |h(V_X)|^2 / (g(X, X) g(V, V)).  The reference for
    reduced_jacobi."""
    vnorm = -weighted_regularity(p, q, u)[1]
    xnorm = apply_metric(X) @ X
    span = unit_frame(generator(p, q) @ u.x.to_real())
    VX = ref_killing_derivative(p, q, u, X)
    h_part = VX - span @ (apply_metric(span.T @ apply_metric(VX)) / vnorm)
    ratio = (apply_metric(h_part) @ h_part) / (xnorm * vnorm)
    nu = einstein_check(ambient_projective_curvature(2))[0] / 4
    lam1, lam3 = -(nu - 2 * ratio), -(nu + 4 * ratio)
    return (lam1, lam1, lam3), ratio


@pytest.mark.parametrize("p, q", PQ_WEIGHTS)
def test_reduced_jacobi_matches_fraction_route(p, q):
    """The package takes V_X = D X, the ambient derivative of the linear
    Killing field; the reference keeps the derivative of its horizontal
    extension Vh(x) = D x - sum_ab Ginv[a,b] <D x, x e_b> x e_a (Ginv =
    diag(1, -1, -1), the constant fiber Gram inverse), with both vertical
    terms and a horizontal projection.  They agree at every input
    reduced_jacobi accepts: the coefficients of the vertical terms are
    coef_b = <u e_a, D u>, the components of the level value up to sign,
    0 by the level guard of reduced_jacobi, and
    coef_a = <u e_a, D X> + <X e_a, D u>, which is 2 <u e_a, D X> =
    -2 <V e_a, X> because D is g-skew and commutes with right
    multiplication, and so 0 as X is orthogonal to the Killing span
    (V, J1 V, J2 V, J3 V) with J_a V = -V e_a.  The derivative is
    horizontal already: <Vh(x), x> = 0 for every x gives <V_X, u> =
    -<V, X> = 0, and <Vh(x), x e_c> = (1 - |x|^2) <D x, x e_c> gives
    <V_X, u e_c> = -<V, X e_c> = +-<J_c V, X> = 0."""
    rng = random.Random(31 + p + q)
    for _ in range(3):
        u = weighted_level_sample(rng, p, q)
        for X in admissible_directions(p, q, u, rng, 4):
            got = reduced_jacobi(p, q, u, X)
            eigenvalues, ratio = ref_reduced_jacobi(p, q, u, X)
            assert got.eigenvalues == eigenvalues
            assert got.ratio == ratio
            # the unprojected derivative of the package equals the
            # projected reference: it is horizontal at these inputs
            assert (killing_derivative(p, q, u, X)
                    == ref_killing_derivative(p, q, u, X)).all()


def test_reduced_jacobi_exact_point():
    rng = random.Random(17)
    u = slice_level_sample(rng, 1, 2)
    dirs = admissible_directions(1, 2, u, rng, 6)
    results = [reduced_jacobi(1, 2, u, X) for X in dirs]
    first = results[0]
    # scale-invariant ratio, identical across directions, exact
    assert all(r.ratio == first.ratio for r in results)
    assert first.ratio == Fraction(-1, 2)
    assert first.eigenvalues == (-5, -5, -2)
    assert first.einstein_constant == 16
    # the constant is derived from the ambient model, not passed in
    want = einstein_check(ambient_projective_curvature(2))[0]
    assert first.einstein_constant == want
    # at generic points: one exact ratio per point, the same formula
    ratios = set()
    for _ in range(3):
        u = weighted_level_sample(rng, 1, 2)
        results = [reduced_jacobi(1, 2, u, X)
                   for X in admissible_directions(1, 2, u, rng, 4)]
        rho = results[0].ratio
        assert type(rho) is Fraction and rho != Fraction(-1, 2)
        assert all(r.ratio == rho for r in results)
        assert results[0].eigenvalues == (-4 + 2 * rho, -4 + 2 * rho,
                                          -4 - 4 * rho)
        ratios.add(rho)
    assert len(ratios) == 3


def test_reduced_jacobi_guards():
    rng = random.Random(18)
    # a regularity-violating lift: weighted norms cancel exactly
    u0 = SplitQuaternion(Fraction(1, 3), 0, Fraction(-2, 3), 0)
    u12 = SplitQuaternion(Fraction(5, 6), 0, Fraction(-1, 6), 0)
    bad = SpherePoint(PQVector([u0, u12, u12]))
    ok, value = weighted_regularity(1, 2, bad)
    assert not ok and value == 0
    with pytest.raises(NonRegularError):
        reduced_jacobi(1, 2, bad, exactla.fracarray([0] * 12))
    # an exact null direction at a slice point and at generic points:
    # X = a + J2 a is admissible (the complement of the Killing span is
    # invariant under the structure) and g(X, X) = g(a, a) - g(a, a) = 0,
    # J2 being an anti-isometry skew for g
    points = [slice_level_sample(rng, 1, 2)]
    points += [weighted_level_sample(rng, p, q)
               for p, q in [(1, 2), (3, 4), (2, 1)]]
    for (p, q), u in zip([(1, 2), (1, 2), (3, 4), (2, 1)], points):
        a = admissible_directions(p, q, u, rng, 1)[0]
        X = a + unit_action(a, 1)
        assert X.any() and apply_metric(X) @ X == 0
        with pytest.raises(NullDirectionError):
            reduced_jacobi(p, q, u, X)


def test_reduced_jacobi_rejects_non_horizontal_directions():
    # X + x and X + x e_a are orthogonal to the Killing span, like X (V is
    # horizontal on the zero level set), but not horizontal; the formula
    # needs a horizontal X and read another ratio off them
    rng = random.Random(3)
    u = weighted_level_sample(rng, 1, 2)
    X = admissible_directions(1, 2, u, rng, 1)[0]
    assert reduced_jacobi(1, 2, u, X).ratio == Fraction(12167, 1458)
    x = u.x.to_real()
    for shift in unit_frame(x).T:
        with pytest.raises(ValueError, match="not horizontal"):
            reduced_jacobi(1, 2, u, X + shift)


@pytest.mark.parametrize("p, q", [(1, 2), (3, 4)])
def test_reduced_jacobi_rejects_points_off_the_level_set(p, q):
    # reduced_jacobi reads the Killing field as horizontal, which holds
    # only on the zero level set
    rng = random.Random(27)
    X = admissible_directions(p, q, weighted_level_sample(rng, p, q), rng,
                              1)[0]
    off = random_sphere_point(rng, 3)
    assert weighted_regularity(p, q, off)[0]
    with pytest.raises(DegenerateLevelSetError, match="off the zero level"):
        reduced_jacobi(p, q, off, X)


@pytest.mark.parametrize("p, q", [(1, 2), (3, 4)])
def test_admissible_directions_reject_points_off_the_level_set(p, q):
    # the directions are horizontal only where the Killing field is, on
    # the zero level set: a generic sphere point, whose quotient frame is
    # independent, is refused before any direction is drawn
    off = random_sphere_point(random.Random(3), 3)
    assert weighted_level_value(p, q, off.x.scaled[0]).any()
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DegenerateLevelSetError, match="off the zero level"):
        admissible_directions(p, q, off, rng, 1)
    assert rng.getstate() == state


def test_admissible_directions_refuse_a_dependent_frame():
    # off the zero level set, at the base point, the Killing field
    # V = x (q j) and its unit multiples span the fiber with x, so the rows
    # and fields of the quotient frame are dependent
    with pytest.raises(DegenerateOrbitError, match="dimension 8, not 4"):
        admissible_directions(1, 2, base_point(3), random.Random(0), 1)


def test_ratio_varies_across_generic_points():
    rng = random.Random(19)
    ratios = []
    for _ in range(4):
        u = weighted_level_sample(rng, 1, 2)
        X = admissible_directions(1, 2, u, rng, 1)[0]
        ratios.append(reduced_jacobi(1, 2, u, X).ratio)
    assert max(ratios) - min(ratios) > Fraction(1, 1000)


@pytest.mark.parametrize("collapsed", ["slice", "one-point"])
def test_collapsed_sampler_fails_point_variation(monkeypatch, collapsed):
    # ratio-point-variation fails unless its points give two distinct
    # exact ratios: the slice family has rho = -p/q everywhere, and a
    # sampler stuck at one point has one rho
    import pqgeom.reduction as red
    from pqgeom.cli import run_suite

    def status():
        reports = {r.name: r for r in run_suite("reduce-pq")}
        return reports["ratio-point-variation"].status

    assert status() == "pass"
    point = weighted_level_sample(random.Random(0), 1, 2)
    sampler = {"slice": slice_level_sample,
               "one-point": lambda rng, p, q: point}[collapsed]
    monkeypatch.setattr(red, "weighted_level_sample", sampler)
    assert status() == "fail"


def ref_norm_factor(r: Fraction, unit: SplitQuaternion) -> SplitQuaternion:
    """The Fraction route of _norm_factor: x + y unit of square norm r,
    x + y = t and x - y = r / t with t = 2^k, k from the bit lengths of
    the numerator and denominator of |r|."""
    a = abs(r)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    e -= a < Fraction(2) ** e
    tie = e % 4 == 1 and a == Fraction(2) ** e
    t = Fraction(2) ** ((e + 1) // 2 - tie)
    return SplitQuaternion((t + r / t) / 2) + unit.scale((t - r / t) / 2)


def _imaginary_form(x, y):
    """Polarisation of the square norm on imaginary (i, j, k) triples."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def ref_weighted_level_sample(rng, p, q) -> SpherePoint:
    """The Fraction route of weighted_level_sample: the same draws, with
    the slope, m, s, nu, X and the norm factors as Fractions, and the
    entries f_v u_v w formed as one batch product on scaled integers."""
    c0, c1, c2 = _weights(p, q)
    while True:
        u0, u1 = (SplitQuaternion(*(rng.randint(-3, 3) for _ in range(4)))
                  for _ in range(2))
        n0, n1 = u0.square_norm(), u1.square_norm()
        if n0 == 0 or n1 == 0:
            continue
        Y0 = tuple(c0 * x for x in sandwich_j(u0))
        Y1 = tuple(c1 * x for x in sandwich_j(u1))
        s0, cross = c0 * n0, _imaginary_form(Y0, Y1)
        if cross * cross == (s0 * c1 * n1) ** 2:
            continue
        slope = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        den = slope * slope + _imaginary_form(Y1, Y1)
        if den == 0:
            continue
        m = -2 * (cross + s0 * slope) / den
        s = s0 + slope * m
        if m == 0 or s == 0:
            continue
        nu = s / c2
        X = SplitQuaternion(0, *(-(y0 + m * y1) / s for y0, y1 in zip(Y0, Y1)))
        u2 = J + X if X.c >= 0 else I * (X - J)
        total = n0 + m * n1 + nu
        regularity = c0 * c0 * n0 + c1 * c1 * m * n1 + c2 * c2 * nu
        if total == 0 or regularity == 0:
            continue
        (F, dF), (U, dU), (W, dW) = (
            exactla.scaled_integers(np.array([h.coefficients() for h in hs],
                                             dtype=object).T)
            for hs in ((SplitQuaternion(1), ref_norm_factor(m, J),
                        ref_norm_factor(nu / u2.square_norm(), J)),
                       (u0, u1, u2), (ref_norm_factor(1 / total, K),)))
        x = SplitQuaternion(*F) * SplitQuaternion(*U) * SplitQuaternion(*W)
        return SpherePoint(PQVector.from_scaled_integers(
            np.stack(x.coefficients(), axis=1).reshape(-1), dF * dU * dW))


def test_norm_factor_picks_the_float_power_of_two():
    # the exact exponent is the float rule round(log2|r| / 2), ties at odd
    # powers of two included, so the level points are those of that rule;
    # the integer pair need not be in lowest terms, and its value is that
    # of the Fraction route
    rng = random.Random(3)
    values = [Fraction(2) ** e for e in range(-9, 10)]
    values += [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
               for _ in range(2000)]
    for r in values:
        t = Fraction(2) ** round(math.log2(r) / 2)
        for s in (r, -r):
            for k in (1, -3):
                x, scale = _norm_factor(k * s.numerator, k * s.denominator, J)
                assert x.square_norm() == s * scale * scale
                assert x.a + x.c == t * scale
                assert x.scale(Fraction(1, scale)) == ref_norm_factor(s, J)


def test_float_sampler_quality():
    rng = random.Random(20)
    x = weighted_level_sample_float(rng, 1, 2)
    assert abs(x @ apply_metric(x) - 1.0) < 1e-10
    # the level value at the weights (q, p, p) = (2, 1, 1), in floats
    sandwiches = sandwich_j(SplitQuaternion(*x.reshape(3, 4).T))
    value = np.array(sandwiches) @ (2, 1, 1)
    assert np.abs(value).max() < 1e-10


def test_pq_orthogonality_exact():
    rng = random.Random(21)
    points = [weighted_level_sample(rng, 1, 2) for _ in range(3)]
    assert orthogonality_check(weighted_quotient(1, 2),
                               [u.x for u in points]) == 0


def test_empty_variant_level_set():
    assert empty_levelset_check(1, 2, 3000, random.Random(22)) == 0


def test_empty_levelset_check_runs_past_the_redraw_limit():
    # more rounds than REDRAW_LIMIT: only rounds in a row that keep no
    # direction count towards it
    samples = (REDRAW_LIMIT + 1) * 256
    assert empty_levelset_check(1, 2, samples, random.Random(23)) == 0


def ref_empty_levelset_check(p, q, samples, rng, shrink=lambda v: v):
    """The per-sample loop on scalar split quaternions of Python ints: draw
    one integer direction d at a time through random_integers, reflect the
    base point o in it to the sphere point X / L, and count the points off
    the sphere or with an i-component of the definite-axis value below
    min(p, q) L^2.  The value is also compared with its closed form
    sum c_v |X_v|_E^2.  shrink maps the weighted i-component (a planted
    defect; the identity by default)."""
    ws = (q, p, p)
    o = [1] + [0] * 11
    failures = 0
    while samples > 0:
        d = list(random_integers(rng, (12,), -3, 3))
        dv = PQVector(SplitQuaternion(*d[4 * v:4 * v + 4]) for v in range(3))
        L = module_scalar_product(dv, dv)
        if L == 0 or d[0] == 0:
            continue
        X = PQVector(SplitQuaternion(*(L * a - 2 * d[0] * b for a, b in
                                       zip(o[4 * v:4 * v + 4],
                                           d[4 * v:4 * v + 4])))
                     for v in range(3))
        values = [(h.conj() * I * h).b for h in X.entries]
        assert values == [sum(x * x for x in h.coefficients())
                          for h in X.entries]
        total = shrink(sum(c * v for c, v in zip(ws, values)))
        failures += (module_scalar_product(X, X) != L * L
                     or total < min(ws) * L * L)
        samples -= 1
    return failures


@pytest.mark.parametrize("samples", [1, 257, 10000])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (3, 4)])
def test_empty_levelset_check_matches_per_sample_loop(p, q, seed, samples):
    # a block of random_integers is the per-point blocks in a row (the
    # words of getrandbits come in generator order) unless a word is
    # rejected, which at the span 7 has probability 4 / 2^32 per word: both
    # routes leave the generator in the same state
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = empty_levelset_check(p, q, samples, rng)
    want = ref_empty_levelset_check(p, q, samples, ref_rng)
    assert type(got) is int and got == want == 0
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("p, q", [(1, 2), (2 ** 62 - 1, 2 ** 62 - 3),
                                  (2 ** 62 + 1, 2 ** 61 - 1),
                                  (2 ** 70 + 3, 2 ** 70 + 1)])
def test_empty_levelset_check_exact_at_large_weights(monkeypatch, p, q):
    # the batch runs on int64, whose weighted sum would overflow at weights
    # near 2^62; with the moment quartered (on integers) the check counts
    # shortfalls, and its count equals that of the Python-int loop
    import pqgeom.reduction as red
    moment = red._moment
    monkeypatch.setattr(red, "_moment",
                        lambda a, weights, X: moment(a, weights, X) // 4)
    rng, ref_rng = random.Random(5), random.Random(5)
    got = empty_levelset_check(p, q, 300, rng)
    want = ref_empty_levelset_check(p, q, 300, ref_rng,
                                    shrink=lambda v: v // 4)
    assert type(got) is int and got == want > 0


def test_empty_levelset_check_counts_shortfalls(monkeypatch):
    # a quarter of the i-component falls below the bound min(p, q) at some
    # points: the count sees them
    import pqgeom.reduction as red
    moment = red._moment
    monkeypatch.setattr(red, "_moment",
                        lambda a, weights, X: moment(a, weights, X) // 4)
    assert empty_levelset_check(1, 2, 257, random.Random(0)) > 0


# -- quotient-curvature oracle ------------------------------------------------
#
# The curvature of a reduction computed from first principles, with no
# use of the eigenvalue formula: Gauss for the level set inside the flat
# ambient module, then O'Neill for the submersion onto the orbit space.
# Convention R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].


def _paired(gram, forms):
    """P[x, y, z, w] = sum_ij gram^-1[i, j] forms[i][x, y] forms[j][z, w]."""
    forms = np.stack(forms)
    inner = np.tensordot(ref_inverse(gram), forms, axes=([1], [0]))
    return np.tensordot(forms, inner, axes=([0], [0]))


def _quotient_curvature(g, u, rows, hessians, generators):
    """(curvature, horizontal frame) of the quotient at the level point u.

    rows: constraint differentials df_i at u; hessians: the Hessians H_i;
    generators: matrices L_a of the linear Killing fields u -> L_a u.  A
    record Q gives them as (Q.rows @ u, Q.rows, Q.generators).
    """
    killing = np.stack([L @ u for L in generators])
    F = ref_nullspace(np.concatenate([rows, killing @ g]))
    # Gauss: <II(X,Y), II(Z,W)> = sum G^ij h_i(X,Y) h_j(Z,W)
    II2 = _paired(rows @ ref_inverse(g) @ rows.T,
                  [F.T @ H @ F for H in hessians])
    # O'Neill: <A_X Y, A_Z W> = sum Gv^ab Omega_a(X,Y) Omega_b(Z,W)
    A2 = _paired(killing @ g @ killing.T,
                 [F.T @ L.T @ g @ F for L in generators])
    low = (II2.transpose(2, 0, 1, 3) - II2.transpose(0, 2, 1, 3)
           - 2 * A2 + A2.transpose(2, 0, 1, 3) - A2.transpose(0, 2, 1, 3))
    gF = F.T @ g @ F
    tensor = np.tensordot(low, ref_inverse(gF), axes=([3], [0]))
    return CurvatureTensor.from_fractions(tensor, gF), F


@pytest.mark.parametrize("rank", [2, 3])
def test_model_is_the_sphere_quotient(rank):
    # the pseudosphere reduced by the three right unit actions: the
    # oracle's frame is the kernel of induced_geometry, and Gauss for the
    # sphere row plus O'Neill for the fiber give the closed formula of
    # projective_curvature exactly
    x = random_sphere_point(random.Random(26), rank)
    coords, Q = x.x.to_real(), sphere_quotient(rank)
    R, F = _quotient_curvature(metric_matrix(rank), coords, Q.rows @ coords,
                               Q.rows, Q.generators)
    H, (N, L, _) = induced_geometry(x)
    assert (F == exactla.from_scaled_integers(N, L)).all()
    assert R.max_abs() != 0
    assert (R - projective_curvature(H)).max_abs() == 0


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (3, 4)])
def test_reduced_jacobi_matches_quotient_curvature(p, q):
    rng = random.Random(24)
    ratios = set()
    for _ in range(3):
        u = weighted_level_sample(rng, p, q)
        x, Q = u.x.to_real(), weighted_quotient(p, q)
        R, F = _quotient_curvature(metric_matrix(3), x, Q.rows @ x, Q.rows,
                                   Q.generators)
        # the frame of admissible_directions: quotient_frame of the record
        _, (N, L, _) = quotient_frame(Q, u.x.scaled[0])
        assert (F == exactla.from_scaled_integers(N, L)).all()
        assert R.dim == 4
        assert bianchi_residual(R) == 0
        # Einstein with 12 = nu (n + 2): the reduced scalar curvature
        # nu = 4 of the ambient model survives the reduction
        assert einstein_check(R) == (12, 0)
        for X in admissible_directions(p, q, u, rng, 2):
            coords, residual = exactla.frame_coordinates(F, X)
            assert residual == 0
            # the operator of coords = C / LC normalised by g(coords,
            # coords) = C^T G C / (LG LC^2) is that of C times LG / C^T G C
            C, _ = coords
            (T, LT), _ = restrict_to_complement(R, C)
            G, LG = R.metric
            K = exactla.from_scaled_integers(T, LT) * Fraction(LG, C @ G @ C)
            # equal power sums of the 3 x 3 operator and of the formula's
            # eigenvalues fix the eigenvalues with multiplicity
            jacobi = reduced_jacobi(p, q, u, X)
            ratios.add(jacobi.ratio)
            power = eye(3)
            for k in (1, 2, 3):
                power = power @ K
                assert np.trace(power) == sum(lam ** k
                                              for lam in jacobi.eigenvalues)
    # generic points: the oracle sees the formula at several ratios
    assert len(ratios) >= 3


@pytest.mark.parametrize("rank", [2, 3])
def test_flat_quotient_is_para_hyperkahler(rank):
    rng = random.Random(25)
    h = flat_level_sample(rng, rank)
    x, Q = h.to_real(), moment_quotient(0, (1,) * rank)
    R, F = _quotient_curvature(metric_matrix(rank), x, Q.rows @ x, Q.rows,
                               Q.generators)
    H, (N, L, _) = flat_reduced_structure(h)
    assert exactla.max_abs(F - exactla.from_scaled_integers(N, L)) == 0
    assert R.max_abs() != 0
    assert bianchi_residual(R) == 0
    assert exactla.max_abs(ricci(R)[0]) == 0
    # every R(X, Y) commutes with the descended structure
    M = R.fractions().transpose(0, 1, 3, 2)
    for Ja in H.J:
        assert exactla.max_abs(M @ Ja - Ja @ M) == 0
