import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqgeom import exactla
from pqgeom.algebra import EPS, I, J, SplitQuaternion, scalar_product
from pqgeom.curvature import (curvature_from_bilinear, projective_curvature,
                              ricci, ricci_split, weyl_sample)
from pqgeom.forms import BilinearForm
from pqgeom.linalg import (TENSOR_BLOCKS, DegenerateStructureError,
                           _random_coefficients,
                           HermitianStructure, PQMatrix, PQVector,
                           RankMismatchError, adopted_basis, batch_matmul,
                           format_matrix, grassman_split, left_mult_matrix,
                           left_structure_endos, metric_matrix,
                           module_scalar_product, parse_matrix,
                           random_antihermitian, random_integers,
                           random_quaternion, real_rep,
                           sp_membership, structure_endos, structure_from_text,
                           structure_to_text, symplectic_form)


def zeros(shape) -> np.ndarray:
    """Object array of Fraction zeros."""
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [Fraction(0)] * arr.size
    return arr


def eye(n) -> np.ndarray:
    """The n x n identity matrix of Fractions."""
    arr = zeros((n, n))
    arr[range(n), range(n)] = Fraction(1)
    return arr


def ref_right_mul(x, q) -> np.ndarray:
    """Real coordinates of h q entrywise, for the vector h with the real
    coordinates x, by SplitQuaternion products on the scalar type of x."""
    x = np.asarray(x)
    return np.array([c for v in range(len(x) // 4)
                     for c in (SplitQuaternion(*x[4 * v:4 * v + 4])
                               * q).coefficients()], dtype=x.dtype)


def ref_left_mul(x, q) -> np.ndarray:
    """Real coordinates of q h entrywise, as ref_right_mul."""
    x = np.asarray(x)
    return np.array([c for v in range(len(x) // 4)
                     for c in (q * SplitQuaternion(*x[4 * v:4 * v + 4])
                               ).coefficients()], dtype=x.dtype)


def right_mul(h: PQVector, q) -> PQVector:
    """The right scalar action h q, entry by entry."""
    return PQVector(a * q for a in h.entries)


def ref_module_scalar_product(h: PQVector, hp: PQVector):
    """Re sum h_v conj(h'_v) by scalar products of the entries: the
    reference for the integer route of module_scalar_product."""
    return sum(scalar_product(a, b) for a, b in zip(h.entries, hp.entries))


def random_pq_vector(rng, n: int) -> PQVector:
    """A vector of random_quaternion(rng, 5) entries, drawn on integers."""
    C, L = _random_coefficients(rng, n, 5)
    return PQVector.from_scaled_integers(C.T.reshape(-1), L)


def random_pq_matrix(rng, n: int) -> PQMatrix:
    """A matrix of random_quaternion(rng, 3) entries, row by row, drawn on
    integers."""
    C, L = _random_coefficients(rng, n * n, 3)
    return PQMatrix.from_scaled_integers(C.reshape(4, n, n), L)


def ref_random_pq_vector(rng, n):
    """The Fraction draws random_pq_vector made before it drew integers."""
    return PQVector(random_quaternion(rng, 5) for _ in range(n))


def test_module_scalar_product_examples():
    one = PQVector([SplitQuaternion(1)])
    jv = PQVector([J])
    assert module_scalar_product(one, one) == 1
    assert module_scalar_product(jv, jv) == -1
    with pytest.raises(RankMismatchError):
        module_scalar_product(one, PQVector([I, J]))


def test_scalar_product_matches_complex_form():
    rng = random.Random(0)
    for _ in range(60):
        h = random_pq_vector(rng, 2)
        hp = random_pq_vector(rng, 2)
        lhs = module_scalar_product(h, hp)
        rhs = 0
        for a, b in zip(h.entries, hp.entries):
            (r1, i1), (r2, i2) = a.complex_rep_exact()
            (s1, t1), (s2, t2) = b.complex_rep_exact()
            rhs += (r1 * s1 + i1 * t1) - (r2 * s2 + i2 * t2)
        assert lhs == rhs


def test_right_action_distributes():
    rng = random.Random(1)
    h = random_pq_vector(rng, 3)
    q = random_quaternion(rng)
    qp = random_quaternion(rng)
    assert right_mul(right_mul(h, q), qp) == right_mul(h, q * qp)
    A = random_pq_matrix(rng, 3)
    assert (A @ right_mul(h, q)) == right_mul(A @ h, q)


def test_vector_holds_one_integer_pair():
    rng = random.Random(2)
    entries = [random_quaternion(rng) for _ in range(3)]
    h = PQVector(entries)
    C, L = h.scaled
    assert C.shape == (12,) and all(type(c) is int for c in C)
    # the pair is the least common denominator form of the coordinates
    coords = np.array([c for q in entries for c in q.coefficients()],
                      dtype=object)
    want, LW = exactla.scaled_integers(coords)
    assert (C == want).all() and L == LW
    assert h.entries == tuple(entries) and h.rank == 3
    assert (h.to_real() == coords).all()
    assert all(type(c) is Fraction for c in h.to_real())
    # == compares values: (2C, 2L) is the same vector
    assert PQVector.from_scaled_integers(2 * C, 2 * L) == h
    C2 = C.copy()
    C2[5] += 1
    assert PQVector.from_scaled_integers(C2, L) != h
    assert h != PQVector(entries[:2])
    # the view over the scale 1 has int coefficients
    one = PQVector([SplitQuaternion(Fraction(2), 0, 1, Fraction(-3))])
    assert one.scaled[1] == 1
    assert all(type(c) is int for c in one.entries[0].coefficients())


@pytest.mark.parametrize("bad", [SplitQuaternion(0.5),
                                 SplitQuaternion(1, 2.0)])
def test_vector_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError, match="exact arithmetic"):
        PQVector([SplitQuaternion(1), bad])


def test_vector_products_match_entry_loops():
    # the integer routes of module_scalar_product and PQMatrix @ PQVector
    # against scalar products and sums over the entries
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(10):
            h, hp = random_pq_vector(rng, n), random_pq_vector(rng, n)
            got = module_scalar_product(h, hp)
            assert type(got) is Fraction
            assert got == ref_module_scalar_product(h, hp)
            A = random_pq_matrix(rng, n)
            want = PQVector(sum((A.entries[r][c] * h.entries[c]
                                 for c in range(n)), SplitQuaternion())
                            for r in range(n))
            assert A @ h == want


@pytest.mark.parametrize("seed", range(10))
def test_random_vectors_match_fraction_draws(seed):
    for n in (1, 2, 3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = random_pq_vector(rng, n), ref_random_pq_vector(ref_rng, n)
        assert got == want and got.entries == want.entries
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_endos_relations(n):
    H = structure_endos(n)
    assert H.comrel_residual() == 0
    assert H.skew_residual() == 0
    assert H.signature() == (2 * n, 2 * n)
    # J1 preserves the metric, J2 and J3 reverse it
    assert exactla.max_abs(H.J[0].T @ H.g @ H.J[0] - H.g) == 0
    assert exactla.max_abs(H.J[1].T @ H.g @ H.J[1] + H.g) == 0
    assert exactla.max_abs(H.J[2].T @ H.g @ H.J[2] + H.g) == 0
    # the span carries [J1, J2] = 2 J3
    assert exactla.max_abs(H.J[0] @ H.J[1] - H.J[1] @ H.J[0]
                           - 2 * H.J[2]) == 0


def test_left_structure_commutes():
    for n in (1, 2):
        H = structure_endos(n)
        L = left_structure_endos(n)
        assert L.comrel_residual() == 0
        assert L.skew_residual() == 0
        assert max(exactla.max_abs(A @ B - B @ A)
                   for A in H.J for B in L.J) == 0


@pytest.mark.parametrize("build", [structure_endos, left_structure_endos])
def test_structures_built_once_and_read_only(build):
    H = build(2)
    assert build(2) is H
    assert build(1) is not H
    for arr in (*H.J, H.g):
        with pytest.raises(ValueError):
            arr[0, 0] = Fraction(7)
    # the two sides are cached apart
    assert left_structure_endos(2) is not structure_endos(2)


def test_span_coefficients_member_and_non_member():
    H = structure_endos(1)
    A = 2 * H.J[0] - H.J[2]
    assert H.span_coefficients(A) == (2, 0, -1)
    assert H.span_coefficients(H.g) is None


def test_frame_coordinates_residual():
    frame = exactla.fracarray([[1, 0], [1, 1], [0, 2]])
    inside = exactla.fracarray([[2], [5], [6]])
    (C, LC), residual = exactla.frame_coordinates(frame, inside)
    assert residual == 0 and (C[:, 0].tolist(), LC) == ([2, 3], 1)
    _, residual = exactla.frame_coordinates(
        frame, exactla.fracarray([[1], [0], [0]]))
    assert residual > 0


def test_exact_elimination_keeps_int_inputs_exact():
    # int-valued object arrays must not pass through int / int division
    a = np.array([[3, 1], [1, 1]], dtype=object)
    H = structure_endos(1)
    # solve and inverse: Python ints over the least common denominator
    X, L = exactla.solve(a, np.array([1, 0], dtype=object))
    assert (X.tolist(), L) == ([1, -1], 2)
    Y, LY = exactla.inverse(a)
    assert (Y.tolist(), LY) == ([[1, -1], [-1, 3]], 2)
    assert all(type(x) is int for x in [*X, *Y.reshape(-1), L, LY])
    span = H.span_coefficients(H.J[0] + 2 * H.J[1])
    assert all(type(x) is Fraction for x in span)
    assert list(span) == [1, 2, 0]
    # the kernel basis (-1/3, 1, 0), (-2/3, 0, 1) as Python ints over 3
    N, L, free = exactla.nullspace(np.array([[3, 1, 2]], dtype=object))
    assert (N.tolist(), L, free) == ([[-1, -2], [3, 0], [0, 3]], 3, [1, 2])
    assert all(type(x) is int for x in N.reshape(-1))
    # 3 v v^T - 7 w w^T has rank 2; float pivots miss its null direction
    sym = np.array([[-51, 81, 63], [81, -36, -63], [63, -63, -63]],
                   dtype=object)
    assert exactla.inertia(sym) == (1, 1, 1)


def test_exact_elimination_on_fixed_width_arrays():
    # int64 rows divided in place used to truncate: solve gave [0, 0]
    a = np.array([[3, 1], [1, 1]])
    X, L = exactla.solve(a, np.array([1, 0]))
    assert (X.tolist(), L) == ([1, -1], 2)
    assert all(type(v) is int for v in [*X, L])
    assert exactla.inertia(np.array([[0, 1], [1, 0]])) == (1, 1, 0)
    assert exactla.rank(np.array([[2, 4], [1, 2]], dtype=np.int32)) == 1
    N, L, free = exactla.nullspace(np.array([[3, 1, 2]]))
    assert (N.tolist(), L, free) == ([[-1, -2], [3, 0], [0, 3]], 3, [1, 2])
    assert all(type(v) is int for v in N.reshape(-1)) and type(L) is int
    # floats have no exact elimination: refuse instead of rounding
    for routine in (exactla.rank, exactla.nullspace, exactla.inertia):
        with pytest.raises(TypeError):
            routine(a.astype(float))
    with pytest.raises(TypeError):
        exactla.solve(a.astype(float), np.array([1.0, 0.0]))


def test_inverse_and_solve_check_both_operands():
    # concatenating a float matrix with an object operand yields an object
    # array; the float elimination that followed gave 0.49999999999999994
    a = np.array([[3., 1.], [1., 1.]])
    with pytest.raises(TypeError):
        exactla.inverse(a)
    with pytest.raises(TypeError):
        exactla.solve(a, exactla.fracarray([1, 0]))
    with pytest.raises(TypeError):
        exactla.solve(exactla.fracarray([[3, 1], [1, 1]]), np.array([1., 0.]))


def test_scaled_integers_roundtrip():
    arr = np.array([[Fraction(1, 2), Fraction(-2, 3)], [3, np.int64(4)]],
                   dtype=object)
    N, L = exactla.scaled_integers(arr)
    assert L == 6 and N.tolist() == [[3, -4], [18, 24]]
    assert all(type(x) is int for x in N.reshape(-1))
    back = exactla.from_scaled_integers(N, L)
    assert back.shape == arr.shape and (back == arr).all()
    assert all(type(x) is Fraction for x in back.reshape(-1))
    N, L = exactla.scaled_integers(np.arange(3))
    assert L == 1 and all(type(x) is int for x in N)
    N, L = exactla.scaled_integers(zeros((0, 3)))
    assert L == 1 and N.shape == (0, 3)


@pytest.mark.parametrize("arr", [
    np.array([0.5, 1.0]),
    np.array([1 + 2j]),
    np.array([Fraction(1), 0.5], dtype=object),
    np.array([True, False]),
], ids=["float64", "complex", "object-float", "numpy-bool"])
def test_scaled_integers_reject_inexact_entries(arr):
    # numpy bools are not integers, in the package and the reference alike
    for routine in (exactla.scaled_integers, ref_scaled_integers):
        with pytest.raises(TypeError):
            routine(arr)


def test_integer_views_refuse_non_integer_entries():
    # a view reads its entries through operator.index, where int() would
    # truncate 0.5 to 0 and 1.7 to 1: a float or a Fraction entry raises
    for N in (np.array([0.5, 1.7]), np.array([2, 0.5], dtype=object),
              np.array([1, 1.0], dtype=object),
              np.array([Fraction(1, 2)], dtype=object)):
        with pytest.raises(TypeError):
            exactla.from_scaled_integers(N, 1)
    with pytest.raises(TypeError):
        PQVector.from_scaled_integers(np.array([0.5, 0, 0, 0]), 1).to_real()
    with pytest.raises(TypeError):
        BilinearForm(np.array([[0.5]]), 1).matrix
    # Python and numpy ints pass
    for N in (np.array([3, -4]), np.array([3, -4], dtype=object)):
        view = exactla.from_scaled_integers(N, 2)
        assert list(view) == [Fraction(3, 2), -2]
        assert {type(x) for x in view} == {Fraction}


def test_integer_pairs_refuse_float_and_complex_arrays():
    # the constructors from integer pairs read the dtype, no entry: a
    # float or complex array raises TypeError, int64 and object arrays
    # pass, and the views at scale 1 read their entries through
    # operator.index, so a float entry of an object array raises there
    H = structure_endos(1)
    (Js, _), (g, _) = H.scaled_J, H.scaled_g
    for dtype in (float, complex):
        for build in (
                lambda: PQVector.from_scaled_integers(
                    np.array([0.5, 0, 0, 0], dtype=dtype), 1),
                lambda: PQMatrix.from_scaled_integers(
                    np.zeros((4, 1, 1), dtype=dtype), 1),
                lambda: BilinearForm(np.full((4, 4), 0.5, dtype=dtype), 1),
                lambda: HermitianStructure(*Js.astype(dtype), g.astype(dtype),
                                           scales=(1, 1)),
                lambda: HermitianStructure(*Js, g.astype(dtype),
                                           scales=(1, 1))):
            with pytest.raises(TypeError):
                build()
    for dtype in (np.int64, object):
        v = PQVector.from_scaled_integers(np.array([1, 0, 2, 0], dtype=dtype),
                                          1)
        assert v.entries == (SplitQuaternion(1, 0, 2, 0),)
        assert all(type(c) is int for c in v.entries[0].coefficients())
        M = PQMatrix.from_scaled_integers(np.arange(4, dtype=dtype).reshape(
            4, 1, 1), 1)
        assert all(type(c) is int for c in M.entries[0][0].coefficients())
        Hs = HermitianStructure(*Js.astype(dtype), g.astype(dtype),
                                scales=(1, 1))
        assert Hs.comrel_residual() == 0
    with pytest.raises(TypeError):
        PQVector.from_scaled_integers(np.array([0.5, 0, 0, 0], dtype=object),
                                      1).entries
    with pytest.raises(TypeError):
        PQMatrix.from_scaled_integers(
            np.array([0.5, 0, 0, 0], dtype=object).reshape(4, 1, 1), 1).entries


def ref_scaled_integers(arr):
    """The three-pass scaled_integers: a type check per entry, the set of
    denominators, then one numerator at a time.  The reference for the
    package routine."""
    flat = np.asarray(arr).reshape(-1)
    for x in flat:
        if not isinstance(x, (Fraction, int, np.integer)):
            raise TypeError(type(x).__name__)
    L = math.lcm(*{x.denominator for x in flat})
    N = np.empty(np.shape(arr), dtype=object)
    out = N.reshape(-1)
    for i, x in enumerate(flat):
        out[i] = int(x.numerator) * (L // x.denominator)
    return N, L


_exact_entries = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(max_denominator=60),
    st.integers(-2**40, 2**40).map(np.int64),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exact_entries, max_size=24))
def test_scaled_integers_matches_three_pass_reference(entries):
    arr = np.empty(len(entries), dtype=object)
    arr[:] = entries
    N, L = exactla.scaled_integers(arr)
    want, want_L = ref_scaled_integers(arr)
    assert L == want_L and N.tolist() == want.tolist()
    assert all(type(x) is int for x in N)


@pytest.mark.parametrize("routine", [
    exactla.rank, exactla.nullspace, exactla.inertia, exactla.inverse,
    lambda a: exactla.solve(a, np.array([1, 1], dtype=object)),
    lambda a: exactla.frame_coordinates(a, np.array([1, 1], dtype=object)),
], ids=["rank", "nullspace", "inertia", "inverse", "solve",
        "frame_coordinates"])
def test_exact_routines_reject_object_arrays_holding_floats(routine):
    # the float used to ride along: solve returned [0.5, Fraction(1)]
    with pytest.raises(TypeError):
        routine(np.array([[1, 0.5], [0.5, 1]], dtype=object))


@pytest.mark.parametrize("mat", [[[1, 2], [0, 1]], [[1, 2, 3]]],
                         ids=["non-symmetric", "non-square"])
def test_inertia_rejects_non_symmetric_input(mat):
    # used to give (2, 0, 0) and (1, 0, 0)
    with pytest.raises(ValueError):
        exactla.inertia(exactla.fracarray(mat))
    with pytest.raises(ValueError):
        exactla.signature(exactla.fracarray(mat))


# -- integer elimination against the Fraction reference ----------------------
#
# exactla eliminates on scaled Python ints.  The references below are the
# Fraction Gauss-Jordan elimination it replaced, and a Fraction
# determinant for the tests that need one.


def ref_echelon(mat):
    a = mat.astype(object)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] / Fraction(a[r, c])
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def ref_solve(a, b):
    n = a.shape[0]
    red, pivots = ref_echelon(np.concatenate([a, b.reshape(n, -1)], axis=1))
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    x = red[:n, n:]
    return x.reshape(b.shape) if b.ndim == 1 else x


def ref_inverse(a):
    return ref_solve(a, eye(len(a)))


def ref_nullspace(mat):
    rows, cols = mat.shape
    red, pivots = ref_echelon(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((cols, len(free)))
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc, k] = -red[r, fc]
    return basis


def ref_det(mat):
    a = mat.astype(object)
    n = a.shape[0]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i, c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            d = -d
        d *= a[c, c]
        for i in range(c + 1, n):
            if a[i, c] != 0:
                a[i] = a[i] - (a[i, c] / Fraction(a[c, c])) * a[c]
    return d


def ref_inertia(sym):
    """Symmetric Gaussian reduction with Fraction coefficients, the
    routine the fraction-free inertia replaced; the reference for it."""
    a = exactla.fracarray(sym)
    n = a.shape[0]
    plus = minus = zero = 0
    rows = list(range(n))
    while rows:
        i = next((r for r in rows if a[r, r] != 0), None)
        if i is None:
            # all remaining diagonal entries vanish: find an off-diagonal
            # coupling and split it into a hyperbolic (+1, -1) pair
            pair = None
            for r in rows:
                for s in rows:
                    if s > r and a[r, s] != 0:
                        pair = (r, s)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(rows)
                break
            r, s = pair
            a[r] = a[r] + a[s]
            a[:, r] = a[:, r] + a[:, s]
            continue
        d = a[i, i]
        if d > 0:
            plus += 1
        else:
            minus += 1
        rows.remove(i)
        for r in rows:
            if a[r, i] != 0:
                coef = a[r, i] / d
                a[r] = a[r] - coef * a[i]
                a[:, r] = a[:, r] - coef * a[:, i]
    return plus, minus, zero


def assert_same_fractions(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for x, y in zip(got.reshape(-1), want.reshape(-1)):
        assert type(x) is Fraction and type(y) is Fraction
        assert x == y


def ref_outcome(routine, *args):
    try:
        return routine(*args)
    except ValueError:
        return ValueError


entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 15),
)


def fraction_matrix(draw, rows, cols):
    return exactla.fracarray(
        draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)))


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """Dense, rank-deficient, zero-column or int64 matrices; square when
    rows == cols is forced, wide or tall otherwise."""
    rows = rows or draw(st.integers(1, 6))
    cols = cols or draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "low-rank", "zero-columns",
                                 "int64"]))
    if kind == "int64":
        ints = st.integers(-2 ** 40, 2 ** 40) | st.integers(-3, 3)
        return np.array(draw(st.lists(
            st.lists(ints, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)), dtype=np.int64)
    if kind == "low-rank":
        k = draw(st.integers(1, min(rows, cols)))
        mat = (fraction_matrix(draw, rows, k - 1)
               @ fraction_matrix(draw, k - 1, cols))
        return mat if k > 1 else zeros((rows, cols))
    mat = fraction_matrix(draw, rows, cols)
    if kind == "zero-columns":
        for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            mat[:, c] = Fraction(0)
    return mat


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 6))
    a = draw(rational_matrices(n, n))
    b = draw(rational_matrices(n, draw(st.integers(1, 3))))
    return a, b


def ref_max_abs(arr):
    """The per-entry max_abs: one absolute value per entry.  The reference
    for the package routine."""
    flat = np.asarray(arr).reshape(-1)
    if flat.size == 0:
        return Fraction(0)
    return max(abs(x) for x in flat)


def _object_array(entries):
    arr = np.empty(len(entries), dtype=object)
    arr[:] = entries
    return arr


@settings(max_examples=150)
@given(st.one_of(
    rational_matrices(),
    st.lists(st.integers(-10**20, 10**20), max_size=12).map(_object_array),
    st.lists(st.floats(-1e6, 1e6), max_size=12).map(np.array),
))
def test_max_abs_matches_per_entry_reference(arr):
    # arrays of one entry type: Fraction, Python int, int64 or float
    got, want = exactla.max_abs(arr), ref_max_abs(arr)
    assert got == want and type(got) is type(want)


@settings(max_examples=150)
@given(rational_matrices())
def test_rank_and_nullspace_match_fraction_reference(mat):
    _, pivots = ref_echelon(mat)
    assert exactla.rank(mat) == len(pivots)
    N, L, free = exactla.nullspace(mat)
    assert_same_fractions(exactla.from_scaled_integers(N, L),
                          ref_nullspace(mat))
    assert (N[free] == L * np.eye(len(free), dtype=object)).all()
    # L is the least common denominator of the basis
    assert L == exactla.scaled_integers(ref_nullspace(mat))[1]


@settings(max_examples=150)
@given(square_systems())
def test_solve_inverse_match_fraction_reference(system):
    # solve and inverse return (X, L): X / L must be the Fraction solution,
    # and L its least common denominator
    a, b = system
    for got, want in [
        (lambda: exactla.solve(a, b), ref_outcome(ref_solve, a, b)),
        (lambda: exactla.solve(a, b[:, 0]),
         ref_outcome(ref_solve, a, b[:, 0])),
        (lambda: exactla.inverse(a), ref_outcome(ref_inverse, a)),
    ]:
        if want is ValueError:
            with pytest.raises(ValueError):
                got()
        else:
            X, L = got()
            assert_same_fractions(exactla.from_scaled_integers(X, L), want)
            assert L == exactla.scaled_integers(want)[1]
            assert all(type(x) is int for x in [*X.reshape(-1), L])


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer or rational matrices: M + M^T, Gram matrices
    P^T D P of a wide, tall or rank-deficient P (singular when P has
    fewer independent rows than columns), and M + M^T with its diagonal
    zeroed, which takes the hyperbolic-pair branch."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["sum", "gram", "zero-diagonal"]))
    if kind == "gram":
        P = draw(rational_matrices(cols=n)).astype(object)
        signs = draw(st.lists(st.sampled_from([-3, -1, 1, 2]),
                              min_size=len(P), max_size=len(P)))
        return P.T @ np.diag(np.array(signs, dtype=object)) @ P
    M = draw(rational_matrices(n, n)).astype(object)
    sym = M + M.T
    if kind == "zero-diagonal":
        sym[range(n), range(n)] = 0
    return sym


@settings(max_examples=200)
@given(symmetric_matrices())
def test_inertia_matches_fraction_reference(sym):
    got = exactla.inertia(sym)
    assert got == ref_inertia(sym)
    assert sum(got) == len(sym)


@settings(max_examples=100)
@given(st.data())
def test_frame_coordinates_match_fraction_reference(data):
    rows = data.draw(st.integers(1, 6))
    frame = data.draw(rational_matrices(rows, data.draw(st.integers(1, rows))))
    target = data.draw(rational_matrices(rows, data.draw(st.integers(1, 3))))
    if data.draw(st.booleans()):
        target = target[:, 0]
    # Python ints: int64 products of 2^40-sized entries would overflow
    f, t = frame.astype(object), target.astype(object)
    want = ref_outcome(ref_solve, f.T @ f, f.T @ t)
    if want is ValueError:
        with pytest.raises(ValueError):
            exactla.frame_coordinates(frame, target)
        return
    (C, LC), residual = exactla.frame_coordinates(frame, target)
    assert_same_fractions(exactla.from_scaled_integers(C, LC), want)
    assert LC == exactla.scaled_integers(want)[1]
    assert_same_fractions(residual, exactla.max_abs(f @ want - t))


@settings(max_examples=100)
@given(st.data())
def test_kernel_coordinates_read_off_match_frame_coordinates(data):
    # a target T / LT in the span of the kernel frame N / L has the
    # coordinates T[free] / LT, certified by N @ T[free] == L T
    mat = data.draw(rational_matrices())
    N, L, free = exactla.nullspace(mat)
    if not free:
        return
    mix = np.array(data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=len(free), max_size=len(free)),
        min_size=1, max_size=3)), dtype=object).T
    LT = data.draw(st.integers(1, 50))
    T = N @ mix
    assert (N @ T[free] == L * T).all()
    coords, residual = exactla.frame_coordinates(
        exactla.from_scaled_integers(N, L),
        exactla.from_scaled_integers(T, LT))
    assert residual == 0
    assert_same_fractions(exactla.from_scaled_integers(T[free], LT),
                          exactla.from_scaled_integers(*coords))
    # a target off the span fails the integer test
    if len(free) < mat.shape[1]:
        off = T.copy()
        off[[c for c in range(mat.shape[1]) if c not in free][0]] += 1
        assert (N @ off[free] != L * off).any()


def test_contract_matches_tensordot():
    # every axis of a random Python-int 4-tensor, against tensordot
    rng = random.Random(3)
    shape = (3, 4, 2, 5)
    T = np.array([rng.randint(-9, 9) for _ in range(int(np.prod(shape)))],
                 dtype=object).reshape(shape)
    for axis, k in enumerate(shape):
        perm = list(range(k))
        rng.shuffle(perm)
        signed = np.zeros((k, k), dtype=object)
        for i, j in enumerate(perm):
            signed[i, j] = rng.choice((1, -1))
        dense = np.array([[rng.randint(-5, 5) for _ in range(k)]
                          for _ in range(k)], dtype=object)
        rect = np.array([[rng.randint(-5, 5) for _ in range(k)]
                         for _ in range(k + 2)], dtype=object)
        zero = np.zeros((k + 1, k), dtype=object)
        for A in (signed, dense, rect, zero, dense.astype(np.int64)):
            got = exactla.contract(T, A, axis)
            want = np.moveaxis(np.tensordot(A, T, axes=([1], [axis])),
                               0, axis)
            assert got.shape == want.shape
            assert (got == want).all()
            assert all(type(x) is int for x in got.reshape(-1))
        assert not exactla.contract(T, zero, axis).any()


def test_words_bound_and_entry_types():
    # every array as int64 when the entries are integers, growth *
    # max(1, max|arrays[0]|) is below 2^62 and every other array fits,
    # every array as Python ints otherwise; nothing is truncated, and a
    # non-integer entry or dtype raises TypeError
    top = 2 ** 62
    ints = np.array([3, -(top - 1), 0], dtype=object)
    w, = exactla.words(1, ints)
    assert w.dtype == np.int64 and (w == ints).all()
    machine = np.array([1, -2], dtype=np.int64)
    assert exactla.words(1, machine)[0] is machine
    for arr, dtype in [(np.array([np.int64(5), 7], dtype=object), object),
                       (np.array([5, 7], dtype=np.int32), np.int32),
                       (np.array([True, False]), bool)]:
        assert arr.dtype == dtype
        w, = exactla.words(3, arr)
        assert (w == arr).all() and w.dtype == np.int64
    assert exactla.words(
        2, np.array([2 ** 61 - 1], dtype=object))[0].dtype == np.int64
    empty, = exactla.words(1, np.zeros((2, 0), dtype=object))
    assert empty.shape == (2, 0) and empty.dtype == np.int64
    for arr, growth in [(np.array([top], dtype=object), 1),
                        (np.array([-top], dtype=object), 1),
                        (np.array([2 ** 61], dtype=object), 2),
                        (ints, 2),
                        (np.array([np.iinfo(np.int64).min]), 1),
                        (np.zeros(3, dtype=np.int64), top),
                        # growth 0 (a multiple by 0) keeps the entry bound
                        (np.array([top], dtype=object), 0)]:
        wide, = exactla.words(growth, arr)
        assert wide.dtype == object and (wide == arr).all()
        assert all(isinstance(x, int) for x in wide)
    for arr in [np.array([Fraction(1, 2)], dtype=object),
                np.array([Fraction(2)], dtype=object),
                np.array([0.5, 1], dtype=object),
                np.array([1.0]), np.array([1j])]:
        with pytest.raises(TypeError):
            exactla.words(1, arr)
    # all or none: the other arrays are bounded at growth 1, and one that
    # does not fit widens the first, as the growth of the first does
    small = np.array([1, -2], dtype=np.int64)
    for growth, other in [(1, np.array([top], dtype=object)),
                          (top, np.array([1], dtype=object))]:
        got = exactla.words(growth, small, other)
        assert [a.dtype for a in got] == [object, object]
        assert (got[0] == small).all() and (got[1] == other).all()
    got = exactla.words(2 ** 61 - 1, np.array([1], dtype=object),
                        np.array([top - 1], dtype=object))
    assert [a.dtype for a in got] == [np.int64, np.int64]


def test_contract_keeps_machine_integers():
    # an int64 tensor is contracted on int64, with the values of the
    # Python-int contraction
    rng = random.Random(4)
    T = np.array([rng.randint(-9, 9) for _ in range(3 ** 4)],
                 dtype=object).reshape(3, 3, 3, 3)
    A = np.array([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)],
                 dtype=object)
    for axis in range(4):
        got = exactla.contract(T.astype(np.int64), A, axis)
        assert got.dtype == np.int64
        assert (got == exactla.contract(T, A, axis)).all()


def ref_ricci_operator(H):
    """The Ricci map B -> Ric(R^B) of the linear family on the row-major
    vec(B), assembled on Fractions: (d + 3) I - P + Psi + P Psi with
    Psi = sum_a eps_a J_a^T (x) J_a^T and P the permutation taking vec(B)
    to vec(B^T).  Solved with ref_solve, it is the reference for the
    eigenspace inversion of ricci_split."""
    d = H.dim
    psi = sum(eps * np.kron(Ja.T, Ja.T) for eps, Ja in zip(EPS, H.J))
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    P = eye(d * d)[transpose]
    return (d + 3) * eye(d * d) - P + psi + psi[transpose]


def random_invertible(rng, dim):
    while True:
        P = exactla.fracarray([[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                for _ in range(dim)] for _ in range(dim)])
        if exactla.rank(P) == dim:
            return P


def test_ricci_operator_solve_matches_fraction_reference():
    # the 144 x 144 system at n = 3
    H = structure_endos(3)
    d = H.dim
    op = ref_ricci_operator(H)
    R = (projective_curvature(H).times(Fraction(3, 7))
         + weyl_sample(H, grassman_split(H), random.Random(5)))
    rhs = fractions_of(ricci(R)).reshape(-1)
    want = ref_solve(op, rhs)
    assert_same_fractions(exactla.from_scaled_integers(*exactla.solve(op, rhs)),
                          want)
    _, B = ricci_split(R, H)
    assert_same_fractions(B.matrix, want.reshape(d, d))


@pytest.mark.parametrize("kind", ["standard", "conjugated"])
@pytest.mark.parametrize("n", [1, 2])
def test_ricci_split_matches_operator_reference(n, kind):
    # 2 R_0 + W + R^B with a Weyl sample W and a seeded non-symmetric B:
    # the eigenspace inversion of ricci_split against the Fraction solve
    # of the assembled operator, on the standard structure and on a
    # conjugated one (entries with denominators)
    rng = random.Random(30 + n)
    H = structure_endos(n)
    if kind == "conjugated":
        P = random_invertible(rng, H.dim)
        Pinv = ref_inverse(P)
        H = HermitianStructure(*[Pinv @ Ja @ P for Ja in H.J], P.T @ H.g @ P)
    d = H.dim
    B = exactla.fracarray([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(d)] for _ in range(d)])
    assert exactla.max_abs(B - B.T) != 0
    W = weyl_sample(H, grassman_split(H), rng)
    R = (projective_curvature(H).times(Fraction(2)) + W
         + curvature_from_bilinear(BilinearForm(B), H))
    want = ref_solve(ref_ricci_operator(H), fractions_of(ricci(R)).reshape(-1))
    Wp, Bp = ricci_split(R, H)
    assert_same_fractions(Bp.matrix, want.reshape(d, d))
    assert exactla.max_abs(Bp.matrix - (2 * H.g + B)) == 0
    assert_same_fractions(Wp.fractions(), W.fractions())


def test_structure_validation():
    H = structure_endos(1)
    with pytest.raises(DegenerateStructureError):
        HermitianStructure(H.J[0], H.J[1], H.J[0], H.g)


def test_structure_residuals_match_fraction_reference():
    # the residuals are computed on scaled integers; the plain Fraction
    # products are the reference, on a conjugated structure (entries with
    # denominators) with J_1 and g perturbed so that both are nonzero
    rng = random.Random(11)
    H = structure_endos(2)
    P = random_invertible(rng, H.dim)
    Pinv = ref_inverse(P)
    J = [Pinv @ Ja @ P for Ja in H.J]
    g = P.T @ H.g @ P
    J[0][1, 2] += Fraction(1, 7)
    g[0, 3] += Fraction(2, 5)
    Hp = HermitianStructure(*J, g, validate=False)
    one = eye(H.dim)
    table = {
        (0, 0): -EPS[0] * one, (1, 1): -EPS[1] * one, (2, 2): -EPS[2] * one,
        (0, 1): -EPS[2] * J[2], (1, 0): EPS[2] * J[2],
        (1, 2): -EPS[0] * J[0], (2, 1): EPS[0] * J[0],
        (2, 0): -EPS[1] * J[1], (0, 2): EPS[1] * J[1],
    }
    comrel = max(exactla.max_abs(J[a] @ J[b] - want)
                 for (a, b), want in table.items())
    skew = max(exactla.max_abs(Ja.T @ g + g @ Ja) for Ja in J)
    assert comrel != 0 and skew != 0
    for got, want in ((Hp.comrel_residual(), comrel),
                      (Hp.skew_residual(), skew)):
        assert got == want and type(got) is Fraction


def real_rep_fractions(A):
    """The Fraction array of the (integer array, scale) pair real_rep(A)."""
    return exactla.from_scaled_integers(*real_rep(A))


def real_action_fractions(A):
    """The Fraction array of the pair A.to_real_action()."""
    return exactla.from_scaled_integers(*A.to_real_action())


def test_real_rep_entry_formula():
    q = SplitQuaternion(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    R = real_rep_fractions(PQMatrix([[q]]))
    a, b, c, d = 1, 2, 3, 4
    assert R[0, 0] == a + d and R[0, 1] == b + c
    assert R[1, 0] == c - b and R[1, 1] == a - d
    assert exactla.max_abs(real_rep_fractions(PQMatrix.identity(3))
                           - eye(6)) == 0


def ref_complex_rep_matrix(A):
    """Complex 2n x 2n block representation (float entries): entry q maps
    to [[z1, conj(z2)], [z2, conj(z1)]].  The reference for real_rep."""
    n = A.rank
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for p in range(n):
        for q in range(n):
            z1, z2 = (complex(*z) for z in A.entries[p][q].complex_rep_exact())
            out[2 * p:2 * p + 2, 2 * q:2 * q + 2] = [[z1, z2.conjugate()],
                                                     [z2, z1.conjugate()]]
    return out


def test_real_rep_matches_conjugated_complex_block():
    # numerically conjugate the complex block picture by the fixed
    # change of basis and compare with the closed all-real formula
    rng = random.Random(3)
    blocks = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    for n in (1, 2):
        M = np.kron(np.eye(n), blocks)
        A = random_pq_matrix(rng, n)
        conj = M @ ref_complex_rep_matrix(A) @ np.linalg.inv(M)
        assert np.max(np.abs(conj.imag)) < 1e-12
        assert np.max(np.abs(conj.real - np.array(real_rep_fractions(A),
                                                  dtype=float))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_rep_is_algebra_isomorphism(n):
    rng = random.Random(10 + n)
    for _ in range(40):
        A = random_pq_matrix(rng, n)
        B = random_pq_matrix(rng, n)
        RA, RB = real_rep_fractions(A), real_rep_fractions(B)
        assert exactla.max_abs(real_rep_fractions(A @ B) - RA @ RB) == 0
        lhs = real_rep_fractions(A.commutator(B))
        rhs = RA @ RB - RB @ RA
        assert exactla.max_abs(lhs - rhs) == 0


def ref_pq_matmul(A, B):
    """The scalar triple loop over split-quaternion entries: the reference
    for the batch product of PQMatrix @."""
    n = A.rank
    return PQMatrix(
        [[sum((A.entries[p][r] * B.entries[r][q] for r in range(n)),
              SplitQuaternion()) for q in range(n)] for p in range(n)])


_int_coefficient = st.integers(-50, 50)
_fraction_coefficient = st.builds(Fraction, st.integers(-20, 20),
                                  st.integers(1, 12))


@st.composite
def _pq_matrix_pair(draw, coefficient):
    n = draw(st.integers(1, 4))
    quaternions = st.builds(SplitQuaternion, coefficient, coefficient,
                            coefficient, coefficient)
    square = st.lists(st.lists(quaternions, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return PQMatrix(draw(square)), PQMatrix(draw(square))


@pytest.mark.parametrize("coefficient", [_int_coefficient,
                                         _fraction_coefficient],
                         ids=["int", "Fraction"])
def test_matmul_matches_scalar_triple_loop(coefficient):
    @settings(max_examples=60, deadline=None)
    @given(_pq_matrix_pair(coefficient))
    def check(pair):
        A, B = pair
        assert A @ B == ref_pq_matmul(A, B)
        assert A.commutator(B) == ref_pq_matmul(A, B) - ref_pq_matmul(B, A)
    check()


def test_matmul_rejects_rank_mismatch():
    with pytest.raises(RankMismatchError):
        PQMatrix.identity(2) @ PQMatrix.identity(3)


def test_add_sub_reject_rank_mismatch():
    # both used to zip the rows and return the smaller rank silently
    for op in (PQMatrix.__add__, PQMatrix.__sub__, PQMatrix.commutator):
        with pytest.raises(RankMismatchError):
            op(PQMatrix.identity(2), PQMatrix.identity(3))
        with pytest.raises(RankMismatchError):
            op(PQMatrix.identity(3), PQMatrix.identity(2))


def ref_entrywise(A, B, op):
    """op applied entry by entry to the SplitQuaternion entries."""
    return PQMatrix([[op(a, b) for a, b in zip(ra, rb)]
                     for ra, rb in zip(A.entries, B.entries)])


def ref_conj_transpose(A):
    n = A.rank
    return PQMatrix([[A.entries[q][p].conj() for q in range(n)]
                     for p in range(n)])


def ref_real_rep(A):
    """The per-entry loop over Fraction entries that real_rep ran before
    it moved to the integer coefficient array: the reference for it."""
    n = A.rank
    out = zeros((2 * n, 2 * n))
    for p in range(n):
        for q in range(n):
            a, b, c, d = A.entries[p][q].coefficients()
            out[2 * p, 2 * q] = a + d
            out[2 * p, 2 * q + 1] = b + c
            out[2 * p + 1, 2 * q] = c - b
            out[2 * p + 1, 2 * q + 1] = a - d
    return out


def ref_real_action(A):
    """The left action assembled block by block from left_mult_matrix of
    each entry: the reference for to_real_action."""
    n = A.rank
    out = zeros((4 * n, 4 * n))
    for p in range(n):
        for q in range(n):
            out[4 * p:4 * p + 4, 4 * q:4 * q + 4] = left_mult_matrix(
                A.entries[p][q])
    return out


@pytest.mark.parametrize("coefficient", [_int_coefficient,
                                         _fraction_coefficient],
                         ids=["int", "Fraction"])
def test_matrix_arithmetic_matches_entry_loops(coefficient):
    # the operations on the integer coefficient array against loops over
    # the SplitQuaternion entries
    @settings(max_examples=40, deadline=None)
    @given(_pq_matrix_pair(coefficient))
    def check(pair):
        A, B = pair
        assert A + B == ref_entrywise(A, B, lambda a, b: a + b)
        assert A - B == ref_entrywise(A, B, lambda a, b: a - b)
        assert -A == ref_entrywise(A, A, lambda a, _: -a)
        third = Fraction(-1, 3)
        assert A.scale(third) == ref_entrywise(A, A,
                                               lambda a, _: a.scale(third))
        assert A.conj_transpose() == ref_conj_transpose(A)
        assert (real_rep_fractions(A) == ref_real_rep(A)).all()
        assert (real_action_fractions(A) == ref_real_action(A)).all()
        assert (A == -ref_conj_transpose(A)) == sp_membership(A)[0]
    check()


def test_matrix_rejects_inexact_coefficients():
    # the integer coefficient array has no float form
    with pytest.raises(TypeError):
        PQMatrix([[SplitQuaternion(0.5)]])
    with pytest.raises(TypeError):
        PQMatrix.identity(2).scale(0.5)


def test_equality_compares_values():
    rng = random.Random(4)
    rows = [[random_quaternion(rng) for _ in range(3)] for _ in range(3)]
    A = PQMatrix(rows)
    assert A.entries == tuple(map(tuple, rows))
    C, L = A.scaled
    assert PQMatrix.from_scaled_integers(2 * C, 2 * L) == A
    C2 = C.copy()
    C2[3, 2, 1] += 1
    assert PQMatrix.from_scaled_integers(C2, L) != A
    assert A != PQMatrix.identity(2)


def ref_batch_matmul(A, B):
    """One SplitQuaternion product of the broadcast coefficient arrays,
    summed over the inner index: the reference for the sixteen
    coefficient matmuls of batch_matmul."""
    terms = (SplitQuaternion(*A[..., :, :, None])
             * SplitQuaternion(*B[..., None, :, :]))
    return np.stack([c.sum(axis=-2) for c in terms.coefficients()])


def test_batch_matmul_matches_broadcast_product():
    rng = random.Random(21)

    def ints(*shape):
        return np.array([rng.randint(-9, 9) for _ in range(math.prod(shape))],
                        dtype=object).reshape(shape)

    # a batch against one matrix and against a batch of columns, the
    # shapes of the projective-pair brackets
    for A, B in ((ints(4, 5, 3, 3), ints(4, 3, 3)),
                 (ints(4, 3, 3), ints(4, 5, 3, 1)),
                 (ints(4, 2, 2), ints(4, 2, 2))):
        got = batch_matmul(A, B)
        assert got.shape == ref_batch_matmul(A, B).shape
        assert (got == ref_batch_matmul(A, B)).all()
        assert all(type(x) is int for x in got.reshape(-1))


def ref_random_pq_matrix(rng, n):
    """The Fraction draws random_pq_matrix made before it drew integers."""
    return PQMatrix([[random_quaternion(rng, 3) for _ in range(n)]
                     for _ in range(n)])


def ref_random_antihermitian(rng, n):
    entries = [[SplitQuaternion() for _ in range(n)] for _ in range(n)]
    for p in range(n):
        x = random_quaternion(rng, 3)
        entries[p][p] = SplitQuaternion(0, x.b, x.c, x.d)
        for q in range(p + 1, n):
            x = random_quaternion(rng, 3)
            entries[p][q] = x
            entries[q][p] = -x.conj()
    return PQMatrix(entries)


@pytest.mark.parametrize("seed", range(10))
def test_random_matrices_match_fraction_draws(seed):
    # the same coefficients from the same rng calls, so every sample of
    # the linalg and forms checks is unchanged
    for draw, ref in ((random_pq_matrix, ref_random_pq_matrix),
                      (random_antihermitian, ref_random_antihermitian)):
        for n in (1, 2, 3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, want = draw(rng, n), ref(ref_rng, n)
            assert got == want and got.entries == want.entries
            assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("low, high, dtype", [
    (-3, 3, object), (1, 8, np.int64), (-99, 99, np.int64), (5, 5, object),
    (-2 ** 31, 2 ** 31 - 1, object)])
def test_random_integers_in_range_and_seeded(low, high, dtype):
    a = random_integers(random.Random(1), (6, 50), low, high, dtype)
    b = random_integers(random.Random(1), (6, 50), low, high, dtype)
    assert a.shape == (6, 50) and a.dtype == np.dtype(dtype)
    assert (a == b).all()
    assert low <= a.min() and a.max() <= high
    if dtype is object:
        assert all(type(x) is int for x in a.reshape(-1))
    # a small range is covered
    if high - low < 10:
        assert set(random_integers(random.Random(2), (200,), low, high)) \
            == set(range(low, high + 1))


def test_random_integers_rejects_words_above_the_last_multiple():
    # at the span 2^31 + 3 only the words below the span are accepted,
    # about half of them; each round redraws as many words as were
    # rejected, by one getrandbits call
    span, low, size = 2 ** 31 + 3, -5, 40
    rng, replay = random.Random(3), random.Random(3)
    got = random_integers(rng, (size,), low, low + span - 1)
    want, rounds = [], 0
    while len(want) < size:
        m = size - len(want)
        bits = replay.getrandbits(32 * m)
        want += [low + w for w in ((bits >> (32 * i)) & 0xFFFFFFFF
                                   for i in range(m)) if w < span]
        rounds += 1
    assert rounds > 1
    assert list(got) == want and rng.getstate() == replay.getstate()


def test_random_integers_refuses_empty_and_wide_ranges():
    rng = random.Random(0)
    state = rng.getstate()
    for low, high in ((2, 1), (0, -10), (0, 2 ** 32)):
        with pytest.raises(ValueError, match="span"):
            random_integers(rng, (3,), low, high)
    assert rng.getstate() == state
    # the widest span, 2^32, accepts every word
    assert random_integers(rng, (4,), 0, 2 ** 32 - 1).shape == (4,)


def test_matrix_batches_match_each_matrix():
    # a coefficient array (4, S, n, n) is a batch of S matrices over one
    # scale: products, commutators and real_rep act on each of them
    rng = random.Random(8)
    for n in (1, 2, 3):
        C, L = _random_coefficients(rng, 2 * 4 * n * n, 3)
        C = C.reshape(4, 4, 2, n, n)
        A, B = (PQMatrix.from_scaled_integers(C[:, :, k], L) for k in (0, 1))
        assert A.rank == n
        RA, LA = real_rep(A)
        assert RA.shape == (4, 2 * n, 2 * n) and LA == L
        for s in range(4):
            As, Bs = (PQMatrix.from_scaled_integers(C[:, s, k], L)
                      for k in (0, 1))
            assert (RA[s] == real_rep(As)[0]).all()
            for batch, single in ((A @ B, As @ Bs),
                                  (A.commutator(B), As.commutator(Bs))):
                got, LG = batch.scaled
                assert PQMatrix.from_scaled_integers(got[:, s], LG) == single


def test_real_rep_injective():
    from pqgeom.algebra import UNITS
    for n in (1, 2, 3):
        cols = []
        for p in range(n):
            for q in range(n):
                for u in UNITS:
                    entries = [[SplitQuaternion() for _ in range(n)]
                               for _ in range(n)]
                    entries[p][q] = u
                    cols.append([int(x) for x in real_rep_fractions(
                        PQMatrix(entries)).reshape(-1)])
        mat = np.array(cols, dtype=object).T
        assert exactla.rank(mat) == 4 * n * n


def test_sp_membership():
    member, residual = sp_membership(PQMatrix([[I]]))
    assert member and residual == 0
    member, residual = sp_membership(PQMatrix.identity(1))
    assert not member and residual == 2
    rng = random.Random(5)
    for _ in range(20):
        A = random_antihermitian(rng, 2)
        B = random_antihermitian(rng, 2)
        assert sp_membership(A)[0]
        assert A == -A.conj_transpose()
        # membership is a linear condition and closed under brackets
        combo = A.scale(Fraction(2, 3)) - B.scale(Fraction(5))
        assert sp_membership(combo)[0]
        assert sp_membership(A.commutator(B))[0]


def test_sp_membership_matches_metric_skewness():
    rng = random.Random(6)
    g = metric_matrix(2)
    for _ in range(20):
        A = random_pq_matrix(rng, 2)
        L = real_action_fractions(A)
        skew = exactla.max_abs(L.T @ g + g @ L) == 0
        assert sp_membership(A)[0] == skew


def test_symplectic_form_shape():
    F = symplectic_form(2)
    assert exactla.max_abs(F + F.T) == 0
    assert ref_det(F) == 1


def test_adopted_basis_standard():
    H = structure_endos(1)
    seeds = adopted_basis(H)
    assert len(seeds) == 1
    assert list(seeds[0]) == [1, 0, 0, 0]
    quad = np.stack([seeds[0]] + [Ja @ seeds[0] for Ja in H.J], axis=1)
    # the images are the standard basis up to signs
    assert abs(ref_det(quad)) == 1
    assert all(sum(1 for x in quad[:, c] if x != 0) == 1 for c in range(4))


def test_adopted_basis_conjugated():
    rng = random.Random(7)
    H = structure_endos(2)
    dim = H.dim
    for _ in range(3):
        while True:
            P = exactla.fracarray([[rng.randint(-2, 2) for _ in range(dim)]
                                   for _ in range(dim)])
            if exactla.rank(P) == dim:
                break
        Pinv = ref_inverse(P)
        Hc = HermitianStructure(*[Pinv @ Ja @ P for Ja in H.J],
                                P.T @ H.g @ P)
        seeds = adopted_basis(Hc, rng=rng)
        cols = []
        for e in seeds:
            cols.extend([e, Hc.J[0] @ e, Hc.J[1] @ e, Hc.J[2] @ e])
        assert exactla.rank(np.stack(cols, axis=1)) == dim


def fractions_of(pair):
    """The Fraction view N / L of a scaled-integer pair (N, L)."""
    return exactla.from_scaled_integers(*pair)


def ref_grassman_split(H):
    """The tensor splitting on the Fraction views H.J and H.g with plain @
    chains: the reference for grassman_split, which computes on integers.
    Its fields are Fraction arrays: e_basis a list of vectors, h_endos the
    pair (h1, h2), change, omega_e and omega_h."""
    seeds = adopted_basis(H)
    J1, J2, J3 = H.J
    dim = H.dim
    h1 = eye(dim) - J3
    h2 = J1 + J2
    e_basis = seeds + list((J2 @ np.stack(seeds, axis=1)).T)
    change = np.stack([h1, h2]) @ np.stack(e_basis, axis=1)
    change = change.transpose(1, 2, 0).reshape(dim, -1)
    assert exactla.rank(change) == dim
    gt = change.T @ H.g @ change
    omega_e = gt[0::2, 1::2]
    omega_h = exactla.fracarray([[0, 1], [-1, 0]])
    assert exactla.max_abs(gt - np.kron(omega_e, omega_h)) == 0
    return SimpleNamespace(e_basis=e_basis, h_endos=(h1, h2), change=change,
                           omega_e=omega_e, omega_h=omega_h)


@pytest.mark.parametrize("kind, n", [("standard", 1), ("standard", 2),
                                     ("conjugated", 1), ("conjugated", 2)])
def test_grassman_split_matches_fraction_reference(kind, n):
    # the integer pairs of grassman_split against the Fraction splitting,
    # on the standard structure and on a conjugated one (denominators)
    rng = random.Random(30 + n)
    H = structure_endos(n)
    if kind == "conjugated":
        P = random_invertible(rng, H.dim)
        Pinv = ref_inverse(P)
        H = HermitianStructure(*[Pinv @ Ja @ P for Ja in H.J], P.T @ H.g @ P)
    gs, ref = grassman_split(H), ref_grassman_split(H)
    for got, want in ((gs.e_basis, np.stack(ref.e_basis, axis=1)),
                      (gs.h_endos, np.stack(ref.h_endos)),
                      (gs.change, ref.change), (gs.omega_e, ref.omega_e)):
        N, L = got
        assert all(type(x) is int for x in [*N.reshape(-1), L])
        assert (fractions_of(got) == want).all()
    assert gs.omega_h.tolist() == [[0, 1], [-1, 0]]
    assert all(type(x) is int for x in gs.omega_h.reshape(-1))
    h1, h2 = ref.h_endos
    for c, s in [(1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5))]:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(2 * n)]
        e = sum(k * v for k, v in zip(coords, ref.e_basis))
        want = c * (h1 @ e) + s * (h2 @ e)
        assert (fractions_of(gs.isotropic_member(c, s, coords)) == want).all()


@pytest.mark.parametrize("n", [1, 2])
def test_grassman_split(n):
    rng = random.Random(8)
    H = structure_endos(n)
    gs = grassman_split(H)
    change, omega_e = fractions_of(gs.change), fractions_of(gs.omega_e)
    Cinv = ref_inverse(change)
    for a in range(3):
        want = np.kron(eye(2 * n), TENSOR_BLOCKS[a])
        assert exactla.max_abs(Cinv @ H.J[a] @ change - want) == 0
    # the metric factors through the split
    gt = change.T @ H.g @ change
    assert exactla.max_abs(gt - np.kron(omega_e, gs.omega_h)) == 0
    assert exactla.max_abs(omega_e + omega_e.T) == 0
    # the one-parameter family of subspaces is totally isotropic
    for (c, s) in [(1, 0), (1, 1), (0, 1), (Fraction(3, 5), Fraction(4, 5))]:
        vecs = [fractions_of(gs.isotropic_member(
                    Fraction(c), Fraction(s),
                    [Fraction(rng.randint(-3, 3)) for _ in range(2 * n)]))
                for _ in range(4)]
        for v in vecs:
            for w in vecs:
                assert v @ H.g @ w == 0


def test_isotropic_family_invariant_under_commuting_members():
    rng = random.Random(9)
    n = 2
    H = structure_endos(n)
    gs = grassman_split(H)
    change = fractions_of(gs.change)
    Cinv = ref_inverse(change)
    for _ in range(5):
        L = real_action_fractions(random_antihermitian(rng, n))
        T = Cinv @ L @ change
        # commuting with the whole structure forces the block pattern
        # (matrix) x (identity on the 2-dimensional factor)
        for i in range(2 * n):
            for j in range(2 * n):
                block = T[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert block[0, 1] == 0 and block[1, 0] == 0
                assert block[0, 0] == block[1, 1]
        # hence each member maps the isotropic family member into itself
        for (c, s) in [(1, 0), (2, 3)]:
            family = np.stack(
                [fractions_of(gs.isotropic_member(
                    Fraction(c), Fraction(s),
                    [1 if k == m else 0 for k in range(2 * n)]))
                 for m in range(2 * n)], axis=1)
            base_rank = exactla.rank(family)
            assert base_rank == 2 * n
            joined = np.concatenate([family, L @ family], axis=1)
            assert exactla.rank(joined) == base_rank


def test_vector_matrix_errors():
    with pytest.raises(ValueError):
        PQMatrix([[SplitQuaternion(1)], [SplitQuaternion(0)]])
    with pytest.raises(RankMismatchError):
        PQMatrix.identity(2) @ PQVector([I])


def test_matrix_text_roundtrip():
    rng = random.Random(11)
    mat = exactla.fracarray([[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                              for _ in range(3)] for _ in range(2)])
    assert exactla.max_abs(parse_matrix(format_matrix(mat)) - mat) == 0
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n3")


@pytest.mark.parametrize("text", ["1/0", "1 2\n3 0/0"])
def test_parse_matrix_rejects_zero_denominator(text):
    # used to raise ZeroDivisionError from Fraction
    with pytest.raises(ValueError, match="zero denominator"):
        parse_matrix(text)


def test_structure_text_roundtrip():
    H = structure_endos(1)
    H2 = structure_from_text(structure_to_text(H))
    assert exactla.max_abs(H2.g - H.g) == 0
    for a in range(3):
        assert exactla.max_abs(H2.J[a] - H.J[a]) == 0
