import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import exactla
from pqgeom.algebra import EPS, I, J, K, SplitQuaternion
from pqgeom.linalg import (TENSOR_BLOCKS, DegenerateStructureError,
                           HermitianStructure, PQMatrix, PQVector,
                           RankMismatchError, adopted_basis,
                           complex_rep_matrix, format_matrix, grassman_split,
                           left_structure_endos, metric_matrix,
                           module_scalar_product, parse_matrix,
                           random_antihermitian, random_pq_matrix,
                           random_pq_vector, random_quaternion, real_rep,
                           sp_membership, structure_endos, structure_from_text,
                           structure_to_text, symplectic_form)


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
    assert h.right_mul(q).right_mul(qp) == h.right_mul(q * qp)
    A = random_pq_matrix(rng, 3)
    assert (A @ h.right_mul(q)) == (A @ h).right_mul(q)


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
    coords, residual = exactla.frame_coordinates(frame, inside)
    assert residual == 0 and list(coords[:, 0]) == [2, 3]
    _, residual = exactla.frame_coordinates(
        frame, exactla.fracarray([[1], [0], [0]]))
    assert residual > 0


def test_exact_elimination_keeps_int_inputs_exact():
    # int-valued object arrays must not pass through int / int division
    a = np.array([[3, 1], [1, 1]], dtype=object)
    H = structure_endos(1)
    results = {
        "solve": exactla.solve(a, np.array([1, 0], dtype=object)),
        "inverse": exactla.inverse(a),
        "det": np.array([exactla.det(a)]),
        "nullspace": exactla.nullspace(np.array([[3, 1, 2]], dtype=object)),
        "span": np.array(H.span_coefficients(H.J[0] + 2 * H.J[1])),
    }
    for name, arr in results.items():
        assert all(type(x) is Fraction for x in arr.reshape(-1)), name
    half = Fraction(1, 2)
    assert list(results["solve"]) == [half, -half]
    assert results["inverse"].tolist() == [[half, -half], [-half, 3 * half]]
    assert results["det"][0] == 2
    assert results["nullspace"].tolist() == [[Fraction(-1, 3), Fraction(-2, 3)],
                                             [1, 0], [0, 1]]
    assert list(results["span"]) == [1, 2, 0]
    # 3 v v^T - 7 w w^T has rank 2; float pivots miss its null direction
    sym = np.array([[-51, 81, 63], [81, -36, -63], [63, -63, -63]],
                   dtype=object)
    assert exactla.inertia(sym) == (1, 1, 1)


def test_exact_elimination_on_fixed_width_arrays():
    # int64 rows divided in place used to truncate: solve gave [0, 0]
    a = np.array([[3, 1], [1, 1]])
    half = Fraction(1, 2)
    x = exactla.solve(a, np.array([1, 0]))
    assert list(x) == [half, -half]
    assert all(type(v) is Fraction for v in x)
    d = exactla.det(a)
    assert d == 2 and type(d) is Fraction
    assert exactla.inertia(np.array([[0, 1], [1, 0]])) == (1, 1, 0)
    assert exactla.rank(np.array([[2, 4], [1, 2]], dtype=np.int32)) == 1
    null = exactla.nullspace(np.array([[3, 1, 2]]))
    assert null.tolist() == [[Fraction(-1, 3), Fraction(-2, 3)],
                             [1, 0], [0, 1]]
    assert all(type(v) is Fraction for v in null.reshape(-1))
    # floats have no exact elimination: refuse instead of rounding
    for routine in (exactla.rank, exactla.nullspace, exactla.det,
                    exactla.inertia):
        with pytest.raises(TypeError):
            routine(a.astype(float))
    with pytest.raises(TypeError):
        exactla.solve(a.astype(float), np.array([1.0, 0.0]))


def test_structure_validation():
    H = structure_endos(1)
    with pytest.raises(DegenerateStructureError):
        HermitianStructure(H.J[0], H.J[1], H.J[0], H.g)


def test_real_rep_entry_formula():
    q = SplitQuaternion(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    R = real_rep(PQMatrix([[q]]))
    a, b, c, d = 1, 2, 3, 4
    assert R[0, 0] == a + d and R[0, 1] == b + c
    assert R[1, 0] == c - b and R[1, 1] == a - d
    assert exactla.max_abs(real_rep(PQMatrix.identity(3))
                           - exactla.eye(6)) == 0


def test_real_rep_matches_conjugated_complex_block():
    # numerically conjugate the complex block picture by the fixed
    # change of basis and compare with the closed all-real formula
    rng = random.Random(3)
    blocks = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    for n in (1, 2):
        M = np.kron(np.eye(n), blocks)
        A = random_pq_matrix(rng, n)
        conj = M @ complex_rep_matrix(A) @ np.linalg.inv(M)
        assert np.max(np.abs(conj.imag)) < 1e-12
        assert np.max(np.abs(conj.real
                             - np.array(real_rep(A), dtype=float))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_rep_is_algebra_isomorphism(n):
    rng = random.Random(10 + n)
    for _ in range(40):
        A = random_pq_matrix(rng, n)
        B = random_pq_matrix(rng, n)
        assert exactla.max_abs(real_rep(A @ B)
                               - real_rep(A) @ real_rep(B)) == 0
        lhs = real_rep(A.commutator(B))
        rhs = real_rep(A) @ real_rep(B) - real_rep(B) @ real_rep(A)
        assert exactla.max_abs(lhs - rhs) == 0


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
                    cols.append([int(x) for x in
                                 real_rep(PQMatrix(entries)).reshape(-1)])
        mat = np.array(cols, dtype=object).T
        assert exactla.rank_mod_p(mat) == 4 * n * n


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
        assert A.is_antihermitian()
        # membership is a linear condition and closed under brackets
        combo = A.scale(Fraction(2, 3)) - B.scale(Fraction(5))
        assert sp_membership(combo)[0]
        assert sp_membership(A.commutator(B))[0]


def test_sp_membership_matches_metric_skewness():
    rng = random.Random(6)
    g = metric_matrix(2)
    for _ in range(20):
        A = random_pq_matrix(rng, 2)
        L = A.to_real_action()
        skew = exactla.max_abs(L.T @ g + g @ L) == 0
        assert sp_membership(A)[0] == skew


def test_symplectic_form_shape():
    F = symplectic_form(2)
    assert exactla.max_abs(F + F.T) == 0
    assert exactla.det(F) == 1


def test_adopted_basis_standard():
    H = structure_endos(1)
    seeds = adopted_basis(H)
    assert len(seeds) == 1
    assert list(seeds[0]) == [1, 0, 0, 0]
    quad = np.stack([seeds[0]] + [Ja @ seeds[0] for Ja in H.J], axis=1)
    # the images are the standard basis up to signs
    assert abs(exactla.det(quad)) == 1
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
        Pinv = exactla.inverse(P)
        Hc = HermitianStructure(*[Pinv @ Ja @ P for Ja in H.J],
                                P.T @ H.g @ P)
        seeds = adopted_basis(Hc, rng=rng)
        cols = []
        for e in seeds:
            cols.extend([e, Hc.J[0] @ e, Hc.J[1] @ e, Hc.J[2] @ e])
        assert exactla.det(np.stack(cols, axis=1)) != 0


@pytest.mark.parametrize("n", [1, 2])
def test_grassman_split(n):
    rng = random.Random(8)
    H = structure_endos(n)
    gs = grassman_split(H)
    Cinv = exactla.inverse(gs.change)
    for a in range(3):
        want = np.kron(exactla.eye(2 * n), TENSOR_BLOCKS[a])
        assert exactla.max_abs(Cinv @ H.J[a] @ gs.change - want) == 0
    # the metric factors through the split
    gt = gs.change.T @ H.g @ gs.change
    assert exactla.max_abs(gt - np.kron(gs.omega_e, gs.omega_h)) == 0
    assert exactla.max_abs(gs.omega_e + gs.omega_e.T) == 0
    # the one-parameter family of subspaces is totally isotropic
    for (c, s) in [(1, 0), (1, 1), (0, 1), (Fraction(3, 5), Fraction(4, 5))]:
        vecs = [gs.isotropic_member(Fraction(c), Fraction(s),
                                    [Fraction(rng.randint(-3, 3))
                                     for _ in range(2 * n)])
                for _ in range(4)]
        for v in vecs:
            for w in vecs:
                assert v @ H.g @ w == 0


def test_isotropic_family_invariant_under_commuting_members():
    rng = random.Random(9)
    n = 2
    H = structure_endos(n)
    gs = grassman_split(H)
    Cinv = exactla.inverse(gs.change)
    for _ in range(5):
        L = random_antihermitian(rng, n).to_real_action()
        T = Cinv @ L @ gs.change
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
                [gs.isotropic_member(Fraction(c), Fraction(s),
                                     [1 if k == m else 0
                                      for k in range(2 * n)])
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


def test_structure_text_roundtrip():
    H = structure_endos(1)
    H2 = structure_from_text(structure_to_text(H))
    assert exactla.max_abs(H2.g - H.g) == 0
    for a in range(3):
        assert exactla.max_abs(H2.J[a] - H.J[a]) == 0
