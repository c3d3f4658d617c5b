import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from pqgeom import cli, curvature, exactla
from pqgeom.algebra import EPS, SplitQuaternion
from pqgeom.curvature import (CYCLES, SL2_TRIPLE, ComplementLeakError,
                              CurvatureTensor,
                              _bracket_coordinates,
                              NotSymmetricPairError, NullDirectionError,
                              SymmetricDecomposition,
                              ambient_projective_curvature, bianchi_residual,
                              curvature_from_bilinear, curvature_from_text,
                              curvature_to_text, einstein_check,
                              jacobi_operator, jacobi_spectrum_report,
                              normalizes_structure, power_sums,
                              projective_curvature, projective_pair,
                              restrict_to_complement, ricci,
                              ricci_split, scalar_curvature,
                              solvable_decomposition,
                              special_linear_decomposition, structure_traces,
                              symmetric_space_curvature, weyl_sample)
from pqgeom.forms import BilinearForm
from pqgeom.linalg import (DegenerateStructureError, HermitianStructure,
                           PQMatrix, PQVector, grassman_split,
                           left_structure_endos, metric_matrix,
                           right_mult_matrix, structure_endos)

from test_linalg import (eye, fractions_of, ref_grassman_split, ref_inverse,
                         ref_nullspace, ref_pq_matmul, ref_solve, zeros)


def rand_bilinear(rng, dim):
    return BilinearForm(exactla.fracarray(
        [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]))


def zero_tensor(H):
    d = H.dim
    return CurvatureTensor.from_fractions(zeros((d, d, d, d)), H.g)


def apply(R, X, Y, Z):
    """R(X, Y) Z contracted from the Fraction view."""
    t = np.tensordot(X, R.fractions(), axes=([0], [0]))
    t = np.tensordot(Y, t, axes=([0], [0]))
    return np.tensordot(Z, t, axes=([0], [0]))


def endomorphism(R, x, y):
    """Matrix of R(e_x, e_y) as Fractions; column z is the image of e_z."""
    return exactla.from_scaled_integers(R.tensor[x, y].T, R.scale)


def antisymmetry_residual(R):
    """max |R(X, Y) + R(Y, X)| over the basis."""
    t = R.tensor
    return Fraction(exactla.max_abs(t + t.transpose(1, 0, 2, 3)), R.scale)


def rand_rational(rng, shape):
    return np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(int(np.prod(shape)))],
                    dtype=object).reshape(shape)


def conjugated_structure(n, rng):
    """Pinv J_a P with metric P^T g P for a seeded invertible P."""
    H = structure_endos(n)
    while True:
        P = rand_rational(rng, (H.dim, H.dim))
        if exactla.rank(P) == H.dim:
            break
    Pinv = ref_inverse(P)
    return HermitianStructure(*[Pinv @ Ja @ P for Ja in H.J], P.T @ H.g @ P)


# -- Bianchi and the bilinear family ----------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_bianchi_model(n):
    H = structure_endos(n)
    assert bianchi_residual(projective_curvature(H)) == 0
    assert bianchi_residual(zero_tensor(H)) == 0


def test_bianchi_detects_perturbation():
    H = structure_endos(1)
    R = projective_curvature(H)
    R.tensor[0, 1, 2, 3] += R.scale
    assert bianchi_residual(R) > 0


@pytest.mark.parametrize("n", [1, 2])
def test_bilinear_family_bianchi(n):
    rng = random.Random(n)
    H = structure_endos(n)
    for _ in range(4):
        R = curvature_from_bilinear(rand_bilinear(rng, H.dim), H)
        assert bianchi_residual(R) == 0
        assert antisymmetry_residual(R) == 0


def test_bilinear_zero_and_metric():
    H = structure_endos(2)
    assert curvature_from_bilinear(
        BilinearForm(zeros((8, 8))), H).max_abs() == 0
    RB = curvature_from_bilinear(BilinearForm(H.g), H)
    assert exactla.max_abs(RB.fractions()
                           - projective_curvature(H).fractions()) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_bilinear_family_injective(n):
    from pqgeom.algebra import SplitQuaternion
    H = structure_endos(n)
    d = H.dim
    cols = []
    for i in range(d):
        for j in range(d):
            basis = zeros((d, d))
            basis[i, j] = Fraction(1)
            R = curvature_from_bilinear(BilinearForm(basis), H)
            cols.append([int(x) for x in R.fractions().reshape(-1)])
    mat = np.array(cols, dtype=object).T
    assert exactla.rank(mat) == d * d


@pytest.mark.parametrize("kind", ["conjugated", "special-linear"])
@pytest.mark.parametrize("n", [1, 2])
def test_builders_match_docstring_formulas(kind, n):
    # both builders, evaluated at seeded rational X, Y, Z, against the
    # formulas of their docstrings on structures other than structure_endos
    rng = random.Random(20 + n)
    H = (conjugated_structure(n, rng) if kind == "conjugated"
         else special_linear_decomposition(n).structure)
    d, g, Js = H.dim, H.g, H.J
    B = rand_rational(rng, (d, d))
    assert exactla.max_abs(B - B.T) != 0
    model = projective_curvature(H)
    family = curvature_from_bilinear(BilinearForm(B), H)
    for R in (model, family):
        assert all(type(x) is Fraction for x in R.fractions().reshape(-1))

    def gf(U, V):
        return U @ g @ V

    def bf(U, V):
        return U @ B @ V

    for _ in range(3):
        X, Y, Z = (rand_rational(rng, (d,)) for _ in range(3))
        want = gf(Y, Z) * X - gf(X, Z) * Y
        want_b = bf(Y, Z) * X - bf(X, Z) * Y + (bf(Y, X) - bf(X, Y)) * Z
        for eps, Ja in zip(EPS, Js):
            JX, JY, JZ = Ja @ X, Ja @ Y, Ja @ Z
            want = want + eps * (gf(JY, Z) * JX - gf(JX, Z) * JY
                                 - 2 * gf(JX, Y) * JZ)
            want_b = want_b + eps * ((bf(X, JY) - bf(Y, JX)) * JZ
                                     + bf(X, JZ) * JY - bf(Y, JZ) * JX)
        assert exactla.max_abs(apply(model, X, Y, Z) - want) == 0
        assert exactla.max_abs(apply(family, X, Y, Z) - want_b) == 0


# -- Ricci machinery ---------------------------------------------------------


def test_ricci_of_model():
    for n in (1, 2):
        H = structure_endos(n)
        R = projective_curvature(H)
        want = (4 * n + 8)
        assert exactla.max_abs(fractions_of(ricci(R)) - want * H.g) == 0
        assert scalar_curvature(R) == want * 4 * n
        const, res = einstein_check(R)
        assert const == want and res == 0


def test_einstein_zero_tensor():
    H = structure_endos(1)
    const, res = einstein_check(zero_tensor(H))
    assert const == 0 and res == 0


def test_ricci_split_on_model():
    H = structure_endos(1)
    R = projective_curvature(H)
    W, B = ricci_split(R, H)
    assert W.max_abs() == 0
    assert exactla.max_abs(B.matrix - H.g) == 0
    W0, B0 = ricci_split(zero_tensor(H), H)
    assert W0.max_abs() == 0 and exactla.max_abs(B0.matrix) == 0


def test_ricci_split_recovers_weyl_sample():
    rng = random.Random(12)
    H = structure_endos(2)
    gs = grassman_split(H)
    W = weyl_sample(H, gs, rng)
    R = projective_curvature(H).times(Fraction(3)) + W
    Wp, B = ricci_split(R, H)
    assert exactla.max_abs(ricci(Wp)[0]) == 0
    assert exactla.max_abs(Wp.fractions() - W.fractions()) == 0
    assert exactla.max_abs(B.matrix - 3 * H.g) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_ricci_split_recovers_random_bilinear(n):
    # a seeded non-symmetric B: the system must see B and B^T apart
    rng = random.Random(40 + n)
    H = structure_endos(n)
    B = rand_bilinear(rng, H.dim)
    assert exactla.max_abs(B.matrix - B.matrix.T) != 0
    R = curvature_from_bilinear(B, H)
    W, Bp = ricci_split(R, H)
    assert exactla.max_abs(Bp.matrix - B.matrix) == 0
    assert W.max_abs() == 0


def test_ricci_split_singular_system():
    # an unvalidated triple with J_2 = 2 Id in dimension 6 gives the Ricci
    # operator (6 + 3) B - B^T - 4 (B + B^T), which kills symmetric B; the
    # eigenspace inversion holds for real structures only, so it refuses
    d = 6
    zero = zeros((d, d))
    H = HermitianStructure(zero, 2 * eye(d), zero, eye(d),
                           validate=False)
    R = CurvatureTensor.from_fractions(zeros((d, d, d, d)), H.g)
    with pytest.raises(DegenerateStructureError):
        ricci_split(R, H)


def test_weyl_sample_properties():
    rng = random.Random(13)
    H = structure_endos(2)
    gs = grassman_split(H)
    W = weyl_sample(H, gs, rng)
    assert W.max_abs() != 0
    assert bianchi_residual(W) == 0
    assert exactla.max_abs(ricci(W)[0]) == 0
    # values commute with the whole structure and are metric-skew
    for x in range(8):
        for y in range(8):
            M = endomorphism(W, x, y)
            assert exactla.max_abs(M.T @ H.g + H.g @ M) == 0
            for Ja in H.J:
                assert exactla.max_abs(M @ Ja - Ja @ M) == 0
    assert exactla.max_abs(structure_traces(W, H)[0]) == 0


def test_sp_samples_are_einstein():
    rng = random.Random(14)
    H = structure_endos(2)
    gs = grassman_split(H)
    for coef in (Fraction(1), Fraction(-2), Fraction(5, 3)):
        R = projective_curvature(H).times(coef) + weyl_sample(H, gs, rng)
        const, res = einstein_check(R)
        assert res == 0
        assert const == coef * 16


def test_line_plus_weyl_trace_realisation():
    # subtracting the scalar-curvature multiple of the model tensor from
    # a structure-compatible sample leaves zero structure traces
    rng = random.Random(15)
    H = structure_endos(2)
    gs = grassman_split(H)
    Rg = projective_curvature(H)
    R = Rg.times(Fraction(7, 2)) + weyl_sample(H, gs, rng)
    Kfull = scalar_curvature(R)
    Kg = scalar_curvature(Rg)
    W = R - Rg.times(Fraction(Kfull) / Fraction(Kg))
    assert exactla.max_abs(structure_traces(W, H)[0]) == 0


# -- membership --------------------------------------------------------------


def test_membership_model_and_perturbed():
    H = structure_endos(1)
    R = projective_curvature(H)
    ok, res = normalizes_structure(R, H)
    assert ok and res == 0
    R.tensor[0, 1, 2, 3] += R.scale
    ok, _ = normalizes_structure(R, H)
    assert not ok


def test_membership_residual_matches_pairwise_formula():
    # R^B normalises the structure for every B, so a seeded perturbation
    # of one argument pair at a time supplies the nonzero residual
    rng = random.Random(31)
    H = structure_endos(1)
    d = H.dim
    RB = curvature_from_bilinear(rand_bilinear(rng, d), H)
    assert normalizes_structure(RB, H) == (True, 0)
    for p in range(d):
        for q in range(p + 1, d):
            noise = zeros((d, d, d, d))
            noise[p, q] = rand_rational(rng, (d, d))
            noise[q, p] = -noise[p, q]
            R = RB + CurvatureTensor.from_fractions(noise, H.g)
            traces = fractions_of(structure_traces(R, H))
            worst = Fraction(0)
            for x in range(d):
                for y in range(x + 1, d):
                    M = endomorphism(R, x, y)
                    tr = [np.trace(Ja @ M) for Ja in H.J]
                    assert list(traces[x, y]) == tr
                    for (a, b, c) in CYCLES:
                        diff = (M @ H.J[a] - H.J[a] @ M
                                - Fraction(EPS[a], 2) * (tr[c] * H.J[b]
                                                         - tr[b] * H.J[c]))
                        worst = max(worst, exactla.max_abs(diff))
            assert worst != 0
            assert normalizes_structure(R, H) == (False, worst)


def test_membership_weyl_commutes():
    rng = random.Random(16)
    H = structure_endos(2)
    gs = grassman_split(H)
    W = weyl_sample(H, gs, rng)
    ok, res = normalizes_structure(W, H)
    assert ok and res == 0


# -- Jacobi spectra -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_jacobi_spectrum_model(n):
    H = structure_endos(n)
    R = projective_curvature(H)
    X = np.zeros(4 * n, dtype=object)
    X[0] = 1
    Kres, _ = restrict_to_complement(R, X)
    # float eigenvalues: the reference the exact power sums are checked by
    eig = np.linalg.eigvals(np.array(fractions_of(Kres), dtype=float))
    want = sorted([-4.0] * 3 + [-1.0] * (4 * n - 4))
    assert max(abs(a - b) for a, b in zip(sorted(eig.real), want)) < 1e-12
    sums = power_sums(Kres)
    assert sums == tuple(3 * (-4) ** k + (4 * n - 4) * (-1) ** k
                         for k in range(1, 4 * n))
    assert all(type(s) is Fraction for s in sums)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_sums_match_float_eigenvalues(seed):
    # a generic Jacobi operator: restricted to a non-unit, non-basis
    # direction of a model-plus-Weyl tensor
    rng = random.Random(seed)
    H = structure_endos(1)
    R = projective_curvature(H).times(Fraction(2)) \
        + weyl_sample(H, grassman_split(H), rng)
    X = np.array([rng.randint(1, 3), rng.randint(-3, 3),
                  rng.randint(-3, 3), 0], dtype=object)
    Kres, _ = restrict_to_complement(R, X)
    eig = np.linalg.eigvals(np.array(fractions_of(Kres), dtype=float))
    sums = power_sums(Kres)
    assert len(sums) == 3
    for k, s in enumerate(sums, start=1):
        want = (eig ** k).sum()
        assert abs(float(s) - want.real) <= 1e-9 * max(1.0, abs(want))
        assert abs(want.imag) <= 1e-9 * max(1.0, abs(want))


def test_jacobi_perpendicular_direction():
    H = structure_endos(2)
    R = projective_curvature(H)
    X = np.zeros(8, dtype=object)
    X[0] = 1
    Y = zeros(8)
    Y[4] = Fraction(1)  # orthogonal to X and to all J_a X
    K = fractions_of(jacobi_operator(R, X))
    assert exactla.max_abs(K @ Y + Y) == 0


def test_jacobi_trace_is_minus_ricci():
    # antisymmetry in the first arguments forces Tr K_X = -Ric(X, X)
    rng = random.Random(17)
    H = structure_endos(1)
    gs = grassman_split(H)
    R = projective_curvature(H).times(Fraction(2)) + weyl_sample(H, gs, rng)
    ric = fractions_of(ricci(R))
    for _ in range(6):
        X = np.array([rng.randint(-3, 3) for _ in range(4)], dtype=object)
        assert np.trace(fractions_of(jacobi_operator(R, X))) == -(X @ ric @ X)


def test_jacobi_report_model():
    H = structure_endos(1)
    R = projective_curvature(H)
    e = eye(4)
    rep = jacobi_spectrum_report(R, [e[0], e[1], e[2], e[3],
                                     exactla.fracarray(
                                         [Fraction(5, 4), 0, Fraction(3, 4), 0])])
    assert rep.spacelike_agree and rep.timelike_agree
    signs = [d.metric_sign for d in rep.directions]
    assert signs == [1, 1, -1, -1, 1]
    # the spectrum -4, -4, -4 in every unit direction, in both signs
    for d in rep.directions:
        assert d.power_sums == tuple(3 * (-4 * d.metric_sign) ** k
                                     for k in (1, 2, 3))
    with pytest.raises(NullDirectionError):
        jacobi_spectrum_report(R, [exactla.fracarray([1, 0, 1, 0])])
    with pytest.raises(ValueError):
        jacobi_spectrum_report(R, [exactla.fracarray([2, 0, 0, 0])])


def test_zero_curvature_spectrum():
    H = structure_endos(1)
    rep = jacobi_spectrum_report(zero_tensor(H), [eye(4)[0]])
    entry = rep.directions[0]
    assert entry.power_sums == (0, 0, 0)
    assert not entry.operator_nonzero


# -- symmetric-space oracles --------------------------------------------------


def abelian_decomposition(n=1):
    """All tangent brackets zero: the flat oracle."""
    dm = 4 * n
    return SymmetricDecomposition(
        (np.zeros((dm, dm, 1), dtype=object), 1),
        (np.zeros((1, dm, dm), dtype=object), 1),
        (np.zeros((1, 1, 1), dtype=object), 1), (metric_matrix(n), 1),
        structure=structure_endos(n))


def test_abelian_oracle_flat():
    R = symmetric_space_curvature(abelian_decomposition(1))
    assert R.max_abs() == 0


@pytest.mark.parametrize("table", ["c_mm", "c_fm", "c_ff", "g_m"])
def test_symmetric_decomposition_refuses_float_tables(table):
    # a float table is refused where the decomposition is built, not by
    # an opaque error of a later diagnostic
    D = abelian_decomposition(1)
    pairs = {name: getattr(D, name) for name in ("c_mm", "c_fm", "c_ff",
                                                   "g_m")}
    N, L = pairs[table]
    pairs[table] = (np.asarray(N, dtype=float), L)
    with pytest.raises(TypeError, match="integer entries"):
        SymmetricDecomposition(**pairs, structure=D.structure)


def test_solvable_oracle():
    for sign in (1, -1):
        D = solvable_decomposition(sign)
        R = symmetric_space_curvature(D)
        assert R.max_abs() != 0
        assert bianchi_residual(R) == 0
        ok, res = normalizes_structure(R, D.structure)
        assert ok and res == 0
        assert exactla.max_abs(structure_traces(R, D.structure)[0]) == 0
        # the tables against the docstring: A is right multiplication by
        # (i + j) / 2, with A^2 = 0, and [E1,E2] = [E3,E1] = [E4,E2] =
        # [E3,E4] = sign * A
        A = right_mult_matrix(SplitQuaternion(0, Fraction(1, 2),
                                              Fraction(1, 2), 0))
        assert (fractions_of(D.c_fm)[0] == A.T).all()
        assert exactla.max_abs(A @ A) == 0
        want = zeros((4, 4, 1))
        for i, j in ((0, 1), (2, 0), (3, 1), (2, 3)):
            want[i, j, 0], want[j, i, 0] = sign, -sign
        assert (fractions_of(D.c_mm) == want).all()
        # commutes with the carried structure directly
        for x in range(4):
            for y in range(4):
                M = endomorphism(R, x, y)
                for Ja in D.structure.J:
                    assert exactla.max_abs(M @ Ja - Ja @ M) == 0


def test_solvable_nilpotent_jacobi():
    D = solvable_decomposition(1)
    R = symmetric_space_curvature(D)
    e = np.eye(4, dtype=object)
    found_nonzero = False
    for X in (e[0], e[1], e[2], e[3]):
        K, _ = jacobi_operator(R, X)
        assert exactla.max_abs(K @ K) == 0
        if exactla.max_abs(K) != 0:
            found_nonzero = True
    assert found_nonzero
    rep = jacobi_spectrum_report(R, [e[0], e[1]])
    for entry in rep.directions:
        assert entry.is_nilpotent and entry.operator_nonzero
        assert entry.power_sums == (0, 0, 0)


def test_solvable_weyl_commutes_with_left_structure():
    # rank-1 counterpart of the commutation property: the curvature
    # values commute with the complementary structure
    D = solvable_decomposition(1)
    R = symmetric_space_curvature(D)
    L = left_structure_endos(1)
    for x in range(4):
        for y in range(4):
            M = endomorphism(R, x, y)
            for Ja in L.J:
                assert exactla.max_abs(M @ Ja - Ja @ M) == 0


def test_special_linear_oracle():
    D = special_linear_decomposition(2)
    R = symmetric_space_curvature(D)
    assert R.max_abs() != 0
    assert bianchi_residual(R) == 0
    const, res = einstein_check(R)
    assert res == 0 and const != 0
    ok, _ = normalizes_structure(R, D.structure)
    assert ok


def test_from_matrix_algebra_rejects_bracket_outside_f():
    # sl(3) split by the 2 + 1 block involution: without the centre
    # element diag(1, 1, -2), [E02, E20] leaves span(f)
    def unit(p, q):
        M = zeros((3, 3))
        M[p, q] = Fraction(1)
        return M

    m_mats = [unit(0, 2), unit(1, 2), unit(2, 0), unit(2, 1)]
    f_mats = []
    for j in SL2_TRIPLE:
        M = zeros((3, 3))
        M[:2, :2] = j
        f_mats.append(M)
    g_m = exactla.fracarray([[np.trace(A @ B) for B in m_mats]
                             for A in m_mats])
    with pytest.raises(NotSymmetricPairError, match=r"leaves span\(f\)"):
        SymmetricDecomposition.from_matrix_algebra(m_mats, f_mats, g_m)
    centre = exactla.fracarray([[1, 0, 0], [0, 1, 0], [0, 0, -2]])
    D = SymmetricDecomposition.from_matrix_algebra(m_mats, f_mats + [centre],
                                                   g_m)
    ref = special_linear_decomposition(1)
    for got, want in ((D.c_mm, ref.c_mm), (D.c_fm, ref.c_fm),
                      (D.c_ff, ref.c_ff), (D.g_m, ref.g_m)):
        assert (fractions_of(got) == fractions_of(want)).all()
    # the metric is scaled to an integer pair once, here over the scale 3
    D = SymmetricDecomposition.from_matrix_algebra(
        m_mats, f_mats + [centre], g_m * Fraction(1, 3))
    G, LG = D.g_m
    assert all(type(x) is int for x in G.reshape(-1)) and LG == 3
    assert (exactla.from_scaled_integers(G, LG) == g_m / 3).all()


def test_symmetric_pair_validation():
    D = solvable_decomposition(1)
    broken, scale = D.c_mm[0].copy(), D.c_mm[1]
    broken[0, 1, 0] += 1  # destroys antisymmetry
    D2 = type(D)((broken, scale), D.c_fm, D.c_ff, D.g_m, D.structure)
    with pytest.raises(NotSymmetricPairError):
        symmetric_space_curvature(D2)


def test_symmetric_pair_validation_metric_and_jacobi():
    D = solvable_decomposition(1)
    # A = ad(f) is skew for the neutral metric, not for the identity
    D2 = type(D)(D.c_mm, D.c_fm, D.c_ff, (np.eye(4, dtype=object), 1))
    with pytest.raises(NotSymmetricPairError, match=r"ad\(f\)-invariant"):
        symmetric_space_curvature(D2)
    # an antisymmetric change of one bracket breaks the Jacobi identity
    c_mm = D.c_mm[0].copy()
    c_mm[0, 1, 0] += 1
    c_mm[1, 0, 0] -= 1
    D3 = type(D)((c_mm, D.c_mm[1]), D.c_fm, D.c_ff, D.g_m)
    with pytest.raises(NotSymmetricPairError, match="Jacobi"):
        symmetric_space_curvature(D3)


@pytest.mark.parametrize("build", [
    lambda: solvable_decomposition(-1), lambda: special_linear_decomposition(1),
    lambda: special_linear_decomposition(2)],
    ids=["solvable", "special-linear-1", "special-linear-2"])
def test_symmetric_oracles_match_fraction_reference(build):
    # the double-bracket contraction runs on scaled ints; the reference is
    # the Fraction tensordot
    D = build()
    R = symmetric_space_curvature(D)
    want = np.tensordot(-fractions_of(D.c_mm), fractions_of(D.c_fm),
                        axes=([2], [0]))
    got = R.fractions()
    assert got.shape == want.shape and (got == want).all()
    assert all_fractions(got)
    # the tables and the metric are integer pairs
    for N, L in (D.c_mm, D.c_fm, D.c_ff, D.g_m, R.metric):
        assert all(type(x) is int for x in [*N.reshape(-1), L]) and L >= 1


# -- bracket normalisation ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_equals_closed_formula(n):
    # the bracket curvature is the closed formula itself, entry for entry
    bracket = projective_pair(n)
    formula = projective_curvature(structure_endos(n))
    assert exactla.max_abs(bracket.fractions() - formula.fractions()) == 0
    assert bianchi_residual(bracket) == 0
    ok, _ = normalizes_structure(bracket, structure_endos(n))
    assert ok
    const, res = einstein_check(ambient_projective_curvature(n))
    assert res == 0
    assert const == 4 * n + 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ambient_model_is_shared_and_read_only(n):
    R = ambient_projective_curvature(n)
    assert ambient_projective_curvature(n) is R
    fresh = projective_curvature(structure_endos(n))
    assert R.scale == fresh.scale
    assert (R.fractions() == fresh.fractions()).all()
    with pytest.raises(ValueError):
        R.tensor[0, 1, 2, 3] = 1
    with pytest.raises(ValueError):
        R.tensor += 1
    # sums, differences and multiples are new, writable tensors
    for derived in (R.times(2), R + fresh, R - fresh, fresh - R):
        assert derived.tensor is not R.tensor
        assert not np.shares_memory(derived.tensor, R.tensor)
        derived.tensor[0, 1, 2, 3] += 1
    assert (R.tensor == fresh.tensor).all()


def ref_projective_pair(n):
    """The bracket curvature from scalar PQMatrix commutators: embed each
    basis vector as M(v), form [[M(e_y), M(e_x)], M(e_z)] one entry at a
    time and extract the first column.  The reference for the batched
    projective_pair."""
    def embed(v):
        entries = [[SplitQuaternion() for _ in range(n + 1)]
                   for _ in range(n + 1)]
        for r, h in enumerate(v.entries):
            entries[r + 1][0] = h
            entries[0][r + 1] = -h.conj()
        return PQMatrix(entries)

    d = 4 * n
    tensor = zeros((d, d, d, d))
    embedded = [embed(PQVector.from_scaled_integers(
        np.array([int(r == s) for r in range(d)], dtype=object), 1))
                for s in range(d)]
    for x in range(d):
        for y in range(x + 1, d):
            inner = ref_pq_matmul(embedded[y], embedded[x]) \
                - ref_pq_matmul(embedded[x], embedded[y])
            for z in range(d):
                out = ref_pq_matmul(inner, embedded[z]) \
                    - ref_pq_matmul(embedded[z], inner)
                tensor[x, y, z] = PQVector(
                    out.entries[r + 1][0] for r in range(n)).to_real()
                tensor[y, x, z] = -tensor[x, y, z]
    return tensor


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_pair_matches_scalar_commutators(n):
    want = ref_projective_pair(n)
    R = projective_pair(n)
    # the bracket curvature is integral: scale 1, int64 entries (every
    # entry is far below the word bound)
    assert R.scale == 1
    assert R.tensor.dtype == np.int64
    assert R.tensor.shape == want.shape and (R.tensor == want).all()


# -- the scaled-integer path against a plain Fraction reference --------------
#
# The diagnostics and weyl_sample compute on scaled Python ints.  The
# references below are the straightforward contractions on Fraction arrays.


def ref_bianchi(R):
    t = R.fractions()
    return exactla.max_abs(t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3))


def ref_traces(R, H):
    return [np.tensordot(R.fractions(), Ja, axes=([2, 3], [0, 1]))
            for Ja in H.J]


def ref_normalizes(R, H):
    d = R.dim
    xs, ys = np.triu_indices(d, 1)
    M = R.fractions()[xs, ys].transpose(0, 2, 1)
    traces = [t[xs, ys][:, None, None] for t in ref_traces(R, H)]
    worst = Fraction(0)
    for (a, b, c) in CYCLES:
        lhs = M @ H.J[a] - H.J[a] @ M
        rhs = traces[c] * H.J[b] - traces[b] * H.J[c]
        worst = max(worst,
                    exactla.max_abs(lhs - Fraction(2 * EPS[a], d) * rhs))
    return worst == 0, worst


def ref_weyl(split, rng):
    """weyl_sample on the Fraction splitting of ref_grassman_split, with
    tensordot contractions: the reference for the integer builder."""
    m = len(split.e_basis)
    d = 2 * m
    s4 = zeros((m, m, m, m))
    for idx in combinations_with_replacement(range(m), 4):
        val = Fraction(rng.randint(-3, 3))
        for perm in permutations(idx):
            s4[perm] = val
    shat = np.tensordot(s4, ref_inverse(split.omega_e).T,
                        axes=([3], [0]))
    blocks = np.multiply.outer(np.multiply.outer(shat, split.omega_h),
                               eye(2))
    tensor = blocks.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(d, d, d, d)
    C = split.change
    Cinv = ref_inverse(C)
    t = np.tensordot(tensor, C, axes=([3], [1]))
    for axis in range(3):
        t = np.moveaxis(np.tensordot(Cinv, t, axes=([0], [axis])), 0, axis)
    return t


def all_fractions(arr):
    return all(type(x) is Fraction for x in np.asarray(arr).reshape(-1))


@pytest.mark.parametrize("kind, n", [("standard", 1), ("standard", 2),
                                     ("standard", 3), ("conjugated", 1),
                                     ("conjugated", 2)])
def test_integer_path_matches_fraction_reference(kind, n):
    rng = random.Random(40 + n)
    H = structure_endos(n) if kind == "standard" else conjugated_structure(
        n, rng)
    W = weyl_sample(H, grassman_split(H), random.Random(7))
    assert all_fractions(W.fractions())
    assert (W.fractions()
            == ref_weyl(ref_grassman_split(H), random.Random(7))).all()
    # 2 R_0 + W + R^B lies in the normaliser and satisfies Bianchi; one
    # perturbed entry with denominator 7 breaks both
    R = (projective_curvature(H).times(Fraction(2)) + W
         + curvature_from_bilinear(BilinearForm(rand_rational(
             rng, (H.dim, H.dim))), H))
    shifted = R.fractions()
    shifted[0, 1, 2, 3] += Fraction(1, 7)
    perturbed = CurvatureTensor.from_fractions(shifted, H.g)
    # the Fraction reference of the membership test takes seconds at
    # n = 3, so there only the perturbed tensor is compared
    for T, zero in ([(perturbed, False)] if n == 3
                    else [(R, True), (perturbed, False)]):
        got = fractions_of(structure_traces(T, H))
        assert all_fractions(got)
        for a, want in enumerate(ref_traces(T, H)):
            assert (got[:, :, a] == want).all()
        ok, res = normalizes_structure(T, H)
        assert (ok, res) == ref_normalizes(T, H) and ok is zero
        assert type(res) is Fraction
        bianchi = bianchi_residual(T)
        assert bianchi == ref_bianchi(T) and (bianchi == 0) is zero
        assert type(bianchi) is Fraction


def ref_restrict(R, X):
    """restrict_to_complement on Fraction arrays: the Fraction kernel
    basis, and the Gram system solved for the coordinates of the image,
    with plain @ chains."""
    basis = ref_nullspace((fractions_of(R.metric) @ X).reshape(1, -1))
    img = fractions_of(jacobi_operator(R, X)) @ basis
    return ref_solve(basis.T @ basis, basis.T @ img), basis


@pytest.mark.parametrize("kind, n", [("model", 1), ("model", 2),
                                     ("model", 3), ("conjugated", 1),
                                     ("conjugated", 2)])
def test_restrict_to_complement_matches_fraction_reference(kind, n):
    # the model in a basis direction, and 2 R_0 + W on a conjugated
    # structure in a direction off the basis
    if kind == "model":
        R = ambient_projective_curvature(n)
        X = np.zeros(4 * n, dtype=object)
        X[0] = 1
    else:
        rng = random.Random(60 + n)
        H = conjugated_structure(n, rng)
        R = (projective_curvature(H).times(Fraction(2))
             + weyl_sample(H, grassman_split(H), rng))
        RB = curvature_from_bilinear(BilinearForm(rand_rational(
            rng, (H.dim, H.dim))), H)
        X = np.array([rng.randint(1, 3)]
                     + [rng.randint(-3, 3) for _ in range(H.dim - 1)],
                     dtype=object)
        # R^B of a generic B is not g-skew: its Jacobi operator leaves the
        # complement of X, where the Fraction reference finds only the
        # least-squares matrix of the projected image
        with pytest.raises(ComplementLeakError):
            restrict_to_complement(R + RB, X)
    coords, basis = restrict_to_complement(R, X)
    want_coords, want_basis = ref_restrict(R, X)
    for (N, L), want in ((coords, want_coords), (basis, want_basis)):
        assert all(type(x) is int for x in [*N.reshape(-1), L])
        got = exactla.from_scaled_integers(N, L)
        assert got.shape == want.shape and (got == want).all()


def test_restrict_to_complement_rejects_leaking_tensor():
    # random integer entries have no curvature symmetries: K_X maps the
    # complement of X = e_0 out of it, and the Gram solve used to return
    # the least-squares matrix of the projected image without a word
    rng = random.Random(0)
    T = np.array([rng.randint(-2, 2) for _ in range(4 ** 4)],
                 dtype=object).reshape(4, 4, 4, 4)
    R = CurvatureTensor(T, 1, (metric_matrix(1), 1))
    X = np.array([1, 0, 0, 0], dtype=object)
    with pytest.raises(ComplementLeakError):
        restrict_to_complement(R, X)


def test_jacobi_operators_take_integer_directions():
    # the operator pairs are over the scale of R, so a direction with
    # denominators (or floats) is refused instead of giving a pair whose
    # entries power_sums would truncate; the report scales such a
    # direction to integers itself
    R = projective_curvature(structure_endos(1))
    unit = exactla.fracarray([Fraction(5, 4), 0, Fraction(3, 4), 0])
    for X in (unit, np.array([1.0, 0, 0, 0]),
              np.array([1, 0, 0, 0], dtype=np.int64)):
        for routine in (jacobi_operator, restrict_to_complement):
            with pytest.raises(TypeError, match="direction"):
                routine(R, X)
    (entry,) = jacobi_spectrum_report(R, [unit]).directions
    assert entry.power_sums == (-12, 48, -192)


def test_exact_diagnostics_reject_float_tensors():
    # a float tensor is not silently scaled: no CurvatureTensor holds one,
    # so the diagnostics never see it
    H = structure_endos(1)
    R = projective_curvature(H)
    mixed = R.fractions()
    mixed[0, 1, 2, 3] = 0.5
    for tensor in (np.array(R.fractions(), dtype=float), mixed):
        with pytest.raises(TypeError):
            CurvatureTensor.from_fractions(tensor, H.g)
        with pytest.raises(TypeError):
            CurvatureTensor(tensor, 1, R.metric)


def test_float_pairs_fail_loudly_in_the_diagnostics():
    # BilinearForm(N, L) refuses a float dtype but reads no entry of an
    # object array, and the builders trust their pairs; a float entry that
    # comes in that way raises where an integer result is read through
    # operator.index, not truncated
    H = structure_endos(1)
    with pytest.raises(TypeError):
        BilinearForm(np.full((4, 4), 0.5), 1)
    B = BilinearForm(np.full((4, 4), 0.5, dtype=object), 1)
    R = curvature_from_bilinear(B, H)
    for diagnostic in (B.max_abs, lambda: einstein_check(R),
                       lambda: jacobi_spectrum_report(
                           R, [np.eye(4, dtype=object)[0]])):
        with pytest.raises(TypeError):
            diagnostic()


# -- serialisation ------------------------------------------------------------


def test_curvature_text_roundtrip_exact():
    H = structure_endos(1)
    R = projective_curvature(H)
    R2 = curvature_from_text(curvature_to_text(R))
    assert exactla.max_abs(R2.fractions() - R.fractions()) == 0
    assert (fractions_of(R2.metric) == fractions_of(R.metric)).all()
    assert all_fractions(R2.fractions())


def test_curvature_text_rejects_float_entries():
    R = projective_curvature(structure_endos(1))
    mixed = R.fractions()
    mixed[0, 1, 2, 3] = 0.5
    g = fractions_of(R.metric)
    for tensor, metric in ((np.array(R.fractions(), dtype=float), g),
                           (mixed, g),
                           (R.fractions(), np.array(g, dtype=float))):
        with pytest.raises(TypeError):
            curvature_to_text(CurvatureTensor.from_fractions(tensor, metric))


@pytest.mark.parametrize("mode", ["float", None])
def test_curvature_text_rejects_other_mode(mode):
    R = projective_curvature(structure_endos(1))
    head, rest = curvature_to_text(R).split("\n", 1)
    header = json.loads(head)
    assert header["mode"] == "exact"
    header["mode"] = mode
    with pytest.raises(ValueError, match="mode"):
        curvature_from_text(json.dumps(header) + "\n" + rest)


def test_curvature_text_rejects_other_convention():
    R = projective_curvature(structure_endos(1))
    head, rest = curvature_to_text(R).split("\n", 1)
    header = json.loads(head)
    assert header["convention"] == "cyclic-ijk"
    header["convention"] = "ij=-k"
    with pytest.raises(ValueError, match="convention"):
        curvature_from_text(json.dumps(header) + "\n" + rest)


def test_tensor_sums_and_multiples_match_fraction_arithmetic():
    # the scaled-integer sums and multiples against Fraction arithmetic on
    # the arrays, for tensors with different denominators
    rng = random.Random(21)
    H = structure_endos(1)

    def random_tensor(denominators):
        return CurvatureTensor.from_fractions(exactla.fracarray(
            [Fraction(rng.randint(-9, 9), rng.choice(denominators))
             for _ in range(4 ** 4)]).reshape((4,) * 4), H.g)

    for _ in range(5):
        # scales 12 and 35: neither divides the other
        A, B = random_tensor([1, 3, 4]), random_tensor([5, 7])
        FA, FB = A.fractions(), B.fractions()
        pairs = [((A + B).fractions(), FA + FB),
                 ((A - B).fractions(), FA - FB),
                 ((A - A).fractions(), zeros((4,) * 4))]
        pairs += [(A.times(c).fractions(), c * FA)
                  for c in (2, 0, Fraction(-3, 5))]
        for got, want in pairs:
            assert all_fractions(got) and (got == want).all()
    with pytest.raises(TypeError):
        A.times(0.5)
    with pytest.raises(TypeError):
        A + CurvatureTensor.from_fractions(np.array(FA, dtype=float), H.g)


@st.composite
def rational_tensors(draw):
    """A d = 4 Fraction tensor whose entries take their denominators from
    a drawn set, so two draws usually have different scales."""
    dens = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    nums = draw(st.lists(st.integers(-30, 30), min_size=4 ** 4,
                         max_size=4 ** 4))
    picks = draw(st.lists(st.sampled_from(dens), min_size=4 ** 4,
                          max_size=4 ** 4))
    return exactla.fracarray([Fraction(a, b) for a, b in zip(nums, picks)]
                             ).reshape((4,) * 4)


# shrinking two 256-entry tensors takes minutes, so a failing draw is
# reported as found
@settings(max_examples=40,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(rational_tensors(), rational_tensors(),
       st.fractions(max_denominator=9),
       st.lists(st.fractions(max_denominator=5), min_size=4, max_size=4))
def test_integer_tensor_matches_fraction_reference(FA, FB, c, x):
    # every operation on (tensor, scale) against the same operation on the
    # Fraction arrays the tensors were made from
    H = structure_endos(1)
    A = CurvatureTensor.from_fractions(FA, H.g)
    B = CurvatureTensor.from_fractions(FB, H.g)
    assert (A.fractions() == FA).all()
    for got, want in [(A + B, FA + FB), (A - B, FA - FB), (A.times(c), c * FA),
                      (B.times(c), c * FB)]:
        assert all_fractions(got.fractions())
        assert (got.fractions() == want).all()
    assert A.max_abs() == exactla.max_abs(FA)
    assert type(A.max_abs()) is Fraction
    assert (fractions_of(ricci(A)) == np.trace(FA, axis1=0, axis2=3)).all()
    X = exactla.fracarray(x)
    want = np.tensordot(X, np.tensordot(X, FA, axes=([0], [0])),
                        axes=([0], [1])).T
    # the operator of X = N / LX is that of the integer N over LX^2
    N, LX = exactla.scaled_integers(X)
    K, LK = jacobi_operator(A, N)
    assert (exactla.from_scaled_integers(K, LK * LX * LX) == want).all()
    assert bianchi_residual(A) == exactla.max_abs(
        FA + FA.transpose(1, 2, 0, 3) + FA.transpose(2, 0, 1, 3))
    text = curvature_to_text(A)
    assert text.split("\n")[1] == " ".join(str(v) for v in FA.reshape(-1))
    assert (curvature_from_text(text).fractions() == FA).all()


def test_tensor_constructor_rejects_non_integer_data():
    R = projective_curvature(structure_endos(1))
    floats = np.array(R.fractions(), dtype=float)
    # numpy ints inside an object array would wrap in object arithmetic
    numpy_ints = np.fromiter(R.tensor.astype(np.int64).reshape(-1),
                             dtype=object).reshape(R.tensor.shape)
    assert type(numpy_ints[0, 1, 0, 1]) is np.int64
    for tensor, scale in [(floats, 1), (R.fractions(), 1), (numpy_ints, 1),
                          (R.tensor, 0), (R.tensor, -2), (R.tensor, 1.0),
                          (R.tensor, Fraction(1)), (R.tensor, True)]:
        with pytest.raises(TypeError):
            CurvatureTensor(tensor, scale, R.metric)
    # the metric pair is held to the same rules
    G, LG = R.metric
    for metric in [(np.array(G, dtype=float), LG), (G.astype(np.int64), LG),
                   (G, 0), (G, 1.0)]:
        with pytest.raises(TypeError):
            CurvatureTensor(R.tensor, R.scale, metric)
    # an int64 tensor is exact by its dtype, and so is one of Python ints
    for tensor in (R.tensor.astype(np.int64), R.tensor.astype(object)):
        assert (CurvatureTensor(tensor, R.scale, R.metric).fractions()
                == R.fractions()).all()


def test_curvature_suite_scans_no_tensor_it_builds(monkeypatch, capsys):
    # entries are scanned where data enters: the public constructor,
    # from_fractions and curvature_from_text.  The builders, sums and
    # multiples of the suite hand on the package's own integer pairs, so
    # no tensor or metric is scanned; the Jacobi directions still are
    scanned = []
    scan = curvature._integer_array

    def counted(arr, what, scale=1):
        scanned.append(what)
        return scan(arr, what, scale)

    monkeypatch.setattr(curvature, "_integer_array", counted)
    assert cli.main(["--suite", "curvature", "--n", "3"]) == 0
    capsys.readouterr()
    assert "direction" in scanned
    assert [w for w in scanned if w != "direction"] == []
    # the counter sees the scans of the public constructor
    R = ambient_projective_curvature(1)
    CurvatureTensor(R.tensor, R.scale, R.metric)
    assert scanned[-2:] == ["curvature tensor", "metric"]


# -- word width: the int64 path against the Python-int path -----------------
#
# A tensor is held as int64 when its entries fit (exactla.words), and each
# builder and kernel runs on int64 under its growth bound and on Python
# ints above it.  With exactla.words refusing every array, the same
# expressions run on Python ints: the reference the word path must equal.


def python_ints(values):
    """The flat entries of nested pairs, arrays and Fractions; each array
    must be an object array, and every entry a Python int (or bool)."""
    out = []
    for v in values:
        if isinstance(v, tuple):
            out += python_ints(v)
        elif isinstance(v, np.ndarray):
            assert v.dtype == object
            out += list(v.reshape(-1))
        elif isinstance(v, Fraction):
            out += [v.numerator, v.denominator]
        else:
            out.append(v)
    assert all(type(x) in (int, bool) for x in out)
    return out


def width_run(n):
    """The tensors of every builder, sums and multiples at rank n, and the
    integer and scalar results of every kernel on them."""
    H = structure_endos(n)
    rng = random.Random(60 + n)
    B = BilinearForm(np.array([[rng.randint(-4, 4) for _ in range(H.dim)]
                               for _ in range(H.dim)], dtype=object), 3)
    model = projective_curvature(H)
    W = weyl_sample(H, grassman_split(H), random.Random(7))
    family = curvature_from_bilinear(B, H)
    Wp, Bp = ricci_split(model.times(2) + family + W, H)
    solvable = solvable_decomposition()
    special = special_linear_decomposition(n)
    tensors = [(model, H), (family, H), (W, H), (projective_pair(n), H),
               (model + W, H), (family - W, H),
               (W.times(Fraction(-5, 3)), H), (cli._perturbed(model), H),
               (Wp, H), (symmetric_space_curvature(solvable),
                         solvable.structure),
               (symmetric_space_curvature(special), special.structure)]
    results = [Bp.scaled, einstein_check(model), scalar_curvature(model)]
    for R, Hs in tensors:
        X = np.array([rng.randint(-2, 2) for _ in range(R.dim)],
                     dtype=object)
        results += [R.max_abs(), bianchi_residual(R), ricci(R),
                    structure_traces(R, Hs), normalizes_structure(R, Hs),
                    jacobi_operator(R, X)]
    return [R for R, _ in tensors], results


@pytest.mark.parametrize("n", [1, 2])
def test_word_path_matches_python_int_path(monkeypatch, n):
    tensors, results = width_run(n)
    monkeypatch.setattr(exactla, "words", lambda arr, growth=1: None)
    wide_tensors, wide_results = width_run(n)
    for R, wide in zip(tensors, wide_tensors):
        assert R.tensor.dtype == np.int64
        python_ints([wide.tensor])
        assert R.scale == wide.scale and (R.tensor == wide.tensor).all()
    # the residuals, traces, Ricci forms and Jacobi operators are Python
    # ints on both paths, and equal
    assert python_ints(results) == python_ints(wide_results)


def ref_jacobi(R, X):
    F = R.fractions()
    return np.tensordot(X, np.tensordot(X, F, axes=([0], [0])),
                        axes=([0], [1])).T


def test_kernels_widen_above_their_bound():
    H = structure_endos(1)
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    model = projective_curvature(H)
    top = model.max_abs() * model.scale
    # held as int64 at growth 1, but a cyclic sum of 3 entries, a Ricci
    # trace of 4 or the commutators could leave the bound
    near = model.times((2 ** 62 - 1) // top)
    above = model.times(2 ** 61)
    assert near.tensor.dtype == np.int64 and above.tensor.dtype == object
    # a structure with entries near 2^31: the same members over a larger
    # scale, whose builders leave the bound
    big = HermitianStructure(*(J * 2 ** 31), g, scales=(LJ * 2 ** 31, Lg))
    B = rand_bilinear(random.Random(5), 4)
    for got, want in [(projective_curvature(big), model),
                      (curvature_from_bilinear(B, big),
                       curvature_from_bilinear(B, H))]:
        assert got.tensor.dtype == object
        assert (got.fractions() == want.fractions()).all()
    # every entry at the largest word: sums, cyclic sums and traces of
    # entries of one sign leave int64 itself
    flat = CurvatureTensor(np.full((4, 4, 4, 4), 2 ** 62 - 1, dtype=np.int64),
                           1, model.metric)
    assert flat.tensor.dtype == np.int64
    for got, want in [(near + near, 2 * near.fractions()),
                      (near - above, near.fractions() - above.fractions()),
                      (flat + flat.times(Fraction(1, 2)),
                       Fraction(3, 2) * flat.fractions()),
                      (near.times(3), 3 * near.fractions())]:
        assert (got.fractions() == want).all()
    X = np.array([1, -2, 0, 3], dtype=object)
    for R in (near, above, flat, near + near, near - above, near.times(3),
              cli._perturbed(near)):
        F = R.fractions()
        assert R.max_abs() == exactla.max_abs(F)
        assert bianchi_residual(R) == ref_bianchi(R)
        assert (fractions_of(ricci(R))
                == np.trace(F, axis1=0, axis2=3)).all()
        assert (fractions_of(jacobi_operator(R, X)) == ref_jacobi(R, X)).all()
        for Hs in (H, big):
            got = fractions_of(structure_traces(R, Hs))
            for a, want in enumerate(ref_traces(R, Hs)):
                assert (got[:, :, a] == want).all()
            assert normalizes_structure(R, Hs) == ref_normalizes(R, Hs)
        python_ints([R.max_abs(), bianchi_residual(R), ricci(R),
                     jacobi_operator(R, X), structure_traces(R, big),
                     normalizes_structure(R, big)])
    assert normalizes_structure(cli._perturbed(near), H)[0] is False
    # the CLI's perturbation adds the scale to one entry: over the scale
    # 2^63 that sum leaves int64, so it is formed on Python ints
    tiny = flat.times(Fraction(1, 2 ** 63))
    want = tiny.fractions()
    want[0, 1, 2, 3] += 1
    assert (cli._perturbed(tiny).fractions() == want).all()


def replace_line(text, index, line):
    lines = text.strip().split("\n")
    lines[index] = line
    return "\n".join(lines) + "\n"


def with_n(text, n):
    header = json.loads(text.split("\n", 1)[0])
    if n is None:
        del header["n"]
    else:
        header["n"] = n
    return replace_line(text, 0, json.dumps(header))


def drop_first_entry(text, index):
    return replace_line(text, index,
                        text.strip().split("\n")[index].split(" ", 1)[1])


MALFORMED_TEXTS = {
    # header that is not a JSON object: used to raise AttributeError
    "header-list": lambda t: replace_line(t, 0, '[1, "cyclic-ijk"]'),
    "header-number": lambda t: replace_line(t, 0, "4"),
    # missing n: used to raise KeyError; a string n: TypeError
    "n-missing": lambda t: with_n(t, None),
    "n-string": lambda t: with_n(t, "1"),
    # used to be accepted as n = 1
    "n-true": lambda t: with_n(t, True),
    "n-zero": lambda t: with_n(t, 0),
    "n-float": lambda t: with_n(t, 1.0),
    # a symmetric metric of rank 1: used to be accepted
    "metric-rank-1": lambda t: replace_line(t, 2, " ".join(["1"] * 16)),
    "metric-non-symmetric": lambda t: replace_line(
        t, 2, "1 1 0 0 0 1 0 0 0 0 -1 0 0 0 0 -1"),
    "metric-short": lambda t: drop_first_entry(t, 2),
    "tensor-short": lambda t: drop_first_entry(t, 1),
    # used to raise ZeroDivisionError
    "zero-denominator": lambda t: replace_line(
        t, 2, "1/0 " + t.strip().split("\n")[2].split(" ", 1)[1]),
    "two-lines": lambda t: "\n".join(t.split("\n")[:2]),
    "four-lines": lambda t: t + "1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TEXTS))
def test_curvature_text_rejects_malformed_text(case):
    text = curvature_to_text(projective_curvature(structure_endos(1)))
    assert curvature_from_text(text).dim == 4
    with pytest.raises(ValueError):
        curvature_from_text(MALFORMED_TEXTS[case](text))


def test_bracket_coordinates_rebuild_fraction_brackets():
    # the brackets and their coordinates run on scaled ints; the pair
    # (C, L) must rebuild the Fraction products A @ B - B @ A, here with
    # denominators on both sides
    rng = random.Random(11)
    left = [exactla.fracarray([[Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                                for _ in range(3)] for _ in range(3)])
            for _ in range(3)]
    right = left[::-1] + [eye(3) * Fraction(1, 5)]
    basis = []
    for p in range(3):
        for q in range(3):
            M = zeros((3, 3))
            M[p, q] = Fraction(1, p + 2 * q + 1)
            basis.append(M)
    C, L = _bracket_coordinates(left, right, basis, "outside")
    assert all(type(x) is int for x in [*C.reshape(-1), L])
    c = exactla.from_scaled_integers(C, L)
    for i, A in enumerate(left):
        for j, B in enumerate(right):
            rebuilt = sum(c[i, j, k] * M for k, M in enumerate(basis))
            assert ((rebuilt - (A @ B - B @ A)) == 0).all()
    with pytest.raises(NotSymmetricPairError, match="outside"):
        _bracket_coordinates(left, right, basis[1:], "outside")
