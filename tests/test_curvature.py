import json
import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import exactla
from pqgeom.algebra import EPS
from pqgeom.curvature import (CYCLES, SL2_TRIPLE, CurvatureTensor,
                              NotSymmetricPairError, NullDirectionError,
                              SingularSystemError, SymmetricDecomposition,
                              abelian_decomposition,
                              ambient_projective_curvature, bianchi_residual,
                              curvature_from_bilinear, curvature_from_text,
                              curvature_to_text, einstein_check,
                              jacobi_operator,
                              jacobi_spectrum_report, minimal_polynomial_degree,
                              normalizes_structure, projective_curvature,
                              projective_pair, restrict_to_complement, ricci,
                              ricci_split, scalar_curvature,
                              solvable_decomposition,
                              special_linear_decomposition, structure_traces,
                              symmetric_space_curvature, weyl_sample)
from pqgeom.forms import BilinearForm
from pqgeom.linalg import (HermitianStructure, grassman_split,
                           left_structure_endos, structure_endos)


def rand_bilinear(rng, dim):
    return BilinearForm(exactla.fracarray(
        [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]))


def zero_tensor(H):
    d = H.dim
    return CurvatureTensor(exactla.zeros((d, d, d, d)), H.g)


def apply(R, X, Y, Z):
    """R(X, Y) Z contracted from the stored array."""
    t = np.tensordot(X, R.tensor, axes=([0], [0]))
    t = np.tensordot(Y, t, axes=([0], [0]))
    return np.tensordot(Z, t, axes=([0], [0]))


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
    Pinv = exactla.inverse(P)
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
    R.tensor[0, 1, 2, 3] += 1
    assert bianchi_residual(R) > 0


@pytest.mark.parametrize("n", [1, 2])
def test_bilinear_family_bianchi(n):
    rng = random.Random(n)
    H = structure_endos(n)
    for _ in range(4):
        R = curvature_from_bilinear(rand_bilinear(rng, H.dim), H)
        assert bianchi_residual(R) == 0
        assert R.antisymmetry_residual() == 0


def test_bilinear_zero_and_metric():
    H = structure_endos(2)
    assert curvature_from_bilinear(
        BilinearForm(exactla.zeros((8, 8))), H).max_abs() == 0
    RB = curvature_from_bilinear(BilinearForm(H.g), H)
    assert exactla.max_abs(RB.tensor - projective_curvature(H).tensor) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_bilinear_family_injective(n):
    from pqgeom.algebra import SplitQuaternion
    H = structure_endos(n)
    d = H.dim
    cols = []
    for i in range(d):
        for j in range(d):
            basis = exactla.zeros((d, d))
            basis[i, j] = Fraction(1)
            R = curvature_from_bilinear(BilinearForm(basis), H)
            cols.append([int(x) for x in R.tensor.reshape(-1)])
    mat = np.array(cols, dtype=object).T
    assert exactla.rank_mod_p(mat) == d * d


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
        assert all(type(x) is Fraction for x in R.tensor.reshape(-1))

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
        assert exactla.max_abs(ricci(R) - want * H.g) == 0
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
    R = projective_curvature(H).scale(Fraction(3)) + W
    Wp, B = ricci_split(R, H)
    assert exactla.max_abs(ricci(Wp)) == 0
    assert exactla.max_abs(Wp.tensor - W.tensor) == 0
    assert exactla.max_abs(B.matrix - 3 * H.g) == 0
    Wc, Bc = ricci_split(R, H, method="closed")
    assert exactla.max_abs(Bc.matrix - B.matrix) == 0
    assert exactla.max_abs(Wc.tensor - Wp.tensor) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_ricci_split_recovers_random_bilinear(n):
    # a seeded non-symmetric B: the system must see B and B^T apart
    rng = random.Random(40 + n)
    H = structure_endos(n)
    B = rand_bilinear(rng, H.dim)
    assert exactla.max_abs(B.matrix - B.matrix.T) != 0
    R = curvature_from_bilinear(B, H)
    for method in ("solve", "closed"):
        W, Bp = ricci_split(R, H, method=method)
        assert exactla.max_abs(Bp.matrix - B.matrix) == 0
        assert W.max_abs() == 0


def test_ricci_split_singular_system():
    # an unvalidated triple with J_2 = 2 Id in dimension 6 gives the
    # operator (6 + 3) B - B^T - 4 (B + B^T), which kills symmetric B
    d = 6
    zero = exactla.zeros((d, d))
    H = HermitianStructure(zero, 2 * exactla.eye(d), zero, exactla.eye(d),
                           validate=False)
    R = CurvatureTensor(exactla.zeros((d, d, d, d)), H.g)
    with pytest.raises(SingularSystemError):
        ricci_split(R, H)


def test_weyl_sample_properties():
    rng = random.Random(13)
    H = structure_endos(2)
    gs = grassman_split(H)
    W = weyl_sample(H, gs, rng)
    assert W.max_abs() != 0
    assert bianchi_residual(W) == 0
    assert exactla.max_abs(ricci(W)) == 0
    # values commute with the whole structure and are metric-skew
    for x in range(8):
        for y in range(8):
            M = W.endomorphism(x, y)
            assert exactla.max_abs(M.T @ H.g + H.g @ M) == 0
            for Ja in H.J:
                assert exactla.max_abs(M @ Ja - Ja @ M) == 0
    for t in structure_traces(W, H):
        assert exactla.max_abs(t) == 0


def test_sp_samples_are_einstein():
    rng = random.Random(14)
    H = structure_endos(2)
    gs = grassman_split(H)
    for coef in (Fraction(1), Fraction(-2), Fraction(5, 3)):
        R = projective_curvature(H).scale(coef) + weyl_sample(H, gs, rng)
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
    R = Rg.scale(Fraction(7, 2)) + weyl_sample(H, gs, rng)
    Kfull = scalar_curvature(R)
    Kg = scalar_curvature(Rg)
    W = R - Rg.scale(Fraction(Kfull) / Fraction(Kg))
    for t in structure_traces(W, H):
        assert exactla.max_abs(t) == 0


# -- membership --------------------------------------------------------------


def test_membership_model_and_perturbed():
    H = structure_endos(1)
    R = projective_curvature(H)
    ok, res = normalizes_structure(R, H)
    assert ok and res == 0
    R.tensor[0, 1, 2, 3] += 1
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
            noise = exactla.zeros((d, d, d, d))
            noise[p, q] = rand_rational(rng, (d, d))
            noise[q, p] = -noise[p, q]
            R = RB + CurvatureTensor(noise, H.g)
            traces = structure_traces(R, H)
            worst = Fraction(0)
            for x in range(d):
                for y in range(x + 1, d):
                    M = R.endomorphism(x, y)
                    tr = [np.trace(Ja @ M) for Ja in H.J]
                    assert [t[x, y] for t in traces] == tr
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
    X = exactla.zeros(4 * n)
    X[0] = Fraction(1)
    Kres, _ = restrict_to_complement(R, X)
    eig = sorted(np.linalg.eigvals(np.array(Kres, dtype=float)).real)
    want = sorted([-4.0] * 3 + [-1.0] * (4 * n - 4))
    assert max(abs(a - b) for a, b in zip(eig, want)) < 1e-12


def test_jacobi_perpendicular_direction():
    H = structure_endos(2)
    R = projective_curvature(H)
    X = exactla.zeros(8)
    X[0] = Fraction(1)
    Y = exactla.zeros(8)
    Y[4] = Fraction(1)  # orthogonal to X and to all J_a X
    K = jacobi_operator(R, X)
    assert exactla.max_abs(K @ Y + Y) == 0


def test_jacobi_trace_is_minus_ricci():
    # antisymmetry in the first arguments forces Tr K_X = -Ric(X, X)
    rng = random.Random(17)
    H = structure_endos(1)
    gs = grassman_split(H)
    R = projective_curvature(H).scale(Fraction(2)) + weyl_sample(H, gs, rng)
    ric = ricci(R)
    for _ in range(6):
        X = exactla.fracarray([rng.randint(-3, 3) for _ in range(4)])
        assert np.trace(jacobi_operator(R, X)) == -(X @ ric @ X)


def test_jacobi_report_model():
    H = structure_endos(1)
    R = projective_curvature(H)
    e = exactla.eye(4)
    rep = jacobi_spectrum_report(R, [e[0], e[1], e[2], e[3],
                                     exactla.fracarray(
                                         [Fraction(5, 4), 0, Fraction(3, 4), 0])])
    assert rep.spacelike_agree and rep.timelike_agree
    assert rep.pointwise_osserman
    signs = [d.metric_sign for d in rep.directions]
    assert signs == [1, 1, -1, -1, 1]
    with pytest.raises(NullDirectionError):
        jacobi_spectrum_report(R, [exactla.fracarray([1, 0, 1, 0])])
    with pytest.raises(ValueError):
        jacobi_spectrum_report(R, [exactla.fracarray([2, 0, 0, 0])])


def test_zero_curvature_spectrum():
    H = structure_endos(1)
    rep = jacobi_spectrum_report(zero_tensor(H), [exactla.eye(4)[0]])
    entry = rep.directions[0]
    assert all(abs(z) == 0 for z in entry.eigenvalues)
    assert not entry.operator_nonzero


# -- symmetric-space oracles --------------------------------------------------


def test_abelian_oracle_flat():
    R = symmetric_space_curvature(abelian_decomposition(1))
    assert R.max_abs() == 0


def test_solvable_oracle():
    for sign in (1, -1):
        D = solvable_decomposition(sign)
        R = symmetric_space_curvature(D)
        assert R.max_abs() != 0
        assert bianchi_residual(R) == 0
        ok, res = normalizes_structure(R, D.structure)
        assert ok and res == 0
        for t in structure_traces(R, D.structure):
            assert exactla.max_abs(t) == 0
        # commutes with the carried structure directly
        for x in range(4):
            for y in range(4):
                M = R.endomorphism(x, y)
                for Ja in D.structure.J:
                    assert exactla.max_abs(M @ Ja - Ja @ M) == 0


def test_solvable_nilpotent_jacobi():
    D = solvable_decomposition(1)
    R = symmetric_space_curvature(D)
    e = exactla.eye(4)
    found_nonzero = False
    for X in (e[0], e[1], e[2], e[3]):
        K = jacobi_operator(R, X)
        assert exactla.max_abs(K @ K) == 0
        if exactla.max_abs(K) != 0:
            found_nonzero = True
            assert minimal_polynomial_degree(K) == 2
    assert found_nonzero
    rep = jacobi_spectrum_report(R, [e[0], e[1]])
    for entry in rep.directions:
        assert entry.is_nilpotent and entry.operator_nonzero
        assert max(abs(z) for z in entry.eigenvalues) < 1e-6


def test_solvable_weyl_commutes_with_left_structure():
    # rank-1 counterpart of the commutation property: the curvature
    # values commute with the complementary structure
    D = solvable_decomposition(1)
    R = symmetric_space_curvature(D)
    L = left_structure_endos(1)
    for x in range(4):
        for y in range(4):
            M = R.endomorphism(x, y)
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
        M = exactla.zeros((3, 3))
        M[p, q] = Fraction(1)
        return M

    m_mats = [unit(0, 2), unit(1, 2), unit(2, 0), unit(2, 1)]
    f_mats = []
    for j in SL2_TRIPLE:
        M = exactla.zeros((3, 3))
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
        assert exactla.max_abs(got - want) == 0


def test_symmetric_pair_validation():
    D = solvable_decomposition(1)
    broken = exactla.zeros(D.c_mm.shape)
    broken[:] = D.c_mm
    broken[0, 1, 0] += 1  # destroys antisymmetry
    D2 = type(D)(broken, D.c_fm, D.c_ff, D.g_m, D.structure)
    with pytest.raises(NotSymmetricPairError):
        symmetric_space_curvature(D2)


# -- bracket normalisation ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_fitted_scale(n):
    # the bracket curvature is the closed formula itself, entry for entry
    bracket = projective_pair(n)
    formula = projective_curvature(structure_endos(n))
    assert exactla.max_abs(bracket.tensor - formula.tensor) == 0
    assert bianchi_residual(bracket) == 0
    ok, _ = normalizes_structure(bracket, structure_endos(n))
    assert ok
    const, res = einstein_check(ambient_projective_curvature(n))
    assert res == 0
    assert const == 4 * n + 8


# -- serialisation ------------------------------------------------------------


def test_curvature_text_roundtrip_exact():
    H = structure_endos(1)
    R = projective_curvature(H)
    R2 = curvature_from_text(curvature_to_text(R))
    assert exactla.max_abs(R2.tensor - R.tensor) == 0
    assert exactla.max_abs(R2.metric - R.metric) == 0
    assert R2.is_exact()


def test_curvature_text_roundtrip_float():
    H = structure_endos(1)
    R = projective_curvature(H)
    Rf = CurvatureTensor(np.array(R.tensor, dtype=float),
                         np.array(R.metric, dtype=float))
    R2 = curvature_from_text(curvature_to_text(Rf))
    assert not R2.is_exact()
    assert float(exactla.max_abs(R2.tensor - Rf.tensor)) == 0.0


def test_curvature_text_rejects_other_convention():
    R = projective_curvature(structure_endos(1))
    head, rest = curvature_to_text(R).split("\n", 1)
    header = json.loads(head)
    assert header["convention"] == "cyclic-ijk"
    header["convention"] = "ij=-k"
    with pytest.raises(ValueError, match="convention"):
        curvature_from_text(json.dumps(header) + "\n" + rest)
