"""Curvature tensors compatible with a para-quaternionic structure.

Conventions.  A curvature tensor is stored densely as R[x, y, z, w],
meaning R(e_x, e_y) e_z = sum_w R[x, y, z, w] e_w, together with the
metric used for index gymnastics.  The Ricci tensor traces the first
slot, Ric(Y, Z) = Tr(X -> R(X, Y) Z); the Jacobi operator in a unit
direction is K_X(Y) = R(X, Y) X.  Antisymmetry in (X, Y) then forces
Tr K_X = -Ric(X, X), which is the form the trace identity is tested in.

Every tensor follows R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X -
nabla_[X,Y], under which the base-point curvature of a symmetric space
is R(A, B) C = -[[A, B], C] on the tangent summand (Kobayashi-Nomizu II,
ch. XI).  The symmetric-space oracles use that formula, so the bracket
curvature of the projective-space model equals its closed formula entry
for entry, for the metric of the unit-pseudosphere submersion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import exactla
from .algebra import EPS, SplitQuaternion
from .forms import BilinearForm, hermitian_projector
from .linalg import (HermitianStructure, PQMatrix, PQVector, GrassmanSplit,
                     left_structure_endos, metric_matrix, structure_endos)

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# product-table convention of the stored tensors (see the algebra module)
CONVENTION = "cyclic-ijk"

SPECTRUM_TOLERANCE = 1e-9   # unit-norm slack and eigenvalue agreement


class NotSymmetricPairError(ValueError):
    """Structure constants fail the symmetric-pair or Jacobi conditions."""


class SingularSystemError(ValueError):
    """The linear system of the Ricci splitting is singular."""


class NullDirectionError(ValueError):
    """A sampled Jacobi direction is null."""


class CurvatureTensor:
    """Dense (1,3) curvature array with its companion metric."""

    def __init__(self, tensor, metric):
        self.tensor = np.asarray(tensor)
        self.metric = np.asarray(metric)

    @property
    def dim(self) -> int:
        return self.metric.shape[0]

    def is_exact(self) -> bool:
        return self.tensor.dtype == object

    def endomorphism(self, x: int, y: int) -> np.ndarray:
        """Matrix of R(e_x, e_y); column z is the image of e_z."""
        return self.tensor[x, y].T

    def __add__(self, other):
        return CurvatureTensor(self.tensor + other.tensor, self.metric)

    def __sub__(self, other):
        return CurvatureTensor(self.tensor - other.tensor, self.metric)

    def scale(self, c) -> "CurvatureTensor":
        return CurvatureTensor(c * self.tensor, self.metric)

    def max_abs(self):
        return exactla.max_abs(self.tensor)

    def antisymmetry_residual(self):
        return exactla.max_abs(self.tensor + self.tensor.transpose(1, 0, 2, 3))


def bianchi_residual(R: CurvatureTensor):
    """Max-norm of the cyclic sum R(X,Y)Z + R(Y,Z)X + R(Z,X)Y."""
    t = R.tensor
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return exactla.max_abs(cyc)


def ricci(R: CurvatureTensor) -> np.ndarray:
    """Ric(Y, Z) = Tr(X -> R(X, Y) Z), traced over the first slot."""
    return np.trace(R.tensor, axis1=0, axis2=3)


def scalar_curvature(R: CurvatureTensor):
    return np.trace(exactla.inverse(R.metric) @ ricci(R))


def einstein_check(R: CurvatureTensor):
    """(constant, residual) for Ric(R) = constant * g, with the constant
    K(R)/dim read off the metric trace."""
    ric = ricci(R)
    K = scalar_curvature(R)
    const = Fraction(K) / R.dim
    residual = exactla.max_abs(ric - const * R.metric)
    return const, residual


# ---------------------------------------------------------------------------
# the linear family R^B and the Ricci splitting
# ---------------------------------------------------------------------------


def _metric_terms(S) -> np.ndarray:
    """t[x, y, z, w] = S[y, z] delta[x, w] - S[x, z] delta[y, w], the
    leading terms of both the model formula and the R^B family."""
    d = S.shape[0]
    t = exactla.zeros((d, d, d, d))
    diag = np.arange(d)
    t[diag, :, :, diag] += S
    t[:, diag, :, diag] -= S
    return t


def _structure_contraction(A, H: HermitianStructure) -> np.ndarray:
    """K[p, q, r, s] = sum_a eps_a A_a[p, q] J_a[s, r]."""
    signed = np.stack([eps * Aa for eps, Aa in zip(EPS, A)])
    return np.tensordot(signed, np.stack([Ja.T for Ja in H.J]),
                        axes=([0], [0]))


def curvature_from_bilinear(B: BilinearForm,
                            H: HermitianStructure) -> CurvatureTensor:
    """The curvature tensor attached linearly to a bilinear form:

        R^B(X,Y)Z = B(Y,Z)X - B(X,Z)Y + (B(Y,X) - B(X,Y))Z
                    + sum_a eps_a [ (B(X,J_aY) - B(Y,J_aX)) J_aZ
                                    + B(X,J_aZ) J_aY - B(Y,J_aZ) J_aX ].

    Satisfies the first Bianchi identity for every B, is injective in B,
    and sends the metric itself to the projective-space curvature.
    """
    M = B.matrix
    t = _metric_terms(M)
    diag = np.arange(H.dim)
    t[:, :, diag, diag] += (M.T - M)[:, :, None]
    # with A_a = B J_a, A_a[x, y] = B(e_x, J_a e_y), the four permutations
    # of K are the four structure terms of the formula, in order
    K = _structure_contraction([M @ Ja for Ja in H.J], H)
    t += K
    t -= K.transpose(1, 0, 2, 3)
    t += K.transpose(0, 2, 1, 3)
    t -= K.transpose(2, 0, 1, 3)
    return CurvatureTensor(t, H.g)


def structure_traces(R: CurvatureTensor, H: HermitianStructure):
    """The three scalar 2-forms (X, Y) -> Tr(J_a R(X, Y))."""
    return [np.tensordot(R.tensor, Ja, axes=([2, 3], [0, 1])) for Ja in H.J]


def normalizes_structure(R: CurvatureTensor, H: HermitianStructure):
    """Commutator membership test: R takes values in the normaliser of
    the structure span iff for every argument pair

        [R(X,Y), J_a] = (eps_a / 2n) (Tr(J_c R(X,Y)) J_b
                                      - Tr(J_b R(X,Y)) J_c)

    over cyclic (a, b, c).  Returns (bool, residual)."""
    d = R.dim
    xs, ys = np.triu_indices(d, 1)
    M = R.tensor[xs, ys].transpose(0, 2, 1)   # stacked R(e_x, e_y), x < y
    traces = [t[xs, ys][:, None, None] for t in structure_traces(R, H)]
    worst = Fraction(0)
    for (a, b, c) in CYCLES:
        lhs = M @ H.J[a] - H.J[a] @ M
        rhs = traces[c] * H.J[b] - traces[b] * H.J[c]
        scale = Fraction(2 * EPS[a], d)  # = eps_a / 2n
        worst = max(worst, exactla.max_abs(lhs - scale * rhs))
    return worst == 0, worst


def ricci_split(R: CurvatureTensor, H: HermitianStructure,
                method: str = "solve"):
    """Unique decomposition R = W + R^B with Ric(W) = 0.

    method 'solve' assembles the dense linear system Ric(R^B) = Ric(R)
    over all bilinear forms and solves it exactly (SingularSystemError
    if it is singular): Ric(R^B) = (dim+3) B - B^T + Psi(B) + Psi(B)^T
    with Psi(B) = sum_a eps_a J_a^T B J_a is, on the row-major vec(B),
    (dim+3) I - P + Psi + P Psi with Psi = sum_a eps_a J_a^T (x) J_a^T and
    P the permutation taking vec(B) to vec(B^T).  Method 'closed' inverts
    the operator on its eigenspaces: dim+8 on symmetric hermitian forms,
    dim on symmetric mixed forms, dim+4 on antisymmetric forms.
    """
    d = R.dim
    ric = ricci(R)
    if method == "closed":
        sym = (ric + ric.T) * Fraction(1, 2)
        alt = (ric - ric.T) * Fraction(1, 2)
        herm, mix, _ = hermitian_projector(BilinearForm(sym), H)
        Bmat = (herm.matrix / Fraction(d + 8) + mix.matrix / Fraction(d)
                + alt / Fraction(d + 4))
    elif method == "solve":
        N = d * d
        diag = np.arange(N)
        transpose = diag.reshape(d, d).T.reshape(-1)   # P as a row order
        # in-place sums keep one N x N temporary (the Kronecker product)
        op = np.kron(Fraction(EPS[0]) * H.J[0].T, H.J[0].T)
        for eps, Ja in zip(EPS[1:], H.J[1:]):
            op += np.kron(Fraction(eps) * Ja.T, Ja.T)
        op += op[transpose]
        op[diag, diag] += d + 3
        op[diag, transpose] -= 1
        try:
            Bvec = exactla.solve(op, ric.reshape(-1))
        except ValueError as err:
            raise SingularSystemError(str(err)) from err
        Bmat = Bvec.reshape(d, d)
    else:
        raise ValueError(f"unknown method {method!r}")
    B = BilinearForm(Bmat)
    W = R - curvature_from_bilinear(B, H)
    return W, B


# ---------------------------------------------------------------------------
# the projective-space model curvature
# ---------------------------------------------------------------------------


def projective_curvature(H: HermitianStructure) -> CurvatureTensor:
    """Closed curvature formula of the para-quaternionic projective space:

        R(X,Y)Z = g(Y,Z)X - g(X,Z)Y
                  + sum_a eps_a ( g(J_aY,Z) J_aX - g(J_aX,Z) J_aY )
                  - 2 sum_a eps_a g(J_aX,Y) J_aZ.

    Evaluates the formula for any hermitian structure (any comrel triple
    with its metric), not only the standard one.
    """
    g = H.g
    t = _metric_terms(g)
    # with A_a = J_a^T g, A_a[x, y] = g(J_a e_x, e_y), the permutations of
    # K are the three structure terms of the formula, in order; R(X, X)
    # vanishes because every J_a is g-skew
    K = _structure_contraction([Ja.T @ g for Ja in H.J], H)
    t += K.transpose(2, 0, 1, 3)
    t -= K.transpose(0, 2, 1, 3)
    K *= 2   # in place: no third d^4 array
    t -= K
    return CurvatureTensor(t, g)


# ---------------------------------------------------------------------------
# symmetric-space oracles
# ---------------------------------------------------------------------------


@dataclass
class SymmetricDecomposition:
    """Structure constants of a Lie algebra split g = m + f.

    c_mm[i, j, a]: coefficient of f_a in [m_i, m_j]
    c_fm[a, i, j]: coefficient of m_j in [f_a, m_i]
    c_ff[a, b, c]: coefficient of f_c in [f_a, f_b]
    g_m: invariant metric on m; structure: hermitian structure on m used
    by the membership and spectrum diagnostics.
    """

    c_mm: np.ndarray
    c_fm: np.ndarray
    c_ff: np.ndarray
    g_m: np.ndarray
    structure: HermitianStructure | None = None

    @property
    def f_dim(self) -> int:
        return self.c_mm.shape[2]

    def validate(self):
        """Symmetric-pair sanity: antisymmetry, metric invariance, and the
        Jacobi identity on tangent triples (which is first Bianchi)."""
        if exactla.max_abs(self.c_mm + self.c_mm.transpose(1, 0, 2)) != 0:
            raise NotSymmetricPairError("[m, m] table is not antisymmetric")
        # ad(f) must be g_m-skew
        for a in range(self.f_dim):
            ad = self.c_fm[a].T  # column i = [f_a, m_i]
            if exactla.max_abs(ad.T @ self.g_m + self.g_m @ ad) != 0:
                raise NotSymmetricPairError("metric is not ad(f)-invariant")
        # Jacobi on (m, m, m): sum_cyc [[m_i, m_j], m_k] = 0
        dbl = np.tensordot(self.c_mm, self.c_fm, axes=([2], [0]))
        cyc = dbl + dbl.transpose(1, 2, 0, 3) + dbl.transpose(2, 0, 1, 3)
        if exactla.max_abs(cyc) != 0:
            raise NotSymmetricPairError("Jacobi identity fails on m triples")

    @classmethod
    def from_matrix_algebra(cls, m_mats, f_mats, g_m, structure=None):
        """Assemble structure constants from explicit real matrices.

        Verifies the closure relations [m,m] within span(f), [f,m] within
        span(m), [f,f] within span(f) exactly; matrix brackets make the
        Jacobi identity automatic.
        """
        c_mm = _bracket_coordinates(m_mats, m_mats, f_mats,
                                    "bracket leaves span(f)")
        c_fm = _bracket_coordinates(f_mats, m_mats, m_mats,
                                    "bracket leaves span(m)")
        c_ff = _bracket_coordinates(f_mats, f_mats, f_mats,
                                    "bracket leaves span(f)")
        return cls(c_mm, c_fm, c_ff, g_m, structure)


def _bracket_coordinates(left, right, basis, label) -> np.ndarray:
    """c[i, j, k]: coefficient of basis[k] in [left[i], right[j]], from one
    frame_coordinates call; NotSymmetricPairError(label) if a bracket
    leaves span(basis)."""
    brackets = [A @ B - B @ A for A in left for B in right]
    coords, residual = exactla.frame_coordinates(
        np.stack([M.reshape(-1) for M in basis], axis=1),
        np.stack([M.reshape(-1) for M in brackets], axis=1))
    if residual != 0:
        raise NotSymmetricPairError(label)
    return coords.T.reshape(len(left), len(right), len(basis))


def symmetric_space_curvature(D: SymmetricDecomposition) -> CurvatureTensor:
    """Base-point curvature R(A, B) C = -[[A, B], C] on the tangent
    summand, in the chosen basis of m."""
    D.validate()
    tensor = np.tensordot(-D.c_mm, D.c_fm, axes=([2], [0]))
    return CurvatureTensor(tensor, D.g_m)


# -- concrete decompositions ------------------------------------------------


def solvable_decomposition(sign: int = 1) -> SymmetricDecomposition:
    """The solvable symmetric pair on a 4-dimensional neutral space.

    One isotropy generator A (right multiplication by (i + j)/2, a null
    imaginary direction, so A^2 = 0) acts on m = R^{2,2}; the only
    nonzero tangent brackets are

        [E1,E2] = [E3,E1] = [E4,E2] = [E3,E4] = sign * A.

    Its curvature is nonzero with identically nilpotent Jacobi operators.
    The compatible structure carried along is the left-multiplication
    triple, which commutes with A.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    half = Fraction(1, 2)
    A = exactla.fracarray([
        [0, -half, half, 0],
        [half, 0, 0, half],
        [half, 0, 0, half],
        [0, half, -half, 0],
    ])
    c_mm = exactla.zeros((4, 4, 1))
    for (i, j) in ((0, 1), (2, 0), (3, 1), (2, 3)):
        c_mm[i, j, 0] = Fraction(sign)
        c_mm[j, i, 0] = Fraction(-sign)
    c_fm = exactla.zeros((1, 4, 4))
    for i in range(4):
        c_fm[0, i] = A[:, i]
    c_ff = exactla.zeros((1, 1, 1))
    g_m = metric_matrix(1)
    return SymmetricDecomposition(c_mm, c_fm, c_ff, g_m,
                                  structure=left_structure_endos(1))


def abelian_decomposition(n: int = 1) -> SymmetricDecomposition:
    """All tangent brackets zero: the flat oracle."""
    dm = 4 * n
    return SymmetricDecomposition(
        exactla.zeros((dm, dm, 1)), exactla.zeros((1, dm, dm)),
        exactla.zeros((1, 1, 1)), metric_matrix(n),
        structure=structure_endos(n))


# 2x2 generators with j1^2 = -1, j2^2 = j3^2 = +1 and the cyclic table
SL2_TRIPLE = (
    exactla.fracarray([[0, 1], [-1, 0]]),
    exactla.fracarray([[0, 1], [1, 0]]),
    exactla.fracarray([[1, 0], [0, -1]]),
)


def special_linear_decomposition(n: int = 2) -> SymmetricDecomposition:
    """Traceless (n+2) x (n+2) matrices split by the 2 + n block involution.

    The isotropy is the full block-diagonal traceless subalgebra (the
    2x2 and n x n traceless blocks plus the one-dimensional relative
    trace, which is needed to close [m, m]); m is the off-diagonal part,
    with the trace form as metric and the adjoint action of the 2x2
    triple as structure.
    """
    N = n + 2

    def unit(p, q):
        M = exactla.zeros((N, N))
        M[p, q] = Fraction(1)
        return M

    m_mats = [unit(p, q) for p in range(2) for q in range(2, N)]
    m_mats += [unit(q, p) for p in range(2) for q in range(2, N)]
    f_mats = []
    for j in SL2_TRIPLE:
        M = exactla.zeros((N, N))
        M[:2, :2] = j
        f_mats.append(M)
    for p in range(2, N):
        for q in range(2, N):
            if p != q:
                f_mats.append(unit(p, q))
    for p in range(2, N - 1):
        f_mats.append(unit(p, p) - unit(p + 1, p + 1))
    center = exactla.zeros((N, N))
    for p in range(2):
        center[p, p] = Fraction(n)
    for p in range(2, N):
        center[p, p] = Fraction(-2)
    f_mats.append(center)

    # g_m[i, j] = Tr(m_i m_j), a sum over entries of m_i and m_j^T
    g_m = (np.stack([M.reshape(-1) for M in m_mats])
           @ np.stack([M.T.reshape(-1) for M in m_mats]).T)
    # the structure is the adjoint action of the 2x2 triple, f_mats[:3];
    # coords[a, i] holds the coordinates of [f_a, m_i], column i of J_a
    coords = _bracket_coordinates(f_mats[:3], m_mats, m_mats,
                                  "structure action leaves m")
    Jms = [c.T for c in coords]
    H = HermitianStructure(*Jms, g_m)
    return SymmetricDecomposition.from_matrix_algebra(m_mats, f_mats, g_m, H)


def projective_pair(n: int):
    """The symmetric pair behind the projective-space model, presented on
    the standard module.

    The isometry algebra consists of anti-hermitian (n+1) x (n+1)
    matrices over the split quaternions; the tangent summand is the
    first-column slice v -> M(v) with M(v) = [[0, -conj(v)^T], [v, 0]].
    Brackets of such slices land in the isotropy block, and the negated
    double bracket read back off the first column gives the curvature on
    the standard rank-n module with the standard metric and structure.
    """
    def embed(v: PQVector) -> PQMatrix:
        entries = [[SplitQuaternion() for _ in range(n + 1)]
                   for _ in range(n + 1)]
        for r, h in enumerate(v.entries):
            entries[r + 1][0] = h
            entries[0][r + 1] = -h.conj()
        return PQMatrix(entries)

    def extract(M: PQMatrix) -> PQVector:
        return PQVector(M.entries[r + 1][0] for r in range(n))

    d = 4 * n
    tensor = exactla.zeros((d, d, d, d))
    basis = [PQVector.from_real([1 if r == s else 0 for r in range(d)])
             for s in range(d)]
    embedded = [embed(v) for v in basis]
    for x in range(d):
        for y in range(x + 1, d):
            # [M(e_y), M(e_x)] negates the double bracket
            inner = embedded[y].commutator(embedded[x])
            for z in range(d):
                out = extract(inner.commutator(embedded[z]))
                tensor[x, y, z] = out.to_real()
                tensor[y, x, z] = -tensor[x, y, z]
    return CurvatureTensor(tensor, metric_matrix(n))


def ambient_projective_curvature(n: int) -> CurvatureTensor:
    """Curvature of the rank-n ambient projective model.  The metric of
    the unit-pseudosphere submersion gives exactly the closed formula of
    projective_curvature on the standard structure."""
    return projective_curvature(structure_endos(n))


# ---------------------------------------------------------------------------
# Jacobi operators and spectra
# ---------------------------------------------------------------------------


def jacobi_operator(R: CurvatureTensor, X: np.ndarray) -> np.ndarray:
    """Matrix of K_X: Y -> R(X, Y) X; column y is the image of e_y."""
    t1 = np.tensordot(X, R.tensor, axes=([0], [0]))   # (y, z, w)
    t2 = np.tensordot(X, t1, axes=([0], [1]))         # (y, w)
    return t2.T


def restrict_to_complement(R: CurvatureTensor, X: np.ndarray):
    """(matrix of K_X on X-orthogonal vectors, basis columns)."""
    basis = exactla.nullspace((R.metric @ X).reshape(1, -1))
    img = jacobi_operator(R, X) @ basis
    coords = exactla.solve(basis.T @ basis, basis.T @ img)
    return coords, basis


def minimal_polynomial_degree(M: np.ndarray) -> int:
    """Degree of the minimal polynomial of an exact matrix."""
    d = M.shape[0]
    powers = [exactla.eye(d).reshape(-1)]
    cur = exactla.eye(d)
    for k in range(1, d + 1):
        cur = cur @ M
        powers.append(cur.reshape(-1))
        stack = np.stack(powers, axis=1)
        if exactla.rank(stack) < k + 1:
            return k
    return d


@dataclass
class DirectionSpectrum:
    direction_index: int
    metric_sign: int
    eigenvalues: list
    min_poly_degree: int
    is_nilpotent: bool
    operator_nonzero: bool


@dataclass
class SpectrumReport:
    directions: list
    spacelike_agree: bool
    timelike_agree: bool

    @property
    def pointwise_osserman(self) -> bool:
        return self.spacelike_agree and self.timelike_agree


def jacobi_spectrum_report(R: CurvatureTensor, directions) -> SpectrumReport:
    """Per-direction eigenvalues of K_X restricted to the orthogonal
    complement, with agreement verdicts split by the sign of g(X, X).

    Directions must satisfy |g(X, X)| = 1 up to SPECTRUM_TOLERANCE; a null
    direction raises NullDirectionError.  Nilpotent Jordan structure is
    detected through the minimal-polynomial degree and a K_X^2 = 0 test
    rather than full Jordan forms.
    """
    g = R.metric
    entries = []
    for idx, X in enumerate(directions):
        X = np.asarray(X)
        norm = X @ g @ X
        if norm == 0 or abs(float(norm)) < 1e-15:
            raise NullDirectionError(f"direction {idx} is null")
        if abs(abs(float(norm)) - 1.0) > SPECTRUM_TOLERANCE:
            raise ValueError(f"direction {idx} is not unit: g(X,X)={norm}")
        Kres, _ = restrict_to_complement(R, X)
        Kfloat = np.array(Kres, dtype=float)
        eig = np.linalg.eigvals(Kfloat)
        eig = sorted(eig, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        deg = minimal_polynomial_degree(Kres)
        Kfull = jacobi_operator(R, X)
        nil = exactla.max_abs(Kfull @ Kfull) == 0
        nonzero = exactla.max_abs(Kfull) != 0
        entries.append(DirectionSpectrum(
            direction_index=idx,
            metric_sign=1 if float(norm) > 0 else -1,
            eigenvalues=[complex(z) for z in eig],
            min_poly_degree=deg,
            is_nilpotent=bool(nil),
            operator_nonzero=bool(nonzero)))

    def agree(sign):
        group = [e.eigenvalues for e in entries if e.metric_sign == sign]
        if len(group) < 2:
            return True
        first = np.array(group[0])
        return all(np.allclose(np.array(other), first,
                               atol=SPECTRUM_TOLERANCE,
                               rtol=SPECTRUM_TOLERANCE) for other in group[1:])

    return SpectrumReport(directions=entries,
                          spacelike_agree=agree(1),
                          timelike_agree=agree(-1))


# ---------------------------------------------------------------------------
# hyper-type Weyl samples through the tensor splitting
# ---------------------------------------------------------------------------


def weyl_sample(H: HermitianStructure, split: GrassmanSplit,
                rng) -> CurvatureTensor:
    """Random Ricci-flat curvature tensor commuting with the whole
    structure, built from a random fully symmetric 4-tensor on the E
    factor of the tensor splitting.

    With s in S^4 E* and shat the omega_E-raised contraction, the tensor
    R(e (x) h, e' (x) h') = omega_H(h, h') shat(e, e', .) (x) id_H is
    antisymmetric, satisfies Bianchi (the dim-2 identity on the H factor
    against the full symmetry of s), takes values commuting with every
    J_a, and is traceless in the Ricci sense.
    """
    m = len(split.e_basis)          # 2n
    d = 2 * m
    s4 = exactla.zeros((m, m, m, m))
    for idx in combinations_with_replacement(range(m), 4):
        val = Fraction(rng.randint(-3, 3))
        for perm in permutations(idx):
            s4[perm] = val
    omega_inv_t = exactla.inverse(split.omega_e).T
    shat = np.tensordot(s4, omega_inv_t, axes=([3], [0]))  # (i, j, k, l)
    # tensor[(i,a), (j,b), (k,c), (l,d)] = omega_h[a,b] shat[i,j,k,l] delta[c,d]
    blocks = np.multiply.outer(np.multiply.outer(shat, split.omega_h),
                               exactla.eye(2))
    tensor = blocks.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(d, d, d, d)
    # transform from tensor coordinates to the ambient basis:
    # R_V[x,y,z,w] = Cinv[p,x] Cinv[q,y] Cinv[r,z] R_t[p,q,r,t] C[w,t]
    C = split.change
    Cinv = exactla.inverse(C)
    t = np.tensordot(tensor, C, axes=([3], [1]))
    for axis in range(3):
        t = np.moveaxis(np.tensordot(Cinv, t, axes=([0], [axis])), 0, axis)
    return CurvatureTensor(t, H.g)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def curvature_to_text(R: CurvatureTensor) -> str:
    header = {"n": R.dim // 4, "convention": CONVENTION,
              "mode": "exact" if R.is_exact() else "float"}
    entries = [str(x) for x in R.tensor.reshape(-1)]
    gvals = [str(x) for x in R.metric.reshape(-1)]
    return json.dumps(header) + "\n" + " ".join(entries) + "\n" + " ".join(gvals) + "\n"


def curvature_from_text(text: str) -> CurvatureTensor:
    head, body, gline = text.strip().split("\n")
    header = json.loads(head)
    convention = header.get("convention")
    if convention != CONVENTION:
        raise ValueError(f"unsupported product-table convention "
                         f"{convention!r}; expected {CONVENTION!r}")
    d = 4 * header["n"]
    toks = body.split()
    gtoks = gline.split()
    if header["mode"] == "exact":
        tensor = exactla.fracarray(toks).reshape(d, d, d, d)
        metric = exactla.fracarray(gtoks).reshape(d, d)
    else:
        tensor = np.array([float(x) for x in toks]).reshape(d, d, d, d)
        metric = np.array([float(x) for x in gtoks]).reshape(d, d)
    return CurvatureTensor(tensor, metric)
