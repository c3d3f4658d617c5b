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

Arithmetic.  A ``CurvatureTensor`` is exact and held as scaled integers:
``tensor`` is an integer array and ``scale`` a positive int, and the
curvature is tensor / scale; its metric is the pair ``metric`` = (G, LG)
with G an object array of Python ints.  The builders compute from the
integer pairs of their inputs (``scaled_J`` and ``scaled_g`` of a
``HermitianStructure``, ``scaled`` of a ``BilinearForm``, the pairs of a
``GrassmanSplit``), and return that pair as it is.  The diagnostics
hand pairs on as well: ``ricci`` returns (N, L), ``structure_traces``
(T, L) with T[x, y, a], ``jacobi_operator`` (K, L) for an integer
direction, ``restrict_to_complement`` the pair of the restricted
operator beside the kernel pair of its basis, and ``power_sums`` takes
such a pair; only scalar results (constants, residuals, power sums)
become ``Fraction``s.  The inverses of ``weyl_sample`` and
``scalar_curvature`` are the (X, L) pairs of ``exactla.inverse``, used
as they are.  A ``SymmetricDecomposition`` holds its structure
constants and its metric as pairs: ``_bracket_coordinates`` returns the
integer pair of its ``frame_coordinates`` call, which
``from_matrix_algebra`` keeps, and ``special_linear_decomposition`` and
``solvable_decomposition`` write their matrices as Python ints.
Entry types are checked once, where data enters, by
``exactla.require_python_ints``: the public constructor takes an int64
tensor, held as it is, or one of Python ints, and raises TypeError on
any other tensor entry, on a metric entry that is not a Python int and
on a scale that is not a positive int; a Jacobi direction must be of
Python ints.  Exact ``Fraction``/int arrays enter through
``CurvatureTensor.from_fractions`` (and with it ``curvature_from_text``),
which scales them to integers and raises TypeError on any other entry.
The builders, ``+``, ``-`` and ``times`` make only integer arrays and
positive int scales, and hand their pairs to the private ``_unchecked``
constructor, which scans no entry type and only decides the width.  The
integer pairs of their inputs (``BilinearForm(N, L)``, a structure with
``scales``) are trusted as well; the width decision and the scalar
results read their entries through ``operator.index``, so a float that
came in that way raises TypeError there instead of being truncated.
``fractions()`` is the ``Fraction`` view that ``curvature_to_text``
writes out; the text format has the single mode "exact".  The
commutators with the J_a and the change of basis of the tensor splitting
go through ``exactla.contract``, one slice operation per nonzero matrix
entry: on the standard structure each J_a is a signed permutation and
the change of basis has at most two nonzeros per row.  The standard model (``ambient_projective_curvature``)
is built once per rank and shared, and its tensor is read-only.

Width.  The tensor is int64 when every entry is below 2^62 in absolute
value, and Python ints otherwise: ``exactla.words(1, tensor)`` decides
it when the tensor is held, and this module reads no dtype (there is no
setting, the width comes from the data).  Each builder and kernel states
its growth, a bound on every entry and partial sum it forms per unit of
its largest input entry, with the largest entries of its other inputs
(``exactla.top``) multiplied in, and hands it to ``exactla.words`` with
all its integer operands, which come back all as int64 or all as Python
ints.  The builders read their small inputs that way
(``projective_curvature`` 14 d max(LJ, max|J|)^2 per unit of the
metric, ``curvature_from_bilinear`` 16 d max(LJ, max|J|)^2 per unit of
B; ``weyl_sample``, ``projective_pair`` and ``symmetric_space_curvature``
state theirs), and the kernels check theirs before they compute (3 for
``bianchi_residual``, d for ``ricci``, d^2 max|J| for
``structure_traces``, 6 d^2 max|J| max(LJ, max|J|) for
``normalizes_structure``, d^2 max|X|^2 for ``jacobi_operator``, twice
the larger rescaling for ``+`` and ``-``, |c| for ``times``, 1 for
``max_abs``).  Under 2^62 they run on int64; above it the same
expressions run on Python ints, which do not overflow.
Results of size d^2 or less (Ricci forms, structure traces, Jacobi
operators) are object arrays of Python ints, and every scalar is read
through ``operator.index``, so no numpy integer reaches a ``Fraction``,
an elimination of ``exactla``, ``forms`` or ``linalg``.

Ricci splitting.  ``ricci_split`` inverts the Ricci map of the linear
family R^B on its three eigenspaces (closed formula); the dense
Kronecker system of the same map is assembled and solved only in the
tests, as the reference the closed route is compared with.

Spectra.  A Jacobi spectrum is held as the exact power sums of the
restricted operator (``power_sums``), and its nilpotency as a K_X^2 = 0
test on integers; float eigenvalues appear only in the tests, as the
reference the power sums are compared with.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, permutations
from operator import index

import numpy as np

from . import exactla
from .algebra import EPS, SplitQuaternion
from .forms import BilinearForm, hermitian_projector
from .linalg import (HermitianStructure, GrassmanSplit, batch_matmul,
                     left_structure_endos, metric_matrix, structure_endos)

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# product-table convention of the stored tensors (see the algebra module)
CONVENTION = "cyclic-ijk"


class NotSymmetricPairError(ValueError):
    """Structure constants fail the symmetric-pair or Jacobi conditions."""


class NullDirectionError(ValueError):
    """A sampled Jacobi direction is null."""


class ComplementLeakError(ValueError):
    """A Jacobi operator K_X maps a vector orthogonal to X out of the
    orthogonal complement of X: the tensor lacks the symmetries of a
    curvature tensor."""


class CurvatureTensor:
    """Dense (1,3) curvature array tensor / scale with its companion
    metric G / LG, held as the pair ``metric`` = (G, LG): scale and LG
    ints >= 1, G an object array of Python ints, and tensor an int64
    array when every entry is below 2^62 in absolute value
    (exactla.words), an object array of Python ints otherwise.  The
    public constructor takes an array of Python ints or an int64 array,
    which is exact by its dtype; TypeError on any other entry (a numpy
    int inside an object array among them, which would wrap in object
    arithmetic), on a metric that is not of Python ints, or on a scale
    that is not an int >= 1."""

    def __init__(self, tensor, scale: int, metric):
        tensor = exactla.require_python_ints(tensor, "curvature tensor",
                                             scale, int64=True)
        G, LG = metric
        self._hold(tensor, scale,
                   (exactla.require_python_ints(G, "metric", LG), LG))

    @classmethod
    def _unchecked(cls, tensor, scale: int, metric) -> "CurvatureTensor":
        """The tensor of integer pairs built by the package, which makes
        only integer arrays and positive int scales: no entry type is
        scanned."""
        R = cls.__new__(cls)
        R._hold(tensor, scale, metric)
        return R

    def _hold(self, tensor, scale: int, metric):
        """Hold tensor as int64 when it fits (exactla.words at growth 1:
        the max and min of a machine integer array, the entries of an
        object array read once through operator.index), as Python ints
        otherwise."""
        self.tensor, = exactla.words(1, tensor)
        self.scale, self.metric = scale, metric

    @classmethod
    def from_fractions(cls, tensor, metric) -> "CurvatureTensor":
        """The tensor of an exact array and an exact metric, both scaled
        to integers; TypeError unless every entry is an int or a
        Fraction."""
        return cls._unchecked(*exactla.scaled_integers(tensor),
                              exactla.scaled_integers(metric))

    def fractions(self) -> np.ndarray:
        """The Fraction array tensor / scale."""
        return exactla.from_scaled_integers(self.tensor, self.scale)

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "CurvatureTensor":
        """self + sign * other over the lcm L of the two scales: every
        entry is at most 2 max(L / LA, L / LB) max|A| max|B| for the
        tensors A / LA and B / LB."""
        LA, LB = self.scale, other.scale
        L = math.lcm(LA, LB)
        A, B = exactla.words(
            2 * max(L // LA, L // LB) * exactla.top(other.tensor),
            self.tensor, other.tensor)
        return CurvatureTensor._unchecked(
            *exactla.add_scaled(A, LA, B, LB, sign), self.metric)

    def times(self, c) -> "CurvatureTensor":
        """The multiple c R, each entry |c.numerator| times one of R;
        TypeError unless c is an int or a Fraction."""
        c = exactla.frac(c)
        t, = exactla.words(abs(c.numerator), self.tensor)
        return CurvatureTensor._unchecked(t * c.numerator,
                                          self.scale * c.denominator,
                                          self.metric)

    def max_abs(self) -> Fraction:
        """The max |entry| / scale (growth 1)."""
        t, = exactla.words(1, self.tensor)
        return Fraction(index(exactla.max_abs(t)), self.scale)


def bianchi_residual(R: CurvatureTensor) -> Fraction:
    """Max-norm of the cyclic sum R(X,Y)Z + R(Y,Z)X + R(Z,X)Y: each entry
    a sum of 3 entries of R (growth 3)."""
    t, = exactla.words(3, R.tensor)
    cyc = t + t.transpose(1, 2, 0, 3)
    cyc += t.transpose(2, 0, 1, 3)
    return Fraction(index(exactla.max_abs(cyc)), R.scale)


def ricci(R: CurvatureTensor):
    """(N, L) with Ric(e_y, e_z) = N[y, z] / L, where
    Ric(Y, Z) = Tr(X -> R(X, Y) Z) is traced over the first slot: N a
    sum of d entries of R (growth d), returned as Python ints."""
    t, = exactla.words(R.dim, R.tensor)
    return exactla.python_ints(np.trace(t, axis1=0, axis2=3)), R.scale


def scalar_curvature(R: CurvatureTensor) -> Fraction:
    """K = Tr(g^-1 Ric), summed elementwise on scaled integers: with
    g = G / LG and G^-1 = Ginv / Linv, g^-1 = LG Ginv / Linv."""
    G, LG = R.metric
    Ginv, Linv = exactla.inverse(G)
    ric, LR = ricci(R)
    return Fraction(LG * index((Ginv * ric.T).sum()), Linv * LR)


def einstein_check(R: CurvatureTensor):
    """(constant, residual) for Ric(R) = constant * g, with the constant
    K(R)/dim read off the metric trace; the residual is the max entry of
    Ric - constant g, formed on integers."""
    G, LG = R.metric
    const = scalar_curvature(R) / R.dim
    residual = exactla.scaled_distance(*ricci(R), G * const.numerator,
                                       LG * const.denominator)
    return const, residual


# ---------------------------------------------------------------------------
# the linear family R^B and the Ricci splitting
# ---------------------------------------------------------------------------


def _metric_terms(S) -> np.ndarray:
    """t[x, y, z, w] = S[y, z] delta[x, w] - S[x, z] delta[y, w], the
    leading terms of both the model formula and the R^B family, for an
    integer matrix S, in its dtype; each entry is at most 2 max|S|."""
    d = S.shape[0]
    t = np.zeros((d, d, d, d), dtype=S.dtype)
    diag = np.arange(d)
    t[diag, :, :, diag] += S
    t[:, diag, :, diag] -= S
    return t


def _structure_contraction(A, J) -> np.ndarray:
    """K[p, q, r, s] = sum_a eps_a A_a[p, q] J_a[s, r], for integer A_a
    and the stacked integer J_a."""
    signed = np.stack([eps * Aa for eps, Aa in zip(EPS, A)])
    return np.tensordot(signed, J.transpose(0, 2, 1), axes=([0], [0]))


def curvature_from_bilinear(B: BilinearForm,
                            H: HermitianStructure) -> CurvatureTensor:
    """The curvature tensor attached linearly to a bilinear form:

        R^B(X,Y)Z = B(Y,Z)X - B(X,Z)Y + (B(Y,X) - B(X,Y))Z
                    + sum_a eps_a [ (B(X,J_aY) - B(Y,J_aX)) J_aZ
                                    + B(X,J_aZ) J_aY - B(Y,J_aZ) J_aX ].

    Satisfies the first Bianchi identity for every B, is injective in B,
    and sends the metric itself to the projective-space curvature.

    Width: per unit of max|B| (the integer form M), the metric and trace
    terms reach 4 LJ^2 and the four structure terms 3 d max|J|^2 each,
    so 16 d max(LJ, max|J|)^2 bounds every entry and partial sum; under
    2^62 the build runs on int64, otherwise on Python ints.
    """
    M, LB = B.scaled
    J, LJ = H.scaled_J
    M, J = exactla.words(16 * H.dim * max(LJ, exactla.top(J)) ** 2, M, J)
    t = _metric_terms(M)
    diag = np.arange(H.dim)
    t[:, :, diag, diag] += (M.T - M)[:, :, None]
    t *= LJ * LJ   # to the scale LB LJ^2 of K
    # with A_a = B J_a, A_a[x, y] = B(e_x, J_a e_y), the four permutations
    # of K are the four structure terms of the formula, in order
    K = _structure_contraction([M @ Ja for Ja in J], J)
    t += K
    t -= K.transpose(1, 0, 2, 3)
    t += K.transpose(0, 2, 1, 3)
    t -= K.transpose(2, 0, 1, 3)
    del K
    return CurvatureTensor._unchecked(t, LB * LJ * LJ, H.scaled_g)


def structure_traces(R: CurvatureTensor, H: HermitianStructure):
    """(T, L): the three scalar 2-forms (X, Y) -> Tr(J_a R(X, Y)) as
    Tr(J_a R(e_x, e_y)) = T[x, y, a] / L, on the integer members of H:
    each entry a sum of d^2 products (growth d^2 max|J|), returned as
    Python ints."""
    J, LJ = H.scaled_J
    t, J = exactla.words(R.dim ** 2 * exactla.top(J), R.tensor, J)
    return (exactla.python_ints(np.tensordot(t, J, axes=([2, 3], [1, 2]))),
            R.scale * LJ)


def normalizes_structure(R: CurvatureTensor, H: HermitianStructure):
    """Commutator membership test: R takes values in the normaliser of
    the structure span iff for every argument pair

        [R(X,Y), J_a] = (eps_a / 2n) (Tr(J_c R(X,Y)) J_b
                                      - Tr(J_b R(X,Y)) J_c)

    over cyclic (a, b, c).  Returns (bool, residual).

    Width: per unit of max|R|, with m = max|J|, the traces reach d^2 m,
    the commutators 2 d m, the trace terms 2 d^2 m^2 and the residual
    2 d^2 m LJ + 4 d^2 m^2, so 6 d^2 m max(LJ, m) bounds every entry and
    partial sum; under 2^62 the test runs on int64, otherwise on Python
    ints."""
    d = R.dim
    LR = R.scale
    J, LJ = H.scaled_J
    m = exactla.top(J)
    t, J = exactla.words(6 * d * d * m * max(LJ, m), R.tensor, J)
    xs, ys = np.triu_indices(d, 1)
    M = t[xs, ys].transpose(0, 2, 1)   # stacked R(e_x, e_y), x < y
    # the structure traces of those pairs, as in structure_traces
    T = np.tensordot(t[xs, ys], J, axes=([1, 2], [1, 2]))
    traces = [T[:, a, None, None] for a in range(3)]
    worst = 0
    for (a, b, c) in CYCLES:
        # M @ J_a - J_a @ M, scale LR LJ
        lhs = exactla.contract(M, J[a].T, 2) - exactla.contract(M, J[a], 1)
        rhs = traces[c] * J[b] - traces[b] * J[c]           # scale LR LJ^2
        # lhs - (eps_a / 2n) rhs over the scale LR LJ^2 d, as d = 4n
        residual = (d * LJ) * lhs - (2 * EPS[a]) * rhs
        worst = max(worst, index(exactla.max_abs(residual)))
    worst = Fraction(worst, LR * LJ * LJ * d)
    return worst == 0, worst


def ricci_split(R: CurvatureTensor, H: HermitianStructure):
    """Unique decomposition R = W + R^B with Ric(W) = 0.

    Ric(R^B) = (dim+3) B - B^T + Psi(B) + Psi(B)^T with Psi(B) =
    sum_a eps_a J_a^T B J_a.  The operator acts by dim+8 on symmetric
    hermitian forms, by dim on symmetric mixed forms and by dim+4 on
    antisymmetric forms, so B is Ric(R) split by the hermitian projector
    and divided on each part, all on integers: the Ricci trace of the
    tensor, the integer members of H and one common scale for B, which
    reaches curvature_from_bilinear as an integer-backed form.  The
    eigenvalues hold for a structure with the cyclic product table and
    metric-skew members only:
    DegenerateStructureError for any other triple (one built with
    validate=False).
    """
    H.check_relations()
    d = R.dim
    # on integers: ric over LR, its symmetric and antisymmetric parts over
    # 2 LR, herm and mix over S = 4 LJ^2 (2 LR) = 4 LJ^2 times that
    ric, LR = ricci(R)
    LJ = H.scaled_J[1]
    herm, mix, _ = hermitian_projector(BilinearForm(ric + ric.T, 2 * LR), H)
    (Nh, S), (Nm, _) = herm.scaled, mix.scaled
    # B = herm / (d+8) + mix / d + alt / (d+4) over S d (d+4) (d+8),
    # reduced by the common gcd
    N = (Nh * (d * (d + 4)) + Nm * ((d + 4) * (d + 8))
         + (ric - ric.T) * (4 * LJ * LJ * d * (d + 8)))
    L = S * d * (d + 4) * (d + 8)
    common = math.gcd(L, *N.reshape(-1))
    B = BilinearForm(N // common, L // common)
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

    Width: per unit of max|g|, the metric terms reach 2 LJ^2 and the four
    structure terms (2 K counts twice) 3 d max|J|^2 each, so
    14 d max(LJ, max|J|)^2 bounds every entry and partial sum; under
    2^62 the build runs on int64, otherwise on Python ints.
    """
    g, Lg = H.scaled_g
    J, LJ = H.scaled_J
    g, J = exactla.words(14 * H.dim * max(LJ, exactla.top(J)) ** 2, g, J)
    t = _metric_terms(g)
    t *= LJ * LJ   # to the scale Lg LJ^2 of K
    # with A_a = J_a^T g, A_a[x, y] = g(J_a e_x, e_y), the permutations of
    # K are the three structure terms of the formula, in order; R(X, X)
    # vanishes because every J_a is g-skew
    K = _structure_contraction([Ja.T @ g for Ja in J], J)
    t += K.transpose(2, 0, 1, 3)
    t -= K.transpose(0, 2, 1, 3)
    K *= 2   # in place: no third d^4 array
    t -= K
    del K
    return CurvatureTensor._unchecked(t, Lg * LJ * LJ, H.scaled_g)


# ---------------------------------------------------------------------------
# symmetric-space oracles
# ---------------------------------------------------------------------------


@dataclass
class SymmetricDecomposition:
    """Structure constants of a Lie algebra split g = m + f, each table
    and the metric a scaled-integer pair (N, L), N an object array of
    Python ints and L its scale:

    c_mm[i, j, a]: coefficient of f_a in [m_i, m_j]
    c_fm[a, i, j]: coefficient of m_j in [f_a, m_i]
    c_ff[a, b, c]: coefficient of f_c in [f_a, f_b]
    g_m: invariant metric on m; structure: hermitian structure on m used
    by the membership and spectrum diagnostics.
    """

    c_mm: tuple
    c_fm: tuple
    c_ff: tuple
    g_m: tuple
    structure: HermitianStructure | None = None

    def __post_init__(self):
        # TypeError on a float or complex table here, where users build
        # the pair, not in a later integer read
        for name in ("c_mm", "c_fm", "c_ff", "g_m"):
            N, L = getattr(self, name)
            setattr(self, name, (exactla.integer_array(N), L))

    @classmethod
    def from_matrix_algebra(cls, m_mats, f_mats, g_m, structure=None):
        """Assemble structure constants from explicit real matrices and
        an exact metric, which is scaled to integers once.

        Verifies the closure relations [m,m] within span(f), [f,m] within
        span(m), [f,f] within span(f) exactly; matrix brackets make the
        Jacobi identity automatic.
        """
        return cls(
            _bracket_coordinates(m_mats, m_mats, f_mats,
                                 "bracket leaves span(f)"),
            _bracket_coordinates(f_mats, m_mats, m_mats,
                                 "bracket leaves span(m)"),
            _bracket_coordinates(f_mats, f_mats, f_mats,
                                 "bracket leaves span(f)"),
            exactla.scaled_integers(g_m), structure)


def _bracket_coordinates(left, right, basis, label):
    """(c, L): c[i, j, k] / L is the coefficient of basis[k] in
    [left[i], right[j]], from one frame_coordinates call on integers;
    NotSymmetricPairError(label) if a bracket leaves span(basis)."""
    A, LA = exactla.scaled_integers(np.stack(left))
    B, LB = exactla.scaled_integers(np.stack(right))
    # brackets[i, j] = [left[i], right[j]], on integers over LA * LB
    brackets = A[:, None] @ B[None] - B[None] @ A[:, None]
    (c, Lc), residual = exactla.frame_coordinates(
        np.stack([M.reshape(-1) for M in basis], axis=1),
        brackets.reshape(len(left) * len(right), -1).T)
    if residual != 0:
        raise NotSymmetricPairError(label)
    return c.T.reshape(len(left), len(right), len(basis)), Lc * LA * LB


def symmetric_space_curvature(D: SymmetricDecomposition) -> CurvatureTensor:
    """Base-point curvature R(A, B) C = -[[A, B], C] on the tangent
    summand, in the chosen basis of m.

    NotSymmetricPairError unless the pair passes the symmetric-pair
    sanity tests: antisymmetry of [m, m], ad(f)-invariance of the metric,
    and the Jacobi identity on tangent triples (which is first Bianchi).
    The tests are zero tests on the integer tables, and the double
    brackets are formed once, for the Jacobi test and the tensor: each
    entry of their cyclic sum is at most 3 nf max|c_mm| max|c_fm| for nf
    isotropy generators, on int64 under 2^62, on Python ints otherwise."""
    (mm, Lmm), (fm, Lfm), (g, _) = D.c_mm, D.c_fm, D.g_m
    if exactla.max_abs(mm + mm.transpose(1, 0, 2)) != 0:
        raise NotSymmetricPairError("[m, m] table is not antisymmetric")
    # ad(f) must be g_m-skew; fm[a] = ad(f_a)^T, row i = [f_a, m_i]
    if exactla.max_abs(fm @ g + g @ fm.transpose(0, 2, 1)) != 0:
        raise NotSymmetricPairError("metric is not ad(f)-invariant")
    # dbl / (Lmm Lfm) is the coefficient of m_l in [[m_j, m_i], m_k] =
    # -[[m_i, m_j], m_k], as [m, m] is antisymmetric (tested above);
    # Jacobi on (m, m, m): sum_cyc [[m_i, m_j], m_k] = 0
    mm, fm = exactla.words(3 * len(fm) * exactla.top(fm), mm, fm)
    dbl = np.tensordot(mm.transpose(1, 0, 2), fm, axes=([2], [0]))
    cyc = dbl + dbl.transpose(1, 2, 0, 3) + dbl.transpose(2, 0, 1, 3)
    if exactla.max_abs(cyc) != 0:
        raise NotSymmetricPairError("Jacobi identity fails on m triples")
    return CurvatureTensor._unchecked(dbl, Lmm * Lfm, D.g_m)


# -- concrete decompositions ------------------------------------------------


def solvable_decomposition(sign: int = 1) -> SymmetricDecomposition:
    """The solvable symmetric pair on a 4-dimensional neutral space.

    One isotropy generator A (right multiplication by (i + j)/2, a null
    imaginary direction, so A^2 = 0) acts on m = R^{2,2}; the only
    nonzero tangent brackets are

        [E1,E2] = [E3,E1] = [E4,E2] = [E3,E4] = sign * A.

    Its curvature is nonzero with identically nilpotent Jacobi operators.
    The compatible structure carried along is the left-multiplication
    triple, which commutes with A.  The tables are integer pairs, with A
    written as Python ints over the scale 2.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    A = np.array([[0, -1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, -1, 0]],
                 dtype=object)
    c_mm = np.zeros((4, 4, 1), dtype=object)
    for (i, j) in ((0, 1), (2, 0), (3, 1), (2, 3)):
        c_mm[i, j, 0] = sign
        c_mm[j, i, 0] = -sign
    # row i of c_fm[0] is column i of A
    return SymmetricDecomposition(
        (c_mm, 1), (A.T[None], 2), (np.zeros((1, 1, 1), dtype=object), 1),
        (metric_matrix(1), 1), structure=left_structure_endos(1))


# 2x2 generators with j1^2 = -1, j2^2 = j3^2 = +1 and the cyclic table,
# as object arrays of Python ints
SL2_TRIPLE = (
    np.array([[0, 1], [-1, 0]], dtype=object),
    np.array([[0, 1], [1, 0]], dtype=object),
    np.array([[1, 0], [0, -1]], dtype=object),
)


def special_linear_decomposition(n: int = 2) -> SymmetricDecomposition:
    """Traceless (n+2) x (n+2) matrices split by the 2 + n block involution.

    The isotropy is the full block-diagonal traceless subalgebra (the
    2x2 and n x n traceless blocks plus the one-dimensional relative
    trace, which is needed to close [m, m]); m is the off-diagonal part,
    with the trace form as metric and the adjoint action of the 2x2
    triple as structure.  Every matrix is an object array of Python ints.
    """
    N = n + 2

    def unit(p, q):
        M = np.zeros((N, N), dtype=object)
        M[p, q] = 1
        return M

    m_mats = [unit(p, q) for p in range(2) for q in range(2, N)]
    m_mats += [unit(q, p) for p in range(2) for q in range(2, N)]
    f_mats = []
    for j in SL2_TRIPLE:
        M = np.zeros((N, N), dtype=object)
        M[:2, :2] = j
        f_mats.append(M)
    for p in range(2, N):
        for q in range(2, N):
            if p != q:
                f_mats.append(unit(p, q))
    for p in range(2, N - 1):
        f_mats.append(unit(p, p) - unit(p + 1, p + 1))
    f_mats.append(np.diag(np.array([n] * 2 + [-2] * n, dtype=object)))

    # g_m[i, j] = Tr(m_i m_j), a sum over entries of m_i and m_j^T
    g_m = (np.stack([M.reshape(-1) for M in m_mats])
           @ np.stack([M.T.reshape(-1) for M in m_mats]).T)
    # the structure is the adjoint action of the 2x2 triple, f_mats[:3];
    # coords[a, i] / L holds the coordinates of [f_a, m_i], column i of J_a
    coords, L = _bracket_coordinates(f_mats[:3], m_mats, m_mats,
                                     "structure action leaves m")
    H = HermitianStructure(*coords.transpose(0, 2, 1), g_m, scales=(L, 1))
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

    Batching.  The d = 4n slices M(e_s) are one coefficient array of
    Python ints (see linalg.batch_matmul).  Every bracket
    [M(e_y), M(e_x)], x < y, comes from one batch product; the double
    brackets are then formed one third index z at a time, and only their
    first column, the part that is read off.  A batch over all z at once
    would hold d times larger intermediates for no fewer operations, so
    the per-z slices bound the peak memory of the build by that of the
    bracket batch.

    Width: the slices have entries 0 and +-1; an entry of a product of
    two coefficient arrays is a signed sum of 4 (n+1) products, so the
    brackets reach 8 (n+1) and the double brackets 64 (n+1)^2, at most
    256 n^2: on int64 under 2^62, on Python ints otherwise.
    """
    d = 4 * n
    # basis[u, s, r]: coefficient u of entry r of e_s (interleaved coordinates)
    basis = np.zeros((4, d, n), dtype=object)
    for s in range(d):
        basis[s % 4, s, s // 4] = 1
    M = np.zeros((4, d, n + 1, n + 1), dtype=object)
    M[:, :, 1:, 0] = basis
    M[:, :, 0, 1:] = (-SplitQuaternion(*basis).conj()).coefficients()
    M, = exactla.words(256 * n * n, M)
    xs, ys = np.triu_indices(d, 1)
    # [M(e_y), M(e_x)] negates the double bracket
    inner = (batch_matmul(M[:, ys], M[:, xs])
             - batch_matmul(M[:, xs], M[:, ys]))
    tensor = np.zeros((d, d, d, d), dtype=M.dtype)
    for z in range(d):
        Mz = M[:, z]
        # first column of [inner, M(e_z)], rows 1..n in real coordinates
        col = (batch_matmul(inner, Mz[..., :1])
               - batch_matmul(Mz, inner[..., :1]))
        tensor[xs, ys, z] = col[:, :, 1:, 0].transpose(1, 2, 0).reshape(
            len(xs), d)
    # the pairs y < x by antisymmetry, R(e_y, e_x) = -R(e_x, e_y)
    return CurvatureTensor._unchecked(tensor - tensor.transpose(1, 0, 2, 3),
                                      1, (metric_matrix(n), 1))


@functools.cache
def _model_curvature(n: int) -> CurvatureTensor:
    """projective_curvature of the standard rank-n structure, built once
    per rank; its tensor is read-only."""
    R = projective_curvature(structure_endos(n))
    R.tensor.flags.writeable = False
    return R


def ambient_projective_curvature(n: int) -> CurvatureTensor:
    """Curvature of the rank-n ambient projective model.  The metric of
    the unit-pseudosphere submersion gives exactly the closed formula of
    projective_curvature on the standard structure.  Every call returns
    the same shared tensor, built on the first call for the rank and
    read-only; sums, differences and multiples of it are new tensors."""
    return _model_curvature(n)


# ---------------------------------------------------------------------------
# Jacobi operators and spectra
# ---------------------------------------------------------------------------


def jacobi_operator(R: CurvatureTensor, X: np.ndarray):
    """(K, L): K / L is the matrix of K_X: Y -> R(X, Y) X for an integer
    vector X, column y the image of e_y; L is the scale of R.  TypeError
    unless every entry of X is a Python int (jacobi_spectrum_report
    scales a rational direction first).  Each entry of K is a sum of d^2
    products (growth d^2 max|X|^2); K is returned as Python ints."""
    X = exactla.require_python_ints(X, "direction")
    t, X = exactla.words(R.dim ** 2 * exactla.top(X) ** 2, R.tensor, X)
    t1 = np.tensordot(X, t, axes=([0], [0]))   # (y, z, w)
    t2 = np.tensordot(X, t1, axes=([0], [1]))  # (y, w)
    return exactla.python_ints(t2.T), R.scale


def restrict_to_complement(R: CurvatureTensor, X: np.ndarray):
    """((T, LT), (N, L)): the matrix T / LT of K_X on the X-orthogonal
    vectors, for an integer vector X, in the basis of the columns of N / L.

    The basis is the kernel N / L of g(X, .) (exactla.nullspace of the
    integer row G X, G / LG = g), and K_X N / L = K N / (LK L) with
    K_X = K / LK, so the matrix is (K N)[free] / (LK L), read off with no
    solve.  ComplementLeakError unless N @ T[free] == L T with T = K N,
    that is unless K_X maps the complement of X into itself, as the
    Jacobi operator of a curvature tensor does."""
    K, LK = jacobi_operator(R, X)
    G, _ = R.metric
    N, L, free = exactla.nullspace((G @ X).reshape(1, -1))
    T = K @ N
    if (N @ T[free] != L * T).any():
        raise ComplementLeakError(
            "the Jacobi operator maps the complement of X out of it")
    return (T[free], LK * L), (N, L)


def power_sums(M) -> tuple:
    """(tr M, ..., tr M^m) of the m x m matrix N / L of the pair
    M = (N, L), as the Fractions tr N^k / L^k.  By Newton's identities
    they fix the m eigenvalues with multiplicity, so equal power sums are
    equal spectra."""
    N, L = M
    powers = accumulate([N] * len(N), np.matmul)
    return tuple(Fraction(index(np.trace(P)), L ** k)
                 for k, P in enumerate(powers, start=1))


@dataclass
class DirectionSpectrum:
    metric_sign: int
    power_sums: tuple
    is_nilpotent: bool
    operator_nonzero: bool


@dataclass
class SpectrumReport:
    directions: list
    spacelike_agree: bool
    timelike_agree: bool


def jacobi_spectrum_report(R: CurvatureTensor, directions) -> SpectrumReport:
    """Per-direction spectra (power sums) of K_X restricted to the
    orthogonal complement, with agreement verdicts split by the sign of
    g(X, X).  Directions must satisfy g(X, X) = +-1 exactly: a null
    direction raises NullDirectionError, any other norm ValueError.
    Nilpotency is decided by a K_X^2 = 0 test rather than full Jordan
    forms, beside a K_X != 0 test.

    Each direction X = N / LX is scaled to integers once, and everything
    after runs on N: g(X, X) = N^T G N / (LG LX^2), and K_X is the
    operator of N over LX^2, which does not change the nilpotency, so
    only the power sums read LX.
    """
    G, LG = R.metric
    entries = []
    for idx, X in enumerate(directions):
        N, LX = exactla.scaled_integers(X)
        norm = N @ G @ N
        if norm == 0:
            raise NullDirectionError(f"direction {idx} is null")
        if abs(norm) != LG * LX * LX:
            raise ValueError(f"direction {idx} is not unit: "
                             f"g(X,X)={Fraction(norm, LG * LX * LX)}")
        (Kres, Lres), _ = restrict_to_complement(R, N)
        Kfull, _ = jacobi_operator(R, N)
        entries.append(DirectionSpectrum(
            metric_sign=1 if norm > 0 else -1,
            power_sums=power_sums((Kres, Lres * LX * LX)),
            is_nilpotent=exactla.max_abs(Kfull @ Kfull) == 0,
            operator_nonzero=exactla.max_abs(Kfull) != 0))

    def agree(sign):
        group = [e.power_sums for e in entries if e.metric_sign == sign]
        return all(other == group[0] for other in group[1:])

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

    Width: per unit of max|s| (at most 3), the raised s reaches m max|O|
    (O the scaled inverse of omega_E), the blocks max|omega_H| times that,
    and each of the four changes of basis d times the max entry of its
    matrix, which bounds every entry and partial sum; under 2^62 the
    build runs on int64, otherwise on Python ints.
    """
    Oe, Le = split.omega_e
    m = len(Oe)                     # 2n
    d = 2 * m
    s4 = np.zeros((m, m, m, m), dtype=np.int64)   # entries in [-3, 3]
    for idx in combinations_with_replacement(range(m), 4):
        val = rng.randint(-3, 3)
        for perm in permutations(idx):
            s4[perm] = val
    # everything runs on integers, each factor over its own scale, the
    # product of which is the scale of the result; with omega_E = Oe / Le
    # its inverse is Le Oinv / Linv, and with change = C / LC the inverse
    # of the change of basis is LC Cinv / LCinv
    Oinv, Linv = exactla.inverse(Oe)
    O = Oinv.T * Le
    C, LC = split.change
    Cinv, LCinv = exactla.inverse(C)
    Cinv *= LC
    oh = split.omega_h
    s4, O, oh, C, Cinv = exactla.words(
        m * exactla.top(O) * exactla.top(oh) * d ** 4
        * exactla.top(C) * exactla.top(Cinv) ** 3, s4, O, oh, C, Cinv)
    # shat[i, j, k, l] = sum_t s4[i, j, k, t] omega_E^-1[l, t]
    shat = s4 @ O
    # tensor[(i,a), (j,b), (k,c), (l,d)] = omega_h[a,b] shat[i,j,k,l] delta[c,d]
    blocks = np.multiply.outer(np.multiply.outer(shat, oh),
                               np.eye(2, dtype=shat.dtype))
    tensor = blocks.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(d, d, d, d)
    del blocks
    # transform from tensor coordinates to the ambient basis:
    # R_V[x,y,z,w] = Cinv[p,x] Cinv[q,y] Cinv[r,z] R_t[p,q,r,t] C[w,t]
    t = exactla.contract(tensor, C, 3)
    del tensor
    for axis in range(3):
        t = exactla.contract(t, Cinv.T, axis)
    return CurvatureTensor._unchecked(t, Linv * LC * LCinv ** 3, H.scaled_g)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def curvature_to_text(R: CurvatureTensor) -> str:
    """Header line, tensor entries, metric entries, each entry a
    Fraction of the view."""
    entries = [str(x) for x in R.fractions().reshape(-1)]
    gvals = [str(x) for x in
             exactla.from_scaled_integers(*R.metric).reshape(-1)]
    header = {"n": R.dim // 4, "convention": CONVENTION, "mode": "exact"}
    return json.dumps(header) + "\n" + " ".join(entries) + "\n" + " ".join(gvals) + "\n"


def curvature_from_text(text: str) -> CurvatureTensor:
    """Inverse of curvature_to_text.  ValueError on malformed text: not
    three lines, a header that is not a JSON object with the exact mode,
    this package's convention and an int n >= 1, entry counts other than
    d^4 and d^2 (d = 4n), or a metric that is not a nondegenerate
    symmetric form."""
    lines = text.strip().split("\n")
    if len(lines) != 3:
        raise ValueError(f"curvature text has {len(lines)} lines, expected 3 "
                         f"(header, tensor entries, metric entries)")
    head, body, gline = lines
    header = json.loads(head)
    if not isinstance(header, dict):
        raise ValueError(f"curvature header is not a JSON object: {head!r}")
    convention = header.get("convention")
    if convention != CONVENTION:
        raise ValueError(f"unsupported product-table convention "
                         f"{convention!r}; expected {CONVENTION!r}")
    if header.get("mode") != "exact":
        raise ValueError(f"unsupported mode {header.get('mode')!r}; "
                         f"curvature tensors are exact")
    n = header.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"header n must be an int >= 1, not {n!r}")
    d = 4 * n
    entries, gvals = body.split(), gline.split()
    if len(entries) != d ** 4 or len(gvals) != d * d:
        raise ValueError(f"n = {n} needs {d ** 4} tensor and {d * d} metric "
                         f"entries, not {len(entries)} and {len(gvals)}")
    tensor = exactla.fracarray(entries).reshape(d, d, d, d)
    metric = exactla.fracarray(gvals).reshape(d, d)
    exactla.signature(metric)   # ValueError unless symmetric, nondegenerate
    return CurvatureTensor.from_fractions(tensor, metric)
