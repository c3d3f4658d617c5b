"""Fundamental forms, basis rotations of the structure span, and the
hermitian projector with the four-way splitting of bilinear forms.

The invariant quadratic form on the structure span uses the weights
-eps = (-1, 1, 1), so the first basis endomorphism is the timelike
axis; rotations are accepted exactly when R^T eta R = eta with
eta = diag(-1, 1, 1) and det R = 1.  Mixed-sign planes through the
first axis are hyperbolic, the (2, 3) plane is definite (circular
rotations only).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import EPS, circle_point, hyperbola_point
from .linalg import HermitianStructure

ETA = exactla.fracarray([[-EPS[0], 0, 0], [0, -EPS[1], 0], [0, 0, -EPS[2]]])


class NotSkewError(ValueError):
    """Endomorphism fails metric skew-symmetry."""


class NotInGroupError(ValueError):
    """3x3 matrix fails the defining relation of the rotation group."""


class BilinearForm:
    """Dense bilinear form B(X, Y) = X^T M Y; no symmetry assumed."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix)

    def __call__(self, x, y):
        return x @ self.matrix @ y

    def __add__(self, other):
        return BilinearForm(self.matrix + other.matrix)

    def __sub__(self, other):
        return BilinearForm(self.matrix - other.matrix)

    def max_abs(self):
        return exactla.max_abs(self.matrix)


def two_form(Jop: np.ndarray, g: np.ndarray) -> BilinearForm:
    """omega_J(X, Y) = g(J X, Y) for a g-skew endomorphism J."""
    Jop = np.asarray(Jop)
    g = np.asarray(g)
    res = exactla.max_abs(Jop.T @ g + g @ Jop)
    if res != 0:
        raise NotSkewError(f"endomorphism not skew, residual {res}")
    return BilinearForm(Jop.T @ g)


DENSE_LIMIT_RANK = 2


class FourForm:
    """Alternating 4-linear evaluator sum_a eps_a (omega_a wedge omega_a).

    For rank up to DENSE_LIMIT_RANK the full coefficient array is
    materialised (memory grows as dim^4); beyond that only the evaluator
    is kept.
    """

    def __init__(self, omegas):
        self.omegas = [np.asarray(w) for w in omegas]
        self.dim = self.omegas[0].shape[0]
        self.array = None
        if self.dim <= 4 * DENSE_LIMIT_RANK:
            self.array = self._materialise()

    def __call__(self, x, y, z, w):
        terms = 0
        for eps, om in zip(EPS, self.omegas):
            oxy, oxz, oxw = x @ om @ y, x @ om @ z, x @ om @ w
            oyz, oyw, ozw = y @ om @ z, y @ om @ w, z @ om @ w
            terms = terms + eps * 2 * (oxy * ozw - oxz * oyw + oxw * oyz)
        return terms

    def _materialise(self):
        """Omega[p,q,r,s] = sum_a 2 eps_a (w[p,q] w[r,s] - w[p,r] w[q,s]
        + w[p,s] w[q,r]) with w = omega_a: the evaluator on basis vectors."""
        arr = 0
        for eps, om in zip(EPS, self.omegas):
            pq_rs = np.multiply.outer(om, om)            # w[p,q] w[r,s]
            pr_qs = pq_rs.transpose(0, 2, 1, 3)          # w[p,r] w[q,s]
            ps_qr = pq_rs.transpose(0, 2, 3, 1)          # w[p,s] w[q,r]
            arr = arr + eps * 2 * (pq_rs - pr_qs + ps_qr)
        return arr


def fundamental_four_form(H: HermitianStructure) -> FourForm:
    """omega_1 ^ omega_1 - omega_2 ^ omega_2 - omega_3 ^ omega_3."""
    omegas = [two_form(Ja, H.g).matrix for Ja in H.J]
    return FourForm(omegas)


# ---------------------------------------------------------------------------
# rotations of the structure basis
# ---------------------------------------------------------------------------


def in_rotation_group(R: np.ndarray):
    """(bool, residual) for R^T eta R = eta and det R = 1."""
    R = np.asarray(R)
    res = exactla.max_abs(R.T @ ETA @ R - ETA)
    res = max(res, abs(exactla.det(R) - 1))
    return res == 0, res


def rotate_structure(H: HermitianStructure,
                     R: np.ndarray) -> HermitianStructure:
    """Replace the basis by J'_a = sum_b R_ab J_b; the defining relation
    R^T eta R = eta (det 1) guarantees the cyclic table survives."""
    ok, res = in_rotation_group(R)
    if not ok:
        raise NotInGroupError(f"defining-relation residual {res}")
    Jnew = [sum((R[a, b] * H.J[b] for b in range(3)), exactla.zeros(H.g.shape))
            for a in range(3)]
    return HermitianStructure(*Jnew, H.g)


def hyperbolic_rotation(plane: tuple[int, int], cosh_val, sinh_val) -> np.ndarray:
    """Rotation by a rational point (cosh, sinh) of the unit hyperbola in
    a mixed-sign plane; plane indices are 0-based into (1, 2, 3)."""
    a, b = plane
    R = exactla.eye(3)
    R[a, a] = Fraction(cosh_val)
    R[b, b] = Fraction(cosh_val)
    R[a, b] = Fraction(sinh_val)
    R[b, a] = Fraction(sinh_val)
    return R


def circular_rotation(plane: tuple[int, int], cos_val, sin_val) -> np.ndarray:
    """Rotation by a rational point (cos, sin) of the unit circle in a
    definite plane."""
    a, b = plane
    R = exactla.eye(3)
    R[a, a] = Fraction(cos_val)
    R[b, b] = Fraction(cos_val)
    R[a, b] = -Fraction(sin_val)
    R[b, a] = Fraction(sin_val)
    return R


def random_rotation(rng) -> np.ndarray:
    """Random exact element of the rotation group: a product of three
    rational hyperbolic rotations in the (1,2) / (1,3) planes, circular
    rotations in the (2,3) plane or (1,2)-axis flips."""
    R = exactla.eye(3)
    for _ in range(3):
        kind = rng.randrange(4)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if kind == 0 or kind == 1:
            if t * t == 1:
                continue
            h = hyperbola_point(t)
            R = R @ hyperbolic_rotation((0, kind + 1), h.a, h.c)
        elif kind == 2:
            c = circle_point(t)
            R = R @ circular_rotation((1, 2), c.a, c.b)
        else:
            R = R @ exactla.fracarray([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return R


# ---------------------------------------------------------------------------
# the hermitian projector and the four-way decomposition
# ---------------------------------------------------------------------------


def _structure_average(B: np.ndarray, H: HermitianStructure) -> np.ndarray:
    """Psi(B) = sum_a eps_a J_a^T B J_a, i.e. sum_a eps_a B(J_a ., J_a .)."""
    return sum((EPS[a] * (H.J[a].T @ B @ H.J[a]) for a in range(3)),
               exactla.zeros(B.shape))


def hermitian_projector(B: BilinearForm, H: HermitianStructure):
    """Project onto forms hermitian for the whole structure span.

    Pi(B) = (B + sum_a eps_a B(J_a ., J_a .)) / 4 is idempotent and does
    not depend on the chosen basis of the span.  Returns

        (B_herm, B_mix, fourway)

    with fourway the dict of the symmetric/antisymmetric hermitian/mixed
    components; the four parts sum back to B.
    """
    M = B.matrix
    herm = Fraction(1, 4) * (M + _structure_average(M, H))
    mix = M - herm
    half = Fraction(1, 2)
    sym_h = half * (herm + herm.T)
    alt_h = half * (herm - herm.T)
    sym_m = half * (mix + mix.T)
    alt_m = half * (mix - mix.T)
    fourway = {
        "sym_hermitian": BilinearForm(sym_h),
        "alt_hermitian": BilinearForm(alt_h),
        "sym_mixed": BilinearForm(sym_m),
        "alt_mixed": BilinearForm(alt_m),
    }
    return BilinearForm(herm), BilinearForm(mix), fourway


def lie_derivative_residual(four_form: FourForm, A: np.ndarray,
                            tuples) -> Fraction | float:
    """Max of the infinitesimal-invariance defect
    sum_slots Omega(..., A X_slot, ...) over the sampled 4-tuples."""
    worst = Fraction(0)
    for (x, y, z, w) in tuples:
        val = (four_form(A @ x, y, z, w) + four_form(x, A @ y, z, w)
               + four_form(x, y, A @ z, w) + four_form(x, y, z, A @ w))
        worst = max(worst, abs(val))
    return worst
