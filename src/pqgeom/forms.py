"""Fundamental forms, basis rotations of the structure span, and the
hermitian projector with the four-way splitting of bilinear forms.

The invariant quadratic form on the structure span uses the weights
-eps = (-1, 1, 1), so the first basis endomorphism is the timelike
axis; rotations are accepted exactly when R^T eta R = eta with
eta = diag(-1, 1, 1) and det R = 1.  Mixed-sign planes through the
first axis are hyperbolic, the (2, 3) plane is definite (circular
rotations only).

The fundamental 4-form is the dense coefficient array of its closed
formula at every rank (dim^4 entries: 256 at rank 1, 20736 at rank 3);
evaluating it contracts the array.  The six-term evaluator on bilinear
values is kept in the tests as the reference for the array.

Exact arithmetic runs on scaled integers (see ``exactla``): the 2-forms,
the 4-form array and its evaluation, and the rotated bases are computed
on Python ints and divided by their common scale once, so every returned
entry is a Fraction, and an entry that is not an int or a Fraction
raises TypeError.
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
    """omega_J(X, Y) = g(J X, Y) for a g-skew endomorphism J, computed
    on J and g scaled to integers: omega = J^T g over the scale LJ Lg."""
    J, LJ = exactla.scaled_integers(Jop)
    G, LG = exactla.scaled_integers(g)
    omega = J.T @ G
    res = exactla.max_abs(omega + G @ J)
    if res != 0:
        raise NotSkewError(f"endomorphism not skew, residual "
                           f"{Fraction(res, LJ * LG)}")
    return BilinearForm(exactla.from_scaled_integers(omega, LJ * LG))


class FourForm:
    """Alternating 4-form sum_a eps_a (omega_a wedge omega_a), stored as
    its dense coefficient array (dim^4 entries):

        Omega[p,q,r,s] = sum_a 2 eps_a (w[p,q] w[r,s] - w[p,r] w[q,s]
                                        + w[p,s] w[q,r]),  w = omega_a,

    computed on the omega_a scaled to integers; every entry is a Fraction.
    The integer array and its scale are kept for evaluation.
    """

    def __init__(self, omegas):
        w, L = exactla.scaled_integers(np.stack(omegas))
        arr = 0
        for eps, om in zip(EPS, w):
            pq_rs = np.multiply.outer(om, om)            # w[p,q] w[r,s]
            pr_qs = pq_rs.transpose(0, 2, 1, 3)          # w[p,r] w[q,s]
            ps_qr = pq_rs.transpose(0, 2, 3, 1)          # w[p,s] w[q,r]
            arr = arr + eps * 2 * (pq_rs - pr_qs + ps_qr)
        self._coefficients, self._scale = arr, L * L
        self.array = exactla.from_scaled_integers(arr, L * L)

    def __call__(self, x, y, z, w):
        """Omega(x, y, z, w): the integer array contracted with the four
        vectors scaled to integers, as one Fraction."""
        (X, LX), (Y, LY), (Z, LZ), (W, LW) = (
            exactla.scaled_integers(v) for v in (x, y, z, w))
        value = X @ (((self._coefficients @ W) @ Z) @ Y)
        return Fraction(value, self._scale * LX * LY * LZ * LW)


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
    Rn, LR = exactla.scaled_integers(R)
    J, LJ = exactla.scaled_integers(np.stack(H.J))
    Jnew = np.tensordot(Rn, J, axes=(1, 0))
    return HermitianStructure(*exactla.from_scaled_integers(Jnew, LR * LJ),
                              H.g)


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


def hermitian_projector(B: BilinearForm, H: HermitianStructure):
    """Project onto forms hermitian for the whole structure span.

    Pi(B) = (B + sum_a eps_a B(J_a ., J_a .)) / 4 is idempotent and does
    not depend on the chosen basis of the span.  Returns

        (B_herm, B_mix, fourway)

    with fourway the dict of the symmetric/antisymmetric hermitian/mixed
    components; the four parts sum back to B.  Computed on B and the J_a
    scaled to integers; every entry is a Fraction.
    """
    M, LB = exactla.scaled_integers(B.matrix)
    J, LJ = exactla.scaled_integers(np.stack(H.J))
    # herm and mix over the scale S, the symmetric/antisymmetric parts
    # over 2 S; B(J_a ., J_a .) = J_a^T B J_a
    S = 4 * LJ * LJ * LB
    herm = LJ * LJ * M
    for eps, Ja in zip(EPS, J):
        herm += eps * (Ja.T @ M @ Ja)
    mix = 4 * LJ * LJ * M - herm
    parts = {"sym_hermitian": herm + herm.T, "alt_hermitian": herm - herm.T,
             "sym_mixed": mix + mix.T, "alt_mixed": mix - mix.T}
    fourway = {key: BilinearForm(exactla.from_scaled_integers(part, 2 * S))
               for key, part in parts.items()}
    return (BilinearForm(exactla.from_scaled_integers(herm, S)),
            BilinearForm(exactla.from_scaled_integers(mix, S)), fourway)


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
