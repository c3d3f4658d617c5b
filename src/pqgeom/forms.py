"""Fundamental forms, basis rotations of the structure span, and the
hermitian projector with the four-way splitting of bilinear forms.

The invariant quadratic form on the structure span uses the weights
-eps = (-1, 1, 1), so the first basis endomorphism is the timelike
axis; rotations are accepted exactly when R^T eta R = eta with
eta = diag(-1, 1, 1) and det R = 1.  Mixed-sign planes through the
first axis are hyperbolic, the (2, 3) plane is definite (circular
rotations only).

The fundamental 4-form is the dense coefficient array of its closed
formula at every rank (dim^4 entries: 256 at rank 1, 20736 at rank 3).
``FourForm``, the 2-forms and ``rotate_structure`` take a leading axis
too: a stack of rotations gives a stack of rotated structures (a
``linalg.HermitianStructure`` whose members have that leading axis, each
with its own scale), checked for group membership and the cyclic table
at once, and its stack of 4-forms, on the dtype of the input (int64 in
the rotation-invariance check, whose bound the check states).
The infinitesimal action A . Omega of an endomorphism contracts the
array with A in each of its four slots (``lie_derivative_residual``).
The six-term evaluator on bilinear values is kept in the tests as the
reference for the array.

Exact arithmetic runs on scaled integers (see ``exactla``), and the
results stay in that form: a ``BilinearForm`` and a ``FourForm`` are each
held as the pair ``scaled`` of an object array of Python ints and one
positive int scale, and a structure as the pairs of
``linalg.HermitianStructure``.  ``random_rotation`` returns the integer
pair (R, L) of a rotation, and ``rotate_structure`` takes that pair; the
endomorphism of ``lie_derivative_residual`` is an integer matrix and its
scale.  The 2-forms, the 4-form array, the hermitian projector and the
rotated structures are computed on those pairs and returned as pairs,
with no ``Fraction`` formed; ``matrix`` and ``array`` are the
``Fraction`` views, formed on request, and a residual is one
``Fraction``.  Exact input enters through ``exactla.scaled_integers``, so
an entry that is not an int or a Fraction raises TypeError.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import EPS
from .linalg import HermitianStructure

# the invariant form on the structure span, an object array of Python ints
ETA = np.diag(np.array([-eps for eps in EPS], dtype=object))


class NotSkewError(ValueError):
    """Endomorphism fails metric skew-symmetry."""


class NotInGroupError(ValueError):
    """3x3 matrix fails the defining relation of the rotation group."""


class BilinearForm:
    """Dense bilinear form B(X, Y) = X^T M Y; no symmetry assumed.

    Held as the pair ``scaled`` = (N, L) with M = N / L, N an object array
    of Python ints and L an int >= 1; ``matrix`` is the Fraction view,
    formed on first access.  The constructor takes an exact array
    (TypeError on an entry that is not an int or a Fraction), or with
    ``scale`` an integer array over that scale (TypeError on a float or
    complex dtype).
    """

    def __init__(self, matrix, scale: int | None = None):
        self.scaled = (exactla.scaled_integers(matrix) if scale is None
                       else (exactla.integer_array(matrix), scale))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return exactla.from_scaled_integers(*self.scaled)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "BilinearForm":
        return BilinearForm(*exactla.add_scaled(*self.scaled, *other.scaled,
                                                sign))

    def max_abs(self) -> Fraction:
        return exactla.stack_max_abs(*self.scaled)


def _two_forms(J, G, scale) -> np.ndarray:
    """The integer omega_a = J_a^T G of stacked integer members J_a (axis
    -3, leading axes a stack of structures) and an integer metric G;
    NotSkewError unless every J_a is G-skew.  The scale of the J_a times
    that of G (one per structure of a stack) is passed for the message
    only."""
    omega = J.swapaxes(-1, -2) @ G
    if (omega + G @ J).any():
        raise NotSkewError(f"endomorphism not skew, residual "
                           f"{exactla.stack_max_abs(omega + G @ J, scale)}")
    return omega


def two_form(Jop: np.ndarray, g: np.ndarray) -> BilinearForm:
    """omega_J(X, Y) = g(J X, Y) for a g-skew endomorphism J, computed
    on J and g scaled to integers: omega = J^T g over the scale LJ Lg."""
    J, LJ = exactla.scaled_integers(Jop)
    G, LG = exactla.scaled_integers(g)
    return BilinearForm(_two_forms(J[None], G, LJ * LG)[0], LJ * LG)


class FourForm:
    """Alternating 4-form sum_a eps_a (omega_a wedge omega_a), held as
    the pair ``scaled`` of its dense integer coefficient array (dim^4
    entries) and its scale:

        Omega[p,q,r,s] = sum_a 2 eps_a (w[p,q] w[r,s] - w[p,r] w[q,s]
                                        + w[p,s] w[q,r]),  w = omega_a,

    built from the stacked integer 2-forms w (axis -3) over the scale L,
    so the array is over L^2, on the dtype of w.  Leading axes of w are a
    stack of forms, each over its own scale (L an array of that shape):
    the array then has the same leading axes.  ``array`` is the Fraction
    view, formed on each access.
    """

    def __init__(self, w, L):
        # S[..., p,q,r,s] = sum_a 2 eps_a w[p,q] w[r,s], one product of the
        # flattened forms over a; the three terms of the formula are S and
        # two transposes of it
        lead, d = w.shape[:-3], w.shape[-1]
        flat = w.reshape(lead + (3, d * d))
        S = ((2 * np.array(EPS)[:, None] * flat).swapaxes(-1, -2)
             @ flat).reshape(lead + (d,) * 4)
        self.scaled = (S - S.swapaxes(-3, -2) + np.moveaxis(S, -3, -1),
                       L * L)

    @property
    def array(self) -> np.ndarray:
        # a stack at the lcm of its scales, where its values repeat
        N, L = self.scaled
        L = np.asarray(L, dtype=object)[..., None, None, None, None]
        return exactla.from_scaled_integers(
            N * (np.lcm.reduce(L.reshape(-1)) // L),
            np.lcm.reduce(L.reshape(-1)))


def fundamental_four_form(H: HermitianStructure) -> FourForm:
    """omega_1 ^ omega_1 - omega_2 ^ omega_2 - omega_3 ^ omega_3, from the
    integer members and metric of H."""
    (J, LJ), (G, LG) = H.scaled_J, H.scaled_g
    return FourForm(_two_forms(J, G, LJ * LG), LJ * LG)


# ---------------------------------------------------------------------------
# rotations of the structure basis
# ---------------------------------------------------------------------------


def rotate_structure(H: HermitianStructure, rotation) -> HermitianStructure:
    """Replace the basis by J'_a = sum_b R_ab J_b for the rotation
    R = Rn / LR given as the integer pair (Rn, LR) of random_rotation;
    the defining relation R^T eta R = eta (det 1) guarantees the cyclic
    table survives (NotInGroupError otherwise).  Runs on integers, on the
    dtype of Rn and the members: the new members are Rn J over the
    product of the scales.  A stack of rotations (Rn with leading axes, LR
    an array of those) gives the stack of the rotated structures, checked
    at once."""
    Rn, LR = rotation
    R, L = Rn.reshape((-1, 3, 3)), np.reshape(np.asarray(LR, Rn.dtype),
                                              (-1, 1, 1))
    # L^3 times the deviations of each R / L from the group: the entries
    # of R^T eta R - eta and det R - 1, with det R = R_0 . (R_1 x R_2)
    defect = np.concatenate([
        ((R.swapaxes(1, 2) @ ETA @ R - ETA * L * L) * L).reshape(-1, 9),
        ((R[:, 0] * np.cross(R[:, 1], R[:, 2])).sum(axis=1)
         - L[:, 0, 0] ** 3)[:, None]], axis=1)
    if defect.any():
        raise NotInGroupError(f"defining-relation residual "
                              f"{exactla.stack_max_abs(defect, LR ** 3)}")
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    members = (Rn @ J.reshape(3, -1)).reshape(Rn.shape[:-2] + J.shape)
    return HermitianStructure(*np.moveaxis(members, -3, 0), g,
                              scales=(LR * LJ, Lg))


def _plane_rotation(plane: tuple[int, int], c, s, sign: int,
                    one) -> np.ndarray:
    """Object array equal to one * Id off the plane (a, b), with c on its
    diagonal, s at (b, a) and sign * s at (a, b)."""
    a, b = plane
    R = np.diag(np.array([one] * 3, dtype=object))
    R[a, a] = R[b, b] = c
    R[a, b], R[b, a] = sign * s, s
    return R


def random_rotation(rng):
    """(R, L): a random exact element R / L of the rotation group, R a
    3 x 3 object array of Python ints and L >= 1.  It is a product of
    three rational hyperbolic rotations in the (1,2) / (1,3) planes,
    circular rotations in the (2,3) plane or (1,2)-axis flips, at the
    rational points of the unit hyperbola and circle of parameter
    t = p / q.  Each factor is formed as an integer matrix over its scale
    from p and q, and the factors are composed on Python ints."""
    R, L = np.eye(3, dtype=object), 1
    for _ in range(3):
        kind = rng.randrange(4)
        p, q = rng.randint(-3, 3), rng.randint(1, 4)
        if kind == 0 or kind == 1:
            if p * p == q * q:          # t^2 = 1, the asymptote
                continue
            # (cosh, sinh) = (q^2 + p^2, 2pq) / (q^2 - p^2) at t = p / q
            LF = q * q - p * p
            F = _plane_rotation((0, kind + 1), q * q + p * p, 2 * p * q, 1, LF)
        elif kind == 2:
            # (cos, sin) = (q^2 - p^2, 2pq) / (q^2 + p^2) at t = p / q
            LF = q * q + p * p
            F = _plane_rotation((1, 2), q * q - p * p, 2 * p * q, -1, LF)
        else:
            F, LF = np.diag(np.array([1, -1, -1], dtype=object)), 1
        R, L = R @ F, L * LF
    if L < 0:   # the scale of a hyperbolic factor may be negative
        R, L = -R, -L
    return R, L


# ---------------------------------------------------------------------------
# the hermitian projector and the four-way decomposition
# ---------------------------------------------------------------------------


def hermitian_projector(B: BilinearForm, H: HermitianStructure):
    """Project onto forms hermitian for the whole structure span.

    Pi(B) = (B + sum_a eps_a B(J_a ., J_a .)) / 4 is idempotent and does
    not depend on the chosen basis of the span.  Returns

        (B_herm, B_mix, fourway)

    with fourway the dict of the symmetric/antisymmetric hermitian/mixed
    components; the four parts sum back to B.  Computed on the integer
    pairs of B and of the J_a; every returned form is integer-backed.
    """
    M, LB = B.scaled
    J, LJ = H.scaled_J
    # herm and mix over the scale S, the symmetric/antisymmetric parts
    # over 2 S; B(J_a ., J_a .) = J_a^T B J_a
    S = 4 * LJ * LJ * LB
    herm = LJ * LJ * M
    for eps, Ja in zip(EPS, J):
        herm += eps * (Ja.T @ M @ Ja)
    mix = 4 * LJ * LJ * M - herm
    parts = {"sym_hermitian": herm + herm.T, "alt_hermitian": herm - herm.T,
             "sym_mixed": mix + mix.T, "alt_mixed": mix - mix.T}
    fourway = {key: BilinearForm(part, 2 * S) for key, part in parts.items()}
    return BilinearForm(herm, S), BilinearForm(mix, S), fourway


def lie_derivative_residual(four_form: FourForm, A: np.ndarray,
                            LA: int) -> Fraction:
    """Max entry of the infinitesimal action A . Omega of the
    endomorphism A / LA, for an integer matrix A:

        (A . Omega)(x, y, z, w) = Omega(A x, y, z, w) + Omega(x, A y, z, w)
                                  + Omega(x, y, A z, w) + Omega(x, y, z, A w),

    the sum of the four slot contractions of the integer coefficient
    array with A, over the scale of Omega times LA.  0 exactly when A
    annihilates Omega."""
    C, L = four_form.scaled
    action = sum(exactla.contract(C, A.T, axis) for axis in range(4))
    return Fraction(exactla.max_abs(action), L * LA)
