"""The pseudosphere model of the para-quaternionic projective space.

Points of the projective space are always represented by unit lifts
x in S = {|x|^2 = 1} inside the rank-(n+1) module; quotient statements
are phrased as lift independence.  The fiber direction at x is spanned
by x i, x j, x k; on the unit sphere the Gram matrix of that frame is
exactly diag(1, -1, -1), so fibers are nondegenerate of signature (2, 1)
and the horizontal complement carries an induced metric of signature
(2n, 2n) together with the structure triple v -> v conj(e_a).

Real coordinates.  The neutral metric g is diagonal with entries
(1, 1, -1, -1) per entry, so g @ X is a sign flip
(``linalg.apply_metric``), and right multiplication by a unit is a signed
permutation (``linalg.right_unit_action``); neither forms a product, and
both are exact.  The remaining exact products (the fiber and induced
Grams) run through ``exactla.product``, and the horizontal projection
runs on scaled integers.

The transitive-element construction completes a unit lift to a matrix
preserving both the neutral scalar product and the quaternionic
structure (the group whose real representation is the symplectic
group), using Gram-Schmidt for the quaternion-valued hermitian pairing
s(u, v) = sum conj(u_i) v_i.  The columns are s-orthonormal, so the
classical and the modified process agree.  One private routine,
``_transitive_columns``, runs it fraction-free on the scaled-integer real
coordinates of the target and returns each column with its right unit
multiples, which are the column's block of the real action:
``transitive_element`` turns the columns into Fractions once, at the
end, and ``transitive_action`` returns the real action as integers over
one scale, with no Fraction.  The candidates are the coordinate vectors
e_s and, where those run out, the e_s + e_t q; some candidate is always
non-null.  Exact rational normalisation is always possible because the
norm form represents every nonzero rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import SplitQuaternion
from .linalg import (HermitianStructure, PQMatrix, PQVector, apply_metric,
                     module_scalar_product, random_quaternion,
                     right_unit_action)

VERTICAL_GRAM = exactla.fracarray([[1, 0, 0], [0, -1, 0], [0, 0, -1]])


class DegenerateOrbitError(ValueError):
    """The lift is not on the unit sphere: its fiber Gram matrix is not
    diag(1, -1, -1)."""


class CompletionFailureError(ValueError):
    """Gram-Schmidt completion ran out of non-null candidates."""


class SpherePoint:
    """Unit vector of the rank-(n+1) module.  The check asks |x|^2 == 1
    exactly, so only a lift with exact coordinates passes it, and the
    routines of this package raise TypeError on a float lift."""

    __slots__ = ("x",)

    def __init__(self, x: PQVector, check: bool = True):
        if check:
            err = abs(module_scalar_product(x, x) - 1)
            if err != 0:
                raise ValueError(f"not a unit vector, off by {err}")
        self.x = x

    @property
    def rank(self) -> int:
        return self.x.rank

    def right_translate(self, q: SplitQuaternion) -> "SpherePoint":
        if q.square_norm() != 1:
            raise ValueError("fiber translation needs a unit quaternion")
        return SpherePoint(self.x.right_mul(q), check=False)

    def __repr__(self):
        return f"SpherePoint({self.x!r})"


def base_point(rank: int) -> SpherePoint:
    coords = [SplitQuaternion(1 if i == 0 else 0) for i in range(rank)]
    return SpherePoint(PQVector(coords), check=False)


def sphere_point_through(base: SpherePoint, direction: PQVector) -> SpherePoint:
    """Second intersection of the line base + t*direction with the sphere;
    rational input gives a rational point."""
    d = direction
    dd = module_scalar_product(d, d)
    if dd == 0:
        raise ValueError("null direction")
    t = Fraction(-2) * module_scalar_product(base.x, d) / dd
    if t == 0:
        raise ValueError("direction tangent to the sphere at the base")
    moved = PQVector(a + b for a, b in zip(base.x.entries,
                                           d.scale(t).entries))
    return SpherePoint(moved)


def random_sphere_point(rng, rank: int) -> SpherePoint:
    """Seeded rational point of the unit pseudosphere."""
    o = base_point(rank)
    while True:
        d = PQVector(random_quaternion(rng, 4) for _ in range(rank))
        try:
            return sphere_point_through(o, d)
        except ValueError:
            continue


def random_unit_quaternion(rng) -> SplitQuaternion:
    """Seeded rational element of the unit-norm group."""
    while True:
        d = random_quaternion(rng, 4)
        dd = d.square_norm()
        if dd == 0:
            continue
        t = Fraction(-2) * d.a / dd
        if t == 0:
            continue
        return SplitQuaternion(1) + d.scale(t)


# ---------------------------------------------------------------------------
# tangent splitting and induced geometry
# ---------------------------------------------------------------------------


class TangentSplit:
    """Vertical and horizontal frames at a sphere point.

    vertical: real coordinates of (x i, x j, x k), columns of shape
    (4(n+1), 3); horizontal: 4n further columns spanning the orthogonal
    complement of the fiber frame and the position vector.
    """

    def __init__(self, base: SpherePoint, vertical: np.ndarray,
                 horizontal: np.ndarray):
        self.base = base
        self.vertical = vertical
        self.horizontal = horizontal


def vertical_frame(coords: np.ndarray) -> np.ndarray:
    """Real coordinates of (x i, x j, x k) from those of x (axis 0), on
    every dtype: x e_a = -J_a x."""
    return np.stack([-right_unit_action(coords, a) for a in range(3)], axis=1)


def tangent_split(x: SpherePoint) -> TangentSplit:
    """Split the tangent space of the sphere at x into the fiber direction
    frame and its orthogonal complement.  Exact lifts only: a float lift
    raises TypeError."""
    # the horizontal space is the g-orthogonal complement of (x, xi, xj, xk)
    coords = x.x.to_real()
    frame4 = np.concatenate([coords.reshape(-1, 1), vertical_frame(coords)],
                            axis=1)
    vert = frame4[:, 1:]
    gram = exactla.product(vert.T, apply_metric(vert))
    # any lift has fiber Gram |x|^2 diag(1, -1, -1), so only an entrywise
    # comparison (not the inertia) detects a positive lift off the sphere
    if (gram != VERTICAL_GRAM).any():
        found = "; ".join(", ".join(str(a) for a in row) for row in gram)
        raise DegenerateOrbitError(
            f"lift is off the unit sphere: fiber Gram is [{found}], "
            "not diag(1, -1, -1)")
    horizontal = exactla.nullspace(apply_metric(frame4).T)
    if horizontal.shape[1] != 4 * x.rank - 4:
        raise DegenerateOrbitError("horizontal frame incomplete")
    return TangentSplit(x, vert, horizontal)


def horizontal_project(x: SpherePoint, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient vector (or of the columns of a
    matrix) onto the horizontal space at x (drops the position and fiber
    components), on scaled integers: see horizontal_integers.  TypeError on
    an entry of x or v that is not an int or a Fraction."""
    C, L = exactla.scaled_integers(x.x.to_real())
    V, LV = exactla.scaled_integers(v)
    return exactla.from_scaled_integers(horizontal_integers(C, L, V),
                                        L * L * LV)


def horizontal_integers(C: np.ndarray, L: int, V: np.ndarray) -> np.ndarray:
    """L^2 times the horizontal part of V at the sphere point x = C / L,
    for integer arrays C and V: an integer array.  On the unit sphere the
    frame (x, x i, x j, x k) has the Gram matrix diag(1, 1, -1, -1), so the
    coefficients are a sign flip of its pairings with V."""
    frame4 = np.concatenate([C.reshape(-1, 1), vertical_frame(C)], axis=1)
    return L * L * V - frame4 @ apply_metric(frame4.T @ apply_metric(V))


def induced_geometry(x: SpherePoint):
    """(HermitianStructure on the horizontal frame, the frame itself).

    The metric is the restriction of the ambient scalar product; the
    structure is right multiplication by the conjugated units expressed
    in frame coordinates.  Both are exact at rational points.
    """
    frame = tangent_split(x).horizontal
    g_h = exactla.product(frame.T, apply_metric(frame))
    Js = []
    for a in range(3):
        coords, residual = exactla.frame_coordinates(
            frame, right_unit_action(frame, a))
        if residual != 0:
            raise DegenerateOrbitError("structure does not preserve the frame")
        Js.append(coords)
    return HermitianStructure(*Js, g_h), frame


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def _transitive_columns(target: SpherePoint) -> list[tuple[np.ndarray, int]]:
    """Columns of transitive_element(target) as (F, L): F = [C, C i, C j,
    C k] holds the integer real coordinates of the column C / L and of its
    right unit multiples, so that F over L is the column's block of the
    real action.

    Gram-Schmidt for the hermitian pairing, from the target through the
    candidates W, on scaled integers: s(c, W) = sum conj(c_r) W_r has the
    coefficients eps * F^T g W (eps = (1, 1, -1, -1), a sign flip), and the
    residual v = W - sum_c c s(c, W) is V / den with V = den W - sum F s.
    Its square norm r = (V^T g V) / den^2 = N / den^2 is rescaled to one
    exactly by the right factor q = ((1 + 1/r) / 2, 0, 0, (1/r - 1) / 2), of
    square norm 1/r, so the new column is ((N + den^2) V + (den^2 - N) V k)
    / (2 den N), reduced by its gcd.  A null candidate (N = 0) is skipped.
    The candidates are first the coordinate vectors e_s, once each; while
    columns are missing, the first non-null one of the e_s and the
    e_s + e_t q (s < t, q = 1, i, j, k) is taken.  That one exists: were
    every residual of them null, polarisation would make the hermitian
    pairing vanish on the nondegenerate complement of the columns.
    """
    rank = target.rank
    cols = []

    def append(C, L):
        cols.append((np.concatenate([C.reshape(-1, 1), vertical_frame(C)],
                                    axis=1), L))

    def take(W) -> bool:
        den = math.lcm(*(L * L for _, L in cols))
        V = den * W
        for F, L in cols:
            V -= (den // (L * L)) * (F @ apply_metric(F.T @ apply_metric(W)))
        N = V @ apply_metric(V)
        if N == 0:
            return False
        # V k = -J_3 V
        C = ((N + den * den) * V
             - (den * den - N) * right_unit_action(V, 2))
        g = math.gcd(*C, 2 * den * N) * (1 if N > 0 else -1)
        append(C // g, 2 * den * N // g)
        return True

    append(*exactla.scaled_integers(target.x.to_real()))
    e = np.eye(4 * rank, dtype=object)
    for s in range(rank):
        if len(cols) == rank:
            break
        take(e[4 * s])
    pool = [e[4 * s] for s in range(rank)]
    pool += [e[4 * s] + e[4 * t + m] for s in range(rank)
             for t in range(s + 1, rank) for m in range(4)]
    while len(cols) < rank:
        if not any(take(W) for W in pool):
            raise CompletionFailureError("candidate pool exhausted")
    return cols


def transitive_element(target: SpherePoint) -> PQMatrix:
    """A scalar-product-preserving matrix sending the base point to target,
    completed by the Gram-Schmidt of _transitive_columns."""
    coords = [exactla.from_scaled_integers(F[:, 0], L)
              for F, L in _transitive_columns(target)]
    return PQMatrix([[SplitQuaternion(*col[4 * r:4 * r + 4]) for col in coords]
                     for r in range(target.rank)])


def transitive_action(target: SpherePoint) -> tuple[np.ndarray, int]:
    """(A, LA): the real action of transitive_element(target) is A / LA,
    with A an integer matrix; no Fraction is formed."""
    cols = _transitive_columns(target)
    LA = math.lcm(*(L for _, L in cols))
    return np.concatenate([F * (LA // L) for F, L in cols], axis=1), LA
