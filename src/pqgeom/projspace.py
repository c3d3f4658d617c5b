"""The pseudosphere model of the para-quaternionic projective space.

Points of the projective space are always represented by unit lifts
x in S = {|x|^2 = 1} inside the rank-(n+1) module; quotient statements
are phrased as lift independence.  The fiber direction at x is spanned
by x i, x j, x k; on the unit sphere the Gram matrix of that frame is
exactly diag(1, -1, -1), so fibers are nondegenerate of signature (2, 1)
and the horizontal complement carries an induced metric of signature
(2n, 2n) together with the structure triple v -> v conj(e_a).

The transitive-element construction completes a unit lift to a matrix
preserving both the neutral scalar product and the quaternionic
structure (the group whose real representation is the symplectic
group), using Gram-Schmidt for the quaternion-valued hermitian pairing
s(u, v) = sum conj(u_i) v_i.  Exact rational normalisation is always
possible because the norm form represents every nonzero rational.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import IMAGINARY_UNITS, SplitQuaternion
from .linalg import (HermitianStructure, PQMatrix, PQVector, metric_matrix,
                     module_scalar_product, random_quaternion)

VERTICAL_GRAM = exactla.fracarray([[1, 0, 0], [0, -1, 0], [0, 0, -1]])


class DegenerateOrbitError(ValueError):
    """The lift is not on the unit sphere: its fiber Gram matrix is not
    diag(1, -1, -1)."""


class CompletionFailureError(ValueError):
    """Gram-Schmidt completion ran out of non-null candidates."""


class SpherePoint:
    """Unit vector of the rank-(n+1) module (tolerance for float lifts)."""

    __slots__ = ("x",)

    def __init__(self, x: PQVector, check: bool = True, tol=0):
        if check:
            err = abs(module_scalar_product(x, x) - 1)
            if err > tol:
                raise ValueError(f"not a unit vector, off by {err}")
        self.x = x

    def is_exact(self) -> bool:
        return not isinstance(self.x.entries[0].a, float)

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


def unit_scaling(norm) -> SplitQuaternion:
    """A quaternion q with |q|^2 = 1/norm, for any nonzero rational norm.

    The norm form a^2 + b^2 - c^2 - d^2 represents every rational value:
    with b = c = 0 it factors as (a - d)(a + d)."""
    r = Fraction(1) / Fraction(norm)
    return SplitQuaternion((1 + r) / 2, 0, 0, (r - 1) / 2)


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


def vertical_frame(x: SpherePoint) -> np.ndarray:
    cols = [x.x.right_mul(u).to_real() for u in IMAGINARY_UNITS]
    return np.stack(cols, axis=1)


def _ambient_metric(rank: int, exact: bool = True) -> np.ndarray:
    g = metric_matrix(rank)
    return g if exact else np.asarray(g, dtype=float)


def tangent_split(x: SpherePoint) -> TangentSplit:
    """Split the tangent space of the sphere at x into the fiber direction
    frame and its orthogonal complement.  Exact lifts only: a float lift
    raises TypeError."""
    g = metric_matrix(x.rank)
    # the horizontal space is the g-orthogonal complement of (x, xi, xj, xk)
    frame4 = np.concatenate([x.x.to_real().reshape(-1, 1), vertical_frame(x)],
                            axis=1)
    exactla.require_exact(frame4)
    vert = frame4[:, 1:]
    gram = vert.T @ g @ vert
    # any lift has fiber Gram |x|^2 diag(1, -1, -1), so only an entrywise
    # comparison (not the inertia) detects a positive lift off the sphere
    if (gram != VERTICAL_GRAM).any():
        found = "; ".join(", ".join(str(a) for a in row) for row in gram)
        raise DegenerateOrbitError(
            f"lift is off the unit sphere: fiber Gram is [{found}], "
            "not diag(1, -1, -1)")
    horizontal = exactla.nullspace(frame4.T @ g)
    if horizontal.shape[1] != 4 * x.rank - 4:
        raise DegenerateOrbitError("horizontal frame incomplete")
    return TangentSplit(x, vert, horizontal)


def horizontal_project(x: SpherePoint, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the horizontal
    space at x (drops the position and fiber components)."""
    exact = x.is_exact()
    g = _ambient_metric(x.rank, exact)
    frame4 = np.concatenate([x.x.to_real().reshape(-1, 1),
                             vertical_frame(x)], axis=1)
    if not exact:
        frame4 = np.asarray(frame4, dtype=float)
        v = np.asarray(v, dtype=float)
    g4 = frame4.T @ g @ frame4
    coef = exactla.solve_any(g4, frame4.T @ (g @ v))
    return v - frame4 @ coef


def induced_geometry(x: SpherePoint):
    """(HermitianStructure on the horizontal frame, the frame itself).

    The metric is the restriction of the ambient scalar product; the
    structure is right multiplication by the conjugated units expressed
    in frame coordinates.  Both are exact at rational points.
    """
    frame = tangent_split(x).horizontal
    g = _ambient_metric(x.rank)
    g_h = frame.T @ g @ frame
    Js = []
    for u in IMAGINARY_UNITS:
        image_cols = []
        for c in range(frame.shape[1]):
            vec = PQVector.from_real(frame[:, c]).right_mul(u.conj()).to_real()
            image_cols.append(vec)
        img = np.stack(image_cols, axis=1)
        coords, residual = exactla.frame_coordinates(frame, img)
        if residual != 0:
            raise DegenerateOrbitError("structure does not preserve the frame")
        Js.append(coords)
    return HermitianStructure(*Js, g_h), frame


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def hermitian_pairing(u: PQVector, v: PQVector) -> SplitQuaternion:
    """Quaternion-valued pairing s(u, v) = sum conj(u_i) v_i; its real
    part is the neutral scalar product."""
    total = SplitQuaternion()
    for a, b in zip(u.entries, v.entries):
        total = total + a.conj() * b
    return total


def transitive_element(target: SpherePoint) -> PQMatrix:
    """A scalar-product-preserving matrix sending the base point to target.

    Columns are built by Gram-Schmidt for the hermitian pairing, starting
    from the target; residual norms are rescaled to one exactly by a
    right quaternion factor.
    """
    rank = target.rank
    cols = [target.x]
    pool = []
    for s in range(rank):
        coords = [SplitQuaternion(1 if i == s else 0) for i in range(rank)]
        pool.append(PQVector(coords))
    for cand in pool:
        if len(cols) == rank:
            break
        v = cand
        for c in cols:
            v = v - c.right_mul(hermitian_pairing(c, v))
        r = hermitian_pairing(v, v).a
        if r == 0:
            continue
        cols.append(v.right_mul(unit_scaling(r)))
    if len(cols) != rank:
        raise CompletionFailureError("candidate pool exhausted")
    entries = [[cols[c].entries[r] for c in range(rank)] for r in range(rank)]
    return PQMatrix(entries)
