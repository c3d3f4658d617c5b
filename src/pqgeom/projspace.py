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
both are exact.  A lift x = C / LC is held as its integer pair (C, LC)
(``SpherePoint``, on ``linalg.PQVector``), and everything runs on it,
with no Fraction but the results: the unit check is C^T g C == LC^2,
the sampled points are reflections formed on integers, the fiber Gram
is compared with LC^2 diag(1, -1, -1), and the horizontal frame is the
integer kernel basis (N, L, free) of ``exactla.nullspace``, in which a
vector T / LT of its span has the coordinates T[free] / LT, so the
induced metric and structure are integer arrays over L^2 and L.

The transitive-element construction completes a unit lift to a matrix
preserving both the neutral scalar product and the quaternionic
structure (the group whose real representation is the symplectic
group), using Gram-Schmidt for the quaternion-valued hermitian pairing
s(u, v) = sum conj(u_i) v_i.  The columns are s-orthonormal, so the
classical and the modified process agree.  One private routine,
``_transitive_columns``, runs it fraction-free on the scaled-integer real
coordinates of the target and returns each column with its right unit
multiples, which are the column's block of the real action:
``transitive_element`` stacks the columns into the integer coefficient
array of a ``PQMatrix``, and ``transitive_action`` returns the real
action as integers; each is over one scale, with no Fraction.  The
candidates are the coordinate vectors e_s and, where those run out, the
e_s + e_t q; some candidate is always non-null.  Exact rational
normalisation is always possible because the norm form represents every
nonzero rational.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import SplitQuaternion
from .linalg import (HermitianStructure, PQMatrix, PQVector,
                     _random_coefficients, apply_metric, random_quaternion,
                     right_unit_action)

VERTICAL_GRAM = np.diag(np.array([1, -1, -1], dtype=object))


class DegenerateOrbitError(ValueError):
    """The lift is not on the unit sphere: its fiber Gram matrix is not
    diag(1, -1, -1)."""


class NullLineError(ValueError):
    """sphere_point_through was given a null direction."""


class TangentLineError(ValueError):
    """sphere_point_through was given a direction tangent to the sphere at
    the base point."""


class CompletionFailureError(ValueError):
    """Gram-Schmidt completion ran out of non-null candidates."""


class SpherePoint:
    """Unit vector x = C / L of the rank-(n+1) module, held as the pair
    ``x.scaled`` = (C, L) of its ``PQVector``.  The check asks
    C^T g C == L^2 on the integers, that is |x|^2 == 1 exactly; a lift
    with float coordinates cannot be formed (the PQVector raises
    TypeError)."""

    __slots__ = ("x",)

    def __init__(self, x: PQVector, check: bool = True):
        if check:
            C, L = x.scaled
            defect = C @ apply_metric(C) - L * L
            if defect != 0:
                raise ValueError(f"not a unit vector, off by "
                                 f"{Fraction(abs(defect), L * L)}")
        self.x = x

    @property
    def rank(self) -> int:
        return self.x.rank

    def __repr__(self):
        return f"SpherePoint({self.x!r})"


def base_point(rank: int) -> SpherePoint:
    """The point e_0 = (1, 0, ..., 0), over the scale 1."""
    C = np.zeros(4 * rank, dtype=object)
    C[0] = 1
    return SpherePoint(PQVector.from_scaled_integers(C, 1), check=False)


def sphere_point_through(base: SpherePoint, direction: PQVector) -> SpherePoint:
    """Second intersection of the line base + t*direction with the sphere;
    rational input gives a rational point.  On the integer coordinates of
    base = B / LB and direction = D / LD it is the reflection
    (<D, D> B - 2 <B, D> D) / (LB <D, D>), reduced by its gcd."""
    (B, LB), (D, _) = base.x.scaled, direction.scaled
    dd = D @ apply_metric(D)
    if dd == 0:
        raise NullLineError("null direction")
    bd = B @ apply_metric(D)
    if bd == 0:
        raise TangentLineError("direction tangent to the sphere at the base")
    X, L = dd * B - 2 * bd * D, LB * dd
    g = math.gcd(*X, L) * (1 if L > 0 else -1)
    return SpherePoint(PQVector.from_scaled_integers(X // g, L // g))


def random_sphere_point(rng, rank: int) -> SpherePoint:
    """Seeded rational point of the unit pseudosphere: the base point
    reflected in directions of random_quaternion(rng, 4) entries, drawn
    on integers by the same rng calls, until one is neither null nor
    tangent.  Only those two refusals are redrawn: any other error of
    sphere_point_through (a point off the sphere) propagates."""
    o = base_point(rank)
    while True:
        C, L = _random_coefficients(rng, rank, 4)
        try:
            return sphere_point_through(
                o, PQVector.from_scaled_integers(C.T.reshape(-1), L))
        except (NullLineError, TangentLineError):
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
    """Vertical and horizontal frames at a sphere point x = C / LC, held as
    integers: ``scaled_vertical`` = (V, LC) with V the real coordinates of
    (C i, C j, C k), columns of shape (4(n+1), 3); ``kernel`` = (N, L, free)
    as ``exactla.nullspace`` returns it, whose 4n columns N / L span the
    orthogonal complement of the fiber frame and the position vector.
    ``vertical`` and ``horizontal`` are the Fraction views, formed on first
    access.
    """

    def __init__(self, base: SpherePoint, scaled_vertical, kernel):
        self.base = base
        self.scaled_vertical = scaled_vertical
        self.kernel = kernel

    @functools.cached_property
    def vertical(self) -> np.ndarray:
        return exactla.from_scaled_integers(*self.scaled_vertical)

    @functools.cached_property
    def horizontal(self) -> np.ndarray:
        return exactla.from_scaled_integers(*self.kernel[:2])


def vertical_frame(coords: np.ndarray) -> np.ndarray:
    """Real coordinates of (x i, x j, x k) from those of x (axis 0), on
    every dtype: x e_a = -J_a x."""
    return np.stack([-right_unit_action(coords, a) for a in range(3)], axis=1)


def tangent_split(x: SpherePoint) -> TangentSplit:
    """Split the tangent space of the sphere at x into the fiber direction
    frame and its orthogonal complement, at the integer coordinates C of
    x = C / LC: the fiber Gram is LC^2 times that at x, and the kernel of
    the rows g (C, C i, C j, C k) is the horizontal space at x."""
    # the horizontal space is the g-orthogonal complement of (x, xi, xj, xk)
    C, LC = x.x.scaled
    vert = vertical_frame(C)
    gram = vert.T @ apply_metric(vert)
    # any lift has fiber Gram |x|^2 diag(1, -1, -1), so only an entrywise
    # comparison (not the inertia) detects a positive lift off the sphere
    if (gram != VERTICAL_GRAM * (LC * LC)).any():
        found = "; ".join(", ".join(str(Fraction(a, LC * LC)) for a in row)
                          for row in gram)
        raise DegenerateOrbitError(
            f"lift is off the unit sphere: fiber Gram is [{found}], "
            "not diag(1, -1, -1)")
    kernel = exactla.nullspace(apply_metric(
        np.concatenate([C.reshape(-1, 1), vert], axis=1)).T)
    if len(kernel[2]) != 4 * x.rank - 4:
        raise DegenerateOrbitError("horizontal frame incomplete")
    return TangentSplit(x, (vert, LC), kernel)


def frame_structure(kernel) -> HermitianStructure | None:
    """The structure v -> v conj(e_a) and the neutral metric on the span
    of a kernel frame (N, L, free) of exactla.nullspace, unvalidated: J_a
    has the coordinates (J_a N)[free] / L and the metric is N^T g N / L^2,
    all on integers.  None unless N @ (J_a N)[free] == L J_a N for every
    a, that is unless every J_a preserves the span."""
    N, L, free = kernel
    images = np.stack([right_unit_action(N, a) for a in range(3)])
    if (N @ images[:, free] != L * images).any():
        return None
    return HermitianStructure(*images[:, free], N.T @ apply_metric(N),
                              validate=False, scales=(L, L * L))


def induced_geometry(x: SpherePoint):
    """(HermitianStructure on the horizontal frame, the frame itself).

    The metric is the restriction of the ambient scalar product; the
    structure is right multiplication by the conjugated units expressed
    in frame coordinates (frame_structure on the kernel of tangent_split).
    Both are exact at rational points.
    """
    split = tangent_split(x)
    H = frame_structure(split.kernel)
    if H is None:
        raise DegenerateOrbitError("structure does not preserve the frame")
    H.check_relations()
    return H, split.horizontal


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

    append(*target.x.scaled)
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


def _common_scale(cols) -> tuple[list, int]:
    """The blocks F of _transitive_columns brought to their lcm scale."""
    LA = math.lcm(*(L for _, L in cols))
    return [F * (LA // L) for F, L in cols], LA


def transitive_element(target: SpherePoint) -> PQMatrix:
    """A scalar-product-preserving matrix sending the base point to target,
    completed by the Gram-Schmidt of _transitive_columns; its coefficient
    array is formed from the integer columns, with no Fraction."""
    blocks, LA = _common_scale(_transitive_columns(target))
    # column c of the matrix has interleaved coordinates blocks[c][:, 0]
    cols = np.stack([F[:, 0] for F in blocks], axis=1)
    return PQMatrix.from_scaled_integers(
        cols.reshape(target.rank, 4, -1).transpose(1, 0, 2), LA)


def transitive_action(target: SpherePoint) -> tuple[np.ndarray, int]:
    """(A, LA): the real action of transitive_element(target) is A / LA,
    with A an integer matrix; no Fraction is formed."""
    blocks, LA = _common_scale(_transitive_columns(target))
    return np.concatenate(blocks, axis=1), LA
