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
(``linalg.apply_metric``), right multiplication by a unit is a signed
permutation (``linalg.unit_action``), and the frame (x, x i, x j, x k) is
``linalg.unit_frame``; none forms a product, and all are exact.  A lift
x = C / LC is held as its integer pair (C, LC) (``SpherePoint``, on
``linalg.PQVector``), and everything runs on it, with no Fraction but
the results: the unit check is C^T g C == LC^2,
the sampled points are reflections formed on integers, and the fiber
Gram is compared with LC^2 diag(1, -1, -1).

Quotients are data.  A quotient is the record ``Quotient(rows,
generators)`` of two read-only integer tensors: constraint i is
1/2 x^T rows[i] x, so rows[i] is its Hessian and ``rows @ x`` stacks the
constraint rows at x, and ``generators @ x`` stacks the linear Killing
fields at x (Hitchin-Karlhede-Lindstrom-Rocek, Comm. Math. Phys. 108,
1987; Galicki-Lawson, Math. Ann. 282, 1988).  Three cached constructors
build every quotient of the package: ``sphere_quotient`` here (the row g
and the fiber fields x i, x j, x k), ``reduction.moment_quotient`` and
``reduction.weighted_quotient``; no other routine forms a constraint row
or a Killing field.  One routine, ``quotient_kernel``, reads a record at
the integer coordinates of a point: the frame is the g-orthogonal
complement of the Killing fields inside the level set, the integer kernel
basis (N, L, free) of ``exactla.nullspace`` of the constraint rows
stacked over g times the fields; ``quotient_frame`` restricts the
structure to it.
A vector T / LT of the span has the coordinates T[free] / LT, so the
induced metric and structure are integer arrays over L^2 and L, and no
Fraction view of the frame is formed.

The transitive-element construction completes a unit lift to a matrix
preserving both the neutral scalar product and the quaternionic
structure (the group whose real representation is the symplectic
group), using Gram-Schmidt for the quaternion-valued hermitian pairing
s(u, v) = sum conj(u_i) v_i.  The columns are s-orthonormal, so the
classical and the modified process agree.  One private routine,
``_transitive_columns``, runs it fraction-free on the scaled-integer real
coordinates of a stack of targets, all points at once (each round offers
every unfinished point its next candidate and masks out the null ones),
and returns each column with its right unit multiples, which are the
column's block of the real action: ``transitive_action`` returns the
real actions of the stack as integers, each over its own scale, and
``transitive_element`` reads the coefficient array of a ``PQMatrix`` off
the action of a stack of one; no Fraction is formed.  The
candidates are the coordinate vectors e_s and, where those run out, the
e_s + e_t q; some candidate is always non-null.  Exact rational
normalisation is always possible because the norm form represents every
nonzero rational.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import SplitQuaternion
from .linalg import (REDRAW_LIMIT, HermitianStructure, PQMatrix, PQVector,
                     RedrawLimitError, _random_coefficients, apply_metric,
                     metric_matrix, random_quaternion, structure_endos,
                     unit_action, unit_frame)

VERTICAL_GRAM = np.diag(np.array([1, -1, -1], dtype=object))


class DegenerateOrbitError(ValueError):
    """The lift is not on the unit sphere (its fiber Gram matrix is not
    diag(1, -1, -1)), or the Killing fields and constraint rows of a
    quotient frame are dependent."""


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
    tangent.  Only those two refusals are redrawn, at most REDRAW_LIMIT
    times in a row (RedrawLimitError): any other error of
    sphere_point_through (a point off the sphere) propagates."""
    o = base_point(rank)
    for _ in range(REDRAW_LIMIT):
        C, L = _random_coefficients(rng, rank, 4)
        try:
            return sphere_point_through(
                o, PQVector.from_scaled_integers(C.T.reshape(-1), L))
        except (NullLineError, TangentLineError):
            continue
    raise RedrawLimitError("random_sphere_point: every direction null or "
                           "tangent")


def random_unit_quaternion(rng) -> SplitQuaternion:
    """Seeded rational element of the unit-norm group: 1 reflected in a
    random direction d, redrawn (at most REDRAW_LIMIT times in a row) while
    d is null or orthogonal to 1."""
    for _ in range(REDRAW_LIMIT):
        d = random_quaternion(rng, 4)
        dd = d.square_norm()
        if dd != 0 and d.a != 0:
            return SplitQuaternion(1) + d.scale(Fraction(-2) * d.a / dd)
    raise RedrawLimitError("random_unit_quaternion: every direction null")


# ---------------------------------------------------------------------------
# quotient frames and induced geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Quotient:
    """A quotient as data: ``rows`` (k, D, D), the Hessians of the
    constraints 1/2 x^T rows[i] x, and ``generators`` (m, D, D), the
    matrices of the linear Killing fields x -> generators[a] @ x, both
    integer arrays on the real coordinates of the module (D = 4 rank).
    The arrays are made read-only."""

    rows: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        self.rows.flags.writeable = self.generators.flags.writeable = False


@functools.cache
def sphere_quotient(rank: int) -> Quotient:
    """The pseudosphere |x|^2 = 1 of the rank-`rank` module divided by the
    fiber: the one row g, and the generators x -> x e_a, the -J_a of
    structure_endos.  Built once per rank."""
    return Quotient(metric_matrix(rank)[None],
                    -structure_endos(rank).scaled_J[0])


def quotient_kernel(quotient: Quotient, x) -> tuple[np.ndarray, int, list]:
    """The kernel triple (N, L, free) of ``exactla.nullspace`` of the
    constraint rows ``quotient.rows @ x`` stacked over g times the fields
    ``quotient.generators @ x``, at the integer coordinates x of a point,
    all on integers (a row-scaled system has the same kernel, so the
    integer multiple x of a point serves): the g-orthogonal complement of
    the Killing fields inside the level set.  DegenerateOrbitError unless
    the kernel has the dimension D - k - m, that is unless the rows and
    the g-dual fields are independent."""
    kernel = exactla.nullspace(np.concatenate(
        [quotient.rows @ x, apply_metric((quotient.generators @ x).T).T]))
    N, _, free = kernel
    want = len(N) - len(quotient.rows) - len(quotient.generators)
    if len(free) != want:
        raise DegenerateOrbitError(
            f"quotient frame has dimension {len(free)}, not {want}")
    return kernel


def quotient_frame(quotient: Quotient, x):
    """(H, (N, L, free)): the tangent frame of a quotient at the integer
    coordinates x of a point (quotient_kernel, with its guard), and the
    structure restricted to it.  H is the structure v -> v conj(e_a) and
    the neutral metric on its span, unvalidated: J_a has the coordinates
    (J_a N)[free] / L and the metric is N^T g N / L^2.
    DegenerateOrbitError unless N @ (J_a N)[free] == L J_a N for every a,
    that is unless every J_a preserves the span."""
    kernel = N, L, free = quotient_kernel(quotient, x)
    images = np.stack([unit_action(N, a) for a in range(3)])
    if (N @ images[:, free] != L * images).any():
        raise DegenerateOrbitError("structure does not preserve the frame")
    return HermitianStructure(*images[:, free], N.T @ apply_metric(N),
                              validate=False, scales=(L, L * L)), kernel


def unit_fiber(x: SpherePoint):
    """The integer coordinates C of x = C / LC, once the fiber frame
    (C i, C j, C k), the generators of sphere_quotient at C, has the Gram
    matrix LC^2 diag(1, -1, -1): DegenerateOrbitError unless x lies on the
    unit sphere."""
    C, LC = x.x.scaled
    fiber = sphere_quotient(x.rank).generators @ C
    gram = fiber @ apply_metric(fiber.T)
    # any lift has fiber Gram |x|^2 diag(1, -1, -1), so only an entrywise
    # comparison (not the inertia) detects a positive lift off the sphere
    if (gram != VERTICAL_GRAM * (LC * LC)).any():
        found = "; ".join(", ".join(str(Fraction(a, LC * LC)) for a in row)
                          for row in gram)
        raise DegenerateOrbitError(
            f"lift is off the unit sphere: fiber Gram is [{found}], "
            "not diag(1, -1, -1)")
    return C


def induced_geometry(x: SpherePoint):
    """(HermitianStructure on the horizontal frame, the frame itself as
    the kernel triple (N, L, free) of exactla.nullspace), from
    quotient_frame of sphere_quotient at the integer coordinates C of
    x = C / LC: the horizontal space is the orthogonal complement of the
    position vector and the fiber, spanned by the 4n columns N / L.  Both
    are exact at rational points.  DegenerateOrbitError from unit_fiber
    unless x lies on the unit sphere."""
    H, kernel = quotient_frame(sphere_quotient(x.rank), unit_fiber(x))
    H.check_relations()
    return H, kernel


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def _transitive_columns(C, L) -> tuple[np.ndarray, np.ndarray]:
    """Columns of transitive_element at a stack of unit lifts C[b] / L[b]
    (C of shape (B, 4 rank), L of shape (B,), Python ints) as (F, LF):
    F[b, c] = [X, X i, X j, X k] holds the integer real coordinates of
    column c = X / LF[b, c] and of its right unit multiples, so that
    F[b, c] over LF[b, c] is the column's block of the real action.

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

    The points run together: each round offers every point with missing
    columns its next candidate (``step`` indexes the list e_s, then the
    pool), and only the points with a non-null residual take a column.
    The columns not yet taken are 0 over the scale 1, which leaves every
    sum and lcm unchanged.
    """
    B, rank = len(C), C.shape[1] // 4
    F = np.zeros((B, rank, 4 * rank, 4), dtype=object)
    LF = np.ones((B, rank), dtype=object)
    F[:, 0], LF[:, 0] = unit_frame(C.T).swapaxes(0, 1), L
    e = np.eye(4 * rank, dtype=object)
    # the e_s of the first pass, then the pool: the e_s and the e_s + e_t q
    candidates = np.stack(
        [e[4 * s] for s in range(rank)] * 2
        + [e[4 * s] + e[4 * t + m] for s in range(rank)
           for t in range(s + 1, rank) for m in range(4)])
    count, step = np.ones(B, dtype=int), np.zeros(B, dtype=int)
    while (count < rank).any():
        act = np.flatnonzero(count < rank)
        if (step[act] == len(candidates)).any():
            raise CompletionFailureError("candidate pool exhausted")
        W, Fa, LF2 = candidates[step[act]], F[act], LF[act] ** 2
        den = np.lcm.reduce(LF2, axis=1)
        # the pairings s(c, W) = eps * F_c^T g W of every column c (shape
        # (n, rank, 4)), then V = den W - sum_c (den / LF_c^2) F_c s(c, W)
        s = apply_metric(
            (apply_metric(W.T).T[:, None, None] @ Fa)[:, :, 0].T).T
        V = den[:, None] * W - ((den[:, None] // LF2)[..., None]
                                * (Fa @ s[..., None])[..., 0]).sum(axis=1)
        N = (V * apply_metric(V.T).T).sum(axis=1)
        ok = N != 0
        # the first pass over the e_s moves on either way; in the pool a
        # taken column restarts the pool and a null one moves on
        step[act] = np.where(ok & (step[act] >= rank), rank, step[act] + 1)
        take, V, N, den = act[ok], V[ok], N[ok], den[ok]
        # V k = -J_3 V
        X, LX = ((N + den * den)[:, None] * V
                 - (den * den - N)[:, None] * unit_action(V.T, 2).T,
                 2 * den * N)
        g = np.gcd.reduce(np.concatenate([X, LX[:, None]], axis=1),
                          axis=1) * np.sign(N)
        F[take, count[take]], LF[take, count[take]] = (
            unit_frame((X // g[:, None]).T).swapaxes(0, 1), LX // g)
        count[take] += 1
    return F, LF


def _stack(points) -> tuple[np.ndarray, np.ndarray]:
    """The integer coordinates (B, 4 rank) and scales (B,) of sphere
    points."""
    return (np.stack([x.x.scaled[0] for x in points]),
            np.array([x.x.scaled[1] for x in points], dtype=object))


def transitive_element(target: SpherePoint) -> PQMatrix:
    """A scalar-product-preserving matrix sending the base point to target,
    completed by the Gram-Schmidt of _transitive_columns; its coefficient
    array is formed from the integer columns, with no Fraction."""
    A, LA = transitive_action(*_stack([target]))
    # column c of the matrix has interleaved coordinates A[:, 4 c]
    return PQMatrix.from_scaled_integers(
        A[0, :, 0::4].reshape(target.rank, 4, -1).transpose(1, 0, 2), LA[0])


def transitive_action(C, L) -> tuple[np.ndarray, np.ndarray]:
    """(A, LA): the real action of transitive_element at each unit lift
    C[b] / L[b] of a stack is A[b] / LA[b], with A an integer array
    (B, 4 rank, 4 rank), the blocks of _transitive_columns brought to
    their lcm scale; no Fraction is formed."""
    F, LF = _transitive_columns(C, L)
    LA = np.lcm.reduce(LF, axis=1)
    A = F * (LA[:, None] // LF)[..., None, None]
    return A.transpose(0, 2, 1, 3).reshape(len(C), C.shape[1], -1), LA
