"""Moment-map reductions at desk scale.

Two scenes are implemented.

Flat circle scene: the flat module of rank r carries the standard
para-hyperKahler structure; the circle acts by left multiplication
with e^{it}.  The moment map used here is

    f(h) = ( -(|z|^2 + |w|^2), -Re(z w), -Im(z w) ),

in the complex coordinates h = z + j w (entrywise), with z w the
bilinear complex pairing.  The level is fixed at FLAT_LEVEL,
xi = (-1, 0, 0), the one level the exact sampler implements; with this
sign convention its level set is literally {|z|^2 + |w|^2 = 1, z w = 0}.
The components adapted to the structure triple (the ones whose directional
derivatives equal omega_a(V, .) for the Killing field V(h) = i h) are
the documented relabelling

    fhat = ( -f1 / 2, f3, f2 ),

which flat_moment_gradient_check verifies exactly: fhat is quadratic, so
(fhat(h + X) - fhat(h - X)) / 2 = omega_a(V, X) holds with no remainder
at rational h and X.  ``flat_adapted_moment`` returns 2 fhat =
(-f1, 2 f3, 2 f2), which is integer at integer coordinates.

Weighted hyperbolic scene: on the rank-3 sphere model the group
e^{jt} = cosh t + j sinh t acts through the weights (q, p, p) with
p, q coprime and distinct.  The level function

    mu(u) = q conj(u0) j u0 + p conj(u1) j u1 + p conj(u2) j u2

takes imaginary values, is invariant under the action, and transforms
by conjugation under fiber translations, so its zero set descends to
the quotient.  The independent cross-check computes the moment value
through the isotropy decomposition at the base point (the covariant
derivative of a Killing field at the base point of a symmetric space
is the adjoint action of the isotropy component) transported by group
elements, and compares zero sets.

Reduced Jacobi data: for a regular level point and a non-null
admissible direction X the three eigenvalues of X -> R(X, Y) X / g(X, X)
on the quotient are

    l1 = l2 = -(nu - 2 rho),   l3 = -(nu + 4 rho),

with rho = |h(V_X)|^2 / (g(X,X) |V|^2), where V_X is the ambient
covariant derivative of the Killing field and h(.) the projection onto
the orthogonal complement of the span (V, J1 V, J2 V, J3 V).  The
reduced scalar curvature nu = (Einstein constant) / (n + 2) is the same
on the ambient model and on the quotient (Galicki-Lawson, Math. Ann.
282, 1988); it is computed, not assumed, from the ambient model
curvature.  (The eigenvalue list is read as (l1, l1, l3); the
duplicated middle label in the source formula is resolved that way.)

Level points.  ``weighted_level_sample`` draws generic exact rational
points of the zero level set by a closed construction (a rational point
of a conic, then a solved last entry; see its docstring), so the ratio
rho differs from point to point; on the sphere V is horizontal at every
point of the zero level set, so the reduced-Jacobi routines read V
directly.

Arithmetic.  Everything is exact but one route: the rounded image of the
exact level points (``weighted_level_sample_float``, float64 real
coordinates), which the benchmark in perfbench/ traces by name and no
routine of the package calls.  A point is a ``linalg.PQVector`` (the
flat scene) or a ``projspace.SpherePoint`` (the weighted scene), held as
integer coordinates U over a scale L, and every routine reads that
pair: the moment maps and the level value are quadratic, so they are
formed at U and compared with L^2 times the level; the flat moment, its
gradient rows and the flat Killing field take real coordinates, on any
scalar type, and the moments and the Killing field a leading batch axis,
on which ``flat_moment_gradient_check`` evaluates all its samples at
once, on int64 (the doubled adapted moment is integer there).
``flat_level_sample`` builds its point on integers.  The definite-axis
control ``empty_levelset_check`` runs on int64 blocks of integer sphere
points.  The reduced-Jacobi chain is on Python ints:
``admissible_directions`` returns integer vectors of the admissible
space, ``reduced_jacobi`` scales a direction to integers once (its
ratio is invariant under scaling X), forms every pairing and product on
Python ints, and forms Fractions only for its results.  The tangent
frames of the level sets (``flat_reduced_structure``, whose
``ReducedStructure.frame`` is that kernel pair, and the orthogonality
checks) are integer kernel bases N / L of ``exactla.nullspace``, taken
at the integer coordinates of the point (a row-scaled system has the
same kernel); a vector T / LT of such a span has the coordinates
T[free] / LT, so the reduced metric and structure are read off on
integers, with no solve.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import exactla
from .algebra import I, J, K, SplitQuaternion
from .curvature import (NullDirectionError, ambient_projective_curvature,
                        einstein_check)
from .linalg import (HermitianStructure, PQVector, apply_metric,
                     left_mult_matrix, random_integers, right_mult_matrix,
                     right_unit_action, structure_endos)
from .projspace import (SpherePoint, frame_structure, random_sphere_point,
                        transitive_action, vertical_frame)


class DegenerateLevelSetError(ValueError):
    """Constraint differentials lost rank at a sampled point."""


class NullOrbitError(ValueError):
    """The orbit direction is null at the sampled point."""


class NonRegularError(ValueError):
    """The sampled point fails the regularity condition."""


# the level value xi of each scene
FLAT_LEVEL = (Fraction(-1), Fraction(0), Fraction(0))
LEVELS = {"flat-s1": FLAT_LEVEL, "pq": (Fraction(0),) * 3}

# most directions per round of the definite-axis control
# (empty_levelset_check), and the largest i-component of its points
_LEVEL_BLOCK = 256
_I_COMPONENT_BOUND = 4 * 72 ** 2


@dataclass
class ImValue:
    """Element of the imaginary span, as (i, j, k) coefficients."""

    i: Fraction
    j: Fraction
    k: Fraction

    def coefficients(self):
        return (self.i, self.j, self.k)

    def max_abs(self):
        return max(abs(self.i), abs(self.j), abs(self.k))

    def is_zero(self) -> bool:
        return self.max_abs() == 0


# ---------------------------------------------------------------------------
# flat circle scene
# ---------------------------------------------------------------------------


def _entry_coefficients(x) -> np.ndarray:
    """The coefficient rows a, b, c, d of the entries of real coordinates
    x (last axis): shape (4, ..., rank), one row per unit."""
    x = np.asarray(x)
    return np.moveaxis(x.reshape(x.shape[:-1] + (-1, 4)), -1, 0)


def flat_circle_moment(x):
    """Moment triple (-(|z|^2+|w|^2), -Re(zw), -Im(zw)) of the circle
    action at the point with real coordinates x, on the scalar type of x;
    see the module docstring for the sign conventions.  Leading axes of x
    are a batch of points, with one value per point in each component."""
    a, b, c, d = _entry_coefficients(x)
    # z = a + b i, w = c - d i:  z w = (ac + bd) + (bc - ad) i
    return (-(a * a + b * b + c * c + d * d).sum(axis=-1),
            -(a * c + b * d).sum(axis=-1), -(b * c - a * d).sum(axis=-1))


def flat_adapted_moment(x):
    """Twice the component relabelling fhat = (-f1/2, f3, f2) whose
    differentials are omega_a(V, .) for the structure triple:
    (-f1, 2 f3, 2 f2), integer at integer coordinates; batched as
    flat_circle_moment."""
    f1, f2, f3 = flat_circle_moment(x)
    return (-f1, 2 * f3, 2 * f2)


def flat_level_defect(h: PQVector) -> int:
    """LU^2 times the largest deviation of the moment of h = U / LU from
    FLAT_LEVEL: the moment is quadratic, so at U it is LU^2 times its
    value.  0 exactly on the level set."""
    U, LU = h.scaled
    return max(abs(a - LU * LU * int(b))
               for a, b in zip(flat_circle_moment(U), FLAT_LEVEL))


def flat_killing(x) -> np.ndarray:
    """Real coordinates of the Killing value i h (left multiplication by
    i) at the point with real coordinates x, on their scalar type:
    i (a + b i + c j + d k) = -b + a i - d j + c k.  Leading axes of x
    are a batch of points."""
    a, b, c, d = _entry_coefficients(x)
    return np.stack([-b, a, -d, c], axis=-1).reshape(np.shape(x))


def _moment_gradient_rows(x) -> np.ndarray:
    """Exact gradients of the three moment components as rows, at the
    point with real coordinates x and on their scalar type: linear in x,
    so integer at integer coordinates."""
    blocks = [[[-2 * a, -2 * b, -2 * c, -2 * d], [-c, -d, -a, -b],
               [d, -c, -b, a]]
              for a, b, c, d in np.reshape(x, (-1, 4))]
    return np.array(blocks, dtype=object).transpose(1, 0, 2).reshape(3, -1)


def flat_level_sample(rng, rank: int) -> PQVector:
    """Exact rational point of the level set of FLAT_LEVEL = (-1, 0, 0).

    Builds complex vectors z, w with disjoint supports (so z w = 0) and
    rational Euclidean norms s^2 + t^2 = 1 from a rational circle point,
    avoiding the null-orbit locus s = t.  Rank 1 leaves no room for the
    two supports (ValueError).

    On integers: the slope n / m gives the circle point
    (s, t) = (m^2 - n^2, 2 n m) / (m^2 + n^2); each direction is drawn as
    rationals num / den and held as the integers num * (D / den) over
    their common denominator D, whose unit vector is the same; the unit
    vector is the reflection (|Z|^2 e_p - 2 Z_p Z) / |Z|^2 of the axis e_p
    of the first nonzero coordinate of Z in Z, never 0.  The point is then
    one integer array over (m^2 + n^2) |Z|^2 |W|^2, reduced by its gcd to
    the lowest common denominator.
    """
    if rank < 2:
        raise ValueError(f"the flat level set has a point with s, t != 0 "
                         f"only at rank >= 2, not {rank}")
    while True:
        n, m = rng.randint(-6, 6), rng.randint(1, 4)
        s, t = m * m - n * n, 2 * n * m
        if s == 0 or t == 0 or s * s == t * t:
            continue
        size = rng.randrange(1, rank)
        inside = np.repeat(np.isin(np.arange(rank),
                                   rng.sample(range(rank), size)), 2)
        Z = np.where(inside, _integer_direction(rng, rank), 0)
        W = np.where(inside, 0, _integer_direction(rng, rank))
        zn, wn = Z @ Z, W @ W
        if zn == 0 or wn == 0:
            continue
        zu, wu = _reflected_axis(Z, zn), _reflected_axis(W, wn)
        C = np.empty(4 * rank, dtype=object)
        C[0::4], C[1::4] = s * wn * zu[0::2], s * wn * zu[1::2]
        C[2::4], C[3::4] = t * zn * wu[0::2], -t * zn * wu[1::2]
        L = (m * m + n * n) * zn * wn
        g = gcd(*C, L)
        h = PQVector.from_scaled_integers(C // g, L // g)
        assert flat_level_defect(h) == 0
        return h


def _integer_direction(rng, rank: int) -> np.ndarray:
    """2 rank rationals num / den (num in [-5, 5], den in [1, 3], drawn in
    that order) as integers over their common denominator."""
    draws = [(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2 * rank)]
    D = lcm(*{den for _, den in draws})
    return np.array([num * (D // den) for num, den in draws], dtype=object)


def _reflected_axis(Z: np.ndarray, norm: int) -> np.ndarray:
    """norm times the Euclidean unit vector e_p - 2 Z_p Z / norm, the
    reflection of the axis e_p of the first nonzero coordinate of Z in Z,
    with norm = |Z|^2."""
    pivot = np.flatnonzero(Z)[0]
    out = -2 * Z[pivot] * Z
    out[pivot] += norm
    return out


@dataclass
class ReducedStructure:
    """Pointwise output of a reduction: frame of the descended tangent
    space, as the integer kernel pair (N, L) with basis columns N / L,
    induced metric and structure, diagnostics."""

    frame: tuple
    structure: HermitianStructure
    comrel_residual: Fraction
    skew_residual: Fraction
    signature: tuple[int, int]


def flat_reduced_structure(h: PQVector) -> ReducedStructure:
    """Descend metric and structure to the quotient tangent space at a
    level point: kernel of the constraint differentials, minus the orbit
    direction, with the structure restricted (the complement of the span
    (V, J1 V, J2 V, J3 V) is invariant, so no projection loss occurs).

    All on the integer coordinates U of h = U / LU: the moment map is
    quadratic, so at U it is LU^2 times the level value; the gradient rows
    and the Killing field are linear, so their kernel (exactla.nullspace)
    is the one at h, and projspace.frame_structure reads the reduced
    metric and structure off it on integers."""
    U, LU = h.scaled
    res = flat_level_defect(h)
    if res != 0:
        raise DegenerateLevelSetError(
            f"point off the level set by {Fraction(res, LU * LU)}")
    rows = _moment_gradient_rows(U)
    if exactla.rank(rows) != 3:
        raise DegenerateLevelSetError("constraint differentials degenerate")
    V = flat_killing(U)
    gV = apply_metric(V)
    if gV @ V == 0:
        raise NullOrbitError("orbit direction is null")
    kernel = exactla.nullspace(np.concatenate([rows, gV.reshape(1, -1)]))
    Hred = frame_structure(kernel)
    if Hred is None:
        raise DegenerateLevelSetError("structure leaves the frame")
    return ReducedStructure(
        frame=kernel[:2],
        structure=Hred,
        comrel_residual=Hred.comrel_residual(),
        skew_residual=Hred.skew_residual(),
        signature=Hred.signature())


def flat_quotient_coordinates(x):
    """Projective coordinates (A, B) = (z + conj(w), z - conj(w)) of the
    quotient embedding, as (re, im) pairs, at the point with real
    coordinates x; the circle acts on both by the same phase."""
    A, B = [], []
    for a, b, c, d in np.reshape(x, (-1, 4)):
        # z = a + bi, w = c - di, conj(w) = c + di
        A.append((a + c, b + d))
        B.append((a - c, b - d))
    return A, B


def flat_quotient_residuals(h: PQVector):
    """Residuals of the quotient-image equations |A|^2 = |B|^2 and
    Im(conj(A) . B) = 0; both vanish exactly on the level set.  Both are
    quadratic, so they are formed at the integer coordinates U of
    h = U / LU and divided by LU^2."""
    U, LU = h.scaled
    A, B = flat_quotient_coordinates(U)
    na = sum(x * x + y * y for x, y in A)
    nb = sum(x * x + y * y for x, y in B)
    im = sum(x * t - y * s for (x, y), (s, t) in zip(A, B))
    return Fraction(abs(na - nb), LU * LU), Fraction(abs(im), LU * LU)


# ---------------------------------------------------------------------------
# weighted hyperbolic scene on the rank-3 sphere model
# ---------------------------------------------------------------------------


def _weights(p: int, q: int):
    if p == q or p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError("weights must be distinct coprime naturals")
    return (q, p, p)


def weighted_killing(p: int, q: int, u: SpherePoint) -> PQVector:
    """Flow derivative at parameter zero: (j q u0, j p u1, j p u2), on the
    integer coordinates of u and over its scale."""
    U, L = u.x.scaled
    return PQVector.from_scaled_integers(_generator_action(p, q, U), L)


def weighted_level_value(p: int, q: int, u: SpherePoint) -> ImValue:
    """Imaginary value q conj(u0) j u0 + p conj(u1) j u1 + p conj(u2) j u2,
    by the closed form conj(h) j h = (0, -2(ad + bc), a^2 - b^2 - c^2 + d^2,
    -2(ab + cd)) of h = a + b i + c j + d k.  The value is quadratic, so it
    is formed at the integer coordinates U of u = U / L, on the three
    entries as one batch, and divided by L^2."""
    U, L = u.x.scaled
    Y = _sandwich(SplitQuaternion(*np.reshape(U, (-1, 4)).T))
    return ImValue(*(Fraction(np.dot(_weights(p, q), y), L * L) for y in Y))


def _imaginary_form(x, y):
    """Polarisation of the square norm on imaginary (i, j, k) triples."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _sandwich(h: SplitQuaternion):
    """conj(h) j h as an (i, j, k) triple; its square norm is -|h|^4."""
    a, b, c, d = h.coefficients()
    return (-2 * (a * d + b * c), a * a - b * b - c * c + d * d,
            -2 * (a * b + c * d))


def _sandwich_i(h: SplitQuaternion):
    """conj(h) i h as an (i, j, k) triple; its i-component is the Euclidean
    square norm a^2 + b^2 + c^2 + d^2 of h = a + b i + c j + d k."""
    a, b, c, d = h.coefficients()
    return (a * a + b * b + c * c + d * d, 2 * (b * c - a * d),
            2 * (a * c + b * d))


def _norm_factor(r: Fraction, unit: SplitQuaternion) -> SplitQuaternion:
    """x + y unit of square norm x^2 - y^2 = r, for a unit squaring to +1:
    x + y = t and x - y = r / t with t = 2^k, k the integer nearest
    log2|r| / 2 (ties to even), which keeps the coordinates small.  k comes
    from e = floor(log2|r|), the difference of the bit lengths of the
    numerator and the denominator of |r|, less one when |r| < 2^e: it is
    (e + 1) // 2, less one at a tie |r| = 2^e with e = 1 mod 4."""
    a = abs(r)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    e -= a < Fraction(2) ** e
    tie = e % 4 == 1 and a == Fraction(2) ** e
    t = Fraction(2) ** ((e + 1) // 2 - tie)
    return SplitQuaternion((t + r / t) / 2) + unit.scale((t - r / t) / 2)


def weighted_level_sample(rng, p: int, q: int) -> SpherePoint:
    """Generic exact rational point of the zero level set.

    With weights c = (q, p, p) and Y(h) = conj(h) j h, draw small integer
    entries u0, u1 off the null cone.  The conic s^2 = -|W|^2 in the
    plane (m, s), W = c0 Y(u0) + m c1 Y(u1), has the rational point
    (0, c0 |u0|^2); the line of a random rational slope through it meets
    the conic again at (m, s).  Left multiplication by x + y j (which
    commutes with j) scales Y by x^2 - y^2, so u1 is scaled to m.  Then
    X = -W / s has |X|^2 = -1, and u2 with u2 X = j u2 gives
    Y(u2) = |u2|^2 X.  Both j + X and i (X - j) solve that equation, with
    square norms -2(1 + X_j) and -2(1 - X_j); u2 is the first if X_j >= 0,
    else the second, so |u2|^2 <= -2.  Scaled by x + y j to
    |u2|^2 = nu = s / c2, it has c2 Y(u2) = -W, and the level value is 0.
    Right multiplication of every entry by x + y k of square norm
    1 / sum |u_v|^2 moves the point to the sphere and conjugates the level
    value, which stays 0.  Only degenerate draws and non-regular points
    are redrawn: m = 0, s = 0, a zero sum of norms, and a conic that
    splits into two lines (<Y0, Y1>^2 = |Y0|^2 |Y1|^2), whose second line
    carries only points with sum c_v |u_v|^2 = 0, where rho = -p/q.
    """
    c0, c1, c2 = _weights(p, q)
    while True:
        u0, u1 = (SplitQuaternion(*(rng.randint(-3, 3) for _ in range(4)))
                  for _ in range(2))
        n0, n1 = u0.square_norm(), u1.square_norm()
        if n0 == 0 or n1 == 0:
            continue
        Y0 = tuple(c0 * x for x in _sandwich(u0))
        Y1 = tuple(c1 * x for x in _sandwich(u1))
        s0, cross = c0 * n0, _imaginary_form(Y0, Y1)
        if cross * cross == (s0 * c1 * n1) ** 2:
            # the conic is a pair of lines
            continue
        slope = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        den = slope * slope + _imaginary_form(Y1, Y1)
        if den == 0:
            continue
        m = -2 * (cross + s0 * slope) / den
        s = s0 + slope * m
        if m == 0 or s == 0:
            continue
        nu = s / c2
        X = SplitQuaternion(0, *(-(y0 + m * y1) / s for y0, y1 in zip(Y0, Y1)))
        u2 = J + X if X.c >= 0 else I * (X - J)
        total = n0 + m * n1 + nu
        regularity = c0 * c0 * n0 + c1 * c1 * m * n1 + c2 * c2 * nu
        if total == 0 or regularity == 0:
            continue
        # the entries f_v u_v unit, with the j-factors f = (1, f1, f2), as
        # one batch product on scaled integers: Fraction products would
        # each take a gcd
        (F, dF), (U, dU), (W, dW) = (
            exactla.scaled_integers(np.array([h.coefficients() for h in hs],
                                             dtype=object).T)
            for hs in ((SplitQuaternion(1), _norm_factor(m, J),
                        _norm_factor(nu / u2.square_norm(), J)),
                       (u0, u1, u2), (_norm_factor(1 / total, K),)))
        x = SplitQuaternion(*F) * SplitQuaternion(*U) * SplitQuaternion(*W)
        return SpherePoint(PQVector.from_scaled_integers(
            np.stack(x.coefficients(), axis=1).reshape(-1), dF * dU * dW))


def _level_gradient_rows(p: int, q: int, x) -> np.ndarray:
    """Differential of the three imaginary components of the level value
    at the point with real coordinates x:
    d mu(T) = sum c_v (conj(T_v) j u_v + conj(u_v) j T_v)
            = sum c_v 2 Im(conj(u_v) j T_v),
    so block v holds 2 c_v times the imaginary rows of left
    multiplication by conj(u_v) j; on the scalar type of x, and linear
    in x."""
    return np.concatenate(
        [2 * c * left_mult_matrix(SplitQuaternion(*h).conj() * J)[1:]
         for c, h in zip(_weights(p, q), np.reshape(x, (-1, 4)))], axis=1)


# -- independent moment route through the isotropy decomposition ------------


def _generator_action(p: int, q: int, X) -> np.ndarray:
    """Real coordinates of D x = (q j x0, p j x1, p j x2), the action
    generator, on axis 0 of X and on its dtype: left multiplication by j
    maps the coordinates (a, b, c, d) to (c, -d, a, -b), so D is the
    weights times a signed row permutation."""
    signs = np.array([c * e for c in _weights(p, q) for e in (1, -1, 1, -1)],
                     dtype=object)
    out = np.asarray(X)[[4 * v + r for v in range(3) for r in (2, 3, 0, 1)]]
    return (out.T * signs).T.astype(out.dtype)


def isotropy_moment_traces(p: int, q: int, u: SpherePoint):
    """The three structure traces of the transported isotropy action.

    Conjugating the action generator by a group element sending the base
    point to u, the block-diagonal part (s, B) acts on the tangent
    summand as v -> B v + v conj(s); the moment value at the projective
    point of u is proportional to the triple Tr(J_a L).  Its zero set is
    the level set, which is what the cross-check consumes.

    The conjugated generator eta is formed from real actions: the real
    action is an algebra homomorphism, so that of eta is the product of
    the real actions of the three factors.  With A / LA the real action of
    the group element, integer from its Gram-Schmidt
    (projspace.transitive_action), that of its conjugate transpose is
    G A^T G / LA (L(conj q) = G L(q)^T G entrywise, G the neutral
    metric), so E = G A^T G D A is eta over LA^2, on integers; D is
    _generator_action.  s is the first column of the top-left 4 x 4 block of
    E (the left multiplication by s), B acts through its lower-right
    8 x 8 block, and only these blocks are formed; J_a L is the signed
    row permutation of right_unit_action, so the traces are sums of
    integers.
    """
    A, LA = transitive_action(u)
    DA = _generator_action(p, q, A)
    GAG = apply_metric(apply_metric(A).T)
    L = GAG[4:] @ DA[:, 4:]
    rconj = right_mult_matrix(SplitQuaternion(*(GAG[:4] @ DA[:, 0])).conj())
    for v in range(2):
        L[4 * v:4 * v + 4, 4 * v:4 * v + 4] += rconj
    return tuple(Fraction(np.trace(right_unit_action(L, a)), LA * LA)
                 for a in range(3))


# -- covariant derivative of the Killing field on the sphere model ----------


def _killing_derivative_integers(p: int, q: int, U: np.ndarray, L: int,
                                 X: np.ndarray) -> np.ndarray:
    """L^2 times the ambient-model covariant derivative V_X of the quotient
    Killing field at u = U / L along X, for integer arrays U and X: an
    integer array.

    The horizontal part of the Killing field extends off the point as
    Vh(x) = D x - sum_ab Ginv[a,b] <D x, x e_b> x e_a with the constant
    fiber Gram inverse Ginv = diag(1, -1, -1); its derivative along X is
    D X - sum_ab Ginv[a,b] (<D X, x e_b> + <D x, X e_b>) x e_a
    - sum_ab Ginv[a,b] <D x, x e_b> X e_a, quadratic in x (its terms have
    degree 0, 2 and 2), so L^2 times it is formed at U.

    It is horizontal already at the inputs of reduced_jacobi, a point of
    the zero level set on the sphere and X orthogonal to the Killing span
    (V, J1 V, J2 V, J3 V), so no projection follows.  <Vh(x), x> = 0 for
    every x (D is skew, and x e_a is orthogonal to x), so its derivative
    gives <V_X, u> = -<V, X> = 0.  <Vh(x), x e_c> = (1 - |x|^2)
    <D x, x e_c>, whose derivative at u is 0 (|u|^2 = 1 and
    <V, u e_c> = 0 on the zero level set), so
    <V_X, u e_c> = -<V, X e_c> = +-<J_c V, X> = 0."""
    DX = _generator_action(p, q, X)
    DU = _generator_action(p, q, U)
    vert_u = vertical_frame(U)
    vert_X = vertical_frame(X)
    coef_a = vert_u.T @ apply_metric(DX) + vert_X.T @ apply_metric(DU)
    coef_b = vert_u.T @ apply_metric(DU)
    # the fiber Gram diag(1, -1, -1) is its own inverse
    coef_a[1:], coef_b[1:] = -coef_a[1:], -coef_b[1:]
    return L * L * DX - vert_u @ coef_a - vert_X @ coef_b


@dataclass
class ReducedJacobi:
    eigenvalues: tuple
    ratio: Fraction
    killing_norm: Fraction
    einstein_constant: Fraction


@functools.cache
def _ambient_constant() -> Fraction:
    """Einstein constant of the ambient projective model (n = 2), built
    once per process."""
    return einstein_check(ambient_projective_curvature(2))[0]


def reduced_jacobi(p: int, q: int, u: SpherePoint,
                   X: np.ndarray) -> ReducedJacobi:
    """Eigenvalue data (l1, l2, l3, ratio) of the reduced Jacobi operator.

    u must lie on the zero level set (DegenerateLevelSetError otherwise).
    There the Killing field V is horizontal: g(V, x) = 0 on the sphere,
    and the g(V, x e_a) are the components of the level value up to
    sign; and g(V, V) = -sum c_v^2 |u_v|^2 is minus the regularity value.
    X must be horizontal (orthogonal to x and to the x e_a) and orthogonal
    to the span (V, J1 V, J2 V, J3 V) with g(X, X) != 0 (ValueError
    otherwise); the ratio is normalised by g(X, X), which makes it scale
    invariant and uniform across causal classes.  The eigenvalues are read
    off the reduced scalar curvature nu of the ambient model.

    The chain runs on scaled integers: u = U / L, and X is replaced by its
    integer multiple, which leaves the ratio unchanged.  The span of D U
    is L times the Killing span, with the Gram matrix VV s, where
    VV = L^2 g(V, V) and s = diag(1, 1, -1, -1); P = L^2 V_X (times the
    scale of X), and H = VV P - span s (span^T g P) is VV P times the part
    h(V_X) of V_X orthogonal to the span, so
    rho = H^T g H / (VV^3 L^2 g(X, X)) with g(X, X) of the integer X.
    Every guard is an exact comparison with 0; TypeError on an entry of X
    that is not an int or a Fraction.
    """
    U, L = u.x.scaled
    XN, _ = exactla.scaled_integers(X)
    span = _killing_span(_generator_action(p, q, U))
    g_span = apply_metric(span)
    VV = span[:, 0] @ g_span[:, 0]
    if VV == 0:
        raise NonRegularError("point fails the regularity condition")
    vert_u = vertical_frame(U)
    if (vert_u.T @ g_span[:, 0]).any():
        off = weighted_level_value(p, q, u).max_abs()
        raise DegenerateLevelSetError(f"point off the zero level set by {off}")
    xnorm = XN @ apply_metric(XN)
    if xnorm == 0:
        raise NullDirectionError("direction is null")
    gX = apply_metric(XN)
    if U @ gX != 0 or (vert_u.T @ gX).any():
        raise ValueError("direction not horizontal")
    if (span.T @ gX).any():
        raise ValueError("direction not orthogonal to the Killing span")
    P = _killing_derivative_integers(p, q, U, L, XN)
    H = VV * P - span @ apply_metric(g_span.T @ P)
    ratio = Fraction(H @ apply_metric(H), VV ** 3 * L * L * xnorm)
    const = _ambient_constant()
    nu = const / 4   # reduced scalar curvature, const / (n + 2) at n = 2
    lam1 = -(nu - 2 * ratio)
    lam3 = -(nu + 4 * ratio)
    return ReducedJacobi(eigenvalues=(lam1, lam1, lam3), ratio=ratio,
                         killing_norm=Fraction(VV, L * L),
                         einstein_constant=const)


def _killing_span(V: np.ndarray) -> np.ndarray:
    """Columns V, J1 V, J2 V, J3 V, on the dtype of V."""
    return np.stack([V] + [right_unit_action(V, a) for a in range(3)],
                    axis=1)


def admissible_directions(p: int, q: int, u: SpherePoint, rng,
                          count: int) -> list[np.ndarray]:
    """Seeded horizontal directions orthogonal to the Killing span, with
    g(X, X) != 0, as integer vectors: integer combinations of the integer
    kernel basis N, which spans the admissible space (reduced_jacobi is
    invariant under scaling X).  u lies on the zero level set, where the
    Killing field is horizontal (reduced_jacobi).  The kernel is that of
    the integer coordinates U of u, which spans the same space."""
    U, _ = u.x.scaled
    basis, _, _ = exactla.nullspace(apply_metric(
        np.concatenate([U.reshape(-1, 1), vertical_frame(U),
                        _killing_span(_generator_action(p, q, U))],
                       axis=1)).T)
    out = []
    while len(out) < count:
        X = basis @ np.array([rng.randint(-4, 4)
                              for _ in range(basis.shape[1])], dtype=object)
        if X @ apply_metric(X) != 0:
            out.append(X)
    return out


def weighted_level_sample_float(rng, p: int, q: int) -> np.ndarray:
    """The float image of weighted_level_sample(rng, p, q): the same draws,
    the interleaved real coordinates C / L rounded to float64 (true
    division of Python ints rounds correctly)."""
    C, L = weighted_level_sample(rng, p, q).x.scaled
    return np.array([c / L for c in C], dtype=float)


# ---------------------------------------------------------------------------
# scenes, checks, reports
# ---------------------------------------------------------------------------


@dataclass
class ReductionScene:
    """One configured reduction run: action data, seed, sampled points
    with derived quantities; the level value follows from the action."""

    action: str                      # "flat-s1" or "pq"
    rank: int = 3
    p: int | None = None
    q: int | None = None
    seed: int = 0
    points: list = field(default_factory=list)
    derived: list = field(default_factory=list)

    @property
    def xi(self) -> tuple:
        return LEVELS[self.action]

    def manifest(self) -> dict:
        return {
            "action": self.action, "rank": self.rank,
            "p": self.p, "q": self.q,
            "xi": [str(x) for x in self.xi],
            "seed": self.seed,
        }


def build_flat_scene(rank: int = 3, seed: int = 0,
                     samples: int = 10) -> ReductionScene:
    rng = random.Random(seed)
    scene = ReductionScene(action="flat-s1", rank=rank, seed=seed)
    for _ in range(samples):
        h = flat_level_sample(rng, rank)
        scene.points.append(h)
        red = flat_reduced_structure(h)
        qa, qb = flat_quotient_residuals(h)
        scene.derived.append({
            "comrel_residual": red.comrel_residual,
            "skew_residual": red.skew_residual,
            "signature": red.signature,
            "quotient_residuals": (qa, qb),
        })
    return scene


def build_pq_scene(p: int = 1, q: int = 2, seed: int = 0,
                   samples: int = 10, directions: int = 5) -> ReductionScene:
    """Sample generic exact points of the zero level set
    (weighted_level_sample) and attach reduced Jacobi data per point."""
    _weights(p, q)
    rng = random.Random(seed)
    scene = ReductionScene(action="pq", rank=3, p=p, q=q, seed=seed)
    for _ in range(samples):
        u = weighted_level_sample(rng, p, q)
        scene.points.append(u)
        dirs = admissible_directions(p, q, u, rng, directions)
        data = [reduced_jacobi(p, q, u, X) for X in dirs]
        scene.derived.append({
            "ratios": [d.ratio for d in data],
            "eigenvalues": [d.eigenvalues for d in data],
            "killing_norm": data[0].killing_norm if data else None,
        })
    return scene


def flat_moment_gradient_check(rank: int, samples: int, rng) -> Fraction:
    """Max |(fhat_a(h + X) - fhat_a(h - X)) / 2 - g(J_a V(h), X)| over
    seeded rational h = A / D, X = B / D (A, B integer vectors); exactly 0,
    because fhat is quadratic.  Both terms are homogeneous of degree 2,
    so they are formed at (A, B) on integers and divided by D^2; with the
    doubled moment 2 fhat of flat_adapted_moment the residual of a
    component is |scale (fp - fm) - 4 pairing| / (4 scale D^2), fp and fm
    the doubled moments at A + B and A - B.

    The samples are one batch: the rows of A and B are one
    random_integers block and the D another, and the moments and the
    Killing field take the batch at once, on int64: the entries of A +- B
    are at most 40, so every component of the doubled moment is at most
    4 rank 40^2 and every pairing at most 4 rank 20^2, exact below 2^63
    at any rank a module can have here."""
    J, scale = structure_endos(rank).scaled_J
    omega = np.stack([apply_metric(Ja).T for Ja in J]).astype(np.int64)
    A, B = random_integers(rng, (2, samples, 4 * rank), -20, 20, np.int64)
    den = random_integers(rng, (samples,), 1, 8)
    fp = np.stack(flat_adapted_moment(A + B))
    fm = np.stack(flat_adapted_moment(A - B))
    K = flat_killing(A)
    pairing = np.stack([((K @ w) * B).sum(axis=-1) for w in omega])
    # 4 scale D^2 times the residual of each component and sample, read
    # off as Python ints: an int64 abs and max would touch numpy loops
    # that no other check of the suite runs, and add their code pages to
    # the resident memory
    defect = scale * (fp - fm) - 4 * pairing
    return max((Fraction(abs(x), 4 * scale * d * d)
                for column, d in zip(defect.T.tolist(), den)
                for x in column if x), default=Fraction(0))


def pq_zero_set_check(p: int, q: int, samples: int, rng) -> int:
    """Number of samples at which the level function and the isotropy
    traces disagree on vanishing; samples alternate between exact level
    points and random exact sphere points (off the level set)."""
    disagreements = 0
    for k in range(samples):
        if k % 2 == 0:
            u = weighted_level_sample(rng, p, q)
        else:
            u = random_sphere_point(rng, 3)
        level_zero = weighted_level_value(p, q, u).is_zero()
        trace_zero = all(t == 0 for t in isotropy_moment_traces(p, q, u))
        disagreements += level_zero != trace_zero
    return disagreements


def _normal_residual(frame: np.ndarray, killing: np.ndarray) -> int:
    """Max |g(J_a V, T)| over the columns T of an integer frame and the
    three J_a V, from the integer real coordinates of V: 0 exactly when
    the J_a V are normal to the span of the frame."""
    return exactla.max_abs(
        frame.T @ apply_metric(_killing_span(killing)[:, 1:]))


def flat_orthogonality_check(rank: int, samples: int, rng) -> int:
    """Max |<J_a V, T>| over tangents T of the flat level set: the images
    of the Killing field under the structure triple are normal to it.  At
    the integer coordinates U of each point: the kernel of the gradient
    rows at U is the tangent space, the Killing field at U is a multiple
    of the one at the point, and T runs over the integer kernel basis."""
    worst = 0
    for _ in range(samples):
        U, _ = flat_level_sample(rng, rank).scaled
        frame, _, _ = exactla.nullspace(_moment_gradient_rows(U))
        worst = max(worst, _normal_residual(frame, flat_killing(U)))
    return worst


def pq_orthogonality_check(p: int, q: int, samples: int, rng) -> int:
    """Max |<J_a V, T>| over tangents T of the weighted level set inside
    the sphere, with V the Killing field (horizontal on the level set); on
    integers as in flat_orthogonality_check."""
    worst = 0
    for _ in range(samples):
        U, _ = weighted_level_sample(rng, p, q).x.scaled
        rows = _level_gradient_rows(p, q, U)
        frame, _, _ = exactla.nullspace(
            np.concatenate([rows, apply_metric(U).reshape(1, -1)]))
        worst = max(worst, _normal_residual(frame, _generator_action(p, q, U)))
    return worst


def empty_levelset_check(p: int, q: int, samples: int, rng) -> int:
    """Negative control: the variant action through the definite axis
    (cos t + i sin t factors) has i-component q|u0|_E^2 + p|u1|_E^2 +
    p|u2|_E^2 >= min(p, q) (|u0|_E^2 + |u1|_E^2 + |u2|_E^2) >= min(p, q) > 0
    on the sphere, so its moment zero set there is empty.  Returns the
    number of exact sphere points that miss this: off the sphere, or with
    an i-component below min(p, q); 0 by the inequality.

    Each point is X / L with X = L o - 2 <o, d> d, the reflection of the
    base point o in an integer direction d with L = <d, d>; d is redrawn
    when L = 0 or <o, d> = 0.  The checks <X, X> = L^2 and
    i-component(X) >= min(p, q) L^2 (the value at X is L^2 times the value
    at X / L) are made on integers, the i-components of the conj(X_v) i
    X_v in the closed form of _sandwich_i, on the whole (12, m) batch.

    Every round draws as many directions as points are still missing, up
    to _LEVEL_BLOCK, as one random_integers block, and evaluates it on
    int64: |d| <= 3 gives |L| <= 54, |X| <= 72 and an i-component
    (a sum of four squares of entries of X) <= 20,736, far below 2^63.
    The weights stay Python ints: when 3 * 20,736 max(p, q) could pass
    2^63 the weighted sum and its bound are formed on Python ints, so any
    weights stay exact.  The cap bounds the arrays live at once: one
    round of all 10,000 points as Python ints raised the peak memory of
    `pqgeom --suite all` by 5.8 MB."""
    ws = _weights(p, q)
    failures = 0
    while samples > 0:
        m = min(samples, _LEVEL_BLOCK)
        d = random_integers(rng, (m, 12), -3, 3, np.int64).T
        L = (d * apply_metric(d)).sum(axis=0)
        keep = (L != 0) & (d[0] != 0)
        d, L = d[:, keep], L[keep]
        X = -2 * d[0] * d
        X[0] += L
        on_sphere = (X * apply_metric(X)).sum(axis=0) == L * L
        # the entries X_v as one split quaternion with (3, m) coefficients
        value = _sandwich_i(SplitQuaternion(*X.reshape(3, 4, -1)
                                            .swapaxes(0, 1)))[0]
        if 3 * _I_COMPONENT_BOUND * max(ws) >= 2 ** 63:
            value, L = value.astype(object), L.astype(object)
        failures += int(np.count_nonzero(
            ~on_sphere | (sum(c * v for c, v in zip(ws, value))
                          < min(ws) * L * L)))
        samples -= len(L)
    return failures
