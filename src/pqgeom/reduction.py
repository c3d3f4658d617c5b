"""Moment-map reductions at desk scale.

Two reductions are implemented.

Flat circle reduction: the flat module of rank r carries the standard
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

Weighted hyperbolic reduction: on the rank-3 sphere model the group
e^{jt} = cosh t + j sinh t acts through the weights (q, p, p) with
p, q coprime and distinct.  The level function

    mu(u) = q conj(u0) j u0 + p conj(u1) j u1 + p conj(u2) j u2

takes imaginary values, is invariant under the action, and transforms
by conjugation under fiber translations, so its zero set descends to
the quotient.  The independent cross-check computes the moment value
through the isotropy decomposition at the base point (the covariant
derivative of a Killing field at the base point of a symmetric space
is the adjoint action of the isotropy component) transported by group
elements, and compares values, not only zero sets: the traces are
Tr(J_a L) = c_a mu_a with c = (-8, 8, 8) at every sphere point, on the
level set and off it.

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
of a conic, then a solved last entry; see its docstring), on integers,
so the ratio rho differs from point to point; on the sphere V is
horizontal at every point of the zero level set, so the reduced-Jacobi
routines read V directly.  Every redraw loop of the samplers gives up
after REDRAW_LIMIT rejections in a row (``linalg.RedrawLimitError``), so
a degenerate sampler fails a check instead of hanging the suite.

Arithmetic.  Everything is exact but one route: the rounded image of the
exact level points (``weighted_level_sample_float``, float64 real
coordinates), which the benchmark in perfbench/ traces by name and no
routine of the package calls.  A point is a ``linalg.PQVector`` (the
flat reduction) or a ``projspace.SpherePoint`` (the weighted
reduction), held as integer coordinates U over a scale L, and every
routine reads that pair: the moment maps and the level value are
quadratic, so they are formed at U and compared with L^2 times the
level; the flat moment, its gradient rows and the flat Killing field
take real coordinates, on any scalar type, and the moments and the
Killing field a leading batch axis, on which
``flat_moment_gradient_check`` evaluates all its samples at once, on
int64 (the doubled adapted moment is integer there).
``flat_level_sample`` and ``weighted_level_sample`` build their points on
integers.  The weighted level value, the action generator
(``_generator_action``) and the isotropy traces take a leading sample
axis too: ``pq_zero_set_check`` stacks its points in blocks of
_TRACE_BLOCK and evaluates each block once, the transitive elements by
the one stacked Gram-Schmidt of ``projspace``.  The definite-axis
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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import exactla
from .algebra import I, J, K, SplitQuaternion
from .curvature import (NullDirectionError, ambient_projective_curvature,
                        einstein_check)
from .linalg import (REDRAW_LIMIT, HermitianStructure, PQVector,
                     RedrawLimitError, apply_metric, left_mult_matrix,
                     random_integers, right_mult_matrix, right_unit_action,
                     structure_endos)
from .projspace import (SpherePoint, _stack, frame_structure,
                        random_sphere_point, transitive_action,
                        vertical_frame)


class DegenerateLevelSetError(ValueError):
    """Constraint differentials lost rank at a sampled point."""


class NullOrbitError(ValueError):
    """The orbit direction is null at the sampled point."""


class NonRegularError(ValueError):
    """The sampled point fails the regularity condition."""


# the level value xi of the flat reduction
FLAT_LEVEL = (Fraction(-1), Fraction(0), Fraction(0))

# most directions per round of the definite-axis control
# (empty_levelset_check), and the largest i-component of its points
_LEVEL_BLOCK = 256
_I_COMPONENT_BOUND = 4 * 72 ** 2

# points per stack of the zero-set cross-check
_TRACE_BLOCK = 10


# ---------------------------------------------------------------------------
# flat circle reduction
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
    for _ in range(REDRAW_LIMIT):
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
    raise RedrawLimitError("flat_level_sample: every draw degenerate")


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
# weighted hyperbolic reduction on the rank-3 sphere model
# ---------------------------------------------------------------------------


def _weights(p: int, q: int):
    if p == q or p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError("weights must be distinct coprime naturals")
    return (q, p, p)


def weighted_level_value(p: int, q: int, U) -> np.ndarray:
    """The imaginary value q conj(u0) j u0 + p conj(u1) j u1 +
    p conj(u2) j u2 as its (i, j, k) coefficients (last axis), at the
    integer real coordinates U of points u = U / L (last axis of 12,
    leading axes a stack), as Python ints.  The value is quadratic, so
    the result is L^2 times the value at u.  By the closed form
    conj(h) j h = (0, -2(ad + bc), a^2 - b^2 - c^2 + d^2, -2(ab + cd)) of
    h = a + b i + c j + d k, on the three entries as one batch."""
    Y = _sandwich(SplitQuaternion(*_entry_coefficients(U)))
    return np.stack([y @ np.array(_weights(p, q), dtype=object) for y in Y],
                    axis=-1, dtype=object)


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


def _norm_factor(P: int, Q: int, unit: SplitQuaternion):
    """(h, LH): h / LH = x + y unit of square norm x^2 - y^2 = r = P / Q
    (Q != 0), for a unit squaring to +1, with h an integer split
    quaternion: x + y = t and x - y = r / t with t = 2^k, k the integer
    nearest log2|r| / 2 (ties to even), which keeps the coordinates small.
    k comes from e = floor(log2|r|), the difference of the bit lengths of
    |P| and |Q|, less one when |r| < 2^e: it is (e + 1) // 2, less one at
    a tie |r| = 2^e with e = 1 mod 4.  With t = T1 / T2 (powers of two),
    x and y are (T1^2 Q +- P T2^2) / (2 T1 T2 Q)."""
    if Q < 0:
        P, Q = -P, -Q
    # |r| against 2^e as |P| 2^-e against Q, both sides integers
    e = abs(P).bit_length() - Q.bit_length()
    e -= abs(P) << max(-e, 0) < Q << max(e, 0)
    tie = e % 4 == 1 and abs(P) << max(-e, 0) == Q << max(e, 0)
    k = (e + 1) // 2 - tie
    T1, T2 = 1 << max(k, 0), 1 << max(-k, 0)
    return (SplitQuaternion(T1 * T1 * Q + P * T2 * T2)
            + unit.scale(T1 * T1 * Q - P * T2 * T2)), 2 * T1 * T2 * Q


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
    carries only points with sum c_v |u_v|^2 = 0, where rho = -p/q;
    RedrawLimitError after REDRAW_LIMIT of them in a row.

    On integers: with the slope a / b, m = M / D and s = S / D over
    D = a^2 + b^2 |Y1|^2 = a^2 - (b c1 |u1|^2)^2, X = Xn / S, u2 is an
    integer quaternion over S, and every ratio handed to _norm_factor is
    a pair of integers.  The
    entries f_v u_v w (f = (1, f1, f2) the j-factors, w the k-factor) are
    brought to their common scale, and the point is reduced by its gcd.
    """
    c0, c1, c2 = _weights(p, q)
    for _ in range(REDRAW_LIMIT):
        u0, u1 = (SplitQuaternion(*(rng.randint(-3, 3) for _ in range(4)))
                  for _ in range(2))
        n0, n1 = u0.square_norm(), u1.square_norm()
        if n0 == 0 or n1 == 0:
            continue
        Y0, Y1 = (tuple(c * x for x in _sandwich(h))
                  for c, h in ((c0, u0), (c1, u1)))
        # <Y0, Y1> in the square norm of imaginary triples; that of Y1 is
        # -c1^2 |u1|^4
        s0, cross = c0 * n0, Y0[0] * Y1[0] - Y0[1] * Y1[1] - Y0[2] * Y1[2]
        if cross * cross == (s0 * c1 * n1) ** 2:
            # the conic is a pair of lines
            continue
        a, b = rng.randint(-9, 9), rng.randint(1, 5)
        D = a * a - (b * c1 * n1) ** 2
        M, S = (-2 * b * (b * cross + a * s0),
                s0 * D - 2 * a * (b * cross + a * s0))
        if D == 0 or M == 0 or S == 0:
            continue
        X = SplitQuaternion(0, *(-(y0 * D + M * y1) for y0, y1 in zip(Y0, Y1)))
        u2 = J.scale(S) + X if X.c * S >= 0 else I * (X - J.scale(S))
        # the sum of norms and the regularity value, times c2 D and D
        total, regularity = (c2 * (D * n0 + M * n1) + S,
                             c0 * c0 * D * n0 + c1 * c1 * M * n1 + c2 * S)
        if total == 0 or regularity == 0:
            continue
        (f1, l1), (f2, l2), (w, lw) = (
            _norm_factor(M, D, J),
            _norm_factor(S ** 3, c2 * D * u2.square_norm(), J),
            _norm_factor(c2 * D, total, K))
        C = np.array([(u0 * w).scale(l1 * l2 * S).coefficients(),
                      (f1 * u1 * w).scale(l2 * S).coefficients(),
                      (f2 * u2 * w).scale(l1).coefficients()],
                     dtype=object).reshape(-1)
        L = l1 * l2 * S * lw
        g = gcd(*C, L) * (1 if L > 0 else -1)
        return SpherePoint(PQVector.from_scaled_integers(C // g, L // g))
    raise RedrawLimitError("weighted_level_sample: every draw degenerate")


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
    generator, on the last axis of X (leading axes a stack) and on its
    dtype: left multiplication by j maps the coordinates (a, b, c, d) to
    (c, -d, a, -b), so D is the weights times a signed permutation."""
    signs = np.array([c * e for c in _weights(p, q) for e in (1, -1, 1, -1)],
                     dtype=object)
    out = np.asarray(X)[..., [4 * v + r for v in range(3)
                              for r in (2, 3, 0, 1)]]
    return (out * signs).astype(out.dtype)


def isotropy_moment_traces(p: int, q: int, U, L):
    """The three structure traces of the transported isotropy action, at
    a stack of sphere points U[b] / L[b] (U of shape (B, 12), L of shape
    (B,), Python ints), as the pair (T, LT): the traces at point b are
    T[b] / LT[b], with T an integer array (B, 3).

    Conjugating the action generator by a group element sending the base
    point to u, the block-diagonal part (s, B) acts on the tangent
    summand as v -> B v + v conj(s); the moment value at the projective
    point of u is proportional to the triple Tr(J_a L), with the
    constants (-8, 8, 8) of pq_zero_set_check.

    The conjugated generator eta is formed from real actions: the real
    action is an algebra homomorphism, so that of eta is the product of
    the real actions of the three factors.  With A / LA the real action of
    the group element, integer from its Gram-Schmidt
    (projspace.transitive_action, on the whole stack), that of its
    conjugate transpose is G A^T G / LA (L(conj q) = G L(q)^T G entrywise,
    G the neutral metric, a sign per row), so E = G A^T G D A is eta over
    LA^2, on integers; D is _generator_action, applied to the columns of
    A.  s is the first column of the top-left 4 x 4 block of E (the left
    multiplication by s), B acts through its lower-right 8 x 8 block, and
    only these blocks are formed; J_a L is the signed row permutation of
    right_unit_action, so the traces are sums of integers.
    """
    A, LA = transitive_action(U, L)
    At, g = A.swapaxes(1, 2), apply_metric(np.ones(12, dtype=int))
    # (G D A)^T, D acting on the columns of A; then the blocks of E, with
    # the stack axis last, where the unit actions act on axis 0
    GDAt = _generator_action(p, q, At) * g
    E = (g[4:, None] * (At[:, 4:] @ GDAt[:, 4:].swapaxes(1, 2))).transpose(
        1, 2, 0)
    rconj = right_mult_matrix(SplitQuaternion(
        *(g[:4] * (At[:, :4] @ GDAt[:, 0, :, None])[..., 0]).T).conj())
    for v in range(2):
        E[4 * v:4 * v + 4, 4 * v:4 * v + 4] += rconj
    return (np.stack([np.trace(right_unit_action(E, a)) for a in range(3)],
                     axis=-1), LA * LA)


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
    VV = L^2 g(V, V) and s = diag(1, 1, -1, -1).  The Killing field is
    the linear field D x, so P = L^2 D X is L^2 V_X (times the scale of
    X): the derivative of its horizontal extension adds vertical terms
    with the coefficients g(u e_a, D u), the level value, and
    g(u e_a, D X) + g(X e_a, D u) = 2 g(u e_a, D X) = -2 g(V e_a, X), as D
    is g-skew and commutes with right multiplication; both are 0 at the
    inputs accepted here.  H = VV P - span s (span^T g P) is VV P times
    the part h(V_X) of V_X orthogonal to the span, so
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
        off = Fraction(exactla.max_abs(weighted_level_value(p, q, U)), L * L)
        raise DegenerateLevelSetError(f"point off the zero level set by {off}")
    xnorm = XN @ apply_metric(XN)
    if xnorm == 0:
        raise NullDirectionError("direction is null")
    gX = apply_metric(XN)
    if U @ gX != 0 or (vert_u.T @ gX).any():
        raise ValueError("direction not horizontal")
    if (span.T @ gX).any():
        raise ValueError("direction not orthogonal to the Killing span")
    P = L * L * _generator_action(p, q, XN)
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
    the integer coordinates U of u, which spans the same space.  At most
    REDRAW_LIMIT draws per direction (RedrawLimitError)."""
    U, _ = u.x.scaled
    basis, _, _ = exactla.nullspace(apply_metric(
        np.concatenate([U.reshape(-1, 1), vertical_frame(U),
                        _killing_span(_generator_action(p, q, U))],
                       axis=1)).T)
    out = []
    for _ in range(REDRAW_LIMIT * count):
        X = basis @ np.array([rng.randint(-4, 4)
                              for _ in range(basis.shape[1])], dtype=object)
        if X @ apply_metric(X) != 0:
            out.append(X)
        if len(out) == count:
            return out
    raise RedrawLimitError("admissible_directions: too many null draws")


def weighted_level_sample_float(rng, p: int, q: int) -> np.ndarray:
    """The float image of weighted_level_sample(rng, p, q): the same draws,
    the interleaved real coordinates C / L rounded to float64 (true
    division of Python ints rounds correctly)."""
    C, L = weighted_level_sample(rng, p, q).x.scaled
    return np.array([c / L for c in C], dtype=float)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


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
    # off as Python ints by stack_max_abs: an int64 abs would touch numpy
    # loops that no other check of the suite runs, and add their code
    # pages to the resident memory
    defect = scale * (fp - fm) - 4 * pairing
    return exactla.stack_max_abs(defect.T, 4 * scale * den * den)


def pq_zero_set_check(p: int, q: int, samples: int, rng) -> Fraction:
    """Max |T_a - c_a mu_a| over the samples, with T_a = Tr(J_a L) the
    isotropy traces, mu the level value and c = (-8, 8, 8): the two routes
    agree in value, not only in their zero sets, so the residual is 0
    exactly.  Samples alternate between exact level points and random
    exact sphere points (off the level set).

    They are drawn one at a time and evaluated in blocks of _TRACE_BLOCK,
    each block a stack of isotropy_moment_traces and weighted_level_value,
    on Python ints: at u = U / L with traces T / LT, the residual of a
    component is |T L^2 - c LT Y| / (LT L^2), Y the level value at U."""
    defects, scales = [], []
    for start in range(0, samples, _TRACE_BLOCK):
        U, L = _stack([
            weighted_level_sample(rng, p, q) if k % 2 == 0
            else random_sphere_point(rng, 3)
            for k in range(start, min(samples, start + _TRACE_BLOCK))])
        T, LT = isotropy_moment_traces(p, q, U, L)
        defects.append(T * (L * L)[:, None]
                       - np.array([-8, 8, 8], dtype=object) * LT[:, None]
                       * weighted_level_value(p, q, U))
        scales.append(LT * L * L)
    return exactla.stack_max_abs(np.concatenate(defects),
                                 np.concatenate(scales))


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
    `pqgeom --suite all` by 5.8 MB.  RedrawLimitError after REDRAW_LIMIT
    rounds in a row that keep no direction."""
    ws = _weights(p, q)
    failures = idle = 0
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
        idle = 0 if len(L) else idle + 1
        if idle == REDRAW_LIMIT:
            raise RedrawLimitError("empty_levelset_check: every direction "
                                   "null or tangent")
    return failures
