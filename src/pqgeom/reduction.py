"""Moment-map reductions at desk scale.

Two reductions are implemented, both by the moment map of a linear
Killing field.  For an imaginary unit e_a (a = 0, 1, 2 for i, j, k) and
weights w, the field V(x) = (w_v e_a x_v), left multiplication entrywise,
preserves the neutral metric and commutes with the structure triple
J_b x = x conj(e_b).  Its moment map is the imaginary value

    mu(x) = sum_v w_v conj(x_v) e_a x_v,

the hyperKahler moment map of Hitchin, Karlhede, Lindstrom and Rocek
(Comm. Math. Phys. 108, 1987), with the differential
d mu_b(X) = 2 eps_b g(J_b V, X), eps = (1, -1, -1).  One core serves both
reductions: ``_moment`` contracts the coordinates with the table
``_SANDWICH`` of the products conj(e_s) e_a e_t of the units, formed once
from SplitQuaternion products (never from the J_b or the left-action
matrices, so the checks that compare the two sides compare independent
routes).  Each reduction is a ``projspace.Quotient`` record, built once
by its cached constructor: ``moment_quotient(a, weights)`` holds the
Hessians of the moment, read off the same table, and the field, the
weights times left multiplication by e_a; ``weighted_quotient(p, q)``
stacks the rank-3 sphere of ``projspace.sphere_quotient`` with the
moment of j.  Every routine reads the records: ``orthogonality_check``
checks the Killing images of either record against its level set.

Flat circle reduction: e_a = i and every weight 1, on the flat module of
rank r with the standard para-hyperKahler structure; the circle e^{it}
acts by left multiplication.  In the complex coordinates h = z + j w
(entrywise, z = a + b i and w = c - d i for h = a + b i + c j + d k),
with z w the bilinear complex pairing, the classical components

    f(h) = ( -(|z|^2 + |w|^2), -Re(z w), -Im(z w) )

are a relabelling of the moment: sum_v conj(h_v) i h_v =
(-f1, -2 f3, -2 f2).  The level is fixed at FLAT_LEVEL, xi = (-1, 0, 0)
in the components f (the report's xi), the one level the exact sampler
implements; with this sign convention its level set is literally
{|z|^2 + |w|^2 = 1, z w = 0}, where the moment is (1, 0, 0).
flat_moment_gradient_check verifies the defining equation exactly: the
moment is quadratic, so (mu_b(h + X) - mu_b(h - X)) / 4 =
eps_b omega_b(V, X) holds with no remainder at rational h and X.

Weighted hyperbolic reduction: on the rank-3 sphere model the group
e^{jt} = cosh t + j sinh t acts through the weights (q, p, p) with
p, q coprime and distinct, so e_a = j.  The level function

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
routine reads that pair: the moment is quadratic, so it is formed at U
and compared with L^2 times the level.  The moment takes real
coordinates on any scalar type and keeps it (the table and the weights
are machine integers, so Python-int coordinates give Python ints and
int64 coordinates int64), with a leading batch axis; the records hold
Python ints, the rows and the fields at one point are ``rows @ U`` and
``generators @ U``, and a stack takes a generator through
``exactla.contract``, which keeps the dtype of the stack:
``flat_moment_gradient_check`` evaluates all its samples at once, on
int64 draws whose range bounds every sum; ``pq_zero_set_check`` stacks
its points in blocks of _TRACE_BLOCK and evaluates the moment and the
isotropy traces of each block once, the transitive elements by the one
stacked Gram-Schmidt of ``projspace``; the definite-axis control
``empty_levelset_check`` runs on blocks of integer sphere points whose
width ``exactla.words`` decides from the weights (int64 below 2^46),
and this module reads no dtype: ``moment_quotient`` casts the table to
Python ints with ``exactla.python_ints``.  ``flat_level_sample`` and
``weighted_level_sample`` build their points on integers.  The
reduced-Jacobi chain is on Python ints: ``admissible_directions``
returns integer vectors of the admissible space, ``reduced_jacobi``
scales a direction to integers once (its ratio is invariant under
scaling X), forms every pairing and product on Python ints, and forms
Fractions only for its results.  The quotient frames of both reductions
come from the one routine ``projspace.quotient_kernel`` of their
records, at the integer coordinates of the point (a row-scaled system
has the same kernel): ``flat_reduced_structure`` reads the
``projspace.quotient_frame`` of ``moment_quotient`` of i, and
``admissible_directions`` the kernel of ``weighted_quotient``.  The
frame is an integer kernel basis N / L of ``exactla.nullspace``, in
which a vector T / LT of the span has the coordinates T[free] / LT, so
the reduced metric and structure are read off on integers, with no
solve.
The tangent frames of ``orthogonality_check`` are such kernels of the
rows of a record alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import exactla
from .algebra import EPS, I, IMAGINARY_UNITS, J, K, UNITS, SplitQuaternion
from .curvature import (NullDirectionError, ambient_projective_curvature,
                        einstein_check)
from .linalg import (REDRAW_LIMIT, PQVector, RedrawLimitError,
                     apply_metric, left_structure_endos, random_integers,
                     right_mult_matrix, structure_endos, unit_action,
                     unit_frame)
from .projspace import (Quotient, SpherePoint, _stack, quotient_frame,
                        quotient_kernel, random_sphere_point,
                        sphere_quotient, transitive_action)


class DegenerateLevelSetError(ValueError):
    """Constraint differentials lost rank at a sampled point."""


class NullOrbitError(ValueError):
    """The orbit direction is null at the sampled point."""


class NonRegularError(ValueError):
    """The sampled point fails the regularity condition."""


# the level value xi of the flat reduction, in the components f of the
# module docstring (the report's xi)
FLAT_LEVEL = (Fraction(-1), Fraction(0), Fraction(0))

# most directions per round of the definite-axis control
# (empty_levelset_check)
_LEVEL_BLOCK = 256

# points per stack of the zero-set cross-check
_TRACE_BLOCK = 10


# ---------------------------------------------------------------------------
# the moment map of the linear Killing field x -> (w_v e_a x_v)
# ---------------------------------------------------------------------------


# _SANDWICH[a, s, t, b]: the coefficient of the imaginary unit e_b in
# conj(e_s) e_a e_t, for the imaginary unit e_a and the units e_s, e_t of
# (1, i, j, k); a and b index (i, j, k), and the real part is 0
_SANDWICH = np.array([[[(es.conj() * ea * et).coefficients()[1:]
                        for et in UNITS] for es in UNITS]
                      for ea in IMAGINARY_UNITS])


def _moment(a: int, weights, U) -> np.ndarray:
    """sum_v w_v conj(u_v) e_a u_v as its (i, j, k) coefficients (last
    axis of the result), at the real coordinates U of points u (last axis,
    4 per entry; leading axes a batch), on the scalar type of U: the
    moment of the generator of moment_quotient(a, weights).  At an entry
    with coordinates x, coefficient b is x^T _SANDWICH[a, :, :, b] x,
    contracted by two matmuls; the weights contract the entries.
    Quadratic, so at the integer coordinates U of u = U / L it is L^2
    times the value at u."""
    U = np.asarray(U)
    x = U.reshape(U.shape[:-1] + (U.shape[-1] // 4, 4))
    xT = (x @ _SANDWICH[a].reshape(4, 12)).reshape(x.shape + (3,))
    return np.asarray(weights) @ (x[..., None, :] @ xT)[..., 0, :]


@functools.cache
def moment_quotient(a: int, weights: tuple) -> Quotient:
    """The record of the moment of x -> (w_v e_a x_v): its three rows
    (i, j, k), the Hessians of _moment(a, weights, .), are block diagonal
    with the blocks w_v (T + T^T)[:, :, b], T = _SANDWICH[a], and its one
    generator is the weights times left multiplication by e_a, the
    member a of left_structure_endos.  Python ints; built once per
    (a, weights)."""
    T = exactla.python_ints(_SANDWICH[a])
    w = np.array(weights, dtype=object)
    return Quotient(
        np.stack([np.kron(np.diag(w), block)
                  for block in (T + T.swapaxes(0, 1)).transpose(2, 0, 1)]),
        (np.repeat(w, 4)[:, None]
         * left_structure_endos(len(w)).scaled_J[0][a])[None])


# ---------------------------------------------------------------------------
# flat circle reduction
# ---------------------------------------------------------------------------


def flat_level_defect(h: PQVector) -> int:
    """LU^2 times the largest deviation of the moment of h = U / LU from
    its value (-xi1, -2 xi3, -2 xi2) at FLAT_LEVEL: the moment is
    quadratic, so at U it is LU^2 times its value.  0 exactly on the
    level set."""
    U, LU = h.scaled
    xi1, xi2, xi3 = map(int, FLAT_LEVEL)
    return max(abs(m - LU * LU * x)
               for m, x in zip(_moment(0, (1,) * h.rank, U),
                               (-xi1, -2 * xi3, -2 * xi2)))


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


def flat_reduced_structure(h: PQVector):
    """(H, (N, L, free)): the metric and structure descended to the
    quotient tangent space at a level point, and its frame, from
    projspace.quotient_frame of moment_quotient(0, (1, ..., 1)), the
    moment rows and the Killing field V:
    the kernel of the constraint differentials, minus the orbit
    direction, with the structure restricted (the complement of the span
    (V, J1 V, J2 V, J3 V) is invariant, so no projection loss occurs).
    DegenerateLevelSetError off the level set, NullOrbitError where
    g(V, V) = 0.  The moment rows are g J_b V up to scale, so they then
    have full rank: were V q = 0 for an imaginary q != 0, every entry of
    V, and so V, would be null.

    All on the integer coordinates U of h = U / LU: the moment map is
    quadratic, so at U it is LU^2 times the level value; the gradient rows
    and the Killing field are linear, so their kernel (exactla.nullspace)
    is the one at h."""
    U, LU = h.scaled
    res = flat_level_defect(h)
    if res != 0:
        raise DegenerateLevelSetError(
            f"point off the level set by {Fraction(res, LU * LU)}")
    quotient = moment_quotient(0, (1,) * h.rank)
    V = quotient.generators[0] @ U
    if V @ apply_metric(V) == 0:
        raise NullOrbitError("orbit direction is null")
    return quotient_frame(quotient, U)


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


@functools.cache
def weighted_quotient(p: int, q: int) -> Quotient:
    """The record of the weighted reduction: the rank-3 sphere stacked
    with the moment of j at the weights (q, p, p), so the rows are g and
    the three moment rows, and the generators V, x i, x j and x k.  Built
    once per (p, q); ValueError from _weights."""
    sphere, moment = sphere_quotient(3), moment_quotient(1, _weights(p, q))
    return Quotient(np.concatenate([sphere.rows, moment.rows]),
                    np.concatenate([moment.generators, sphere.generators]))


def weighted_level_value(p: int, q: int, U) -> np.ndarray:
    """The imaginary value q conj(u0) j u0 + p conj(u1) j u1 +
    p conj(u2) j u2 as its (i, j, k) coefficients (last axis), at the
    integer real coordinates U of points u = U / L (last axis of 12,
    leading axes a stack), as Python ints: the moment of the unit j at the
    weights (q, p, p).  The value is quadratic, so the result is L^2 times
    the value at u."""
    return _moment(1, _weights(p, q), U)


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
        # c0 Y(u0) and c1 Y(u1), from one batch of two points of rank 1
        Y0, Y1 = (c * y for c, y in zip((c0, c1), _moment(1, (1,), np.array(
            [u0.coefficients(), u1.coefficients()], dtype=object))))
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


# -- independent moment route through the isotropy decomposition ------------


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
    LA^2, on integers; D is the first generator of weighted_quotient(p, q),
    the Killing field of j at the weights, applied to the columns of A by
    exactla.contract (a weighted signed permutation).  s is the first
    column of the top-left 4 x 4 block of E (the left multiplication by
    s), B acts through its lower-right 8 x 8 block, and only these blocks
    are formed;
    J_a L is the signed row permutation unit_action(L, a), so the
    traces are sums of integers.
    """
    A, LA = transitive_action(U, L)
    At, g = A.swapaxes(1, 2), apply_metric(np.ones(12, dtype=int))
    # (G D A)^T, D acting on the columns of A; then the blocks of E, with
    # the stack axis last, where the unit actions act on axis 0
    GDAt = exactla.contract(
        At, weighted_quotient(p, q).generators[0], 2) * g
    E = (g[4:, None] * (At[:, 4:] @ GDAt[:, 4:].swapaxes(1, 2))).transpose(
        1, 2, 0)
    rconj = right_mult_matrix(SplitQuaternion(
        *(g[:4] * (At[:, :4] @ GDAt[:, 0, :, None])[..., 0]).T).conj())
    for v in range(2):
        E[4 * v:4 * v + 4, 4 * v:4 * v + 4] += rconj
    return (np.stack([np.trace(unit_action(E, a))
                      for a in range(3)], axis=-1), LA * LA)


def _require_zero_level(p: int, q: int, U, L: int):
    """DegenerateLevelSetError unless the point U / L lies on the zero
    level set of the weights (p, q): the one level guard of
    reduced_jacobi and admissible_directions."""
    level = weighted_level_value(p, q, U)
    if level.any():
        off = Fraction(exactla.max_abs(level), L * L)
        raise DegenerateLevelSetError(f"point off the zero level set by {off}")


@dataclass
class ReducedJacobi:
    eigenvalues: tuple
    ratio: Fraction
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
    integer multiple, which leaves the ratio unchanged.  D is the first
    generator of weighted_quotient(p, q), and the span of D U (its right
    unit multiples) is L times the Killing span, with the Gram matrix
    VV s, where VV = L^2 g(V, V) and s = diag(1, 1, -1, -1).  The Killing
    field is the linear field D x, so P = L^2 D X is L^2 V_X (times the
    scale of X): the derivative of its horizontal extension adds vertical
    terms with the coefficients g(u e_a, D u), the level value, and
    g(u e_a, D X) + g(X e_a, D u) = 2 g(u e_a, D X) = -2 g(V e_a, X), as D
    is g-skew and commutes with right multiplication; both are 0 at the
    inputs accepted here.  H = VV P - span s (span^T g P) is VV P times
    the part h(V_X) of V_X orthogonal to the span, so
    rho = H^T g H / (VV^3 L^2 g(X, X)) with g(X, X) of the integer X.
    Horizontality reads the sphere row and the fiber fields of the same
    record.  Every guard is an exact comparison with 0; TypeError on an
    entry of X that is not an int or a Fraction.
    """
    U, L = u.x.scaled
    XN, _ = exactla.scaled_integers(X)
    Q = weighted_quotient(p, q)
    span = unit_frame(Q.generators[0] @ U)
    g_span = apply_metric(span)
    VV = span[:, 0] @ g_span[:, 0]
    if VV == 0:
        raise NonRegularError("point fails the regularity condition")
    _require_zero_level(p, q, U, L)
    xnorm = XN @ apply_metric(XN)
    if xnorm == 0:
        raise NullDirectionError("direction is null")
    gX = apply_metric(XN)
    # g(x, X) and g(x e_a, X): the sphere row and the fiber fields
    if Q.rows[0] @ U @ XN or (Q.generators[1:] @ U @ gX).any():
        raise ValueError("direction not horizontal")
    if (span.T @ gX).any():
        raise ValueError("direction not orthogonal to the Killing span")
    P = L * L * (Q.generators[0] @ XN)
    H = VV * P - span @ apply_metric(g_span.T @ P)
    ratio = Fraction(H @ apply_metric(H), VV ** 3 * L * L * xnorm)
    const = _ambient_constant()
    nu = const / 4   # reduced scalar curvature, const / (n + 2) at n = 2
    lam1 = -(nu - 2 * ratio)
    lam3 = -(nu + 4 * ratio)
    return ReducedJacobi(eigenvalues=(lam1, lam1, lam3), ratio=ratio,
                         einstein_constant=const)


def admissible_directions(p: int, q: int, u: SpherePoint, rng,
                          count: int) -> list[np.ndarray]:
    """Seeded horizontal directions orthogonal to the Killing span, with
    g(X, X) != 0, as integer vectors: integer combinations of the integer
    kernel basis N of projspace.quotient_kernel of weighted_quotient(p, q),
    which spans the admissible space (reduced_jacobi is invariant under
    scaling X).  Its rows are the sphere row g x and the moment rows of j,
    which are g J_b V up to scale, and its fields V, x i, x j, x k.  u
    must lie on the zero level set, where the Killing field is horizontal
    (reduced_jacobi): DegenerateOrbitError where the frame is dependent,
    then DegenerateLevelSetError off the level set, before any draw.  The
    kernel is that of the integer coordinates U of u, which spans the
    same space; the structure restricted to it is not formed.  At most
    REDRAW_LIMIT draws per direction (RedrawLimitError)."""
    U, L = u.x.scaled
    basis, _, _ = quotient_kernel(weighted_quotient(p, q), U)
    _require_zero_level(p, q, U, L)
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
    """Max |(mu_a(h + X) - mu_a(h - X)) / 4 - eps_a g(J_a V(h), X)| over
    seeded rational h = A / D, X = B / D (A, B integer vectors), mu the
    flat moment and V the flat Killing field; exactly 0, because mu is
    quadratic and d mu_a(X) = 2 eps_a g(J_a V, X).  Both terms are
    homogeneous of degree 2, so they are formed at (A, B) on integers and
    divided by D^2: the residual of a component is
    |scale (mp - mm) - 4 pairing| / (4 scale D^2), mp and mm the moments at
    A + B and A - B and pairing the eps_a g(J_a V(A), B) of the structure
    over its scale.

    The samples are one batch: the rows of A and B are one
    random_integers block and the D another, and the moments and the
    Killing field take the batch at once, on int64: the entries of A +- B
    are at most 40, so the partial sums of the table contraction are at
    most 4 * 40, every component of conj(h) i h is at most the Euclidean
    square norm of h, every component of the moment at most 4 rank 40^2,
    and every pairing at most 4 rank 20^2, exact below 2^63 at any rank a
    module can have here."""
    J, scale = structure_endos(rank).scaled_J
    omega = np.stack([EPS[a] * apply_metric(Ja).T
                      for a, Ja in enumerate(J)]).astype(np.int64)
    A, B = random_integers(rng, (2, samples, 4 * rank), -20, 20, np.int64)
    den = random_integers(rng, (samples,), 1, 8)
    ones = (1,) * rank
    mp, mm = _moment(0, ones, A + B), _moment(0, ones, A - B)
    K = exactla.contract(A, moment_quotient(0, ones).generators[0], 1)
    pairing = np.stack([((K @ w) * B).sum(axis=-1) for w in omega], axis=-1)
    # 4 scale D^2 times the residual of each sample and component, read
    # off as Python ints by stack_max_abs: an int64 abs would touch numpy
    # loops that no other check of the suite runs, and add their code
    # pages to the resident memory
    return exactla.stack_max_abs(scale * (mp - mm) - 4 * pairing,
                                 4 * scale * den * den)


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


def orthogonality_check(quotient: Quotient, points) -> int:
    """Max |g(J_b V, T)| over tangents T of the level set of the record
    through each point (a PQVector), V its first generator, the Killing
    field whose moment the rows hold, and b = 1, 2, 3: the images of the
    Killing field under the structure triple are normal to the level set.
    At the integer coordinates U of each point: the kernel of the rows at
    U is the tangent space, the Killing field at U is a multiple of the
    one at the point, T runs over the integer kernel basis, and the J_b V
    are the columns V e_b of unit_frame up to sign."""
    worst = 0
    for point in points:
        U, _ = point.scaled
        frame, _, _ = exactla.nullspace(quotient.rows @ U)
        images = unit_frame(quotient.generators[0] @ U)[:, 1:]
        worst = max(worst, exactla.max_abs(frame.T @ apply_metric(images)))
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
    at X / L) are made on integers, the i-component that of
    _moment(0, (q, p, p), .), the moment of the variant action, on the
    whole batch.

    Every round draws as many directions as points are still missing, up
    to _LEVEL_BLOCK, as one random_integers block of int64: |d| <= 3 gives
    |L| <= 54 and |X| <= 72, so the partial sums of the table contraction
    are at most 4 max|X|, the i-component of an entry (a sum of four
    squares of its coordinates) at most 4 max|X|^2 and the weighted sum at
    most 12 max|X|^2 max(p, q), that is at most 12 * 72 max(p, q) per
    unit of max|X|: the growth with which exactla.words decides the width
    of the points and L, int64 at every weight below 2^46 and Python ints
    above, so any weights stay exact.  The cap
    bounds the arrays live at once: one round of all 10,000 points as
    Python ints raised the peak memory of `pqgeom --suite all` by 5.8 MB.
    RedrawLimitError after REDRAW_LIMIT rounds in a row that keep no
    direction."""
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
        X, L = exactla.words(12 * 72 * max(ws), X, L)
        value = _moment(0, ws, X.T)[:, 0]
        failures += int(np.count_nonzero(~on_sphere
                                         | (value < min(ws) * L * L)))
        samples -= len(L)
        idle = 0 if len(L) else idle + 1
        if idle == REDRAW_LIMIT:
            raise RedrawLimitError("empty_levelset_check: every direction "
                                   "null or tangent")
    return failures
