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

which moment_gradient_check verifies by central differences.

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
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from . import exactla
from .algebra import IMAGINARY_UNITS, J, SplitQuaternion
from .curvature import (NullDirectionError, ambient_projective_curvature,
                        einstein_check)
from .linalg import (HermitianStructure, PQMatrix, PQVector, metric_matrix,
                     module_scalar_product, right_mult_matrix,
                     structure_endos)
from .projspace import (VERTICAL_GRAM, SpherePoint, _ambient_metric,
                        horizontal_project, random_sphere_point,
                        transitive_element, vertical_frame)


class DegenerateLevelSetError(ValueError):
    """Constraint differentials lost rank at a sampled point."""


class NullOrbitError(ValueError):
    """The orbit direction is null at the sampled point."""


class NullKillingError(ValueError):
    """The Killing field is null at the sampled point."""


class NonRegularError(ValueError):
    """The sampled point fails the regularity condition."""


class StepTooSmallError(ValueError):
    """Finite-difference step below the noise floor."""


# the level value xi of each scene
FLAT_LEVEL = (Fraction(-1), Fraction(0), Fraction(0))
LEVELS = {"flat-s1": FLAT_LEVEL, "pq": (Fraction(0),) * 3}

# acceptance residual and iteration cap of the float level-set sampler
_ROOT_TOL = 1e-11
_ROOT_MAX_ITER = 80


@dataclass
class ImValue:
    """Element of the imaginary span, as (i, j, k) coefficients."""

    i: Fraction | float
    j: Fraction | float
    k: Fraction | float

    def coefficients(self):
        return (self.i, self.j, self.k)

    def max_abs(self):
        return max(abs(self.i), abs(self.j), abs(self.k))

    def is_zero(self) -> bool:
        return self.max_abs() == 0


# ---------------------------------------------------------------------------
# flat circle scene
# ---------------------------------------------------------------------------


def flat_circle_moment(h: PQVector):
    """Moment triple (-(|z|^2+|w|^2), -Re(zw), -Im(zw)) of the circle
    action; see the module docstring for the sign conventions."""
    e_norm = 0
    re_zw = 0
    im_zw = 0
    for q in h.entries:
        a, b, c, d = q.coefficients()
        e_norm = e_norm + a * a + b * b + c * c + d * d
        # z = a + b i, w = c - d i:  z w = (ac + bd) + (bc - ad) i
        re_zw = re_zw + a * c + b * d
        im_zw = im_zw + b * c - a * d
    return (-e_norm, -re_zw, -im_zw)


def flat_adapted_moment(h: PQVector):
    """The component relabelling (-f1/2, f3, f2) whose differentials are
    omega_a(V, .) for the structure triple."""
    f1, f2, f3 = flat_circle_moment(h)
    return (-f1 * Fraction(1, 2), f3, f2)


def flat_killing(h: PQVector) -> PQVector:
    """Killing value of the circle action: left multiplication by i."""
    return h.left_mul(IMAGINARY_UNITS[0])


def _moment_gradient_rows(h: PQVector) -> np.ndarray:
    """Exact gradients of the three moment components as rows."""
    r = h.rank
    rows = exactla.zeros((3, 4 * r))
    for v, q in enumerate(h.entries):
        a, b, c, d = (Fraction(x) for x in q.coefficients())
        sl = slice(4 * v, 4 * v + 4)
        rows[0, sl] = [-2 * a, -2 * b, -2 * c, -2 * d]
        rows[1, sl] = [-c, -d, -a, -b]
        rows[2, sl] = [d, -c, -b, a]
    return rows


def flat_level_sample(rng, rank: int) -> PQVector:
    """Exact rational point of the level set of FLAT_LEVEL = (-1, 0, 0).

    Builds complex vectors z, w with disjoint supports (so z w = 0) and
    rational Euclidean norms s^2 + t^2 = 1 from a rational circle point,
    avoiding the null-orbit locus s = t.
    """
    while True:
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        den = 1 + u * u
        s, t = (1 - u * u) / den, 2 * u / den
        if s == 0 or t == 0 or s * s == t * t:
            continue
        size = rng.randrange(1, rank)
        support = rng.sample(range(rank), size)
        zdir = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(2 * rank)]
        wdir = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(2 * rank)]
        for v in range(rank):
            if v in support:
                wdir[2 * v] = wdir[2 * v + 1] = Fraction(0)
            else:
                zdir[2 * v] = zdir[2 * v + 1] = Fraction(0)
        zn = sum(x * x for x in zdir)
        wn = sum(x * x for x in wdir)
        if zn == 0 or wn == 0:
            continue
        # euclidean-unit rational rescale along the line through the
        # first coordinate axis of each support block
        zvec = _euclidean_unit(zdir, zn)
        wvec = _euclidean_unit(wdir, wn)
        entries = []
        for v in range(rank):
            zr, zi = s * zvec[2 * v], s * zvec[2 * v + 1]
            wr, wi = t * wvec[2 * v], t * wvec[2 * v + 1]
            entries.append(SplitQuaternion(zr, zi, wr, -wi))
        h = PQVector(entries)
        assert flat_circle_moment(h) == FLAT_LEVEL
        return h


def _euclidean_unit(direction, norm):
    """Rational Euclidean unit vector via the line trick from the first
    nonzero axis of the direction's support."""
    pivot = next(i for i, x in enumerate(direction) if x != 0)
    base = [Fraction(0)] * len(direction)
    base[pivot] = Fraction(1)
    dot = direction[pivot]
    lam = Fraction(-2) * dot / norm
    out = [b + lam * d for b, d in zip(base, direction)]
    if all(x == 0 for x in out):
        out = base
    assert sum(x * x for x in out) == 1
    return out


@dataclass
class ReducedStructure:
    """Pointwise output of a reduction: frame of the descended tangent
    space, induced metric and structure, diagnostics."""

    frame: np.ndarray
    structure: HermitianStructure
    comrel_residual: Fraction | float
    skew_residual: Fraction | float
    signature: tuple[int, int]


def flat_reduced_structure(h: PQVector) -> ReducedStructure:
    """Descend metric and structure to the quotient tangent space at a
    level point: kernel of the constraint differentials, minus the orbit
    direction, with the structure restricted (the complement of the span
    (V, J1 V, J2 V, J3 V) is invariant, so no projection loss occurs)."""
    f = flat_circle_moment(h)
    res = max(abs(a - b) for a, b in zip(f, FLAT_LEVEL))
    if res != 0:
        raise DegenerateLevelSetError(f"point off the level set by {res}")
    rows = _moment_gradient_rows(h)
    if exactla.rank(rows) != 3:
        raise DegenerateLevelSetError("constraint differentials degenerate")
    V = flat_killing(h).to_real()
    g = metric_matrix(h.rank)
    if V @ g @ V == 0:
        raise NullOrbitError("orbit direction is null")
    con = np.concatenate([rows, (g @ V).reshape(1, -1)], axis=0)
    frame = exactla.nullspace(con)
    H = structure_endos(h.rank)
    g_red = frame.T @ g @ frame
    coords, residual = exactla.frame_coordinates(
        frame, np.concatenate([Ja @ frame for Ja in H.J], axis=1))
    if residual != 0:
        raise DegenerateLevelSetError("structure leaves the frame")
    Hred = HermitianStructure(*np.split(coords, 3, axis=1), g_red,
                              validate=False)
    return ReducedStructure(
        frame=frame,
        structure=Hred,
        comrel_residual=Hred.comrel_residual(),
        skew_residual=Hred.skew_residual(),
        signature=Hred.signature())


def flat_quotient_coordinates(h: PQVector):
    """Projective coordinates (A, B) = (z + conj(w), z - conj(w)) of the
    quotient embedding; the circle acts on both by the same phase."""
    A, B = [], []
    for q in h.entries:
        a, b, c, d = q.coefficients()
        # z = a + bi, w = c - di, conj(w) = c + di
        A.append((a + c, b + d))
        B.append((a - c, b - d))
    return A, B


def flat_quotient_residuals(h: PQVector):
    """Residuals of the quotient-image equations |A|^2 = |B|^2 and
    Im(conj(A) . B) = 0; both vanish exactly on the level set."""
    A, B = flat_quotient_coordinates(h)
    na = sum(x * x + y * y for x, y in A)
    nb = sum(x * x + y * y for x, y in B)
    im = sum(x * t - y * s for (x, y), (s, t) in zip(A, B))
    return abs(na - nb), abs(im)


# ---------------------------------------------------------------------------
# weighted hyperbolic scene on the rank-3 sphere model
# ---------------------------------------------------------------------------


def _weights(p: int, q: int):
    if p == q or p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError("weights must be distinct coprime naturals")
    return (q, p, p)


def weighted_flow(p: int, q: int, t: float, u: PQVector) -> PQVector:
    """Action at parameter t: entrywise left factor cosh(ct) + j sinh(ct)."""
    out = []
    for c, h in zip(_weights(p, q), u.entries):
        flow = SplitQuaternion(math.cosh(c * t), 0, math.sinh(c * t), 0)
        out.append(flow * h)
    return PQVector(out)


def weighted_flow_exact(p: int, q: int, param: Fraction, u: PQVector) -> PQVector:
    """Rational point of the flow: parameter s on the unit hyperbola acts
    with (cosh, sinh) = ((1+s^2)/(1-s^2), 2s/(1-s^2)) raised to the
    integer weights."""
    s = Fraction(param)
    den = 1 - s * s
    if den == 0:
        raise ValueError("parameter on the asymptote")
    one_step = SplitQuaternion((1 + s * s) / den, 0, 2 * s / den, 0)
    out = []
    for c, h in zip(_weights(p, q), u.entries):
        flow = SplitQuaternion(1)
        for _ in range(c):
            flow = flow * one_step
        out.append(flow * h)
    return PQVector(out)


def weighted_killing(p: int, q: int, u: SpherePoint) -> PQVector:
    """Flow derivative at parameter zero: (j q u0, j p u1, j p u2)."""
    ws = _weights(p, q)
    return PQVector(J.scale(c) * h for c, h in zip(ws, u.x.entries))


def _sandwich(u: SplitQuaternion, axis: SplitQuaternion) -> SplitQuaternion:
    return u.conj() * axis * u


def weighted_level_value(p: int, q: int, u: SpherePoint) -> ImValue:
    """Imaginary value q conj(u0) j u0 + p conj(u1) j u1 + p conj(u2) j u2."""
    total = SplitQuaternion()
    for c, h in zip(_weights(p, q), u.x.entries):
        total = total + _sandwich(h, J).scale(c)
    if abs(float(total.a)) > 1e-14:
        raise ArithmeticError("level value acquired a real part")
    return ImValue(total.b, total.c, total.d)


def weighted_regularity(p: int, q: int, u: SpherePoint):
    """(is_regular, value) for q^2 |u0|^2 + p^2 |u1|^2 + p^2 |u2|^2 != 0."""
    ws = _weights(p, q)
    val = sum(c * c * h.square_norm() for c, h in zip(ws, u.x.entries))
    return val != 0, val


def weighted_level_sample(rng, p: int, q: int) -> SpherePoint:
    """Exact rational point of the zero level set.

    Entries of the form x + y j make the level value proportional to
    x^2 - y^2 per entry; the weighted sum cancels at sigma = p/(p-q) in
    the first slot, split rationally across the other two, and every
    point of this family is regular (the regularity value is -pq).
    Hyperbola rotations per entry randomise within the family.
    """
    sigma = Fraction(p, p - q)
    rest = 1 - sigma
    while True:
        split = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s1, s2 = rest / 2 + split, rest / 2 - split
        entries = []
        for target in (sigma, s1, s2):
            x, y = (target + 1) / 2, (target - 1) / 2
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            den = 1 - t * t
            if den == 0:
                break
            ch, sh = (1 + t * t) / den, 2 * t / den
            entries.append(SplitQuaternion(x * ch + y * sh, 0,
                                           x * sh + y * ch, 0))
        if len(entries) != 3:
            continue
        u = SpherePoint(PQVector(entries))
        value = weighted_level_value(p, q, u)
        assert value.is_zero()
        regular, _ = weighted_regularity(p, q, u)
        if regular:
            return u


def _level_gradient_rows(p: int, q: int, u: SpherePoint) -> np.ndarray:
    """Differential of the three imaginary components of the level value:
    d mu(T) = sum c_v (conj(T_v) j u_v + conj(u_v) j T_v); exact at
    exact points."""
    ws = _weights(p, q)
    rows = exactla.zeros((3, 12)) if u.is_exact() else np.zeros((3, 12))
    for v in range(3):
        for s in range(4):
            T = PQVector([SplitQuaternion(*(1 if (w == v and r == s) else 0
                                            for r in range(4)))
                          for w in range(3)])
            total = SplitQuaternion()
            for c, (hv, tv) in zip(ws, zip(u.x.entries, T.entries)):
                total = total + (tv.conj() * J * hv
                                 + hv.conj() * J * tv).scale(c)
            rows[0, 4 * v + s] = total.b
            rows[1, 4 * v + s] = total.c
            rows[2, 4 * v + s] = total.d
    return rows


# -- independent moment route through the isotropy decomposition ------------


def _generator_matrix(p: int, q: int) -> PQMatrix:
    ws = _weights(p, q)
    n = 3
    entries = [[SplitQuaternion() for _ in range(n)] for _ in range(n)]
    for v, c in enumerate(ws):
        entries[v][v] = J.scale(c)
    return PQMatrix(entries)


def isotropy_moment_traces(p: int, q: int, u: SpherePoint):
    """The three structure traces of the transported isotropy action.

    Conjugating the action generator by a group element sending the base
    point to u, the block-diagonal part (s, B) acts on the tangent
    summand as v -> B v + v conj(s); the moment value at the projective
    point of u is proportional to the triple Tr(J_a L).  Its zero set is
    the level set, which is what the cross-check consumes.
    """
    gmat = transitive_element(u)
    ginv = gmat.conj_transpose()
    eta = ginv @ _generator_matrix(p, q) @ gmat
    s = eta.entries[0][0]
    block = PQMatrix([[eta.entries[r + 1][c + 1] for c in range(2)]
                      for r in range(2)])
    L = block.to_real_action()
    rconj = right_mult_matrix(s.conj())
    for v in range(2):
        L[4 * v:4 * v + 4, 4 * v:4 * v + 4] += rconj
    Hstd = structure_endos(2)
    return tuple(np.trace(Ja @ L) for Ja in Hstd.J)


# -- covariant derivative of the Killing field on the sphere model ----------


def _real_coords(v: PQVector, exact: bool) -> np.ndarray:
    out = v.to_real()
    return out if exact else np.asarray(out, dtype=float)


def killing_derivative(p: int, q: int, u: SpherePoint,
                       X: np.ndarray) -> np.ndarray:
    """Ambient-model covariant derivative of the quotient Killing field.

    The horizontal part of the Killing field extends off the point as
    Vh(x) = D x - sum_ab Ginv[a,b] <D x, x e_b> x e_a with the constant
    fiber Gram inverse; differentiating along a tangent X and projecting
    horizontally gives the lift of the covariant derivative on the
    quotient (the sphere's second-fundamental term is not horizontal
    and drops out).
    """
    exact = u.is_exact()
    D = _generator_matrix(p, q)
    x = u.x
    Xq = PQVector.from_real(X)
    DX = _real_coords(D @ Xq, exact)
    Du = _real_coords(D @ x, exact)
    g = _ambient_metric(3, exact)
    # the fiber Gram diag(1, -1, -1) is its own inverse
    vg_inv = VERTICAL_GRAM if exact else np.asarray(VERTICAL_GRAM, dtype=float)
    vert_u = np.stack([_real_coords(x.right_mul(e), exact)
                       for e in IMAGINARY_UNITS], axis=1)
    vert_X = np.stack([_real_coords(Xq.right_mul(e), exact)
                       for e in IMAGINARY_UNITS], axis=1)
    coef_a = vert_u.T @ (g @ DX) + vert_X.T @ (g @ Du)
    coef_b = vert_u.T @ (g @ Du)
    deriv = DX - vert_u @ (vg_inv @ coef_a) - vert_X @ (vg_inv @ coef_b)
    return horizontal_project(u, deriv)


def killing_horizontal(p: int, q: int, u: SpherePoint) -> np.ndarray:
    V = _real_coords(weighted_killing(p, q, u), u.is_exact())
    return horizontal_project(u, V)


@dataclass
class ReducedJacobi:
    eigenvalues: tuple
    ratio: Fraction | float
    killing_norm: Fraction | float
    einstein_constant: Fraction | float


@functools.cache
def _ambient_constant() -> Fraction:
    """Einstein constant of the ambient projective model (n = 2), built
    once per process."""
    return einstein_check(ambient_projective_curvature(2))[0]


def reduced_jacobi(p: int, q: int, u: SpherePoint,
                   X: np.ndarray) -> ReducedJacobi:
    """Eigenvalue data (l1, l2, l3, ratio) of the reduced Jacobi operator.

    X must be horizontal and orthogonal to the span (V, J1 V, J2 V, J3 V)
    with g(X, X) != 0; the ratio is normalised by g(X, X), which makes it
    scale invariant and uniform across causal classes.  The eigenvalues
    are read off the reduced scalar curvature nu of the ambient model.
    """
    regular, _ = weighted_regularity(p, q, u)
    if not regular:
        raise NonRegularError("point fails the regularity condition")
    exact = u.is_exact()
    tol = 0 if exact else 1e-9
    g = _ambient_metric(3, exact)
    Vh = killing_horizontal(p, q, u)
    vnorm = Vh @ g @ Vh
    if abs(float(vnorm)) <= tol:
        raise NullKillingError("Killing field is null here")
    xnorm = X @ g @ X
    if abs(float(xnorm)) <= tol:
        raise NullDirectionError("direction is null")
    span = _killing_span(u, Vh)
    if float(exactla.max_abs(span.T @ (g @ X))) > 1e-8:
        raise ValueError("direction not orthogonal to the Killing span")
    VX = killing_derivative(p, q, u, X)
    h_part = VX - span @ exactla.solve_any(span.T @ g @ span,
                                           span.T @ (g @ VX))
    hnorm = h_part @ g @ h_part
    ratio = hnorm / (xnorm * vnorm)
    const = _ambient_constant()
    nu = const / 4   # reduced scalar curvature, const / (n + 2) at n = 2
    lam1 = -(nu - 2 * ratio)
    lam3 = -(nu + 4 * ratio)
    return ReducedJacobi(eigenvalues=(lam1, lam1, lam3), ratio=ratio,
                         killing_norm=vnorm, einstein_constant=const)


def _killing_span(u: SpherePoint, Vh: np.ndarray) -> np.ndarray:
    exact = u.is_exact()
    cols = [Vh]
    vq = PQVector.from_real(Vh)
    for e in IMAGINARY_UNITS:
        cols.append(_real_coords(vq.right_mul(e.conj()), exact))
    return np.stack(cols, axis=1)


def admissible_directions(p: int, q: int, u: SpherePoint, rng,
                          count: int) -> list[np.ndarray]:
    """Seeded horizontal directions orthogonal to the Killing span, with
    g(X, X) != 0; exact rational at exact points."""
    exact = u.is_exact()
    g = _ambient_metric(3, exact)
    Vh = killing_horizontal(p, q, u)
    span = _killing_span(u, Vh)
    rows = [_real_coords(u.x, exact) @ g]
    vert = vertical_frame(u)
    if not exact:
        vert = np.asarray(vert, dtype=float)
    rows.extend((vert[:, a] @ g) for a in range(3))
    rows.extend((span[:, a] @ g) for a in range(4))
    basis = exactla.nullspace_any(np.stack(rows, axis=0))
    out = []
    while len(out) < count:
        raw = [rng.randint(-4, 4) for _ in range(basis.shape[1])]
        coef = exactla.fracarray(raw) if exact else np.asarray(raw,
                                                               dtype=float)
        X = basis @ coef
        if abs(float(X @ g @ X)) > (0 if exact else 1e-8):
            out.append(X)
    return out


def _float_sphere_seed(rng) -> np.ndarray:
    """Real coordinates of a float point of the rank-3 unit sphere: a draw
    from [-1.5, 1.5]^12, redrawn until its square norm exceeds 0.1."""
    while True:
        coords = np.array([rng.uniform(-1.5, 1.5) for _ in range(12)])
        vec = PQVector.from_real(coords)
        norm = float(module_scalar_product(vec, vec))
        if norm > 0.1:
            return coords / np.sqrt(norm)


def weighted_level_sample_float(rng, p: int, q: int) -> SpherePoint:
    """Generic float point of the zero level set: randomized seeding plus
    a damped Gauss-Newton iteration on the four equations (three level
    components and the sphere constraint); accepted below _ROOT_TOL.
    """
    ws = _weights(p, q)
    while True:
        coords = _float_sphere_seed(rng)
        ok = False
        for _ in range(_ROOT_MAX_ITER):
            vec = PQVector.from_real(coords)
            residual = _pq_system(ws, vec)
            if np.max(np.abs(residual)) < _ROOT_TOL:
                ok = True
                break
            jac = _pq_system_jacobian(p, q, vec)
            try:
                step = jac.T @ np.linalg.solve(jac @ jac.T, residual)
            except np.linalg.LinAlgError:
                break
            damping = 1.0
            base = np.linalg.norm(residual)
            while damping > 1e-4:
                trial = coords - damping * step
                trial_res = _pq_system(ws, PQVector.from_real(trial))
                if np.linalg.norm(trial_res) < base:
                    coords = trial
                    break
                damping /= 2
            else:
                break
        if not ok:
            continue
        u = SpherePoint(PQVector.from_real(coords), tol=10 * _ROOT_TOL)
        regular, _ = weighted_regularity(p, q, u)
        vnorm = float(killing_horizontal(p, q, u) @ _ambient_metric(3, False)
                      @ killing_horizontal(p, q, u))
        if regular and abs(vnorm) > 1e-6:
            return u


def _pq_system(ws, vec: PQVector) -> np.ndarray:
    total = SplitQuaternion()
    for c, h in zip(ws, vec.entries):
        total = total + _sandwich(h, J).scale(c)
    sphere = module_scalar_product(vec, vec) - 1.0
    return np.array([total.b, total.c, total.d, sphere], dtype=float)


def _pq_system_jacobian(p: int, q: int, vec: PQVector) -> np.ndarray:
    """Level-value rows of _level_gradient_rows plus the sphere row."""
    g = _ambient_metric(3, False)
    coords = np.asarray(vec.to_real(), dtype=float)
    level = _level_gradient_rows(p, q, SpherePoint(vec, check=False))
    return np.vstack([level, 2.0 * (g @ coords)])


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
    tolerance: float = 1e-9
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
            "seed": self.seed, "tolerance": self.tolerance,
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
                   samples: int = 10, directions: int = 5,
                   sampler: str = "float") -> ReductionScene:
    """Sample the zero level set and attach reduced Jacobi data per point.

    sampler 'float' is the generic damped root-finder on the ambient
    sphere (residual below 1e-11); 'exact' draws from the rational
    family, which is exact but confined to a special slice.
    """
    _weights(p, q)
    rng = random.Random(seed)
    scene = ReductionScene(action="pq", rank=3, p=p, q=q, seed=seed)
    for _ in range(samples):
        if sampler == "exact":
            u = weighted_level_sample(rng, p, q)
        else:
            u = weighted_level_sample_float(rng, p, q)
        scene.points.append(u)
        dirs = admissible_directions(p, q, u, rng, directions)
        data = [reduced_jacobi(p, q, u, X) for X in dirs]
        scene.derived.append({
            "ratios": [d.ratio for d in data],
            "eigenvalues": [d.eigenvalues for d in data],
            "killing_norm": data[0].killing_norm if data else None,
        })
    return scene


@dataclass
class GradientCheckReport:
    kind: str
    samples: int
    step: float | None
    max_residual: float
    agreements: int | None = None
    disagreements: int | None = None

    @property
    def zero_sets_agree(self) -> bool:
        return not self.disagreements


def moment_gradient_check(scene: ReductionScene, samples: int = 200,
                          step: float = 1e-5, rng=None) -> GradientCheckReport:
    """Verify the defining property of the moment data.

    Flat scene: central differences of the adapted components against
    omega_a(V, .) at random points and directions.  Weighted scene: the
    zero set of the independently computed isotropy-route moment against
    the level function, on half on-level and half off-level samples.
    """
    rng = rng or random.Random(scene.seed)
    if scene.action == "flat-s1":
        if step <= 1e-12:
            raise StepTooSmallError(f"step {step} below noise floor")
        H = structure_endos(scene.rank)
        g = metric_matrix(scene.rank)
        worst = 0.0
        for _ in range(samples):
            coords = np.array([rng.uniform(-2, 2)
                               for _ in range(4 * scene.rank)])
            direction = np.array([rng.uniform(-1, 1)
                                  for _ in range(4 * scene.rank)])
            hplus = PQVector.from_real(coords + step * direction)
            hminus = PQVector.from_real(coords - step * direction)
            V = flat_killing(PQVector.from_real(coords)).to_real()
            V = np.array(V, dtype=float)
            fp = flat_adapted_moment(hplus)
            fm = flat_adapted_moment(hminus)
            for a in range(3):
                numeric = (fp[a] - fm[a]) / (2 * step)
                Jfl = np.array(H.J[a], dtype=float)
                gfl = np.array(g, dtype=float)
                exactval = (Jfl @ V) @ gfl @ direction
                scale = max(abs(numeric), abs(exactval), 1.0)
                worst = max(worst, abs(numeric - exactval) / scale)
        return GradientCheckReport(kind="flat-s1", samples=samples,
                                   step=step, max_residual=worst)
    if scene.action == "pq":
        agreements = disagreements = 0
        worst = 0.0
        for k in range(samples):
            if k % 2 == 0:
                u = weighted_level_sample(rng, scene.p, scene.q)
            else:
                u = random_sphere_point(rng, 3)
            level = weighted_level_value(scene.p, scene.q, u)
            traces = isotropy_moment_traces(scene.p, scene.q, u)
            level_zero = level.is_zero()
            trace_zero = all(t == 0 for t in traces)
            if level_zero == trace_zero:
                agreements += 1
            else:
                disagreements += 1
                worst = max(worst, float(level.max_abs()),
                            float(max(abs(t) for t in traces)))
        return GradientCheckReport(kind="pq", samples=samples, step=None,
                                   max_residual=worst,
                                   agreements=agreements,
                                   disagreements=disagreements)
    raise ValueError(f"unknown action {scene.action!r}")


def structure_orthogonality_check(scene: ReductionScene,
                                  samples: int = 10, rng=None):
    """Max |<J_a V, T>| over level-set tangents T: the images of the
    Killing field under the structure triple are normal to the level set."""
    rng = rng or random.Random(scene.seed)
    worst = Fraction(0)
    if scene.action == "flat-s1":
        g = metric_matrix(scene.rank)
        for _ in range(samples):
            h = flat_level_sample(rng, scene.rank)
            rows = _moment_gradient_rows(h)
            frame = exactla.nullspace(rows)
            V = flat_killing(h)
            for e in IMAGINARY_UNITS:
                JV = V.right_mul(e.conj()).to_real()
                worst = max(worst, exactla.max_abs(frame.T @ (g @ JV)))
        return worst
    if scene.action == "pq":
        g = metric_matrix(3)
        for _ in range(samples):
            u = weighted_level_sample(rng, scene.p, scene.q)
            rows = _level_gradient_rows(scene.p, scene.q, u)
            tangency = (u.x.to_real() @ g).reshape(1, -1)
            frame = exactla.nullspace(np.concatenate([rows, tangency]))
            Vh = killing_horizontal(scene.p, scene.q, u)
            vq = PQVector.from_real(Vh)
            for e in IMAGINARY_UNITS:
                JV = vq.right_mul(e.conj()).to_real()
                worst = max(worst, exactla.max_abs(frame.T @ (g @ JV)))
        return worst
    raise ValueError(f"unknown action {scene.action!r}")


def empty_levelset_check(p: int = 1, q: int = 2, samples: int = 10000,
                         seed: int = 0) -> float:
    """Negative control: the variant action through the definite axis
    (cos t + i sin t factors) has i-component q|u0|_E^2 + p|u1|_E^2 +
    p|u2|_E^2 >= min(p, q) > 0 on the sphere, so its moment zero set
    there is empty.  Returns the minimum of the value's magnitude over
    float sphere points drawn like the seeds of the float sampler."""
    rng = random.Random(seed)
    ws = _weights(p, q)
    axis = IMAGINARY_UNITS[0]
    smallest = math.inf
    for _ in range(samples):
        u = PQVector.from_real(_float_sphere_seed(rng).tolist())
        total = SplitQuaternion()
        for c, h in zip(ws, u.entries):
            total = total + _sandwich(h, axis).scale(c)
        smallest = min(smallest, ImValue(total.b, total.c, total.d).max_abs())
    return smallest


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def scene_to_json(scene: ReductionScene) -> str:
    """Exact coordinates are written as rational strings, float ones as
    JSON numbers (which round-trip exactly)."""
    def encode_point(pt):
        if isinstance(pt, SpherePoint):
            pt = pt.x
        return [[x if isinstance(x, float) else str(x)
                 for x in h.coefficients()] for h in pt.entries]

    def plain(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, list):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    payload = {
        "manifest": scene.manifest(),
        "points": [encode_point(p) for p in scene.points],
        "derived": plain(scene.derived),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def scene_from_json(text: str) -> ReductionScene:
    payload = json.loads(text)
    man = payload["manifest"]
    scene = ReductionScene(
        action=man["action"], rank=man["rank"], p=man["p"], q=man["q"],
        seed=man["seed"], tolerance=man["tolerance"])
    if tuple(Fraction(x) for x in man["xi"]) != scene.xi:
        raise ValueError(f"manifest level {man['xi']} does not match "
                         f"action {scene.action!r}")
    for coords in payload["points"]:
        vec = PQVector(SplitQuaternion(*(Fraction(c) if isinstance(c, str)
                                         else float(c) for c in h))
                       for h in coords)
        if scene.action == "pq":
            floating = isinstance(vec.entries[0].a, float)
            scene.points.append(
                SpherePoint(vec, tol=scene.tolerance if floating else 0))
        else:
            scene.points.append(vec)
    scene.derived = payload["derived"]
    return scene
