"""Dense linear algebra over exact rationals.

numpy object arrays of ``fractions.Fraction`` support +, *, @ and slicing,
but none of ``numpy.linalg``.  This module supplies the missing pieces
(elimination-based rank, solve, inverse, nullspace, determinant, inertia)
with exact pivoting; ``rank`` also serves the full-rank certificates of
integer matrices.  Everything is deterministic.

Scaled integers.  Every ``Fraction`` operation normalises by a gcd, so
object arithmetic on Python ints is far cheaper.  The tensor builders
and the eliminations therefore work on a common-denominator form:
``scaled_integers(arr)`` returns an object array N of Python ints and the
lcm L of the entry denominators with arr == N / L (TypeError on any entry
that is not an int or a Fraction, the check of ``require_exact``), and
``from_scaled_integers(N, L)`` turns a result back into a ``Fraction``
array.  Python ints do not overflow, so no magnitude bound is needed.
Their users: the 2-forms, the 4-form, the rotations and the hermitian
projector of ``forms``; the structure checks and ``PQMatrix`` products of
``linalg``; ``projspace.transitive_element`` and
``horizontal_project``; the isotropy traces, the moment-gradient check
and the reduced-Jacobi chain (``admissible_directions``,
``killing_derivative``, ``reduced_jacobi``) of ``reduction``; and in
``curvature`` the
structure and metric inputs of the builders and the small results of the
diagnostics (Ricci forms, structure traces, Jacobi operators).  A d^4
curvature tensor passes through them only when it is read from or
written to ``Fraction`` form (``CurvatureTensor.from_fractions`` and
``fractions``, for the text format and the tests): a
``curvature.CurvatureTensor`` is held as the pair (N, L) from builder to
residual.
``product(*factors)`` is the Fraction array factors[0] @ factors[1] @ ...
computed this way: each factor is scaled once, the chain of products runs
on Python ints, and the result is divided by the product of the scales at
the end (a Fraction, not an array, when the chain contracts to a scalar).
Its users: the fiber Gram of ``projspace.tangent_split`` and the induced
metric of ``induced_geometry``; the reduced metric of
``reduction.flat_reduced_structure`` and the normal residuals of the
orthogonality checks; ``linalg.adopted_basis`` and ``grassman_split``;
``curvature.restrict_to_complement`` (the Gram matrix and the projected
image of its solve) and ``curvature.weyl_sample`` (the integer 4-tensor
s^4 contracted with the inverse of omega_E); and the CLI checks
representation-homomorphism, adopted-basis-rank, tensor-split-blocks and
lift-independence.  Products with the neutral metric are not among them:
``linalg.apply_metric`` is a sign flip.
``contract(T, A, axis)`` contracts one axis of a Python-int tensor with
a small integer matrix, one slice operation per nonzero entry of A, so a
product with a sparse matrix (a signed permutation, or at most two
nonzeros per row) costs about d^4 operations on a d^4 tensor, not d^5.
Its users: the four change-of-basis contractions of
``curvature.weyl_sample`` and the commutators [R(X, Y), J_a] of
``curvature.normalizes_structure``.

Integer elimination.  ``_echelon`` runs fraction-free Gauss-Jordan on the
scaled integers: it eliminates a pivot column from the rows that are
nonzero there, row_i <- row_i * (p / g) - row_r * (f / g) with
g = gcd(p, f), and divides each new row by its content.  It returns the
integer rows and the pivot list, without dividing by the pivots; the
callers divide only the entries they read (``solve`` the right-hand-side
columns, ``nullspace`` the free columns, ``rank`` none).  ``det`` runs
Bareiss elimination (Math. Comp. 22, 1968), whose divisions are exact.
``frame_coordinates`` forms its Gram system and residual on integers.
``inertia`` reduces by fraction-free congruences and divides each
remaining block by its content.  ``solve``, ``inverse``, ``nullspace``,
``det`` and ``frame_coordinates`` return ``Fraction`` entries;
``inertia`` checks that its input is square and symmetric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

import numpy as np

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction exactly")


def fracarray(data) -> np.ndarray:
    """Object array of Fractions from nested sequences of ints/Fractions/strings."""
    arr = np.array(data, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = frac(x)
    return flat.reshape(arr.shape)


def zeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [Fraction(0)] * arr.size
    return arr


def eye(n) -> np.ndarray:
    arr = zeros((n, n))
    for i in range(n):
        arr[i, i] = Fraction(1)
    return arr


def max_abs(arr) -> Fraction | int:
    """Max absolute entry; Fraction 0 for empty input.  The larger of the
    array max and the negated array min: comparisons only, no new
    Fraction per entry."""
    flat = np.asarray(arr).reshape(-1)
    if flat.size == 0:
        return Fraction(0)
    return max(flat.max(), -flat.min())


def require_exact(arr) -> np.ndarray:
    """The entries of arr, flattened; TypeError on any entry that is not
    an int or a Fraction.  The test runs once per entry type."""
    flat = np.asarray(arr).reshape(-1)
    for kind in set(map(type, flat)):
        if not issubclass(kind, (Fraction, int, np.integer)):
            raise TypeError(f"exact arithmetic needs int or Fraction "
                            f"entries, not {kind.__name__}")
    return flat


def scaled_integers(arr) -> tuple[np.ndarray, int]:
    """(N, L) with arr == N / L: N an object array of Python ints of the
    same shape, L the lcm of the entry denominators (1 for integer input).
    Raises TypeError on any entry that is not an int or a Fraction.

    The entries are read by C-level maps: the set of their types, the
    list of denominators, and the numerators streamed into N.  The only
    Python-level loop rescales the numerators, and runs only when L > 1."""
    flat = require_exact(arr)
    dens = list(map(_denominator, flat))
    L = math.lcm(*set(dens))
    nums = map(int, map(_numerator, flat))
    if L != 1:
        nums = (x * (L // d) for x, d in zip(nums, dens))
    return np.fromiter(nums, object, flat.size).reshape(np.shape(arr)), L


def from_scaled_integers(N, L: int) -> np.ndarray:
    """The Fraction array N / L of an integer array N and a scale L > 0.

    Tensors repeat few values, so each distinct value becomes one
    Fraction, shared by its entries (Fractions are immutable)."""
    out = np.empty(np.shape(N), dtype=object)
    flat = out.reshape(-1)
    made = {}
    for i, x in enumerate(np.asarray(N).reshape(-1)):
        q = made.get(x)
        if q is None:
            q = made[x] = Fraction(int(x), L)
        flat[i] = q
    return out


def product(*factors):
    """factors[0] @ factors[1] @ ... on scaled integers: the same Fraction
    entries as the Fraction chain, and a Fraction when the chain contracts
    to a scalar.  TypeError on an entry that is not an int or a Fraction."""
    N, L = scaled_integers(factors[0])
    for factor in factors[1:]:
        M, LM = scaled_integers(factor)
        N, L = N @ M, L * LM
    out = from_scaled_integers(N, L)
    return out[()] if out.ndim == 0 else out


def contract(T, A, axis: int) -> np.ndarray:
    """out[..., i, ...] = sum_j A[i, j] T[..., j, ...] on `axis` of an
    object array T of Python ints, for an integer matrix A: the array
    np.moveaxis(np.tensordot(A, T, axes=([1], [axis])), 0, axis), formed
    by one slice operation per nonzero entry of A."""
    T = np.moveaxis(np.asarray(T), axis, 0)
    out = np.zeros((len(A),) + T.shape[1:], dtype=object)
    for i, j in zip(*np.nonzero(A)):
        c = int(A[i, j])
        if c == 1:
            out[i] += T[j]
        elif c == -1:
            out[i] -= T[j]
        else:
            out[i] += T[j] * c
    return np.moveaxis(out, 0, axis)


def _echelon(mat: np.ndarray):
    """Fraction-free Gauss-Jordan elimination: (a, pivots).

    a is an object array of Python ints, row-equivalent to `mat`; row r
    has the pivot a[r, pivots[r]] and zeros in every other pivot column,
    so the reduced row echelon form is a[r] / a[r, pivots[r]].  Each
    combination is divided by its row content, which keeps the entries
    small and sparse rows sparse.  TypeError on an entry that is not an
    int or a Fraction.
    """
    a, _ = scaled_integers(mat)
    rows, cols = a.shape
    for i in range(rows):
        g = math.gcd(*a[i])
        if g > 1:
            a[i] //= g
    pivots = []
    r = 0
    for c in range(cols):
        below = np.flatnonzero(a[r:, c])
        if below.size == 0:
            continue
        if below[0]:
            pr = r + below[0]
            a[[r, pr]] = a[[pr, r]]
        p = a[r, c]
        for i in np.flatnonzero(a[:, c]):
            if i != r:
                f = a[i, c]
                g = math.gcd(p, f)
                row = a[i] * (p // g) - a[r] * (f // g)
                g = math.gcd(*row)
                a[i] = row // g if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _divide(a: np.ndarray, pivots: list[int], cols) -> np.ndarray:
    """The Fractions a[r, cols] / a[r, pivots[r]]: columns `cols` of the
    reduced row echelon form, one row per pivot."""
    out = np.empty((len(pivots), len(cols)), dtype=object)
    for r, pc in enumerate(pivots):
        p = a[r, pc]
        out[r] = [Fraction(x, p) for x in a[r, cols]]
    return out


def rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _echelon(mat)
    return len(pivots)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b exactly; raises ValueError if singular."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("solve expects a square matrix")
    red, pivots = _echelon(np.concatenate([a, b.reshape(n, -1)], axis=1))
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    x = _divide(red, pivots, range(n, red.shape[1]))
    return x.reshape(b.shape) if b.ndim == 1 else x


def inverse(a: np.ndarray) -> np.ndarray:
    return solve(a, eye(a.shape[0]))


def frame_coordinates(frame: np.ndarray, target: np.ndarray):
    """(coords, residual): the solution of the Gram system frame^T frame
    coords = frame^T target, and the max-abs entry of frame @ coords -
    target, which is 0 exactly when target lies in the frame's span."""
    F, LF = scaled_integers(frame)
    T, LT = scaled_integers(target)
    # both sides times LF^2 LT: F^T F LT coords = F^T T LF
    coords = solve((F.T @ F) * LT, (F.T @ T) * LF)
    C, LC = scaled_integers(coords)
    residual = max_abs((F @ C) * LT - T * (LF * LC))
    return coords, Fraction(residual, LF * LC * LT)


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Columns form an exact basis of the right kernel (possibly empty)."""
    rows, cols = mat.shape
    red, pivots = _echelon(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((cols, len(free)))
    basis[free, range(len(free))] = Fraction(1)
    basis[pivots] = -_divide(red, pivots, free)
    return basis


def det(mat: np.ndarray) -> Fraction:
    """Bareiss fraction-free elimination on the scaled integers N = L mat:
    det(mat) = det(N) / L^n."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("det expects a square matrix")
    a, L = scaled_integers(mat)
    n = a.shape[0]
    sign, prev = 1, 1
    for c in range(n):
        below = np.flatnonzero(a[c:, c])
        if below.size == 0:
            return Fraction(0)
        if below[0]:
            pr = c + below[0]
            a[[c, pr]] = a[[pr, c]]
            sign = -sign
        p = a[c, c]
        # every entry of the trailing block divides exactly by prev
        a[c + 1:, c + 1:] = (a[c + 1:, c + 1:] * p
                             - np.outer(a[c + 1:, c], a[c, c + 1:])) // prev
        prev = p
    return Fraction(sign * prev, L ** n)


def inertia(sym: np.ndarray) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Fraction-free symmetric reduction on the scaled integers.  A nonzero
    diagonal pivot d = a[i, i] counts by its sign.  The congruence that
    takes every other row r to d * row r - a[r, i] * row i, and the same
    for the columns, clears row and column i and leaves d (d B - f f^T)
    on the other rows, with B the block without i and f = a[rest, i].
    That block is divisible by |d|; the reduction keeps the quotient
    |d| B - sign(d) f f^T divided by its content, a positive multiple, so
    the entries stay integral and small.  With no nonzero diagonal left,
    a coupling a[r, s] becomes a hyperbolic (+1, -1) pair by adding row
    and column s to r.  Sylvester's law makes the signs basis independent.
    """
    if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
        raise ValueError("inertia expects a square matrix")
    # the scale is positive, so N has the inertia of sym
    a, _ = scaled_integers(sym)
    if (a != a.T).any():
        raise ValueError("inertia expects a symmetric matrix")
    plus = minus = 0
    while a.size:
        pivots = np.flatnonzero(a.diagonal())
        if pivots.size == 0:
            coupled = np.argwhere(a != 0)
            if coupled.size == 0:
                break
            r, s = coupled[0]
            a[r] += a[s]
            a[:, r] += a[:, s]
            continue
        i = pivots[0]
        d = a[i, i]
        if d > 0:
            plus += 1
        else:
            minus += 1
        rest = np.delete(np.arange(len(a)), i)
        f = a[rest, i]
        a = a[np.ix_(rest, rest)] * abs(d) - np.outer(f, f) * (d // abs(d))
        g = math.gcd(*a.reshape(-1))
        if g > 1:
            a //= g
    return plus, minus, len(a)


def signature(sym: np.ndarray) -> tuple[int, int]:
    p, m, z = inertia(sym)
    if z:
        raise ValueError("degenerate symmetric form")
    return p, m
