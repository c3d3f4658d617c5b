"""Dense linear algebra over exact rationals.

numpy object arrays of ``fractions.Fraction`` support +, *, @ and slicing,
but none of ``numpy.linalg``.  This module supplies the missing pieces
(elimination-based rank, solve, inverse, nullspace, determinant, inertia)
with exact pivoting, plus a fast mod-p rank certificate for integer
matrices.  Everything is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

MOD_P_PRIME = 2147483629   # the modulus of rank_mod_p
SVD_RANK_TOL = 1e-10       # relative to the largest singular value (or 1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
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


def max_abs(arr) -> Fraction | float:
    """Max absolute entry; Fraction 0 for empty input."""
    flat = np.asarray(arr).reshape(-1)
    if flat.size == 0:
        return Fraction(0)
    return max(abs(x) for x in flat)


def _exact_copy(mat: np.ndarray) -> np.ndarray:
    """Object-array copy for the eliminations.  Integer dtypes become
    Python ints (fixed-width ones would truncate divided rows); any other
    non-object dtype raises TypeError."""
    if mat.dtype != object and not np.issubdtype(mat.dtype, np.integer):
        raise TypeError(f"exact elimination needs an object or integer "
                        f"array, not {mat.dtype}")
    return mat.astype(object)


def _echelon(mat: np.ndarray):
    """Row echelon form in place (returns matrix copy, pivot column list)."""
    a = _exact_copy(mat)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # a Fraction divisor keeps int-valued object arrays exact
        a[r] = a[r] / Fraction(a[r, c])
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _echelon(mat)
    return len(pivots)


def rank_mod_p(int_mat: np.ndarray) -> int:
    """Rank of an integer matrix modulo MOD_P_PRIME.

    A lower bound for the rational rank; equality with the smaller matrix
    dimension certifies full rank over the rationals.
    """
    p = MOD_P_PRIME
    a = np.array(int_mat, dtype=object) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i, c] % p), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == rows:
            break
    return r


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b exactly; raises ValueError if singular."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("solve expects a square matrix")
    bcol = b.reshape(n, -1)
    aug = np.concatenate([a, bcol], axis=1)
    red, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    x = red[:n, n:]
    return x.reshape(b.shape) if b.ndim == 1 else x


def inverse(a: np.ndarray) -> np.ndarray:
    return solve(a, eye(a.shape[0]))


def frame_coordinates(frame: np.ndarray, target: np.ndarray):
    """(coords, residual): the solution of the Gram system frame^T frame
    coords = frame^T target, and the max-abs entry of frame @ coords -
    target, which is 0 exactly when target lies in the frame's span."""
    coords = solve(frame.T @ frame, frame.T @ target)
    return coords, max_abs(frame @ coords - target)


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Columns form an exact basis of the right kernel (possibly empty)."""
    rows, cols = mat.shape
    red, pivots = _echelon(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((cols, len(free)))
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc, k] = -red[r, fc]
    return basis


def det(mat: np.ndarray) -> Fraction:
    a = _exact_copy(mat)
    n = a.shape[0]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i, c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            d = -d
        d *= a[c, c]
        for i in range(c + 1, n):
            if a[i, c] != 0:
                a[i] = a[i] - (a[i, c] / Fraction(a[c, c])) * a[c]
    return d


def inertia(sym: np.ndarray) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of an exact symmetric matrix.

    Symmetric Gaussian reduction (congruence diagonalisation); Sylvester's
    law makes the signs basis independent.
    """
    a = _exact_copy(sym)
    n = a.shape[0]
    plus = minus = zero = 0
    rows = list(range(n))
    while rows:
        i = next((r for r in rows if a[r, r] != 0), None)
        if i is None:
            # all remaining diagonal entries vanish: find an off-diagonal
            # coupling and split it into a hyperbolic (+1, -1) pair
            pair = None
            for r in rows:
                for s in rows:
                    if s > r and a[r, s] != 0:
                        pair = (r, s)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(rows)
                break
            r, s = pair
            a[r] = a[r] + a[s]
            a[:, r] = a[:, r] + a[:, s]
            continue
        d = a[i, i]
        if d > 0:
            plus += 1
        else:
            minus += 1
        rows.remove(i)
        for r in rows:
            if a[r, i] != 0:
                coef = a[r, i] / Fraction(d)
                a[r] = a[r] - coef * a[i]
                a[:, r] = a[:, r] - coef * a[:, i]
    return plus, minus, zero


def signature(sym: np.ndarray) -> tuple[int, int]:
    p, m, z = inertia(sym)
    if z:
        raise ValueError("degenerate symmetric form")
    return p, m


# -- dtype dispatch: exact object arrays vs float arrays --------------------


def solve_any(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return solve(a, b)
    return np.linalg.solve(np.asarray(a, dtype=float),
                           np.asarray(b, dtype=float))


def nullspace_any(mat: np.ndarray) -> np.ndarray:
    if mat.dtype == object:
        return nullspace(mat)
    mat = np.asarray(mat, dtype=float)
    _, s, vt = np.linalg.svd(mat)
    keep = s > SVD_RANK_TOL * max(1.0, s[0] if len(s) else 1.0)
    return vt[int(keep.sum()):].T
