"""Dense linear algebra over exact rationals.

numpy object arrays of ``fractions.Fraction`` support +, *, @ and slicing,
but none of ``numpy.linalg``.  This module supplies the missing pieces
(elimination-based rank, solve, inverse, nullspace, inertia) with exact
pivoting; ``rank`` also serves the full-rank certificates of integer
matrices (a square matrix is invertible exactly when its rank is full).
Everything is deterministic.

Scaled integers.  Every ``Fraction`` operation normalises by a gcd, so
object arithmetic on Python ints is far cheaper.  The package therefore
hands one exact format from routine to routine, the common-denominator
pair: ``scaled_integers(arr)`` returns an object array N of Python ints
and the lcm L of the entry denominators with arr == N / L (TypeError on
any entry that is not an int or a Fraction, the check of
``require_exact``), and ``from_scaled_integers(N, L)`` turns a pair into
a ``Fraction`` array.  Python ints do not overflow; machine integers do,
silently, so an int64 array is used only under a checked bound, and
``words(arr, growth)`` is the one place that decides it: arr as an int64
array when its entries are integers and growth * max(1, max|arr|) < 2^62,
None otherwise, with growth the caller's bound on every entry and partial
sum it forms per unit of the entries of arr.  Object entries are read
through ``operator.index`` (never truncated), and an int64 array is only
bounded by its max and min.  A caller whose bound fails runs the same
expressions on Python ints.  The d^4 curvature tensors use it
(``curvature.CurvatureTensor``, its builders and its kernels, each of
which states its growth), and ``contract`` keeps the dtype of its tensor.
A pair built by its integer array (``PQVector`` and
``PQMatrix.from_scaled_integers``, ``BilinearForm(N, L)``,
``HermitianStructure(..., scales=...)``) passes that array through
``integer_array``, which refuses a float or complex dtype and reads no
entry, so the int64 and object stacks of the package pass at no cost.  ``linalg.PQVector`` (and with it every point of
``projspace`` and ``reduction``), ``linalg.PQMatrix``,
``linalg.HermitianStructure``, ``linalg.GrassmanSplit``,
``forms.BilinearForm``, ``forms.FourForm``, the rotations of ``forms``,
``curvature.CurvatureTensor`` with its metric, the tables of
``curvature.SymmetricDecomposition``, the diagnostics of ``curvature``
(Ricci forms, structure traces, Jacobi operators and their restrictions)
and the directions and frames of ``reduction`` are such pairs, built
once where the data is made.  So ``scaled_integers`` runs only where
exact data enters (a vector, structure, form, metric or matrix built
from ``Fraction``s, a direction handed to ``reduction.reduced_jacobi`` or
``curvature.jacobi_spectrum_report``), and ``from_scaled_integers`` only
in the ``Fraction`` views (``fractions()``, ``matrix``, ``array``,
``entries``, ``to_real()``, ``J``/``g``) and the text format
``curvature_to_text``; scalar results (residuals, constants, power
sums) are single ``Fraction``s; the syntax-tree lint of
tests/test_roundtrip_lint.py holds every module to that.  A d^4
curvature tensor is held as the pair (N, L) from builder to residual.
``contract(T, A, axis)`` contracts one axis of an integer tensor with
a small integer matrix, one slice operation per nonzero entry of A, so a
product with a sparse matrix (a signed permutation, or at most two
nonzeros per row) costs about d^4 operations on a d^4 tensor, not d^5.
Its users: the four change-of-basis contractions of
``curvature.weyl_sample``, the commutators [R(X, Y), J_a] of
``curvature.normalizes_structure``, the slot contractions of the
4-form action in ``forms.lie_derivative_residual``, and the Killing
fields of the quotient records on stacks of points
(``reduction.flat_moment_gradient_check`` on int64,
``reduction.isotropy_moment_traces`` on Python ints), each a weighted
signed permutation.

Integer elimination.  ``_echelon`` runs fraction-free Gauss-Jordan on the
scaled integers: it eliminates a pivot column from the rows that are
nonzero there, row_i <- row_i * (p / g) - row_r * (f / g) with
g = gcd(p, f), and divides each new row by its content.  It returns the
integer rows and the pivot list, without dividing by the pivots.  Every
elimination result is then read off those rows in one format, an object
array of Python ints and one positive scale: ``solve(a, b)`` and
``inverse(a)`` return (X, L), ``nullspace`` returns (N, L, free), and
``frame_coordinates`` returns its coordinates as such a pair beside the
residual.  The scale is the lcm of the pivots, the least common
denominator of the result: every echelon row has content 1, so the
entries of a pivot row over its pivot are in lowest terms together.
``rank`` reads only the pivot count.  ``inertia`` reduces by
fraction-free congruences, divides each remaining block by its content,
and checks that its input is square and symmetric.  No routine forms a
``Fraction`` array; the callers keep the pairs (``curvature.weyl_sample``,
``scalar_curvature``, the tensor splitting of ``linalg``) and form a
``Fraction`` view only where one is asked for.

Kernel frames.  ``nullspace`` returns (N, L, free): the columns of N / L
are the reduced-echelon kernel basis, with N[free] == L * I.  A vector
T / LT of their span therefore has the coordinates T[free] / LT, and
N @ T[free] == L * T is the integer test that T lies in the span: no
Gram solve.  Its callers (``projspace.quotient_frame``, the one
routine that builds the frame of every quotient from its
``projspace.Quotient`` record, for ``projspace.induced_geometry``,
``reduction.flat_reduced_structure`` and
``reduction.admissible_directions``; ``reduction.orthogonality_check``,
on the rows of a record, and ``curvature.restrict_to_complement``) read
the coordinates off that way; ``frame_coordinates`` serves frames that
are not kernel bases (``HermitianStructure.span_coefficients``, the
bracket coordinates of ``curvature``, and the CLI check
lift-independence, whose frame is the integer kernel frame of
``induced_geometry`` translated along the fiber).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index

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


def max_abs(arr) -> Fraction | int:
    """Max absolute entry; Fraction 0 for empty input.  The larger of the
    array max and the negated array min: comparisons only, no new
    Fraction per entry."""
    flat = np.asarray(arr).reshape(-1)
    if flat.size == 0:
        return Fraction(0)
    return max(flat.max(), -flat.min())


def stack_max_abs(N, L) -> Fraction:
    """max |N[b] / L[b]| over a stack of integer arrays N[b], one per
    entry of the scales L (the leading axes of N), or max |N / L| for one
    scale: one Fraction per array with a nonzero entry, from its max_abs
    read as a Python int through operator.index (machine integers need
    no abs; a float raises TypeError, not truncated), and Fraction 0 when
    every entry is 0."""
    scales = np.reshape(L, -1).tolist()
    N = np.reshape(N, (len(scales), -1))
    return max((Fraction(index(max_abs(N[b])), scales[b])
                for b in np.flatnonzero((N != 0).any(axis=1)).tolist()),
               default=Fraction(0))


def words(arr, growth: int = 1) -> np.ndarray | None:
    """arr as an int64 array when its entries are integers and
    growth * max(1, max|arr|) < 2^62; None otherwise (an entry that is not
    an integer, a float or complex dtype, or a failed bound).  growth is
    the caller's bound on every entry and partial sum it forms, per unit
    of the entries of arr; the max(1, .) keeps the growth itself, which
    the caller's int64 expressions read as a scalar, below 2^62 too.
    Object entries are read through operator.index (Python and numpy ints
    pass, a Fraction or a float gives None, never truncated); an integer
    dtype is bounded by its max and min alone, and an int64 array is
    returned as it is."""
    arr = np.asarray(arr)
    if arr.dtype == object:
        try:
            ints = list(map(index, arr.reshape(-1)))
        except TypeError:
            return None
        top = max(max(ints, default=0), -min(ints, default=0))
    elif arr.dtype.kind in "biu":
        ints = arr
        top = max(int(arr.max()), -int(arr.min())) if arr.size else 0
    else:
        return None
    if growth * max(1, top) >= 2 ** 62:
        return None
    if arr.dtype == np.int64:
        return arr
    return np.array(ints, dtype=np.int64).reshape(arr.shape)


def require_exact(arr) -> np.ndarray:
    """The entries of arr, flattened; TypeError on any entry that is not
    an int or a Fraction.  The test runs once per entry type."""
    flat = np.asarray(arr).reshape(-1)
    for kind in set(map(type, flat)):
        if not issubclass(kind, (Fraction, int, np.integer)):
            raise TypeError(f"exact arithmetic needs int or Fraction "
                            f"entries, not {kind.__name__}")
    return flat


def integer_array(arr) -> np.ndarray:
    """arr as an array, the integer half of a scaled pair; TypeError on a
    float or complex dtype.  Only the dtype is read, no entry, so int64
    and object arrays pass at no cost; the views read the entries of an
    object array through operator.index."""
    arr = np.asarray(arr)
    if arr.dtype.kind in "fc":
        raise TypeError(f"a scaled-integer pair needs integer entries, "
                        f"not {arr.dtype}")
    return arr


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
    Entries are read through operator.index: Python and numpy ints pass,
    and a float or a Fraction entry raises TypeError, not truncated.

    Tensors repeat few values, so each distinct value becomes one
    Fraction, shared by its entries (Fractions are immutable)."""
    out = np.empty(np.shape(N), dtype=object)
    flat = out.reshape(-1)
    made = {}
    for i, x in enumerate(map(index, np.asarray(N).reshape(-1))):
        q = made.get(x)
        if q is None:
            q = made[x] = Fraction(x, L)
        flat[i] = q
    return out


def add_scaled(A, LA: int, B, LB: int, sign: int = 1):
    """(N, L) with N / L = A / LA + sign * B / LB for integer arrays A and
    B, over the lcm L of the two scales.  B is rescaled and added one
    leading slice at a time, so besides N no temporary larger than a
    slice is formed (for a d^4 tensor, d^3 entries)."""
    L = math.lcm(LA, LB)
    N = A * (L // LA)
    c = sign * (L // LB)
    for i in range(len(N)):
        N[i] += B[i] * c
    return N, L


def scaled_distance(A, LA: int, B, LB: int) -> Fraction:
    """max |A / LA - B / LB| over the entries of two integer arrays (of
    Python ints or machine integers)."""
    return stack_max_abs(*add_scaled(A, LA, B, LB, -1))


def contract(T, A, axis: int) -> np.ndarray:
    """out[..., i, ...] = sum_j A[i, j] T[..., j, ...] on `axis` of an
    integer array T, for an integer matrix A: the array
    np.moveaxis(np.tensordot(A, T, axes=([1], [axis])), 0, axis), formed
    by one slice operation per nonzero entry of A, in the dtype of T (an
    int64 T is the caller's to bound: each entry is at most the max
    absolute row sum of A times max|T|).  TypeError on a nonzero entry of
    A that is not an integer."""
    T = np.moveaxis(np.asarray(T), axis, 0)
    out = np.zeros((len(A),) + T.shape[1:], dtype=T.dtype)
    for i, j in zip(*np.nonzero(A)):
        if not isinstance(A[i, j], (int, np.integer)):
            raise TypeError(f"contract needs an integer matrix, not "
                            f"{type(A[i, j]).__name__} entries")
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


def rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _echelon(mat)
    return len(pivots)


def _pivot_scale(red: np.ndarray, pivots: list[int]):
    """(heads, L): the pivots red[r, pivots[r]] of an echelon form and
    their lcm L, over which every reduced-echelon entry is an integer."""
    heads = np.array([red[r, c] for r, c in enumerate(pivots)], dtype=object)
    return heads, math.lcm(*heads)


def solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(X, L) with a (X / L) = b exactly: X an object array of Python ints
    of the shape of b, L the least common denominator of the solution.
    ValueError if a is singular."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("solve expects a square matrix")
    red, pivots = _echelon(np.concatenate([a, b.reshape(n, -1)], axis=1))
    if pivots[:n] != list(range(n)):
        raise ValueError("singular system")
    heads, L = _pivot_scale(red, pivots)
    # row r of the solution is red[r, n:] / heads[r]
    X = red[:n, n:] * (L // heads)[:, None]
    return X.reshape(b.shape), L


def inverse(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(X, L) with X / L the inverse of a; ValueError if a is singular."""
    return solve(a, np.eye(a.shape[0], dtype=object))


def frame_coordinates(frame: np.ndarray, target: np.ndarray):
    """((C, LC), residual): C / LC solves the Gram system frame^T frame
    coords = frame^T target, and the residual is the max-abs entry of
    frame @ coords - target, 0 exactly when target lies in the frame's
    span."""
    F, LF = scaled_integers(frame)
    T, LT = scaled_integers(target)
    # both sides times LF^2 LT: F^T F LT coords = F^T T LF
    C, LC = solve((F.T @ F) * LT, (F.T @ T) * LF)
    residual = max_abs((F @ C) * LT - T * (LF * LC))
    return (C, LC), Fraction(residual, LF * LC * LT)


def nullspace(mat: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """(N, L, free): the columns of N / L are the reduced-echelon basis of
    the right kernel (possibly empty), one column per free column of the
    echelon form, with N[free] == L * I.  N is an object array of Python
    ints and L the lcm of the pivots, the least common denominator of the
    basis, since every echelon row has content 1.

    A vector T / LT lies in the kernel exactly when N @ T[free] == L * T,
    and then T[free] / LT are its coordinates in the basis.  Rows scaled
    by nonzero factors have the same reduced echelon form, so the kernel
    of a system can be taken at integer multiples of its rows."""
    cols = mat.shape[1]
    red, pivots = _echelon(mat)
    free = [c for c in range(cols) if c not in pivots]
    heads, L = _pivot_scale(red, pivots)
    N = np.zeros((cols, len(free)), dtype=object)
    N[free, range(len(free))] = L
    # the basis entries of pivot row r are -red[r, free] / heads[r]
    N[pivots] = -red[:len(pivots)][:, free] * (L // heads)[:, None]
    return N, L, free


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
