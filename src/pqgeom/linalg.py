"""The rank-n module over split quaternions and its matrix representations.

Real coordinates: H^n is identified with R^{4n} through the interleaved
basis (1, i, j, k) per entry, so the neutral scalar product

    <h, h'> = Re sum_v h_v conj(h'_v)

is block diagonal diag(1, 1, -1, -1), of signature (2n, 2n).

Structure endomorphisms: the triple J_a is right multiplication by the
*conjugated* units, J_a(x) = x conj(e_a).  Conjugation reverses products,
which turns right multiplication into a genuine algebra action, so the
matrix products satisfy the same cyclic table as i, j, k themselves:

    J_b J_c = -eps_a J_a,   J_a^2 = -eps_a Id.

Plain right multiplication by e_a would satisfy the reversed table.
Left multiplications by i, j, k satisfy the cyclic table directly and
commute with the J_a; for n = 1 they span the complementary structure
returned by left_structure_endos.

Unit multiplication.  Multiplying every entry by a unit, on either side,
is a signed permutation of the real coordinates: ``unit_action`` applies
it by indexing, side "right" the J_a and side "left" the members of
left_structure_endos, and ``unit_frame`` stacks [x, x i, x j, x k].  They
are the package's one unit multiplication on real coordinates: the fiber
frames and transitive columns of ``projspace`` and the Killing fields of
``reduction`` read them.

Matrices act on column vectors by left multiplication and therefore
commute with the right scalar action.  real_rep is the composition of
the complex 2x2-block representation with conjugation by the fixed
block-diagonal change of basis; it lands in gl_{2n}(R) and is an
algebra (hence Lie algebra) isomorphism.

Exact arithmetic.  Vectors, matrices and structures are held as scaled
integers (see ``exactla``): one object array of Python ints and one
positive int scale, the value being array / scale.  A ``PQVector`` is the
pair (C, L) of its (4n,) interleaved real coordinates, a ``PQMatrix``
the pair of its (4, n, n) coefficient array, a ``HermitianStructure``
the pairs (J, LJ) of its stacked members and (g, Lg) of its metric, and
a ``GrassmanSplit`` the pairs of its E basis, H endomorphisms, change
of basis and E form, each formed once, where the data is made.  Every
operation reads and returns such pairs (``real_rep`` and
``to_real_action`` return (N, L)), so no ``Fraction`` is formed between
calls; ``module_scalar_product`` forms one, its result.  The
``Fraction`` forms ``PQVector.entries`` and ``to_real()``,
``PQMatrix.entries``, ``HermitianStructure.J`` and ``.g`` are views
formed on request.

Batches and draws.  A coefficient array (4, ..., n, n) is a batch of
matrices over one scale: ``PQMatrix`` arithmetic, ``batch_matmul`` and
``real_rep`` act on each matrix at once.  ``random_integers`` is the
package's one block sampler of uniform integers (one
``rng.getrandbits`` call per block), and ``_random_coefficients`` draws
the integer coefficients of a batch of ``random_quaternion`` draws.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import index

import numpy as np

from . import exactla
from .algebra import EPS, IMAGINARY_UNITS, UNITS, SplitQuaternion


class RankMismatchError(ValueError):
    """Operands live in modules of different rank."""


class RedrawLimitError(RuntimeError):
    """A redraw loop rejected REDRAW_LIMIT draws in a row, or, collecting
    several results, made REDRAW_LIMIT draws per result: its sampler is
    degenerate, and the loop raises instead of spinning."""


# the bound of every redraw loop: a draw is rejected with probability at
# most about 0.4 (the weighted level sampler; the others stay below 0.25),
# so a sampler that reaches the limit is broken, not unlucky
REDRAW_LIMIT = 100


class DegenerateStructureError(ValueError):
    """A structure triple failed validation or basis extraction."""


# ---------------------------------------------------------------------------
# vectors and matrices over the split quaternions
# ---------------------------------------------------------------------------


class PQVector:
    """Column vector with split-quaternion entries (a right module element).

    Held as the pair ``scaled`` = (C, L): C the (4n,) object array of
    Python ints of the interleaved real coordinates (1, i, j, k per
    entry) and L an int >= 1, the vector being C / L.  The constructor
    takes SplitQuaternions with int or Fraction coefficients (TypeError
    on any other); ``from_scaled_integers`` takes the pair (TypeError on
    a float or complex C).  ``entries`` is the view as SplitQuaternions,
    with int coefficients (read through operator.index) when L is 1, and
    ``to_real()`` the Fraction coordinates; both are formed on each
    access.  ``==`` compares values.
    """

    __slots__ = ("scaled",)

    def __init__(self, entries):
        coefficients = [c for h in entries for c in h.coefficients()]
        self.scaled = exactla.scaled_integers(
            np.array(coefficients, dtype=object))

    @classmethod
    def from_scaled_integers(cls, C, L: int) -> "PQVector":
        """The vector C / L of interleaved integer coordinates C, scale L."""
        v = cls.__new__(cls)
        v.scaled = (exactla.integer_array(C), L)
        return v

    @property
    def rank(self) -> int:
        return len(self.scaled[0]) // 4

    @property
    def entries(self) -> tuple:
        C, L = self.scaled
        C = (exactla.from_scaled_integers(C, L) if L > 1
             else list(map(index, C)))
        return tuple(SplitQuaternion(*C[4 * v:4 * v + 4])
                     for v in range(self.rank))

    def to_real(self) -> np.ndarray:
        """The interleaved real coordinates as Fractions."""
        return exactla.from_scaled_integers(*self.scaled)

    def __eq__(self, other):
        if not isinstance(other, PQVector) or other.rank != self.rank:
            return False
        (C, L), (D, M) = self.scaled, other.scaled
        return not np.count_nonzero(C * M - D * L)

    def __repr__(self):
        return "PQVector(" + ", ".join(str(h) for h in self.entries) + ")"


class PQMatrix:
    """Square matrix of split quaternions acting on columns from the left.

    Held as the pair ``scaled`` = (C, L): C a (4, n, n) object array of
    Python ints and L an int >= 1, with coefficient u of entry (p, q)
    equal to C[u, p, q] / L, so the matrix is one batch.  The arithmetic
    below runs on C and L; ``entries`` is the view as rows of
    SplitQuaternions, formed on each access, with int coefficients (read
    through operator.index) when L is 1 and Fraction coefficients
    otherwise.
    The constructor takes rows of SplitQuaternions with int or Fraction
    coefficients (TypeError on any other); ``from_scaled_integers`` takes
    the pair (TypeError on a float or complex C), or a (4, ..., n, n)
    array for a batch of matrices, on which +, -, @, the commutator and
    ``real_rep`` act matrix by matrix.  ``==`` compares values, so
    (2C, 2L) equals (C, L).
    """

    __slots__ = ("scaled",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        coefficients = np.array([[h.coefficients() for h in row]
                                 for row in rows], dtype=object)
        self.scaled = exactla.scaled_integers(
            coefficients.reshape(n, n, 4).transpose(2, 0, 1))

    @classmethod
    def from_scaled_integers(cls, C, L: int) -> "PQMatrix":
        """The matrix C / L of a (4, n, n) integer array C and a scale L."""
        M = cls.__new__(cls)
        M.scaled = (exactla.integer_array(C), L)
        return M

    @property
    def rank(self) -> int:
        return self.scaled[0].shape[-1]

    @property
    def entries(self) -> tuple:
        C, L = self.scaled
        C = (exactla.from_scaled_integers(C, L) if L > 1 else np.array(
            list(map(index, C.reshape(-1))), dtype=object).reshape(C.shape))
        return tuple(
            tuple(SplitQuaternion(*C[:, p, q]) for q in range(self.rank))
            for p in range(self.rank))

    @classmethod
    def identity(cls, n: int) -> "PQMatrix":
        C = np.zeros((4, n, n), dtype=object)
        C[0] = np.eye(n, dtype=object)
        return cls.from_scaled_integers(C, 1)

    def __eq__(self, other):
        if not isinstance(other, PQMatrix) or other.rank != self.rank:
            return False
        diff, _ = exactla.add_scaled(*self.scaled, *other.scaled, -1)
        return not np.count_nonzero(diff)

    def _check(self, other):
        if not isinstance(other, PQMatrix) or other.rank != self.rank:
            raise RankMismatchError("rank mismatch")

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "PQMatrix":
        self._check(other)
        return PQMatrix.from_scaled_integers(
            *exactla.add_scaled(*self.scaled, *other.scaled, sign))

    def __neg__(self):
        C, L = self.scaled
        return PQMatrix.from_scaled_integers(-C, L)

    def scale(self, s) -> "PQMatrix":
        """The multiple s A; TypeError unless s is an int or a Fraction."""
        if not isinstance(s, (int, Fraction)):
            raise TypeError(f"cannot scale exactly by {type(s).__name__}")
        C, L = self.scaled
        return PQMatrix.from_scaled_integers(C * s.numerator,
                                             L * s.denominator)

    def __matmul__(self, other):
        C, L = self.scaled
        if isinstance(other, PQVector):
            if other.rank != self.rank:
                raise RankMismatchError("rank mismatch")
            V, LV = other.scaled
            # the coordinates as a (4, n, 1) coefficient batch and back
            P = batch_matmul(C, V.reshape(-1, 4).T[..., None])
            return PQVector.from_scaled_integers(P[..., 0].T.reshape(-1),
                                                 L * LV)
        self._check(other)
        B, LB = other.scaled
        return PQMatrix.from_scaled_integers(batch_matmul(C, B), L * LB)

    def commutator(self, other: "PQMatrix") -> "PQMatrix":
        return self @ other - other @ self

    def conj_transpose(self) -> "PQMatrix":
        C, L = self.scaled
        return PQMatrix.from_scaled_integers(
            np.concatenate([C[:1], -C[1:]]).transpose(0, 2, 1), L)

    def to_real_action(self) -> tuple[np.ndarray, int]:
        """(N, L): the 4n x 4n real matrix N / L of the left action on
        interleaved coordinates, block (p, q) left_mult_matrix of entry
        (p, q), formed on the coefficient batch at once."""
        C, L = self.scaled
        n = self.rank
        blocks = left_mult_matrix(SplitQuaternion(*C))    # (4, 4, n, n)
        return blocks.transpose(2, 0, 3, 1).reshape(4 * n, 4 * n), L

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in row) + "]"
                for row in self.entries]
        return "PQMatrix(" + ", ".join(rows) + ")"


# (s, t, u, sign): e_s e_t = sign e_u for the units e = (1, i, j, k)
_UNIT_PRODUCTS = tuple(
    (s, t, u, c) for s, es in enumerate(UNITS) for t, et in enumerate(UNITS)
    for u, c in enumerate((es * et).coefficients()) if c)


def batch_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix products of split-quaternion matrices held as coefficient
    arrays, axis 0 the four coefficients: C[:, ..., p, q] =
    sum_r A[:, ..., p, r] B[:, ..., r, q], broadcast over the axes in
    between.  Coefficient u of the product is the signed sum of the
    coefficient products A[s] @ B[t] with e_s e_t = +-e_u: sixteen
    matmuls, four per coefficient."""
    out = [0] * 4
    for s, t, u, sign in _UNIT_PRODUCTS:
        P = np.matmul(A[s], B[t])
        out[u] = out[u] + P if sign > 0 else out[u] - P
    return np.stack(out)


def left_mult_matrix(q: SplitQuaternion) -> np.ndarray:
    """4x4 real matrix of x -> q x on (1, i, j, k) coordinates."""
    a, b, c, d = q.coefficients()
    return np.array([
        [a, -b, c, d],
        [b, a, d, -c],
        [c, d, a, -b],
        [d, -c, b, a],
    ], dtype=object)


def right_mult_matrix(q: SplitQuaternion) -> np.ndarray:
    """4x4 real matrix of x -> x q on (1, i, j, k) coordinates."""
    a, b, c, d = q.coefficients()
    return np.array([
        [a, -b, c, d],
        [b, a, -d, c],
        [c, -d, a, b],
        [d, c, -b, a],
    ], dtype=object)


# ---------------------------------------------------------------------------
# scalar product and structure endomorphisms
# ---------------------------------------------------------------------------


def module_scalar_product(h: PQVector, hp: PQVector) -> Fraction:
    """Re sum h_v conj(h'_v); agrees with the hermitian form of the
    complex picture, Re sum (z1 z1bar' - z2 z2bar').  One Fraction, from
    the integer coordinates: C^T g D / (L M)."""
    if h.rank != hp.rank:
        raise RankMismatchError("rank mismatch")
    (C, L), (D, M) = h.scaled, hp.scaled
    return Fraction(C @ apply_metric(D), L * M)


def metric_matrix(n: int) -> np.ndarray:
    """The neutral metric diag(1, 1, -1, -1, ...) as Python ints."""
    return np.diag(np.array([1, 1, -1, -1] * n, dtype=object))


def apply_metric(X) -> np.ndarray:
    """g @ X for the neutral metric g = metric_matrix(n), on axis 0 of X
    (4n rows): a sign flip of the j and k coordinates, with no product,
    exact on every dtype.  X @ g is apply_metric(X.T).T.  The copy is
    C-ordered, so its 4-row blocks are one reshaped view of it."""
    out = np.array(X, order="C")
    flipped = out.reshape(len(out) // 4, 4, *out.shape[1:])[:, 2:]
    np.negative(flipped, out=flipped)
    return out


def _fraction_view(N, L: int) -> np.ndarray:
    """The Fraction array N / L, read-only when N is."""
    view = exactla.from_scaled_integers(N, L)
    view.flags.writeable = N.flags.writeable
    return view


class HermitianStructure:
    """A triple (J1, J2, J3) of endomorphisms with the cyclic product
    table, all skew-symmetric for a neutral metric g.

    Held as scaled integers, formed once at construction: ``scaled_J`` is
    the pair (J, LJ) of the stacked (3, d, d) integer array with
    J_a = J[a] / LJ, and ``scaled_g`` the pair (g, Lg) of the metric.
    Every reader in the package computes on these pairs; ``J`` (a tuple of
    three arrays) and ``g`` are the Fraction views, formed on first
    access.  The members and the metric are exact arrays (TypeError on an
    entry that is not an int or a Fraction), or with ``scales=(LJ, Lg)``
    integer arrays over those scales (TypeError on a float or complex
    dtype).

    A stack of structures on one metric has members with leading axes,
    (..., 3, d, d), and one member scale per structure; the relations are
    checked on the whole stack, on the dtype of the members (machine
    integers too), and the residuals are the largest over the stack.
    """

    def __init__(self, J1, J2, J3, g, validate: bool = True, *,
                 scales=None):
        if scales is None:
            self.scaled_J = exactla.scaled_integers(np.stack([J1, J2, J3]))
            self.scaled_g = exactla.scaled_integers(g)
        else:
            self.scaled_J = (exactla.integer_array(
                np.stack([J1, J2, J3], axis=-3)), scales[0])
            self.scaled_g = (exactla.integer_array(g), scales[1])
        if validate:
            self.check_relations()

    @functools.cached_property
    def J(self) -> tuple:
        return tuple(_fraction_view(*self.scaled_J))

    @functools.cached_property
    def g(self) -> np.ndarray:
        return _fraction_view(*self.scaled_g)

    @property
    def dim(self) -> int:
        return self.scaled_g[0].shape[0]

    @property
    def rank(self) -> int:
        return self.dim // 4

    def check_relations(self):
        """DegenerateStructureError unless the cyclic product table and
        the metric skewness hold exactly."""
        if self._comrel_defect().any() or self._skew_defect().any():
            res = max(self.comrel_residual(), self.skew_residual())
            raise DegenerateStructureError(
                f"structure relations violated, residual {res}")

    def _comrel_defect(self) -> np.ndarray:
        """LJ^2 times the deviations (..., 3, 3, d, d) of the nine
        products J_a J_b from the cyclic table, all formed by one batch
        product."""
        J, L = self.scaled_J
        L = np.asarray(L, dtype=J.dtype)[..., None, None]
        # every product J_a J_b carries the scale L^2, so the table does too
        table = np.empty(J.shape[:-3] + (3, 3) + J.shape[-2:], dtype=J.dtype)
        eye = np.eye(self.dim, dtype=J.dtype)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            table[..., a, a, :, :] = eye * (-EPS[a] * L * L)
            table[..., a, b, :, :] = J[..., c, :, :] * (-EPS[c] * L)
            table[..., b, a, :, :] = -table[..., a, b, :, :]
        return J[..., :, None, :, :] @ J[..., None, :, :, :] - table

    def _skew_defect(self) -> np.ndarray:
        """LJ Lg times J_a^T g + g J_a, for the three a."""
        (J, _), (g, _) = self.scaled_J, self.scaled_g
        return J.swapaxes(-1, -2) @ g + g @ J

    def comrel_residual(self) -> Fraction:
        """Max deviation over the nine products J_a J_b from the cyclic
        table."""
        return exactla.stack_max_abs(self._comrel_defect(),
                                     self.scaled_J[1] ** 2)

    def skew_residual(self) -> Fraction:
        return exactla.stack_max_abs(self._skew_defect(),
                                     self.scaled_J[1] * self.scaled_g[1])

    def signature(self):
        # the scale is positive, so g / Lg has the inertia of g
        return exactla.signature(self.scaled_g[0])

    def span_coefficients(self, A: np.ndarray):
        """Exact coefficients (c1, c2, c3) with A = sum c_a J_a, or None."""
        J, LJ = self.scaled_J
        (C, LC), residual = exactla.frame_coordinates(J.reshape(3, -1).T,
                                                      A.reshape(-1))
        return None if residual != 0 else tuple(Fraction(c * LJ, LC)
                                                for c in C)


@functools.cache
def _block_structure(n: int, side: str) -> HermitianStructure:
    """Structure on H^n acting entrywise by right multiplication with the
    conjugated units or (side "left") left multiplication with the units,
    with the neutral metric; built once per (n, side) on integers, with
    read-only arrays."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    blocks = [right_mult_matrix(u.conj()) if side == "right"
              else left_mult_matrix(u) for u in IMAGINARY_UNITS]
    eye = np.eye(n, dtype=object)
    H = HermitianStructure(*[np.kron(eye, block) for block in blocks],
                           metric_matrix(n), scales=(1, 1))
    for arr in (H.scaled_J[0], H.scaled_g[0]):
        arr.flags.writeable = False
    return H


def structure_endos(n: int) -> HermitianStructure:
    """Standard structure on H^n: J_a = right multiplication by conj(e_a),
    with the metric of the neutral scalar product (shared, read-only)."""
    return _block_structure(n, "right")


@functools.cache
def _unit_permutation(n: int, a: int, side: str):
    """(cols, neg) of the signed permutation _block_structure(n, side).J[a]:
    row r has its one nonzero entry in column cols[r], and that entry is -1
    exactly for the rows r listed in neg."""
    Ja = _block_structure(n, side).scaled_J[0][a]
    cols = np.argmax(Ja != 0, axis=1)
    return cols, np.flatnonzero(Ja[np.arange(4 * n), cols] < 0)


def unit_action(X, a: int, side: str) -> np.ndarray:
    """Unit multiplication of every entry, on axis 0 of real coordinates
    X: side "right" is J_a @ X of structure_endos, x -> x conj(e_a) (right
    multiplication by e_a itself is its negative), and side "left" is the
    member a of left_structure_endos, x -> e_a x.  A signed permutation,
    applied by indexing and negation, exact on every dtype."""
    cols, neg = _unit_permutation(len(X) // 4, a, side)
    out = np.asarray(X)[cols]
    out[neg] = -out[neg]
    return out


def unit_frame(X) -> np.ndarray:
    """[X, X i, X j, X k], the right unit multiples of real coordinates X
    (axis 0), stacked on a new last axis, on the dtype of X:
    X e_a = -unit_action(X, a, "right")."""
    return np.stack([X] + [-unit_action(X, a, "right") for a in range(3)],
                    axis=-1)


def left_structure_endos(n: int) -> HermitianStructure:
    """The commuting structure: left multiplication by i, j, k (entrywise).

    Satisfies the cyclic table directly and commutes with the standard
    (right) structure; for n = 1 the two spans exhaust the conformal
    algebra's semisimple part.  Shared and read-only like structure_endos.
    """
    return _block_structure(n, "left")


# ---------------------------------------------------------------------------
# real representation through the complex picture
# ---------------------------------------------------------------------------


def real_rep(A: PQMatrix) -> tuple[np.ndarray, int]:
    """(N, L): the 2n x 2n all-real image N / L of the complex block
    representation, N an integer array and L the scale of A; for a batch
    of matrices (coefficient array (4, ..., n, n)) one image per matrix,
    N of shape (..., 2n, 2n).

    Entry q = a + b i + c j + d k maps to the block

        [[ a + d,  b + c ],
         [ c - b,  a - d ]],

    which is conjugation of the complex block [[z1, conj(z2)], [z2, conj(z1)]]
    by the fixed unitary; the composition is an algebra isomorphism onto
    gl_{2n}(R), computed here entirely in the base scalars, one block
    position at a time for all entries.
    """
    (a, b, c, d), L = A.scaled
    n = A.rank
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=a.dtype)
    out[..., 0::2, 0::2] = a + d
    out[..., 0::2, 1::2] = b + c
    out[..., 1::2, 0::2] = c - b
    out[..., 1::2, 1::2] = a - d
    return out, L


def symplectic_form(n: int) -> np.ndarray:
    """Block-diagonal standard form, blocks [[0, 1], [-1, 0]], as an
    object array of Python ints."""
    return np.kron(np.eye(n, dtype=object),
                   np.array([[0, 1], [-1, 0]], dtype=object))


def sp_membership(A: PQMatrix):
    """(is_member, residual): does real_rep(A) satisfy R^T F = -F R?

    Membership is equivalent to A being anti-hermitian entrywise, i.e. to
    the left action being skew for the neutral scalar product.
    """
    R, L = real_rep(A)
    F = symplectic_form(A.rank)
    residual = Fraction(exactla.max_abs(R.T @ F + F @ R), L)
    return residual == 0, residual


def sp_group_membership(M: PQMatrix) -> Fraction:
    """Residual of the two group conditions: the real representation
    preserves the symplectic form, and the matrix preserves the neutral
    scalar product (the hermitian form of the complex picture)."""
    R, L = real_rep(M)
    F = symplectic_form(M.rank)
    r1 = Fraction(exactla.max_abs(R.T @ F @ R - F * (L * L)), L * L)
    P, LP = (M.conj_transpose() @ M).scaled
    ident, _ = PQMatrix.identity(M.rank).scaled
    return max(r1, Fraction(exactla.max_abs(P - ident * LP), LP))


# ---------------------------------------------------------------------------
# adopted bases and the tensor (Grassman) splitting
# ---------------------------------------------------------------------------


def adopted_basis(H: HermitianStructure, rng=None) -> list[np.ndarray]:
    """Seed vectors e_1..e_n whose quadruples (e, J1 e, J2 e, J3 e)
    assemble a basis of the whole space.

    Greedy: walk the standard basis (then seeded random vectors) and keep
    any seed whose quadruple is exactly independent of everything kept so
    far.  Existence holds for every valid structure, but single seeds can
    generate defective (2-dimensional) submodules, so candidates are
    skipped rather than trusted.
    """
    dim = H.dim
    n = H.rank
    seeds = []
    kept = np.empty((dim, 0), dtype=object)
    candidates = list(np.eye(dim, dtype=object))
    if rng is not None:
        candidates += list(random_integers(rng, (4 * dim, dim), -5, 5))
    current_rank = 0
    # the images J_a v are taken over the common scale of the J_a, which
    # scales columns only and so leaves every rank unchanged
    Js, _ = H.scaled_J
    for v in candidates:
        quad = np.column_stack([v, *(Js @ v)])
        trial = np.concatenate([kept, quad], axis=1)
        if exactla.rank(trial) == current_rank + 4:
            kept = trial
            current_rank += 4
            seeds.append(v)
            if len(seeds) == n:
                return seeds
    raise DegenerateStructureError("could not complete an adopted basis")


class GrassmanSplit:
    """Tensor factorisation V = E (x) H exhibited by explicit data, held as
    scaled integers (see ``exactla``): each of ``e_basis``, ``h_endos``,
    ``change`` and ``omega_e`` is a pair (N, L) of an object array of
    Python ints and a positive int scale, the value being N / L.

    Attributes:
        e_basis: dim x 2n matrix whose columns span the E factor (the seeds
            and then their J2 images).
        h_endos: the stacked pair (Id - J3, J1 + J2) of endomorphisms
            spanning H, shape (2, dim, dim).
        change: dim x dim matrix whose columns are h_b(e_i), ordered with
            the H index fastest; in these coordinates every J_a is block
            diagonal with identical 2x2 blocks.
        omega_e: the 2n x 2n form on E; omega_h, the int array
            [[0, 1], [-1, 0]] on H; g = omega_e (x) omega_h.
    """

    def __init__(self, e_basis, h_endos, change, omega_e, omega_h):
        self.e_basis = e_basis
        self.h_endos = h_endos
        self.change = change
        self.omega_e = omega_e
        self.omega_h = omega_h

    def isotropic_member(self, c, s, e_coords) -> tuple[np.ndarray, int]:
        """(V, L): the vector V / L of the isotropic family, (c h1 + s h2)
        applied to the E-vector with the given coordinates; c, s and the
        coordinates are ints or Fractions."""
        (h, Lh), (E, LE) = self.h_endos, self.e_basis
        cs, Lcs = exactla.scaled_integers(np.array([c, s]))
        k, Lk = exactla.scaled_integers(np.array(e_coords))
        return (cs[0] * h[0] + cs[1] * h[1]) @ (E @ k), Lcs * Lh * LE * Lk


# 2x2 blocks of the structure triple in any tensor basis (h1, h2), as
# object arrays of Python ints
TENSOR_BLOCKS = (
    np.array([[0, -1], [1, 0]], dtype=object),
    np.array([[0, 1], [1, 0]], dtype=object),
    np.array([[-1, 0], [0, 1]], dtype=object),
)


def grassman_split(H: HermitianStructure) -> GrassmanSplit:
    """Split V into E (x) H with h1 = Id - J3, h2 = J1 + J2.

    E is spanned by adopted seeds e_i together with J2 e_i; the images
    h_b(e) for e in that span form a basis in which each J_a acts as
    Id (x) (2x2 block), and the metric factors as omega_e (x) omega_h
    with omega_h = [[0, 1], [-1, 0]].  Computed on the integer pairs of
    H: with J = LJ J_a, every vector and endomorphism below is over LJ,
    so the change of basis is over LJ^2 and its Gram matrix over
    LJ^4 Lg.
    """
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    dim = H.dim
    seeds = np.stack(adopted_basis(H), axis=1)
    h = np.stack([np.eye(dim, dtype=object) * LJ - J[2], J[0] + J[1]])
    E = np.concatenate([seeds * LJ, J[1] @ seeds], axis=1)
    # columns h1 e, h2 e for each column e of E in turn
    C = (h @ E).transpose(1, 2, 0).reshape(dim, -1)
    if exactla.rank(C) != dim:
        raise DegenerateStructureError("tensor basis is degenerate")
    gt = C.T @ g @ C
    omega_e = gt[0::2, 1::2]     # omega_e[i, j] = gt[2i, 2j + 1]
    omega_h = np.array([[0, 1], [-1, 0]], dtype=object)
    # factorisation check: gt must be exactly omega_e (x) omega_h
    if (gt != np.kron(omega_e, omega_h)).any():
        raise DegenerateStructureError("metric does not factor over the split")
    return GrassmanSplit((E, LJ), (h, LJ), (C, LJ * LJ),
                         (omega_e, LJ ** 4 * Lg), omega_h)


# ---------------------------------------------------------------------------
# plain-text matrix serialisation
# ---------------------------------------------------------------------------


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in np.asarray(mat))


def parse_matrix(text: str) -> np.ndarray:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix text")
    return exactla.fracarray(rows)


def format_named_matrices(named: dict[str, np.ndarray]) -> str:
    return "\n\n".join(f"{name}:\n{format_matrix(mat)}"
                       for name, mat in named.items()) + "\n"


def parse_named_matrices(text: str) -> dict[str, np.ndarray]:
    named = {}
    chunks = [c for c in text.split("\n\n") if c.strip()]
    for chunk in chunks:
        head, _, body = chunk.partition("\n")
        if not head.rstrip().endswith(":"):
            raise ValueError(f"missing name header in {head!r}")
        named[head.rstrip()[:-1].strip()] = parse_matrix(body)
    return named


def structure_to_text(H: HermitianStructure) -> str:
    return format_named_matrices(
        {"J1": H.J[0], "J2": H.J[1], "J3": H.J[2], "g": H.g})


def structure_from_text(text: str) -> HermitianStructure:
    named = parse_named_matrices(text)
    return HermitianStructure(named["J1"], named["J2"], named["J3"], named["g"])


# ---------------------------------------------------------------------------
# seeded random generators (exact scalars)
# ---------------------------------------------------------------------------


# words of rng.getrandbits, the unit of random_integers
_WORD = 1 << 32


def random_quaternion(rng, span: int = 5) -> SplitQuaternion:
    return SplitQuaternion(*[
        Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))
        for _ in range(4)])


def random_integers(rng, shape, low: int, high: int,
                    dtype=object) -> np.ndarray:
    """Array of the given shape of independent uniform integers in
    [low, high], in row-major order: the package's one block sampler.

    The whole block comes from one rng.getrandbits(32 m) call, read as m
    32-bit words in the order the generator makes them (the first word is
    the least significant).  A word w below the largest multiple M of the
    span high - low + 1 that fits in 32 bits gives low + w % span; the
    words at or above M are rejected and replaced by a further call for
    as many words, until the block is full, so every value is uniform.
    The entries are Python ints (dtype object) or machine integers (dtype
    np.int64).  ValueError on an empty range or a span above 2^32.  No
    numpy.random generator is formed."""
    span = high - low + 1
    if not 1 <= span <= _WORD:
        raise ValueError(f"cannot draw from [{low}, {high}]: the span must "
                         f"be between 1 and 2^32")
    size = math.prod(shape)
    limit = _WORD - _WORD % span
    words = np.empty(0, dtype="<i8")
    while len(words) < size:
        m = size - len(words)
        # each 32-bit word into the low half of a little-endian int64
        fresh = np.zeros(m, dtype="<i8")
        fresh.view("<u4")[0::2] = np.frombuffer(
            rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        keep = fresh < limit
        if not keep.all():
            fresh = fresh[keep]
        words = np.concatenate([words, fresh]) if len(words) else fresh
    words %= span
    words += low
    return words.astype(dtype, copy=False).reshape(shape)


def _random_coefficients(rng, count: int, span: int, dtype=object):
    """(C, L): the coefficients of count random_quaternion(rng, span)
    draws, from the same rng calls in the same order, as the columns of a
    (4, count) integer array C over the scale L; no Fraction is formed.
    C holds Python ints (dtype object) or, with dtype np.int64, machine
    integers, each at most 6 span."""
    draws = [x for _ in range(4 * count)
             for x in (rng.randint(-span, span), rng.choice((1, 1, 2, 3)))]
    nums, dens = draws[0::2], draws[1::2]
    L = math.lcm(*set(dens))
    C = np.array([num * (L // den) for num, den in zip(nums, dens)],
                 dtype=dtype)
    return C.reshape(count, 4).T, L


def random_antihermitian(rng, n: int) -> PQMatrix:
    """Random member of the skew algebra: diagonal imaginary, opposite
    entries related by negated conjugation.  The draws are
    random_quaternion(rng, 3) for the upper triangle, diagonal included,
    row by row; a diagonal draw keeps its imaginary part."""
    C, L = _random_coefficients(rng, n * (n + 1) // 2, 3)
    rows, cols = np.triu_indices(n)
    M = np.zeros((4, n, n), dtype=object)
    M[:, cols, rows] = np.concatenate([-C[:1], C[1:]])   # -conj
    M[:, rows, cols] = C
    M[0, range(n), range(n)] = 0
    return PQMatrix.from_scaled_integers(M, L)
