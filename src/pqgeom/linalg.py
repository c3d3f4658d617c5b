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

Matrices act on column vectors by left multiplication and therefore
commute with the right scalar action.  real_rep is the composition of
the complex 2x2-block representation with conjugation by the fixed
block-diagonal change of basis; it lands in gl_{2n}(R) and is an
algebra (hence Lie algebra) isomorphism.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import EPS, IMAGINARY_UNITS, SplitQuaternion, scalar_product


class RankMismatchError(ValueError):
    """Operands live in modules of different rank."""


class DegenerateStructureError(ValueError):
    """A structure triple failed validation or basis extraction."""


# ---------------------------------------------------------------------------
# vectors and matrices over the split quaternions
# ---------------------------------------------------------------------------


class PQVector:
    """Column vector with split-quaternion entries (a right module element)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, PQVector) and self.entries == other.entries

    def __add__(self, other):
        self._check(other)
        return PQVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other):
        self._check(other)
        return PQVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return PQVector(-a for a in self.entries)

    def right_mul(self, q: SplitQuaternion) -> "PQVector":
        return PQVector(h * q for h in self.entries)

    def left_mul(self, q: SplitQuaternion) -> "PQVector":
        return PQVector(q * h for h in self.entries)

    def scale(self, s) -> "PQVector":
        return PQVector(h.scale(s) for h in self.entries)

    def to_real(self) -> np.ndarray:
        out = np.empty(4 * self.rank, dtype=object)
        for v, h in enumerate(self.entries):
            out[4 * v:4 * v + 4] = h.coefficients()
        return out

    @classmethod
    def from_real(cls, coords) -> "PQVector":
        coords = list(coords)
        if len(coords) % 4:
            raise ValueError("coordinate length must be a multiple of 4")
        return cls(SplitQuaternion(*coords[4 * v:4 * v + 4])
                   for v in range(len(coords) // 4))

    def __repr__(self):
        return "PQVector(" + ", ".join(str(h) for h in self.entries) + ")"

    def _check(self, other):
        if not isinstance(other, PQVector) or other.rank != self.rank:
            raise RankMismatchError("rank mismatch")


class PQMatrix:
    """Square matrix of split quaternions acting on columns from the left."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = tuple(rows)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "PQMatrix":
        return cls([[SplitQuaternion(1 if p == q else 0) for q in range(n)]
                    for p in range(n)])

    def __eq__(self, other):
        return isinstance(other, PQMatrix) and self.entries == other.entries

    def __add__(self, other):
        return PQMatrix([[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return PQMatrix([[a - b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return PQMatrix([[-a for a in row] for row in self.entries])

    def scale(self, s) -> "PQMatrix":
        return PQMatrix([[a.scale(s) for a in row] for row in self.entries])

    def __matmul__(self, other):
        if isinstance(other, PQVector):
            if other.rank != self.rank:
                raise RankMismatchError("rank mismatch")
            return PQVector(
                sum((a * h for a, h in zip(row, other.entries)),
                    SplitQuaternion())
                for row in self.entries)
        if other.rank != self.rank:
            raise RankMismatchError("rank mismatch")
        # one batch product on scaled integers, divided by both scales once
        A, LA = exactla.scaled_integers(self.coefficient_array())
        B, LB = exactla.scaled_integers(other.coefficient_array())
        return PQMatrix.from_coefficient_array(
            exactla.from_scaled_integers(batch_matmul(A, B), LA * LB))

    def coefficient_array(self) -> np.ndarray:
        """The (4, n, n) object array of entry coefficients: C[u, p, q] is
        coefficient u of entry (p, q), so the matrix is one batch."""
        return np.array([[h.coefficients() for h in row]
                         for row in self.entries],
                        dtype=object).transpose(2, 0, 1)

    @classmethod
    def from_coefficient_array(cls, C) -> "PQMatrix":
        n = C.shape[1]
        return cls([[SplitQuaternion(*C[:, p, q]) for q in range(n)]
                    for p in range(n)])

    def commutator(self, other: "PQMatrix") -> "PQMatrix":
        return self @ other - other @ self

    def conj_transpose(self) -> "PQMatrix":
        n = self.rank
        return PQMatrix([[self.entries[q][p].conj() for q in range(n)]
                         for p in range(n)])

    def is_antihermitian(self) -> bool:
        n = self.rank
        return all(self.entries[p][q] == -self.entries[q][p].conj()
                   for p in range(n) for q in range(n))

    def to_real_action(self) -> np.ndarray:
        """4n x 4n real matrix of the left action on interleaved coordinates."""
        n = self.rank
        out = exactla.zeros((4 * n, 4 * n))
        for p in range(n):
            for q in range(n):
                out[4 * p:4 * p + 4, 4 * q:4 * q + 4] = left_mult_matrix(
                    self.entries[p][q])
        return out

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in row) + "]"
                for row in self.entries]
        return "PQMatrix(" + ", ".join(rows) + ")"


def batch_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix products of split-quaternion matrices held as coefficient
    arrays, axis 0 the four coefficients: C[:, ..., p, q] =
    sum_r A[:, ..., p, r] B[:, ..., r, q], broadcast over the axes in
    between.  All entry products are one SplitQuaternion product of
    coefficient arrays of shape (..., p, r, q), summed over r."""
    terms = (SplitQuaternion(*A[..., :, :, None])
             * SplitQuaternion(*B[..., None, :, :]))
    return np.stack([c.sum(axis=-2) for c in terms.coefficients()])


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


def module_scalar_product(h: PQVector, hp: PQVector):
    """Re sum h_v conj(h'_v); agrees with the hermitian form of the
    complex picture, Re sum (z1 z1bar' - z2 z2bar')."""
    if h.rank != hp.rank:
        raise RankMismatchError("rank mismatch")
    return sum(scalar_product(a, b) for a, b in zip(h.entries, hp.entries))


def metric_matrix(n: int) -> np.ndarray:
    g = exactla.zeros((4 * n, 4 * n))
    signs = (1, 1, -1, -1)
    for v in range(n):
        for s in range(4):
            g[4 * v + s, 4 * v + s] = Fraction(signs[s])
    return g


def apply_metric(X) -> np.ndarray:
    """g @ X for the neutral metric g = metric_matrix(n), on axis 0 of X
    (4n rows): a sign flip of the j and k coordinates, with no product,
    exact on every dtype.  X @ g is apply_metric(X.T).T."""
    out = np.array(X)
    rows = np.flatnonzero(np.arange(len(out)) % 4 > 1)
    out[rows] = -out[rows]
    return out


class HermitianStructure:
    """A triple (J1, J2, J3) of endomorphisms with the cyclic product
    table, all skew-symmetric for a neutral metric g."""

    def __init__(self, J1, J2, J3, g, validate: bool = True):
        self.J = (np.asarray(J1), np.asarray(J2), np.asarray(J3))
        self.g = np.asarray(g)
        if validate:
            self.check_relations()

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def rank(self) -> int:
        return self.dim // 4

    def check_relations(self):
        """DegenerateStructureError unless the cyclic product table and
        the metric skewness hold exactly."""
        res = max(self.comrel_residual(), self.skew_residual())
        if res != 0:
            raise DegenerateStructureError(
                f"structure relations violated, residual {res}")

    def comrel_residual(self) -> Fraction:
        """Max deviation over the nine products J_a J_b from the cyclic
        table, computed on the J_a scaled to integers over L."""
        J, L = exactla.scaled_integers(np.stack(self.J))
        J1, J2, J3 = J
        # every product J_a J_b carries the scale L^2, so the table does too
        eye = L * L * np.eye(self.dim, dtype=object)
        table = {
            (0, 0): -EPS[0] * eye, (1, 1): -EPS[1] * eye, (2, 2): -EPS[2] * eye,
            (0, 1): -EPS[2] * L * J3, (1, 0): EPS[2] * L * J3,
            (1, 2): -EPS[0] * L * J1, (2, 1): EPS[0] * L * J1,
            (2, 0): -EPS[1] * L * J2, (0, 2): EPS[1] * L * J2,
        }
        res = max(exactla.max_abs(J[a] @ J[b] - want)
                  for (a, b), want in table.items())
        return Fraction(res, L * L)

    def skew_residual(self) -> Fraction:
        J, LJ = exactla.scaled_integers(np.stack(self.J))
        g, Lg = exactla.scaled_integers(self.g)
        res = max(exactla.max_abs(Ja.T @ g + g @ Ja) for Ja in J)
        return Fraction(res, LJ * Lg)

    def signature(self):
        return exactla.signature(self.g)

    def span_coefficients(self, A: np.ndarray):
        """Exact coefficients (c1, c2, c3) with A = sum c_a J_a, or None."""
        cols = np.stack([Ja.reshape(-1) for Ja in self.J], axis=1)
        coef, residual = exactla.frame_coordinates(cols, A.reshape(-1))
        return None if residual != 0 else tuple(coef)


@functools.cache
def _block_structure(n: int, side: str) -> HermitianStructure:
    """Structure on H^n acting entrywise by right multiplication with the
    conjugated units or (side "left") left multiplication with the units,
    with the neutral metric; built once per (n, side), arrays read-only."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    blocks = [right_mult_matrix(u.conj()) if side == "right"
              else left_mult_matrix(u) for u in IMAGINARY_UNITS]
    J = [exactla.zeros((4 * n, 4 * n)) for _ in range(3)]
    for a in range(3):
        for v in range(n):
            J[a][4 * v:4 * v + 4, 4 * v:4 * v + 4] = blocks[a]
    H = HermitianStructure(*J, metric_matrix(n))
    for arr in (*H.J, H.g):
        arr.flags.writeable = False
    return H


def structure_endos(n: int) -> HermitianStructure:
    """Standard structure on H^n: J_a = right multiplication by conj(e_a),
    with the metric of the neutral scalar product (shared, read-only)."""
    return _block_structure(n, "right")


@functools.cache
def _unit_permutation(n: int, a: int):
    """(cols, neg) of the signed permutation structure_endos(n).J[a]: row
    r has its one nonzero entry in column cols[r], and that entry is -1
    exactly for the rows r listed in neg."""
    Ja = structure_endos(n).J[a]
    cols = np.argmax(Ja != 0, axis=1)
    return cols, np.flatnonzero(Ja[np.arange(4 * n), cols] < 0)


def right_unit_action(X, a: int) -> np.ndarray:
    """J_a @ X, i.e. x -> x conj(e_a) on axis 0 of real coordinates X: a
    signed permutation, applied by indexing and negation, exact on every
    dtype.  Right multiplication by e_a itself is its negative."""
    cols, neg = _unit_permutation(len(X) // 4, a)
    out = np.asarray(X)[cols]
    out[neg] = -out[neg]
    return out


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


def real_rep(A: PQMatrix) -> np.ndarray:
    """2n x 2n all-real image of the complex block representation.

    Entry q = a + b i + c j + d k maps to the block

        [[ a + d,  b + c ],
         [ c - b,  a - d ]],

    which is conjugation of the complex block [[z1, conj(z2)], [z2, conj(z1)]]
    by the fixed unitary; the composition is an algebra isomorphism onto
    gl_{2n}(R), computed here entirely in the base scalars.
    """
    n = A.rank
    out = exactla.zeros((2 * n, 2 * n))
    for p in range(n):
        for q in range(n):
            a, b, c, d = A.entries[p][q].coefficients()
            out[2 * p, 2 * q] = a + d
            out[2 * p, 2 * q + 1] = b + c
            out[2 * p + 1, 2 * q] = c - b
            out[2 * p + 1, 2 * q + 1] = a - d
    return out


def symplectic_form(n: int) -> np.ndarray:
    """Block-diagonal standard form, blocks [[0, 1], [-1, 0]]."""
    F = exactla.zeros((2 * n, 2 * n))
    for p in range(n):
        F[2 * p, 2 * p + 1] = Fraction(1)
        F[2 * p + 1, 2 * p] = Fraction(-1)
    return F


def sp_membership(A: PQMatrix):
    """(is_member, residual): does real_rep(A) satisfy R^T F = -F R?

    Membership is equivalent to A being anti-hermitian entrywise, i.e. to
    the left action being skew for the neutral scalar product.
    """
    R = real_rep(A)
    F = symplectic_form(A.rank)
    residual = exactla.max_abs(R.T @ F + F @ R)
    return residual == 0, residual


def sp_group_membership(M: PQMatrix):
    """Residual of the two group conditions: the real representation
    preserves the symplectic form, and the matrix preserves the neutral
    scalar product (the hermitian form of the complex picture)."""
    R = real_rep(M)
    F = symplectic_form(M.rank)
    r1 = exactla.max_abs(R.T @ F @ R - F)
    prod = M.conj_transpose() @ M
    ident = PQMatrix.identity(M.rank)
    r2 = max(max(abs(x) for x in (prod.entries[p][q] - ident.entries[p][q]).coefficients())
             for p in range(M.rank) for q in range(M.rank))
    return max(r1, r2)


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
    candidates = [exactla.fracarray([1 if r == s else 0 for r in range(dim)])
                  for s in range(dim)]
    if rng is not None:
        for _ in range(4 * dim):
            candidates.append(exactla.fracarray(
                [rng.randint(-5, 5) for _ in range(dim)]))
    current_rank = 0
    Js = np.stack(H.J)
    for v in candidates:
        quad = np.column_stack([v, *exactla.product(Js, v)])
        trial = np.concatenate([kept, quad], axis=1)
        if exactla.rank(trial) == current_rank + 4:
            kept = trial
            current_rank += 4
            seeds.append(v)
            if len(seeds) == n:
                return seeds
    raise DegenerateStructureError("could not complete an adopted basis")


class GrassmanSplit:
    """Tensor factorisation V = E (x) H exhibited by explicit data.

    Attributes:
        e_basis: 2n vectors spanning the E factor (seeds and their J2 images).
        h_endos: the pair (Id - J3, J1 + J2) of endomorphisms spanning H.
        change: 4n x 4n matrix whose columns are h_b(e_i), ordered with the
            H index fastest; in these coordinates every J_a is block
            diagonal with identical 2x2 blocks.
        omega_e, omega_h: forms with g = omega_e (x) omega_h.
    """

    def __init__(self, e_basis, h_endos, change, omega_e, omega_h):
        self.e_basis = e_basis
        self.h_endos = h_endos
        self.change = change
        self.omega_e = omega_e
        self.omega_h = omega_h

    def isotropic_member(self, c, s, e_coords) -> np.ndarray:
        """Vector of the isotropic family: (c h1 + s h2) applied to the
        E-vector with the given coordinates."""
        h1, h2 = self.h_endos
        e = exactla.zeros(self.change.shape[0])
        for coef, v in zip(e_coords, self.e_basis):
            e = e + coef * v
        return c * (h1 @ e) + s * (h2 @ e)


# 2x2 blocks of the structure triple in any tensor basis (h1, h2)
TENSOR_BLOCKS = (
    exactla.fracarray([[0, -1], [1, 0]]),
    exactla.fracarray([[0, 1], [1, 0]]),
    exactla.fracarray([[-1, 0], [0, 1]]),
)


def grassman_split(H: HermitianStructure) -> GrassmanSplit:
    """Split V into E (x) H with h1 = Id - J3, h2 = J1 + J2.

    E is spanned by adopted seeds e_i together with J2 e_i; the images
    h_b(e) for e in that span form a basis in which each J_a acts as
    Id (x) (2x2 block), and the metric factors as omega_e (x) omega_h
    with omega_h = [[0, 1], [-1, 0]].
    """
    seeds = adopted_basis(H)
    J1, J2, J3 = H.J
    dim = H.dim
    ident = exactla.eye(dim)
    h1 = ident - J3
    h2 = J1 + J2
    e_basis = seeds + list(exactla.product(J2, np.stack(seeds, axis=1)).T)
    # columns h1 e, h2 e for each e of e_basis in turn
    change = exactla.product(np.stack([h1, h2]), np.stack(e_basis, axis=1))
    change = change.transpose(1, 2, 0).reshape(dim, -1)
    if exactla.rank(change) != dim:
        raise DegenerateStructureError("tensor basis is degenerate")
    gt = exactla.product(change.T, H.g, change)
    m = len(e_basis)
    omega_e = exactla.zeros((m, m))
    for i in range(m):
        for j in range(m):
            omega_e[i, j] = gt[2 * i, 2 * j + 1]
    omega_h = exactla.fracarray([[0, 1], [-1, 0]])
    # factorisation check: gt must be exactly omega_e (x) omega_h
    kron = np.kron(omega_e, omega_h)
    if exactla.max_abs(gt - kron) != 0:
        raise DegenerateStructureError("metric does not factor over the split")
    return GrassmanSplit(e_basis, (h1, h2), change, omega_e, omega_h)


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
    blocks = []
    for name, mat in named.items():
        blocks.append(f"{name}:\n{format_matrix(mat)}")
    return "\n\n".join(blocks) + "\n"


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


def random_quaternion(rng, span: int = 5) -> SplitQuaternion:
    return SplitQuaternion(*[
        Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))
        for _ in range(4)])


def random_pq_vector(rng, n: int) -> PQVector:
    return PQVector(random_quaternion(rng, 5) for _ in range(n))


def random_pq_matrix(rng, n: int) -> PQMatrix:
    return PQMatrix([[random_quaternion(rng, 3) for _ in range(n)]
                     for _ in range(n)])


def random_antihermitian(rng, n: int) -> PQMatrix:
    """Random member of the skew algebra: diagonal imaginary, opposite
    entries related by negated conjugation."""
    entries = [[SplitQuaternion() for _ in range(n)] for _ in range(n)]
    for p in range(n):
        q0 = random_quaternion(rng, 3)
        entries[p][p] = q0.imag()
        for q in range(p + 1, n):
            x = random_quaternion(rng, 3)
            entries[p][q] = x
            entries[q][p] = -x.conj()
    return PQMatrix(entries)
