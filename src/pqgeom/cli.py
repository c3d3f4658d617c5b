"""Verification command line: configure a suite, run its checks, emit a
machine-readable report.

Every check is a named, seeded, tolerance-bound verification of one of
the library's identities; the registry below maps each one to a stable
anchor tag so reports can be traced back to the property they certify.
Reports are deterministic for a fixed (suite, seed, config) triple,
except for the wall_time field.

``--suite all`` runs its suites at once, one process per CPU that the
process may use (``workers.map_units``): this process and forked
workers, each taking whole suites, the reductions first.  Whole suites,
because the checks of one suite share cached model data.  Every check
seeds its own generator from the seed and its name, so the report is the
same on any number of CPUs; ``taskset -c 0 pqgeom --suite all`` runs
every suite in this process.  A suite whose worker died before reporting
it reports each of its checks as an error.

Exit codes: 0 all checks pass, 1 at least one failure, 2 bad
configuration (unknown suite or option, invalid weights, a sample count
or rank below 1, a report path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import zlib
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import (EPS, UNITS, NullQuaternionError, SplitQuaternion,
                      scalar_product)
from .forms import (BilinearForm, fundamental_four_form, hermitian_projector,
                    lie_derivative_residual, random_rotation, rotate_structure,
                    two_form)
from .linalg import (REDRAW_LIMIT, TENSOR_BLOCKS, HermitianStructure,
                     PQMatrix, RedrawLimitError, _random_coefficients,
                     adopted_basis, grassman_split,
                     random_antihermitian, random_integers,
                     random_quaternion, real_rep, right_mult_matrix,
                     sp_membership, sp_group_membership, structure_endos,
                     unit_action)
from . import curvature as curv
from . import projspace as proj
from . import reduction as red
from .workers import map_units


class UnknownSuiteError(ValueError):
    pass


class InvalidConfigError(ValueError):
    pass


class ReportIOError(OSError):
    pass


@dataclass
class CheckConfig:
    seed: int = 0
    samples: int = 100
    rank: int = 2
    p: int = 1
    q: int = 2


@dataclass
class CheckReport:
    name: str
    status: str
    max_residual: float
    tolerance: float
    sample_count: int
    seed: int
    wall_time: float
    anchor: str


# rotations per stack of four-form-rotation-invariance
_ROTATION_BLOCK = 10


def _check_rng(config: CheckConfig, name: str) -> random.Random:
    return random.Random(config.seed ^ zlib.crc32(name.encode()))


# ---------------------------------------------------------------------------
# individual checks: each returns (max_residual, sample_count), the residual
# exact (an int or a Fraction)
# ---------------------------------------------------------------------------


def _vanishes(h: SplitQuaternion) -> np.ndarray:
    """Per position of a batch h: are all four coefficients 0?"""
    return ~(np.stack(h.coefficients()) != 0).any(axis=0)


def _chk_norm_multiplicative(config, rng):
    # one batch of pairs on int64: coefficients up to 99 keep every
    # coefficient of a b below 4 * 99^2 and every square norm below 2^33
    a, b = (SplitQuaternion(*C) for C in random_integers(
        rng, (2, 4, config.samples), -99, 99, np.int64))
    defect = (a * b).square_norm() - a.square_norm() * b.square_norm()
    return int(exactla.max_abs(defect)), config.samples


def _chk_anti_automorphism(config, rng):
    # the pairs (a, b) of random_quaternion(rng, 9) draws, as one batch of
    # int64 coefficients (at most 54) over the scale L; the identity is
    # quadratic, so its residual is over L^2
    C, L = _random_coefficients(rng, 2 * config.samples, 9, np.int64)
    a, b = SplitQuaternion(*C[:, 0::2]), SplitQuaternion(*C[:, 1::2])
    diff = (a * b).conj() - b.conj() * a.conj()
    return (Fraction(int(exactla.max_abs(np.stack(diff.coefficients()))),
                     L * L), config.samples)


# e_a e_b for the imaginary units, indexed 1..3 as in UNITS: the table
# that cyclic-product-table compares the products with, and from which
# center-is-real-line reads its commutators
_UNIT_TABLE = {
    (1, 1): SplitQuaternion(-1), (2, 2): SplitQuaternion(1),
    (3, 3): SplitQuaternion(1),
    (1, 2): UNITS[3], (2, 1): -UNITS[3],
    (2, 3): -UNITS[1], (3, 2): UNITS[1],
    (3, 1): UNITS[2], (1, 3): -UNITS[2],
}


def _chk_product_table(config, rng):
    worst = 0
    for (a, b), want in _UNIT_TABLE.items():
        diff = UNITS[a] * UNITS[b] - want
        worst = max(worst, max(abs(x) for x in diff.coefficients()))
    return worst, len(_UNIT_TABLE)


def _chk_center(config, rng):
    """Counts the draws q that break one of: q commutes with every unit
    exactly when it is real; a real q commutes with every unit; and each
    commutator is q e_a - e_a q = 2 sum_{b != a} q_b e_b e_a over the
    imaginary b, with e_b e_a read from _UNIT_TABLE.  The formula sees a
    flipped sign of any term of the imaginary coefficients of the
    product.  The flips of the real coefficient cancel in every
    commutator; norm-multiplicativity is their check."""
    # random_quaternion(rng) draws as one batch of int64 coefficients; the
    # common scale leaves every vanishing unchanged
    C, _ = _random_coefficients(rng, config.samples, 5, np.int64)
    q, real_part = SplitQuaternion(*C), SplitQuaternion(C[0])
    commutators = [q * UNITS[a] - UNITS[a] * q for a in range(1, 4)]
    central = np.all([_vanishes(c) for c in commutators], axis=0)
    is_real = ~(C[1:] != 0).any(axis=0)
    commutes_real = np.all([_vanishes(real_part * u - u * real_part)
                            for u in UNITS], axis=0)
    tabled = np.all([
        _vanishes(sum((_UNIT_TABLE[b, a].scale(-2 * C[b])
                       for b in range(1, 4) if b != a), c))
        for a, c in enumerate(commutators, start=1)], axis=0)
    return (int(np.count_nonzero((central != is_real) | ~commutes_real
                                 | ~tabled)), config.samples)


def _chk_inverse(config, rng):
    worst = count = 0
    for _ in range(REDRAW_LIMIT * config.samples):
        q = random_quaternion(rng)
        try:
            inv = q.inverse()
        except NullQuaternionError:
            continue
        diff = q * inv - SplitQuaternion(1)
        worst = max(worst, max(abs(x) for x in diff.coefficients()))
        count += 1
        if count == config.samples:
            return worst, count
    raise RedrawLimitError("inverse-roundtrip: too many null draws")


def _chk_parse_roundtrip(config, rng):
    bad = 0
    for _ in range(config.samples):
        q = random_quaternion(rng, span=12)
        if SplitQuaternion.parse(str(q)) != q:
            bad += 1
    return bad, config.samples


def _chk_rep_homomorphism(config, rng):
    worst = 0
    per_rank = max(1, config.samples // 3)
    for n in (1, 2, 3):
        # pairs (A, B) of n x n matrices of random_quaternion(rng, 3)
        # entries, as one batch of int64 coefficient arrays
        # (4, per_rank, n, n) each, over one scale; the entries (at most 18)
        # keep every product below 2^20
        C, L = _random_coefficients(rng, 2 * per_rank * n * n, 3, np.int64)
        C = C.reshape(4, per_rank, 2, n, n)
        A, B = (PQMatrix.from_scaled_integers(C[:, :, k], L) for k in (0, 1))
        (RA, LA), (RB, LB) = real_rep(A), real_rep(B)
        RAB = RA @ RB                                  # over LA LB
        worst = max(worst, exactla.scaled_distance(
            *real_rep(A.commutator(B)), RAB - RB @ RA, LA * LB))
        worst = max(worst, exactla.scaled_distance(
            *real_rep(A @ B), RAB, LA * LB))
    return worst, 3 * per_rank


def _chk_rep_injective(config, rng):
    bad = 0
    for n in (1, 2, 3):
        # the images of the 4 n^2 basis matrices, one coefficient 1 each,
        # as one batch; a column per image
        basis = np.eye(4 * n * n, dtype=object).reshape(-1, 4, n, n)
        images, _ = real_rep(PQMatrix.from_scaled_integers(
            basis.swapaxes(0, 1), 1))
        if exactla.rank(images.reshape(4 * n * n, -1).T) != 4 * n * n:
            bad += 1
    return bad, 3


def _chk_sp_closure(config, rng):
    worst = 0
    count = max(2, config.samples // 10)
    for _ in range(count):
        A = random_antihermitian(rng, config.rank)
        B = random_antihermitian(rng, config.rank)
        worst = max(worst, sp_membership(A)[1],
                    sp_membership(A.commutator(B))[1])
    return worst, count


def _chk_scalar_product_forms(config, rng):
    # pairs (h, h') of vectors of n random_quaternion(rng, 5) entries, as
    # one batch of int64 coefficients (4, samples, n) each (at most 30)
    # over one scale L; both sides are bilinear, so the residual is over
    # L^2
    n = config.rank
    C, L = _random_coefficients(rng, 2 * n * config.samples, 5, np.int64)
    C = C.reshape(4, config.samples, 2, n)
    h, hp = SplitQuaternion(*C[:, :, 0]), SplitQuaternion(*C[:, :, 1])
    # Re sum_v h_v conj(h'_v) against the complex hermitian form
    lhs = scalar_product(h, hp).sum(axis=1)
    (r1, i1), (r2, i2) = h.complex_rep_exact()
    (s1, t1), (s2, t2) = hp.complex_rep_exact()
    rhs = ((r1 * s1 + i1 * t1) - (r2 * s2 + i2 * t2)).sum(axis=1)
    return Fraction(int(exactla.max_abs(lhs - rhs)), L * L), config.samples


def _chk_adopted_basis(config, rng):
    bad = 0
    count = max(2, config.samples // 20)
    H = structure_endos(config.rank)
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    for k in range(count):
        if k == 0:
            Hc = H
        else:
            for _ in range(REDRAW_LIMIT):
                P = random_integers(rng, (H.dim, H.dim), -2, 2)
                if exactla.rank(P) == H.dim:
                    break
            else:
                raise RedrawLimitError("adopted-basis-rank: every change of "
                                       "basis singular")
            Pinv, LP = exactla.inverse(P)
            Hc = HermitianStructure(*(Pinv @ J @ P), P.T @ g @ P,
                                    scales=(LP * LJ, Lg))
        # the seeds and their images, in any column order; the images are
        # over the scale of the members, which leaves the rank unchanged
        seeds = np.stack(adopted_basis(Hc, rng=rng), axis=1)
        images = Hc.scaled_J[0] @ seeds
        if exactla.rank(np.concatenate([seeds, *images], axis=1)) < H.dim:
            bad += 1
    return bad, count


def _chk_grassman(config, rng):
    H = structure_endos(config.rank)
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    gs = grassman_split(H)
    C, LC = gs.change
    # the inverse of C / LC is LC Cinv / LCinv
    Cinv, LCinv = exactla.inverse(C)
    # every J_a in the tensor basis against Id (x) its 2 x 2 block
    want = np.kron(np.eye(2 * config.rank, dtype=object),
                   np.stack(TENSOR_BLOCKS))
    worst = exactla.scaled_distance(Cinv @ J @ C, LCinv * LJ, want, 1)
    omega, Lomega = gs.omega_e
    worst = max(worst, exactla.scaled_distance(
        C.T @ g @ C, LC * LC * Lg, np.kron(omega, gs.omega_h), Lomega))
    for (c, s) in ((1, 0), (1, 1), (0, 1), (Fraction(3, 5), Fraction(4, 5))):
        members = [gs.isotropic_member(c, s, k) for k in random_integers(
            rng, (3, 2 * config.rank), -3, 3)]
        # the three members share one scale
        V, LV = np.stack([v for v, _ in members]), members[0][1]
        worst = max(worst, Fraction(exactla.max_abs(V @ g @ V.T),
                                    LV * LV * Lg))
    return worst, 1


def _chk_omega_invariance(config, rng):
    # Omega against the 4-forms of the rotated structures, on int64, the
    # rotations as stacks of _ROTATION_BLOCK: every factor of
    # random_rotation has entries of at most 25 and row sums of at most
    # 49, so a rotation has entries of at most 49^3 and a scale of at most
    # 25^3; the rotated members (signed permutations of structure_endos(1),
    # over the scale 1, times the rotation) and their 2-forms have entries
    # of at most 49^3, the 4-forms entries of at most 18 * 49^6 < 2^38, and
    # every product below stays under 2^63
    H = HermitianStructure(*structure_endos(1).scaled_J[0].astype(np.int64),
                           structure_endos(1).scaled_g[0].astype(np.int64),
                           scales=(1, 1))
    C, L = fundamental_four_form(H).scaled
    rotations = max(100, config.samples)
    extremes, scales = [], []
    for start in range(0, rotations, _ROTATION_BLOCK):
        draws = [random_rotation(rng)
                 for _ in range(min(_ROTATION_BLOCK, rotations - start))]
        stack = (np.array([R for R, _ in draws], dtype=np.int64),
                 np.array([LR for _, LR in draws], dtype=np.int64))
        C2, L2 = fundamental_four_form(rotate_structure(H, stack)).scaled
        # the largest and the least entry of each difference, over L L2
        defect = (C2 * L - C * L2[:, None, None, None, None]).reshape(
            len(draws), -1)
        extremes.append(np.stack([defect.max(axis=1), defect.min(axis=1)],
                                 axis=1))
        scales.append(L * L2)
    return (exactla.stack_max_abs(np.concatenate(extremes),
                                  np.concatenate(scales)), rotations)


def _chk_projector_idempotent(config, rng):
    H = structure_endos(config.rank)
    worst = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        B = BilinearForm(random_integers(rng, (H.dim, H.dim), -5, 5), 1)
        herm, mix, four = hermitian_projector(B, H)
        herm2, _, _ = hermitian_projector(herm, H)
        sym_herm, alt_herm, sym_mix, alt_mix = four.values()
        total = sym_herm + alt_herm + sym_mix + alt_mix
        worst = max(worst, (herm2 - herm).max_abs(), (total - B).max_abs())
    return worst, count


def _chk_projector_basis_independent(config, rng):
    H = structure_endos(1)
    worst = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        B = BilinearForm(random_integers(rng, (4, 4), -5, 5), 1)
        R = random_rotation(rng)
        h1, _, _ = hermitian_projector(B, H)
        h2, _, _ = hermitian_projector(B, rotate_structure(H, R))
        worst = max(worst, (h1 - h2).max_abs())
    return worst, count


def _chk_two_form(config, rng):
    H = structure_endos(1)
    (J, LJ), (g, Lg) = H.scaled_J, H.scaled_g
    worst = 0
    count = config.samples // 10 + 1
    for a in range(3):
        # the form of the integer members J[a] and metric g is LJ Lg omega_a
        wa, Lw = two_form(J[a], g).scaled
        Lw *= LJ * Lg
        worst = max(worst, Fraction(exactla.max_abs(wa + wa.T), Lw))
        # per row x: wa(x, J_a x) against eps_a g(x, x)
        X = random_integers(rng, (count, 4), -4, 4)
        worst = max(worst, exactla.scaled_distance(
            ((X @ wa) * (X @ J[a].T)).sum(axis=1), Lw * LJ,
            EPS[a] * ((X @ g) * X).sum(axis=1), Lg))
    return worst, count


def _chk_lie_annihilation(config, rng):
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    J, LJ = H.scaled_J
    # Omega + Omega^s for the three adjacent slot swaps s: 0 exactly when
    # Omega alternates
    N, L = Om.scaled
    worst = Fraction(max(exactla.max_abs(N + N.swapaxes(k, k + 1))
                         for k in range(3)), L)
    count = max(3, config.samples // 20)
    for _ in range(count):
        A, LA = random_antihermitian(rng, 1).to_real_action()
        c = random_integers(rng, (3,), -3, 3)
        # the member A + sum_a c_a J_a, over LA LJ
        worst = max(worst, lie_derivative_residual(
            Om, A * LJ + np.tensordot(c, J, axes=1) * LA, LA * LJ))
    return worst, count


def _perturbed(R):
    """R with one entry changed by 1 in value: a defect that the curvature
    identities must detect.  The scale is added to an int64 copy when
    (1 + scale) max|R| stays below the word bound (exactla.words), and to
    a copy of Python ints otherwise."""
    if exactla.words(R.tensor, 1 + R.scale) is None:
        tensor = R.tensor.astype(object)
    else:
        tensor = R.tensor.copy()
    tensor[0, 1, 2, 3] += R.scale
    return curv.CurvatureTensor._unchecked(tensor, R.scale, R.metric)


def _chk_bianchi(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    worst = curv.bianchi_residual(Rg)
    B = BilinearForm(np.array(
        [[rng.randint(-3, 3) for _ in range(H.dim)] for _ in range(H.dim)],
        dtype=object), 1)
    worst = max(worst, curv.bianchi_residual(
        curv.curvature_from_bilinear(B, H)))
    if curv.bianchi_residual(_perturbed(Rg)) == 0:
        worst = max(worst, 1)
    return worst, 2


def _chk_formula_matches_bilinear(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    RB = curv.curvature_from_bilinear(BilinearForm(*H.scaled_g), H)
    return (Rg - RB).max_abs(), 1


def _chk_membership(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    _, worst = curv.normalizes_structure(Rg, H)
    if curv.normalizes_structure(_perturbed(Rg), H)[0]:
        worst = max(worst, 1)
    return worst, 2


def _chk_einstein(config, rng):
    _, res = curv.einstein_check(
        curv.ambient_projective_curvature(config.rank))
    return res, 1


def _chk_ricci_split(config, rng):
    # R = 2 R_0 + R^B0 + W = R^(2g + B0) + W with a random integer B0,
    # whose hermitian, mixed and antisymmetric parts are all nonzero, so
    # that the split reads each eigenvalue of the Ricci map
    H = structure_endos(config.rank)
    gs = grassman_split(H)
    W = curv.weyl_sample(H, gs, rng)
    B0 = np.array(
        [[rng.randint(-3, 3) for _ in range(H.dim)] for _ in range(H.dim)],
        dtype=object)
    R = (curv.ambient_projective_curvature(config.rank).times(2)
         + curv.curvature_from_bilinear(BilinearForm(B0, 1), H) + W)
    Wp, B = curv.ricci_split(R, H)
    G, LG = H.scaled_g
    worst = exactla.max_abs(curv.ricci(Wp)[0])
    worst = max(worst, exactla.scaled_distance(*B.scaled, 2 * G + LG * B0,
                                               LG))
    worst = max(worst, (Wp - W).max_abs())
    return worst, 1


def _chk_jacobi_spectrum(config, rng):
    # the spectrum -4 (three times), -1 (d - 4 times), as power sums
    Rg = curv.ambient_projective_curvature(config.rank)
    X = np.eye(Rg.dim, dtype=object)[0]
    Kres, _ = curv.restrict_to_complement(Rg, X)
    sums = curv.power_sums(Kres)
    worst = max(abs(s - (3 * (-4) ** k + (Rg.dim - 4) * (-1) ** k))
                for k, s in enumerate(sums, start=1))
    return worst, 1


def _chk_solvable(config, rng):
    D = curv.solvable_decomposition(+1)
    Rs = curv.symmetric_space_curvature(D)
    worst = curv.bianchi_residual(Rs)
    if Rs.max_abs() == 0:
        worst = max(worst, 1)
    ok, res = curv.normalizes_structure(Rs, D.structure)
    worst = max(worst, res)
    T, LT = curv.structure_traces(Rs, D.structure)
    worst = max(worst, Fraction(exactla.max_abs(T), LT))
    dirs = list(np.eye(4, dtype=object)[:3])
    rep = curv.jacobi_spectrum_report(Rs, dirs)
    for entry in rep.directions:
        if not (entry.is_nilpotent and entry.operator_nonzero):
            worst = max(worst, 1)
        # a nilpotent operator has every power sum 0
        worst = max(worst, max(map(abs, entry.power_sums)))
    return worst, len(dirs)


def _chk_special_linear(config, rng):
    D = curv.special_linear_decomposition(2)
    R = curv.symmetric_space_curvature(D)
    # R(X, Y) = -R(Y, X): the cyclic sum and the Ricci form alone pass R
    # with its second and third slots swapped.  Two entries below 2^62
    # sum within int64.
    t = R.tensor
    worst = Fraction(int(exactla.max_abs(t + t.transpose(1, 0, 2, 3))),
                     R.scale)
    worst = max(worst, curv.bianchi_residual(R))
    _, res = curv.einstein_check(R)
    worst = max(worst, res)
    return worst, 1


def _chk_bracket_formula(config, rng):
    bracket = curv.projective_pair(config.rank)
    formula = curv.ambient_projective_curvature(config.rank)
    return (bracket - formula).max_abs(), 1


def _chk_vertical_gram(config, rng):
    # unit_fiber compares the fiber Gram with diag(1, -1, -1) entrywise
    bad = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        try:
            proj.unit_fiber(proj.random_sphere_point(rng, 3))
        except proj.DegenerateOrbitError:
            bad += 1
    return bad, count


def _chk_induced_structure(config, rng):
    worst = 0
    count = max(3, config.samples // 30)
    for _ in range(count):
        x = proj.random_sphere_point(rng, 3)
        Hx, _ = proj.induced_geometry(x)
        worst = max(worst, Hx.comrel_residual(), Hx.skew_residual())
        if Hx.signature() != (4, 4):
            worst = max(worst, 1)
    return worst, count


def _chk_transitive(config, rng):
    worst = 0
    count = max(3, config.samples // 20)
    for _ in range(count):
        tgt = proj.random_sphere_point(rng, 3)
        M = proj.transitive_element(tgt)
        worst = max(worst, sp_group_membership(M))
        image = M @ proj.base_point(3).x
        if image != tgt.x:
            worst = max(worst, 1)
    return worst, count


def _chk_lift_independence(config, rng):
    worst = 0
    count = max(2, config.samples // 30)
    for _ in range(count):
        x = proj.random_sphere_point(rng, 3)
        qrot = proj.random_unit_quaternion(rng)
        # right multiplication by any invertible element keeps the span,
        # so only the norm sees an element off the unit group
        worst = max(worst, abs(qrot.square_norm() - 1))
        Hx, (N, L, _) = proj.induced_geometry(x)
        # the frame N / L translated along the fiber, each entry times
        # qrot = Q / LQ on the right: FQ / (LQ L), on integers
        Q, LQ = exactla.scaled_integers(right_mult_matrix(qrot))
        FQ = (Q @ N.reshape(-1, 4, N.shape[1])).reshape(N.shape)
        for a in range(3):
            # frame and target share the scale LQ L; the coordinates do
            # not depend on it, the residual is over it
            (coords, _), residual = exactla.frame_coordinates(
                FQ, unit_action(FQ, a, "right"))
            worst = max(worst, residual / (LQ * L))
            # span membership is unchanged by the scale of the coordinates
            if Hx.span_coefficients(coords) is None:
                worst = max(worst, 1)
    return worst, count


def _chk_s1_gradient(config, rng):
    count = max(config.samples, 200)
    return red.flat_moment_gradient_check(config.rank + 1, count, rng), count


def _chk_s1_reduced_structure(config, rng):
    worst = 0
    count = max(5, config.samples // 4)
    rank = config.rank + 1
    for _ in range(count):
        h = red.flat_level_sample(rng, rank)
        H, _ = red.flat_reduced_structure(h)
        worst = max(worst, H.comrel_residual(), H.skew_residual())
        if H.signature() != (2 * (rank - 1), 2 * (rank - 1)):
            worst = max(worst, 1)
        qa, qb = red.flat_quotient_residuals(h)
        worst = max(worst, qa, qb)
    return worst, count


def _chk_s1_orthogonality(config, rng):
    # the circle action: left multiplication by i, every weight 1
    count = max(3, config.samples // 30)
    rank = config.rank + 1
    points = [red.flat_level_sample(rng, rank) for _ in range(count)]
    return (red.orthogonality_check(red.moment_quotient(0, (1,) * rank),
                                    points), count)


def _chk_pq_zero_sets(config, rng):
    count = max(20, config.samples)
    return red.pq_zero_set_check(config.p, config.q, count, rng), count


def _chk_pq_eigen_identity(config, rng):
    worst = 0
    count = max(3, config.samples // 30)
    # consistency only; the quotient-curvature oracle test is independent
    for _ in range(count):
        u = red.weighted_level_sample(rng, config.p, config.q)
        X = red.admissible_directions(config.p, config.q, u, rng, 1)[0]
        rj = red.reduced_jacobi(config.p, config.q, u, X)
        nu = rj.einstein_constant / 4   # reduced scalar curvature at n = 2
        l1, _, l3 = rj.eigenvalues
        worst = max(worst, abs(2 * l1 + l3 + 3 * nu))
    return worst, count


def _chk_pq_direction_independence(config, rng):
    worst = 0
    count = max(3, config.samples // 30)
    for _ in range(count):
        u = red.weighted_level_sample(rng, config.p, config.q)
        dirs = red.admissible_directions(config.p, config.q, u, rng, 8)
        vals = [red.reduced_jacobi(config.p, config.q, u, X).ratio
                for X in dirs]
        scale = max(1, max(abs(v) for v in vals))
        worst = max(worst, (max(vals) - min(vals)) / scale)
    return worst, count


def _chk_pq_point_variation(config, rng):
    count = max(4, config.samples // 25)
    ratios = set()
    for _ in range(count):
        u = red.weighted_level_sample(rng, config.p, config.q)
        X = red.admissible_directions(config.p, config.q, u, rng, 1)[0]
        ratios.add(red.reduced_jacobi(config.p, config.q, u, X).ratio)
    # failure means the ratio is the same exact value at every point
    return (0 if len(ratios) >= 2 else 1), count


def _chk_pq_orthogonality(config, rng):
    # the weighted action: left multiplication by j, weights (q, p, p)
    count = max(3, config.samples // 30)
    points = [red.weighted_level_sample(rng, config.p, config.q).x
              for _ in range(count)]
    return (red.orthogonality_check(red.weighted_quotient(config.p, config.q),
                                    points), count)


def _chk_pq_empty_variant(config, rng):
    count = max(10000, config.samples)
    return red.empty_levelset_check(config.p, config.q, count, rng), count


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (function, anchor tag, tolerance)
REGISTRY: dict[str, list] = {
    "algebra": [
        ("norm-multiplicativity", _chk_norm_multiplicative, "norm-mult", 0.0),
        ("conjugation-anti-automorphism", _chk_anti_automorphism,
         "conj-reverses-products", 0.0),
        ("cyclic-product-table", _chk_product_table, "unit-products", 0.0),
        ("center-is-real-line", _chk_center, "center", 0.0),
        ("inverse-roundtrip", _chk_inverse, "inverse-off-null-cone", 0.0),
        ("parse-print-roundtrip", _chk_parse_roundtrip, "text-io", 0.0),
    ],
    "linalg": [
        ("representation-homomorphism", _chk_rep_homomorphism,
         "real-rep-is-algebra-iso", 0.0),
        ("representation-injective", _chk_rep_injective,
         "real-rep-kernel", 0.0),
        ("sp-bracket-closure", _chk_sp_closure, "skew-algebra-closed", 0.0),
        ("scalar-product-complex-form", _chk_scalar_product_forms,
         "neutral-product-hermitian-form", 0.0),
        ("adopted-basis-rank", _chk_adopted_basis, "adopted-basis", 0.0),
        ("tensor-split-blocks", _chk_grassman, "tensor-split", 0.0),
    ],
    "forms": [
        ("four-form-rotation-invariance", _chk_omega_invariance,
         "four-form-invariant", 0.0),
        ("projector-idempotent", _chk_projector_idempotent,
         "hermitian-projector", 0.0),
        ("projector-basis-independence", _chk_projector_basis_independent,
         "hermitian-projector-invariant", 0.0),
        ("two-form-skew-pairing", _chk_two_form, "two-form", 0.0),
        ("four-form-infinitesimal-invariance", _chk_lie_annihilation,
         "skew-algebra-preserves-four-form", 0.0),
    ],
    "curvature": [
        ("first-bianchi", _chk_bianchi, "bianchi", 0.0),
        ("bilinear-family-matches-model", _chk_formula_matches_bilinear,
         "metric-form-gives-model-curvature", 0.0),
        ("structure-membership", _chk_membership,
         "commutator-trace-identity", 0.0),
        ("einstein-property", _chk_einstein, "einstein", 0.0),
        ("ricci-splitting", _chk_ricci_split, "ricci-weyl-split", 0.0),
        ("jacobi-spectrum-model", _chk_jacobi_spectrum,
         "model-jacobi-spectrum", 1e-9),
        ("solvable-oracle-nilpotent", _chk_solvable,
         "solvable-pair-rank2", 1e-6),
        ("special-linear-oracle", _chk_special_linear,
         "block-split-pair", 0.0),
        ("bracket-formula-proportional", _chk_bracket_formula,
         "bracket-equals-closed-formula", 0.0),
    ],
    "projspace": [
        ("fiber-gram-signature", _chk_vertical_gram, "fiber-signature", 0.0),
        ("induced-structure-valid", _chk_induced_structure,
         "induced-structure", 0.0),
        ("transitive-element", _chk_transitive, "transitivity", 0.0),
        ("lift-independence", _chk_lift_independence, "fiber-translation", 0.0),
    ],
    "reduce-s1": [
        ("moment-gradient", _chk_s1_gradient, "moment-defining-equation",
         5e-4),
        ("reduced-structure-relations", _chk_s1_reduced_structure,
         "reduction-descends-structure", 1e-9),
        ("killing-images-normal", _chk_s1_orthogonality,
         "structure-normal-to-level-set", 1e-9),
    ],
    "reduce-pq": [
        ("zero-set-cross-check", _chk_pq_zero_sets,
         "level-function-vs-isotropy-route", 0.0),
        ("eigenvalue-trace-identity", _chk_pq_eigen_identity,
         "reduced-jacobi-trace", 1e-12),
        ("ratio-direction-independence", _chk_pq_direction_independence,
         "pointwise-spectrum-uniform", 1e-6),
        ("ratio-point-variation", _chk_pq_point_variation,
         "spectrum-varies-on-quotient", 0.0),
        ("killing-images-normal-pq", _chk_pq_orthogonality,
         "structure-normal-to-level-set", 1e-6),
        ("definite-axis-empty-level-set", _chk_pq_empty_variant,
         "definite-axis-variant", 0.0),
    ],
}


def run_suite(selector: str, config: CheckConfig | None = None) -> list[CheckReport]:
    """Run one suite (or 'all', its suites spread over the allowed CPUs by
    workers.map_units); returns reports ordered by check name."""
    config = config or CheckConfig()
    try:
        red._weights(config.p, config.q)
    except ValueError as err:
        raise InvalidConfigError(
            f"{err}, got ({config.p}, {config.q})") from err
    if config.samples < 1:
        raise InvalidConfigError(
            f"sample count {config.samples} must be at least 1")
    if config.rank < 1:
        raise InvalidConfigError(f"rank {config.rank} must be at least 1")
    if selector == "all":
        # the longest suites, the reductions, are dealt first, which
        # bounds the time at which the last process finishes
        suites = list(reversed(REGISTRY))
    elif selector in REGISTRY:
        suites = [selector]
    else:
        raise UnknownSuiteError(
            f"unknown suite {selector!r}; choose from {(*REGISTRY, 'all')}")

    def run(suite):
        reports = []
        for name, fn, anchor, tol in REGISTRY[suite]:
            rng = _check_rng(config, name)
            start = time.perf_counter()
            try:
                residual, count = fn(config, rng)
                # compared exactly; the report holds the float
                status = "pass" if residual <= tol else "fail"
                residual = float(residual)
            except Exception:
                residual, count, status = float("nan"), 0, "error"
            reports.append(CheckReport(
                name=name, status=status, max_residual=residual,
                tolerance=tol, sample_count=count, seed=config.seed,
                wall_time=time.perf_counter() - start, anchor=anchor))
        return reports

    reports = []
    for suite, done in zip(suites, map_units(run, suites)):
        # a suite whose worker died unreported: each check is an error
        reports += done if done is not None else [
            CheckReport(name=name, status="error", max_residual=float("nan"),
                        tolerance=tol, sample_count=0, seed=config.seed,
                        wall_time=0.0, anchor=anchor)
            for name, _, anchor, tol in REGISTRY[suite]]
    reports.sort(key=lambda r: r.name)
    return reports


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(reports: list[CheckReport], fmt: str = "json",
                out: str | None = None, config: CheckConfig | None = None) -> str:
    """Serialise reports; fmt 'json' follows schema version 1, 'text' is a
    column table.  Writes to the path when given, returns the payload."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "json":
        payload = json.dumps({
            "version": "1",
            "config": {**asdict(config or CheckConfig()),
                       "xi": [str(x) for x in red.FLAT_LEVEL]},
            "checks": [asdict(r) for r in reports],
        }, indent=2, sort_keys=True)
    elif fmt == "text":
        lines = ["%-34s %-6s %-12s %-10s %-8s  %s"
                 % ("check", "status", "residual", "tolerance", "samples",
                    "anchor")]
        for r in reports:
            lines.append("%-34s %-6s %-12.3e %-10.1e %-8d  %s"
                         % (r.name, r.status, r.max_residual, r.tolerance,
                            r.sample_count, r.anchor))
        payload = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            raise ReportIOError(str(err)) from err
    return payload


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqgeom",
        description="Run the split-quaternion geometry verification suites.")
    parser.add_argument("--suite", default="all",
                        help="one of %s or 'all'" % (", ".join(REGISTRY)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--n", type=int, default=2, dest="rank",
                        help="module rank for rank-parametrised checks")
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--exact", action="store_true",
                        help="no effect: every check is exact; accepted so "
                             "that existing command lines (the reduce-pq-"
                             "exact workload of perfbench/run.py) still run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = CheckConfig(seed=args.seed, samples=args.samples,
                             rank=args.rank, p=args.p, q=args.q)
        reports = run_suite(args.suite, config)
    except (UnknownSuiteError, InvalidConfigError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        payload = emit_report(reports, fmt=args.format, out=args.out,
                              config=config)
    except ReportIOError as err:
        print(f"report error: {err}", file=sys.stderr)
        return 2
    print(payload, end="" if payload.endswith("\n") else "\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
