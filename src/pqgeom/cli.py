"""Verification command line: configure a suite, run its checks, emit a
machine-readable report.

Every check is a named, seeded, tolerance-bound verification of one of
the library's identities; the registry below maps each one to a stable
anchor tag so reports can be traced back to the property they certify.
Reports are deterministic for a fixed (suite, seed, config) triple,
except for the wall_time field.

Exit codes: 0 all checks pass, 1 at least one failure, 2 bad
configuration (unknown suite or option, invalid weights, a sample count
or rank below 1).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import exactla
from .algebra import (EPS, IMAGINARY_UNITS, UNITS, NullQuaternionError,
                      SplitQuaternion)
from .forms import (BilinearForm, fundamental_four_form, hermitian_projector,
                    lie_derivative_residual, random_rotation, rotate_structure,
                    two_form)
from .linalg import (TENSOR_BLOCKS, HermitianStructure, PQMatrix,
                     adopted_basis, grassman_split, module_scalar_product,
                     random_antihermitian, random_pq_matrix,
                     random_pq_vector, random_quaternion, real_rep,
                     right_mult_matrix, right_unit_action, sp_membership,
                     sp_group_membership, structure_endos)
from . import curvature as curv
from . import projspace as proj
from . import reduction as red


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
    exact: bool = False


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

    def as_dict(self) -> dict:
        return {
            "name": self.name, "status": self.status,
            "max_residual": self.max_residual, "tolerance": self.tolerance,
            "sample_count": self.sample_count, "seed": self.seed,
            "wall_time": self.wall_time, "anchor": self.anchor,
        }


def _check_rng(config: CheckConfig, name: str) -> random.Random:
    return random.Random(config.seed ^ zlib.crc32(name.encode()))


# ---------------------------------------------------------------------------
# individual checks: each returns (max_residual, sample_count)
# ---------------------------------------------------------------------------


def _chk_norm_multiplicative(config, rng):
    worst = 0
    for _ in range(config.samples):
        a = SplitQuaternion(*[rng.randint(-99, 99) for _ in range(4)])
        b = SplitQuaternion(*[rng.randint(-99, 99) for _ in range(4)])
        worst = max(worst, abs((a * b).square_norm()
                               - a.square_norm() * b.square_norm()))
    return worst, config.samples


def _chk_anti_automorphism(config, rng):
    worst = 0
    for _ in range(config.samples):
        a = random_quaternion(rng, span=9)
        b = random_quaternion(rng, span=9)
        diff = (a * b).conj() - b.conj() * a.conj()
        worst = max(worst, max(abs(x) for x in diff.coefficients()))
    return worst, config.samples


def _chk_product_table(config, rng):
    table = {
        (1, 1): SplitQuaternion(-1), (2, 2): SplitQuaternion(1),
        (3, 3): SplitQuaternion(1),
        (1, 2): UNITS[3], (2, 1): -UNITS[3],
        (2, 3): -UNITS[1], (3, 2): UNITS[1],
        (3, 1): UNITS[2], (1, 3): -UNITS[2],
    }
    worst = 0
    for (a, b), want in table.items():
        diff = UNITS[a] * UNITS[b] - want
        worst = max(worst, max(abs(x) for x in diff.coefficients()))
    return worst, len(table)


def _chk_center(config, rng):
    bad = 0
    for _ in range(config.samples):
        q = random_quaternion(rng)
        central = all((q * u - u * q).coefficients() == (0, 0, 0, 0)
                      for u in IMAGINARY_UNITS)
        is_real = q.coefficients()[1:] == (0, 0, 0)
        real_part = SplitQuaternion(q.a)
        commutes_real = all(
            (real_part * u - u * real_part).is_zero() for u in UNITS)
        if central != is_real or not commutes_real:
            bad += 1
    return bad, config.samples


def _chk_inverse(config, rng):
    worst = 0
    count = 0
    while count < config.samples:
        q = random_quaternion(rng)
        try:
            inv = q.inverse()
        except NullQuaternionError:
            continue
        diff = q * inv - SplitQuaternion(1)
        worst = max(worst, max(abs(x) for x in diff.coefficients()))
        count += 1
    return worst, count


def _chk_parse_roundtrip(config, rng):
    bad = 0
    for _ in range(config.samples):
        q = random_quaternion(rng, span=12)
        if SplitQuaternion.parse(str(q)) != q:
            bad += 1
    return bad, config.samples


def _chk_rep_homomorphism(config, rng):
    worst = 0
    count = 0
    for n in (1, 2, 3):
        for _ in range(max(1, config.samples // 3)):
            A = random_pq_matrix(rng, n)
            B = random_pq_matrix(rng, n)
            RA, RB = real_rep(A), real_rep(B)
            RAB = exactla.product(RA, RB)
            lhs = real_rep(A.commutator(B))
            rhs = RAB - exactla.product(RB, RA)
            worst = max(worst, float(exactla.max_abs(lhs - rhs)))
            worst = max(worst, float(exactla.max_abs(real_rep(A @ B) - RAB)))
            count += 1
    return worst, count


def _chk_rep_injective(config, rng):
    bad = 0
    for n in (1, 2, 3):
        basis_images = []
        for p in range(n):
            for q in range(n):
                for u in UNITS:
                    entries = [[SplitQuaternion() for _ in range(n)]
                               for _ in range(n)]
                    entries[p][q] = u
                    img = real_rep(PQMatrix(entries))
                    basis_images.append([int(x) for x in img.reshape(-1)])
        mat = np.array(basis_images, dtype=object).T
        if exactla.rank(mat) != 4 * n * n:
            bad += 1
    return bad, 3


def _chk_sp_closure(config, rng):
    worst = 0
    count = max(2, config.samples // 10)
    for _ in range(count):
        A = random_antihermitian(rng, config.rank)
        B = random_antihermitian(rng, config.rank)
        ok_a, res_a = sp_membership(A)
        ok_c, res_c = sp_membership(A.commutator(B))
        worst = max(worst, float(res_a), float(res_c))
    return worst, count


def _chk_scalar_product_forms(config, rng):
    worst = 0
    for _ in range(config.samples):
        h = random_pq_vector(rng, config.rank)
        hp = random_pq_vector(rng, config.rank)
        lhs = module_scalar_product(h, hp)
        rhs = 0
        for a, b in zip(h.entries, hp.entries):
            (r1, i1), (r2, i2) = a.complex_rep_exact()
            (s1, t1), (s2, t2) = b.complex_rep_exact()
            rhs += (r1 * s1 + i1 * t1) - (r2 * s2 + i2 * t2)
        worst = max(worst, abs(lhs - rhs))
    return worst, config.samples


def _chk_adopted_basis(config, rng):
    bad = 0
    count = max(2, config.samples // 20)
    H = structure_endos(config.rank)
    for k in range(count):
        if k == 0:
            Hc = H
        else:
            dim = H.dim
            while True:
                P = exactla.fracarray(
                    [[rng.randint(-2, 2) for _ in range(dim)]
                     for _ in range(dim)])
                if exactla.rank(P) == dim:
                    break
            Pinv = exactla.inverse(P)
            Hc = HermitianStructure(
                *[exactla.product(Pinv, Ja, P) for Ja in H.J],
                exactla.product(P.T, H.g, P))
        # the seeds and their images, in any column order
        seeds = np.stack(adopted_basis(Hc, rng=rng), axis=1)
        images = exactla.product(np.stack(Hc.J), seeds)
        if exactla.det(np.concatenate([seeds, *images], axis=1)) == 0:
            bad += 1
    return bad, count


def _chk_grassman(config, rng):
    H = structure_endos(config.rank)
    gs = grassman_split(H)
    Cinv = exactla.inverse(gs.change)
    worst = 0
    for a in range(3):
        want = np.kron(exactla.eye(2 * config.rank), TENSOR_BLOCKS[a])
        worst = max(worst, float(exactla.max_abs(
            exactla.product(Cinv, H.J[a], gs.change) - want)))
    worst = max(worst, float(exactla.max_abs(
        exactla.product(gs.change.T, H.g, gs.change)
        - np.kron(gs.omega_e, gs.omega_h))))
    for (c, s) in ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
                   (Fraction(0), Fraction(1)), (Fraction(3, 5), Fraction(4, 5))):
        vs = [gs.isotropic_member(
            c, s, [Fraction(rng.randint(-3, 3)) for _ in range(2 * config.rank)])
            for _ in range(3)]
        V = np.stack(vs)
        worst = max(worst, float(exactla.max_abs(
            exactla.product(V, H.g, V.T))))
    return worst, 1


def _chk_omega_invariance(config, rng):
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    worst = 0
    rotations = max(100, config.samples)
    for _ in range(rotations):
        R = random_rotation(rng)
        Om2 = fundamental_four_form(rotate_structure(H, R))
        for _ in range(2):
            xs = [exactla.fracarray([rng.randint(-3, 3) for _ in range(4)])
                  for _ in range(4)]
            worst = max(worst, float(abs(Om(*xs) - Om2(*xs))))
    return worst, rotations


def _chk_projector_idempotent(config, rng):
    H = structure_endos(config.rank)
    worst = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        B = BilinearForm(exactla.fracarray(
            [[rng.randint(-5, 5) for _ in range(H.dim)]
             for _ in range(H.dim)]))
        herm, mix, four = hermitian_projector(B, H)
        herm2, _, _ = hermitian_projector(herm, H)
        worst = max(worst, float(exactla.max_abs(herm2.matrix - herm.matrix)))
        total = sum(f.matrix for f in four.values())
        worst = max(worst, float(exactla.max_abs(total - B.matrix)))
    return worst, count


def _chk_projector_basis_independent(config, rng):
    H = structure_endos(1)
    worst = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        B = BilinearForm(exactla.fracarray(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]))
        R = random_rotation(rng)
        h1, _, _ = hermitian_projector(B, H)
        h2, _, _ = hermitian_projector(B, rotate_structure(H, R))
        worst = max(worst, float(exactla.max_abs(h1.matrix - h2.matrix)))
    return worst, count


def _chk_two_form(config, rng):
    H = structure_endos(1)
    worst = 0
    for a in range(3):
        wa = two_form(H.J[a], H.g)
        worst = max(worst, float(exactla.max_abs(wa.matrix + wa.matrix.T)))
        for _ in range(config.samples // 10 + 1):
            x = exactla.fracarray([rng.randint(-4, 4) for _ in range(4)])
            val = wa(x, H.J[a] @ x) - EPS[a] * (x @ H.g @ x)
            worst = max(worst, float(abs(val)))
    return worst, config.samples // 10 + 1


def _chk_lie_annihilation(config, rng):
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    worst = 0
    count = max(3, config.samples // 20)
    for _ in range(count):
        A = random_antihermitian(rng, 1).to_real_action()
        S = sum((Fraction(rng.randint(-3, 3)) * H.J[a] for a in range(3)),
                exactla.zeros((4, 4)))
        tuples = [[exactla.fracarray([rng.randint(-3, 3) for _ in range(4)])
                   for _ in range(4)] for _ in range(2)]
        worst = max(worst, float(lie_derivative_residual(Om, A + S, tuples)))
    return worst, count


def _chk_bianchi(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    worst = float(curv.bianchi_residual(Rg))
    B = BilinearForm(exactla.fracarray(
        [[rng.randint(-3, 3) for _ in range(H.dim)] for _ in range(H.dim)]))
    worst = max(worst, float(curv.bianchi_residual(
        curv.curvature_from_bilinear(B, H))))
    # perturbing one entry by 1 in value must break the identity
    perturbed = curv.CurvatureTensor(Rg.tensor.copy(), Rg.scale, Rg.metric)
    perturbed.tensor[0, 1, 2, 3] += Rg.scale
    if curv.bianchi_residual(perturbed) == 0:
        worst = max(worst, 1.0)
    return worst, 2


def _chk_formula_matches_bilinear(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    RB = curv.curvature_from_bilinear(BilinearForm(H.g), H)
    return float((Rg - RB).max_abs()), 1


def _chk_membership(config, rng):
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    ok, res = curv.normalizes_structure(Rg, H)
    worst = float(res)
    # perturbing one entry by 1 in value must break membership
    perturbed = curv.CurvatureTensor(Rg.tensor.copy(), Rg.scale, Rg.metric)
    perturbed.tensor[0, 1, 2, 3] += Rg.scale
    ok2, _ = curv.normalizes_structure(perturbed, H)
    if ok2:
        worst = max(worst, 1.0)
    return worst, 2


def _chk_einstein(config, rng):
    _, res = curv.einstein_check(
        curv.ambient_projective_curvature(config.rank))
    return float(res), 1


def _chk_ricci_split(config, rng):
    H = structure_endos(config.rank)
    gs = grassman_split(H)
    W = curv.weyl_sample(H, gs, rng)
    R = curv.ambient_projective_curvature(config.rank).times(2) + W
    Wp, B = curv.ricci_split(R, H)
    worst = float(exactla.max_abs(curv.ricci(Wp)))
    worst = max(worst, float(exactla.max_abs(B.matrix - 2 * H.g)))
    worst = max(worst, float((Wp - W).max_abs()))
    return worst, 1


def _chk_jacobi_spectrum(config, rng):
    # the spectrum -4 (three times), -1 (d - 4 times), as power sums
    H = structure_endos(config.rank)
    Rg = curv.ambient_projective_curvature(config.rank)
    X = exactla.zeros(H.dim)
    X[0] = Fraction(1)
    Kres, _ = curv.restrict_to_complement(Rg, X)
    sums = curv.power_sums(Kres)
    worst = max(abs(s - (3 * (-4) ** k + (H.dim - 4) * (-1) ** k))
                for k, s in enumerate(sums, start=1))
    return worst, 1


def _chk_solvable(config, rng):
    D = curv.solvable_decomposition(+1)
    Rs = curv.symmetric_space_curvature(D)
    worst = float(curv.bianchi_residual(Rs))
    if Rs.max_abs() == 0:
        worst = max(worst, 1.0)
    ok, res = curv.normalizes_structure(Rs, D.structure)
    worst = max(worst, float(res))
    traces = curv.structure_traces(Rs, D.structure)
    worst = max(worst, float(max(exactla.max_abs(t) for t in traces)))
    dirs = [exactla.fracarray([1, 0, 0, 0]), exactla.fracarray([0, 1, 0, 0]),
            exactla.fracarray([0, 0, 1, 0])]
    rep = curv.jacobi_spectrum_report(Rs, dirs)
    for entry in rep.directions:
        if not (entry.is_nilpotent and entry.operator_nonzero):
            worst = max(worst, 1.0)
        # a nilpotent operator has every power sum 0
        worst = max(worst, float(max(map(abs, entry.power_sums))))
    return worst, len(dirs)


def _chk_special_linear(config, rng):
    D = curv.special_linear_decomposition(2)
    R = curv.symmetric_space_curvature(D)
    worst = float(curv.bianchi_residual(R))
    _, res = curv.einstein_check(R)
    worst = max(worst, float(res))
    return worst, 1


def _chk_bracket_formula(config, rng):
    bracket = curv.projective_pair(config.rank)
    formula = curv.ambient_projective_curvature(config.rank)
    return float((bracket - formula).max_abs()), 1


def _chk_vertical_gram(config, rng):
    # tangent_split compares the fiber Gram with diag(1, -1, -1) entrywise
    bad = 0
    count = max(5, config.samples // 10)
    for _ in range(count):
        try:
            proj.tangent_split(proj.random_sphere_point(rng, 3))
        except proj.DegenerateOrbitError:
            bad += 1
    return bad, count


def _chk_induced_structure(config, rng):
    worst = 0
    count = max(3, config.samples // 30)
    for _ in range(count):
        x = proj.random_sphere_point(rng, 3)
        Hx, _ = proj.induced_geometry(x)
        worst = max(worst, float(Hx.comrel_residual()),
                    float(Hx.skew_residual()))
        if Hx.signature() != (4, 4):
            worst = max(worst, 1.0)
    return worst, count


def _chk_transitive(config, rng):
    worst = 0
    count = max(3, config.samples // 20)
    for _ in range(count):
        tgt = proj.random_sphere_point(rng, 3)
        M = proj.transitive_element(tgt)
        worst = max(worst, float(sp_group_membership(M)))
        image = M @ proj.base_point(3).x
        if image != tgt.x:
            worst = max(worst, 1.0)
    return worst, count


def _chk_lift_independence(config, rng):
    worst = 0
    count = max(2, config.samples // 30)
    for _ in range(count):
        x = proj.random_sphere_point(rng, 3)
        qrot = proj.random_unit_quaternion(rng)
        Hx, fx = proj.induced_geometry(x)
        # the frame translated along the fiber: each entry times qrot
        fq = exactla.product(right_mult_matrix(qrot),
                             fx.reshape(-1, 4, fx.shape[1])).reshape(fx.shape)
        for a in range(3):
            coords, residual = exactla.frame_coordinates(
                fq, right_unit_action(fq, a))
            worst = max(worst, float(residual))
            if Hx.span_coefficients(coords) is None:
                worst = max(worst, 1.0)
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
        out = red.flat_reduced_structure(h)
        worst = max(worst, float(out.comrel_residual),
                    float(out.skew_residual))
        if out.signature != (2 * (rank - 1), 2 * (rank - 1)):
            worst = max(worst, 1.0)
        qa, qb = red.flat_quotient_residuals(h)
        worst = max(worst, float(qa), float(qb))
    return worst, count


def _chk_s1_orthogonality(config, rng):
    count = max(3, config.samples // 30)
    return red.flat_orthogonality_check(config.rank + 1, count, rng), count


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
        worst = max(worst, float(abs(2 * l1 + l3 + 3 * nu)))
    return worst, count


def _chk_pq_direction_independence(config, rng):
    worst = 0
    count = max(3, config.samples // 30)
    for _ in range(count):
        if config.exact:
            u = red.weighted_level_sample(rng, config.p, config.q)
        else:
            u = red.weighted_level_sample_float(rng, config.p, config.q)
        dirs = red.admissible_directions(config.p, config.q, u, rng, 8)
        vals = [float(red.reduced_jacobi(config.p, config.q, u, X).ratio)
                for X in dirs]
        scale = max(1.0, max(abs(v) for v in vals))
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
    return (0.0 if len(ratios) >= 2 else 1.0), count


def _chk_pq_orthogonality(config, rng):
    count = max(3, config.samples // 30)
    return red.pq_orthogonality_check(config.p, config.q, count, rng), count


def _chk_pq_empty_variant(config, rng):
    smallest = red.empty_levelset_check(config.p, config.q,
                                        samples=max(10000, config.samples),
                                        seed=config.seed)
    return (0.0 if smallest > 1e-6 else 1.0), max(10000, config.samples)


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
    """Run one suite (or 'all'); returns reports ordered by check name."""
    config = config or CheckConfig()
    if config.p == config.q or gcd(config.p, config.q) != 1 \
            or config.p < 1 or config.q < 1:
        raise InvalidConfigError(
            f"weights ({config.p}, {config.q}) must be distinct coprime naturals")
    if config.samples < 1:
        raise InvalidConfigError(
            f"sample count {config.samples} must be at least 1")
    if config.rank < 1:
        raise InvalidConfigError(f"rank {config.rank} must be at least 1")
    if selector == "all":
        suites = list(REGISTRY)
    elif selector in REGISTRY:
        suites = [selector]
    else:
        raise UnknownSuiteError(
            f"unknown suite {selector!r}; choose from {(*REGISTRY, 'all')}")
    reports = []
    for suite in suites:
        for name, fn, anchor, tol in REGISTRY[suite]:
            rng = _check_rng(config, name)
            start = time.perf_counter()
            try:
                residual, count = fn(config, rng)
                residual = float(residual)
                status = "pass" if residual <= tol else "fail"
            except Exception:
                residual, count, status = float("nan"), 0, "error"
            reports.append(CheckReport(
                name=name, status=status, max_residual=residual,
                tolerance=tol, sample_count=count, seed=config.seed,
                wall_time=time.perf_counter() - start, anchor=anchor))
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
            "config": _config_dict(config or CheckConfig()),
            "checks": [r.as_dict() for r in reports],
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


def _config_dict(config: CheckConfig) -> dict:
    return {
        "seed": config.seed, "samples": config.samples,
        "rank": config.rank, "p": config.p, "q": config.q,
        "xi": [str(x) for x in red.FLAT_LEVEL], "exact": config.exact,
    }


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
                        help="force rational arithmetic where supported")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = CheckConfig(seed=args.seed, samples=args.samples,
                             rank=args.rank, p=args.p, q=args.q,
                             exact=args.exact)
        reports = run_suite(args.suite, config)
    except (UnknownSuiteError, InvalidConfigError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    payload = emit_report(reports, fmt=args.format, out=args.out,
                          config=config)
    print(payload, end="" if payload.endswith("\n") else "\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
