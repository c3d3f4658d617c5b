import json
import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import exactla
from pqgeom.algebra import (IMAGINARY_UNITS, I, J, SplitQuaternion,
                            circle_point)
from pqgeom.curvature import (CurvatureTensor, NullDirectionError,
                              ambient_projective_curvature, bianchi_residual,
                              einstein_check, restrict_to_complement, ricci)
from pqgeom.linalg import PQVector, metric_matrix, module_scalar_product
from pqgeom.projspace import SpherePoint, base_point, random_sphere_point
from pqgeom.reduction import (DegenerateLevelSetError, ImValue,
                              NonRegularError, NullOrbitError,
                              ReductionScene, StepTooSmallError,
                              admissible_directions, build_flat_scene,
                              build_pq_scene, empty_levelset_check,
                              flat_adapted_moment, flat_circle_moment,
                              flat_killing, flat_level_sample,
                              flat_quotient_coordinates,
                              flat_quotient_residuals, flat_reduced_structure,
                              isotropy_moment_traces, killing_derivative,
                              killing_horizontal, moment_gradient_check,
                              reduced_jacobi, scene_from_json, scene_to_json,
                              structure_orthogonality_check, weighted_flow,
                              weighted_flow_exact, weighted_killing,
                              weighted_level_sample,
                              weighted_level_sample_float,
                              weighted_level_value, weighted_regularity)
from pqgeom.reduction import _level_gradient_rows, _moment_gradient_rows


# -- flat circle scene --------------------------------------------------------


def test_flat_moment_values():
    zero = PQVector([SplitQuaternion(), SplitQuaternion()])
    assert flat_circle_moment(zero) == (0, 0, 0)
    # the first component is the negated euclidean norm of (z, w); the
    # basis lift therefore evaluates to (-1, 0, 0)
    e1 = PQVector([SplitQuaternion(1), SplitQuaternion(), SplitQuaternion()])
    assert flat_circle_moment(e1) == (-1, 0, 0)


def test_flat_level_sampler_equations():
    rng = random.Random(0)
    for _ in range(10):
        h = flat_level_sample(rng, 3)
        f = flat_circle_moment(h)
        assert f == (Fraction(-1), Fraction(0), Fraction(0))
        # spelled out: unit euclidean norm and vanishing bilinear pairing
        zs = [(q.a, q.b) for q in h.entries]
        ws = [(q.c, -q.d) for q in h.entries]
        norm = sum(a * a + b * b for a, b in zs) \
            + sum(a * a + b * b for a, b in ws)
        zw_re = sum(z[0] * w[0] - z[1] * w[1] for z, w in zip(zs, ws))
        zw_im = sum(z[0] * w[1] + z[1] * w[0] for z, w in zip(zs, ws))
        assert norm == 1 and zw_re == 0 and zw_im == 0


def test_flat_moment_circle_invariance():
    rng = random.Random(1)
    h = flat_level_sample(rng, 3)
    for t in (Fraction(1, 3), Fraction(-2, 5)):
        rotated = h.left_mul(circle_point(t))
        assert flat_circle_moment(rotated) == flat_circle_moment(h)


def test_flat_adapted_gradient_exact():
    # the adapted components satisfy d f(X) = g(J_a V, X) identically,
    # checked here with exact differentials rather than differences
    rng = random.Random(2)
    from pqgeom.linalg import structure_endos
    H = structure_endos(3)
    g = metric_matrix(3)
    for _ in range(6):
        coords = exactla.fracarray([Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4))
                                    for _ in range(12)])
        h = PQVector.from_real(coords)
        rows = _moment_gradient_rows(h)
        adapted = [-rows[0] * Fraction(1, 2), rows[2], rows[1]]
        V = flat_killing(h).to_real()
        for a in range(3):
            want = (H.J[a] @ V) @ g
            assert exactla.max_abs(adapted[a] - want) == 0


def test_flat_gradient_check_numeric():
    scene = ReductionScene(action="flat-s1", rank=3, seed=3)
    rep = moment_gradient_check(scene, samples=120, step=1e-5)
    assert rep.max_residual <= 5e-4
    with pytest.raises(StepTooSmallError):
        moment_gradient_check(scene, samples=1, step=1e-13)


def test_flat_reduced_structure_exact():
    rng = random.Random(4)
    for rank in (2, 3):
        for _ in range(4):
            h = flat_level_sample(rng, rank)
            red = flat_reduced_structure(h)
            assert red.comrel_residual == 0
            assert red.skew_residual == 0
            assert red.signature == (2 * (rank - 1), 2 * (rank - 1))


def test_flat_reduced_structure_guards():
    rng = random.Random(5)
    h = flat_level_sample(rng, 3)
    off = PQVector([q.scale(2) for q in h.entries])
    with pytest.raises(DegenerateLevelSetError):
        flat_reduced_structure(off)
    # balanced lift: |z|^2 = |w|^2 = 1/2 with disjoint supports is on the
    # level set but the orbit through it is null
    half = Fraction(1, 2)
    balanced = PQVector([SplitQuaternion(half, half, 0, 0),
                         SplitQuaternion(0, 0, half, -half),
                         SplitQuaternion()])
    assert flat_circle_moment(balanced) == (-1, 0, 0)
    with pytest.raises(NullOrbitError):
        flat_reduced_structure(balanced)


def test_flat_quotient_image_equations():
    rng = random.Random(6)
    for _ in range(8):
        h = flat_level_sample(rng, 3)
        qa, qb = flat_quotient_residuals(h)
        assert qa == 0 and qb == 0
        # the circle acts projectively trivially on the image coordinates
        rotated = h.left_mul(circle_point(Fraction(2, 7)))
        A1, B1 = flat_quotient_coordinates(h)
        A2, B2 = flat_quotient_coordinates(rotated)
        # proportionality over the complexified coordinates
        flat1 = [complex(float(x), float(y)) for x, y in A1 + B1]
        flat2 = [complex(float(x), float(y)) for x, y in A2 + B2]
        pivot = max(range(len(flat1)), key=lambda k: abs(flat1[k]))
        lam = flat2[pivot] / flat1[pivot]
        assert max(abs(a * lam - b) for a, b in zip(flat1, flat2)) < 1e-9


def test_flat_orthogonality():
    scene = ReductionScene(action="flat-s1", rank=3, seed=7)
    assert structure_orthogonality_check(scene, samples=4) == 0


def test_flat_scene_build_and_serialise():
    scene = build_flat_scene(rank=2, seed=8, samples=3)
    text = scene_to_json(scene)
    back = scene_from_json(text)
    assert back.action == "flat-s1" and back.rank == 2
    assert len(back.points) == 3
    assert back.points[0] == scene.points[0]
    payload = json.loads(text)
    assert payload["manifest"]["seed"] == 8


# -- weighted hyperbolic scene ------------------------------------------------


def test_weighted_killing_example():
    u = base_point(3)
    V = weighted_killing(1, 2, u)
    assert V.entries[0] == J.scale(2)
    assert V.entries[1].is_zero() and V.entries[2].is_zero()
    assert module_scalar_product(V, u.x) == 0


def test_weighted_killing_tangency_generic():
    rng = random.Random(9)
    for _ in range(8):
        u = random_sphere_point(rng, 3)
        V = weighted_killing(1, 2, u)
        assert module_scalar_product(V, u.x) == 0


def test_weight_validation():
    with pytest.raises(ValueError):
        weighted_killing(2, 2, base_point(3))
    with pytest.raises(ValueError):
        weighted_killing(2, 4, base_point(3))
    with pytest.raises(ValueError):
        weighted_killing(0, 1, base_point(3))


def test_level_value_examples():
    u = base_point(3)
    val = weighted_level_value(1, 2, u)
    assert (val.i, val.j, val.k) == (0, 2, 0)
    regular, value = weighted_regularity(1, 2, u)
    assert regular and value == 4


def test_level_sampler_and_flow_invariance():
    rng = random.Random(10)
    for _ in range(6):
        u = weighted_level_sample(rng, 1, 2)
        assert module_scalar_product(u.x, u.x) == 1
        assert weighted_level_value(1, 2, u).is_zero()
        regular, value = weighted_regularity(1, 2, u)
        assert regular and value == -2
        moved = weighted_flow_exact(1, 2, Fraction(1, 4), u.x)
        assert module_scalar_product(moved, moved) == 1
        assert weighted_level_value(1, 2, SpherePoint(moved)).is_zero()


def test_level_sampler_other_weights():
    rng = random.Random(11)
    u = weighted_level_sample(rng, 2, 3)
    assert weighted_level_value(2, 3, u).is_zero()
    regular, value = weighted_regularity(2, 3, u)
    assert regular and value == -6


def test_flow_float_preserves_norms():
    rng = random.Random(12)
    u = random_sphere_point(rng, 3)
    coords = np.array(u.x.to_real(), dtype=float)
    uf = PQVector.from_real(coords)
    moved = weighted_flow(1, 2, 0.37, uf)
    assert abs(float(module_scalar_product(moved, moved)) - 1.0) < 1e-12


def test_level_value_fiber_translation():
    # under a fiber translation the level value transforms by the
    # conjugation action, so the zero set descends to the quotient
    rng = random.Random(13)
    from pqgeom.projspace import random_unit_quaternion
    u = random_sphere_point(rng, 3)
    rho = random_unit_quaternion(rng)
    val = weighted_level_value(1, 2, u)
    moved = weighted_level_value(1, 2, u.right_translate(rho))
    v = SplitQuaternion(0, val.i, val.j, val.k)
    want = rho.conj() * v * rho
    assert (moved.i, moved.j, moved.k) == (want.b, want.c, want.d)


def test_level_gradient_row_consistency():
    # directional derivative of the level value along an exact flow curve
    rng = random.Random(14)
    from pqgeom.reduction import _level_gradient_rows
    u = weighted_level_sample(rng, 1, 2)
    rows = _level_gradient_rows(1, 2, u)
    V = weighted_killing(1, 2, u).to_real()
    # the flow preserves the level function, so its derivative kills V
    assert exactla.max_abs(rows @ V) == 0


def test_isotropy_route_zero_set_agreement():
    scene = ReductionScene(action="pq", p=1, q=2, seed=15)
    rep = moment_gradient_check(scene, samples=30)
    assert rep.zero_sets_agree
    assert rep.agreements == 30 and rep.disagreements == 0


def test_isotropy_traces_nonzero_off_level():
    u = base_point(3)  # not on the level set
    traces = isotropy_moment_traces(1, 2, u)
    assert any(t != 0 for t in traces)


def test_killing_derivative_is_skew():
    rng = random.Random(16)
    g = metric_matrix(3)
    u = weighted_level_sample(rng, 1, 2)
    dirs = admissible_directions(1, 2, u, rng, 3)
    for X in dirs:
        for Y in dirs:
            a = killing_derivative(1, 2, u, X) @ g @ Y
            b = killing_derivative(1, 2, u, Y) @ g @ X
            assert a + b == 0


def test_reduced_jacobi_exact_point():
    rng = random.Random(17)
    u = weighted_level_sample(rng, 1, 2)
    dirs = admissible_directions(1, 2, u, rng, 6)
    results = [reduced_jacobi(1, 2, u, X) for X in dirs]
    first = results[0]
    # scale-invariant ratio, identical across directions, exact
    assert all(r.ratio == first.ratio for r in results)
    assert first.ratio == Fraction(-1, 2)
    assert first.eigenvalues == (-5, -5, -2)
    assert first.einstein_constant == 16
    # the constant is derived from the ambient model, not passed in
    want = einstein_check(ambient_projective_curvature(2))[0]
    assert first.einstein_constant == want


def test_reduced_jacobi_guards():
    rng = random.Random(18)
    # a regularity-violating lift: weighted norms cancel exactly
    u0 = SplitQuaternion(Fraction(1, 3), 0, Fraction(-2, 3), 0)
    u12 = SplitQuaternion(Fraction(5, 6), 0, Fraction(-1, 6), 0)
    bad = SpherePoint(PQVector([u0, u12, u12]))
    ok, value = weighted_regularity(1, 2, bad)
    assert not ok and value == 0
    with pytest.raises(NonRegularError):
        reduced_jacobi(1, 2, bad, exactla.fracarray([0] * 12))
    # null direction at a good point
    u = weighted_level_sample(rng, 1, 2)
    basis = admissible_directions(1, 2, u, rng, 2)
    g = np.array(metric_matrix(3), dtype=float)
    a = np.array(basis[0], dtype=float)
    b = np.array(basis[1], dtype=float)
    qa, qb = a @ g @ a, b @ g @ b
    if qa * qb < 0:
        t = np.sqrt(-qa / qb)
        null_dir = a + t * b
        uf = SpherePoint(PQVector.from_real(
            np.array(u.x.to_real(), dtype=float)), tol=1e-9)
        with pytest.raises((NullDirectionError, ValueError)):
            reduced_jacobi(1, 2, uf, null_dir)


def test_ratio_varies_across_generic_points():
    rng = random.Random(19)
    ratios = []
    for _ in range(4):
        u = weighted_level_sample_float(rng, 1, 2)
        X = admissible_directions(1, 2, u, rng, 1)[0]
        ratios.append(float(reduced_jacobi(1, 2, u, X).ratio))
    assert max(ratios) - min(ratios) > 1e-3


def test_float_sampler_quality():
    rng = random.Random(20)
    u = weighted_level_sample_float(rng, 1, 2)
    assert abs(float(module_scalar_product(u.x, u.x)) - 1.0) < 1e-10
    assert float(weighted_level_value(1, 2, u).max_abs()) < 1e-10
    dirs = admissible_directions(1, 2, u, rng, 8)
    vals = [float(reduced_jacobi(1, 2, u, X).ratio) for X in dirs]
    scale = max(1.0, max(abs(v) for v in vals))
    assert (max(vals) - min(vals)) / scale < 1e-6


def test_pq_orthogonality_exact():
    scene = ReductionScene(action="pq", p=1, q=2, seed=21)
    assert structure_orthogonality_check(scene, samples=3) == 0


def test_empty_variant_level_set():
    smallest = empty_levelset_check(1, 2, samples=3000, seed=22)
    assert smallest > 1.0 - 1e-9


def test_im_value_helpers():
    v = ImValue(Fraction(0), Fraction(0), Fraction(0))
    assert v.is_zero()
    w = ImValue(Fraction(1, 2), Fraction(0), Fraction(-3))
    assert w.max_abs() == 3 and not w.is_zero()


def test_pq_scene_build_and_serialise():
    scene = build_pq_scene(p=1, q=2, seed=23, samples=2, directions=2,
                           sampler="exact")
    assert len(scene.points) == 2
    text = scene_to_json(scene)
    back = scene_from_json(text)
    assert back.p == 1 and back.q == 2
    assert module_scalar_product(back.points[0].x, back.points[0].x) == 1
    with pytest.raises(ValueError):
        build_pq_scene(p=2, q=4, seed=0, samples=1)


@pytest.mark.parametrize("sampler, scalar", [("float", float),
                                             ("exact", Fraction)])
def test_pq_scene_json_roundtrip_keeps_points(sampler, scalar):
    scene = build_pq_scene(samples=2, directions=1, sampler=sampler)
    back = scene_from_json(scene_to_json(scene))
    assert [u.x for u in back.points] == [u.x for u in scene.points]
    assert all(type(c) is scalar
               for u in back.points for h in u.x.entries
               for c in h.coefficients())


FLAT = ["-1", "0", "0"]
ZERO = ["0", "0", "0"]


@pytest.mark.parametrize("builder, level, other", [
    (lambda: build_flat_scene(rank=2, seed=8, samples=1), FLAT, ZERO),
    (lambda: build_pq_scene(samples=1, directions=1, sampler="exact"),
     ZERO, FLAT),
], ids=["flat-s1", "pq"])
def test_scene_level_follows_action(builder, level, other):
    payload = json.loads(scene_to_json(builder()))
    assert payload["manifest"]["xi"] == level
    scene_from_json(json.dumps(payload))
    # a manifest whose level does not match its action is rejected
    payload["manifest"]["xi"] = other
    with pytest.raises(ValueError, match="does not match"):
        scene_from_json(json.dumps(payload))


def test_moment_check_unknown_action():
    with pytest.raises(ValueError):
        moment_gradient_check(ReductionScene(action="nope"), samples=1)


# -- quotient-curvature oracle ------------------------------------------------
#
# The curvature of a reduction computed from first principles, with no
# use of the eigenvalue formula: Gauss for the level set inside the flat
# ambient module, then O'Neill for the submersion onto the orbit space.
# Convention R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].


def _paired(gram, forms):
    """P[x, y, z, w] = sum_ij gram^-1[i, j] forms[i][x, y] forms[j][z, w]."""
    forms = np.stack(forms)
    inner = np.tensordot(exactla.inverse(gram), forms, axes=([1], [0]))
    return np.tensordot(forms, inner, axes=([0], [0]))


def _quotient_curvature(g, u, rows, hessians, generators):
    """(curvature, horizontal frame) of the quotient at the level point u.

    rows: constraint differentials df_i at u; hessians: the Hessians H_i;
    generators: matrices L_a of the linear Killing fields u -> L_a u.
    """
    killing = np.stack([L @ u for L in generators])
    F = exactla.nullspace(np.concatenate([rows, killing @ g]))
    # Gauss: <II(X,Y), II(Z,W)> = sum G^ij h_i(X,Y) h_j(Z,W)
    II2 = _paired(rows @ exactla.inverse(g) @ rows.T,
                  [F.T @ H @ F for H in hessians])
    # O'Neill: <A_X Y, A_Z W> = sum Gv^ab Omega_a(X,Y) Omega_b(Z,W)
    A2 = _paired(killing @ g @ killing.T,
                 [F.T @ L.T @ g @ F for L in generators])
    low = (II2.transpose(2, 0, 1, 3) - II2.transpose(0, 2, 1, 3)
           - 2 * A2 + A2.transpose(2, 0, 1, 3) - A2.transpose(0, 2, 1, 3))
    gF = F.T @ g @ F
    tensor = np.tensordot(low, exactla.inverse(gF), axes=([3], [0]))
    return CurvatureTensor(tensor, gF), F


def _linear_data(u, rows_at, fields):
    """Rows at u, Hessians (column k of H_i is row i at e_k) and the
    matrices (column k is the field at e_k) of linear Killing fields."""
    basis = list(exactla.eye(len(u)))
    hessians = list(np.stack([rows_at(e) for e in basis], axis=2))
    generators = [np.stack([field(e) for e in basis], axis=1)
                  for field in fields]
    return rows_at(u), hessians, generators


def _weighted_quotient(p, q, u):
    g = metric_matrix(3)

    def rows_at(x):
        point = SpherePoint(PQVector.from_real(x), check=False)
        return np.concatenate([(2 * x @ g).reshape(1, -1),
                               _level_gradient_rows(p, q, point)])

    fields = [lambda x: weighted_killing(
        p, q, SpherePoint(PQVector.from_real(x), check=False)).to_real()]
    fields += [lambda x, e=e: PQVector.from_real(x).right_mul(e).to_real()
               for e in IMAGINARY_UNITS]
    x = u.x.to_real()
    return _quotient_curvature(g, x, *_linear_data(x, rows_at, fields))


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (3, 4)])
def test_reduced_jacobi_matches_quotient_curvature(p, q):
    rng = random.Random(24)
    u = weighted_level_sample(rng, p, q)
    R, F = _weighted_quotient(p, q, u)
    assert R.dim == 4
    assert bianchi_residual(R) == 0
    # Einstein with 12 = nu (n + 2): the reduced scalar curvature nu = 4
    # of the ambient model survives the reduction
    assert einstein_check(R) == (12, 0)
    for X in admissible_directions(p, q, u, rng, 2):
        coords, residual = exactla.frame_coordinates(F, X)
        assert residual == 0
        K, _ = restrict_to_complement(R, coords)
        K = K / (coords @ R.metric @ coords)
        # equal power sums of the 3 x 3 operator and of the formula's
        # eigenvalues fix the eigenvalues with multiplicity
        want = reduced_jacobi(p, q, u, X).eigenvalues
        power = exactla.eye(3)
        for k in (1, 2, 3):
            power = power @ K
            assert np.trace(power) == sum(lam ** k for lam in want)


@pytest.mark.parametrize("rank", [2, 3])
def test_flat_quotient_is_para_hyperkahler(rank):
    rng = random.Random(25)
    h = flat_level_sample(rng, rank)
    x = h.to_real()
    R, F = _quotient_curvature(metric_matrix(rank), x, *_linear_data(
        x, lambda y: _moment_gradient_rows(PQVector.from_real(y)),
        [lambda y: flat_killing(PQVector.from_real(y)).to_real()]))
    red = flat_reduced_structure(h)
    assert exactla.max_abs(F - red.frame) == 0
    assert R.max_abs() != 0
    assert bianchi_residual(R) == 0
    assert exactla.max_abs(ricci(R)) == 0
    # every R(X, Y) commutes with the descended structure
    M = R.tensor.transpose(0, 1, 3, 2)
    for Ja in red.structure.J:
        assert exactla.max_abs(M @ Ja - Ja @ M) == 0
