"""No Fraction in the integer paths of exactla, linalg, forms, the kernel
frames, the curvature builders and diagnostics, and the reductions.

Split-quaternion matrices, structures, bilinear forms, 4-forms, the tensor
splitting, elimination results and kernel bases are held as integer
arrays over one scale, and the operations below compute on those pairs
from input to result.  A Fraction formed inside one
of them is a conversion the design removed (an array turned into
Fractions and back), so these tests count every Fraction constructed
during the calls and require none, or exactly those of the results that
are Fractions.  The count wraps ``Fraction.__new__``, through which
Fraction arithmetic builds its results too.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import cli, exactla
from pqgeom.curvature import (ambient_projective_curvature, einstein_check,
                              jacobi_spectrum_report, restrict_to_complement,
                              solvable_decomposition,
                              special_linear_decomposition,
                              symmetric_space_curvature, weyl_sample)
from pqgeom.forms import (BilinearForm, fundamental_four_form,
                          hermitian_projector, random_rotation,
                          rotate_structure, two_form)
from pqgeom.linalg import (grassman_split, module_scalar_product,
                           random_antihermitian, real_rep, structure_endos)
from pqgeom.projspace import (induced_geometry, random_sphere_point,
                              tangent_split)
from pqgeom.reduction import (_generator_action, _level_gradient_rows,
                              _normal_residual, empty_levelset_check,
                              flat_level_sample, flat_reduced_structure,
                              weighted_level_sample, weighted_level_value)

from test_linalg import random_pq_matrix, random_pq_vector


@pytest.fixture
def fraction_count(monkeypatch):
    """A one-item list holding the number of Fractions constructed since
    the fixture was set up."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return count


def test_counter_sees_fraction_construction_and_arithmetic(fraction_count):
    x = Fraction(1, 3)
    assert fraction_count[0] == 1
    x + x
    assert fraction_count[0] == 2


def test_integer_paths_form_no_fraction(fraction_count):
    rng = random.Random(0)
    H = structure_endos(2)
    R = random_rotation(rng)
    B = BilinearForm(np.array([[rng.randint(-5, 5) for _ in range(8)]
                               for _ in range(8)], dtype=object))
    J1, g = H.J[0], H.g
    A, C = random_pq_matrix(rng, 3), random_pq_matrix(rng, 3)
    S = random_antihermitian(rng, 3)
    calls = {
        "random draws": lambda: (random_pq_matrix(rng, 3),
                                 random_antihermitian(rng, 3)),
        "matmul": lambda: A @ C,
        "commutator": lambda: A.commutator(S),
        "add and sub": lambda: (A + S) - C,
        "conj_transpose": lambda: A.conj_transpose() == -A,
        "real_rep": lambda: real_rep(A),
        "to_real_action": lambda: A.to_real_action(),
        "random_rotation": lambda: random_rotation(rng),
        "rotate_structure": lambda: rotate_structure(H, R),
        "fundamental_four_form": lambda: fundamental_four_form(
            rotate_structure(H, R)),
        "hermitian_projector": lambda: hermitian_projector(
            B, rotate_structure(H, R)),
        "two_form": lambda: two_form(J1, g),
    }
    formed = {}
    for name, call in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == dict.fromkeys(calls, 0)


def test_kernel_frames_form_no_fraction(fraction_count):
    rng = random.Random(1)
    mat = np.array([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(7)] for _ in range(3)], dtype=object)
    u = weighted_level_sample(rng, 1, 2)
    U, _ = u.x.scaled
    frame, _, _ = exactla.nullspace(_level_gradient_rows(1, 2, U))
    killing = _generator_action(1, 2, U)
    calls = {
        "nullspace": lambda: exactla.nullspace(mat),
        "normal residual": lambda: _normal_residual(frame, killing),
        "empty_levelset_check": lambda: empty_levelset_check(
            1, 2, 300, random.Random(0)),
    }
    formed = {}
    for name, call in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == dict.fromkeys(calls, 0)


def test_eliminations_and_tensor_splitting_form_no_fraction(
        fraction_count):
    # solve and inverse of a matrix with denominators, the tensor splitting
    # of the standard structure and a Weyl sample drawn from it; the
    # metric view the sample carries is formed before the count
    rng = random.Random(3)
    a = np.array([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(6)] for _ in range(6)], dtype=object)
    a += np.eye(6, dtype=object) * 40      # diagonally dominant: invertible
    b = a[:, :2] * Fraction(1, 3)
    H = structure_endos(2)
    H.g
    split = grassman_split(H)
    calls = {
        "solve": lambda: exactla.solve(a, b),
        "inverse": lambda: exactla.inverse(a),
        "grassman_split": lambda: [grassman_split(structure_endos(n))
                                   for n in (1, 2, 3)],
        "weyl_sample": lambda: weyl_sample(H, split, rng),
    }
    formed = {}
    for name, call in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == dict.fromkeys(calls, 0)


def test_special_linear_decomposition_forms_only_its_results(fraction_count):
    # the structure constants and the metric are integer pairs, and each
    # of the four frame_coordinates calls forms its residual
    D = special_linear_decomposition(2)
    assert fraction_count[0] == 4
    fraction_count[0] = 0
    symmetric_space_curvature(D)
    symmetric_space_curvature(solvable_decomposition(1))
    assert fraction_count[0] == 0


def test_reduced_and_induced_structures_form_only_their_results(
        fraction_count):
    # flat_reduced_structure: the two residuals; induced_geometry: none
    # (both frames are kernel pairs)
    rng = random.Random(2)
    for _ in range(3):
        h = flat_level_sample(rng, 3)
        fraction_count[0] = 0
        flat_reduced_structure(h)
        assert fraction_count[0] == 2
        x = random_sphere_point(rng, 3)
        fraction_count[0] = 0
        induced_geometry(x)
        assert fraction_count[0] == 0


def test_module_points_form_only_their_results(fraction_count):
    # module vectors and sphere points are integer pairs: drawing a point
    # (on the sphere, or on the level set), splitting it, the matrix
    # action and the level value (L^2 times the value, on integers) form
    # no Fraction, and the scalar product forms its value
    rng = random.Random(4)
    A = random_pq_matrix(rng, 3)
    h, hp = random_pq_vector(rng, 3), random_pq_vector(rng, 3)
    x = random_sphere_point(rng, 3)
    u = weighted_level_sample(rng, 1, 2)
    calls = {
        "random_sphere_point": (lambda: random_sphere_point(rng, 3), 0),
        "tangent_split": (lambda: tangent_split(x), 0),
        "matrix times vector": (lambda: A @ h, 0),
        "module_scalar_product": (lambda: module_scalar_product(h, hp), 1),
        "weighted_level_sample": (lambda: weighted_level_sample(rng, 1, 2), 0),
        "weighted_level_value": (lambda: [weighted_level_value(
            1, 2, p.x.scaled[0]) for p in (u, x)], 0),
    }
    formed = {}
    for name, (call, _) in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == {name: want for name, (_, want) in calls.items()}


def test_batched_sampling_checks_form_only_their_results(fraction_count):
    # the checks that evaluate their identity on whole integer batches, at
    # the default configuration and seed 0: the count of shortfalls and the
    # int64 norm residual form none; the conjugation and scalar-product
    # checks form their residual, representation-homomorphism its two
    # distances per rank; moment-gradient stays on int64, since
    # flat_adapted_moment doubles the adapted moment instead of halving
    # its first component, and forms only its result; so do
    # zero-set-cross-check, whose level points are drawn on integers and
    # whose traces and level values are compared on integer stacks, and
    # four-form-rotation-invariance, on int64 stacks of 4-forms
    config = cli.CheckConfig()
    want = {"norm-multiplicativity": 0, "conjugation-anti-automorphism": 1,
            "center-is-real-line": 0, "representation-homomorphism": 6,
            "scalar-product-complex-form": 1, "moment-gradient": 1,
            "definite-axis-empty-level-set": 0, "zero-set-cross-check": 1,
            "four-form-rotation-invariance": 1}
    formed = {}
    for rows in cli.REGISTRY.values():
        for name, fn, _, _ in rows:
            if name in want:
                rng = cli._check_rng(config, name)
                fraction_count[0] = 0
                fn(config, rng)
                formed[name] = fraction_count[0]
    assert formed == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_diagnostics_form_only_their_scalar_results(
        fraction_count, n):
    # on the shared model tensor: einstein_check forms the scalar
    # curvature, the constant and the residual; restrict_to_complement
    # hands on integer pairs; jacobi_spectrum_report forms the d - 1
    # power sums of each direction, in a spacelike and a timelike one
    R = ambient_projective_curvature(n)
    e = np.eye(R.dim, dtype=object)
    calls = {
        "einstein_check": (lambda: einstein_check(R), 3),
        "restrict_to_complement": (
            lambda: restrict_to_complement(R, e[0]), 0),
        "jacobi_spectrum_report": (
            lambda: jacobi_spectrum_report(R, [e[0], e[2]]),
            2 * (R.dim - 1)),
    }
    formed = {}
    for name, (call, _) in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == {name: want for name, (_, want) in calls.items()}


def test_curvature_suite_forms_few_fractions(fraction_count, capsys):
    # the whole curvature suite at n = 3 hands pairs between its routines:
    # the Fractions left are scalar results and the reports
    assert cli.main(["--suite", "curvature", "--n", "3"]) == 0
    assert fraction_count[0] < 150
