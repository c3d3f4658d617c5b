"""No Fraction in the integer paths of exactla, linalg, forms, the kernel
frames, the curvature builders and the reductions.

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

from pqgeom import exactla
from pqgeom.curvature import special_linear_decomposition, weyl_sample
from pqgeom.forms import (BilinearForm, fundamental_four_form,
                          hermitian_projector, random_rotation,
                          rotate_structure, two_form)
from pqgeom.linalg import (grassman_split, module_scalar_product,
                           random_antihermitian, random_pq_matrix,
                           random_pq_vector, real_rep, structure_endos)
from pqgeom.projspace import (induced_geometry, random_sphere_point,
                              tangent_split)
from pqgeom.reduction import (_generator_action, _level_gradient_rows,
                              _normal_residual, empty_levelset_check,
                              flat_level_sample, flat_reduced_structure,
                              weighted_level_sample, weighted_level_value)


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
    # the structure constants are Fraction arrays, one Fraction per
    # distinct value, and each of the four frame_coordinates calls forms
    # its residual
    D = special_linear_decomposition(2)
    distinct = sum(len(set(c.reshape(-1))) for c in (D.c_mm, D.c_fm, D.c_ff))
    assert fraction_count[0] == distinct + 4


def test_reduced_and_induced_structures_form_only_their_results(
        fraction_count):
    # flat_reduced_structure: the frame view (one Fraction per distinct
    # value) and the two residuals; induced_geometry: the frame view
    rng = random.Random(2)
    for _ in range(3):
        h = flat_level_sample(rng, 3)
        fraction_count[0] = 0
        red = flat_reduced_structure(h)
        assert fraction_count[0] == len(set(red.frame.reshape(-1))) + 2
        x = random_sphere_point(rng, 3)
        fraction_count[0] = 0
        _, frame = induced_geometry(x)
        assert fraction_count[0] == len(set(frame.reshape(-1)))


def test_module_points_form_only_their_results(fraction_count):
    # module vectors and sphere points are integer pairs: drawing and
    # splitting a point and the matrix action form no Fraction, the
    # scalar product forms its value and the level value its three
    # components
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
        "weighted_level_value": (lambda: [weighted_level_value(1, 2, p)
                                          for p in (u, x)], 6),
    }
    formed = {}
    for name, (call, _) in calls.items():
        fraction_count[0] = 0
        call()
        formed[name] = fraction_count[0]
    assert formed == {name: want for name, (_, want) in calls.items()}
