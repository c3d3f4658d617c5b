import random
from fractions import Fraction

import numpy as np
import pytest

from pqgeom import exactla
from pqgeom.algebra import EPS
from pqgeom.forms import (ETA, BilinearForm, NotInGroupError,
                          NotSkewError, fundamental_four_form,
                          hermitian_projector, lie_derivative_residual,
                          random_rotation, rotate_structure, two_form)
from pqgeom.linalg import (HermitianStructure, random_antihermitian,
                           structure_endos)

from test_algebra import circle_point, hyperbola_point
from test_linalg import eye, ref_inverse, zeros


def _plane_rotation(plane, c, s, sign):
    """Fraction array equal to Id off the plane (a, b), with c on its
    diagonal, s at (b, a) and sign * s at (a, b)."""
    a, b = plane
    R = eye(3)
    R[a, a] = R[b, b] = exactla.frac(c)
    R[a, b], R[b, a] = exactla.frac(sign * s), exactla.frac(s)
    return R


def hyperbolic_rotation(plane, cosh_val, sinh_val):
    """Rotation by a rational point (cosh, sinh) of the unit hyperbola in
    a mixed-sign plane; plane indices are 0-based into (1, 2, 3)."""
    return _plane_rotation(plane, cosh_val, sinh_val, 1)


def circular_rotation(plane, cos_val, sin_val):
    """Rotation by a rational point (cos, sin) of the unit circle in a
    definite plane."""
    return _plane_rotation(plane, cos_val, sin_val, -1)


def in_rotation_group(R):
    """(bool, residual) for R^T eta R = eta and det R = 1, on a Fraction
    array: the reference predicate of the rotation group."""
    det = R[0] @ np.cross(R[1], R[2])
    res = max(exactla.max_abs(R.T @ ETA @ R - ETA), abs(det - 1))
    return res == 0, res


def rand_vec(rng, dim):
    return exactla.fracarray([rng.randint(-4, 4) for _ in range(dim)])


def rand_form(rng, dim):
    return BilinearForm(exactla.fracarray(
        [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]))


def rand_fraction_vec(rng, dim):
    """Vector whose entries are all non-integers, so its scale is > 1."""
    return exactla.fracarray([rng.randint(-4, 4)
                              + Fraction(1, rng.randint(2, 6))
                              for _ in range(dim)])


def conjugated(H, rng):
    """H moved by a unit upper-triangular P with rational entries,
    J_a -> P^-1 J_a P and g -> P^T g P: a structure with denominators."""
    P = eye(H.dim)
    for i in range(H.dim):
        for j in range(i + 1, H.dim):
            P[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    Pinv = ref_inverse(P)
    return HermitianStructure(*(Pinv @ Ja @ P for Ja in H.J), P.T @ H.g @ P)


def all_fractions(arr):
    return all(type(x) is Fraction for x in np.asarray(arr).reshape(-1))


def test_two_form_basic():
    H = structure_endos(1)
    w1 = two_form(H.J[0], H.g)
    assert exactla.max_abs(w1.matrix + w1.matrix.T) == 0
    assert exactla.rank(w1.matrix) == 4
    with pytest.raises(NotSkewError):
        two_form(eye(4), H.g)


def test_two_form_matches_fraction_reference():
    # the scaled-integer J^T g against the Fraction product, on structures
    # with denominators in J and g
    rng = random.Random(9)
    for n in (1, 2):
        H = conjugated(structure_endos(n), rng)
        for Ja in H.J:
            got = two_form(Ja, H.g).matrix
            assert all_fractions(got) and (got == Ja.T @ H.g).all()


def test_two_form_residual_has_scale_divided_out():
    # J = Id / 3: J^T g + g J = (2/3) g, computed as 2 g over the scale 3
    H = structure_endos(1)
    with pytest.raises(NotSkewError, match=r"residual 2/3$"):
        two_form(eye(4) * Fraction(1, 3), H.g)


def test_two_form_pairing_identity():
    rng = random.Random(0)
    H = structure_endos(2)
    for a in range(3):
        N, L = two_form(H.J[a], H.g).scaled
        for _ in range(10):
            x = rand_vec(rng, 8)
            assert x @ N @ (H.J[a] @ x) / L == EPS[a] * (x @ H.g @ x)


def ref_four_form(omegas, x, y, z, w):
    """The six-term evaluator sum_a 2 eps_a (w(x,y) w(z,w) - w(x,z) w(y,w)
    + w(x,w) w(y,z)), w = omega_a, on bilinear values: the reference for
    the closed-formula array of FourForm."""
    terms = 0
    for eps, om in zip(EPS, omegas):
        oxy, oxz, oxw = x @ om @ y, x @ om @ z, x @ om @ w
        oyz, oyw, ozw = y @ om @ z, y @ om @ w, z @ om @ w
        terms = terms + eps * 2 * (oxy * ozw - oxz * oyw + oxw * oyz)
    return terms


def evaluate(Om, x, y, z, w):
    """Omega(x, y, z, w): the integer coefficient array of Om contracted
    with four exact vectors, over its scale, as one Fraction."""
    C, L = Om.scaled
    return Fraction(x @ (((C @ w) @ z) @ y), L)


def four_form_omegas(H):
    return [two_form(Ja, H.g).matrix for Ja in H.J]


def integer_omegas(H):
    """The 2-forms of a standard structure, which are integral, as int64
    arrays: the reference sweeps over basis vectors run on machine ints."""
    omegas = four_form_omegas(H)
    assert all(x.denominator == 1 for om in omegas for x in om.reshape(-1))
    return [om.astype(np.int64) for om in omegas]


def test_four_form_volume_and_antisymmetry():
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    e = eye(4)
    assert evaluate(Om, e[0], e[1], e[2], e[3]) != 0
    assert evaluate(Om, e[0], e[0], e[1], e[2]) == 0
    # full antisymmetry on the stored array
    assert exactla.max_abs(Om.array + Om.array.transpose(1, 0, 2, 3)) == 0
    assert exactla.max_abs(Om.array + Om.array.transpose(0, 1, 3, 2)) == 0
    # the array is dense at every rank
    H3 = structure_endos(3)
    Om3 = fundamental_four_form(H3)
    assert Om3.array.shape == (12,) * 4
    x = eye(12)
    assert evaluate(Om3, x[0], x[0], x[1], x[2]) == 0


def test_four_form_array_matches_evaluator():
    # the closed-formula array against the six-term reference evaluator:
    # every entry at rank 1, 200 seeded entries at ranks 2 and 3
    for n in (1, 2, 3):
        H = structure_endos(n)
        Om = fundamental_four_form(H)
        omegas, int_omegas = four_form_omegas(H), integer_omegas(H)
        e = np.eye(H.dim, dtype=np.int64)
        rng = random.Random(6 + n)
        idxs = (list(np.ndindex((4,) * 4)) if n == 1 else
                [tuple(rng.randrange(H.dim) for _ in range(4))
                 for _ in range(200)])
        array = Om.array   # formed on each access
        for idx in idxs:
            got = array[idx]
            assert type(got) is Fraction
            assert got == ref_four_form(int_omegas, *(e[i] for i in idx))
        # the array contracted with seeded rational vectors
        for _ in range(3):
            xs = [exactla.fracarray([Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 3))
                                     for _ in range(H.dim)])
                  for _ in range(4)]
            got = evaluate(Om, *xs)
            assert type(got) is Fraction and got == ref_four_form(omegas, *xs)


@pytest.mark.parametrize("n", [1, 2])
def test_four_form_evaluation_matches_fraction_contraction(n):
    # the integer array contracted with vectors whose entries are all
    # non-integers, against the six-term evaluator on the Fraction
    # 2-forms, on the standard structure and on one with denominators
    rng = random.Random(10 + n)
    for H in (structure_endos(n), conjugated(structure_endos(n), rng)):
        Om, omegas = fundamental_four_form(H), four_form_omegas(H)
        for _ in range(8):
            x, y, z, w = (rand_fraction_vec(rng, H.dim) for _ in range(4))
            got = evaluate(Om, x, y, z, w)
            assert type(got) is Fraction
            assert got == ref_four_form(omegas, x, y, z, w)
            assert got == x @ (((Om.array @ w) @ z) @ y)


def test_rotation_group_membership():
    ok, res = in_rotation_group(eye(3))
    assert ok and res == 0
    ch, sh = Fraction(5, 4), Fraction(3, 4)
    co, si = Fraction(3, 5), Fraction(4, 5)
    # mixed-sign planes through the first axis are hyperbolic
    assert in_rotation_group(hyperbolic_rotation((0, 1), ch, sh))[0]
    assert in_rotation_group(hyperbolic_rotation((0, 2), ch, sh))[0]
    # the (2, 3) plane is definite: circular works, hyperbolic does not
    assert in_rotation_group(circular_rotation((1, 2), co, si))[0]
    assert not in_rotation_group(hyperbolic_rotation((1, 2), ch, sh))[0]
    assert not in_rotation_group(circular_rotation((0, 1), co, si))[0]


def test_rotate_structure():
    H = structure_endos(1)
    same = rotate_structure(H, (np.eye(3, dtype=object), 1))
    assert max(exactla.max_abs(same.J[a] - H.J[a]) for a in range(3)) == 0
    R = hyperbolic_rotation((0, 1), Fraction(5, 4), Fraction(3, 4))
    rotated = rotate_structure(H, exactla.scaled_integers(R))
    assert rotated.comrel_residual() == 0
    assert rotated.skew_residual() == 0
    bad = hyperbolic_rotation((1, 2), Fraction(5, 4), Fraction(3, 4))
    with pytest.raises(NotInGroupError,
                       match=f"residual {in_rotation_group(bad)[1]}$"):
        rotate_structure(H, exactla.scaled_integers(bad))


def test_rotate_structure_matches_fraction_sum():
    # one integer tensordot against sum_b R_ab J_b on Fractions
    rng = random.Random(12)
    H = conjugated(structure_endos(2), rng)
    for _ in range(20):
        R = random_rotation(rng)
        rotated = rotate_structure(H, R)
        F = exactla.from_scaled_integers(*R)
        for a in range(3):
            want = sum((F[a, b] * H.J[b] for b in range(3)),
                       zeros(H.g.shape))
            assert all_fractions(rotated.J[a])
            assert (rotated.J[a] == want).all()


def as_float64(arr):
    return np.array(arr, dtype=float)


def holding_a_float(arr):
    """Object copy of arr with its first entry replaced by an equal float."""
    out = np.array(arr, dtype=object)
    out.reshape(-1)[0] = float(out.reshape(-1)[0])
    return out


@pytest.mark.parametrize("inexact", [as_float64, holding_a_float],
                         ids=["float64", "object-float"])
def test_integer_routes_reject_inexact_input(inexact):
    # two_form used to compute silently in float; the 4-form action takes
    # an integer matrix over a scale, and read 0 at the float or Fraction
    # matrix Id / 2, whose entries it truncated
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    calls = [
        lambda: two_form(inexact(H.J[0]), H.g),
        lambda: two_form(H.J[0], inexact(H.g)),
        lambda: lie_derivative_residual(
            Om, inexact(np.eye(4, dtype=object)), 1),
        lambda: lie_derivative_residual(
            Om, np.eye(4, dtype=object) * Fraction(1, 2), 1),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def ref_random_rotation(rng):
    """The Fraction chain random_rotation ran before it composed its
    factors on integers: the reference for it."""
    R = eye(3)
    for _ in range(3):
        kind = rng.randrange(4)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if kind == 0 or kind == 1:
            if t * t == 1:
                continue
            h = hyperbola_point(t)
            R = R @ hyperbolic_rotation((0, kind + 1), h.a, h.c)
        elif kind == 2:
            c = circle_point(t)
            R = R @ circular_rotation((1, 2), c.a, c.b)
        else:
            R = R @ exactla.fracarray([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return R


@pytest.mark.parametrize("seed", range(50))
def test_random_rotation_matches_fraction_chain(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(4):
        (R, L), want = random_rotation(rng), ref_random_rotation(ref_rng)
        assert all(type(x) is int for x in [*R.reshape(-1), L]) and L >= 1
        assert (exactla.from_scaled_integers(R, L) == want).all()
    assert rng.getstate() == ref_rng.getstate()


def test_random_rotations_preserve_relations():
    rng = random.Random(1)
    H = structure_endos(1)
    for _ in range(25):
        R = random_rotation(rng)
        ok, res = in_rotation_group(exactla.from_scaled_integers(*R))
        assert ok and res == 0
        rotated = rotate_structure(H, R)
        assert rotated.comrel_residual() == 0


def test_four_form_rotation_invariance():
    rng = random.Random(2)
    H = structure_endos(1)
    Om = fundamental_four_form(H)
    for _ in range(120):
        R = random_rotation(rng)
        Om2 = fundamental_four_form(rotate_structure(H, R))
        xs = [rand_vec(rng, 4) for _ in range(4)]
        assert evaluate(Om, *xs) == evaluate(Om2, *xs)


def rotation_stack(rng, count, dtype=np.int64):
    """count random_rotation draws as one stack (R, L) of the dtype."""
    draws = [random_rotation(rng) for _ in range(count)]
    return (np.array([R for R, _ in draws], dtype=dtype),
            np.array([L for _, L in draws], dtype=dtype))


def machine_integer_structure(n):
    """structure_endos(n) with int64 members and metric."""
    (J, LJ), (g, Lg) = structure_endos(n).scaled_J, structure_endos(n).scaled_g
    return HermitianStructure(*J.astype(np.int64), g.astype(np.int64),
                              scales=(LJ, Lg))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_four_form_stack_matches_one_rotation_at_a_time(dtype):
    # 100 rotations as one stack: the rotated structures and their 4-forms
    # equal those of 100 separate fundamental_four_form(rotate_structure(
    # H, R)) calls, pair for pair, on int64 and on Python ints
    rng = random.Random(6)
    R, L = rotation_stack(rng, 100, dtype)
    H = structure_endos(1)
    Hs = rotate_structure(machine_integer_structure(1) if dtype is np.int64
                          else H, (R, L))
    assert Hs.scaled_J[0].shape == (100, 3, 4, 4)
    assert Hs.comrel_residual() == 0 and Hs.skew_residual() == 0
    C, LC = fundamental_four_form(Hs).scaled
    assert C.dtype == dtype and C.shape == (100, 4, 4, 4, 4)
    for Rk, Lk, Ck, LCk in zip(R, L, C, LC):
        want, LW = fundamental_four_form(
            rotate_structure(H, (Rk.astype(object), int(Lk)))).scaled
        assert LCk == LW and (Ck == want).all()
    # the Fraction view of a stack is that of each member
    view = fundamental_four_form(Hs).array
    assert view.shape == C.shape
    assert (view[7] == exactla.from_scaled_integers(C[7], int(LC[7]))).all()


def test_rotate_structure_checks_the_whole_stack():
    # one matrix off the group in a stack of rotations fails the stack,
    # with the residual of that matrix
    rng = random.Random(8)
    R, L = rotation_stack(rng, 10, object)
    bad = hyperbolic_rotation((1, 2), Fraction(5, 4), Fraction(3, 4))
    R[4], L[4] = exactla.scaled_integers(bad)
    with pytest.raises(NotInGroupError,
                       match=f"residual {in_rotation_group(bad)[1]}$"):
        rotate_structure(structure_endos(1), (R, L))
    # a reflection keeps eta but has det -1, the residual 2
    R[4], L[4] = np.diag(np.array([1, 1, -1], dtype=object)), 1
    with pytest.raises(NotInGroupError, match="residual 2$"):
        rotate_structure(structure_endos(1), (R, L))


def test_flipped_eps_is_seen_at_rank_two_only(monkeypatch):
    # every 4-form on a rank-1 module is a multiple of the volume form,
    # and sum_a eps_a omega_a ^ omega_a stays invariant for any signs
    # eps there; at rank 2 a flipped sign breaks the invariance
    import pqgeom.forms as forms
    monkeypatch.setattr(forms, "EPS", (1, 1, -1))
    for n, invariant in ((1, True), (2, False)):
        H = structure_endos(n)
        C, L = fundamental_four_form(H).scaled
        rng = random.Random(0)
        moved = [exactla.scaled_distance(C, L, *fundamental_four_form(
            rotate_structure(H, random_rotation(rng))).scaled)
            for _ in range(10)]
        assert (max(moved) == 0) is invariant


def test_projector_fixes_metric():
    H = structure_endos(2)
    herm, mix, _ = hermitian_projector(BilinearForm(H.g), H)
    assert exactla.max_abs(herm.matrix - H.g) == 0
    assert exactla.max_abs(mix.matrix) == 0


def test_projector_zero():
    H = structure_endos(1)
    herm, mix, four = hermitian_projector(BilinearForm(zeros((4, 4))), H)
    assert exactla.max_abs(herm.matrix) == 0
    assert all(exactla.max_abs(f.matrix) == 0 for f in four.values())


def test_projector_idempotent_and_fourway():
    rng = random.Random(3)
    H = structure_endos(1)
    for _ in range(15):
        B = rand_form(rng, 4)
        herm, mix, four = hermitian_projector(B, H)
        herm2, _, _ = hermitian_projector(herm, H)
        assert exactla.max_abs(herm2.matrix - herm.matrix) == 0
        total = sum(f.matrix for f in four.values())
        assert exactla.max_abs(total - B.matrix) == 0
        # each component reproduces itself under its own classification
        for key, part in four.items():
            h2, m2, four2 = hermitian_projector(part, H)
            assert exactla.max_abs(four2[key].matrix - part.matrix) == 0
            others = [k for k in four2 if k != key]
            assert all(exactla.max_abs(four2[k].matrix) == 0 for k in others)


def ref_hermitian_projector(M, H):
    """Pi(B) and the four-way parts on Fraction arrays: the reference for
    the scaled-integer hermitian_projector."""
    herm = Fraction(1, 4) * (M + sum(EPS[a] * (H.J[a].T @ M @ H.J[a])
                                     for a in range(3)))
    mix = M - herm
    half = Fraction(1, 2)
    return herm, mix, {
        "sym_hermitian": half * (herm + herm.T),
        "alt_hermitian": half * (herm - herm.T),
        "sym_mixed": half * (mix + mix.T),
        "alt_mixed": half * (mix - mix.T)}


def test_projector_matches_fraction_reference():
    # rational B on the standard structure and on rotated ones, whose
    # members have denominators
    rng = random.Random(8)
    for n in (1, 2):
        H = structure_endos(n)
        for Hs in (H, rotate_structure(H, random_rotation(rng))):
            M = exactla.fracarray([[Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4))
                                    for _ in range(Hs.dim)]
                                   for _ in range(Hs.dim)])
            herm, mix, four = hermitian_projector(BilinearForm(M), Hs)
            rherm, rmix, rfour = ref_hermitian_projector(M, Hs)
            pairs = [(herm.matrix, rherm), (mix.matrix, rmix)]
            pairs += [(four[k].matrix, rfour[k]) for k in rfour]
            for got, want in pairs:
                assert all(type(x) is Fraction for x in got.reshape(-1))
                assert (got == want).all()


def test_projector_basis_independent():
    rng = random.Random(4)
    H = structure_endos(1)
    for _ in range(15):
        B = rand_form(rng, 4)
        R = random_rotation(rng)
        h1, _, _ = hermitian_projector(B, H)
        h2, _, _ = hermitian_projector(B, rotate_structure(H, R))
        assert exactla.max_abs(h1.matrix - h2.matrix) == 0


def ref_lie_action(C, A):
    """(A . Omega)[p, q, r, s] = Omega(A e_p, e_q, e_r, e_s) + ...
    + Omega(e_p, e_q, e_r, A e_s) for the coefficient array C of Omega
    and an integer A, with (A e_p)_t = A[t, p] in each slot, by einsum on
    int64: the reference for lie_derivative_residual."""
    C, A = np.asarray(C, dtype=np.int64), np.asarray(A, dtype=np.int64)
    return (np.einsum("tp,tqrs->pqrs", A, C) + np.einsum("tq,ptrs->pqrs", A, C)
            + np.einsum("tr,pqts->pqrs", A, C)
            + np.einsum("ts,pqrt->pqrs", A, C))


def test_four_form_annihilated_by_skew_members():
    # the whole action A . Omega of sp(n, R) + sp(1) members vanishes; a
    # generic endomorphism has the residual of the reference, over the
    # scale of the endomorphism, also on a structure with denominators
    # (the max entry does not tell A from its transpose on the standard
    # structures; at n = 1 A . Omega = tr(A) Omega, Omega being a volume
    # form)
    rng = random.Random(5)
    structures = [(structure_endos(1), True), (structure_endos(2), True),
                  (conjugated(structure_endos(2), rng), False)]
    for H, standard in structures:
        Om = fundamental_four_form(H)
        C, L = Om.scaled
        if standard:
            J, LJ = H.scaled_J
            for _ in range(4):
                A, LA = random_antihermitian(rng, H.rank).to_real_action()
                c = [rng.randint(-3, 3) for _ in range(3)]
                member = A * LJ + sum(ca * Ja for ca, Ja in zip(c, J)) * LA
                assert lie_derivative_residual(Om, member, LA * LJ) == 0
                assert not ref_lie_action(C, member).any()
        generic = np.array([[rng.randint(-3, 3) for _ in range(H.dim)]
                            for _ in range(H.dim)], dtype=object)
        want = int(np.abs(ref_lie_action(C, generic)).max())
        assert want != 0
        for scale in (1, 3):
            got = lie_derivative_residual(Om, generic, scale)
            assert type(got) is Fraction and got == Fraction(want, L * scale)


def test_eta_is_minus_eps():
    assert list(np.diag(ETA)) == [-EPS[0], -EPS[1], -EPS[2]]
