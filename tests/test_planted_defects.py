"""Planted defects: a check must fail when the identity it certifies is
broken.

Each row plants one defect in an ingredient of one registry check (one
sign flipped in a product, a norm, a conjugation, an inverse, a printed
coefficient, a representation, a scalar product, a record of a quotient,
a column of the moment table, a term or a scale of the 4-form, an
element off the unit group, or a curvature ingredient: a term, a slot, a
cyclic order, a projector part or a sign; a representation that loses a
coordinate, a bracket, a repeated seed, a swapped column of the tensor
basis, a projector's scale or signs, the slots of a 2-form) and runs the
check's suite through ``run_suite``; the check must report ``fail``.  A
check that still passes is vacuous on its samples.  A row of the second
table plants bad input instead (a rotation off the group, a record whose
frame the structure does not preserve), which a named guard of the check
must refuse loudly: it reports ``error``, and the check raises that
guard's error.  The registry checks with a row in neither table are
listed in ``NO_ROW_YET``.  A degenerate sampler must not hang a suite
either: its redraw loops give up with an error.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqgeom.cli as cli
import pqgeom.curvature as curv
import pqgeom.forms as forms
import pqgeom.linalg as linalg
import pqgeom.projspace as proj
import pqgeom.reduction as red
from pqgeom.algebra import EPS, UNITS, SplitQuaternion
from pqgeom.linalg import REDRAW_LIMIT, RedrawLimitError


def _norm_sign_flipped(q):
    return q.a * q.a + q.b * q.b - q.c * q.c + q.d * q.d


def _conj_sign_flipped(q):
    return SplitQuaternion(q.a, -q.b, -q.c, q.d)


def _product_term_flipped(unit, left, right):
    """The product with the sign of the term q_left other_right of its
    coefficient of the unit flipped (coefficients indexed 0..3 in the
    order 1, i, j, k)."""
    sign = PRODUCT(UNITS[left], UNITS[right]).coefficients()[unit]

    def product(q, other):
        if not isinstance(other, SplitQuaternion):
            other = SplitQuaternion(other)
        p = list(PRODUCT(q, other).coefficients())
        x, y = q.coefficients()[left], other.coefficients()[right]
        p[unit] -= 2 * sign * x * y
        return SplitQuaternion(*p)

    return product


def _inverse_negated(q):
    return -INVERSE(q)


def _printed_with_k_negated(q):
    """The text of q with the coefficient of k negated: a printer that
    loses one sign."""
    return PRINT(SplitQuaternion(q.a, q.b, q.c, -q.d))


def _real_rep_sign_flipped(A):
    N, L = REAL_REP(A)
    N = N.copy()
    N[..., 1::2, 0::2] = -N[..., 1::2, 0::2]
    return N, L


def _real_rep_lower_left_zeroed(A):
    """The image with the entries c - b of every block set to 0: the
    blocks [[a + d, b + c], [0, a - d]] hold three coordinates of four,
    so the map is not injective."""
    N, L = REAL_REP(A)
    N = N.copy()
    N[..., 1::2, 0::2] = 0
    return N, L


def _anticommutator(A, B):
    """A B + B A in place of the bracket: hermitian for anti-hermitian A
    and B, so outside the skew algebra."""
    return A @ B + B @ A


def _adopted_basis_with_a_repeated_seed(H, rng=None):
    """Every seed replaced by the first: the quadruples span one submodule,
    not the whole space."""
    seeds = ADOPTED(H, rng=rng)
    return [seeds[0]] * len(seeds)


def _tensor_columns_swapped(H):
    """The change of basis with the columns h1 e and h2 e of the first
    vector e of E swapped: in the new coordinates the first 2 x 2 block
    of each J_a is conjugated by the swap."""
    split = GRASSMAN(H)
    C, LC = split.change
    C = C.copy()
    C[:, [0, 1]] = C[:, [1, 0]]
    return linalg.GrassmanSplit(split.e_basis, split.h_endos, (C, LC),
                                split.omega_e, split.omega_h)


def _hermitian_part_doubled(B, H):
    """The hermitian part over half its scale: 2 Pi is not idempotent."""
    herm, mix, fourway = PROJECTOR(B, H)
    N, S = herm.scaled
    return forms.BilinearForm(N, S // 2), mix, fourway


def _two_form_slots_swapped(Jop, g):
    """g(X, J Y) in place of g(J X, Y): skew as well, but the pairing
    omega(X, J X) changes sign."""
    N, L = TWO_FORM(Jop, g).scaled
    return forms.BilinearForm(N.T, L)


def _scalar_product_sign_flipped(q, qp):
    return q.a * qp.a + q.b * qp.b - q.c * qp.c + q.d * qp.d


def _generator_negated(a, weights):
    """The moment record with the Killing field -V."""
    return proj.Quotient(MOMENT(a, weights).rows,
                         -MOMENT(a, weights).generators)


def _field_of_the_next_unit(a, weights):
    """The moment rows of e_a with the Killing field of e_(a+1): the
    images J_b V leave the normal space of the level set, and the frame
    of the quotient is no longer invariant.  weighted_quotient stacks the
    moment record, so the weighted reduction sees it too."""
    return proj.Quotient(MOMENT(a, weights).rows,
                         MOMENT((a + 1) % 3, weights).generators)


def _euclidean_sphere(rank):
    """The sphere record with the Euclidean Hessian in place of g: the
    complement of the row and the fiber is not invariant."""
    return proj.Quotient(np.eye(4 * rank, dtype=object)[None],
                         SPHERE(rank).generators)


def _table_column_flipped(a, b):
    """The moment table with the coefficient of e_b in every
    conj(e_s) e_a e_t negated (a and b index i, j, k)."""
    table = SANDWICH.copy()
    table[a, :, :, b] = -table[a, :, :, b]
    return table


class _FourFormOverTheWrongScale(forms.FourForm):
    """The 4-form array over the scale L of its 2-forms, not L^2."""

    def __init__(self, w, L):
        super().__init__(w, L)
        self.scaled = (self.scaled[0], L)


def _first_term(w):
    """S[..., p, q, r, s] = sum_a 2 eps_a w[p, q] w[r, s], the term of the
    FourForm formula that the other two transpose."""
    return sum(2 * e * w[..., a, :, :, None, None]
               * w[..., a, None, None, :, :] for a, e in enumerate(EPS))


class _FourFormWithTheSecondTermFlipped(forms.FourForm):
    """The formula with + w[p, r] w[q, s]: Omega does not alternate."""

    def __init__(self, w, L):
        super().__init__(w, L)
        N, L = self.scaled
        self.scaled = (N + 2 * _first_term(w).swapaxes(-3, -2), L)


class _FourFormWithTheThirdTermFlipped(forms.FourForm):
    """The formula with - w[p, s] w[q, r]: Omega does not alternate."""

    def __init__(self, w, L):
        super().__init__(w, L)
        N, L = self.scaled
        self.scaled = (N - 2 * np.moveaxis(_first_term(w), -3, -1), L)


class _FourFormWithOneWrongEntry(forms.FourForm):
    """The 4-form array with 1 added to one coefficient."""

    def __init__(self, w, L):
        super().__init__(w, L)
        N, L = self.scaled
        N = N.copy()
        N[..., 0, 1, 2, 3] += 1
        self.scaled = (N, L)


def _unit_product_sign_flipped(s, t):
    """The product table of linalg.batch_matmul with the sign of e_s e_t
    flipped."""
    return tuple((a, b, u, -sign if (a, b) == (s, t) else sign)
                 for a, b, u, sign in linalg._UNIT_PRODUCTS)


def _metric_terms_doubled(S):
    return 2 * METRIC_TERMS(S)


def _ricci_missing_a_term(R):
    """The Ricci trace over every basis vector but the last, an
    off-by-one range."""
    t = np.asarray(R.tensor, dtype=object)[:-1, :, :, :-1]
    return np.trace(t, axis1=0, axis2=3), R.scale


def _projector_parts_swapped(B, H):
    herm, mix, fourway = PROJECTOR(B, H)
    return mix, herm, fourway


def _difference_as_a_sum(R, other, sign):
    return COMBINE(R, other, 1)


def _jacobi_slots_swapped(R, X):
    """K_X(Y) = R(Y, X) X, which is -R(X, Y) X."""
    K, L = JACOBI(R, X)
    return -K, L


def _second_and_third_slots_swapped(D):
    """R[x, z, y, w] in place of R[x, y, z, w]."""
    R = SYMMETRIC(D)
    return curv.CurvatureTensor._unchecked(R.tensor.transpose(0, 2, 1, 3),
                                           R.scale, R.metric)


def _twice_a_unit_quaternion(rng):
    return UNIT_QUATERNION(rng).scale(2)


def _rotation_off_the_group(rng):
    R, L = ROTATION(rng)
    return 2 * R, L


def _frame_without_its_last_column(x):
    """The induced structure with its horizontal frame short of one
    column: the unit actions leave the span of what is left."""
    H, (N, L, free) = INDUCED(x)
    return H, (N[:, :-1], L, free[:-1])


def _second_column_doubled(C, L):
    F, LF = TRANSITIVE_COLUMNS(C, L)
    F = F.copy()
    F[:, 1] *= 2
    return F, LF


def _twice_the_lift(rng, rank):
    """A lift of norm 4, built past the unit check of SpherePoint."""
    C, L = SPHERE_POINT(rng, rank).x.scaled
    return proj.SpherePoint(linalg.PQVector.from_scaled_integers(2 * C, L),
                            check=False)


PRODUCT, REAL_REP = SplitQuaternion.__mul__, cli.real_rep
INVERSE, PRINT = SplitQuaternion.inverse, SplitQuaternion.__str__
ADOPTED, GRASSMAN, TWO_FORM = (cli.adopted_basis, cli.grassman_split,
                               cli.two_form)
METRIC_TERMS, PROJECTOR = curv._metric_terms, curv.hermitian_projector
COMBINE, JACOBI = curv.CurvatureTensor._combine, curv.jacobi_operator
SYMMETRIC = curv.symmetric_space_curvature
SANDWICH = red._SANDWICH
MOMENT, WEIGHTED = red.moment_quotient, red.weighted_quotient
SPHERE = proj.sphere_quotient
ROTATION = cli.random_rotation
UNIT_QUATERNION = proj.random_unit_quaternion
INDUCED, SPHERE_POINT = proj.induced_geometry, proj.random_sphere_point
TRANSITIVE_COLUMNS = proj._transitive_columns

# row -> (check name, suite, object, attribute, planted replacement); a row
# named after its check alone is that check's first row
PLANTED = {
    "norm-multiplicativity": ("algebra", SplitQuaternion, "square_norm",
                              _norm_sign_flipped),
    "conjugation-anti-automorphism": ("algebra", SplitQuaternion, "conj",
                                      _conj_sign_flipped),
    # the term a f of the i-coefficient: a real element no longer
    # commutes with i
    "center-is-real-line": ("algebra", SplitQuaternion, "__mul__",
                            _product_term_flipped(1, 0, 1)),
    # the six terms of the imaginary coefficients that keep the centre the
    # real line; each changes a commutator
    **{f"center-is-real-line/{name}": (
        "algebra", SplitQuaternion, "__mul__",
        _product_term_flipped(unit, "abcd".index(name[0]),
                              "efgh".index(name[1])))
       for unit, name in ((1, "ch"), (1, "dg"), (2, "bh"), (2, "df"),
                          (3, "bg"), (3, "cf"))},
    # i j = -k against the table
    "cyclic-product-table": ("algebra", SplitQuaternion, "__mul__",
                             _product_term_flipped(3, 1, 2)),
    "inverse-roundtrip": ("algebra", SplitQuaternion, "inverse",
                          _inverse_negated),
    "parse-print-roundtrip": ("algebra", SplitQuaternion, "__str__",
                              _printed_with_k_negated),
    "representation-homomorphism": ("linalg", cli, "real_rep",
                                    _real_rep_sign_flipped),
    "representation-injective": ("linalg", cli, "real_rep",
                                 _real_rep_lower_left_zeroed),
    "sp-bracket-closure": ("linalg", linalg.PQMatrix, "commutator",
                           _anticommutator),
    "adopted-basis-rank": ("linalg", cli, "adopted_basis",
                           _adopted_basis_with_a_repeated_seed),
    "tensor-split-blocks": ("linalg", cli, "grassman_split",
                            _tensor_columns_swapped),
    "projector-idempotent": ("forms", cli, "hermitian_projector",
                             _hermitian_part_doubled),
    # eps = (1, 1, -1): the sum of the J_a^T B J_a is no longer invariant
    # under the rotations of the span, which preserve diag(-eps) only for
    # the true signs
    "projector-basis-independence": ("forms", forms, "EPS", (1, 1, -1)),
    "two-form-skew-pairing": ("forms", cli, "two_form",
                              _two_form_slots_swapped),
    "scalar-product-complex-form": ("linalg", cli, "scalar_product",
                                    _scalar_product_sign_flipped),
    "moment-gradient": ("reduce-s1", red, "moment_quotient",
                        _generator_negated),
    "killing-images-normal": ("reduce-s1", red, "moment_quotient",
                              _field_of_the_next_unit),
    "killing-images-normal-pq": ("reduce-pq", red, "moment_quotient",
                                 _field_of_the_next_unit),
    # the i-component of the moment of the variant action through i
    "definite-axis-empty-level-set": ("reduce-pq", red, "_SANDWICH",
                                      _table_column_flipped(0, 0)),
    # the level value agrees with the traces in value, so a flipped
    # component of the table for j shows although it keeps every zero set
    "zero-set-cross-check/j": ("reduce-pq", red, "_SANDWICH",
                               _table_column_flipped(1, 1)),
    "zero-set-cross-check/k": ("reduce-pq", red, "_SANDWICH",
                               _table_column_flipped(1, 2)),
    # the check runs at rank 1, where every 4-form is a multiple of the
    # volume form and a flipped sign of eps leaves it invariant; a wrong
    # scale changes the multiple
    "four-form-rotation-invariance/scale": (
        "forms", forms, "FourForm", _FourFormOverTheWrongScale),
    # every difference is 0 but one, which is negative
    "four-form-rotation-invariance/entry": (
        "forms", forms, "FourForm", _FourFormWithOneWrongEntry),
    # Omega + Omega^s is 8 for a swap s of adjacent slots; the Lie
    # derivatives of the rank-1 form do not see it
    "four-form-infinitesimal-invariance/second-term": (
        "forms", forms, "FourForm", _FourFormWithTheSecondTermFlipped),
    "four-form-infinitesimal-invariance/third-term": (
        "forms", forms, "FourForm", _FourFormWithTheThirdTermFlipped),
    # right multiplication by any invertible element keeps the span of
    # the translated frame; only the norm of the element sees it
    "lift-independence": ("projspace", proj, "random_unit_quaternion",
                          _twice_a_unit_quaternion),
    # the unit actions of the translated frame leave its span, which the
    # tall solve refuses
    "lift-independence/span": ("projspace", proj, "induced_geometry",
                               _frame_without_its_last_column),
    # the completed matrix no longer preserves the scalar product
    "transitive-element": ("projspace", proj, "_transitive_columns",
                           _second_column_doubled),
    # every fiber Gram is 4 diag(1, -1, -1), which only the entrywise
    # comparison with the unit Gram sees
    "fiber-gram-signature": ("projspace", proj, "random_sphere_point",
                             _twice_the_lift),
    # i j = -k: the bracket curvature leaves the closed formula
    "bracket-formula-proportional": ("curvature", linalg, "_UNIT_PRODUCTS",
                                     _unit_product_sign_flipped(1, 2)),
    # (a, c, b) in place of each cyclic (a, b, c)
    "structure-membership": ("curvature", curv, "CYCLES",
                             tuple((a, c, b) for a, b, c in curv.CYCLES)),
    # B is Ric(R) divided by d + 8 on the mixed part and by d on the
    # hermitian one
    "ricci-splitting": ("curvature", curv, "hermitian_projector",
                        _projector_parts_swapped),
    # the trace term of R^B no longer cancels the cyclic sum of the
    # metric terms of an asymmetric B
    "first-bianchi": ("curvature", curv, "_metric_terms",
                      _metric_terms_doubled),
    # every term of the model is Sp(n)Sp(1)-invariant, and so is its
    # Ricci form under any sign or term defect; a trace that misses one
    # basis vector is not
    "einstein-property": ("curvature", curv, "ricci",
                          _ricci_missing_a_term),
    # both tensors are built from the same terms, so only the difference
    # of the check sees a sign
    "bilinear-family-matches-model": ("curvature", curv.CurvatureTensor,
                                      "_combine", _difference_as_a_sum),
    # the spectrum -4, -1 of the model becomes 4, 1
    "jacobi-spectrum-model": ("curvature", curv, "jacobi_operator",
                              _jacobi_slots_swapped),
    # the right-multiplication triple, which does not commute with the
    # isotropy generator, in place of the left one
    "solvable-oracle-nilpotent": ("curvature", curv, "left_structure_endos",
                                  linalg.structure_endos),
    "special-linear-oracle": ("curvature", curv, "ricci",
                              _ricci_missing_a_term),
    # the cyclic sum and the Ricci form of the swapped tensor vanish and
    # are g-proportional as before; only R(X, Y) = -R(Y, X) sees it
    "special-linear-oracle/slots": ("curvature", curv,
                                    "symmetric_space_curvature",
                                    _second_and_third_slots_swapped),
}
PLANTED = {row: (row.split("/")[0], *spec) for row, spec in PLANTED.items()}

# row -> (check name, suite, object, attribute, planted bad input, the
# error of the guard that refuses it)
REFUSED = {
    "four-form-rotation-invariance/off-group": (
        "four-form-rotation-invariance", "forms", cli, "random_rotation",
        _rotation_off_the_group, forms.NotInGroupError),
    # any record whose frame the structure preserves restricts a valid
    # structure of neutral signature, so a perturbed record can only be
    # refused by the frame's guard
    "reduced-structure-relations": (
        "reduced-structure-relations", "reduce-s1", red, "moment_quotient",
        _field_of_the_next_unit, proj.DegenerateOrbitError),
    "induced-structure-valid": (
        "induced-structure-valid", "projspace", proj, "sphere_quotient",
        _euclidean_sphere, proj.DegenerateOrbitError),
}


# the registry checks with no row in either table yet; a new check comes
# with its row, and a check that gets one leaves this set
NO_ROW_YET = {"eigenvalue-trace-identity", "ratio-direction-independence",
              "ratio-point-variation"}


def test_every_check_has_a_row_but_the_listed_ones():
    names = {row[0] for rows in cli.REGISTRY.values() for row in rows}
    covered = {spec[0] for spec in [*PLANTED.values(), *REFUSED.values()]}
    assert covered <= names
    assert names - covered == NO_ROW_YET


def _clear_caches():
    """The model tensor and the records of the quotients are built once
    (functools.cache): a row that plants a defect in their builders must
    see them rebuilt, and the rows and tests after it the sound ones
    again, after monkeypatch has undone the plant."""
    for cached in (curv._model_curvature, MOMENT, WEIGHTED, SPHERE):
        cached.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_model():
    _clear_caches()
    yield
    _clear_caches()


def _status_before_and_after(monkeypatch, spec):
    name, suite, owner, attribute, planted = spec[:5]
    before = {r.name: r for r in cli.run_suite(suite)}[name]
    monkeypatch.setattr(owner, attribute, planted)
    _clear_caches()
    return before, {r.name: r for r in cli.run_suite(suite)}[name]


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_fails_its_check(monkeypatch, name):
    before, after = _status_before_and_after(monkeypatch, PLANTED[name])
    assert before.status == "pass"
    assert after.status == "fail"
    assert after.max_residual > 0


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_planted_bad_input_errors_its_check(monkeypatch, name):
    before, after = _status_before_and_after(monkeypatch, REFUSED[name])
    assert before.status == "pass"
    assert after.status == "error" and after.sample_count == 0
    check, suite, *_, error = REFUSED[name]
    fn = {row[0]: row[1] for row in cli.REGISTRY[suite]}[check]
    config = cli.CheckConfig()
    with pytest.raises(error):
        fn(config, cli._check_rng(config, check))


# random_integers with the span high + low + 1: on a symmetric range every
# draw is the one value low, so every redraw loop that filters the draws
# rejects all of them
COLLAPSED_SAMPLER = """
import json
import pqgeom.cli as cli, pqgeom.linalg as linalg, pqgeom.reduction as red
draw = linalg.random_integers
def collapsed(rng, shape, low, high, dtype=object):
    return draw(rng, shape, low, 2 * low + high, dtype)
for module in (cli, linalg, red):
    module.random_integers = collapsed
print(json.dumps({r.name: r.status for r in cli.run_suite("all")}))
"""


def test_collapsed_sampler_errors_instead_of_hanging():
    # in a fresh interpreter, so that a hang is cut by the timeout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    result = subprocess.run([sys.executable, "-c", COLLAPSED_SAMPLER],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    statuses = json.loads(result.stdout)
    assert statuses["adopted-basis-rank"] == "error"
    assert statuses["definite-axis-empty-level-set"] == "error"


class _StuckGenerator(random.Random):
    """randint returns the integer of its range nearest 0: every point,
    direction and quaternion drawn from it is degenerate."""

    def randint(self, a, b):
        self.calls += 1
        return max(a, min(b, 0))


@pytest.mark.parametrize("draw", [
    lambda rng: proj.random_sphere_point(rng, 3),
    lambda rng: proj.random_unit_quaternion(rng),
    lambda rng: red.flat_level_sample(rng, 3),
    lambda rng: red.weighted_level_sample(rng, 1, 2),
    lambda rng: red.admissible_directions(
        1, 2, red.weighted_level_sample(random.Random(0), 1, 2), rng, 2),
    lambda rng: cli._chk_inverse(cli.CheckConfig(samples=3), rng),
], ids=["random_sphere_point", "random_unit_quaternion", "flat_level_sample",
        "weighted_level_sample", "admissible_directions", "inverse-roundtrip"])
def test_redraw_loops_give_up_on_a_stuck_generator(draw):
    rng = _StuckGenerator(0)
    rng.calls = 0
    with pytest.raises(RedrawLimitError):
        draw(rng)
    # a bounded number of draws: REDRAW_LIMIT per result, at most 16
    # randint calls each
    assert 0 < rng.calls <= 16 * 3 * REDRAW_LIMIT
