"""Planted defects: a check must fail when the identity it certifies is
broken.

Each row plants one defect in an ingredient of one registry check (one
sign flipped in a product, a norm, a conjugation, a representation, a
scalar product, a Killing field, a sandwich or a scale) and runs the
check's suite through ``run_suite``; the check must report ``fail``.  A
check that still passes is vacuous on its samples.  A row of the second
table plants bad input instead (a rotation off the group), which the
check must refuse loudly: it reports ``error``.  The rows cover the
checks that evaluate their identity on whole batches of samples.  A
degenerate sampler must not hang a suite either: its redraw loops give up
with an error.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pqgeom.cli as cli
import pqgeom.forms as forms
import pqgeom.projspace as proj
import pqgeom.reduction as red
from pqgeom.algebra import SplitQuaternion
from pqgeom.linalg import REDRAW_LIMIT, RedrawLimitError


def _norm_sign_flipped(q):
    return q.a * q.a + q.b * q.b - q.c * q.c + q.d * q.d


def _conj_sign_flipped(q):
    return SplitQuaternion(q.a, -q.b, -q.c, q.d)


def _product_sign_flipped(q, other):
    # the term a f of the i-coefficient with its sign flipped: a real
    # element no longer commutes with i
    if not isinstance(other, SplitQuaternion):
        other = SplitQuaternion(other)
    p = PRODUCT(q, other)
    return SplitQuaternion(p.a, p.b - 2 * q.a * other.b, p.c, p.d)


def _real_rep_sign_flipped(A):
    N, L = REAL_REP(A)
    N = N.copy()
    N[..., 1::2, 0::2] = -N[..., 1::2, 0::2]
    return N, L


def _scalar_product_sign_flipped(q, qp):
    return q.a * qp.a + q.b * qp.b - q.c * qp.c + q.d * qp.d


def _killing_sign_flipped(x):
    return -KILLING(x)


def _sandwich_i_sign_flipped(h):
    i, j, k = SANDWICH_I(h)
    return -i, j, k


def _sandwich_j_sign_flipped(h):
    i, j, k = SANDWICH(h)
    return i, -j, k


def _sandwich_k_sign_flipped(h):
    i, j, k = SANDWICH(h)
    return i, j, -k


class _FourFormOverTheWrongScale(forms.FourForm):
    """The 4-form array over the scale L of its 2-forms, not L^2."""

    def __init__(self, w, L):
        super().__init__(w, L)
        self.scaled = (self.scaled[0], L)


class _FourFormWithOneWrongEntry(forms.FourForm):
    """The 4-form array with 1 added to one coefficient."""

    def __init__(self, w, L):
        super().__init__(w, L)
        N, L = self.scaled
        N = N.copy()
        N[..., 0, 1, 2, 3] += 1
        self.scaled = (N, L)


def _rotation_off_the_group(rng):
    R, L = ROTATION(rng)
    return 2 * R, L


PRODUCT, REAL_REP = SplitQuaternion.__mul__, cli.real_rep
KILLING, SANDWICH_I = red.flat_killing, red._sandwich_i
SANDWICH, ROTATION = red._sandwich, cli.random_rotation

# row -> (check name, suite, object, attribute, planted replacement); a row
# named after its check alone is that check's first row
PLANTED = {
    "norm-multiplicativity": ("algebra", SplitQuaternion, "square_norm",
                              _norm_sign_flipped),
    "conjugation-anti-automorphism": ("algebra", SplitQuaternion, "conj",
                                      _conj_sign_flipped),
    "center-is-real-line": ("algebra", SplitQuaternion, "__mul__",
                            _product_sign_flipped),
    "representation-homomorphism": ("linalg", cli, "real_rep",
                                    _real_rep_sign_flipped),
    "scalar-product-complex-form": ("linalg", cli, "scalar_product",
                                    _scalar_product_sign_flipped),
    "moment-gradient": ("reduce-s1", red, "flat_killing",
                        _killing_sign_flipped),
    "definite-axis-empty-level-set": ("reduce-pq", red, "_sandwich_i",
                                      _sandwich_i_sign_flipped),
    # the level value agrees with the traces in value, so a flipped
    # component shows although it keeps every zero set
    "zero-set-cross-check/j": ("reduce-pq", red, "_sandwich",
                               _sandwich_j_sign_flipped),
    "zero-set-cross-check/k": ("reduce-pq", red, "_sandwich",
                               _sandwich_k_sign_flipped),
    # the check runs at rank 1, where every 4-form is a multiple of the
    # volume form and a flipped sign of eps leaves it invariant; a wrong
    # scale changes the multiple
    "four-form-rotation-invariance/scale": (
        "forms", forms, "FourForm", _FourFormOverTheWrongScale),
    # every difference is 0 but one, which is negative
    "four-form-rotation-invariance/entry": (
        "forms", forms, "FourForm", _FourFormWithOneWrongEntry),
}
PLANTED = {row: (row.split("/")[0], *spec) for row, spec in PLANTED.items()}

# row -> (check name, suite, object, attribute, planted bad input)
REFUSED = {
    "four-form-rotation-invariance/off-group": (
        "four-form-rotation-invariance", "forms", cli, "random_rotation",
        _rotation_off_the_group),
}


def _status_before_and_after(monkeypatch, spec):
    name, suite, owner, attribute, planted = spec
    before = {r.name: r for r in cli.run_suite(suite)}[name]
    monkeypatch.setattr(owner, attribute, planted)
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
