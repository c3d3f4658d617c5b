"""Planted defects: a check must fail when the identity it certifies is
broken.

Each row plants one defect in an ingredient of one registry check (one
sign flipped in a product, a norm, a conjugation, a representation, a
scalar product, a Killing field or a sandwich) and runs the check's suite through ``run_suite``;
the check must report ``fail``.  A check that still passes is vacuous on
its samples.  The rows cover the checks that evaluate their identity on
whole batches of samples.
"""

import pytest

import pqgeom.cli as cli
import pqgeom.reduction as red
from pqgeom.algebra import SplitQuaternion


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


PRODUCT, REAL_REP = SplitQuaternion.__mul__, cli.real_rep
KILLING, SANDWICH_I = red.flat_killing, red._sandwich_i

# check name -> (suite, object, attribute, planted replacement)
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
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_fails_its_check(monkeypatch, name):
    suite, owner, attribute, planted = PLANTED[name]
    reports = {r.name: r for r in cli.run_suite(suite)}
    assert reports[name].status == "pass"
    monkeypatch.setattr(owner, attribute, planted)
    reports = {r.name: r for r in cli.run_suite(suite)}
    assert reports[name].status == "fail"
    assert reports[name].max_residual > 0
