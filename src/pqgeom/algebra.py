"""Arithmetic of split quaternions (para-quaternions).

The algebra is the real span of 1, i, j, k with

    i^2 = -1,   j^2 = k^2 = +1,
    ij = -ji = k,   jk = -kj = -i,   ki = -ik = j.

With e_1, e_2, e_3 = i, j, k and the sign constants
eps = (1, -1, -1) this is the cyclic product table
e_a e_b = -eps_c e_c.  Note that part of the literature uses the
opposite convention ij = -k (the two algebras are isomorphic via
k -> -k); every formula in this package assumes the table above.

The indefinite square norm |q|^2 = a^2 + b^2 - c^2 - d^2 is
multiplicative but has null vectors (1 + j is a zero divisor), so
inversion exists only off the null cone.

Coefficients are exact (int / fractions.Fraction) in every routine of
the package, and exact inputs are never rounded.  A scalar operand of
``+``, ``-``, ``*`` and ``==`` is an int or a Fraction: a float operand
raises TypeError (``==`` is False).  The module vectors and matrices of
``linalg`` hold integer coordinates over one scale, and a float
coefficient cannot enter them (TypeError).

Batches.  The coefficients may also be numpy arrays of one shape; the
SplitQuaternion is then a batch, one element per array position (a
split-quaternion matrix is one such batch, since M_n(H) = M_n(R) (x) H).
``*``, ``+``, ``-``, ``conj`` and ``scale`` act entrywise on a batch,
through the same product table as on scalars, so bulk work runs as a few
array operations instead of one Python call per element.  ``==`` and
``hash`` compare scalars only.
"""

from __future__ import annotations

import re
from fractions import Fraction

EPS = (1, -1, -1)  # signs of -i^2, -j^2, -k^2


class NullQuaternionError(ZeroDivisionError):
    """Inversion attempted on the null cone |q|^2 = 0."""


class SplitQuaternion:
    """One element a + b i + c j + d k."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    # -- basic structure ------------------------------------------------

    def coefficients(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self):
        return hash(self.coefficients())

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return SplitQuaternion(self.a + other.a, self.b + other.b,
                               self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return SplitQuaternion(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return SplitQuaternion(
            a * e - b * f + c * g + d * h,
            a * f + b * e - c * h + d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def scale(self, s) -> "SplitQuaternion":
        return SplitQuaternion(self.a * s, self.b * s, self.c * s, self.d * s)

    # -- conjugation and norms ------------------------------------------

    def conj(self) -> "SplitQuaternion":
        return SplitQuaternion(self.a, -self.b, -self.c, -self.d)

    def square_norm(self):
        return self.a * self.a + self.b * self.b - self.c * self.c - self.d * self.d

    def inverse(self) -> "SplitQuaternion":
        n = self.square_norm()
        if n == 0:
            raise NullQuaternionError(f"{self} lies on the null cone")
        return self.conj().scale(Fraction(1) / n)

    # -- complex picture -------------------------------------------------

    def complex_rep_exact(self):
        """The pair (z1, z2) = (a + b i, c - d i) with q = z1 + j z2, as
        (re, im) tuples kept in the scalar type of q."""
        return (self.a, self.b), (self.c, -self.d)

    # -- parse / print ----------------------------------------------------

    def __str__(self):
        parts = []
        for coef, unit in zip(self.coefficients(), ("", "i", "j", "k")):
            text = str(coef)
            if not parts:
                parts.append(f"{text} {unit}".strip())
            elif text.startswith("-"):
                parts.append(f"- {text[1:]} {unit}".strip())
            else:
                parts.append(f"+ {text} {unit}".strip())
        return " ".join(parts)

    def __repr__(self):
        return f"SplitQuaternion({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    @classmethod
    def parse(cls, text: str) -> "SplitQuaternion":
        """Parse 'a + b i + c j + d k' with rational coefficients 'p/q'.

        Terms may be omitted or reordered; repeated units accumulate
        ('i + i' is 2i).  Every term after the first needs a '+' or '-',
        so juxtaposed terms such as '1 2' or 'ij' raise ValueError, as
        does a zero denominator.
        """
        coeffs = {"": Fraction(0), "i": Fraction(0), "j": Fraction(0), "k": Fraction(0)}
        cleaned = text.replace("*", " ").strip()
        if not cleaned:
            raise ValueError("empty split-quaternion literal")
        # a denominator needs a nonzero digit, so '1/0' stops at '/0'
        term_re = re.compile(
            r"\s*([+-])?\s*(?:(\d+(?:/\d*[1-9]\d*)?)\s*([ijk])?|([ijk]))\s*")
        pos = 0
        while pos < len(cleaned):
            m = term_re.match(cleaned, pos)
            if not m or (pos and m.group(1) is None):
                raise ValueError(f"cannot parse {text!r} at {cleaned[pos:]!r}")
            sign, number, unit, bare = m.groups()
            value = Fraction(number) if number is not None else Fraction(1)
            if sign == "-":
                value = -value
            coeffs[unit or bare or ""] += value
            pos = m.end()
        return cls(coeffs[""], coeffs["i"], coeffs["j"], coeffs["k"])


ONE = SplitQuaternion(1)
I = SplitQuaternion(0, 1)
J = SplitQuaternion(0, 0, 1)
K = SplitQuaternion(0, 0, 0, 1)
UNITS = (ONE, I, J, K)
IMAGINARY_UNITS = (I, J, K)


def _coerce(x):
    if isinstance(x, SplitQuaternion):
        return x
    if isinstance(x, (int, Fraction)):
        return SplitQuaternion(x)
    return None


def scalar_product(q: SplitQuaternion, qp: SplitQuaternion):
    """Re(q conj(q')) = a a' + b b' - c c' - d d'."""
    return q.a * qp.a + q.b * qp.b - q.c * qp.c - q.d * qp.d
