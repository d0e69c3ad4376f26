"""Exact scalar arithmetic: rationals, Laurent polynomials in z, coefficient
rings, and the index supports of the weight modules.

Everything downstream computes with these values; there is no floating point
anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or string like "-1/2" to an exact rational;
    exponent notation is refused, as Fraction would compute 10**9 of "1e9"."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"exponent notation is not an exact rational: {x!r}")
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def check_positive(**values) -> None:
    """The one n >= 1 rule: ValueError naming the first value that is not
    an int of at least 1."""
    for name, value in values.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {name}={value}")


def residue(eps, n: int) -> Fraction:
    """eps as a residue K/N with N dividing n and 0 <= eps < 1; n is
    checked first, as eps is read against it."""
    check_positive(n=n)
    eps = rat(eps)
    if not (0 <= eps < 1) or n % eps.denominator:
        raise ValueError(
            f"eps must be a residue K/N with N dividing n = {n} and 0 <= eps < 1; "
            f"got {eps}"
        )
    return eps


def over_common_denominator(*values) -> tuple:
    """(D, numerators): the least common denominator D of the Fractions
    and each value times D, as integers in the given order."""
    den = lcm(*(x.denominator for x in values))
    return den, tuple(x.numerator * (den // x.denominator) for x in values)


def _reduced(nums, den: int) -> list:
    """The texts of the ratios nums[i]/den, each reduced by one gcd: the
    reduced numerator, then "/d" unless the denominator reduces to 1."""
    if den == 1:
        return list(map(str, nums))
    gcds = list(map(gcd, nums, repeat(den)))
    suffix = {g: "" if g == den else f"/{den // g}" for g in set(gcds)}
    return list(map(add, map(str, map(floordiv, nums, gcds)), map(suffix.__getitem__, gcds)))


def _texts(exp: int, den: int, nums, as_terms: bool) -> list:
    """The texts of the values nums[i]/den times z^exp: signed, as in
    "-3/2" (exp = 0 only), or as_terms, the pieces " + a" and " - b" of a
    sum, "" for 0.  A constant column is printed once."""
    if len(nums) > 1 and nums.count(nums[0]) == len(nums):
        return _texts(exp, den, nums[:1], as_terms) * len(nums)
    if not as_terms:
        return _reduced(nums, den)
    mags = _reduced(list(map(abs, nums)), den)
    if exp:
        zpart = "z" if exp == 1 else f"z^{exp}"
        mags = [zpart if mag == "1" else f"{mag}*{zpart}" for mag in mags]
    return [(" - " if v < 0 else " + ") + mag if v else "" for v, mag in zip(nums, mags)]


def format_columns(columns) -> list:
    """The printed rows of the sums of (num/den) z^exp over integer
    columns (exp, den, nums) with den > 0, in ascending exp; row i reads
    nums[i] of every column.  Each ratio is reduced by one gcd, zero terms
    are left out and a row with none prints "0".  The one printing rule of
    rationals (one column at exponent 0) and Laurent polynomials, as in
    "-3/2" and "-2*z^-1 + 1/2*z", computed a column at a time: the pieces
    of a row are joined, then its lead sign is fixed."""
    if len(columns) == 1 and columns[0][0] == 0:
        return _texts(*columns[0], as_terms=False)
    rows = map("".join, zip(*(_texts(*column, as_terms=True) for column in columns)))
    return [(row[3:] if row[1] == "+" else "-" + row[3:]) if row else "0" for row in rows]


def ord2(x) -> int:
    """2-adic valuation of a nonzero rational.

    Extended from integers to fractions by v(num) - v(den).
    """
    x = rat(x)
    if x == 0:
        raise ValueError("valuation of zero undefined")
    num = abs(x.numerator)
    den = x.denominator
    return (num & -num).bit_length() - (den & -den).bit_length()


class Laurent:
    """A finite Laurent polynomial in z with rational coefficients.

    Stored as a dict {exponent: nonzero Fraction}.  Supports mixed
    arithmetic with ints and Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = rat(c)
                if c != 0:
                    clean[int(exp)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c) -> "Laurent":
        return cls({0: rat(c)})

    @classmethod
    def z_power(cls, k: int, c=1) -> "Laurent":
        return cls({k: rat(c)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def constant_value(self) -> Fraction:
        """The rational value, assuming the polynomial is constant."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.coeffs.get(0, Fraction(0))

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __add__(self, other):
        other = as_laurent(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-as_laurent(other))

    def __rsub__(self, other):
        return as_laurent(other) + (-self)

    def __mul__(self, other):
        other = as_laurent(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def evaluate(self, c) -> Fraction:
        """Substitute z = c (a nonzero rational if negative exponents occur)."""
        c = rat(c)
        total = Fraction(0)
        for exp, coeff in self.coeffs.items():
            if exp >= 0:
                total += coeff * c ** exp
            else:
                if c == 0:
                    raise ZeroDivisionError("negative exponent at z = 0")
                total += coeff / c ** (-exp)
        return total

    def shift(self, k: int) -> "Laurent":
        """Multiply by z^k."""
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    # -- text forms ----------------------------------------------------

    def __str__(self):
        columns = [(exp, c.denominator, (c.numerator,)) for exp, c in sorted(self.coeffs.items())]
        return format_columns(columns)[0] if columns else "0"

    def __repr__(self):
        return f"Laurent({self})"

    # one signed term: a coefficient, z with an exponent, or both, with an
    # optional "*" between them; whitespace may surround the sign and "*"
    _TERM = re.compile(
        r"\s*([+-]?)\s*(?:(\d+)(?:/(\d+))?)?(?:\s*(\*)?\s*(z)(?:\^([+-]?\d+))?)?\s*"
    )

    @classmethod
    def parse(cls, text: str) -> "Laurent":
        """Parse strings like "1/2", "z", "-2*z^-1 + 3", "2z^2 - z".

        Every term after the first needs its sign, and any character no
        term consumes raises ValueError, as do a bare sign and a zero
        denominator.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        coeffs, pos = {}, 0
        while pos < len(s):
            mo = cls._TERM.match(s, pos)
            sign, num, den, star, z, exp = mo.groups()
            unsigned = pos and not sign  # only the first term may omit its sign
            if unsigned or not (num or z) or (star and not num) or den and not int(den):
                raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
            coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
            key = (int(exp) if exp else 1) if z else 0
            coeffs[key] = coeffs.get(key, 0) + (-coeff if sign == "-" else coeff)
            pos = mo.end()
        return Laurent(coeffs)


def as_laurent(x) -> Laurent:
    """Lift an int, Fraction, or Laurent to a Laurent polynomial."""
    if isinstance(x, Laurent):
        return x
    return Laurent.const(rat(x))


# -- frozen records --------------------------------------------------------


class _Frozen:
    """Base of the records equal and hashed by their fields, as a frozen
    dataclass is: a record equals only a record of its own class whose
    fields, in __slots__ order, are equal, and its hash and repr are read
    off those fields.  __init__ sets each field once; assigning or
    deleting a field afterwards raises AttributeError, so a record's hash
    never changes while it sits in a set or a dict."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {value!r} to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# -- coefficient rings ---------------------------------------------------


class CoefficientRing(_Frozen):
    """One of Z, Z[1/N], Q, Q[z], Q[z,z^-1]; equal and hashed by its
    fields."""

    __slots__ = ("kind", "localized_at")

    def __init__(self, kind: str, localized_at: int = 1):
        if kind not in {"Z", "Z[1/N]", "Q", "Q[z]", "Q[z,z^-1]"}:
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Z[1/N]" and localized_at < 1:
            raise ValueError("localization requires N >= 1")
        super().__init__(kind, localized_at)

    @property
    def name(self) -> str:
        if self.kind == "Z[1/N]":
            return f"Z[1/{self.localized_at}]"
        return self.kind

    def __str__(self):
        return self.name


ZZ = CoefficientRing("Z")
QQ = CoefficientRing("Q")
POLY = CoefficientRing("Q[z]")
LAURENT_RING = CoefficientRing("Q[z,z^-1]")


def localized_integers(N: int) -> CoefficientRing:
    return CoefficientRing("Z[1/N]", localized_at=int(N))


def _denominator_invertible(den: int, N: int) -> bool:
    """True iff every prime factor of den divides N: then den divides
    N^k for k at least the largest exponent in den, below den.bit_length()."""
    return pow(N, den.bit_length(), den) == 0


def in_ring(x, ring: CoefficientRing) -> bool:
    """Membership under the inclusions Z < Z[1/N] < Q and Q < Q[z] < Q[z,z^-1]."""
    if isinstance(x, Laurent) and not x.is_constant():
        if ring.kind == "Q[z,z^-1]":
            return True
        if ring.kind == "Q[z]":
            return x.min_exp() >= 0
        return False
    value = x.constant_value() if isinstance(x, Laurent) else rat(x)
    if ring.kind == "Z":
        return value.denominator == 1
    if ring.kind == "Z[1/N]":
        return _denominator_invertible(value.denominator, ring.localized_at)
    return True


# -- index supports --------------------------------------------------------


class Support(_Frozen):
    """Index predicate: p >= bound, p <= bound, or all integers; equal and
    hashed by its fields, and equal to no tuple."""

    __slots__ = ("kind", "bound")

    def __init__(self, kind: str, bound: int = 0):
        super().__init__(kind, bound)  # kind: "ge", "le", "all"

    def contains(self, p: int) -> bool:
        if self.kind == "ge":
            return p >= self.bound
        if self.kind == "le":
            return p <= self.bound
        return True

    def clip(self, lo: int, hi: int) -> tuple:
        """The window lo..hi cut to the support; empty when lo > hi."""
        if self.kind == "ge":
            return max(lo, self.bound), hi
        if self.kind == "le":
            return lo, min(hi, self.bound)
        return lo, hi

    def to_json(self):
        if self.kind == "all":
            return {"kind": "all"}
        return {"kind": self.kind, "bound": self.bound}
