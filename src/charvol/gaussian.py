"""Exact Gaussian rational numbers a + b*i with rational a, b."""

from __future__ import annotations

from fractions import Fraction as _mpq  # perfbench's fingerprint reads this name
from typing import Union

RationalLike = Union[int, str, "_mpq"]


def _rat(x) -> "_mpq":
    if isinstance(x, float):
        if x != int(x):
            raise TypeError("floats are not exact; pass int, str or rational")
        x = int(x)
    return _mpq(x)


class GaussianRational:
    """Immutable element of Q(i).  Supports field arithmetic exactly."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _rat(re))
        object.__setattr__(self, "im", _rat(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def parse(re_str: str, im_str: str = "0") -> "GaussianRational":
        return GaussianRational(_mpq(re_str), _mpq(im_str))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _coerce(o) - self

    def __mul__(self, o):
        o = _coerce(o)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * _coerce(o).inverse()

    def __rtruediv__(self, o):
        return _coerce(o) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates / conversions ---------------------------------------
    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, o):
        try:
            o = _coerce(o)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(d: dict) -> "GaussianRational":
        return GaussianRational.parse(d["re"], d.get("im", "0"))


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, str, _mpq)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x)} to GaussianRational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
