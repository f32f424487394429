"""Exact arithmetic in Z[w] for w a primitive 12th root of unity.

w satisfies the minimal polynomial w^4 - w^2 + 1, so every element is
written canonically as c0 + c1*w + c2*w^2 + c3*w^3 with integer
coefficients.  Useful consequences: w^4 = w^2 - 1, w^6 = -1, w^12 = 1.

On top of the ring sit 2x2 matrices over Z[w], the three edge connection
matrices (alpha on northeast edges, beta on northwest edges, gamma on
westward horizontal edges), and the +-I classifier used by the boundary
invariant.  Everything is immutable and exact; no floating point.
"""

from __future__ import annotations

from enum import Enum


class Frozen:
    """Base of the immutable records that must not behave as tuples (the
    others are namedtuple subclasses).  A subclass lists its fields in
    __slots__ and sets each once in __init__ through the slot's own
    descriptor (see setters); _key() is the tuple of the fields that
    equality, hash and repr read, so a hash is that of the tuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle call __init__ with every field
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


def setters(cls) -> tuple:
    """The __set__ of each of cls's slots, in __slots__ order: the way
    past Frozen.__setattr__ for __init__, faster than object.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class CycInt(Frozen):
    """c0 + c1*w + c2*w^2 + c3*w^3 with arbitrary-precision integers."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0, c3: int = 0):
        _set_c0(self, c0)
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_c3(self, c3)

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    _key = coeffs

    def __add__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.c0 + other.c0, self.c1 + other.c1,
                      self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.c0 - other.c0, self.c1 - other.c1,
                      self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "CycInt":
        return CycInt(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other: "CycInt") -> "CycInt":
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        b0, b1, b2, b3 = other.c0, other.c1, other.c2, other.c3
        # convolution up to degree 6, then reduce by
        # w^4 = w^2 - 1, w^5 = w^3 - w, w^6 = -1
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a0 * b2 + a1 * b1 + a2 * b0
        d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        d4 = a1 * b3 + a2 * b2 + a3 * b1
        d5 = a2 * b3 + a3 * b2
        d6 = a3 * b3
        return CycInt(d0 - d4 - d6, d1 - d5, d2 + d4, d3 + d5)


_set_c0, _set_c1, _set_c2, _set_c3 = setters(CycInt)

ZERO = CycInt()
ONE = CycInt(1)
MINUS_ONE = CycInt(-1)
W = CycInt(0, 1)


def omega_power(n: int) -> CycInt:
    """w^n in canonical form, any integer n."""
    table = _OMEGA_POWERS
    return table[n % 12]


def _build_omega_powers() -> list[CycInt]:
    out = [ONE]
    for _ in range(11):
        out.append(out[-1] * W)
    return out


_OMEGA_POWERS = _build_omega_powers()


class PMClass(Enum):
    """Classification of a matrix against the signed identity."""

    PLUS_IDENTITY = "PlusIdentity"
    MINUS_IDENTITY = "MinusIdentity"
    OTHER = "Other"


class Mat2(Frozen):
    """Row-major 2x2 matrix over Z[w]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: CycInt, b: CycInt, c: CycInt, d: CycInt):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def _key(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> CycInt:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CycInt:
        return self.a + self.d

    def inv(self) -> "Mat2":
        """Adjugate; valid only for det = 1 matrices."""
        if self.det() != ONE:
            raise ValueError("mat_inv requires det = 1")
        return Mat2(self.d, -self.b, -self.c, self.a)


_set_a, _set_b, _set_c, _set_d = setters(Mat2)

IDENTITY = Mat2(ONE, ZERO, ZERO, ONE)
MINUS_IDENTITY = Mat2(MINUS_ONE, ZERO, ZERO, MINUS_ONE)


def classify_pm(m: Mat2) -> PMClass:
    if m == IDENTITY:
        return PMClass.PLUS_IDENTITY
    if m == MINUS_IDENTITY:
        return PMClass.MINUS_IDENTITY
    return PMClass.OTHER


def generator_matrix(label: str) -> Mat2:
    """The connection matrix assigned to an edge class.

    alpha = [[w^7, 0], [0, w^5]]
    beta  = [[w^7, w^3], [0, w^5]]
    gamma = [[w^5, 0], [w^3, w^7]]
    """
    try:
        return _GENERATORS[label]
    except KeyError:
        raise ValueError(f"unknown generator label: {label!r}") from None


_GENERATORS = {
    "alpha": Mat2(omega_power(7), ZERO, ZERO, omega_power(5)),
    "beta": Mat2(omega_power(7), omega_power(3), ZERO, omega_power(5)),
    "gamma": Mat2(omega_power(5), ZERO, omega_power(3), omega_power(7)),
}

ALPHA = _GENERATORS["alpha"]
BETA = _GENERATORS["beta"]
GAMMA = _GENERATORS["gamma"]
