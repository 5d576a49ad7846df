"""Exact arithmetic on the projective line over the rationals.

A point is stored only as its integer pair `ihom` and a Moebius
transformation only as its integer matrix `imat`: coprime integers, first
nonzero entry (row-major for matrices) positive.  That form is unique, so
equality and hashing compare it directly and values work as dict keys.  The
canonical Fraction form (first nonzero coordinate equal to 1) is a derived,
read-only view (`c0`, `c1`, `m00` ... `m11`) for printing and serializing.
All values are immutable and all operations are pure; the operations and the
hot loops elsewhere compute on the integers, the latter through the small
integer toolkit at the end.

The toolkit holds the one chart rule `_chart_row`, which every chart in the
package reads instead of building a map, and the one exact rational `_rat`
with its scaling to integers `_scaled`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Optional, Sequence


class DegenerateTripleError(ValueError):
    """Two of the three reference points coincide."""


class IndeterminateError(ValueError):
    """Numerator and denominator of a projective value both vanish."""


def _rat(x) -> Fraction:
    """x as a Fraction: only an int, a Fraction or a string of one is exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


_INT = {int}
_INT_OR_FRACTION = {int, Fraction}


def _scaled(values: Sequence) -> tuple[int, list[int]]:
    """(den, nums): exact rationals as integers nums over their least common
    denominator den; ints are their own numerators over 1."""
    types = {*map(type, values)}
    if types == _INT:
        return 1, list(values)
    if not types <= _INT_OR_FRACTION:
        values = [_rat(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _DataclassView:
    """`__dataclass_fields__` or `__dataclass_params__` of a value class, taken
    on first use from a dataclass with the same field names, so that
    `dataclasses.replace`, `fields`, `asdict` and `pprint` accept the values.
    A class with no `_fields` has neither attribute."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls):
        if not cls._fields:
            raise AttributeError(self.name)
        from dataclasses import make_dataclass

        twin = make_dataclass(cls.__name__, cls._fields, frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(cls, self.name)


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in `_fields`, in constructor order, keeps
    them in `__slots__` and sets them in its `__init__` with
    `object.__setattr__`.  From the field names the base gives what
    `@dataclass(frozen=True)` would: equality between instances of one class
    on the field tuple, the hash of that tuple, the repr
    `Name(field=value, ...)` and copying and pickling through the
    constructor.  Assignment and deletion raise
    `dataclasses.FrozenInstanceError`.  The classes do not use `dataclasses`
    itself: importing it and generating the methods of every class took
    about 11 ms of each `qml` process's start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassView("__dataclass_fields__")
    __dataclass_params__ = _DataclassView("__dataclass_params__")

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields:
            get = attrgetter(*fields)
            # the field tuple of an instance; attrgetter gives a lone value
            # for one name
            cls._astuple = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        astuple = self._astuple
        return astuple(self) == astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # instance refuses assignment
        return self.__class__, self._astuple(self)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ProjPoint(_Frozen):
    """A point (c0 : c1) of the projective line, given by any exact rational
    representative (`int`, `Fraction` or `str` coordinates).

    Stored only as `ihom`, the coprime integer pair with positive leading
    entry.  `c0` and `c1` are the canonical Fraction form derived from it:
    the first nonzero coordinate equals 1, so (1 : t) or (0 : 1).
    """

    __slots__ = ("ihom",)

    def __init__(self, c0, c1):
        # __post_init__ reduces the raw pair in place; it is a separate,
        # argument-free method so instrumentation can wrap it
        object.__setattr__(self, "ihom", (c0, c1))
        self.__post_init__()

    def __post_init__(self):
        x0, x1 = self.ihom
        if type(x0) is not int or type(x1) is not int:
            _, (x0, x1) = _scaled((x0, x1))
        g = gcd(x0, x1)
        if not g:
            raise ValueError("(0:0) is not a projective point")
        if x0 < 0 or (not x0 and x1 < 0):
            g = -g
        object.__setattr__(self, "ihom", (x0 // g, x1 // g))

    @property
    def c0(self) -> Fraction:
        return _ONE if self.ihom[0] else _ZERO

    @property
    def c1(self) -> Fraction:
        x0, x1 = self.ihom
        return Fraction(x1, x0) if x0 else _ONE

    def __eq__(self, other):
        if other.__class__ is not ProjPoint:
            return NotImplemented
        return self.ihom == other.ihom

    def __ne__(self, other):
        # the inherited __ne__ calls __eq__ through a slot wrapper, which
        # costs about twice as much
        if other.__class__ is not ProjPoint:
            return NotImplemented
        return self.ihom != other.ihom

    def __hash__(self):
        return hash(self.ihom)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # instance refuses assignment
        return ProjPoint, self.ihom

    def __repr__(self):
        return f"({self.c0}:{self.c1})"


ZERO_POINT = ProjPoint(0, 1)
INF_POINT = ProjPoint(1, 0)
ONE_POINT = ProjPoint(1, 1)

#: A section of a configuration: either a projective point or the zero vector.
Section = Optional[ProjPoint]


def affine(x) -> ProjPoint:
    """The affine point x, i.e. (x : 1)."""
    r = _rat(x)
    return ProjPoint(r.numerator, r.denominator)


class Moebius(_Frozen):
    """An invertible 2x2 matrix class up to scale, given by any exact
    rational representative (m00, m01, m10, m11) in row-major order.

    Stored only as `imat`, the primitive integer matrix with positive leading
    entry, which is what the operations compute with.  `m00` ... `m11` are the
    canonical Fraction form derived from it: the first nonzero entry in
    row-major order equals 1.
    """

    __slots__ = ("imat",)

    def __init__(self, m00, m01, m10, m11):
        e = (m00, m01, m10, m11)
        if not (type(m00) is int and type(m01) is int and type(m10) is int and type(m11) is int):
            _, e = _scaled(e)
        i00, i01, i10, i11 = e
        if i00 * i11 - i01 * i10 == 0:
            raise ValueError("singular matrix does not define a Moebius transformation")
        # an invertible matrix has m00 or m01 nonzero
        g = gcd(i00, i01, i10, i11)
        if (i00 or i01) < 0:
            g = -g
        object.__setattr__(self, "imat", (i00 // g, i01 // g, i10 // g, i11 // g))

    def _entry(self, k: int) -> Fraction:
        e = self.imat
        return Fraction(e[k], e[0] or e[1])

    m00 = property(lambda self: self._entry(0))
    m01 = property(lambda self: self._entry(1))
    m10 = property(lambda self: self._entry(2))
    m11 = property(lambda self: self._entry(3))

    def __eq__(self, other):
        if other.__class__ is not Moebius:
            return NotImplemented
        return self.imat == other.imat

    def __hash__(self):
        return hash(self.imat)

    def __reduce__(self):
        return Moebius, self.imat

    def __repr__(self):
        return f"Moebius(m00={self.m00!r}, m01={self.m01!r}, m10={self.m10!r}, m11={self.m11!r})"

    def apply(self, p: ProjPoint) -> ProjPoint:
        a0, a1 = p.ihom
        i00, i01, i10, i11 = self.imat
        return ProjPoint(i00 * a0 + i01 * a1, i10 * a0 + i11 * a1)

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other."""
        a00, a01, a10, a11 = self.imat
        b00, b01, b10, b11 = other.imat
        return Moebius(
            a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
        )

    def inverse(self) -> "Moebius":
        i00, i01, i10, i11 = self.imat
        return Moebius(i11, -i01, -i10, i00)


def moebius_two_point(p_zero: ProjPoint, p_inf: ProjPoint) -> Moebius:
    """Some Moebius sending p_zero to (0:1) and p_inf to (1:0).

    Determined only up to a diagonal factor; callers that need a canonical
    choice must normalize a third point.  The choice made is the matrix
    with rows (c1, -c0) of p_zero and (-c1, c0) of p_inf.
    """
    if p_zero == p_inf:
        raise DegenerateTripleError(f"anchor points coincide: {p_zero}")
    # ihom is (c0 : c1) times its first entry, or (c0 : c1) itself at (0:1)
    z0, z1 = p_zero.ihom
    f0, f1 = p_inf.ihom
    sz, sf = z0 or 1, f0 or 1
    return Moebius(z1 * sf, -z0 * sf, -f1 * sz, f0 * sz)


def moebius_from_triple(p0: ProjPoint, pinf: ProjPoint, p1: ProjPoint) -> Moebius:
    """The Moebius sending (p0, pinf, p1) to ((0:1), (1:0), (1:1))."""
    for a, b in ((p0, pinf), (p0, p1), (pinf, p1)):
        if a == b:
            raise DegenerateTripleError(f"reference points coincide: {a}")
    a0, a1 = p0.ihom
    b0, b1 = pinf.ihom
    c0, c1 = p1.ihom
    # rows (a1, -a0) and (-b1, b0) send p0 and pinf to the anchors; scaling
    # them by the other row's value at p1 sends p1 to (1:1)
    w0 = a1 * c0 - a0 * c1
    w1 = b0 * c1 - b1 * c0
    return Moebius(a1 * w1, -a0 * w1, -b1 * w0, b0 * w0)


def cross_ratio(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint) -> ProjPoint:
    """The cross-ratio (d(1,4) d(2,3) : d(1,3) d(2,4)).

    For affine inputs this is ((t1-t4)(t2-t3) : (t1-t3)(t2-t4)).  It equals
    moebius_from_triple(p1, p2, p3) applied to p4 whenever p1, p2, p3 are
    pairwise distinct.
    """
    a1, a2, a3, a4 = p1.ihom, p2.ihom, p3.ihom, p4.ihom
    num = idet(a1, a4) * idet(a2, a3)
    den = idet(a1, a3) * idet(a2, a4)
    if num == 0 and den == 0:
        raise DegenerateTripleError("cross-ratio undefined: reference points degenerate")
    return ProjPoint(num, den)


def cross_ratio_invariant(config: Sequence[ProjPoint], i: int, j: int, k: int, l: int) -> ProjPoint:
    """The cross-ratio invariant of four sections, as a projective value.

    Equals cross_ratio(s_j, s_i, s_k, s_l); with s_i = (0:1) and s_j = (1:0)
    it reduces to (s_k0 s_l1 : s_k1 s_l0).  Returned projectively so the
    value infinity needs no sentinel.
    """
    si, sj, sk, sl = config[i].ihom, config[j].ihom, config[k].ihom, config[l].ihom
    num = idet(sj, sl) * idet(si, sk)
    den = idet(si, sl) * idet(sj, sk)
    if num == 0 and den == 0:
        raise IndeterminateError(
            f"cross-ratio invariant indeterminate for indices ({i},{j},{k},{l})"
        )
    return ProjPoint(num, den)


# ---------------------------------------------------------------------------
# Integer toolkit.  A point is an int pair (a0, a1), coprime, first nonzero
# entry positive; identical to ProjPoint.ihom.  Used by hot loops.

IPoint = tuple[int, int]


def idet(a: IPoint, b: IPoint) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _det_row(a: IPoint, pts: Sequence[IPoint]) -> list[int]:
    """The row [idet(a, x) for x in pts]; x coincides with a exactly where it
    is 0.  For pts[u] as a it is row u of the determinant table of pts, and
    for the anchors (0:1) and (1:0) it is (-x0) and (x1)."""
    a0, a1 = a
    return [a0 * b1 - a1 * b0 for b0, b1 in pts]


def _chart_row(dp: Sequence[int], dq: Sequence[int], r: int) -> list[tuple[int, int]]:
    """The chart rule: from the determinant rows dp and dq of points p and q,
    the map sending p, q and point r to (0:1), (1:0), (1:1) sends point k to
    (dp[k] dq[r] : dp[r] dq[k]), as integer pairs (the identity of
    `cross_ratio`).  The pairs are nonzero when p, q, r are distinct."""
    cq, cp = dq[r], dp[r]
    return [(x * cq, cp * y) for x, y in zip(dp, dq)]


def _points(pairs: Sequence[tuple[int, int]]) -> tuple[ProjPoint, ...]:
    """The points of nonzero integer pairs; a pair with a zero entry is the
    shared ZERO_POINT or INF_POINT, one with equal entries the shared
    ONE_POINT, every other one a new ProjPoint."""
    return tuple([(ProjPoint(a, b) if a != b else ONE_POINT) if a and b else INF_POINT if a else ZERO_POINT
                  for a, b in pairs])
