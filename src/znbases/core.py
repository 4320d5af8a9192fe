"""Exact arithmetic primitives and the set type over Z_n.

Everything here is exact integer arithmetic.  Rational quantities are
fractions.Fraction; floating point never appears in any computation or
comparison.  The fractions module (which loads decimal and numbers) costs
milliseconds at every start, and --version, spectrum, order and canon build
no rational, so no module imports it at load time: the other modules build
rationals as core.Fraction(...), and the first read of core.Fraction
imports the class through the module __getattr__ below and keeps it in
this module's globals, so later reads are plain lookups.

The enumeration defaults live here too, not in spectrum: the CLI builds its
option rows from them at import, and every command runs this module, while
only the commands that enumerate run spectrum.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator


def __getattr__(name: str):
    if name == "Fraction":
        from fractions import Fraction

        globals()["Fraction"] = Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_EXHAUSTIVE_LIMIT = 20  # largest n an exhaustive enumeration accepts
DEFAULT_CARD_CAP = 6  # the cardinality cap the CLI suggests in its help


def _check_positive(modulus: int) -> None:
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")


def nlr(x: int, n: int) -> int:
    """Numerically least residue of x mod n: the representative in (-n/2, n/2]."""
    _check_positive(n)
    r = x % n
    # 2r > n pushes the representative below zero; 2r == n stays at n/2.
    if 2 * r > n:
        r -= n
    return r


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Lane widths of integers packed with one value per lane, in bits, with their
# memoryview formats: a lane of w bits holds a value below 2^w.  Packed
# integers are built from strings of 0/1 flag bytes and read back lane by
# lane through memoryview.cast, in place of a Python loop per lane.
_LANE_FORMATS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
_MEMBER_FLAGS = bytes.maketrans(b"01", b"\0\1")  # a binary string's digits as flag bytes


def _literal_members(text: str, noun: str) -> Iterator[int]:
    """The integers of a stripped, nonempty set literal in order (format as in
    ZnSet.from_text): a token that is not an integer, the empty one too, is
    named with its literal, and a repeated value is refused."""
    seen = set()
    for tok in text.replace(";", ",").split(","):
        try:
            m = int(tok)
        except ValueError:
            raise ValueError(
                f"{noun} {tok.strip()!r} in set literal {text!r} is not an integer"
            ) from None
        if m in seen:
            raise ValueError(f"duplicate {noun} {m} in set literal")
        seen.add(m)
        yield m


class ZnSet:
    """A subset of Z_n: modulus plus a dense bit-indexed membership mask.

    Bit i of ``mask`` is set iff residue i is a member.  The dense form makes
    unions and rotations O(n/word) big-int operations, which dominate the
    runtime of every sumset computation.  The value is immutable: equality,
    hash and pickling go by (modulus, mask), and assignment or deletion raises.
    """

    __slots__ = ("modulus", "mask")

    def __init__(self, modulus: int, mask: int = 0) -> None:
        _check_positive(modulus)
        if mask < 0 or mask >> modulus:
            raise ValueError("membership mask has bits outside [0, modulus)")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.modulus == other.modulus and self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus, self.mask))

    def __reduce__(self):
        return self.__class__, (self.modulus, self.mask)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> ZnSet:
        _check_positive(modulus)
        mask = 0
        for m in members:
            if not 0 <= m < modulus:
                raise ValueError(f"residue {m} out of range [0, {modulus})")
            mask |= 1 << m
        return cls(modulus, mask)

    @classmethod
    def from_text(cls, modulus: int, text: str) -> ZnSet:
        """Parse the set literal format: comma-separated residues, e.g. "0,1,3".

        Rejects out-of-range and duplicate entries.  Semicolons are accepted
        as separators too (the CSV-embedded variant of the same literal).
        """
        text = text.strip()
        if not text:
            return cls(modulus, 0)
        return cls.from_members(modulus, _literal_members(text, "residue"))

    @property
    def members(self) -> tuple[int, ...]:
        mask = self.mask
        count = mask.bit_count()
        # The loop rewrites the whole mask once per member; one flag byte per
        # bit costs about 1 us plus 20 ns a bit, once.  Measured crossovers
        # (2-core Xeon, Python 3.11): the flag bytes win from about 12
        # members in a short mask, from a density of about 1/8 up to a few
        # thousand bits, and from about 300 members in a longer one.
        if count >= 12 and (8 * count >= mask.bit_length() or count >= 400):
            flags = format(mask, "b")[::-1].encode().translate(_MEMBER_FLAGS)
            return tuple(itertools.compress(range(len(flags)), flags))
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, residue: int) -> bool:
        return 0 <= residue < self.modulus and bool(self.mask >> residue & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.modulus) - 1

    def rotate(self, shift: int) -> ZnSet:
        """Translate the set: {a + shift mod n}."""
        n = self.modulus
        s = shift % n
        full = (1 << n) - 1
        return ZnSet(n, (self.mask << s | self.mask >> (n - s)) & full)

    def to_text(self) -> str:
        return ",".join(str(m) for m in self)

    def _check_modulus(self, other: ZnSet) -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} != {other.modulus}"
            )

    def __repr__(self) -> str:
        return f"ZnSet({self.modulus}, {{{self.to_text()}}})"


def mask_less(x: int, y: int) -> bool:
    """The canonical order on membership masks of one modulus: the mask
    holding the lowest residue on which the two differ is the smaller one."""
    diff = x ^ y
    return bool(x & diff & -diff)


def canonical_sort_key(a: ZnSet) -> int:
    """Integer sort key consistent with mask_less among sets of one
    modulus n: bit i of the complemented mask placed at position n-1-i, so
    residue 0 is the most significant bit and membership sorts first."""
    n = a.modulus
    return int(format(a.mask ^ ((1 << n) - 1), f"0{n}b")[::-1], 2)


def is_basis(a: ZnSet) -> bool:
    """Whether some h-fold sumset of A covers all of Z_n.

    Criterion: translate any element to 0 and test gcd of the differences
    together with n.  A singleton has no differences, so its gcd is n: it
    is a basis only when n = 1 (the plain gcd-of-elements test would
    wrongly accept e.g. {1}); every nonempty subset of Z_1 is a basis.
    """
    if not a:
        return False
    a0, *rest = a
    return math.gcd(a.modulus, *(m - a0 for m in rest)) == 1


# -- serialization ------------------------------------------------------------
#
# Infinite order is represented as None in memory, the JSON value null, and
# the CSV token "inf".  Rationals are emitted as exact fraction strings "p/q"
# ("p" when the denominator is 1).

def format_order(order: int | None) -> str:
    return "inf" if order is None else str(order)


def format_fraction(value: Fraction | int) -> str:
    # a Fraction and an int both carry numerator and denominator
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def encode(value):
    """The JSON form of a report value.

    A ZnSet becomes its set literal and a Fraction its exact string; records
    and other named tuples become objects keyed by field name, other tuples
    and lists become lists; None, bools, ints and strings pass through.
    """
    if isinstance(value, ZnSet):
        return value.to_text()
    if hasattr(value, "_fields"):
        split = getattr(value, "_with_modulus", {})
        out = {}
        for name, v in zip(value._fields, value):
            key = split.get(name)
            if key is None:
                out[name] = encode(v)
            else:
                out["modulus"], out[key] = v.modulus, v.to_text()
        return out
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if hasattr(value, "denominator") and not isinstance(value, int):
        # a Fraction, told apart without reading core.Fraction, which would
        # load fractions for reports that hold none
        return format_fraction(value)
    return value


def record(cls=None, *, with_modulus: dict[str, str] | None = None):
    """Class decorator for report records: a named tuple built from a plain
    annotated class, written to JSON by the one encoder.

    The fields are the class's annotations in order, and the class
    attributes named like fields are their defaults.  The result is a
    subclass of collections.namedtuple with __slots__ = () that keeps the
    class's docstring, methods, properties and __annotations__.  It gets
    to_dict, which applies `encode`.  `with_modulus` maps a ZnSet field to
    the key of its set literal: that field is written as two keys,
    "modulus" and the given one, and so carries its own modulus.
    """
    def build(cls):
        ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
        fields = tuple(cls.__annotations__)
        base = namedtuple(cls.__name__, fields, module=cls.__module__,
                          defaults=[ns.pop(f) for f in fields if f in ns])
        ns.update(__slots__=(), _with_modulus=with_modulus or {}, to_dict=encode)
        return type(cls.__name__, (base,), ns)

    return build if cls is None else build(cls)
