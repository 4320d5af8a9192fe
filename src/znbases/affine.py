"""The affine action u*A + v on subsets of Z_n, orbits, and canonical forms.

Basis order is invariant under any map x -> u*x + v with gcd(u, n) = 1, so
enumeration only ever needs one representative per affine orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import ZnSet, mask_less


@dataclass(frozen=True)
class AffineMap:
    """x -> scale*x + shift mod modulus, with gcd(scale, modulus) = 1."""

    scale: int
    shift: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if math.gcd(self.scale, self.modulus) != 1:
            raise ValueError(
                f"scale {self.scale} is not invertible mod {self.modulus}"
            )
        object.__setattr__(self, "scale", self.scale % self.modulus)
        object.__setattr__(self, "shift", self.shift % self.modulus)


def apply_affine(f: AffineMap, a: ZnSet) -> ZnSet:
    if f.modulus != a.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} != {a.modulus}")
    n = a.modulus
    mask = 0
    for m in a:
        mask |= 1 << ((f.scale * m + f.shift) % n)
    return ZnSet(n, mask)


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The residues invertible mod n, in increasing order."""
    return tuple(u for u in range(1, n + 1) if math.gcd(u, n) == 1) if n > 1 else (0,)


def zero_based_images(a: ZnSet):
    """Masks of all affine images of A that contain 0 (one per (unit, member) pair).

    Per unit the scaled set is built once; each member is then moved to 0 by
    a rotation of that mask.
    """
    n = a.modulus
    full = (1 << n) - 1
    members = a.members
    for u in units(n):
        scaled = 0
        for m in members:
            scaled |= 1 << (u * m % n)
        for m in members:
            anchor = u * m % n
            yield (scaled >> anchor | scaled << (n - anchor)) & full


def canonical_form(a: ZnSet) -> ZnSet:
    """The minimum of the affine orbit of A under the fixed canonical order.

    The orbit minimum always contains 0 (for nonempty A a translate
    containing 0 beats any set that misses it), so only the n*phi(n) images
    with some element mapped to 0 need comparing.
    """
    if not a:
        raise ValueError("canonical form of an empty set")
    best = None
    for image in zero_based_images(a):
        if best is None or mask_less(image, best):
            best = image
    return ZnSet(a.modulus, best)


def is_canonical(a: ZnSet) -> bool:
    """Whether A is the canonical representative of its own orbit."""
    if not a:
        raise ValueError("canonicality of an empty set")
    if 0 not in a:
        return False
    mask = a.mask
    return not any(mask_less(image, mask) for image in zero_based_images(a))


def orbit(a: ZnSet) -> frozenset[ZnSet]:
    """All distinct images of A under the n*phi(n) affine maps."""
    if not a:
        raise ValueError("orbit of an empty set")
    n = a.modulus
    out = set()
    for u in units(n):
        base = apply_affine(AffineMap(u, 0, n), a)
        for v in range(n):
            out.add(base.rotate(v))
    return frozenset(out)
