"""h-fold sumsets, growth trajectories, and exact basis-order computation."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Record, ZnSet, with_modulus


def add_sets(x: ZnSet, y: ZnSet) -> ZnSet:
    """The sumset {a + b mod n : a in X, b in Y}.

    Implemented as a union of rotations of the larger set, driven by the
    members of the smaller one: O(min(|X|,|Y|) * n/word).
    """
    x._check_modulus(y)
    n = x.modulus
    if not x.mask or not y.mask:
        return ZnSet(n, 0)
    driver, other = (x, y) if len(x) <= len(y) else (y, x)
    full = (1 << n) - 1
    om = other.mask
    acc = 0
    for shift in driver:
        if shift == 0:
            acc |= om
        else:
            acc |= (om << shift | om >> (n - shift)) & full
        if acc == full:
            break
    return ZnSet(n, acc)


def h_fold(a: ZnSet, h: int) -> ZnSet:
    """The h-fold sumset hA (sums of exactly h elements), by binary doubling."""
    if not a:
        raise ValueError("h-fold sumset of an empty set")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    result: ZnSet | None = None
    power = a
    while True:
        if h & 1:
            result = power if result is None else add_sets(result, power)
        h >>= 1
        if not h:
            return result  # type: ignore[return-value]
        power = add_sets(power, power)


def order(a: ZnSet) -> int | None:
    """The least h with hA = Z_n, or None when A is not a basis.

    Translates the set so that 0 is a member (order is affine-invariant),
    which makes the levels nested and lets stabilization short of full cover
    be detected by equality of consecutive levels.
    """
    if not a:
        raise ValueError("order of an empty set")
    n = a.modulus
    if n == 1:
        return 1
    base = a.rotate(-(a.mask & -a.mask).bit_length() + 1)
    full = (1 << n) - 1
    shifts = [m for m in base if m != 0]
    cur = base.mask
    h = 1
    while True:
        if cur == full:
            return h
        nxt = cur
        for s in shifts:
            nxt |= (cur << s | cur >> (n - s)) & full
        if nxt == cur:
            return None
        cur = nxt
        h += 1


@dataclass(frozen=True)
class SumsetTrajectory(Record):
    """The level-by-level record of hA up to full cover or stabilization.

    ``levels[h-1]`` is hA of the 0-translated base; ``order`` is the least h
    with hA = Z_n, or None if the levels stabilized at the proper subset
    ``stabilized`` (in which case the final two recorded levels are equal).
    """

    base: ZnSet = with_modulus("base")
    levels: tuple[ZnSet, ...]
    sizes: tuple[int, ...]
    order: int | None
    stabilized: ZnSet | None


def trajectory(a: ZnSet) -> SumsetTrajectory:
    """Full growth record of the iterated sumsets of the 0-translated set."""
    if not a:
        raise ValueError("trajectory of an empty set")
    base = a.rotate(-(a.mask & -a.mask).bit_length() + 1)
    levels = [base]
    cur = base
    while True:
        if cur.is_full():
            return SumsetTrajectory(
                base=base,
                levels=tuple(levels),
                sizes=tuple(len(lv) for lv in levels),
                order=len(levels),
                stabilized=None,
            )
        nxt = add_sets(cur, base)
        if nxt == cur:
            levels.append(nxt)
            return SumsetTrajectory(
                base=base,
                levels=tuple(levels),
                sizes=tuple(len(lv) for lv in levels),
                order=None,
                stabilized=cur,
            )
        levels.append(nxt)
        cur = nxt
