"""h-fold sumsets, growth trajectories, and exact basis-order computation."""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import ZnSet, record


def add_sets(x: ZnSet, y: ZnSet) -> ZnSet:
    """The sumset {a + b mod n : a in X, b in Y}.

    Implemented as a union of rotations of the larger set, driven by the
    members of the smaller one: O(min(|X|,|Y|) * n/word).
    """
    x._check_modulus(y)
    n = x.modulus
    driver, other = (x, y) if len(x) <= len(y) else (y, x)
    full = (1 << n) - 1
    om = other.mask
    acc = 0
    for shift in driver:
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
    be detected by equality of consecutive levels.  A 3-element set is read
    off its minimum-distance diagram in O(log n) steps instead.
    """
    if not a:
        raise ValueError("order of an empty set")
    n = a.modulus
    base = a.rotate(-(a.mask & -a.mask).bit_length() + 1)
    if len(base) == 3:
        _, x, y = base
        return _triple_order(n, x, y)
    return _mask_order(n, base.mask, base.members[1:])


def _mask_order(n: int, mask: int, shifts: Sequence[int]) -> int | None:
    """The order in Z_n of the set with the given mask, which holds 0 and
    whose other members are shifts, or None when it is not a basis.

    As 0 is a member the levels hA are nested, so the order is the number of
    levels up to the full one, and two equal consecutive levels short of it
    show that the set is not a basis.
    """
    full = (1 << n) - 1
    cur = mask
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


def _triple_order(n: int, a: int, b: int) -> int | None:
    """The order of {0, a, b} in Z_n: the diameter of the digraph on Z_n with
    steps a and b.

    Give each residue x a shortest pair (i, j) with i*a + j*b = x, ties going
    to the larger i.  These pairs tile an L-shape (Wong and Coppersmith,
    J. ACM 1974; Fiol, Yebra, Alegre and Valero, IEEE Trans. Comput. 1987):
    a first row of l cells and a first column of h cells, less a w-by-y
    corner, where l*a = y*b and h*b = w*a (mod n).  Its farthest cells are
    (l - 1, h - y - 1) and (l - w - 1, h - 1).
    """
    if math.gcd(a, b, n) > 1:
        return None
    l, y = _first_repeat(n, a, b, closed=False)
    h, w = _first_repeat(n, b, a, closed=True)
    if l * h - w * y != n:
        raise RuntimeError(f"L-shape of {{0, {a}, {b}}} in Z_{n} does not have n cells")
    return l + h - min(w, y) - 2


def _first_repeat(n: int, a: int, b: int, closed: bool) -> tuple[int, int]:
    """The least p >= 1 with p*a = q*b (mod n) for some q in [0, p), or in
    [0, p] when closed, and the least such q.  Needs gcd(a, b, n) = 1.

    With g = gcd(b, n), p must be a multiple g*t, and q is then c*t mod m for
    m = n/g and c = a*(b/g)^-1 mod m.  So t is the least t >= 1 with an
    integer in ((c - g)*t/m, c*t/m], the denominator of the simplest fraction
    in that interval.
    """
    g = math.gcd(b, n)
    m = n // g
    c = a * pow(b // g, -1, m) % m
    _, t = _simplest_fraction(c - g, m, closed, c, m, True)
    return g * t, c * t % m


def _simplest_fraction(
    xn: int, xd: int, x_closed: bool, zn: int, zd: int, z_closed: bool
) -> tuple[int, int]:
    """(p, q), where p/q has the least q of all fractions between x = xn/xd
    and z = zn/zd, each end included when flagged; zd = 0 stands for an open
    end at infinity.  Needs xd >= 1 and x < z.

    The continued-fraction (Stern-Brocot) recursion: take the least integer
    in the interval if there is one; otherwise the interval lies in
    [f, f + 1) for f = floor(x), and 1/(p/q - f) is the simplest fraction of
    the inverted fractional parts.  Between positive ends, the simplest
    fraction has the least numerator too, so its numerator is q.
    """
    f, r = divmod(xn, xd)
    k = f if x_closed and not r else f + 1
    if k * zd < zn or z_closed and k * zd == zn:
        return k, 1
    p, q = _simplest_fraction(zd, zn - f * zd, z_closed, xd, r, x_closed)
    return f * p + q, p


@record(with_modulus={"base": "base"})
class SumsetTrajectory:
    """The level-by-level record of hA up to full cover or stabilization.

    ``levels[h-1]`` is hA of the 0-translated base; ``order`` is the least h
    with hA = Z_n, or None if the levels stabilized at the proper subset
    ``stabilized`` (in which case the final two recorded levels are equal).
    """

    base: ZnSet
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
    while not levels[-1].is_full():
        levels.append(add_sets(levels[-1], base))
        if levels[-1] == levels[-2]:  # stabilized short of Z_n
            break
    full = levels[-1].is_full()
    return SumsetTrajectory(
        base=base,
        levels=tuple(levels),
        sizes=tuple(len(lv) for lv in levels),
        order=len(levels) if full else None,
        stabilized=None if full else levels[-1],
    )
