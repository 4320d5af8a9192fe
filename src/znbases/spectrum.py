"""Basis enumeration up to affine equivalence, achieved-order spectra with
gap detection, and the empirical large-order gap measurement.

Enumeration and aggregation are deterministic: every report reads its
orders off one list of (representative, order) pairs in the canonical order
(ascending canonical_sort_key), the order in which both the orderly walk and
the pruned search meet the bases.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator

from . import core
from .affine import is_canonical, units
from .core import _LANE_FORMATS, _MEMBER_FLAGS, DEFAULT_EXHAUSTIVE_LIMIT, ZnSet, divisors, record
from .sumsets import _mask_order, _triple_order


@record
class OrderWitness:
    order: int
    witness: ZnSet


@record
class SpectrumReport:
    """Achieved finite orders over one representative per basis orbit.

    gaps are the maximal runs inside [1, n-1] with no achieved order; each
    achieved order carries the canonically least basis attaining it.
    """

    n: int
    mode: str  # "exhaustive" | "card_capped"
    max_card: int | None
    achieved_orders: tuple[int, ...]
    gaps: tuple[tuple[int, int], ...]
    witnesses: tuple[OrderWitness, ...]


@record
class Exceeder:
    """One basis orbit whose order exceeds n/k, with its gap to the nearest n/l."""

    witness: ZnSet
    order: int
    nearest_l: int
    min_gap: core.Fraction


@record
class ConjectureReport:
    """Empirical gap measurement over all enumerated bases with order > n/k.

    max_min_gap is the largest, over those bases, of the distance from the
    order to the nearest n/l with l in [1, k] -- the quantity conjectured to
    stay bounded.  completeness_caveat is set whenever enumeration was
    cardinality-capped: the cap is justified by the order/cardinality bound
    only for large n, so capped runs are not certified exhaustive.
    """

    n: int
    k: int
    mode: str
    max_card: int | None
    kl_cap: int | None
    completeness_caveat: bool
    exceeders: tuple[Exceeder, ...]
    max_min_gap: core.Fraction
    argmax_witness: ZnSet | None


def _exhaustive_bases(n: int, state: bytearray) -> Iterator[tuple[ZnSet, list[int]]]:
    """Orderly generation of the canonical basis representatives, each with
    its members in increasing order.

    state holds one zero byte per mask holding 0, indexed by the mask
    reversed: residue x >= 1 at bit n-1-x, and residue 0, which every such
    mask holds, dropped.  Of two masks, the one holding the lowest residue
    on which they differ has the larger index, so descending index order is
    the canonical order (mask_less), and a walk down the unseen bytes meets
    each orbit's canonical form first.  That mask marks all the orbit's 0-containing
    images u*(A - a), for every unit u = u_j and member a, with one sum:
    lanes[x] holds, in lane j*n + a, the reversed bit of u_j*(x - a)
    (nothing for 0), so the sum of lanes[x] over the members x holds the
    index of u_j*(A - a) in lane j*n + a.  A lane is a sum of distinct
    powers of two below 2^(n-1), so lanes never carry into each other.
    Being a basis is an orbit invariant, so a non-basis mask is skipped
    unmarked; as 0 is a member, a mask is a basis exactly when the gcd of n
    and its members is 1.  Each representative is yielded once its orbit is
    marked, so they come in the canonical order (ascending
    canonical_sort_key).
    """
    unit_list = units(n)
    phi = len(unit_list)
    # an index has n - 1 bits, and no bytearray of 2^(n-1) bytes exists for
    # n - 1 > 62, so 64-bit lanes always suffice
    bits, fmt = next(lane for lane in _LANE_FORMATS if lane[0] >= n - 1)
    count = n * phi  # lanes
    size = count * bits // 8
    little = sys.byteorder == "little"
    lanes = []
    for x in range(n):
        packed = 0
        for j, u in enumerate(unit_list):
            for a in range(n):
                y = u * (x - a) % n
                if y:
                    # to_bytes in native order puts slot 0 first on a
                    # little-endian machine and the last slot first on a
                    # big-endian one
                    slot = j * n + a if little else count - 1 - j * n - a
                    packed |= 1 << (bits * slot + n - 1 - y)
        lanes.append(packed)

    index = len(state)
    spec = f"0{n - 1}b"
    while (index := state.rfind(0, 0, index)) >= 0:
        residues = format(index, spec)  # residues[x - 1] == "1": x in A
        flags = ("1" + residues).encode().translate(_MEMBER_FLAGS)  # flags[x]: x in A
        members = list(itertools.compress(range(n), flags))
        if math.gcd(n, *members) > 1:
            continue
        images = memoryview(
            sum(itertools.compress(lanes, flags)).to_bytes(size, sys.byteorder)
        ).cast(fmt)
        # flags * phi selects lane j*n + a exactly when a is a member
        for image in itertools.compress(images, flags * phi):
            state[image] = 1
        yield ZnSet(n, int(residues[::-1] + "1", 2)), members


def enumerate_bases(
    n: int,
    max_card: int | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> Iterator[ZnSet]:
    """Iterate over exactly one representative (the canonical form) per
    affine orbit of bases of Z_n, in the canonical order (ascending
    canonical_sort_key).  The arguments are checked at the call, before
    the iterator is returned.

    Exhaustive mode (max_card None) requires n <= limit and allocates, at
    the call, a state byte for each of the 2^(n-1) masks containing 0 (see
    _exhaustive_bases).  Pass max_card to enumerate only orbits of at most
    max_card members; that mode runs the pruned search of _canonical_bases
    with floor 0 at the call, as no such state fits at the moduli it serves.
    """
    _check_args(n, max_card, limit)
    if max_card is not None:
        return (rep for rep, _ in _canonical_bases(n, 0, max_card))
    return (rep for rep, _ in _exhaustive_bases(n, _walk_state(n)))


def _walk_state(n: int) -> bytearray:
    """The state of _exhaustive_bases for Z_n, allocated now."""
    try:
        return bytearray(1 << (n - 1))
    except (OverflowError, MemoryError):  # OverflowError: more than sys.maxsize
        raise ValueError(f"exhaustive enumeration of Z_{n} needs a state of "
                         f"2^{n - 1} bytes, more than can be allocated here") from None


def _check_args(n: int, max_card: int | None, limit: int | None = None) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if max_card is not None and not 1 <= max_card <= n:
        raise ValueError(f"max_card must be in [1, {n}], got {max_card}")
    if max_card is None and limit is not None and n > limit:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {limit}; "
            f"use a cardinality cap for n = {n}"
        )


def _check_conjecture_args(n: int, k: int, max_card: int | None, limit: int) -> None:
    """Raise what verify_conjecture(n, k, max_card, limit) raises before it
    searches, in its order.  k = 1 searches nothing, so only k >= 2 is held
    to limit."""
    _check_args(n, max_card)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > 1:
        _check_args(n, max_card, limit)


def _bases_above(
    n: int, floor: int, max_card: int | None, limit: int
) -> list[tuple[ZnSet, int]]:
    """(representative, order) for every basis orbit of Z_n with order above
    floor, in the canonical order (ascending canonical_sort_key): the order
    in which the orderly walk (max_card None, which needs n <= limit) and the
    pruned search of _canonical_bases (capped) meet them.
    """
    if max_card is not None:
        return _canonical_bases(n, floor, max_card)
    _check_args(n, None, limit)
    found = []
    for rep, members in _exhaustive_bases(n, _walk_state(n)):
        rho = _mask_order(n, rep.mask, members[1:])
        if rho is None:
            raise RuntimeError(f"enumerated basis {rep!r} has infinite order")
        if rho > floor:
            found.append((rep, rho))
    return found


def _gap_runs(achieved: set[int], n: int) -> tuple[tuple[int, int], ...]:
    runs = []
    start = None
    for v in range(1, n):
        if v in achieved:
            if start is not None:
                runs.append((start, v - 1))
                start = None
        elif start is None:
            start = v
    if start is not None:
        runs.append((start, n - 1))
    return tuple(runs)


def spectrum(
    n: int,
    max_card: int | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> SpectrumReport:
    """Achieved-order spectrum of Z_n with gap runs and per-order witnesses."""
    _check_args(n, max_card)
    witness: dict[int, ZnSet] = {}
    for rep, rho in _bases_above(n, 0, max_card, limit):
        witness.setdefault(rho, rep)
    achieved = tuple(sorted(witness))
    return SpectrumReport(
        n=n,
        mode="exhaustive" if max_card is None else "card_capped",
        max_card=max_card,
        achieved_orders=achieved,
        gaps=_gap_runs(set(achieved), n),
        witnesses=tuple(OrderWitness(rho, witness[rho]) for rho in achieved),
    )


def check_kl_bound(report, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[int, int]:
    """Test the cardinality bound of a kl_bound report on every basis orbit
    of Z_n (n <= limit).

    Returns (checked, violations): the number of orbits of order at least
    report.rho, and how many of them have more than report.bound elements.
    """
    bases = _bases_above(report.n, report.rho - 1, None, limit)
    return len(bases), sum(len(rep) > report.bound for rep, _ in bases)


# -- the pruned search (every cardinality-capped run) ------------------------
#
# The canonical second member.  Let A have at least two members and let g be
# the least gcd(y - x, n) over its pairs, a proper divisor of n.  Some image
# of A holds 0 and g (translate x to 0, then a unit carries y - x to g), and
# none holds 0 and some m with 0 < m < g, as affine maps keep the gcd of
# every difference with n.  So the canonical form of A is {0, g} plus
# members above g.  The search roots at {0, g} for each proper divisor g
# (the basis {0, 1} is the root g = 1) and adds members in increasing order,
# so it reaches each such set once and keeps the canonical bases.
#
# The canonical order.  Of two ascending member tuples A and B holding 0, A
# comes first (mask_less) exactly when A has the smaller member at the first
# index where they differ, which B lacks as its later members are larger,
# or B is a proper prefix of A, so that A's next member is the lowest
# residue on which they differ.  The search takes roots in increasing g and
# new members in increasing order, and keeps each basis after the sets
# grown from it: that post-order is the canonical order, and nothing sorts.
#
# Orderly generation (R. C. Read, "Every one a winner", Ann. Discrete Math.
# 1978): the parent A' = A - max A of a canonical set A is canonical.  If an
# image phi(A') holding 0 came before A', phi(A) = phi(A') | {phi(max A)}
# would hold 0 and come before A: at the first index where phi(A') and A'
# differ, phi(A') has the smaller member, and adding one member to each moves
# that difference no later.  So a set that fails is_canonical is dropped with
# its subtree.
#
# Adding an element to a set never increases its order (the h-fold sumsets
# only grow), so a subset whose order is finite and <= floor cannot extend
# to a basis of order > floor: its whole supertree is pruned.  Subsets of
# order infinity must still be expanded.  Every searched set holds 0, so it
# has finite order exactly when the gcd of n and its members is 1; the
# search carries that gcd down the tree and computes an order only when it
# is 1.
#
# The orders.  The search computes every order without a ZnSet.
# The root {0, 1} has order n - 1, and a triple {0, g, z} the closed form
# _triple_order(n, g, z) of the minimum-distance diagram.  A set of four or
# more members grows its levels from its parent's: if A holds 0, then
# h(A | {z}) = hA | ((h - 1)(A | {z}) + z), one rotation and one OR per
# level instead of |A| - 1 rotations, and the order is the number of levels.
# A set keeps its levels, up to the full one, only when it ran this test
# and has children to read them.  The levels of a triple, or of a set in a
# proper subgroup, are grown again for each child that reaches the test,
# from its own parent's, and a root's from those of {0}, which are all {0}.
# Kept, a triple's levels would hold r*n bits for a triple of order r:
# (50000, 4) peaked at 261 MiB that way, against about 20 MiB.
#
# The quotient bound.  Let A hold 0 and let d = gcd(n, members of A) > 1, so
# A lies in H = dZ_n and A/d is a basis of Z_{n/d}; with r its order there,
# rA = H.  A basis B of Z_n that contains A maps onto a set of Z_n/H = Z_d
# that holds 0 and generates Z_d.  Its h-fold sums grow by at least one
# residue per step until they fill Z_d, so (d - 1)B meets every coset of H,
# and (d - 1)B + rA, which lies in (d - 1 + r)B, is all of Z_n.  Hence
# order(B) <= r + d - 1, and when r + d - 1 <= floor no set grown from A is
# kept: the search drops A's subtree.  The bound is at least d, so it is
# only computed when d <= floor.  A root {0, g} is dropped when
# n/g + g - 2 <= floor: its quotient {0, 1} has order n/g - 1, and for
# g = 1 that is the order of the basis {0, 1} itself.  A triple's quotient
# order is one _triple_order in Z_{n/d}, a larger quotient's the level loop
# of sumsets._mask_order on the members over d.
#
# The sub-basis bound.  If T is a basis inside A, then hT lies in hA, so
# order(A) <= order(T), and the same holds for every set grown from A.  A
# child of four or more members with a basis triple of order <= floor is
# dropped before its levels are grown.  A basis triple without the new
# member lies in the parent, whose order was above floor, so only triples
# holding the new member are checked.  Every set under the root {0, g}
# holds the triples {0, g, w}, the root's own children, so before any root
# is searched each root lists the members w that may follow g, leaving w
# out when {0, g, w} caps: no set holding it is visited, and the check
# skips the pair (0, g), which at (480, 8) dropped nine in ten of the
# children the check dropped.  The listings also tell whether the check can
# fire.  A basis triple's canonical form {0, g, w}, g its least pair gcd,
# passes the canonicity tests against 0 and g, so the listing of the root
# g examines it, unless that root was dropped; then {0, g, g + 1} caps, as
# it holds {0, g}, and so does its image {0, 1, g + 1} in the listing of
# the root 1, which is dropped only with all the others (n/g + g <= n + 1).
# So the check runs only once a listing has left out a capping w: at
# (160, 8), where the least triple order is 21, it never does.
#
# The triple memo.  A translate {0, y - x, z - x} recurs in many sets, so
# one dict per search keeps its order (None for a non-basis) under the key
# (y - x)*n + (z - x), 0 < y - x < z - x.  The map x -> a - x carries
# {0, a, b} onto {0, a, n + a - b}, of the same order and gcd(n, a, b), so
# every write stores both keys, and each order is computed once per mirror
# pair and search.  Under the root {0, g} the two pass the same canonicity
# tests (w and w - g trade places), so the listings compute about half of
# their triple orders; they store no non-basis triple, which would cost a
# quarter more memory at (50000, 4).
#
# The canonicity test.  By the lemma on the canonical second member, the
# orbit minimum of a set A of two or more members holds 0 and g, its least
# pair gcd.  An image u*A + v holding 0 and g sends some pair (x, y) of A to
# (0, g): v = -u*x and u*(y - x) = g (mod n), so gcd(y - x, n) = g and u is
# a lift to Z_n of ((y - x)/g)^-1 mod n/g that is a unit mod n.
# affine.is_canonical therefore compares A only with the images u*(A - x)
# for such pairs and lifts, at most |A|*(|A| - 1)*g of them instead of the
# phi(n)*|A| images that hold 0 (30 against 480 for a 6-set in Z_200 with
# g = 1).  The search walks plain member tuples and masks, and builds a
# ZnSet for each set that passes the bounds and is a basis or a parent:
# is_canonical drops it with its subtree, or the list keeps it.


def _levels(n: int, mask: int, z: int, above: Iterator[int]) -> Iterator[int]:
    """The masks of 2B, 3B, ..., where B = A | {z} has the given mask, A
    holds 0 and above yields the masks of 2A, 3A, ...: without end, or up
    to the first full one, by which hB is full too."""
    full = (1 << n) - 1
    back = n - z
    for level in above:
        mask = level | ((mask << z | mask >> back) & full)
        yield mask


def _quotient_order(n: int, d: int, members: tuple[int, ...]) -> int:
    """The order of members/d in Z_{n/d}, where members holds 0 and
    d = gcd(n, members), so that the quotient set is a basis."""
    if len(members) == 3:
        return _triple_order(n // d, members[1] // d, members[2] // d)
    shifts = [x // d for x in members[1:]]
    return _mask_order(n // d, sum(1 << x for x in shifts) | 1, shifts)


def _canonical_bases(n: int, floor: int, cap: int) -> list[tuple[ZnSet, int]]:
    """(canonical form, order) for every basis orbit of Z_n with order above
    floor and at most cap members, in the canonical order."""
    if n == 1:
        return [(ZnSet(1, 1), 1)] if floor < 1 else []  # {0} is a basis of order 1
    full = (1 << n) - 1
    found: list[tuple[ZnSet, int]] = []
    triples: dict[int, int | None] = {}  # the triple memo: a*n + b -> order of {0, a, b}

    def triple(a: int, b: int) -> int | None:
        # the order of {0, a, b}, stored under its key and its mirror's
        rho = triples[a * n + b] = triples[a * n + n + a - b] = (
            _triple_order(n, a, b) if math.gcd(n, a, b) == 1 else None)
        return rho

    def above(cell: tuple | None, members: tuple[int, ...]) -> Iterator[int]:
        # the masks of 2A, 3A, ... for A = members, whose cell this is ({0}
        # has none): read off the levels it keeps, up to the full one, or
        # grown from its parent's without end
        if cell is None:
            return itertools.repeat(1)  # the levels of {0}
        levels, up, mask, _ = cell
        if levels:
            return itertools.islice(levels, 1, None)
        return _levels(n, mask, members[-1], above(up, members[:-1]))

    def extend(members: tuple[int, ...], i: int, span: int, up: tuple) -> None:
        # visit members + (z,) for z = ws[i], above them all; members holds
        # 0 and g, span = gcd(n, members), 1 exactly when it is a basis, and
        # up is its cell: (levels, parent cell, mask, pair offsets)
        z = ws[i]
        span = math.gcd(span, z)
        size = len(members) + 1
        if 1 < span <= floor and size < cap:
            if _quotient_order(n, span, (*members, z)) + span - 1 <= floor:
                return  # the quotient bound caps the set and every set grown from it
        mask = up[2] | 1 << z
        levels: list[int] = []
        if span == 1:
            if size == 3:
                rho = triples[members[1] * n + z]
            else:
                for key in up[3]:
                    key += z
                    t = triples.get(key, 0)  # 0: not computed yet
                    if t == 0:
                        t = triple(*divmod(key, n))
                    if t is not None and t <= floor:
                        return  # a basis triple caps the set and every set grown from it
                # the set is a basis, so its levels reach Z_n; a set with
                # children keeps them, for the children's order tests
                levels = [mask] if size < cap else []
                rho, last = 1, mask
                for level in _levels(n, mask, z, above(up, members)):
                    if level == last:
                        break
                    rho, last = rho + 1, level
                    if levels:
                        levels.append(level)
                if last != full:
                    raise RuntimeError(
                        f"{ZnSet(n, mask)!r} generates Z_{n} but has infinite order")
            if rho <= floor:
                return  # no superset can climb back above floor
        elif size == cap:
            return  # neither a basis nor a parent
        a = ZnSet(n, mask)
        if not is_canonical(a):
            return  # nor is any set grown from it
        members += (z,)
        if size < cap:
            # a child's triple {x, y, w} is {0, y - x, w - x} + x, memo key
            # offset + w; the first pair, (0, g), is left out, as ws holds
            # no w for which {0, g, w} caps
            offsets = [(y - x) * n - x for x, y in
                       itertools.islice(itertools.combinations(members, 2), 1, None)
                       ] if check_triples else ()
            cell = (levels, up, mask, offsets)
            for j in range(i + 1, len(ws)):
                extend(members, j, span, cell)
        if span == 1:
            found.append((a, rho))  # after its children: the post-order

    roots = []  # (g, ws, cell) for each root {0, g} searched: ws the members that may follow g
    check_triples = False  # whether a basis triple caps: else the sub-basis check cannot fire
    for g in divisors(n)[:-1] if cap >= 2 else ():
        if n // g + g - 2 <= floor:
            continue  # the quotient bound caps {0, g} and every set grown from it
        ws = []
        for w in range(g + 1, n) if cap > 2 else ():
            if g > 1 and (math.gcd(w, n) < g or math.gcd(w - g, n) < g):
                continue  # never canonical, nor is any set grown from {0, g, w}
            if math.gcd(n, g, w) == 1 and (triples.get(g * n + w) or triple(g, w)) <= floor:
                check_triples = True
                continue  # {0, g, w} caps itself and every set that holds it
            ws.append(w)
        roots.append((g, ws, ([], None, 1 | 1 << g, None)))
    for g, ws, root in roots:
        for i in range(len(ws)):
            extend((0, g), i, g, root)
        if g == 1:
            found.append((ZnSet(n, 3), n - 1))  # {0, 1}, canonical, after its children
    return found


def verify_conjecture(
    n: int,
    k: int,
    max_card: int | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    use_kl_cap: bool = True,
) -> ConjectureReport:
    """Measure the largest gap-to-nearest-n/l over bases of order > n/k.

    Exhaustive mode (max_card None, small n) scans every basis orbit.
    Card-capped mode searches only orbits of cardinality <= max_card, which
    by the order/cardinality bound misses nothing when n is large; the report
    carries a completeness caveat rather than a guess about how large is
    large enough.  When use_kl_cap is set, the cap is additionally tightened
    to the exact bound for orders above n/k, which shrinks the search without
    changing its result.
    """
    _check_conjecture_args(n, k, max_card, limit)

    mode = "exhaustive" if max_card is None else "card_capped"
    kl_cap: int | None = None

    if k == 1:
        # Orders never exceed n, so there are no exceeders to enumerate.
        return ConjectureReport(
            n=n, k=k, mode=mode, max_card=max_card, kl_cap=None,
            completeness_caveat=False, exceeders=(),
            max_min_gap=core.Fraction(0), argmax_witness=None,
        )

    # bounds is imported here, once per modulus, so that a spectrum run,
    # which never calls this function, does not load it
    from .bounds import kl_bound, min_gap_to_fractions

    floor = n // k  # rho > n/k exactly when rho > floor
    cap = max_card
    if cap is not None and use_kl_cap and 1 <= floor <= n - 2:
        kl_cap = kl_bound(n, floor + 1).bound
        cap = min(cap, max(kl_cap, 2))

    exceeders = [
        Exceeder(rep, rho, *min_gap_to_fractions(rho, n, k))
        for rep, rho in _bases_above(n, floor, cap, limit)
    ]

    max_min_gap = core.Fraction(0)
    argmax = None
    for e in exceeders:
        if e.min_gap > max_min_gap:
            max_min_gap, argmax = e.min_gap, e.witness

    return ConjectureReport(
        n=n,
        k=k,
        mode=mode,
        max_card=max_card,
        kl_cap=kl_cap,
        completeness_caveat=mode == "card_capped",
        exceeders=tuple(exceeders),
        max_min_gap=max_min_gap,
        argmax_witness=argmax,
    )
