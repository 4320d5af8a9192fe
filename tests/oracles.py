"""Independent definition-chasing oracles for cross-checking the engine.

These deliberately share no code with the package kernel: plain Python sets,
no bit masks, no 0-translation, no stabilization detection, no doubling.
rooted_canonical_bases returns ZnSet values, but its canonicality and basis
tests are the plain-set ones below.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from znbases.core import ZnSet


def naive_order(n: int, members) -> int | None:
    """Least h with hA = Z_n by recomputing each level from the definition.

    Scans h = 1..n and reports infinity (None) if the full group never
    appears; finite orders never exceed n - 1 for n >= 2, so the scan bound
    is generous.
    """
    members = set(members)
    if not members:
        raise ValueError("empty set")
    target = set(range(n))
    level = set(members)
    for h in range(1, n + 1):
        if level == target:
            return h
        level = {(x + y) % n for x in level for y in members}
    return None


def bfs_triple_order(n: int, a: int, b: int) -> int | None:
    """Order of the 3-element set {0, a, b} in Z_n as the largest
    breadth-first distance from 0 with steps a and b, or None when some
    residue is never reached.

    Every element of hA is i*a + j*b with i + j <= h, so the order is the
    largest of the shortest step counts, taken over all residues.
    """
    dist = [-1] * n
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in ((x + a) % n, (x + b) % n):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    if min(dist) < 0:
        return None
    return max(dist)


def small_exceeders(n: int, k: int) -> dict[tuple[int, ...], int]:
    """{canonical members: order} for every basis orbit of Z_n with 2 or 3
    members and order greater than n/k.

    Every 0-containing set of 2 or 3 members is tried, with naive_order.  Its
    canonical form is the image u*(S - x), over units u and members x, whose
    characteristic vector (membership first) read from residue 0 upward is
    least.
    """
    unit_list = [u for u in range(1, n) if math.gcd(u, n) == 1]
    found = {}
    for size in (2, 3):
        for rest in itertools.combinations(range(1, n), size - 1):
            s = (0,) + rest
            rho = naive_order(n, s)
            if rho is None or rho * k <= n:
                continue
            best = min(
                tuple(0 if r in image else 1 for r in range(n))
                for u in unit_list
                for x in s
                for image in [{u * (y - x) % n for y in s}]
            )
            found[tuple(r for r in range(n) if best[r] == 0)] = rho
    return found


def naive_images(n: int, members):
    """Every image u*A + v of A over the n*phi(n) maps with gcd(u, n) = 1,
    each as a sorted tuple of residues."""
    members = set(members)
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            scaled = [u * x % n for x in members]
            for v in range(n):
                yield tuple(sorted([(y + v) % n for y in scaled]))


def naive_orbit(n: int, members) -> set[tuple[int, ...]]:
    """The distinct affine images of A, each as a sorted tuple of residues."""
    return set(naive_images(n, members))


def affine_image(n: int, members, u: int, v: int) -> tuple[int, ...]:
    """u*A + v for one map (u a unit mod n), as a sorted tuple of residues."""
    return tuple(sorted({(u * x + v) % n for x in members}))


def naive_canonical_form(n: int, members) -> tuple[int, ...]:
    """The least affine image of the nonempty set A, as a sorted tuple.

    The canonical order puts first the set that holds the lowest residue on
    which two sets differ.  All images of A have |A| members, and between
    sets of one size that is the set whose sorted tuple is lexicographically
    smaller: up to the first index where the tuples differ they hold the
    same residues, and the smaller entry there is missing from the other.
    """
    return min(naive_images(n, members))


def naive_is_canonical(n: int, members) -> bool:
    """Whether A is the least of its affine images (see naive_canonical_form).

    A tuple whose first entry is 0 sorts before every tuple whose first
    entry is not.  So if A misses 0, its translate that moves the least
    member to 0 sorts before it; and if A holds 0, only the images that
    hold 0 can sort before it: the |A|*phi(n) images u*(A - x), x in A.
    tests/test_affine.py checks this against naive_canonical_form.
    """
    s = tuple(sorted(set(members)))
    if s[0] != 0:
        return False
    return all(
        tuple(sorted([u * (y - x) % n for y in s])) >= s
        for u in range(1, n + 1) if math.gcd(u, n) == 1
        for x in s
    )


def rooted_canonical_bases(n: int, max_card: int):
    """The canonical basis representatives of Z_n with at most max_card
    members, by a scan of candidates: {0}, then by size, {0, g} plus members
    above g for each proper divisor g of n, in combination order.  A
    candidate is kept when it is a basis (n = 1, or the gcd of n and its
    members is 1) and naive_is_canonical accepts it.

    No other set can be canonical: the least gcd(y - x, n) over the pairs of
    a set is a proper divisor g of n, and its canonical form is {0, g} plus
    members above g (see the comment above znbases.spectrum._canonical_bases).
    """
    proper = [g for g in range(1, n) if n % g == 0]
    candidates = itertools.chain([(0,)], (
        (0, g, *rest)
        for size in range(2, max_card + 1)
        for g in proper
        for rest in itertools.combinations(range(g + 1, n), size - 2)
    ))
    return [ZnSet.from_members(n, s) for s in candidates
            if (n == 1 or math.gcd(n, *s) == 1) and naive_is_canonical(n, s)]


def naive_min_gap(rho: int, n: int, k: int) -> tuple[int, Fraction]:
    """(l, |rho - n/l|) for the l in [1, k] whose n/l lies nearest rho, the
    smallest such l on ties, by plain Fraction arithmetic."""
    gaps = [abs(rho - Fraction(n, l)) for l in range(1, k + 1)]
    best = min(gaps)
    return gaps.index(best) + 1, best


def naive_h_fold(n: int, members, h: int) -> set[int]:
    """hA via h nested additions, no shortcuts."""
    members = set(members)
    level = set(members)
    for _ in range(h - 1):
        level = {(x + y) % n for x in level for y in members}
    return level


def naive_spectrum(n: int) -> set[int]:
    """Achieved finite orders over every nonempty subset of Z_n."""
    achieved = set()
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        rho = naive_order(n, members)
        if rho is not None:
            achieved.add(rho)
    return achieved


def all_subsets(n: int):
    """Every nonempty subset of Z_n as a sorted tuple."""
    for mask in range(1, 1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def brute_ap_cover(q: int, members, coprime_only: bool = False) -> tuple[int, int, int]:
    """Minimal covering progression by trying every (length, diff, start);
    with coprime_only, only differences coprime to q."""
    s = set(members)
    if not s:
        raise ValueError("empty set")
    if q == 1:
        return (0, 1, 1)
    for length in range(1, q + 1):
        for d in range(1, q):
            if coprime_only and math.gcd(d, q) != 1:
                continue
            for start in range(q):
                cells = {(start + i * d) % q for i in range(length)}
                if s <= cells:
                    return (start, d, length)
    raise AssertionError("unreachable: length q, difference 1 covers everything")


def naive_coset_stats(n: int, members) -> dict[int, tuple[int, int, Fraction, tuple[int, ...]]]:
    """Per proper-subgroup size m | n, m < n: (q = n/m, cosets met, largest
    occupied fraction of a coset, image mod q as a sorted tuple), from one
    Counter of the members mod q per divisor."""
    out = {}
    for m in range(1, n):
        if n % m:
            continue
        q = n // m
        counts = Counter(x % q for x in members)
        out[m] = (q, len(counts), Fraction(max(counts.values()), m), tuple(sorted(counts)))
    return out


def walk_ap_cover(q: int, members, coprime_only: bool = False) -> tuple[int, int, int]:
    """Minimal covering progression, (start, d, length), by walking for each
    difference d the stride-d cycle through the least member cell by cell.

    The members met on the walk sit at positions 0 <= i < q/gcd(d, q); the
    shortest covering arc leaves out the largest cyclic gap between them and
    starts where that gap ends.  Ties break by smallest length, then
    smallest d, then smallest start, as in brute_ap_cover.
    """
    s = set(members)
    if not s:
        raise ValueError("empty set")
    if q == 1:
        return (0, 1, 1)
    anchor = min(s)
    best = None  # (length, d, start)
    for d in range(1, q):
        g = math.gcd(d, q)
        if coprime_only and g != 1:
            continue
        if any((x - anchor) % g for x in s):
            continue  # the cycle through anchor is anchor's class mod g
        cycle = q // g
        positions = [i for i in range(cycle) if (anchor + i * d) % q in s]
        gaps = [positions[0] + cycle - positions[-1]]
        gaps += [b - a for a, b in zip(positions, positions[1:])]
        max_gap = max(gaps)
        start = min((anchor + p * d) % q for p, gap in zip(positions, gaps) if gap == max_gap)
        cand = (cycle - max_gap + 1, d, start)
        if best is None or cand < best:
            best = cand
    length, d, start = best
    return (start, d, length)


def sandwich_lower_bound(n: int, a: int) -> int:
    """Proven lower bound L(n, a) on the order of {0, a, b} in Z_n, for any b
    with gcd(a, b) = 1, where 2 <= a and a | n.

    L is the least h with  sum over j = a-1, 2a-1, ... <= h of (h - j + 1)
    at least n/a.

    Proof: every element of hA is i*a + j*b with i, j >= 0 and i + j <= h.
    Reducing mod a (a | n, so this is a homomorphism Z_n -> Z_a) leaves
    j*b, and b is a unit mod a, so the element lies in the coset
    C = <a> + (a-1)*b exactly when j = a-1 (mod a).  For each such j <= h
    there are h - j + 1 choices of i, so hA meets C in at most the sum above.
    C has n/a elements, and hA = Z_n needs all of them.

    For h < a - 1 the sum is empty, so L >= a - 1: the projection onto Z_a
    needs a - 1 copies of b to reach the class of (a-1)*b.
    """
    if a < 2 or n % a:
        raise ValueError(f"a must be a divisor of n with a >= 2, got n={n}, a={a}")
    h = 0
    while sum(h - j + 1 for j in range(a - 1, h + 1, a)) < n // a:
        h += 1
    return h


def burnside_basis_orbits(n: int) -> int:
    """Number of orbits of bases of Z_n under the maps x -> u*x + v with
    gcd(u, n) = 1, by Burnside's lemma.

    The count is the mean, over the n*phi(n) maps, of the number of bases
    each map fixes.  A set is fixed by a map exactly when it is a union of
    the map's cycles; the unions are enumerated cycle by cycle, and a union
    is a basis when the gcd of n and its differences from one member is 1.
    """
    maps = [(u, v) for u in range(1, n + 1) if math.gcd(u, n) == 1 for v in range(n)]
    fixed = sum(_fixed_bases(n, _cycles(n, u, v)) for u, v in maps)
    orbits, rest = divmod(fixed, len(maps))
    assert rest == 0, "Burnside's lemma gives a whole number"
    return orbits


def _cycles(n: int, u: int, v: int) -> list[list[int]]:
    """The cycles of x -> u*x + v on range(n)."""
    seen: set[int] = set()
    cycles = []
    for x in range(n):
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = (u * x + v) % n
        if cycle:
            cycles.append(cycle)
    return cycles


def _fixed_bases(n: int, cycles: list[list[int]]) -> int:
    """How many unions of the given cycles are bases of Z_n."""

    def count(i: int, anchor: int | None, g: int) -> int:
        if anchor is not None and g == 1:
            return 2 ** (len(cycles) - i)  # every extension is a basis too
        if i == len(cycles):
            return 0
        a = cycles[i][0] if anchor is None else anchor
        h = g
        for x in cycles[i]:
            h = math.gcd(h, x - a)
        return count(i + 1, anchor, g) + count(i + 1, a, h)

    return count(0, None, n)
