"""Basis enumeration up to affine equivalence, achieved-order spectra with
gap detection, and the empirical large-order gap measurement.

Enumeration and aggregation are deterministic: work can be partitioned into
any number of shards and merged; the merged report is identical regardless
of the shard count (partial results merge by set union / max, and all output
collections are sorted before emission).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .affine import canonical_form, is_canonical, zero_based_images
from .bounds import kl_bound, min_gap_to_fractions
from .core import (
    ZnSet, canonical_sort_key, divisors, format_fraction, is_basis, mask_less,
)
from .sumsets import order

DEFAULT_EXHAUSTIVE_LIMIT = 20
DEFAULT_CARD_CAP = 6


@dataclass(frozen=True)
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
    witnesses: tuple[tuple[int, ZnSet], ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "max_card": self.max_card,
            "achieved_orders": list(self.achieved_orders),
            "gaps": [[a, b] for a, b in self.gaps],
            "witnesses": [
                {"order": o, "witness": w.to_text()} for o, w in self.witnesses
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> SpectrumReport:
        return cls(
            n=d["n"],
            mode=d["mode"],
            max_card=d["max_card"],
            achieved_orders=tuple(d["achieved_orders"]),
            gaps=tuple((a, b) for a, b in d["gaps"]),
            witnesses=tuple(
                (w["order"], ZnSet.from_text(d["n"], w["witness"]))
                for w in d["witnesses"]
            ),
        )


@dataclass(frozen=True)
class Exceeder:
    """One basis orbit whose order exceeds n/k, with its gap to the nearest n/l."""

    witness: ZnSet
    order: int
    nearest_l: int
    min_gap: Fraction

    def to_dict(self) -> dict:
        return {
            "witness": self.witness.to_text(),
            "order": self.order,
            "nearest_l": self.nearest_l,
            "min_gap": format_fraction(self.min_gap),
        }


@dataclass(frozen=True)
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
    max_min_gap: Fraction
    argmax_witness: ZnSet | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "max_card": self.max_card,
            "kl_cap": self.kl_cap,
            "completeness_caveat": self.completeness_caveat,
            "exceeders": [e.to_dict() for e in self.exceeders],
            "max_min_gap": format_fraction(self.max_min_gap),
            "argmax_witness": None
            if self.argmax_witness is None
            else self.argmax_witness.to_text(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> ConjectureReport:
        n = d["n"]
        return cls(
            n=n,
            k=d["k"],
            mode=d["mode"],
            max_card=d["max_card"],
            kl_cap=d["kl_cap"],
            completeness_caveat=d["completeness_caveat"],
            exceeders=tuple(
                Exceeder(
                    witness=ZnSet.from_text(n, e["witness"]),
                    order=e["order"],
                    nearest_l=e["nearest_l"],
                    min_gap=Fraction(e["min_gap"]),
                )
                for e in d["exceeders"]
            ),
            max_min_gap=Fraction(d["max_min_gap"]),
            argmax_witness=None
            if d["argmax_witness"] is None
            else ZnSet.from_text(n, d["argmax_witness"]),
        )


def _shard_key(mask: int, n: int) -> int:
    """Partition key: the two smallest non-zero elements of the candidate."""
    rest = mask & (mask - 1)  # drop residue 0
    if not rest:
        return 0
    low = rest & -rest
    a2 = low.bit_length() - 1
    rest ^= low
    a3 = (rest & -rest).bit_length() - 1 if rest else 0
    return a2 * n + a3


def _capped_candidate_masks(n: int, max_card: int) -> Iterator[int]:
    """Membership masks of the candidate subsets containing 0 with at most
    max_card members: {0}, then by size, each size in combination order."""
    yield 1  # the singleton {0}
    for size in range(1, max_card):
        for combo in itertools.combinations(range(1, n), size):
            mask = 1
            for m in combo:
                mask |= 1 << m
            yield mask


# States of a 0-containing mask in the exhaustive walk, one byte per mask;
# a fresh byte is 0, unseen.
_NOT_CANONICAL, _PENDING = 1, 2


def _exhaustive_bases(n: int, shard: int, shards: int) -> Iterator[ZnSet]:
    """Orderly generation of the canonical basis representatives of one shard.

    Walks the masks containing 0 in ascending order.  The first mask of a
    basis orbit met in the walk generates the orbit's 0-containing images
    once: all are marked not canonical, and their canonical minimum is
    yielded at once if it is this mask, else marked pending and yielded when
    the walk reaches it.  The yield order is therefore ascending mask order,
    exactly as a canonicality test of every candidate would give.  Being a
    basis is an orbit invariant, so a non-basis mask is skipped unmarked.
    """
    state = bytearray(1 << (n - 1))  # indexed by mask >> 1
    for mask in range(1, 1 << n, 2):
        if shards > 1 and _shard_key(mask, n) % shards != shard:
            continue
        seen = state[mask >> 1]
        if seen == _PENDING:
            yield ZnSet(n, mask)
            continue
        if seen == _NOT_CANONICAL:
            continue
        a = ZnSet(n, mask)
        if not is_basis(a):
            continue
        best = mask
        for image in zero_based_images(a):
            state[image >> 1] = _NOT_CANONICAL
            if mask_less(image, best):
                best = image
        if best == mask:
            yield a
        else:
            state[best >> 1] = _PENDING


def enumerate_bases(
    n: int,
    max_card: int | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    shard: int = 0,
    shards: int = 1,
) -> Iterator[ZnSet]:
    """Yield exactly one representative (the canonical form) per affine orbit
    of bases of Z_n whose shard key falls in this shard.

    Exhaustive mode (max_card None) requires n <= limit.  It walks all
    2^(n-1) masks containing 0 with one byte of state per mask and generates
    each basis orbit once (see _exhaustive_bases); representatives come in
    ascending mask order.  Pass max_card to enumerate only orbits of
    cardinality <= max_card; that mode tests each candidate with
    is_canonical instead, since a state array of 2^(n-1) bytes cannot be
    held at the moduli it serves.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if max_card is None:
        if n > limit:
            raise ValueError(
                f"exhaustive enumeration is limited to n <= {limit}; "
                f"use a cardinality cap for n = {n}"
            )
    elif not 1 <= max_card <= n:
        raise ValueError(f"max_card must be in [1, {n}], got {max_card}")
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")
    if max_card is None:
        yield from _exhaustive_bases(n, shard, shards)
        return
    for mask in _capped_candidate_masks(n, max_card):
        if _shard_key(mask, n) % shards != shard:
            continue
        a = ZnSet(n, mask)
        if is_canonical(a) and is_basis(a):
            yield a


def _check_shards(shards: int) -> None:
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")


def _merge_order_witnesses(
    partials: list[dict[int, ZnSet]],
) -> dict[int, ZnSet]:
    merged: dict[int, ZnSet] = {}
    for partial in partials:
        for rho, witness in partial.items():
            cur = merged.get(rho)
            if cur is None or canonical_sort_key(witness) < canonical_sort_key(cur):
                merged[rho] = witness
    return merged


def _basis_order(a: ZnSet) -> int:
    """The order of an enumerated basis, which is finite by construction."""
    rho = order(a)
    if rho is None:
        raise RuntimeError(f"enumerated basis {a!r} has infinite order")
    return rho


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
    shards: int = 1,
) -> SpectrumReport:
    """Achieved-order spectrum of Z_n with gap runs and per-order witnesses."""
    _check_shards(shards)
    partials = []
    for shard in range(shards):
        part: dict[int, ZnSet] = {}
        for rep in enumerate_bases(n, max_card, limit, shard=shard, shards=shards):
            rho = _basis_order(rep)
            cur = part.get(rho)
            if cur is None or canonical_sort_key(rep) < canonical_sort_key(cur):
                part[rho] = rep
        partials.append(part)
    merged = _merge_order_witnesses(partials)
    achieved = tuple(sorted(merged))
    return SpectrumReport(
        n=n,
        mode="exhaustive" if max_card is None else "card_capped",
        max_card=max_card,
        achieved_orders=achieved,
        gaps=_gap_runs(set(achieved), n),
        witnesses=tuple((rho, merged[rho]) for rho in achieved),
    )


# -- threshold-exceeder search (cardinality-capped conjecture runs) -----------
#
# Adding an element to a set never increases its order (the h-fold sumsets
# only grow), so a subset whose order is finite and <= n/k cannot extend to
# a basis of order > n/k: its whole supertree is pruned.  Subsets of order
# infinity must still be expanded.
#
# Affine reduction roots the search at one pair per divisor: every pair
# {x, y} maps to {0, g} with g = gcd(y - x, n) under an affine map, so every
# orbit of every candidate set has a representative containing {0, g} for
# some divisor g < n.  The third element ranges over all residues; later
# elements are added in increasing order.  A set may be reachable from more
# than one root; exceeders are deduplicated by canonical form.


def _exceeder_tasks(n: int) -> list[tuple[int, int | None]]:
    tasks: list[tuple[int, int | None]] = []
    for g in divisors(n):
        if g == n:
            continue
        tasks.append((g, None))
        for y in range(1, n):
            if y == g:
                continue
            if y < g and n % y == 0:
                continue  # that orbit is also rooted at the smaller divisor
            tasks.append((g, y))
    return tasks


def _search_exceeders(
    n: int, k: int, cap: int, tasks: list[tuple[int, int | None]]
) -> dict[int, int]:
    """Run the pruned search over the given root tasks.

    Returns {canonical mask: order} for every found basis orbit with
    order * k > n and cardinality <= cap.
    """
    found: dict[int, int] = {}

    def record(a: ZnSet, rho: int) -> None:
        found[canonical_form(a).mask] = rho

    def visit(a: ZnSet, last_added: int) -> None:
        rho = order(a)
        if rho is not None:
            if rho * k > n:
                record(a, rho)
            else:
                return  # no superset can climb back above n/k
        if len(a) >= cap:
            return
        for z in range(last_added + 1, n):
            if z not in a:
                visit(a.insert(z), z)

    for g, y in tasks:
        pair = ZnSet.from_members(n, {0, g})
        if y is None:
            rho = order(pair)
            if rho is not None and rho * k > n:
                record(pair, rho)
        elif cap >= 3:
            visit(pair.insert(y), y)
    return found


def verify_conjecture(
    n: int,
    k: int,
    max_card: int | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    shards: int = 1,
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
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_shards(shards)

    mode = "exhaustive" if max_card is None else "card_capped"
    kl_cap: int | None = None

    if k == 1:
        # Orders never exceed n, so there are no exceeders to enumerate.
        return ConjectureReport(
            n=n, k=k, mode=mode, max_card=max_card, kl_cap=None,
            completeness_caveat=False, exceeders=(),
            max_min_gap=Fraction(0), argmax_witness=None,
        )

    found: dict[int, int] = {}
    if n == 1:
        found[1] = 1  # {0} is a basis of order 1 > 1/k
    elif max_card is None:
        for shard in range(shards):
            for rep in enumerate_bases(n, None, limit, shard=shard, shards=shards):
                rho = _basis_order(rep)
                if rho * k > n:
                    found[rep.mask] = rho
    else:
        if not 1 <= max_card <= n:
            raise ValueError(f"max_card must be in [1, {n}], got {max_card}")
        cap = max_card
        threshold = n // k + 1
        if use_kl_cap and 2 <= threshold <= n - 1:
            kl_cap = kl_bound(n, threshold).bound
            cap = min(cap, max(kl_cap, 2))
        tasks = _exceeder_tasks(n)
        partials = [
            _search_exceeders(n, k, cap, tasks[shard::shards])
            for shard in range(shards)
        ]
        for part in partials:
            found.update(part)

    exceeders = []
    for mask in sorted(found, key=lambda m: canonical_sort_key(ZnSet(n, m))):
        rho = found[mask]
        nearest_l, min_gap = min_gap_to_fractions(rho, n, k)
        exceeders.append(
            Exceeder(
                witness=ZnSet(n, mask), order=rho,
                nearest_l=nearest_l, min_gap=min_gap,
            )
        )

    max_min_gap = Fraction(0)
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
