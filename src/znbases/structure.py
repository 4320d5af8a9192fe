"""Structure analysis of sets with small doubling, and the end-to-end trace
of the large-order argument on concrete inputs.

Z_n has exactly one subgroup per divisor m of n (the multiples of n/m), so
the subgroup scan is a divisor scan.  The quotient by the size-m subgroup is
identified with Z_{n/m}, and the projection is reduction mod n/m.

Everything here measures; hypothesis failures are recorded as flags, never
raised.  The doubling threshold 2.04 is the default sigma; the density
threshold 10^-9 is fixed.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from operator import sub

from . import core
from .core import _LANE_FORMATS, _MEMBER_FLAGS, ZnSet, divisors, record
from .sumsets import add_sets, order

CASE_GENERIC = "generic"          # met cosets != 1 and != 3
CASE_THREE_COSETS = "three_cosets"
CASE_SINGLE_COSET = "single_coset"
BRANCH_UNAVAILABLE = "unavailable"

_NONZERO_DIGITS = b"0" + b"1" * 255  # translate table: a zero byte to "0", any other to "1"


def project(a: ZnSet, q: int) -> ZnSet:
    """Image of A under the projection Z_n -> Z_q, q | n (reduction mod q)."""
    n = a.modulus
    if q < 1 or n % q != 0:
        raise ValueError(f"q must divide the modulus {n}, got {q}")
    return ZnSet.from_members(q, {x % q for x in a})


def coset_profile(a: ZnSet, m: int) -> tuple[int, core.Fraction]:
    """(number of cosets of the size-m subgroup met by A, max occupied fraction)."""
    n = a.modulus
    if m < 1 or n % m != 0:
        raise ValueError(f"m must divide the modulus {n}, got {m}")
    if not a:
        raise ValueError("coset profile of an empty set")
    counts = Counter(x % (n // m) for x in a)
    return len(counts), core.Fraction(max(counts.values()), m)


def _coset_stats(a: ZnSet) -> list[tuple[int, ZnSet, memoryview]]:
    """(m, image in Z_q, count of members per class mod q) for every
    proper-subgroup size m | n, m < n, in increasing order of m.  The
    cosets met are the image's members, the coset sizes the counts.

    The counts mod q = n/m are packed into one integer, a lane of w bits per
    class (2^w > n, so no lane carries).  The counts mod q are the sum of the
    p slices of the counts mod q*p, so each q is folded from q*p, p the least
    prime factor of m, starting from the membership flags mod n.  The image
    holds the nonzero lanes: OR-ing each lane's bytes into its low byte
    leaves one byte per class to test.  (OR-ing the p slices of the image
    mod q*p would shift a (q*p)-bit mask p times, quadratic in a large p.)
    """
    n = a.modulus
    w, fmt = next(lane for lane in _LANE_FORMATS if 1 << lane[0] > n)
    width, order = w // 8, sys.byteorder
    spread = bytearray(n * width)  # little-endian: each lane's low byte first
    spread[::width] = format(a.mask, f"0{n}b")[::-1].encode().translate(_MEMBER_FLAGS)
    packed = int.from_bytes(spread, "little")
    divs = divisors(n)
    counts: dict[int, bytes] = {}  # m -> the packed counts in native byte order
    stats = []
    for m in divs[:-1]:
        q = n // m
        if m > 1:
            p = next(d for d in divs if d > 1 and m % d == 0)
            parent, size = counts[m // p], q * width
            packed = sum(int.from_bytes(parent[i:i + size], order)
                         for i in range(0, len(parent), size))
        counts[m] = packed.to_bytes(q * width, order)
        nonzero, shift = packed, 8
        while shift < w:
            nonzero |= nonzero >> shift
            shift <<= 1
        digits = nonzero.to_bytes(q * width, "little")[::width].translate(_NONZERO_DIGITS)
        stats.append((m, ZnSet(q, int(digits[::-1], 2)), memoryview(counts[m]).cast(fmt)))
    return stats


def ap_cover(s: ZnSet, coprime_only: bool = False) -> tuple[int, int, int]:
    """Minimal arithmetic progression {start + i*d : 0 <= i < l} in Z_q covering S.

    Minimal over every difference d in [1, q-1] (restricted to gcd(d, q) = 1
    when coprime_only); ties break by smallest l, then smallest d, then
    smallest start.  Returns (start, difference, length).

    With g = gcd(d, q), the stride-d cycle through the least member (the
    anchor) is the anchor's class mod g; the minimal covering arc on it
    leaves out the longest run of non-members.  A dense set (32|S| >= q)
    finds that run by O(log q) shifts of q-bit masks per d, a sparser one by
    one sort of |S| positions: anchor + o sits at (o/g) * (d/g)^-1 mod q/g.
    Only d <= q/2 is searched: a progression with difference q - d is one
    with difference d run backwards, so q - d > d never wins the tie on
    length.
    """
    if not s:
        raise ValueError("AP cover of an empty set")
    q = s.modulus
    if q == 1:
        return (0, 1, 1)
    mask, full = s.mask, (1 << q) - 1
    anchor = (mask & -mask).bit_length() - 1  # the least member
    offsets = [x - anchor for x in s.members]
    card = len(offsets)
    spread = math.gcd(q, *offsets)  # g must divide it for the cycle to hold S
    dense = 32 * card >= q

    def rot(x: int, k: int) -> int:  # bit c of the result is bit (c + k) % q of x
        k %= q
        return (x >> k | x << (q - k)) & full

    best: tuple[int, int, int] | None = None  # (l, d, start)
    for d in range(1, q // 2 + 1):
        if best is not None and best[0] <= card:
            break  # l = |S| cannot be beaten and a smaller d already achieved it
        g = math.gcd(d, q)
        if coprime_only and g != 1:
            continue
        if spread % g:
            continue  # an AP with difference d stays in one class mod g
        cycle = q // g
        if dense:
            # runs[j]: the cells that start 2^j non-members in a row along d
            runs = [(full // ((1 << g) - 1) << anchor % g) & ~mask]
            while runs[-1]:
                runs.append(runs[-1] & rot(runs[-1], d << len(runs) - 1))
            if best is not None and cycle - (1 << len(runs) - 1) + 1 >= best[0]:
                continue  # runs[-1] is empty, so every run is shorter than 2^(len(runs) - 1)
            starts, longest = full, 0
            for j in range(len(runs) - 2, -1, -1):
                longer = starts & rot(runs[j], longest * d)
                if longer:
                    starts, longest = longer, longest + (1 << j)
            length = cycle - longest
            if best is not None and length >= best[0]:
                continue  # d only grows, so a tie on length never wins
            # The members just past a longest run start the shortest arcs.
            ends = rot(starts, -longest * d) & mask
            best = (length, d, (ends & -ends).bit_length() - 1)
            continue
        inv = pow(d // g, -1, cycle)
        positions = [o // g * inv % cycle for o in offsets]
        positions.sort()
        # Minimal covering arc leaves out the largest cyclic gap; the arc
        # starts at a position that ends such a gap.
        wrap = positions[0] + cycle - positions[-1]
        max_gap = max(wrap, max(map(sub, positions[1:], positions), default=0))
        length = cycle - max_gap + 1
        if best is not None and length >= best[0]:
            continue  # d only grows, so a tie on length never wins
        ends = [p for prev, p in zip(positions, positions[1:]) if p - prev == max_gap]
        if wrap == max_gap:
            ends.append(positions[0])
        best = (length, d, min((anchor + p * d) % q for p in ends))
    if best is None:
        raise RuntimeError("no covering progression found (d = 1 always covers)")
    length, d, start = best
    return (start, d, length)


@record
class StructureReport:
    """Coset statistics of A relative to the size-m subgroup H of Z_n.

    inequality_holds records (l - 1)*m <= |2A| - |A|, with l replaced by
    min(l, 4) when exactly three cosets are met.
    """

    m: int
    q: int
    cosets_met: int
    max_coset_fraction: core.Fraction
    ap_start: int
    ap_diff: int
    ap_len: int
    case: str
    inequality_holds: bool


@record(with_modulus={"input_set": "set"})
class DfAnalysis:
    """Small-doubling structure scan of A over every proper subgroup of Z_n.

    The hypothesis flags record whether the doubling ratio is below sigma and
    the density below the configured threshold; the scan runs either way.
    best is the report with a true case-consistent inequality minimizing
    l*m (smallest m on ties), or None when no divisor qualifies.
    """

    input_set: ZnSet
    sigma: core.Fraction
    set_size: int
    double_size: int
    doubling_ratio: core.Fraction
    doubling_hypothesis_ok: bool
    density_hypothesis_ok: bool
    reports: tuple[StructureReport, ...]
    best: StructureReport | None


def _structure_report(
    stats: tuple[int, ZnSet, memoryview], excess: int, coprime_only: bool = False
) -> StructureReport:
    m, image, counts = stats
    s = len(image)
    start, diff, length = ap_cover(image, coprime_only=coprime_only)
    if s == 1:
        case = CASE_SINGLE_COSET
    elif s == 3:
        case = CASE_THREE_COSETS
    else:
        case = CASE_GENERIC
    effective_l = min(length, 4) if case == CASE_THREE_COSETS else length
    return StructureReport(
        m=m,
        q=image.modulus,
        cosets_met=s,
        max_coset_fraction=core.Fraction(max(counts), m),
        ap_start=start,
        ap_diff=diff,
        ap_len=length,
        case=case,
        inequality_holds=(effective_l - 1) * m <= excess,
    )


def _subgroup_cost(r: StructureReport) -> tuple[int, int]:
    """The order in which subgroups are chosen: least l*m, then least m."""
    return (r.ap_len * r.m, r.m)


def _cost_bound(stats: tuple[int, ZnSet, memoryview]) -> tuple[int, int]:
    """A lower bound on _subgroup_cost from the coset statistics alone:
    l >= s, as a progression of length l covers at most l classes."""
    m, image, _ = stats
    return (len(image) * m, m)


def _choose_subgroup(b: ZnSet, excess: int) -> tuple[StructureReport, ZnSet] | None:
    """The report df_analyze(b).best names, or the report of least
    _subgroup_cost when no inequality holds, with B's image in Z_q; None
    when n = 1.  excess is |2B| - |B|.

    Reports are built in increasing order of _cost_bound, and only while
    they can still win: once a report holds, none whose bound reaches its
    cost, and none that cannot hold.  A report can hold only if
    (s - 1)*m <= excess, since the effective l (min(l, 4) when s = 3) is at
    least s.  Costs never tie, as each divisor has its own m.
    """
    held = cheapest = None
    held_cost = cheapest_cost = (math.inf,)
    for stats in sorted(_coset_stats(b), key=_cost_bound):
        bound = _cost_bound(stats)
        if bound >= held_cost:
            break
        m, image, _ = stats
        if (len(image) - 1) * m > excess and (held is not None or bound >= cheapest_cost):
            continue
        report = _structure_report(stats, excess)
        cost = _subgroup_cost(report)
        if report.inequality_holds and cost < held_cost:
            held, held_cost = (report, image), cost
        if cost < cheapest_cost:
            cheapest, cheapest_cost = (report, image), cost
    return held or cheapest


def df_analyze(
    a: ZnSet,
    sigma: core.Fraction | None = None,
    coprime_only: bool = False,
) -> DfAnalysis:
    """Structure scan of A over every proper-subgroup size m | n, m < n,
    with the doubling threshold sigma (default 204/100)."""
    if not a:
        raise ValueError("structure analysis of an empty set")
    if sigma is None:
        sigma = core.Fraction(204, 100)
    if sigma <= 1:
        raise ValueError(f"sigma must exceed 1, got {sigma}")
    n = a.modulus
    double = add_sets(a, a)
    size, dsize = len(a), len(double)
    excess = dsize - size
    reports = tuple(_structure_report(stats, excess, coprime_only) for stats in _coset_stats(a))
    best = min((r for r in reports if r.inequality_holds), key=_subgroup_cost, default=None)
    return DfAnalysis(
        input_set=a,
        sigma=sigma,
        set_size=size,
        double_size=dsize,
        doubling_ratio=core.Fraction(dsize, size),
        doubling_hypothesis_ok=dsize < sigma * size,
        density_hypothesis_ok=size * 10**9 < n,  # |A|/n below 10^-9
        reports=reports,
        best=best,
    )


def _doublings(a: ZnSet, sigma: core.Fraction) -> tuple[int, ZnSet, list[int]]:
    """The first doubling step with ratio below sigma: (j, 2^j A, sizes) for
    the least j with |2^(j+1) A| < sigma * |2^j A|, where sizes are |A|,
    |2A|, |4A|, ... up to |2^(j+1) A|.

    With 0 in A the doublings stop growing once 2^j > n, and from there the
    ratio is 1, so a sigma above 1 always stops the loop within its bound.
    """
    cur = a
    sizes = [len(a)]
    for j in range(a.modulus.bit_length() + 2):
        nxt = add_sets(cur, cur)
        sizes.append(len(nxt))
        if sizes[-1] < sigma * sizes[-2]:
            return j, cur, sizes
        cur = nxt
    raise RuntimeError("no doubling step below sigma (0 in A and sigma > 1 always give one)")


def _multiple_gap(n: int, h: int, rho: int) -> tuple[core.Fraction | None, int | None]:
    """(min over multiples t of h in [h, n] of |rho - n/t|, the least t
    attaining it), or (None, None) when h > n.

    |rho - n/t| falls while t < n/rho and rises after, so the minimum sits at
    one of the two multiples of h on either side of n/rho.
    """
    top = n // h
    if top == 0:
        return None, None
    below = n // (rho * h)  # h*below <= n/rho < h*(below + 1)
    candidates = {min(max(below, 1), top) * h, min(below + 1, top) * h}
    return min((abs(rho - core.Fraction(n, t)), t) for t in candidates)  # ties: least t


@record(with_modulus={"input_set": "set"})
class PipelineTrace:
    """Every intermediate quantity of the large-order structure argument, run
    end to end on a concrete basis: doubling search, structure scan of the
    doubled set, coset counts, branch selection, and the evaluated slack of
    each inequality along the way.  Nothing is asserted; everything is
    measured exactly.
    """

    input_set: ZnSet
    k: int
    sigma: core.Fraction
    rho: int | None
    exceeds_n_over_k: bool
    doubling_sizes: tuple[int, ...]
    j: int
    h: int
    b: ZnSet
    m: int | None = None
    q: int | None = None
    s: int | None = None
    s_prime: int | None = None
    ap_len: int | None = None
    branch: str = BRANCH_UNAVAILABLE
    rho_q_proj_a: int | None = None
    rho_q_proj_b: int | None = None
    # measured inequality data, None where not evaluable
    subgroup_bound_slack: core.Fraction | None = None  # (3/2)|B| - m, from the 2/3-coset relation
    two_thirds_holds: bool | None = None
    proj_lower_slack: int | None = None      # rho_n(A) - rho_q(pi(A)) >= 0
    proj_upper_slack: int | None = None      # rho_q(pi(A)) + m - rho_n(A), may be negative
    h_scaling_value: int | None = None       # |rho_n(A) - h * rho_q(pi(B))|
    multiple_gap: core.Fraction | None = None  # min over multiples q' of h of |rho_q(pi(B)) - n/q'|
    multiple_gap_argmin: int | None = None
    ap_gap: core.Fraction | None = None      # |rho_q(pi(B)) - n/(l-1)|, needs l >= 2
    ap_reduction_ok: bool | None = None      # 2s - 3 >= l - 1


def pipeline_trace(
    a: ZnSet,
    k: int,
    sigma: core.Fraction | None = None,
) -> PipelineTrace:
    """Run the whole structure argument on a concrete basis and record it.

    Steps: translate 0 into the set, search for the first doubling step with
    ratio below sigma (default 204/100), form B = 2^j A, scan B's coset
    structure to choose the subgroup, project, and evaluate every inequality
    of the argument as exact slack values.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not a:
        raise ValueError("pipeline trace of an empty set")
    if sigma is None:
        sigma = core.Fraction(204, 100)
    if sigma <= 1:
        raise ValueError(f"sigma must exceed 1, got {sigma}")
    n = a.modulus
    base = a.rotate(-(a.mask & -a.mask).bit_length() + 1)
    rho = order(base)
    j, b, sizes = _doublings(base, sigma)
    h = 1 << j
    trace = PipelineTrace(
        input_set=base, k=k, sigma=sigma, rho=rho,
        exceeds_n_over_k=rho is not None and rho * k > n, doubling_sizes=tuple(sizes),
        j=j, h=h, b=b,
    )
    choice = _choose_subgroup(b, sizes[-1] - sizes[-2])
    if choice is None:
        return trace  # n = 1 has no proper subgroup: the doubling data only

    chosen, proj_b = choice
    m, q = chosen.m, chosen.q
    s = chosen.cosets_met
    proj_a = project(base, q)
    s_prime = len(proj_a)
    l = chosen.ap_len
    branch = CASE_THREE_COSETS if s == 3 else CASE_GENERIC

    rho_pa = order(proj_a)
    rho_pb = order(proj_b)

    subgroup_slack = core.Fraction(3, 2) * len(b) - m
    two_thirds = chosen.max_coset_fraction > core.Fraction(2, 3)

    proj_lower_slack = None if (rho is None or rho_pa is None) else rho - rho_pa
    proj_upper_slack = None if (rho is None or rho_pa is None) else rho_pa + m - rho
    h_scaling = None if (rho is None or rho_pb is None) else abs(rho - h * rho_pb)

    multiple_gap, multiple_argmin = (None, None) if rho_pb is None else _multiple_gap(n, h, rho_pb)

    ap_gap = None
    if rho_pb is not None and l >= 2:
        ap_gap = abs(rho_pb - core.Fraction(n, l - 1))

    return trace._replace(
        m=m,
        q=q,
        s=s,
        s_prime=s_prime,
        ap_len=l,
        branch=branch,
        rho_q_proj_a=rho_pa,
        rho_q_proj_b=rho_pb,
        subgroup_bound_slack=subgroup_slack,
        two_thirds_holds=two_thirds,
        proj_lower_slack=proj_lower_slack,
        proj_upper_slack=proj_upper_slack,
        h_scaling_value=h_scaling,
        multiple_gap=multiple_gap,
        multiple_gap_argmin=multiple_argmin,
        ap_gap=ap_gap,
        ap_reduction_ok=2 * s - 3 >= l - 1,
    )
