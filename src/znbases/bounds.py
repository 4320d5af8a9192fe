"""Closed-form bound evaluation and verification.

Covers the divisor-indexed cardinality bound for bases of given order, the
integer-sumset growth bound for normalized sets, the two-sided order bounds
for triples {0, a, b} with a | n, the pigeonhole machinery for triples
{0, 1, t}, and the lower-bound family {0, 1, k}.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import core
from .core import ZnSet, divisors, nlr, record
from .sumsets import _triple_order, order


@record
class KlTerm:
    d: int
    value: int


@record
class KlBoundBreakdown:
    """Per-divisor evaluation of the cardinality bound max over d | n, d >= rho+1
    of (n/d) * (floor((d-2)/(rho-1)) + 1)."""

    n: int
    rho: int
    terms: tuple[KlTerm, ...]
    bound: int


def kl_bound(n: int, rho: int) -> KlBoundBreakdown:
    """Upper bound on |A| for any basis A of Z_n with order at least rho.

    rho must lie in [2, n-1]; d = n always qualifies, so the bound is always
    defined.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 2 <= rho <= n - 1:
        raise ValueError(f"rho must be in [2, {n - 1}], got {rho}")
    terms = tuple(
        KlTerm(d, (n // d) * ((d - 2) // (rho - 1) + 1))
        for d in divisors(n)
        if d >= rho + 1
    )
    return KlBoundBreakdown(n=n, rho=rho, terms=terms, bound=max(v for _, v in terms))


@record
class FlGrowthRecord:
    h: int
    size: int
    lower_bound: int
    holds: bool


@record
class FlGrowthReport:
    """Integer-sumset growth |hA| >= |A| + (h-1)*span for normalized sets.

    When the hypothesis 2|A| - 3 >= span fails, the sizes are still recorded
    but nothing is asserted (hypothesis_ok = False).
    """

    members: tuple[int, ...]
    span: int
    hypothesis_ok: bool
    records: tuple[FlGrowthRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)


def int_sumset_sizes(members: tuple[int, ...], h_max: int) -> list[int]:
    """|hA| for h = 1..h_max, with A a set of nonnegative integers.

    Same bit-mask kernel as the cyclic case, on a growing interval instead of
    a ring.
    """
    base = 0
    for m in members:
        base |= 1 << m
    sizes = []
    cur = base
    for _ in range(h_max):
        sizes.append(cur.bit_count())
        nxt = 0
        for m in members:
            nxt |= cur << m
        cur = nxt
    return sizes


def fl_growth_check(members: Iterable[int], h_max: int) -> FlGrowthReport:
    """Check |hA| >= |A| + (h-1)*span for h = 1..h_max over integer sumsets.

    A is the set of the given integers.  The growth theorem expects it
    normalized: 0 in A, a positive span max(A), and gcd(A) = 1."""
    ms = tuple(sorted(set(members)))
    if not ms:
        raise ValueError("the set must be nonempty")
    if ms[0] < 0:
        raise ValueError(f"members must be nonnegative, got {ms[0]}")
    if ms[0] != 0:
        raise ValueError("set is not normalized: 0 must be a member")
    if len(ms) < 2:
        raise ValueError("set is not normalized: at least two members required "
                         "(span must be positive)")
    if math.gcd(*ms) != 1:
        raise ValueError("set is not normalized: gcd of members must be 1")
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    card = len(ms)
    span = ms[-1]
    hypothesis_ok = 2 * card - 3 >= span
    sizes = int_sumset_sizes(ms, h_max)
    records = tuple(
        FlGrowthRecord(
            h=h,
            size=sizes[h - 1],
            lower_bound=card + (h - 1) * span,
            holds=sizes[h - 1] >= card + (h - 1) * span,
        )
        for h in range(1, h_max + 1)
    )
    return FlGrowthReport(
        members=ms, span=span, hypothesis_ok=hypothesis_ok, records=records
    )


@record
class SandwichBounds:
    """The classical two-sided order bound for A = {0, a, b} with a >= 2,
    a | n, gcd(a, b) = 1, against the measured order.

    `upper` = (n/a - 1) + (a - 1) is a theorem.  `lower` = max(n/a - 1, a - 1)
    is the classical *claimed* bound: its a - 1 part is a theorem (project
    onto Z_a), but its n/a - 1 part fails, e.g. order 7 < 9 for {0, 2, 19}
    in Z_20.  `holds` reports whether lower <= actual <= upper.
    """

    n: int
    a: int
    b: int
    lower: int
    upper: int
    actual: int
    holds: bool


def sandwich_bounds(n: int, a: int, b: int) -> SandwichBounds:
    """Evaluate the classical two-sided bound for the triple {0, a, b} against
    its true order.  The claim is checked, not assumed: `holds` is False
    where its false n/a - 1 side is undercut (see `SandwichBounds`)."""
    if n < 4:  # the least n with a proper divisor in [2, n - 1]
        raise ValueError(f"n must be >= 4, got {n}")
    if not 2 <= a <= n - 1 or n % a != 0:
        raise ValueError(f"a must be a proper divisor of n in [2, {n - 1}], got {a}")
    if not 1 <= b <= n - 1 or b == a:
        raise ValueError(f"b must lie in [1, {n - 1}] and differ from a, got {b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd(a, b) must be 1, got gcd({a}, {b})")
    lower = max(n // a - 1, a - 1)
    upper = (n // a - 1) + (a - 1)
    actual = order(ZnSet.from_members(n, {0, a, b}))
    if actual is None:  # gcd(a, b) = 1 forces a basis
        raise RuntimeError(f"{{0,{a},{b}}} has infinite order in Z_{n}")
    return SandwichBounds(
        n=n, a=a, b=b, lower=lower, upper=upper, actual=actual,
        holds=lower <= actual <= upper,
    )


@record
class PigeonholeWitness:
    """Smallest c in [1, k-1] whose multiple of t has numerically least residue
    of magnitude s <= n/k; r is the signed residue, s = |r|."""

    n: int
    k: int
    t: int
    c: int
    r: int
    s: int


def pigeonhole_witness(n: int, k: int, t: int) -> PigeonholeWitness:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1 <= t < n:
        raise ValueError(f"t must lie in [1, {n - 1}], got {t}")
    for c in range(1, k):
        r = nlr(c * t, n)
        if abs(r) * k <= n:
            return PigeonholeWitness(n=n, k=k, t=t, c=c, r=r, s=abs(r))
    raise RuntimeError(
        f"pigeonhole witness scan failed for n={n}, k={k}, t={t}; "
        "this contradicts the pigeonhole principle and indicates a bug"
    )


@record
class WitnessOrderBound:
    """Order bound s + c*n/s for the triple {0, 1, t}, from a pigeonhole witness.

    s = 0 makes the bound infinite (bound is None) and the check vacuous.
    """

    witness: PigeonholeWitness
    bound: core.Fraction | None
    actual: int
    holds: bool


def witness_order_bound(witness: PigeonholeWitness) -> WitnessOrderBound:
    """Evaluate order({0,1,t}) <= s + c*n/s with exact rational comparison."""
    n, t = witness.n, witness.t
    actual = order(ZnSet.from_members(n, {0, 1 % n, t}))
    if actual is None:  # {0, 1, t} always generates
        raise RuntimeError(f"{{0,1,{t}}} has infinite order in Z_{n}")
    if witness.s == 0:
        return WitnessOrderBound(witness=witness, bound=None, actual=actual, holds=True)
    bound = witness.s + core.Fraction(witness.c * n, witness.s)
    return WitnessOrderBound(
        witness=witness, bound=bound, actual=actual, holds=actual <= bound
    )


@record
class RepDecomposition:
    """Representation t = (d*n + e)/c with e the numerically least residue of
    c*t; applicable only when |e| <= c*k.

    d, c and e are divided by g = gcd(d, c), which divides c*t - d*n = e, so
    d and c come out coprime and reducible is always false.
    """

    n: int
    k: int
    t: int
    c: int
    d: int
    e: int
    applicable: bool
    reducible: bool


def rep_decompose(n: int, k: int, t: int, c: int) -> RepDecomposition:
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    e = nlr(c * t, n)
    if abs(e) > c * k:
        return RepDecomposition(
            n=n, k=k, t=t, c=c, d=0, e=e, applicable=False, reducible=False
        )
    d = (c * t - e) // n
    g = math.gcd(d, c)
    return RepDecomposition(
        n=n, k=k, t=t, c=c // g, d=d // g, e=e // g, applicable=True, reducible=False
    )


@record
class FamilyRecord:
    """Measured order of {0, 1, k} in Z_n for one family modulus n = mk - 1."""

    k: int
    n: int
    rho: int
    nearest_l: int
    min_gap: core.Fraction
    matches_k_minus_2_form: bool
    matches_k_minus_3_form: bool


def min_gap_to_fractions(rho: int, n: int, k: int) -> tuple[int, core.Fraction]:
    """argmin l in [1, k] and min value of |rho - n/l|; smallest l on ties.

    The gaps |rho*l - n| / l are compared by integer cross-multiplication;
    only the least one becomes a Fraction.
    """
    best_l, best = 1, abs(rho - n)
    for l in range(2, k + 1):
        gap = abs(rho * l - n)
        if gap * best_l < best * l:
            best_l, best = l, gap
    return best_l, core.Fraction(best, best_l)


def lower_bound_family(k: int, n_range: tuple[int, int]) -> list[FamilyRecord]:
    """Measure the order of {0, 1, k} for every n in n_range with n = -1 mod k.

    Each record carries the measured minimal gap to the nearest n/l and marks
    which (if either) of the two candidate closed forms (k-2) + 1/k and
    (k-3) + 1/k it equals.  The two forms disagree; the measurement decides.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    lo, hi = n_range
    if lo < 1:
        raise ValueError(f"n must be positive, got {lo}")
    records = []
    # (k-2) + 1/k and (k-3) + 1/k over the denominator k; both numerators
    # are 1 mod k, so the forms are reduced and a gap equals one exactly
    # when its reduced denominator is k and the numerators agree.
    form_a = (k - 1) ** 2
    form_b = form_a - k
    first = max(lo, k + 1)
    for n in range(first + (k - 1 - first) % k, hi + 1, k):
        rho = _triple_order(n, 1, k)  # 0 < 1 < k < n: the diagram's closed form
        if rho is None:  # {0, 1, k} always generates
            raise RuntimeError(f"{{0,1,{k}}} has infinite order in Z_{n}")
        nearest_l, min_gap = min_gap_to_fractions(rho, n, k)
        num = min_gap.numerator if min_gap.denominator == k else None
        records.append(
            FamilyRecord(
                k=k,
                n=n,
                rho=rho,
                nearest_l=nearest_l,
                min_gap=min_gap,
                matches_k_minus_2_form=num == form_a,
                matches_k_minus_3_form=num == form_b,
            )
        )
    return records
