"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them as they complete).

Every tolerance is exact (integer or rational equality / inequality); there
are no floating-point comparisons anywhere.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from click.testing import CliRunner

import znbases as z
from znbases.cli import main as cli_main
from znbases.core import ZnSet

from oracles import affine_image, naive_order, naive_spectrum, sandwich_lower_bound


def report(criterion, passed, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_oracle_equivalence():
    """order() equals the definition-chasing oracle on every nonempty subset,
    n <= 12, within 60 s."""
    t0 = time.monotonic()
    mismatches = 0
    cases = 0
    for n in range(1, 13):
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            cases += 1
            if z.order(a) != naive_order(n, a.members):
                mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (oracle equivalence, n<=12)",
        mismatches == 0 and elapsed < 60,
        f"{cases} subsets, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_equality_case():
    """order = n-1 exactly for 2-element sets with coprime difference,
    exhaustively for 2 <= n <= 16."""
    t0 = time.monotonic()
    exceptions = 0
    for n in range(2, 17):
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            rho = z.order(a)
            members = a.members
            is_coprime_pair = (
                len(members) == 2 and math.gcd(members[1] - members[0], n) == 1
            )
            if (rho == n - 1) != is_coprime_pair:
                exceptions += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 2 (order n-1 iff coprime pair, n<=16)",
        exceptions == 0,
        f"{exceptions} exceptions, {elapsed:.1f}s",
    )


def test_criterion_3_spectrum_gap_of_z7():
    t0 = time.monotonic()
    rep = z.spectrum(7)
    elapsed = time.monotonic() - t0
    ok = (
        rep.achieved_orders == (1, 2, 3, 6)
        and rep.gaps == ((4, 5),)
        and naive_spectrum(7) == {1, 2, 3, 6}
        and elapsed < 1.0
    )
    report(
        "criterion 3 (spectrum of Z_7 = {1,2,3,6}, gap [4,5])",
        ok,
        f"orders {rep.achieved_orders}, gaps {rep.gaps}, {elapsed:.2f}s",
    )


def test_criterion_4_cardinality_bound():
    """|A| <= kl_bound(n, rho).bound for every basis of Z_n, n <= 16, and
    every rho in [2, order(A)]."""
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for n in range(2, 17):
        running_min = {}
        cur = None
        for rho in range(2, n):
            b = z.kl_bound(n, rho).bound
            cur = b if cur is None else min(cur, b)
            running_min[rho] = cur
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            rho = z.order(a)
            if rho is None or rho < 2:
                continue
            checked += 1
            if len(a) > running_min[min(rho, n - 1)]:
                violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 4 (cardinality bound, n<=16, all bases, all rho)",
        violations == 0 and elapsed < 300,
        f"{checked} bases, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_integer_growth_bound():
    """|hA| >= |A| + (h-1)*l for every normalized integer set with span <= 12
    meeting the hypothesis, h <= 5."""
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for span in range(1, 13):
        for inner in itertools.chain.from_iterable(
            itertools.combinations(range(1, span), r) for r in range(span)
        ):
            members = (0, *inner, span)
            if math.gcd(*members) != 1:
                continue
            if 2 * len(members) - 3 < span:
                continue
            repfl = z.fl_growth_check(members, 5)
            checked += 1
            if not repfl.all_hold:
                violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 5 (integer sumset growth, span<=12, h<=5)",
        violations == 0 and elapsed < 120,
        f"{checked} sets, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_6_affine_invariance():
    """order(u*A + v) == order(A) for 200 random triples per n in 6..30,
    including non-bases (infinite order)."""
    t0 = time.monotonic()
    rng = random.Random(20260810)
    violations = 0
    infinite_seen = 0
    for n in range(6, 31):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for _ in range(200):
            a = ZnSet(n, rng.randrange(1, 1 << n))
            image = affine_image(n, a.members, rng.choice(units), rng.randrange(n))
            ra, rb = z.order(a), z.order(ZnSet.from_members(n, image))
            if ra is None:
                infinite_seen += 1
            if ra != rb:
                violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 6 (affine invariance of order)",
        violations == 0 and infinite_seen > 0,
        f"5000 triples, {violations} violations, "
        f"{infinite_seen} infinite cases, {elapsed:.1f}s",
    )


def test_criterion_7_sandwich_bounds():
    """Two-sided order bound for {0,a,b}, a | n, gcd(a,b) = 1, over every
    valid triple, n <= 100.

    Asserted on every triple:
    - upper: order <= (n/a - 1) + (a - 1).  b is a unit mod a, so j*b for
      j < a meets every class mod a, and i*a for i < n/a then covers each
      coset of <a>: every element is i*a + j*b with i + j <= n/a + a - 2.
    - lower: order >= L(n, a) from `oracles.sandwich_lower_bound`, which
      counts the representations that can land in the coset
      <a> + (a-1)*b (proof in its docstring).  L >= a - 1, the projection
      onto Z_a.
    - exact, for b = 1: order == n/a + a - 2.  Reaching n - 1 = i*a + j
      needs j = a - 1 + t*a and (i + t + 1)*a = 0 (mod n), so i + t >=
      n/a - 1 and i + j >= n/a + a - 2, which is the upper bound.

    Reported, not asserted: the classical lower bound max(n/a - 1, a - 1)
    (`SandwichBounds.lower`).  Its n/a - 1 side is false: wraparound
    representations undercut it, e.g. order 7 < 9 for {0,2,19} in Z_20.
    """
    t0 = time.monotonic()
    claim_viol = upper_viol = proven_viol = proven_tight = 0
    exact_viol = exact_total = total = 0
    first = None
    for n in range(4, 101):
        for a in z.divisors(n):
            if not 2 <= a <= n - 1:
                continue
            proven = sandwich_lower_bound(n, a)
            for b in range(1, n):
                if b == a or math.gcd(a, b) != 1:
                    continue
                r = z.sandwich_bounds(n, a, b)
                total += 1
                upper_viol += r.actual > r.upper
                proven_viol += r.actual < proven
                proven_tight += r.actual == proven
                if b == 1:
                    exact_total += 1
                    exact_viol += r.actual != n // a + a - 2
                if r.actual < r.lower:
                    claim_viol += 1
                    if first is None:
                        first = (n, a, b, r.lower, r.actual)
    elapsed = time.monotonic() - t0
    detail = (
        f"{total} triples, upper-bound violations {upper_viol}, "
        f"proven lower-bound violations {proven_viol} "
        f"(tight on {proven_tight}), "
        f"b=1 exact-order mismatches {exact_viol} of {exact_total}"
    )
    if first:
        detail += (
            f"; classical-claim counterexamples {claim_viol} "
            f"(first: n={first[0]}, a={first[1]}, b={first[2]}: "
            f"order {first[4]} < claimed {first[3]})"
        )
    report(
        "criterion 7a (two-sided {0,a,b} bound, n<=100)",
        upper_viol == 0 and proven_viol == 0 and exact_viol == 0,
        f"{detail}, {elapsed:.1f}s",
    )


def test_criterion_7_witness_order_bound():
    """order({0,1,t}) <= s + c*n/s for all n <= 100, k <= 5, t in [2, n-1]."""
    t0 = time.monotonic()
    violations = 0
    total = 0
    memo = {}
    for n in range(3, 101):
        for t in range(2, n):
            if (n, t) not in memo:
                memo[(n, t)] = z.order(ZnSet.from_members(n, {0, 1, t}))
            actual = memo[(n, t)]
            for k in range(2, 6):
                w = z.pigeonhole_witness(n, k, t)
                total += 1
                if w.s == 0:
                    continue
                if actual > w.s + Fraction(w.c * n, w.s):
                    violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 7b (order bound via pigeonhole witness)",
        violations == 0 and elapsed < 300,
        f"{total} cases, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_7_pigeonhole_witness():
    """s <= n/k (exact) for all n <= 1000, k <= 8, t < n."""
    t0 = time.monotonic()
    violations = 0
    total = 0
    for n in range(2, 1001):
        for k in range(2, 9):
            for t in range(1, n):
                w = z.pigeonhole_witness(n, k, t)
                total += 1
                if w.s * k > n:
                    violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 7c (pigeonhole witness s <= n/k, n<=1000)",
        violations == 0 and elapsed < 300,
        f"{total} witnesses, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_8_projection_lower_bound():
    """order(pi(A)) <= order(A) for every basis and divisor: exhaustive
    n <= 16, then 1000 random cases for n in 17..40.  The companion upper
    candidate is measured and logged only."""
    t0 = time.monotonic()
    violations = 0
    upper_failures = 0
    checked = 0
    for n in range(2, 17):
        divs = z.divisors(n)
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            rho = z.order(a)
            if rho is None:
                continue
            for q in divs:
                lo = z.order(z.project(a, q))
                checked += 1
                if lo is None or lo > rho:
                    violations += 1
                if lo is not None and rho > lo + n // q:
                    upper_failures += 1
    rng = random.Random(8)
    sampled = 0
    while sampled < 1000:
        n = rng.randrange(17, 41)
        a = ZnSet(n, rng.randrange(1, 1 << n) | 1)
        rho = z.order(a)
        if rho is None:
            continue
        q = rng.choice(z.divisors(n))
        lo = z.order(z.project(a, q))
        if lo is None or lo > rho:
            violations += 1
        if lo is not None and rho > lo + n // q:
            upper_failures += 1
        sampled += 1
    elapsed = time.monotonic() - t0
    # The upper candidate fails out of context (e.g. {0,1} in Z_9, q=3).
    a = ZnSet.from_text(9, "0,1")
    lower, actual = z.order(z.project(a, 3)), z.order(a)
    upper_candidate = lower + 9 // 3
    assert (lower, actual, upper_candidate) == (2, 8, 5) and actual > upper_candidate
    report(
        "criterion 8 (projection lower bound)",
        violations == 0,
        f"{checked} exhaustive + 1000 random checks, {violations} violations; "
        f"upper candidate measured only ({upper_failures} failures logged), "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_df_analyzer_soundness():
    """On 500 planted coset-union inputs A = H + D (D an AP of length l0 <= 4
    in the quotient, n <= 200) with measured small doubling, the best report
    must satisfy the excess inequality and recover m = |H| with l <= l0."""
    t0 = time.monotonic()
    rng = random.Random(90)
    violations = 0
    built = 0
    while built < 500:
        n = rng.randrange(20, 201)
        ms = [m for m in z.divisors(n) if 2 <= m < n and n // m >= 11]
        if not ms:
            continue
        m = rng.choice(ms)
        q = n // m
        l0 = rng.choice([2, 3, 4])
        if q < 2 * l0 + 2:
            continue
        delta = rng.choice([d for d in range(1, q) if math.gcd(d, q) == 1])
        start = rng.randrange(q)
        members = {
            (start + i * delta) % q + j * q for i in range(l0) for j in range(m)
        }
        a = ZnSet.from_members(n, members)
        analysis = z.df_analyze(a)
        if not analysis.doubling_hypothesis_ok:
            continue
        built += 1
        best = analysis.best
        if (
            best is None
            or not best.inequality_holds
            or best.m != m
            or best.ap_len > l0
        ):
            violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 9 (structure analyzer recovers planted cosets)",
        violations == 0 and elapsed < 120,
        f"500 inputs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_10_conjecture_stability():
    """k=2: exhaustive n <= 16, every exceeder within 2 of n or n/2.
    k=3: n in [20,120] card-capped at 6; the running max of the measured
    gap does not increase after n = 60; caveat flag always set."""
    t0 = time.monotonic()
    k2_violations = 0
    for n in range(2, 17):
        rep = z.verify_conjecture(n, 2)
        assert not rep.completeness_caveat
        for e in rep.exceeders:
            gap = min(abs(e.order - Fraction(n)), abs(e.order - Fraction(n, 2)))
            if gap > 2:
                k2_violations += 1
    running = Fraction(0)
    max_at_60 = None
    caveats_ok = True
    for n in range(20, 121):
        rep = z.verify_conjecture(n, 3, max_card=6)
        caveats_ok = caveats_ok and rep.completeness_caveat
        running = max(running, rep.max_min_gap)
        if n == 60:
            max_at_60 = running
    stable = max_at_60 == running
    elapsed = time.monotonic() - t0
    report(
        "criterion 10 (gap conjecture: k=2 exhaustive, k=3 sweep stability)",
        k2_violations == 0 and stable and caveats_ok,
        f"k=2 violations {k2_violations}; k=3 running max {running} "
        f"(at n=60: {max_at_60}), caveat flags {'ok' if caveats_ok else 'MISSING'}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_family_measurement():
    """{0,1,k} family for k in {3,4,5}, n in (5k, 500]: the measured gap is
    eventually constant, matches the order oracle, and the report flags
    which closed form it equals."""
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (3, 4, 5):
        records = z.lower_bound_family(k, (5 * k + 1, 500))
        tail = [r for r in records if r.n >= 150]
        tail_values = {r.min_gap for r in tail}
        constant = len(tail_values) == 1
        value = tail_values.pop() if constant else None
        flags_consistent = all(
            r.matches_k_minus_3_form and not r.matches_k_minus_2_form for r in tail
        )
        oracle_ok = all(
            r.rho == naive_order(r.n, {0, 1, k})
            for r in records
            if r.n <= 120 or r.n >= 480
        )
        ok = ok and constant and flags_consistent and oracle_ok
        details.append(
            f"k={k}: tail gap {value} "
            f"[(k-3)+1/k = {Fraction(k - 3) + Fraction(1, k)}, "
            f"(k-2)+1/k never matched]"
        )
    elapsed = time.monotonic() - t0
    report(
        "criterion 11 (lower-bound family measurement)",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_12_shard_determinism():
    """spectrum and conjecture produce byte-identical output with 1 and 8
    shards, in every format."""
    t0 = time.monotonic()
    runner = CliRunner()
    identical = True
    for fmt in ("table", "json", "csv"):
        for args in (
            ["spectrum", "--n", "13"],
            ["spectrum", "--n", "14", "--max-card", "5"],
            ["conjecture", "--k", "3", "--n", "60", "--max-card", "6"],
            ["conjecture", "--k", "2", "--n", "14"],
        ):
            one = runner.invoke(
                cli_main, args + ["--shards", "1", "--format", fmt],
                catch_exceptions=False,
            )
            eight = runner.invoke(
                cli_main, args + ["--shards", "8", "--format", fmt],
                catch_exceptions=False,
            )
            assert one.exit_code == 0 and eight.exit_code == 0
            if one.stdout_bytes != eight.stdout_bytes:
                identical = False
    elapsed = time.monotonic() - t0
    report(
        "criterion 12 (shard-count determinism)",
        identical,
        f"byte-identical across 1 vs 8 shards, 3 formats, {elapsed:.1f}s",
    )
