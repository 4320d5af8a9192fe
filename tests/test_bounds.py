import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from znbases import (
    fl_growth_check,
    kl_bound,
    lower_bound_family,
    pigeonhole_witness,
    rep_decompose,
    sandwich_bounds,
    witness_order_bound,
)
from znbases.bounds import int_sumset_sizes, min_gap_to_fractions

from oracles import bfs_triple_order, naive_min_gap, naive_order


def test_kl_bound_spec_examples():
    b = kl_bound(12, 5)
    assert b.terms == ((6, 4), (12, 3)) and b.bound == 4
    assert kl_bound(10, 9).terms == ((10, 2),) and kl_bound(10, 9).bound == 2
    assert kl_bound(7, 3).terms == ((7, 3),) and kl_bound(7, 3).bound == 3


def test_kl_bound_rejects_out_of_range_rho():
    with pytest.raises(ValueError):
        kl_bound(10, 1)
    with pytest.raises(ValueError):
        kl_bound(10, 10)


def test_fl_growth_spec_examples():
    r = fl_growth_check((0, 1, 2), 3)
    assert r.records[2].size == 7 and r.records[2].lower_bound == 7
    assert r.all_hold
    r2 = fl_growth_check((0, 1, 3), 2)
    assert r2.records[1].size == 6 and r2.records[1].holds
    r3 = fl_growth_check((0, 2, 3, 7), 4)
    assert not r3.hypothesis_ok


def test_fl_growth_rejects_unnormalized():
    with pytest.raises(ValueError, match="0 must be a member"):
        fl_growth_check((1, 2), 2)
    with pytest.raises(ValueError, match="gcd"):
        fl_growth_check((0, 2, 4), 2)


def test_fl_growth_normalization_errors():
    # members are sorted and deduplicated; each violated condition is named
    r = fl_growth_check([3, 1, 0, 1], 1)
    assert r.members == (0, 1, 3) and r.span == 3
    for members, message in (((), "the set must be nonempty"),
                             ((1, -2, 0), "members must be nonnegative, got -2"),
                             ((0,), "at least two members required")):
        with pytest.raises(ValueError, match=re.escape(message)):
            fl_growth_check(members, 2)


def test_int_sumset_sizes_matches_direct_enumeration():
    members = (0, 1, 3, 7)
    direct = {0, 1, 3, 7}
    sizes = int_sumset_sizes(members, 4)
    level = set(members)
    assert sizes[0] == len(direct)
    for h in range(2, 5):
        level = {x + y for x in level for y in members}
        assert sizes[h - 1] == len(level)


def test_sandwich_spec_examples():
    r = sandwich_bounds(9, 3, 1)
    assert (r.lower, r.upper, r.actual, r.holds) == (2, 4, 4, True)
    r = sandwich_bounds(20, 4, 1)
    assert (r.lower, r.upper, r.actual, r.holds) == (4, 7, 7, True)
    r = sandwich_bounds(6, 3, 2)
    assert r.lower <= r.actual <= r.upper


def test_sandwich_lower_bound_counterexample():
    # The claimed lower bound n/a - 1 fails once wraparound representations
    # of b kick in; the upper bound still holds.
    r = sandwich_bounds(20, 2, 19)
    assert r.actual == 7 and r.lower == 9
    assert not r.holds
    assert r.actual <= r.upper


def test_sandwich_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sandwich_bounds(9, 2, 1)  # 2 does not divide 9
    with pytest.raises(ValueError):
        sandwich_bounds(9, 3, 3)  # b = a
    with pytest.raises(ValueError):
        sandwich_bounds(9, 3, 6)  # gcd(a, b) != 1


def test_sandwich_upper_bound_sweep():
    for n in range(4, 61):
        for a in range(2, n):
            if n % a:
                continue
            for b in range(1, n):
                if b == a or math.gcd(a, b) != 1:
                    continue
                r = sandwich_bounds(n, a, b)
                assert r.actual <= r.upper, (n, a, b)


def test_pigeonhole_spec_examples():
    w = pigeonhole_witness(100, 4, 26)
    assert (w.c, w.r, w.s) == (3, -22, 22)
    w = pigeonhole_witness(100, 4, 34)
    assert (w.c, w.r, w.s) == (3, 2, 2)
    w = pigeonhole_witness(10, 2, 3)
    assert (w.c, w.r, w.s) == (1, 3, 3)


@settings(max_examples=300)
@given(st.integers(2, 2000), st.integers(2, 12), st.data())
def test_pigeonhole_witness_always_qualifies(n, k, data):
    t = data.draw(st.integers(1, n - 1))
    w = pigeonhole_witness(n, k, t)
    assert 1 <= w.c <= k - 1
    assert w.s * k <= n
    assert (w.r - w.c * t) % n == 0


def test_witness_order_bound_spec_examples():
    b = witness_order_bound(pigeonhole_witness(100, 4, 34))
    assert b.bound == 152 and b.actual <= 99 and b.holds
    b = witness_order_bound(pigeonhole_witness(100, 4, 26))
    assert b.bound == 22 + Fraction(300, 22)
    assert b.holds


def test_witness_order_bound_s_zero_is_vacuous():
    w = pigeonhole_witness(10, 6, 5)
    assert w.s == 0
    b = witness_order_bound(w)
    assert b.bound is None and b.holds


def test_rep_decompose_spec_examples():
    r = rep_decompose(100, 4, 34, 3)
    assert (r.d, r.e, r.applicable) == (1, 2, True)
    r = rep_decompose(100, 4, 26, 3)
    assert not r.applicable
    r = rep_decompose(100, 4, 3, 1)
    assert (r.d, r.e, r.applicable) == (0, 3, True)
    with pytest.raises(ValueError, match="c must be >= 1, got 0"):
        rep_decompose(100, 4, 3, 0)


@settings(max_examples=300)
@given(st.integers(2, 1000), st.integers(2, 9), st.data())
def test_rep_decompose_reconstruction(n, k, data):
    # the witness c, and any c in [1, 3k), where gcd(d, c) > 1 is common:
    # the reduction by it always keeps e integral
    t = data.draw(st.integers(1, n - 1))
    for c in (pigeonhole_witness(n, k, t).c, data.draw(st.integers(1, 3 * k - 1))):
        r = rep_decompose(n, k, t, c)
        if r.applicable:
            assert (r.d * n + r.e) % r.c == 0
            assert (r.d * n + r.e) // r.c == t
            assert not r.reducible
            assert math.gcd(r.d, r.c) == 1
            assert 0 <= r.d <= r.c


def test_family_spec_examples():
    rec = lower_bound_family(3, (20, 20))[0]
    assert (rec.rho, rec.nearest_l, rec.min_gap) == (7, 3, Fraction(1, 3))
    rec = lower_bound_family(4, (99, 99))[0]
    assert (rec.rho, rec.nearest_l, rec.min_gap) == (26, 4, Fraction(5, 4))
    rec = lower_bound_family(2, (9, 9))[0]
    assert (rec.rho, rec.min_gap) == (4, Fraction(1, 2))
    assert rec.matches_k_minus_2_form


def test_family_skips_non_family_moduli():
    recs = lower_bound_family(4, (21, 30))
    assert [r.n for r in recs] == [23, 27]
    # lo from 1, below k + 1, through a full residue cycle; hi < lo, = lo, > lo
    for k in range(2, 7):
        for lo in range(1, 2 * k + 2):
            for hi in (lo - 1, lo, lo + 3 * k):
                expected = [n for n in range(max(lo, k + 1), hi + 1) if n % k == k - 1]
                got = [r.n for r in lower_bound_family(k, (lo, hi))]
                assert got == expected, (k, lo, hi)


@pytest.mark.parametrize("lo", [0, -5])
def test_family_refuses_moduli_below_one(lo):
    with pytest.raises(ValueError, match=f"n must be positive, got {lo}"):
        lower_bound_family(3, (lo, 8))


def test_family_orders_match_the_oracles():
    # rho is the closed form of {0, 1, k}'s diagram, from the first family
    # modulus on: against breadth-first distances, and the plain-set levels
    # up to n = 60.
    for k in range(2, 8):
        recs = lower_bound_family(k, (k + 1, 400))
        assert recs[0].n == 2 * k - 1, k
        for rec in recs:
            assert rec.rho == bfs_triple_order(rec.n, 1, k), rec
            if rec.n <= 60:
                assert rec.rho == naive_order(rec.n, {0, 1, k}), rec


def test_min_gap_agrees_with_the_fraction_oracle():
    # integer cross-multiplication, smallest l on ties, one Fraction out
    for n in range(1, 81):
        for k in range(2, 9):
            for rho in range(1, n + 1):
                l, gap = min_gap_to_fractions(rho, n, k)
                assert isinstance(gap, Fraction)
                assert (l, gap) == naive_min_gap(rho, n, k), (rho, n, k)


def test_family_form_flags_agree_with_fraction_equality():
    seen = set()
    for k in range(2, 9):
        form_a = (k - 2) + Fraction(1, k)
        form_b = (k - 3) + Fraction(1, k)
        for rec in lower_bound_family(k, (1, 2000)):
            flags = (rec.matches_k_minus_2_form, rec.matches_k_minus_3_form)
            assert flags == (rec.min_gap == form_a, rec.min_gap == form_b), rec
            seen.add(flags)
    assert {(True, False), (False, True), (False, False)} <= seen
