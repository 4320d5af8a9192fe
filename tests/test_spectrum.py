import importlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from znbases import enumerate_bases, order, spectrum, verify_conjecture
from znbases.bounds import kl_bound
from znbases.core import ZnSet, canonical_sort_key, divisors, is_basis
from znbases.spectrum import check_kl_bound

from oracles import (
    all_subsets, burnside_basis_orbits, naive_order, naive_spectrum,
    rooted_canonical_bases, small_exceeders,
)


def test_enumerate_bases_covers_all_basis_orbits():
    from znbases.affine import canonical_form

    for n in range(1, 9):
        expected = set()
        for members in all_subsets(n):
            a = ZnSet.from_members(n, members)
            if is_basis(a):
                expected.add(canonical_form(a).mask)
        got = [rep.mask for rep in enumerate_bases(n)]
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == expected


def test_enumerate_bases_orbit_count_matches_burnside():
    for n in range(1, 21):
        assert len(list(enumerate_bases(n))) == burnside_basis_orbits(n), n


def test_exhaustive_walk_yields_canonical_bases_in_canonical_order():
    # The walk packs each image's state index into lanes of 1, 2, 4 or 8
    # bytes, the narrowest that hold n - 1 bits: n = 9, 10, 17 and 18 sit on
    # either side of the 1- and 2-byte boundaries, where a lane one size too
    # narrow would corrupt the indices it carries.
    from znbases.affine import is_canonical

    for n in (9, 10, 17, 18):
        reps = list(enumerate_bases(n))
        assert reps, n
        for rep in reps:
            assert is_basis(rep) and is_canonical(rep), rep
        keys = [canonical_sort_key(rep) for rep in reps]
        assert all(x < y for x, y in zip(keys, keys[1:])), n


def test_exhaustive_enumeration_yields_the_canonicality_scan():
    # Both modes must yield exactly what testing every 0-containing
    # candidate for canonicality and basis-hood yields, in the canonical
    # order (ascending canonical_sort_key).
    from znbases.affine import is_canonical

    def scan(candidates):
        found = [a for a in candidates if is_canonical(a) and is_basis(a)]
        return sorted(found, key=canonical_sort_key)

    for n in range(1, 14):
        candidates = [ZnSet(n, mask) for mask in range(1, 1 << n, 2)]
        assert list(enumerate_bases(n)) == scan(candidates), n
    for n, top in [*((n, min(n, 4)) for n in range(1, 25)), (30, 3)]:
        candidates = [ZnSet(n, 1)] + [
            ZnSet.from_members(n, (0, *combo))
            for size in range(1, top)
            for combo in itertools.combinations(range(1, n), size)
        ]
        expected = scan(candidates)
        for max_card in range(1, top + 1):
            assert list(enumerate_bases(n, max_card=max_card)) == [
                a for a in expected if len(a) <= max_card
            ], (n, max_card)
    # Below n = 30 no canonical basis has a second member g > 1; at n = 30,
    # {0,2,5} is rooted at g = 2, so a search that lost such roots fails.
    assert ZnSet.from_members(30, (0, 2, 5)) in expected


def test_capped_search_lists_the_bases_in_canonical_order():
    # The search roots at {0, g} in increasing g, adds members in increasing
    # order and keeps each basis after the sets grown from it; that
    # post-order is the canonical order, and no sort follows the search.
    from znbases.spectrum import _canonical_bases

    cases = [(n, floor, cap) for n in range(1, 31)
             for floor in sorted({0, *(n // k for k in range(2, 6))})
             for cap in range(1, 6)]
    for n, floor, cap in [*cases, (300, 75, 8), (420, 60, 12), (240, 40, 10)]:
        reps = [rep for rep, _ in _canonical_bases(n, floor, cap)]
        assert reps == sorted(reps, key=canonical_sort_key), (n, floor, cap)


def test_enumerate_bases_checks_its_arguments_when_called():
    # refused at the call, before any next() on the returned iterator
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_bases(0)
    with pytest.raises(ValueError, match="limited to n <= 20"):
        enumerate_bases(25)
    with pytest.raises(ValueError, match="max_card must be in"):
        enumerate_bases(7, max_card=0)
    with pytest.raises(ValueError, match=r"state of 2\^63 bytes"):
        enumerate_bases(64, limit=64)


def test_exhaustive_state_that_cannot_be_allocated_is_refused():
    # bytearray(1 << 61) fails with MemoryError at once on a 64-bit build
    # with 8 GiB; the refusal must name the state, not end in a traceback
    with pytest.raises(ValueError, match=r"state of 2\^61 bytes"):
        enumerate_bases(62, limit=62)


def test_enumerate_bases_spec_examples():
    reps = list(enumerate_bases(7, max_card=2))
    assert [r.to_text() for r in reps] == ["0,1"]
    assert list(enumerate_bases(6, max_card=1)) == []  # singletons never generate
    with pytest.raises(ValueError):
        list(enumerate_bases(25, limit=20))


def test_spectrum_spec_examples():
    r = spectrum(7)
    assert r.achieved_orders == (1, 2, 3, 6)
    assert r.gaps == ((4, 5),)
    assert spectrum(2).achieved_orders == (1,)
    r9 = spectrum(9)
    assert 4 in r9.achieved_orders
    assert order(ZnSet.from_text(9, "0,1,3")) == 4


def test_spectrum_matches_naive_oracle():
    for n in range(2, 13):
        assert set(spectrum(n).achieved_orders) == naive_spectrum(n), n


def test_spectrum_witnesses_attain_their_orders():
    # each witness is also the canonically least representative of its order
    for n, cap in [(n, None) for n in range(1, 13)] + [(30, 4)]:
        by_order = {}
        for rep in enumerate_bases(n, cap):
            by_order.setdefault(order(rep), []).append(rep)
        r = spectrum(n, max_card=cap)
        assert r.achieved_orders == tuple(sorted(by_order)), (n, cap)
        for rho, w in r.witnesses:
            assert order(w) == rho
            assert w == min(by_order[rho], key=canonical_sort_key), (n, cap, rho)


def test_check_kl_bound_counts_orbits_at_or_above_rho():
    for n in range(4, 17):
        orders = [(rep, order(rep)) for rep in enumerate_bases(n)]
        for rho in range(2, n):
            report = kl_bound(n, rho)
            above = [rep for rep, o in orders if o >= rho]
            # a bound of 2 makes every orbit above {0, 1} a violation
            for bound in (report.bound, 2):
                expected = (len(above), sum(len(rep) > bound for rep in above))
                got = check_kl_bound(report._replace(bound=bound))
                assert got == expected, (n, rho, bound)


def test_spectrum_extremes_present():
    for n in range(2, 17):
        r = spectrum(n)
        assert n - 1 in r.achieved_orders  # the pair {0,1}
        assert 1 in r.achieved_orders      # the full group


def test_spectrum_gap_locations_discovered_not_assumed():
    # Agreement with the naive oracle up to n = 16 settles where the gaps
    # are; in particular whether n-2 is achieved is read off, not presumed
    # (it IS achieved for n = 3 and 4, and stops being achieved later).
    near_top = {}
    for n in range(3, 17):
        ns = naive_spectrum(n)
        assert set(spectrum(n).achieved_orders) == ns, n
        near_top[n] = (n - 2) in ns
    assert near_top[3] and near_top[4]
    assert not any(near_top[n] for n in range(7, 17))
    print(f"n-2 achieved by n: {near_top}")


def test_capped_spectrum_is_subset_and_agrees_above_threshold():
    for n in range(4, 17):
        full = spectrum(n)
        for cap in (2, 3, 4):
            capped = spectrum(n, max_card=cap)
            assert set(capped.achieved_orders) <= set(full.achieved_orders)
            # Orders that force cardinality <= cap must all be seen.
            thresholds = [
                rho for rho in range(2, n)
                if kl_bound(n, rho).bound <= cap
            ]
            if thresholds:
                t = min(thresholds)
                assert {o for o in full.achieved_orders if o >= t} == {
                    o for o in capped.achieved_orders if o >= t
                }, (n, cap)


def test_capped_spectrum_refuses_a_cap_outside_1_to_n():
    for cap in (0, 6, 9):
        with pytest.raises(ValueError, match=r"max_card must be in \[1, 5\]"):
            spectrum(5, max_card=cap)


def test_conjecture_spec_examples():
    r = verify_conjecture(7, 2)
    assert [(e.witness.to_text(), e.order) for e in r.exceeders] == [("0,1", 6)]
    assert r.max_min_gap == 1  # min(|6-7|, |6-7/2|) = 1
    assert verify_conjecture(7, 2, max_card=2).exceeders == r.exceeders
    for kl in (True, False):  # the pair {0,1} lies outside a cap of one member
        assert verify_conjecture(7, 2, max_card=1, use_kl_cap=kl).exceeders == ()
    assert verify_conjecture(7, 1).exceeders == ()
    assert verify_conjecture(7, 1).max_min_gap == 0
    r9 = verify_conjecture(9, 2)
    for e in r9.exceeders:
        assert e.order * 2 > 9


def test_conjecture_capped_equals_exhaustive_when_cap_is_full():
    # n = 1 takes the search's hand-built {0}, as spectrum(1, max_card=1) does
    assert spectrum(1, max_card=1).witnesses == spectrum(1).witnesses
    for n in range(1, 19):
        for k in range(2, 9):
            ex = verify_conjecture(n, k)
            for kl in (True, False):
                cp = verify_conjecture(n, k, max_card=n, use_kl_cap=kl)
                assert {(e.witness.mask, e.order) for e in ex.exceeders} == {
                    (e.witness.mask, e.order) for e in cp.exceeders
                }
                assert cp.max_min_gap == ex.max_min_gap


def test_capped_search_finds_exceeders_rooted_above_residue_1():
    # {0,2,5} (order 9) at n = 30 and {0,2,9} (order 11) at n = 42 are
    # exceeders whose canonical forms lack residue 1.
    for n, rooted_at_2, rho in ((30, (0, 2, 5), 9), (42, (0, 2, 9), 11)):
        expected = small_exceeders(n, 4)
        assert [m for m in expected if 1 not in m] == [rooted_at_2]
        assert expected[rooted_at_2] == rho
        report = verify_conjecture(n, 4, max_card=3)
        assert {e.witness.members: e.order for e in report.exceeders} == expected, n


def test_capped_search_agrees_with_capped_enumeration_above_n_18():
    # The rooted candidate scan of tests/oracles.py runs no search, so it is
    # an independent check of the search, its roots and its canonicity prune.
    # k = 5 adds exceeders such as {0,2,5,10} at n = 30, whose pair 2, 10
    # has gcd(8, 30) equal to the second member; the prune must keep them.
    rooted_above_1 = 0
    for n in (24, 30, 36, 42, 48, 60):
        bases = rooted_canonical_bases(n, 4)
        for k in (3, 4, 5):
            expected = {}
            for a in bases:
                rho = order(a)
                if rho * k > n:
                    expected[a.mask] = rho
            report = verify_conjecture(n, k, max_card=4, use_kl_cap=False)
            assert {e.witness.mask: e.order for e in report.exceeders} == expected, (n, k)
            rooted_above_1 += sum(1 not in e.witness for e in report.exceeders)
    assert rooted_above_1 > 0


def test_capped_search_agrees_with_capped_enumeration_at_depth_6_and_8(monkeypatch):
    # Deep enough for the quotient and sub-basis bounds to drop subtrees;
    # the wrappers below check that both do, so the agreement covers them.
    spectrum_module = importlib.import_module("znbases.spectrum")
    fired = {"quotient": 0, "triple": 0}

    def recording_order(a):
        rho = order(a)
        d = n // a.modulus
        fired["quotient"] += d > 1 and (rho + d - 1) * k <= n
        return rho

    def recording_triple_order(m, x, y):
        rho = triple_order(m, x, y)
        fired["triple"] += rho * k <= n
        return rho

    triple_order = spectrum_module._triple_order
    monkeypatch.setattr(spectrum_module, "order", recording_order)
    monkeypatch.setattr(spectrum_module, "_triple_order", recording_triple_order)
    for n, k, cap in ((24, 4, 6), (30, 4, 6), (36, 4, 6), (24, 5, 8)):
        expected = {}
        for a in rooted_canonical_bases(n, cap):
            rho = order(a)
            if rho * k > n:
                expected[a.mask] = rho
        fired.update(quotient=0, triple=0)
        report = verify_conjecture(n, k, max_card=cap, use_kl_cap=False)
        assert {e.witness.mask: e.order for e in report.exceeders} == expected, (n, k)
        assert fired["quotient"] > 0, (n, k)
        if n == 36:
            assert fired["triple"] > 0


def test_capped_enumeration_skips_the_order_bounds(monkeypatch):
    # At floor 0 neither bound can drop a set: the quotient bound is at
    # least d > 0, and a triple's order is at least 1.  So enumerate_bases
    # with a cap calls order() only on bases of Z_n and never _triple_order,
    # and a capped spectrum makes no order() call beyond the search's own.
    spectrum_module = importlib.import_module("znbases.spectrum")
    moduli, triples = [], []

    def recording_order(a):
        moduli.append(a.modulus)
        return order(a)

    def recording_triple_order(*args):
        triples.append(args)
        return triple_order(*args)

    triple_order = spectrum_module._triple_order
    monkeypatch.setattr(spectrum_module, "order", recording_order)
    monkeypatch.setattr(spectrum_module, "_triple_order", recording_triple_order)
    for n, cap in ((24, 6), (36, 5)):
        moduli.clear()
        reps = list(enumerate_bases(n, max_card=cap))
        assert set(moduli) == {n} and len(moduli) >= len(reps), (n, cap)
        assert triples == [], (n, cap)
        calls = len(moduli)
        moduli.clear()
        spectrum(n, max_card=cap)
        assert len(moduli) == calls, (n, cap)


def test_capped_search_computes_each_triple_order_once(monkeypatch):
    # The sub-basis check meets the same 0-translate {0, a, b} in many sets;
    # one memo per search computes each order once.
    spectrum_module = importlib.import_module("znbases.spectrum")
    keys = []

    def counting_triple_order(m, a, b):
        keys.append((m, min(a, b), max(a, b)))
        return triple_order(m, a, b)

    triple_order = spectrum_module._triple_order
    monkeypatch.setattr(spectrum_module, "_triple_order", counting_triple_order)
    verify_conjecture(60, 5, max_card=8)
    assert len(keys) > 100
    assert len(keys) == len(set(keys))


@st.composite
def subgroup_sets_in_bases(draw):
    """(n, d, A, B) with n <= 40: A holds 0, gcd(n, members of A) is the
    proper divisor d > 1, and B is a basis of Z_n that contains A."""
    n = draw(st.sampled_from([n for n in range(4, 41) if len(divisors(n)) > 2]))
    d = draw(st.sampled_from(divisors(n)[1:-1]))
    steps = draw(st.sets(st.integers(1, n // d - 1), min_size=1, max_size=5))
    assume(math.gcd(n // d, *steps) == 1)
    a = {0} | {d * s for s in steps}
    b = a | draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=5))
    assume(math.gcd(n, *b) == 1)
    return n, d, a, b


@settings(max_examples=150, deadline=None)
@given(subgroup_sets_in_bases())
@example((20, 2, {0, 2}, {0, 1, 2}))  # equality: 10 = 9 + 2 - 1
def test_quotient_bound_on_bases_containing_a_subgroup_set(case):
    # The bound the exceeder search drops subtrees by, against the
    # plain-set oracle: order(B) <= order of A/d in Z_{n/d}, plus d - 1.
    n, d, a, b = case
    assert math.gcd(n, *a) == d
    quotient_order = naive_order(n // d, {x // d for x in a})
    assert naive_order(n, b) <= quotient_order + d - 1


def test_quotient_bound_keeps_exceeders_at_its_edge():
    # The first three members span 2Z_n, and half of them has order r in
    # Z_{n/2} with r * k <= n < (r + 1) * k.  The search must grow them,
    # because the exceeder above them needs the d - 1 = 1 extra step.
    for n, k, members in ((90, 8, (0, 2, 12, 57)), (90, 7, (0, 2, 20, 65)),
                          (126, 8, (0, 2, 26, 77))):
        r = naive_order(n // 2, {x // 2 for x in members[:3]})
        assert r * k <= n < (r + 1) * k
        rho = naive_order(n, members)
        assert rho * k > n
        report = verify_conjecture(n, k, max_card=4)
        assert {e.witness.members: e.order for e in report.exceeders}[members] == rho


def test_conjecture_caveat_flag():
    assert not verify_conjecture(10, 2).completeness_caveat
    assert verify_conjecture(30, 3, max_card=6).completeness_caveat


def test_conjecture_exceeders_orders_exceed_threshold_exactly():
    r = verify_conjecture(30, 3, max_card=6)
    for e in r.exceeders:
        assert e.order * 3 > 30
        gaps = [abs(e.order - Fraction(30, l)) for l in range(1, 4)]
        assert e.min_gap == min(gaps)
        assert Fraction(30, e.nearest_l) == Fraction(30, gaps.index(e.min_gap) + 1)


def test_conjecture_n1_edge():
    r = verify_conjecture(1, 3)
    assert len(r.exceeders) == 1
    assert r.exceeders[0].order == 1
    assert r.max_min_gap == 0


def test_order_equals_naive_for_enumerated_reps():
    for n in range(2, 12):
        for rep in enumerate_bases(n):
            assert order(rep) == naive_order(n, rep.members)


def test_capped_search_calls_order_only_on_bases(monkeypatch):
    spectrum_module = importlib.import_module("znbases.spectrum")
    results = []
    moduli = []

    def recording_order(a):
        rho = order(a)
        results.append(rho)
        moduli.append(a.modulus)
        return rho

    monkeypatch.setattr(spectrum_module, "order", recording_order)
    report = verify_conjecture(60, 3, max_card=6)
    assert report.exceeders
    assert None not in results
    # Carrying gcd(n, members) down the tree keeps order() off non-bases,
    # rooting each set at its canonical second member visits it once, sets
    # with a pair gcd below that member are dropped unvisited, and children
    # holding a basis triple of order <= n/k are dropped before order()
    # runs.  A set in a proper subgroup dZ_60 with room to grow gets one
    # order() call in Z_{60/d}, for the quotient bound.
    # The roots {0, g} with 1 < g <= n/k get that call too: 9 of them here,
    # and the bound drops the subtrees of 6, so the quotients get 56 calls,
    # not the 89 of the search that rooted at the triples {0, g, y}.
    assert moduli.count(60) == 89
    assert len(moduli) - moduli.count(60) == 56
