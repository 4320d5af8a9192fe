import importlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from znbases import enumerate_bases, order, spectrum, trajectory, verify_conjecture
from znbases.bounds import kl_bound
from znbases.core import ZnSet, canonical_sort_key, divisors, is_basis
from znbases.spectrum import check_kl_bound

from oracles import (
    all_subsets, burnside_basis_orbits, naive_canonical_form, naive_is_canonical,
    naive_order, naive_spectrum, rooted_canonical_bases, small_exceeders,
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
    # The pruned search at full depth against the walk below the exceeders.
    for n in range(1, 17):
        assert list(enumerate_bases(n, max_card=n)) == list(enumerate_bases(n)), n


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


def record_search_kernels(monkeypatch):
    """Wrap the order kernels the pruned search calls through znbases.spectrum
    and return the lists they append to: "quotient" (n, d, members, order)
    per _quotient_order, "triple" (m, a, b, order) per _triple_order,
    "levels" (m, mask, z) per _levels, the levels of the set with that mask
    grown from those of the set without z, and "order" (modulus, order) per
    run of the level loop, sumsets._mask_order."""
    spectrum_module = importlib.import_module("znbases.spectrum")
    calls = {"quotient": [], "triple": [], "levels": [], "order": []}
    quotient_order, triple_order = spectrum_module._quotient_order, spectrum_module._triple_order
    levels, mask_order = spectrum_module._levels, spectrum_module._mask_order

    def recording_quotient_order(n, d, members):
        rho = quotient_order(n, d, members)
        calls["quotient"].append((n, d, members, rho))
        return rho

    def recording_triple_order(m, a, b):
        rho = triple_order(m, a, b)
        calls["triple"].append((m, a, b, rho))
        return rho

    def recording_levels(m, mask, z, above):
        calls["levels"].append((m, mask, z))
        return levels(m, mask, z, above)

    def recording_order(m, mask, shifts):
        rho = mask_order(m, mask, shifts)
        calls["order"].append((m, rho))
        return rho

    monkeypatch.setattr(spectrum_module, "_quotient_order", recording_quotient_order)
    monkeypatch.setattr(spectrum_module, "_triple_order", recording_triple_order)
    monkeypatch.setattr(spectrum_module, "_levels", recording_levels)
    monkeypatch.setattr(spectrum_module, "_mask_order", recording_order)
    return calls


def test_capped_search_agrees_with_capped_enumeration_at_depth_6_and_8(monkeypatch):
    # Deep enough for the quotient and sub-basis bounds to drop subtrees;
    # the recorded kernel calls show that both do, so the agreement covers
    # them.  The quotient bound reads every quotient order through
    # _quotient_order; a triple bound fires when a basis triple in Z_n has
    # order <= n/k, whether {0, g, w} under the root {0, g} or a translate
    # {0, y - x, w - x} in the sub-basis check.
    calls = record_search_kernels(monkeypatch)
    for n, k, cap in ((24, 4, 6), (30, 4, 6), (36, 4, 6), (24, 5, 8)):
        expected = {}
        for a in rooted_canonical_bases(n, cap):
            rho = order(a)
            if rho * k > n:
                expected[a.mask] = rho
        for log in calls.values():
            log.clear()
        report = verify_conjecture(n, k, max_card=cap, use_kl_cap=False)
        assert {e.witness.mask: e.order for e in report.exceeders} == expected, (n, k)
        assert any((r + d - 1) * k <= n for _, d, _, r in calls["quotient"]), (n, k)
        if n == 36:
            fired = [(a, b) for m, a, b, r in calls["triple"] if m == n and r * k <= n]
            # a first step that does not divide n is no root's: the sub-basis check
            assert any(n % a for a, _ in fired)


def test_capped_enumeration_skips_the_order_bounds(monkeypatch):
    # At floor 0 neither bound can drop a set: the quotient bound is at
    # least d > 0, and a triple's order is at least 1.  So enumerate_bases
    # with a cap computes no quotient order and runs the level loop never;
    # its triple orders are exactly those of the roots' triples {0, g, w}
    # that are bases and pass the canonicity test against 0 and g, each
    # mirror pair {0, g, w}, {0, g, n + g - w} computed once, at the lower
    # w, and a capped spectrum makes no kernel call beyond the search's own.
    calls = record_search_kernels(monkeypatch)
    for n, cap in ((24, 6), (36, 5), (30, 6)):
        for log in calls.values():
            log.clear()
        reps = list(enumerate_bases(n, max_card=cap))
        assert calls["quotient"] == [] and calls["order"] == [], (n, cap)
        assert sorted((m, a, b) for m, a, b, _ in calls["triple"]) == [
            (n, g, w) for g in divisors(n)[:-1] for w in range(g + 1, n)
            if math.gcd(n, g, w) == 1 and math.gcd(w, n) >= g and math.gcd(w - g, n) >= g
            and 2 * w <= n + g
        ], (n, cap)
        tested = [mask for _, mask, _ in calls["levels"]
                  if bin(mask).count("1") >= 4 and is_basis(ZnSet(n, mask))]
        assert len(tested) >= sum(len(rep) >= 4 for rep in reps), (n, cap)
        made = {log: len(calls[log]) for log in calls}
        spectrum(n, max_card=cap)
        assert {log: len(calls[log]) for log in calls} == {
            log: 2 * count for log, count in made.items()}, (n, cap)


def test_capped_search_computes_one_order_per_mirror_pair(monkeypatch):
    # x -> a - x carries {0, a, b} onto {0, a, n + a - b}, an image of the
    # same order, and the search stores every triple order it computes
    # under both keys, so it never computes both: neither in a root's
    # listing of its triples {0, g, w} nor in the sub-basis check.
    calls = record_search_kernels(monkeypatch)
    n = 60
    verify_conjecture(n, 5, max_card=8)
    computed = {(a, b) for m, a, b, _ in calls["triple"] if m == n}
    assert len(computed) > 100
    assert any(n % a for a, _ in computed)  # the sub-basis check computed some
    assert not {(a, b) for a, b in computed if 2 * b != n + a} & {
        (a, n + a - b) for a, b in computed}


def test_sub_basis_check_is_skipped_where_no_triple_caps(monkeypatch):
    # At (160, 8) no triple of Z_160 has order <= 20, so no root's listing
    # leaves a member out as capping, and the sub-basis check, which could
    # not fire, reads no memo key: every triple order computed in Z_160 is
    # a listing's, one per mirror pair {0, g, w}, {0, g, n + g - w}.
    calls = record_search_kernels(monkeypatch)
    n, k = 160, 8
    report = verify_conjecture(n, k, max_card=10)
    assert report.exceeders
    assert min(r for m, _, _, r in calls["triple"] if m == n) * k > n
    assert sorted((a, b) for m, a, b, _ in calls["triple"] if m == n) == [
        (g, w) for g in divisors(n)[:-1] if n // g + g - 2 > n // k
        for w in range(g + 1, n)
        if math.gcd(n, g, w) == 1 and math.gcd(w, n) >= g and math.gcd(w - g, n) >= g
        and 2 * w <= n + g
    ]


def test_capped_search_computes_each_triple_order_once(monkeypatch):
    # The roots' triples {0, g, w} and the sub-basis check meet the same
    # 0-translate {0, a, b} in many sets; one memo per search computes each
    # order once.
    calls = record_search_kernels(monkeypatch)
    verify_conjecture(60, 5, max_card=8)
    keys = [(m, a, b) for m, a, b, _ in calls["triple"]]
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
    # The orderly walk's (representative, order) pairs, whose orders come
    # from the members it decoded, and order() on each representative,
    # against the plain-set levels.
    from znbases.spectrum import _bases_above

    for n in range(1, 17):
        pairs = _bases_above(n, 0, None, 16)
        assert [rep for rep, _ in pairs] == list(enumerate_bases(n)), n
        for rep, rho in pairs:
            assert rho == order(rep) == naive_order(n, rep.members), rep


def test_capped_search_calls_order_only_on_bases(monkeypatch):
    # Carrying gcd(n, members) down the tree keeps order work off
    # non-bases of Z_n: every triple order computed in Z_n is finite, and
    # levels are grown only in the order test of a basis, once per basis of
    # four or more members.  A set in a
    # proper subgroup dZ_n has its levels grown only on the way to those of
    # a basis grown from it, which needs them, so the next basis whose
    # levels are grown holds it.  Quotient orders are computed only for
    # sets inside proper subgroups, in Z_{n/d}, and all are finite.
    calls = record_search_kernels(monkeypatch)
    for n, k, cap in ((60, 3, 6), (30, 5, 6), (60, 8, 6)):
        for log in calls.values():
            log.clear()
        report = verify_conjecture(n, k, max_card=cap)
        assert report.exceeders
        assert all(r is not None for *_, r in calls["triple"])
        assert all(m <= n // 2 and r is not None for m, r in calls["order"])
        for m, d, members, r in calls["quotient"]:
            assert d == math.gcd(n, *members) > 1 and m == n and r is not None
        grown = [(mask, is_basis(ZnSet(n, mask))) for _, mask, _ in calls["levels"]]
        # a basis that ran the test keeps its levels for its children
        tested = [mask for mask, basis in grown if basis and bin(mask).count("1") >= 4]
        assert len(tested) == len(set(tested)), (n, k)
        for i, (mask, basis) in enumerate(grown):
            if not basis:
                holder = next(m for m, b in grown[i + 1:] if b)
                assert holder & mask == mask != holder, (n, k, bin(mask))
        if n == 30:
            assert not all(basis for _, basis in grown)
        if (n, k) == (60, 3):
            # No run of the level loop at all: the order tests are 17 level
            # runs on bases of Z_60 of four or more members and closed-form
            # pairs and triples (66 triple orders in Z_60), and the quotient
            # bound runs on 47 sets, all triples (a root's bound needs no
            # quotient order).  No level run or sub-basis triple is spent
            # below a set that is_canonical rejected: the search drops it
            # with its subtree.
            assert calls["order"] == []
            assert sum(basis and bin(mask).count("1") >= 4 for mask, basis in grown) == 17
            assert sum(m == 60 for m, *_ in calls["triple"]) == 66
            assert len(calls["quotient"]) == 47


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 14).flatmap(lambda n: st.sets(
    st.integers(0, n - 1), min_size=2).map(lambda members: (n, tuple(sorted(members))))))
@example((14, (0, 1, 3, 7, 8)))
@example((14, (0, 2, 4, 6)))  # canonical with least pair gcd 2
def test_the_parent_of_a_canonical_set_is_canonical(case):
    # Orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
    # Math. 1978): if A is canonical, so is A - max A, on the plain-set
    # oracle, for the drawn set and for its canonical form.  The pruned
    # search relies on it to drop a rejected set with its subtree.
    n, members = case
    least = naive_canonical_form(n, members)
    assert naive_is_canonical(n, least[:-1]), (n, least)
    if naive_is_canonical(n, members):
        assert naive_is_canonical(n, members[:-1]), case


def test_capped_search_grows_no_set_from_a_rejected_one(monkeypatch):
    # Every set the search hands to is_canonical has its parent, the set
    # without its top member, either untested (a root) or accepted: a set
    # that fails the test is dropped with its subtree.
    spectrum_module = importlib.import_module("znbases.spectrum")
    is_canonical = spectrum_module.is_canonical
    tested = {}

    def recording_is_canonical(a):
        tested[a.mask] = verdict = is_canonical(a)
        return verdict

    monkeypatch.setattr(spectrum_module, "is_canonical", recording_is_canonical)
    for run in (lambda: spectrum(16, max_card=16),
                lambda: verify_conjecture(140, 8, max_card=14)):
        tested.clear()
        run()
        assert not all(tested.values())  # the test rejects some sets
        below_rejected = [mask for mask in tested
                          if tested.get(mask ^ 1 << mask.bit_length() - 1) is False]
        assert len(below_rejected) == 0


@st.composite
def parents_and_children(draw):
    """(n, A, z): A holds 0, and in half the draws lies in a proper subgroup
    dZ_n; z is a residue outside A."""
    n = draw(st.integers(2, 64))
    d = draw(st.sampled_from(divisors(n)[:-1])) if draw(st.booleans()) else 1
    a = {0} | {d * s % n for s in draw(st.sets(st.integers(1, n), max_size=6))}
    z = draw(st.integers(1, n - 1).filter(lambda z: z not in a)) if len(a) < n else None
    assume(z is not None)
    return n, tuple(sorted(a)), z


@settings(max_examples=300, deadline=None)
@given(parents_and_children())
@example((24, (0, 4, 8), 3))  # a parent in 4Z_24, a child that is a basis
@example((24, (0, 6, 12), 4))  # a parent in 6Z_24, a child still in 2Z_24
@example((30, (0, 1), 2))  # a triple grown from a pair
@example((30, (0,), 6))  # a pair grown from {0}, in a proper subgroup
def test_levels_grown_from_the_parent_match_the_trajectory(case):
    # h(A | {z}) = hA | ((h - 1)(A | {z}) + z) when A holds 0: the search's
    # levels grown from a parent's, and a pair's from {0}'s, against the
    # levels trajectory() builds on its own.  Past the last one it
    # records, a set's levels stay the same.  A basis keeps its levels up
    # to the full one, which is enough for every set grown from it.
    from znbases.spectrum import _levels

    def above(t):  # the masks of 2A, 3A, ... without end
        return itertools.chain((lv.mask for lv in t.levels[1:]),
                               itertools.repeat(t.levels[-1].mask))

    n, a, z = case
    child = ZnSet.from_members(n, (*a, z))
    expected = list(itertools.islice(above(trajectory(child)), n))
    parent = trajectory(ZnSet.from_members(n, a))
    assert list(itertools.islice(_levels(n, child.mask, z, above(parent)), n)) == expected
    if parent.order:
        kept = [lv.mask for lv in parent.levels[1:]]
        assert list(_levels(n, child.mask, z, iter(kept))) == expected[:len(kept)]
    if len(a) == 1:
        pair = _levels(n, child.mask, z, itertools.repeat(1))
        assert list(itertools.islice(pair, n)) == expected


@st.composite
def quotient_sets(draw):
    """(n, d, members) with n <= 60: members holds 0 and three or more
    multiples of d in increasing order, and gcd(n, members) is the proper
    divisor d > 1."""
    n = draw(st.sampled_from([n for n in range(8, 61) if len(divisors(n)) > 2]))
    d = draw(st.sampled_from([d for d in divisors(n)[1:-1] if n // d >= 4] or [None]))
    assume(d is not None)
    steps = draw(st.sets(st.integers(1, n // d - 1), min_size=3, max_size=8))
    assume(math.gcd(n // d, *steps) == 1)
    return n, d, (0, *sorted(d * s for s in steps))


@settings(max_examples=300, deadline=None)
@given(quotient_sets())
@example((60, 2, (0, 2, 4, 6)))  # the quotient {0, 1, 2, 3} in Z_30
@example((24, 6, (0, 6, 12, 18)))  # the whole quotient group Z_4
def test_quotient_orders_of_larger_sets_match_the_oracle(case):
    # A quotient of four or more members runs the level loop on the
    # members over d in Z_{n/d}: against naive_order of the quotient set.
    from znbases.spectrum import _quotient_order

    n, d, members = case
    assert math.gcd(n, *members) == d
    assert _quotient_order(n, d, members) == naive_order(n // d, {x // d for x in members})


def test_quotient_orders_of_pairs_and_triples_match_the_oracle():
    # The quotient bound's closed forms: {0, x} in dZ_n has the quotient
    # {0, x/d}, of order n/d - 1, and a triple's quotient order is
    # _triple_order in Z_{n/d}.  Every pair and triple holding 0 in a
    # proper subgroup, n <= 60, against naive_order of the quotient set.
    from znbases.spectrum import _quotient_order

    checked = {}
    for n in range(2, 61):
        for members in itertools.chain(
            ((0, x) for x in range(1, n)),
            ((0, x, y) for x, y in itertools.combinations(range(1, n), 2)),
        ):
            d = math.gcd(n, *members)
            if d > 1:
                quotient = (n // d, tuple(x // d for x in members))
                if quotient not in checked:
                    checked[quotient] = naive_order(*quotient)
                assert _quotient_order(n, d, members) == checked[quotient], (n, members)
    assert len(checked) > 1000
