import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from znbases import (
    ap_cover,
    coset_profile,
    df_analyze,
    pipeline_trace,
    project,
)
from znbases import structure
from znbases.core import ZnSet, divisors
from znbases.structure import (
    CASE_GENERIC,
    CASE_SINGLE_COSET,
    CASE_THREE_COSETS,
    _choose_subgroup,
    _coset_stats,
    _multiple_gap,
    _subgroup_cost,
)
from znbases.sumsets import add_sets, order

from oracles import brute_ap_cover, naive_coset_stats, walk_ap_cover


def test_project_spec_examples():
    a = ZnSet.from_text(20, "0,4,8,12,16,1")
    assert project(a, 4) == ZnSet.from_text(4, "0,1")
    assert project(a, 20) == a
    assert project(ZnSet(12, (1 << 12) - 1), 3) == ZnSet(3, (1 << 3) - 1)
    with pytest.raises(ValueError):
        project(a, 3)


def test_project_is_sumset_homomorphism():
    rng = random.Random(3)
    for n in (12, 18, 24, 36, 48, 60):
        for _ in range(30):
            x = ZnSet(n, rng.randrange(1, 1 << n))
            y = ZnSet(n, rng.randrange(1, 1 << n))
            for q in divisors(n):
                lhs = project(add_sets(x, y), q)
                rhs = add_sets(project(x, q), project(y, q))
                assert lhs == rhs


def test_coset_profile_spec_examples():
    a = ZnSet.from_text(20, "0,4,8,12,16,1")
    assert coset_profile(a, 5) == (2, Fraction(1))
    assert coset_profile(ZnSet(12, (1 << 12) - 1), 4) == (3, Fraction(1))
    assert coset_profile(ZnSet.from_text(12, "0"), 4) == (1, Fraction(1, 4))
    with pytest.raises(ValueError, match="m must divide the modulus 12, got 5"):
        coset_profile(ZnSet.from_text(12, "0"), 5)
    with pytest.raises(ValueError, match="coset profile of an empty set"):
        coset_profile(ZnSet(12, 0), 4)


def test_ap_cover_spec_examples():
    assert ap_cover(ZnSet.from_text(4, "0,1")) == (0, 1, 2)
    assert ap_cover(ZnSet.from_text(7, "0,2,4")) == (0, 2, 3)
    for q in (2, 5, 8):
        assert ap_cover(ZnSet(q, (1 << q) - 1)) == (0, 1, q)
    assert ap_cover(ZnSet.from_text(1, "0")) == (0, 1, 1)
    with pytest.raises(ValueError, match="AP cover of an empty set"):
        ap_cover(ZnSet(7, 0))


@pytest.mark.parametrize("coprime_only", [False, True])
def test_ap_cover_matches_brute_force(coprime_only):
    for q in range(2, 13):
        for mask in range(1, 1 << q):
            s = ZnSet(q, mask)
            expected = brute_ap_cover(q, s.members, coprime_only)
            assert ap_cover(s, coprime_only) == expected, (q, s.members)


@st.composite
def coset_unions(draw):
    """Cosets of one subgroup of Z_q, q with many divisors, plus a few stray
    residues."""
    q = draw(st.sampled_from((120, 180, 210, 252, 360, 420)))
    step = draw(st.sampled_from(divisors(q)))
    offsets = draw(st.sets(st.integers(0, step - 1), min_size=1, max_size=5))
    strays = draw(st.sets(st.integers(0, q - 1), max_size=3))
    cosets = {o + j for o in offsets for j in range(0, q, step)}
    return ZnSet.from_members(q, cosets | strays)


@settings(max_examples=200, deadline=None)
@given(coset_unions(), st.booleans())
def test_ap_cover_matches_stride_walk(s, coprime_only):
    assert ap_cover(s, coprime_only) == walk_ap_cover(s.modulus, s.members, coprime_only)


@st.composite
def dense_sets(draw):
    """Subsets S of Z_q with 32|S| >= q, the side that finds gaps by mask
    shifts: random members, sometimes all in one class mod a divisor of q so
    that the gcd(d, q) > 1 cycles decide the cover."""
    q = draw(st.integers(2, 400))
    step = draw(st.sampled_from([g for g in divisors(q) if 32 * (q // g) >= q]))
    cls = range(draw(st.integers(0, step - 1)), q, step)
    card = draw(st.integers(-(-q // 32), len(cls)))
    return ZnSet.from_members(q, draw(st.permutations(cls))[:card])


@st.composite
def sparse_sets(draw):
    """Subsets S of Z_q with 32|S| < q, the side that sorts positions: a
    random pattern repeated at t equally spaced offsets, so that several gaps
    can tie for the largest."""
    q = draw(st.integers(200, 700))
    t = draw(st.sampled_from([t for t in (1, 2, 3, 4) if q % t == 0]))
    pattern = draw(st.sets(st.integers(0, q // t - 1), min_size=1, max_size=(q - 1) // 32 // t))
    return ZnSet.from_members(q, {x + i * (q // t) for x in pattern for i in range(t)})


@settings(max_examples=200, deadline=None)
@given(dense_sets(), st.booleans())
def test_ap_cover_matches_stride_walk_on_dense_sets(s, coprime_only):
    assert 32 * len(s) >= s.modulus
    assert ap_cover(s, coprime_only) == walk_ap_cover(s.modulus, s.members, coprime_only)


@settings(max_examples=100, deadline=None)
@given(sparse_sets(), st.booleans())
def test_ap_cover_matches_stride_walk_on_sparse_sets(s, coprime_only):
    assert 32 * len(s) < s.modulus
    assert ap_cover(s, coprime_only) == walk_ap_cover(s.modulus, s.members, coprime_only)


@pytest.mark.parametrize("coprime_only", [False, True])
@pytest.mark.parametrize("members", [(0, 1, 2, 5, 9, 40), (0, 4, 8, 60, 100, 160), (3, 7, 50, 51, 52, 140)])
@pytest.mark.parametrize("q", [191, 192, 193])
def test_ap_cover_at_the_density_switch(q, members, coprime_only):
    s = ZnSet.from_members(q, members)  # 32|S| = q + 1, q, q - 1
    assert ap_cover(s, coprime_only) == walk_ap_cover(q, members, coprime_only)


def test_ap_cover_makes_no_membership_test(monkeypatch):
    def refuse(self, residue):
        pytest.fail("ap_cover tested membership cell by cell")

    s = ZnSet.from_members(360, {x for x in range(0, 360, 3) if x % 60 in (0, 21, 27, 42)})
    expected = walk_ap_cover(360, s.members)
    monkeypatch.setattr(ZnSet, "__contains__", refuse)
    assert ap_cover(s) == expected


def test_ap_cover_coprime_flag_restricts_differences():
    s = ZnSet.from_text(8, "0,2,4")
    start, d, l = ap_cover(s)
    assert (start, d, l) == (0, 2, 3)
    start_c, d_c, l_c = ap_cover(s, coprime_only=True)
    assert math.gcd(d_c, 8) == 1
    assert l_c >= l


def test_df_analyze_spec_example_coset_union():
    a = ZnSet.from_text(20, "0,4,8,12,16,1")
    an = df_analyze(a)
    assert an.double_size == 11
    assert an.doubling_hypothesis_ok  # 11 < 2.04 * 6
    best = an.best
    assert best is not None
    assert best.m == 5 and best.cosets_met == 2 and best.ap_len == 2
    assert best.case == CASE_GENERIC and best.inequality_holds
    assert best.max_coset_fraction == 1 > Fraction(2, 3)


def test_df_analyze_subgroup_input_single_coset():
    h = ZnSet.from_text(20, "0,4,8,12,16")
    an = df_analyze(h)
    m5 = next(r for r in an.reports if r.m == 5)
    assert m5.cosets_met == 1 and m5.case == CASE_SINGLE_COSET
    assert an.best is not None and an.best.m == 5


def test_df_analyze_trivial_subgroup_pair():
    an = df_analyze(ZnSet.from_text(12, "0,1"))
    m1 = next(r for r in an.reports if r.m == 1)
    assert m1.cosets_met == 2 and m1.ap_len == 2
    assert m1.inequality_holds  # (2-1)*1 <= |2A| - |A| = 1


def test_df_analyze_three_coset_case_uses_min_l_4():
    # Three cosets met, covering progression longer than 4 cells.
    n, m = 35, 5
    cells = [0, 1, 3]
    members = [c + j * 7 for c in cells for j in range(m)]
    an = df_analyze(ZnSet.from_members(n, members))
    r = next(rep for rep in an.reports if rep.m == m)
    assert r.cosets_met == 3
    assert r.case == CASE_THREE_COSETS


def test_df_analyze_runs_even_when_doubling_fails():
    a = ZnSet.from_text(50, "0,1,4,9,11")  # Sidon-like: |2A| = 15 >= 2.04 * 5
    an = df_analyze(a)
    assert not an.doubling_hypothesis_ok
    assert an.reports  # analysis still produced


def test_df_analyze_recovers_planted_structure():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(20, 150)
        ms = [m for m in divisors(n) if 2 <= m < n and n // m >= 11]
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
        an = df_analyze(ZnSet.from_members(n, members))
        assert an.doubling_hypothesis_ok
        assert an.best is not None
        assert an.best.m == m and an.best.ap_len <= l0


def test_two_thirds_concentration_tally():
    # For small-doubling, low-density inputs whose best cover is short, some
    # coset should usually hold more than 2/3 of the subgroup.  Failures are
    # tallied and reported, not asserted: desk-scale n cannot meet the
    # structure theorem's density hypothesis.
    rng = random.Random(77)
    tallied = 0
    concentrated = 0
    while tallied < 40:
        n = rng.randrange(30, 121)
        a = ZnSet(n, rng.randrange(1, 1 << min(n, 12)) | 1)
        if len(a) * 10 >= n:
            continue
        an = df_analyze(a)
        if not an.doubling_hypothesis_ok or an.best is None:
            continue
        if an.best.ap_len not in (2, 3):
            continue
        tallied += 1
        if an.best.max_coset_fraction > Fraction(2, 3):
            concentrated += 1
    assert 0 <= concentrated <= tallied
    print(f"two-thirds concentration: {concentrated}/{tallied} inputs")


@st.composite
def stats_sets(draw):
    """Sets mod n, n with many divisors or next to a lane-width switch (255
    counts in 8-bit lanes, 256 and 257 in 16-bit ones): cosets of one
    subgroup, so that some classes are full, plus random residues."""
    n = draw(st.sampled_from((12, 60, 360, 2520, 255, 256, 257)))
    step = draw(st.sampled_from(divisors(n)))
    offsets = draw(st.sets(st.integers(0, step - 1), max_size=3))
    strays = draw(st.sets(st.integers(0, n - 1), min_size=0 if offsets else 1, max_size=12))
    return ZnSet.from_members(n, {o + j for o in offsets for j in range(0, n, step)} | strays)


@settings(max_examples=60, deadline=None)
@given(stats_sets())
@example(ZnSet(255, (1 << 255) - 1))
@example(ZnSet.from_text(256, "255"))
@example(ZnSet.from_members(257, range(0, 257, 2)))
@example(ZnSet.from_members(2520, {*range(0, 512, 2), 1}))  # 256 in one class mod 2
def test_coset_stats_match_a_counter_per_divisor(a):
    n = a.modulus
    naive = naive_coset_stats(n, a.members)
    stats = _coset_stats(a)
    assert [m for m, _, _ in stats] == sorted(naive)
    for m, image, counts in stats:
        q, met, frac, members = naive[m]
        assert (image.modulus, len(image), image.members) == (q, met, members)
        assert Fraction(max(counts), m) == frac and len(counts) == q
    if n <= 360:  # df_analyze covers every image; 2520 is left to the fold alone
        reports = df_analyze(a).reports
        assert [(r.m, r.q, r.cosets_met, r.max_coset_fraction) for r in reports] == [
            (m, *naive[m][:3]) for m in sorted(naive)]


def _choice_from_df_analyze(b):
    an = df_analyze(b)
    return an.best or min(an.reports, key=_subgroup_cost, default=None)


# 0,3,6,15,19,21 mod 24 doubles once to a B that no report of df_analyze holds
@settings(max_examples=150, deadline=None)
@given(st.sampled_from((12, 24, 36, 60, 90, 120)).flatmap(
    lambda n: st.sets(st.integers(0, n - 1), min_size=1, max_size=8).map(
        lambda xs: ZnSet.from_members(n, xs))))
@example(ZnSet.from_text(24, "0,3,6,15,19,21"))
@example(ZnSet.from_text(1, "0"))
def test_pipeline_chooses_the_subgroup_df_analyze_names(a):
    t = pipeline_trace(a, 3)
    chosen = _choice_from_df_analyze(t.b)
    if chosen is None:
        assert a.modulus == 1 and t.m is None
        return
    branch = CASE_THREE_COSETS if chosen.cosets_met == 3 else CASE_GENERIC
    assert (t.m, t.q, t.s, t.ap_len, t.branch) == (
        chosen.m, chosen.q, chosen.cosets_met, chosen.ap_len, branch)
    assert t.two_thirds_holds == (chosen.max_coset_fraction > Fraction(2, 3))
    assert t.rho_q_proj_b == order(project(t.b, t.q))


def test_pipeline_falls_back_to_the_cheapest_report():
    t = pipeline_trace(ZnSet.from_text(24, "0,3,6,15,19,21"), 3)
    an = df_analyze(t.b)
    cheapest = min(an.reports, key=_subgroup_cost)
    assert an.best is None
    assert (t.m, t.ap_len) == (cheapest.m, cheapest.ap_len) == (4, 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((12, 20, 30, 48, 60, 84)).flatmap(
    lambda n: st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(
        lambda xs: ZnSet.from_members(n, xs))))
def test_choice_by_the_bound_matches_every_report(a):
    # on any set, doubled or not: many of these hold no report at all
    report, image = _choose_subgroup(a, len(add_sets(a, a)) - len(a))
    assert report == _choice_from_df_analyze(a)
    assert image == project(a, report.q)


@pytest.mark.parametrize("n, text, choice, covered_moduli", [
    # m = 1 costs 4*1, and every other divisor's bound s*m = 3m reaches
    # that: one cover of the 47 divisors is built
    (2520, "0,1,3", (1, 4), [2520]),
    # B = 2B: m = 1 cannot hold (s = 2, excess 0) but is built as the
    # fallback; m = 2 holds at cost 1*2, which every bound after it reaches
    (60, "0,30", (2, 1), [60, 30]),
    # no report holds: m = 4 is the cheapest at 5*4, and the bounds of
    # m = 3, 6, 8 and 12 reach 24
    (24, "0,3,6,15,19,21", (4, 5), [24, 12, 6]),
])
def test_pipeline_builds_only_the_reports_that_can_win(monkeypatch, n, text, choice, covered_moduli):
    covered = []
    cover = structure.ap_cover

    def counted_cover(s, coprime_only=False):
        covered.append(s.modulus)
        return cover(s, coprime_only)

    monkeypatch.setattr(structure, "ap_cover", counted_cover)
    monkeypatch.setattr(structure, "df_analyze", None)  # the trace builds no full scan
    t = pipeline_trace(ZnSet.from_text(n, text), 3)
    assert ((t.m, t.ap_len), covered) == (choice, covered_moduli)


def test_multiple_gap_matches_the_loop_over_multiples():
    for n in range(1, 31):
        for h in range(1, 36):
            for rho in range(1, n + 2):
                expected = (None, None)
                for t in range(h, n + 1, h):  # ascending: ties go to the least t
                    gap = abs(rho - Fraction(n, t))
                    if expected[0] is None or gap < expected[0]:
                        expected = (gap, t)
                assert _multiple_gap(n, h, rho) == expected, (n, h, rho)


def test_structure_scan_empty_for_trivial_group():
    an = df_analyze(ZnSet.from_text(1, "0"))
    assert an.reports == () and an.best is None


def test_pipeline_doubling_step_spec_examples():
    assert pipeline_trace(ZnSet.from_text(100, "0,1"), 2).j == 0
    assert pipeline_trace(ZnSet(10, (1 << 10) - 1), 2).j == 0
    a = ZnSet.from_text(100, "0,1,2,3,50")
    t = pipeline_trace(a, 2)
    j = t.j
    sizes = [len(a)]
    cur = a
    for _ in range(j + 1):
        cur = add_sets(cur, cur)
        sizes.append(len(cur))
    assert list(t.doubling_sizes) == sizes
    assert sizes[j + 1] * 100 < 204 * sizes[j]
    for i in range(j):
        assert sizes[i + 1] * 100 >= 204 * sizes[i]


def test_projection_bounds_spec_examples():
    # (order of the projection, order, order of the projection + n/q)
    for n, text, q, bounds in ((4, "0,1", 2, (1, 3, 3)), (9, "0,1", 3, (2, 8, 5))):
        a = ZnSet.from_text(n, text)
        lower, actual = order(project(a, q)), order(a)
        assert (lower, actual, lower + n // q) == bounds
    full = ZnSet(12, (1 << 12) - 1)
    assert order(project(full, 4)) == 1 and order(full) == 1


def test_projection_of_a_non_basis_can_generate():
    a = ZnSet.from_text(6, "0,2")
    assert order(a) is None
    assert order(project(a, 3)) == 2  # projection {0,2} generates Z_3


def test_projection_lower_bound_random():
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        n = rng.randrange(2, 41)
        a = ZnSet(n, rng.randrange(1, 1 << n) | 1)
        rho = order(a)
        if rho is None:
            continue
        for q in divisors(n):
            lo = order(project(a, q))
            assert lo is not None and lo <= rho
        checked += 1


def test_pipeline_trace_spec_example():
    t = pipeline_trace(ZnSet.from_text(20, "0,4,8,12,16,1"), 3)
    assert (t.j, t.h) == (0, 1)
    assert t.b == t.input_set
    assert t.m == 5 and t.s == 2 and t.s_prime == 2 and t.ap_len == 2
    assert t.branch == CASE_GENERIC
    assert t.rho == order(ZnSet.from_text(20, "0,4,8,12,16,1"))
    assert t.proj_lower_slack is not None and t.proj_lower_slack >= 0


def test_pipeline_trace_pair():
    t = pipeline_trace(ZnSet.from_text(10, "0,1"), 2)
    assert t.j == 0  # sizes 2 -> 3
    assert t.m is not None
    assert t.rho == 9 and t.exceeds_n_over_k


def test_pipeline_trace_full_group_trivial():
    t = pipeline_trace(ZnSet(6, (1 << 6) - 1), 2)
    assert t.rho == 1
    assert t.h_scaling_value == 0
    assert t.proj_lower_slack == 0
    assert t.multiple_gap == 0


def test_pipeline_trace_basis_b_is_basis():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(4, 40)
        a = ZnSet(n, rng.randrange(1, 1 << n) | 1)
        t = pipeline_trace(a, 3)
        if t.rho is not None:
            assert order(t.b) is not None  # doubling preserves generation


def test_pipeline_trace_refuses_sigma_at_most_one():
    a = ZnSet.from_text(20, "0,1,5")
    for sigma in (Fraction(1), Fraction(0), Fraction(-1), Fraction(1, 2)):
        with pytest.raises(ValueError, match=f"sigma must exceed 1, got {sigma}"):
            pipeline_trace(a, 3, sigma)
        with pytest.raises(ValueError, match=f"sigma must exceed 1, got {sigma}"):
            df_analyze(a, sigma=sigma)


def test_doubling_step_found_for_sigma_just_above_one():
    # |2^j {0,1}| = 2^j + 1 grows by a ratio above 101/100 until 2^j A is all
    # of Z_1000 (j = 10); the next doubling has ratio 1, so j = 10.
    sigma = Fraction(101, 100)
    t = pipeline_trace(ZnSet.from_text(1000, "0,1"), 2, sigma)
    assert t.j == 10 and t.h == 1 << 10
    assert list(t.doubling_sizes) == [min(2**i + 1, 1000) for i in range(12)]
    assert t.b == ZnSet(1000, (1 << 1000) - 1)
