import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from znbases import add_sets, h_fold, order, trajectory
from znbases.core import ZnSet

from oracles import bfs_triple_order, naive_h_fold, naive_order


def zn_subsets(min_modulus=1, max_modulus=24, nonempty=True):
    def build(draw):
        n = draw(st.integers(min_modulus, max_modulus))
        mask = draw(st.integers(1 if nonempty else 0, (1 << n) - 1))
        return ZnSet(n, mask)

    return st.composite(build)()


def test_add_sets_spec_examples():
    assert add_sets(
        ZnSet.from_text(9, "0"), ZnSet.from_text(9, "0,1,3")
    ) == ZnSet.from_text(9, "0,1,3")
    a = ZnSet.from_text(9, "0,1,3")
    assert add_sets(a, a) == ZnSet.from_text(9, "0,1,2,3,4,6")
    h = ZnSet.from_text(20, "0,4,8,12,16")
    assert add_sets(h, h) == h
    empty = ZnSet(9, 0)
    assert add_sets(empty, a) == add_sets(a, empty) == add_sets(empty, empty) == empty


def test_add_sets_modulus_mismatch():
    with pytest.raises(ValueError):
        add_sets(ZnSet.from_text(5, "0"), ZnSet.from_text(6, "0"))


@given(zn_subsets(), st.data())
def test_add_sets_commutes_and_grows(x, data):
    y = ZnSet(x.modulus, data.draw(st.integers(1, (1 << x.modulus) - 1)))
    xy = add_sets(x, y)
    assert xy == add_sets(y, x)
    assert len(xy) >= max(len(x), len(y))


def test_h_fold_spec_examples():
    assert h_fold(ZnSet.from_text(5, "0,1"), 4).is_full()
    assert h_fold(ZnSet.from_text(9, "0,1,3"), 3) == ZnSet.from_text(
        9, "0,1,2,3,4,5,6,7"
    )
    assert h_fold(ZnSet.from_text(9, "0,1,3"), 4).is_full()
    with pytest.raises(ValueError, match="h must be >= 1, got 0"):
        h_fold(ZnSet.from_text(5, "0,1"), 0)
    with pytest.raises(ValueError, match="h-fold sumset of an empty set"):
        h_fold(ZnSet(5, 0), 2)


@settings(max_examples=60)
@given(zn_subsets(max_modulus=16), st.integers(1, 8))
def test_h_fold_matches_naive(a, h):
    expected = naive_h_fold(a.modulus, a.members, h)
    assert set(h_fold(a, h)) == expected


def test_order_spec_examples():
    assert order(ZnSet.from_text(5, "0,1")) == 4
    assert order(ZnSet.from_text(9, "0,1,3")) == 4
    assert order(ZnSet.from_text(6, "0,2")) is None
    assert order(ZnSet.from_text(1, "0")) == 1
    with pytest.raises(ValueError):
        order(ZnSet(5, 0))


def test_order_matches_naive_oracle_small():
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            assert order(a) == naive_order(n, a.members), (n, a.members)


def test_trajectory_spec_examples():
    t = trajectory(ZnSet.from_text(9, "0,1,3"))
    assert t.sizes == (3, 6, 8, 9)
    assert t.order == 4 and t.stabilized is None

    t2 = trajectory(ZnSet.from_text(6, "0,2"))
    assert t2.sizes == (2, 3, 3)
    assert t2.order is None
    assert t2.stabilized == ZnSet.from_text(6, "0,2,4")

    t3 = trajectory(ZnSet.from_text(5, "0"))
    assert t3.sizes == (1, 1) and t3.stabilized == ZnSet.from_text(5, "0")


@settings(max_examples=80)
@given(zn_subsets(max_modulus=20))
def test_trajectory_nesting_and_growth(a):
    t = trajectory(a)
    assert 0 in t.base
    for prev, nxt in zip(t.levels, t.levels[1:]):
        assert prev.mask | nxt.mask == nxt.mask  # nested
        assert len(prev) < len(nxt) or nxt == prev
    assert t.order == order(a)
    if t.order is not None:
        assert t.sizes[-1] == a.modulus
        if t.order >= 2:
            assert t.sizes[-2] < a.modulus
        assert a.modulus == 1 or t.order <= a.modulus - 1


def test_trajectory_consistent_with_order_everywhere_small():
    for n in range(1, 9):
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            assert trajectory(a).order == order(a)


def test_triple_order_matches_level_loop_everywhere_small():
    """order() reads 3-element sets off their L-shaped minimum-distance
    diagram; trajectory() still iterates the levels.  Every {0, a, b} with
    n <= 60, non-bases included."""
    for n in range(3, 61):
        for a in range(1, n):
            for b in range(a + 1, n):
                t = ZnSet(n, 1 | 1 << a | 1 << b)
                assert order(t) == trajectory(t).order, (n, a, b)


@st.composite
def triples_sharing_factors(draw):
    """(n, shift, a, b) with n up to 10^5 and steps a, b that are multiples
    of proper divisors of n.  The divisor of b is coprime to that of a, so
    that many draws are bases whose steps both share a factor with n."""
    n = draw(st.integers(3, 10**5))
    divs = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divs = sorted({e for d in divs for e in (d, n // d) if e < n})
    da = draw(st.sampled_from(divs))
    db = draw(st.sampled_from([d for d in divs if math.gcd(d, da) == 1]))
    a = da * draw(st.integers(1, n // da - 1))
    b = db * draw(st.integers(1, n // db - 1))
    assume(a != b)
    return n, draw(st.integers(0, n - 1)), a, b


@settings(max_examples=80, deadline=None)
@given(triples_sharing_factors())
@example((30, 0, 10, 21))
@example((100000, 7, 1, 33334))
def test_triple_order_matches_bfs_oracle(case):
    n, shift, a, b = case
    t = ZnSet.from_members(n, {shift, (shift + a) % n, (shift + b) % n})
    assert order(t) == bfs_triple_order(n, a, b)


@st.composite
def word_boundary_sets(draw):
    """A sparse subset of Z_n, n at a 64-bit word boundary, shifted so that
    members sit on both sides of the wraparound."""
    n = draw(st.sampled_from((63, 64, 65, 127, 128)))
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    shift = draw(st.sampled_from((0, 1, n - 1, n - 2, 63 % n, 64 % n, n // 2)))
    return ZnSet.from_members(n, {(m + shift) % n for m in members})


@settings(max_examples=120, deadline=None)
@given(word_boundary_sets(), st.data())
def test_kernel_matches_oracles_at_word_boundaries(a, data):
    n = a.modulus
    y = ZnSet.from_members(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=6)))
    assert set(add_sets(a, y)) == {(u + v) % n for u in a for v in y}
    assert set(add_sets(a, a)) == naive_h_fold(n, a.members, 2)
    assert order(a) == naive_order(n, a.members)

