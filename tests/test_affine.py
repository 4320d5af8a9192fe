import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from znbases import canonical_form, is_canonical, order
from znbases import affine
from znbases.affine import _orbit_size, _totient, units
from znbases.core import ZnSet, canonical_sort_key

from oracles import (
    affine_image,
    all_subsets,
    naive_canonical_form,
    naive_is_canonical,
    naive_orbit,
)


def test_canonical_form_spec_examples():
    assert canonical_form(ZnSet.from_text(7, "5,6")) == ZnSet.from_text(7, "0,1")
    with pytest.raises(ValueError, match="canonical form of an empty set"):
        canonical_form(ZnSet(7, 0))
    with pytest.raises(ValueError, match="canonicality of an empty set"):
        is_canonical(ZnSet(7, 0))
    assert canonical_form(ZnSet.from_text(7, "0,1")) == ZnSet.from_text(7, "0,1")
    assert canonical_form(ZnSet(6, (1 << 6) - 1)) == ZnSet(6, (1 << 6) - 1)


def test_orbit_spec_examples():
    assert naive_orbit(3, (0,)) == {(0,), (1,), (2,)}
    assert naive_orbit(5, range(5)) == {(0, 1, 2, 3, 4)}
    assert len(naive_orbit(5, (0, 1))) == 10
    assert affine_image(10, (0, 1, 7), 1, -1) == (0, 6, 9)
    assert affine_image(10, (0, 1, 7), 7, 3) == (0, 2, 3)


def test_canonical_form_is_idempotent_and_orbit_constant():
    rng = random.Random(7)
    for n in range(2, 15):
        for _ in range(25):
            mask = rng.randrange(1, 1 << n)
            a = ZnSet(n, mask)
            c = canonical_form(a)
            assert canonical_form(c) == c
            assert is_canonical(c)
            u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            image = affine_image(n, a.members, u, rng.randrange(n))
            assert canonical_form(ZnSet.from_members(n, image)) == c


def test_canonical_form_is_orbit_minimum_by_enumeration():
    rng = random.Random(11)
    for n in range(2, 11):
        for _ in range(10):
            a = ZnSet(n, rng.randrange(1, 1 << n))
            orb = [ZnSet.from_members(n, image) for image in naive_orbit(n, a.members)]
            c = canonical_form(a)
            assert c in orb
            assert min(orb, key=canonical_sort_key) == c


def test_order_is_affine_invariant_randomized():
    rng = random.Random(42)
    for n in range(6, 31):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for _ in range(200):
            a = ZnSet(n, rng.randrange(1, 1 << n))
            image = affine_image(n, a.members, rng.choice(units), rng.randrange(n))
            assert order(ZnSet.from_members(n, image)) == order(a)


def test_canonical_partition_recovers_powerset():
    # Expanding the orbit of each distinct canonical form tiles the nonempty
    # powerset exactly.
    for n in range(1, 11):
        reps = {}
        for members in all_subsets(n):
            a = ZnSet.from_members(n, members)
            reps.setdefault(canonical_form(a).mask, a)
        covered = []
        for mask in reps:
            covered.extend(naive_orbit(n, ZnSet(n, mask).members))
        assert len(covered) == (1 << n) - 1
        assert set(covered) == set(all_subsets(n))


def test_canonicity_agrees_with_the_plain_set_oracle_up_to_n_12():
    # Every nonempty subset, singletons and sets without 0 included, against
    # the least of all n*phi(n) images on plain Python sets.
    for n in range(1, 13):
        for members in all_subsets(n):
            a = ZnSet.from_members(n, members)
            least = naive_canonical_form(n, members)
            assert canonical_form(a).members == least, (n, members)
            assert is_canonical(a) == (members == least), (n, members)
            assert naive_is_canonical(n, members) == (members == least), (n, members)


@st.composite
def small_sets_in_zn(draw):
    n = draw(st.integers(1, 200))
    members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 8)))
    return n, tuple(sorted(members))


@settings(max_examples=60, deadline=None)
@given(small_sets_in_zn())
@example((200, (7,)))
@example((200, (0, 10, 30, 70)))  # least pair gcd 10: ten lifts per anchor pair
@example((180, (0, 6, 12, 42, 96)))
@example((200, (0, 1, 2, 3, 5, 8, 13, 21)))
def test_canonicity_agrees_with_the_plain_set_oracle_up_to_n_200(case):
    n, members = case
    a = ZnSet.from_members(n, members)
    least = naive_canonical_form(n, members)
    c = canonical_form(a)
    assert c.members == least
    assert is_canonical(a) == (members == least)
    assert is_canonical(c) and naive_is_canonical(n, least)


def test_orbit_size_counts_the_orbit_without_building_it():
    # n*phi(n) over the stabilizer, read off the anchored images, against
    # the orbit itself: every nonempty subset for n <= 10, then random sets
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            a = ZnSet(n, mask)
            assert _orbit_size(a, canonical_form(a)) == len(naive_orbit(n, a.members)), a
    rng = random.Random(60)
    for _ in range(300):
        n = rng.randint(1, 60)
        a = ZnSet.from_members(n, rng.sample(range(n), rng.randint(1, n)))
        assert _orbit_size(a, canonical_form(a)) == len(naive_orbit(n, a.members)), a
    # the orbit of {0, 1, 3} in Z_2000 has 2000*800 members, none of them built
    a = ZnSet.from_text(2000, "0,1,3")
    assert _orbit_size(a, canonical_form(a)) == 1_600_000


def test_totient_counts_the_units():
    assert [_totient(n) for n in range(1, 2001)] == [len(units(n)) for n in range(1, 2001)]


def test_orbit_size_builds_no_unit_list(monkeypatch):
    # phi(n) comes from the prime factors of n: the tuple of all 4,000,000
    # units of Z_(10^7) took 1.9 s and 174 MiB only to give its length
    def refuse(n):
        raise AssertionError("units(n) built")

    monkeypatch.setattr(affine, "units", refuse)
    a = ZnSet.from_text(10**7, "0,1,3")
    assert _orbit_size(a, a) == 4 * 10**13  # {0, 1, 3} is canonical, stabilizer 1


def test_anchored_images_keep_one_scaled_mask_alive():
    # {0, 12500, 25000} in Z_50000 has about 40,000 anchored images, one for
    # each of the 20,000 units and two anchors.  Each scaled set u*A is
    # built once for the anchors it serves and dropped; a cache of all of
    # them held about 20,000 masks of 50,000 bits, 81 MiB.
    a = ZnSet.from_members(50_000, (0, 12_500, 25_000))
    tracemalloc.start()
    try:
        assert is_canonical(a)
        assert tracemalloc.get_traced_memory()[1] < 2 << 20
        tracemalloc.reset_peak()
        assert _orbit_size(a, canonical_form(a)) == 50_000
        assert tracemalloc.get_traced_memory()[1] < 4 << 20
    finally:
        tracemalloc.stop()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda n: st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(
        lambda members: (n, tuple(sorted(members))))))
@example((60, (0, 10, 20, 30, 40, 50)))  # a coset of 10Z_60: a large stabilizer
def test_orbit_size_agrees_with_the_orbit_up_to_n_60(case):
    n, members = case
    a = ZnSet.from_members(n, members)
    assert _orbit_size(a, canonical_form(a)) == len(naive_orbit(n, members))
