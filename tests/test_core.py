import ast
import fractions
import random
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from znbases import core, divisors, is_basis, nlr, order
from znbases.core import (
    ZnSet,
    _literal_members,
    canonical_sort_key,
    encode,
    format_fraction,
    format_order,
    mask_less,
)

from oracles import all_subsets


def test_nlr_spec_values():
    assert nlr(7, 10) == -3
    assert nlr(5, 10) == 5
    assert nlr(22, 9) == 4


def test_nlr_range_and_congruence():
    for n in range(1, 30):
        for x in range(-2 * n, 2 * n + 1):
            r = nlr(x, n)
            assert -n < 2 * r <= n
            assert (r - x) % n == 0


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(-50, 50))
def test_nlr_representative_invariance(x, n, k):
    assert nlr(x + k * n, n) == nlr(x, n)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_znset_construction_and_queries():
    a = ZnSet.from_members(9, [0, 1, 3])
    assert len(a) == 3
    assert 3 in a and 2 not in a
    assert a.members == (0, 1, 3)
    assert a.to_text() == "0,1,3"
    assert ZnSet.from_text(9, "0, 1, 3") == a
    assert ZnSet.from_text(9, "0;1;3") == a


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10_000), st.sampled_from((0, 1, 8, 64, 128, 512, 1024)), st.integers(0, 2**32))
@example(60, 1024, 0)     # all of Z_60: flag bytes
@example(60, 64, 3)       # 4 members of Z_60: the loop
@example(10_000, 64, 1)   # about 625 members at density 1/16: flag bytes
@example(2_000, 64, 2)    # about 125 members at density 1/16: the loop
def test_members_decode_matches_a_scan_of_every_residue(n, per_1024, seed):
    # each residue is a member with probability per_1024/1024, so the cases
    # fall on both sides of the rule that picks the flag bytes or the loop
    rng = random.Random(seed)
    mask = sum(1 << i for i in range(n) if rng.randrange(1024) < per_1024)
    assert ZnSet(n, mask).members == tuple(i for i in range(n) if mask >> i & 1)


def test_fraction_is_read_from_core_on_demand():
    # core imports fractions when core.Fraction is first read, and keeps the
    # class, so a hot loop pays a dict lookup and no import statement
    assert core.Fraction is fractions.Fraction
    assert vars(core)["Fraction"] is fractions.Fraction
    with pytest.raises(AttributeError, match="has no attribute 'Rational'"):
        core.Rational


def test_znset_parse_rejects_bad_literals():
    with pytest.raises(ValueError):
        ZnSet.from_text(5, "0,5")
    with pytest.raises(ValueError):
        ZnSet.from_text(5, "1,1")
    with pytest.raises(ValueError):
        ZnSet.from_members(5, [-1])
    with pytest.raises(ValueError, match=r"membership mask has bits outside \[0, modulus\)"):
        ZnSet(5, 1 << 5)


def test_set_literal_token_rules_are_shared():
    for noun, parse in (("residue", lambda t: ZnSet.from_text(10, t).members),
                        ("member", lambda t: tuple(_literal_members(t.strip(), "member")))):
        assert parse(" 0; 1 ,3") == (0, 1, 3)
        for text, token in (("0,x", "x"), ("0,1,3,", ""), (",,", ""), ("0, 2.5,3", "2.5")):
            with pytest.raises(ValueError) as err:
                parse(text)
            assert str(err.value) == f"{noun} {token!r} in set literal {text!r} is not an integer"
        with pytest.raises(ValueError, match=f"duplicate {noun} 1 in set literal"):
            parse("0,1,1,3")


@pytest.mark.parametrize("n", [0, -5])
def test_znset_constructors_name_a_nonpositive_modulus(n):
    for build in (lambda: ZnSet.from_text(n, "0"), lambda: ZnSet.from_members(n, [0])):
        with pytest.raises(ValueError, match=f"modulus must be positive, got {n}"):
            build()


def test_znset_rotate_wraps():
    a = ZnSet.from_members(6, [0, 4, 5])
    assert a.rotate(2) == ZnSet.from_members(6, [2, 0, 1])
    assert a.rotate(6) == a
    assert a.rotate(-1) == ZnSet.from_members(6, [5, 3, 4])


def test_basis_criterion_spec_examples():
    assert not is_basis(ZnSet.from_members(6, [0, 2]))
    assert not is_basis(ZnSet.from_members(5, [1]))
    assert is_basis(ZnSet.from_members(6, [0, 2, 3]))
    assert is_basis(ZnSet.from_members(1, [0]))
    assert not is_basis(ZnSet(4, 0))


def test_basis_criterion_matches_sumset_engine_exhaustively():
    # The gcd-of-differences criterion must agree with "the trajectory
    # reaches the full group" on every subset of every Z_n up to 12.
    for n in range(1, 13):
        for members in all_subsets(n):
            a = ZnSet.from_members(n, members)
            assert is_basis(a) == (order(a) is not None), (n, members)


def test_mask_less_prefers_low_members():
    n = 7
    a = ZnSet.from_members(n, [0, 1]).mask
    b = ZnSet.from_members(n, [0, 2]).mask
    c = ZnSet.from_members(n, [5, 6]).mask
    assert mask_less(a, b)
    assert mask_less(a, c)
    assert not mask_less(b, a)
    assert not mask_less(a, a)


def test_order_and_fraction_tokens_round_trip():
    assert format_order(None) == "inf" and encode(None) is None
    assert format_order(7) == "7" and encode(7) == 7
    assert format_fraction(Fraction(22, 4)) == "11/2"
    assert format_fraction(Fraction(8, 4)) == "2"
    assert encode(Fraction(22, 4)) == "11/2" and Fraction("11/2") == Fraction(11, 2)
    # a Fraction is a string even when whole; ints and bools pass through
    assert encode(Fraction(8, 4)) == "2" and encode(2) == 2 and encode(True) is True
    assert encode(ZnSet.from_members(9, [0, 1, 3])) == "0,1,3"
    assert encode({"gaps": ((4, 5),), "ok": True}) == {"gaps": [[4, 5]], "ok": True}


@given(st.fractions(max_denominator=10**6))
def test_fraction_format_round_trip(f):
    assert Fraction(format_fraction(f)) == f
    assert Fraction(encode(f)) == f


def test_canonical_sort_key_agrees_with_mask_less():
    def cmp(a, b):
        return -1 if mask_less(a.mask, b.mask) else (1 if mask_less(b.mask, a.mask) else 0)

    for n in range(1, 9):
        sets = [ZnSet(n, mask) for mask in range(1 << n)]
        keys = [canonical_sort_key(a) for a in sets]
        assert all(isinstance(k, int) for k in keys)
        assert len(set(keys)) == len(sets)
        assert sorted(sets, key=canonical_sort_key) == sorted(sets, key=cmp_to_key(cmp))


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert, so library invariants must raise explicitly,
    # and with RuntimeError: AssertionError is what a failed assert raises.
    src = Path(__file__).resolve().parent.parent / "src" / "znbases"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
        assert found == [], f"{path.name}: assert or raise AssertionError at lines {found}"
