"""Permutation primitives: validation, the swap action, rank/unrank."""

from __future__ import annotations

import itertools
import math

import pytest

from ugconn.perms import (
    MAX_ARITY,
    MAX_STRING_ARITY,
    CapacityError,
    apply_swap,
    identity,
    parity,
    parse_perm_string,
    perm_string,
    rank_perm,
    unrank_perm,
    validate_perm,
)


def test_validate_accepts_any_ordering():
    assert validate_perm([2, 1, 4, 3]) == (2, 1, 4, 3)
    assert validate_perm((1,)) == (1,)


@pytest.mark.parametrize(
    "bad",
    [[], [0, 1, 2], [1, 1, 2], [2, 3, 4], [1, 2, 2, 4], [1, "2", 3]],
)
def test_validate_rejects_non_permutations(bad):
    with pytest.raises((ValueError, TypeError)):
        validate_perm(bad)


def test_identity():
    assert identity(5) == (1, 2, 3, 4, 5)
    assert rank_perm(identity(6)) == 0
    with pytest.raises(ValueError, match="arity"):
        identity(0)


def test_apply_swap_exchanges_positions_not_symbols():
    # positions 1 and 3 of 2314 hold symbols 2 and 1
    assert apply_swap((2, 3, 1, 4), 1, 3) == (1, 3, 2, 4)


def test_apply_swap_is_an_involution():
    p = (3, 1, 4, 2, 5)
    assert apply_swap(apply_swap(p, 2, 5), 2, 5) == p


def test_apply_swap_rejects_bad_positions():
    with pytest.raises(ValueError):
        apply_swap((1, 2, 3), 0, 2)
    with pytest.raises(ValueError):
        apply_swap((1, 2, 3), 1, 4)
    with pytest.raises(ValueError):
        apply_swap((1, 2, 3), 2, 2)
    with pytest.raises(ValueError):
        apply_swap((1, 2, 3), 3, 1)  # pairs are ordered k < l


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_matches_lexicographic_enumeration(n):
    ordered = list(itertools.permutations(range(1, n + 1)))
    for idx, p in enumerate(ordered):
        assert rank_perm(p) == idx
        assert unrank_perm(idx, n) == p


def test_rank_unrank_roundtrip_spotchecks_n8():
    for idx in [0, 1, 5039, 20160, math.factorial(8) - 1]:
        assert rank_perm(unrank_perm(idx, 8)) == idx


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        unrank_perm(24, 4)
    with pytest.raises(ValueError):
        unrank_perm(-1, 4)
    with pytest.raises(ValueError, match="arity"):
        unrank_perm(0, 0)


def test_parity_counts_transpositions_mod_2():
    assert parity(identity(4)) == 0
    assert parity(apply_swap(identity(4), 1, 2)) == 1
    assert parity((2, 3, 1)) == 0  # 3-cycle is even


def test_parity_agrees_with_inversion_count():
    for p in itertools.permutations(range(1, 5)):
        inv = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if p[i] > p[j]
        )
        assert parity(p) == inv % 2


def test_perm_string_roundtrip():
    assert perm_string((2, 1, 4, 3)) == "2143"
    assert parse_perm_string("2143") == (2, 1, 4, 3)
    nine = tuple(range(9, 0, -1))
    assert parse_perm_string(perm_string(nine)) == nine


def test_parse_perm_string_rejects_garbage():
    for text in ["", "12a4", "1224", "120", "10,2"]:
        with pytest.raises(ValueError):
            parse_perm_string(text)


def test_string_capacity_is_single_digit_only():
    assert MAX_STRING_ARITY == 9
    with pytest.raises(CapacityError):
        perm_string(tuple(range(1, 11)))


def test_arity_capacity():
    assert MAX_ARITY == 8
    assert len(unrank_perm(0, MAX_ARITY)) == MAX_ARITY
