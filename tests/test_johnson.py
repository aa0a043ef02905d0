"""Johnson universes, classification, the size bound, and the MC harness."""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import relrep.verify
from relrep import (EquitablePartition, JohnsonUniverse, acc_witness_family,
                    classify, mc_trial, minimal_sufficient_n, partition_coloring,
                    partition_count, probability_bound,
                    random_equitable_partition)
from relrep.groups import MemoryGuardError
from relrep.johnson import ATOM_BIG_MEET, ATOM_SAME_CLASS, ATOM_SMALL_MEET


# -- universe indexing -------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_point_bitmasks_match_rank(n):
    u = JohnsonUniverse(n)
    masks = u.point_bitmasks
    assert masks.dtype == np.uint32 and masks.size == u.size
    for subset in combinations(range(u.ground_size), n):
        assert masks[u.rank(subset)] == sum(1 << c for c in subset)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_unrank_bijection_exhaustive(n):
    u = JohnsonUniverse(n)
    assert u.size == math.comb(3 * n - 4, n)
    seen = set()
    for r in range(u.size):
        point = u.unrank(r)
        assert len(point) == n
        assert u.rank(point) == r
        seen.add(point)
    assert len(seen) == u.size


def test_rank_validation():
    u = JohnsonUniverse(5)
    with pytest.raises(ValueError):
        u.rank((0, 1, 2))
    with pytest.raises(ValueError):
        u.rank((0, 1, 2, 3, 11))
    with pytest.raises(ValueError):
        u.rank((0, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        u.unrank(u.size)


def test_point_bitmasks_have_weight_n():
    u = JohnsonUniverse(5)
    masks = u.point_bitmasks
    assert masks.size == 462
    assert len(set(masks.tolist())) == 462
    assert all(int(m).bit_count() == 5 for m in masks[:20])


def test_point_bitmasks_refuse_a_ground_set_over_32_bits():
    # n = 13 is the paper's first n with bound < 1; its ground set has 35 elements,
    # so its masks need 2^35 uint32 candidates and do not fit in 32 bits
    u = JohnsonUniverse(13)
    assert u.ground_size == 35
    with pytest.raises(ValueError, match="ground size 35"):
        u.point_bitmasks


# -- classification -----------------------------------------------------------


def _partition_with_distinct_classes(u, x, y):
    """Equitable partition via rotation, shifted so x and y land in
    different classes."""
    for shift in range(3):
        assignment = ((np.arange(u.size) + shift) % 3).astype(np.int8)
        part = EquitablePartition(assignment)
        if part.assignment[x] != part.assignment[y]:
            return part
    raise AssertionError("unreachable for x != y")


def test_classify_rules():
    u = JohnsonUniverse(5)
    x = u.rank((0, 1, 2, 3, 4))
    disjoint = u.rank((5, 6, 7, 8, 9))
    near = u.rank((0, 1, 2, 3, 5))  # meets x in 4 = n-1 elements
    part = _partition_with_distinct_classes(u, x, disjoint)
    assert classify(u, part, x, x) == "1'"
    assert classify(u, part, x, disjoint) == "c"
    part2 = _partition_with_distinct_classes(u, x, near)
    assert classify(u, part2, x, near) == "a"
    # same-class pairs are b regardless of intersection size
    same = EquitablePartition(((np.arange(u.size)) % 3).astype(np.int8))
    ranks = [r for r in range(u.size) if same.assignment[r] == same.assignment[x]]
    other = next(r for r in ranks if r != x)
    assert classify(u, same, x, other) == "b"


def test_equitable_partition_validation():
    with pytest.raises(ValueError):
        EquitablePartition(np.zeros(6, dtype=np.int8))
    with pytest.raises(ValueError):
        EquitablePartition(np.array([0, 1, 2, 2], dtype=np.int8))


def test_random_equitable_partition_deterministic_and_balanced():
    u = JohnsonUniverse(5)
    p1 = random_equitable_partition(u, 99)
    p2 = random_equitable_partition(u, 99)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert p1.class_size == 154
    assert np.bincount(p1.assignment).tolist() == [154, 154, 154]
    p3 = random_equitable_partition(u, 100)
    assert not np.array_equal(p1.assignment, p3.assignment)


def test_equitable_partition_needs_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        random_equitable_partition(JohnsonUniverse(4), 0)  # C(8,4) = 70


# -- witness families ------------------------------------------------------------


def test_witness_family_at_n13_has_121_members():
    u = JohnsonUniverse(13)
    x = tuple(range(13))
    y = tuple(range(11, 24))  # meets x in {11, 12}
    family = acc_witness_family(u, u.rank(x), u.rank(y))
    assert len(family) == len(set(family)) == 121
    z = u.unrank(family[0])
    assert len(z) == 13


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_witness_family_properties(n):
    u = JohnsonUniverse(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        shared = rng.choice(u.ground_size, size=2, replace=False)
        rest = [g for g in range(u.ground_size) if g not in shared]
        rng.shuffle(rest)
        x = tuple(shared) + tuple(rest[:n - 2])
        y = tuple(shared) + tuple(rest[n - 2:2 * (n - 2)])
        xr, yr = u.rank(x), u.rank(y)
        family = acc_witness_family(u, xr, yr)
        assert len(family) == len(set(family)) == (n - 2) ** 2
        for zr in family:
            z = set(u.unrank(zr))
            assert len(z & set(x)) <= 1
            assert len(z & set(y)) <= 1


def test_witness_family_requires_meet_of_two():
    u = JohnsonUniverse(5)
    x = u.rank((0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="= 2"):
        acc_witness_family(u, x, x)


def test_witnesses_classify_c_when_classes_differ():
    u = JohnsonUniverse(5)
    x = (0, 1, 2, 3, 4)
    y = (0, 1, 5, 6, 7)
    xr, yr = u.rank(x), u.rank(y)
    part = random_equitable_partition(u, 5)
    for zr in acc_witness_family(u, xr, yr):
        if (part.assignment[zr] != part.assignment[xr]
                and part.assignment[zr] != part.assignment[yr]):
            assert classify(u, part, xr, zr) == "c"
            assert classify(u, part, zr, yr) == "c"


# -- the probability bound ----------------------------------------------------------


def _exact_bound(n) -> Fraction:
    return (Fraction(math.comb(3 * n - 4, n)) ** 2 * 64
            * Fraction(2, 3) ** ((n - 2) ** 2))


@pytest.mark.parametrize("n", range(3, 21))
def test_bound_matches_exact_rational_oracle(n):
    result = probability_bound(n)
    exact = _exact_bound(n)
    assert result.below_one == (exact < 1)
    assert result.binomial == math.comb(3 * n - 4, n)
    exact_log = math.log(exact.numerator) - math.log(exact.denominator)
    assert abs(result.log_value - exact_log) <= 1e-9 * abs(exact_log)


def test_bound_edge_values():
    assert probability_bound(13).binomial == 1476337800
    assert probability_bound(13).below_one
    assert not probability_bound(12).below_one
    assert not probability_bound(3).below_one
    assert _exact_bound(3) == Fraction(10) ** 2 * 64 * Fraction(2, 3)
    with pytest.raises(ValueError):
        probability_bound(2)


def test_minimal_sufficient_n_is_13():
    n = minimal_sufficient_n()
    assert n == 13
    assert probability_bound(n).below_one
    assert not probability_bound(n - 1).below_one


def test_minimal_sufficient_n_below_13_is_a_value_error():
    with pytest.raises(ValueError, match="12"):
        minimal_sufficient_n(12)
    assert minimal_sufficient_n(13) == 13


def test_partition_count_values():
    assert partition_count(3) == 3
    assert partition_count(6) == 45
    # independent check: half of C(6,2) * C(4,2) = 15 * 6 / 2
    assert partition_count(6) == math.comb(6, 2) * math.comb(4, 2) // 2
    with pytest.raises(ValueError):
        partition_count(0)
    with pytest.raises(ValueError):
        partition_count(7)


# -- Monte Carlo harness ---------------------------------------------------------------


def test_mc_trial_deterministic():
    a = mc_trial(5, 2, seed=123)
    b = mc_trial(5, 2, seed=123)
    assert a.to_dict() == b.to_dict()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.universe_size == 462 and a.class_size == 154
    assert len(a.records) == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_trial_bcc_count_covers_small_meet_same_class_pairs(seed):
    # same-class x, y with |x n y| <= 1 have no b,c,c witness: z would need
    # n - 2 elements outside x u y, and only n - 4 + |x n y| <= n - 3 are there
    u = JohnsonUniverse(5)
    part = random_equitable_partition(u, (seed, 0))  # mc_trial's trial 0
    masks = u.point_bitmasks
    meets = np.bitwise_count(masks[:, None] & masks[None, :])
    same = part.assignment[:, None] == part.assignment[None, :]
    small_meet_pairs = int((same & (meets <= 1)).sum())
    assert small_meet_pairs > 0
    record = mc_trial(5, 1, seed=seed).records[0]
    assert record.counts_by_cycle["b,c,c"] >= small_meet_pairs


def test_mc_trial_guards():
    with pytest.raises(ValueError, match="divisible"):
        mc_trial(4, 1, seed=0)
    with pytest.raises(MemoryGuardError, match="guard"):
        mc_trial(8, 1, seed=0)  # C(20,8) = 125970 points
    assert mc_trial(5, 0, seed=0).records == ()


def _one_shot_codes(u, part, names):
    """The coloring's codes from whole N x N meet and class matrices: the
    oracle of the row-blocked build."""
    masks = u.point_bitmasks
    meets = np.bitwise_count(masks[:, None] & masks[None, :])
    codes = np.full((u.size, u.size), names.index(ATOM_SMALL_MEET), dtype=np.int8)
    codes[meets >= 2] = names.index(ATOM_BIG_MEET)
    codes[part.assignment[:, None] == part.assignment[None, :]] = names.index(ATOM_SAME_CLASS)
    np.fill_diagonal(codes, 0)
    return codes


@pytest.mark.parametrize("rows", [1, 100, 462])  # 100: a ragged last block of 62 rows
def test_partition_coloring_blocks_match_the_one_shot_formula(rows, monkeypatch):
    u = JohnsonUniverse(5)
    monkeypatch.setattr(relrep.verify, "_ROW_BLOCK_CELLS", rows * u.size)
    part = random_equitable_partition(u, 11)
    col = partition_coloring(u, part)
    assert np.array_equal(col.colors, _one_shot_codes(u, part, col.atom_names))


def test_partition_coloring_matches_scalar_classify():
    # the builder skips the coloring check, so its output is checked here
    u = JohnsonUniverse(5)
    part = random_equitable_partition(u, 7)
    col = partition_coloring(u, part)
    col.validate()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y = (int(v) for v in rng.integers(0, u.size, 2))
        assert col.atom_names[col.colors[x, y]] == classify(u, part, x, y)


def test_partition_coloring_is_well_formed_at_n6():
    # the other size with equitable partitions that the CLI runs (n = 3 and 4
    # have none: 10 and 70 points)
    u = JohnsonUniverse(6)
    partition_coloring(u, random_equitable_partition(u, 3)).validate()
