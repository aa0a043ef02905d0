"""Shared test utilities: paths and random candidate generators."""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from relrep import (ColoredPartition, ElementSet, GroupSpec, PrecheckReport,
                    cayley_coloring, equivalence_classes, induced_partition,
                    parse_bitstrings)
from relrep.gf2 import IdentityCheck

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

# groups for sumset property tests: both kernel paths, one and several cyclic factors
PAIR_GROUPS = st.one_of(
    st.integers(1, 8).map(lambda k: GroupSpec.power(2, k)),
    st.integers(2, 60).map(GroupSpec.cyclic),
    st.sampled_from([GroupSpec((3, 5)), GroupSpec((2, 4, 3))]),
)


def random_symmetric_partition(group: GroupSpec, names, rng: np.random.Generator,
                               allow_empty: bool = True) -> ColoredPartition:
    """Assign each {x, -x} orbit of nonzero elements to a uniformly random atom."""
    buckets = {n: [] for n in names}
    for x in range(1, group.order):
        neg = group.neg(x)
        if x <= neg:
            pick = names[int(rng.integers(len(names)))]
            buckets[pick].append(x)
            if neg != x:
                buckets[pick].append(neg)
    if not allow_empty and any(not v for v in buckets.values()):
        return random_symmetric_partition(group, names, rng, allow_empty)
    return ColoredPartition(group, {
        n: ElementSet.from_indices(group, v) for n, v in buckets.items()})


def fixture_classes_oracle(bitstrings):
    """(classes_ok, class_count, class_size) of a fixture read off its Cayley coloring.

    The b-classes come from ``equivalence_classes`` on the N^2 coloring of the
    induced partition, independently of the closure check that
    ``validate_fixture`` reads them from; the fixture's weights must lie in
    the low shell of k, the length of its bitstrings.
    """
    k = len(bitstrings[0])
    group = GroupSpec.power(2, k)
    with_zero = ElementSet.from_indices(group, parse_bitstrings(bitstrings, k) + [0])
    result = equivalence_classes(cayley_coloring(induced_partition(group, with_zero)), "b")
    if not result.is_equivalence:
        return False, None, None
    sizes = {len(c) for c in result.classes}
    count = len(result.classes)
    size = sizes.pop() if len(sizes) == 1 else None
    return size == len(with_zero) and count * len(with_zero) == group.order, count, size


@functools.cache
def _binomials(k: int) -> np.ndarray:
    return np.array([math.comb(k, w) for w in range(k + 1)], dtype=object)


def weight_class_precheck(k: int, t: int) -> PrecheckReport:
    """``precheck(k, t)`` from weight arithmetic alone, with no group element.

    Vectors of weights a and b that share o ones sum to weight a + b - 2o, for
    every o from max(0, a + b - k) to min(a, b).  Every set the precheck compares
    is a union of weight classes, held here as a mask over the weights 0..k; a
    set's size is the sum of its classes' binomials.
    """
    binomials = _binomials(k)
    weights = np.arange(k + 1)
    width = k + 4 - k % 2  # even, and past the largest range end k + 2

    def plus(a_lo, a_hi, b_lo, b_hi):
        # a pair (a, b = s - a) reaches |a - b|..min(s, 2k - s) in steps of 2; the
        # pairs of one sum s share that top, so they reach it from the smallest |2a - s|
        s = np.arange(a_lo + b_lo, a_hi + b_hi + 1)
        nearest = np.clip(s // 2, np.maximum(a_lo, s - b_hi), np.minimum(a_hi, s - b_lo))
        bottom, top = np.abs(2 * nearest - s), np.minimum(s, 2 * k - s)
        steps = np.bincount(bottom, minlength=width) - np.bincount(top + 2, minlength=width)
        return steps.reshape(-1, 2).cumsum(axis=0).ravel()[:k + 1] > 0  # per parity

    def check(name, actual, expected):
        if (actual == expected).all():
            return IdentityCheck(name, True, f"holds with {binomials[actual].sum()} elements")
        return IdentityCheck(name, False, f"{binomials[expected & ~actual].sum()} missing, "
                                          f"{binomials[actual & ~expected].sum()} unexpected")

    high = weights > t
    checks = (check("X+X = G", plus(1, t, 1, t), weights >= 0),
              check("X+C = G minus 0", plus(1, t, t + 1, k), weights > 0),
              check("C+C = G minus C", plus(t + 1, k, t + 1, k), ~high))
    return PrecheckReport(k, t, binomials[1:t + 1].sum(), binomials[high].sum(), checks,
                          all(c.holds for c in checks))
