"""Shared test utilities: paths and random candidate generators."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from relrep import (ColoredPartition, ElementSet, GroupSpec, PrecheckReport,
                    cayley_coloring, equivalence_classes, induced_partition,
                    parse_bitstrings, sumset, weight_class)
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


def _identity_check(name: str, actual: ElementSet, expected: ElementSet) -> IdentityCheck:
    if actual == expected:
        return IdentityCheck(name, True, f"holds with {len(actual)} elements")
    return IdentityCheck(name, False, f"{len(expected - actual)} missing, "
                                      f"{len(actual - expected)} unexpected")


def dense_precheck(k: int, t: int) -> PrecheckReport:
    """``precheck(k, t)`` from the three sumsets over (Z/2)^k themselves.

    The oracle of ``precheck``, which derives the same report, detail strings
    included, from weight arithmetic alone: X = weights 1..t and C = weights
    t+1..k must give X+X = G, X+C = G minus 0 and C+C = G minus C.
    """
    group = GroupSpec.power(2, k)
    low = weight_class(group, 1, t)
    high = weight_class(group, t + 1, k)
    everything = ElementSet.full(group)
    nonzero = everything - ElementSet.singleton(group, 0)
    checks = (_identity_check("X+X = G", sumset(low, low), everything),
              _identity_check("X+C = G minus 0", sumset(low, high), nonzero),
              _identity_check("C+C = G minus C", sumset(high, high), everything - high))
    return PrecheckReport(k, t, len(low), len(high), checks, all(c.holds for c in checks))
