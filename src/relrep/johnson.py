"""Johnson-scheme universes, random equitable colorings and the size bound.

The universe for parameter n is the family of n-element subsets of a ground
set of size 3n-4.  A random split of the universe into three equal classes
induces an edge coloring (same class = b, big intersection = a, small = c)
whose failure probability admits a closed-form bound; the calculator here
reproduces the minimal sufficient n = 13 exactly.

``mc_trial`` brute-force verifies such colorings, and under this reading
they provably reject: same-class points x, y meeting in s elements leave
n - 4 + s ground elements outside x | y, a b,c,c witness z needs n - 2 of
them, so a same-class pair with s <= 1 has none.  At n = 5 and 6 every class
holds such a pair, since it is larger than any family of n-sets that pairwise
meet in two or more elements.  ``mc_trial`` is a stress workload for the
brute-force verifier, not a check of the paper's construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import IDENTITY, builtin_52_65
from .verify import (EdgeColoring, VerificationReport, _row_blocks, check_coloring_memory,
                     verify_bruteforce)

ATOM_SAME_CLASS = "b"
ATOM_BIG_MEET = "a"
ATOM_SMALL_MEET = "c"


class JohnsonUniverse:
    """All n-subsets of {0, .., 3n-5}, indexed by colexicographic rank."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("subset size n must be at least 2")
        self.n = n
        self.ground_size = 3 * n - 4
        self.size = math.comb(self.ground_size, n)

    def rank(self, subset) -> int:
        """Colex rank: sum of C(c_i, i+1) over the sorted elements c_i."""
        elems = sorted(int(x) for x in subset)
        if len(elems) != self.n or len(set(elems)) != self.n:
            raise ValueError(f"expected {self.n} distinct elements, got {subset!r}")
        if elems[0] < 0 or elems[-1] >= self.ground_size:
            raise ValueError(f"elements out of ground range [0, {self.ground_size})")
        return sum(math.comb(c, i + 1) for i, c in enumerate(elems))

    def unrank(self, r: int) -> tuple[int, ...]:
        r = int(r)
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range [0, {self.size})")
        out = []
        for i in range(self.n, 0, -1):
            c = i - 1
            while math.comb(c + 1, i) <= r:
                c += 1
            out.append(c)
            r -= math.comb(c, i)
        return tuple(reversed(out))

    @cached_property
    def point_bitmasks(self) -> np.ndarray:
        """uint32 bitmask of every point, indexed by rank (ground size <= 32).

        Colex order of n-subsets is the increasing order of their bitmasks, so
        the masks are the ground-size-bit integers of popcount n, ascending.
        """
        if self.ground_size > 32:
            raise ValueError(f"point bitmasks are uint32: ground size {self.ground_size} "
                             f"(n = {self.n}) is over 32")
        every = np.arange(1 << self.ground_size, dtype=np.uint32)
        masks = every[np.bitwise_count(every) == self.n]
        masks.setflags(write=False)
        return masks

    def __repr__(self) -> str:
        return f"JohnsonUniverse(n={self.n}, ground={self.ground_size}, size={self.size})"


@dataclass(frozen=True)
class EquitablePartition:
    """Assignment of every point rank to one of three equal-size classes."""

    assignment: np.ndarray

    def __post_init__(self):
        counts = np.bincount(self.assignment, minlength=3)
        if len(counts) != 3 or counts.min() != counts.max():
            raise ValueError(f"classes are not three equal sizes: {counts.tolist()}")
        self.assignment.setflags(write=False)

    @property
    def class_size(self) -> int:
        return self.assignment.size // 3


def random_equitable_partition(u: JohnsonUniverse, seed) -> EquitablePartition:
    """Uniform random split of the universe into three labeled equal classes.

    A seeded Fisher-Yates shuffle of the point ranks is cut into thirds, which
    is uniform over labeled equitable partitions and deterministic per seed.
    Seeds may be ints or sequences of ints (e.g. (base_seed, trial_index)).
    """
    if u.size % 3 != 0:
        raise ValueError(f"universe size {u.size} is not divisible by 3")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(u.size)
    assignment = np.zeros(u.size, dtype=np.int8)
    third = u.size // 3
    assignment[perm[third:2 * third]] = 1
    assignment[perm[2 * third:]] = 2
    return EquitablePartition(assignment)


def classify(u: JohnsonUniverse, part: EquitablePartition, x: int, y: int) -> str:
    """Atom name for the point pair (x, y), given as ranks.

    Same-class pairs are b regardless of intersection size; the intersection
    rule (a for >= 2, c for <= 1) applies only across classes, which makes the
    three relations disjoint.  Under this reading a same-class pair meeting
    in at most one element has no b,c,c witness, so 52_65 fails.
    """
    if x == y:
        return IDENTITY
    if part.assignment[x] == part.assignment[y]:
        return ATOM_SAME_CLASS
    meet = set(u.unrank(x)) & set(u.unrank(y))
    return ATOM_BIG_MEET if len(meet) >= 2 else ATOM_SMALL_MEET


def acc_witness_family(u: JohnsonUniverse, x: int, y: int) -> list[int]:
    """The (n-2)^2 points z with |x n z| <= 1 and |z n y| <= 1, for |x n y| = 2.

    Each z keeps everything outside x and y plus one private element of each;
    these are the candidate witnesses for the worst-case composition need of
    an a-colored edge through two c-colored edges.
    """
    xs, ys = set(u.unrank(x)), set(u.unrank(y))
    if len(xs & ys) != 2:
        raise ValueError(f"witness family needs |x n y| = 2, got {len(xs & ys)}")
    outside = sorted(set(range(u.ground_size)) - xs - ys)
    family = []
    for x_only in sorted(xs - ys):
        for y_only in sorted(ys - xs):
            family.append(u.rank(tuple(outside) + (x_only, y_only)))
    return family


@dataclass(frozen=True)
class BoundResult:
    n: int
    log_value: float  # natural log of binom^2 * 4^3 * (2/3)^((n-2)^2)
    below_one: bool
    binomial: int  # exact C(3n-4, n)

    def to_dict(self) -> dict:
        return {"n": self.n,
                "log_bound": self.log_value,
                "log10_bound": self.log_value / math.log(10),
                "below_one": self.below_one,
                "binomial": self.binomial}


def probability_bound(n: int) -> BoundResult:
    """Log-space value of C(3n-4, n)^2 * 4^3 * (2/3)^((n-2)^2)."""
    if n < 3:
        raise ValueError("the bound is defined for n >= 3")
    v = 3 * n - 4
    log_binom = math.lgamma(v + 1) - math.lgamma(n + 1) - math.lgamma(v - n + 1)
    log_value = 2 * log_binom + 3 * math.log(4) + (n - 2) ** 2 * math.log(2 / 3)
    return BoundResult(n, log_value, log_value < 0, math.comb(v, n))


def minimal_sufficient_n(limit: int = 200) -> int:
    """Smallest n >= 3 whose bound falls below one."""
    for n in range(3, limit + 1):
        if probability_bound(n).below_one:
            return n
    raise ValueError(f"no n <= {limit} has a bound below one")


def partition_count(universe_size: int) -> int:
    """Number of equitable 3-splits: (1/2) C(U, U/3) C(2U/3, U/3), as printed."""
    if universe_size <= 0:
        raise ValueError("universe size must be positive")
    if universe_size % 3 != 0:
        raise ValueError(f"universe size {universe_size} is not divisible by 3")
    third = universe_size // 3
    # even because C(2t, t) is even for t >= 1
    return math.comb(universe_size, third) * math.comb(2 * third, third) // 2


def partition_coloring(u: JohnsonUniverse, part: EquitablePartition) -> EdgeColoring:
    """The edge coloring induced by classify over all point pairs.

    Built by row blocks: a block's meet sizes are the popcounts of its points'
    bitmasks ANDed with every point's, so beside the int8 codes only
    temporaries of one row block are held.
    """
    names = (IDENTITY, ATOM_BIG_MEET, ATOM_SAME_CLASS, ATOM_SMALL_MEET)
    check_coloring_memory(u.size, len(names) - 1)
    if part.assignment.size != u.size:
        raise ValueError("partition does not match universe size")
    masks, classes = u.point_bitmasks, part.assignment
    codes = np.full((u.size, u.size), names.index(ATOM_SMALL_MEET), dtype=np.int8)
    for rows in _row_blocks(u.size):
        block = codes[rows]
        block[np.bitwise_count(masks[rows, None] & masks) >= 2] = names.index(ATOM_BIG_MEET)
        block[classes[rows, None] == classes] = names.index(ATOM_SAME_CLASS)
    np.fill_diagonal(codes, 0)
    return EdgeColoring(names, codes)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    accepted: bool
    violation_count: int
    counts_by_cycle: dict[str, int]

    def to_dict(self) -> dict:
        return {"trial": self.index,
                "verdict": "accept" if self.accepted else "reject",
                "violation_count": self.violation_count,
                "counts_by_cycle": dict(sorted(self.counts_by_cycle.items()))}


@dataclass(frozen=True)
class McReport:
    n: int
    seed: int
    universe_size: int
    class_size: int
    records: tuple[TrialRecord, ...]

    def to_dict(self) -> dict:
        return {"n": self.n,
                "seed": self.seed,
                "universe_size": self.universe_size,
                "class_size": self.class_size,
                "trials": len(self.records),
                "records": [r.to_dict() for r in self.records]}


def mc_trial(n: int, trials: int, seed: int) -> McReport:
    """Sample equitable partitions and brute-force verify each against 52_65.

    Every trial at n = 5 and 6 rejects (see the module docstring), so this is
    a stress workload for ``verify_bruteforce`` at large N, not evidence for
    or against the probabilistic construction.  Trial t uses the derived seed
    (seed, t), so trials are independent and the whole report is deterministic
    for a fixed base seed.  A universe whose coloring exceeds
    ``verify.MEMORY_BUDGET`` (n = 6 fits, n = 8 does not) raises
    ``MemoryGuardError`` before its O(N) shuffle, 12 GB at n = 13, is drawn.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    u = JohnsonUniverse(n)
    if u.size % 3 != 0:
        raise ValueError(f"universe size {u.size} is not divisible by 3")
    spec = builtin_52_65()
    check_coloring_memory(u.size, len(spec.diversity_atoms))
    records = []
    for t in range(trials):
        part = random_equitable_partition(u, (seed, t))
        coloring = partition_coloring(u, part)
        report: VerificationReport = verify_bruteforce(
            spec, coloring, early_exit=False, max_recorded=10)
        records.append(TrialRecord(t, report.accepted, report.violation_count,
                                   dict(report.counts_by_cycle)))
    return McReport(n, seed, u.size, u.size // 3, tuple(records))
