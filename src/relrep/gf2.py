"""Weight-class constructions over (Z/2Z)^k and the randomized subgroup search.

The 52_65 recipe at dimension k splits the nonzero vectors into a low-weight
shell X (weights 1..t, t = default_threshold(k)) and its complement C; a
subgroup H whose nonzero part stays inside X yields the candidate coloring
b = H\\{0}, a = X\\H, c = C.
Finding a large enough H is the hard part, so this module offers a seeded
restart search with greedy basis growth and optional backtracking.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import builtin_52_65, content_lines
from .groups import (ElementSet, GroupSpec, first_repeat, hamming_weights, sumset,
                     weight_class)
from .verify import ColoredPartition, VerificationReport, verify_sumsets


def default_threshold(k: int) -> int:
    """The weight cutoff t of the split at dimension k: floor(2(k-1)/3).

    No other t can pass the precheck, and this one passes exactly when
    k = 1 (mod 3), k >= 4; `precheck` proves both.  Below k = 3 the split has
    no cutoff t >= 1, so those dimensions are refused here.
    """
    if k < 3:
        raise ValueError(f"dimension k = {k} must be at least 3")
    return 2 * (k - 1) // 3


def _weight_split(group: GroupSpec) -> tuple[ElementSet, ElementSet]:
    """The split's X (weights 1..t) and C (weights t+1..k) on the given (Z/2)^k,
    t = default_threshold(k)."""
    t = default_threshold(group.rank)
    return weight_class(group, 1, t), weight_class(group, t + 1, group.rank)


def parse_bitstrings(lines, k: int) -> list[int]:
    """Element indices from k-character bitstring lines ('#' starts a comment)."""
    texts = [text for _, text in content_lines(lines)]
    values = GroupSpec.power(2, k).parse_elements(texts)
    repeat = first_repeat(values)
    if repeat is not None:
        raise ValueError(f"duplicate element {texts[repeat]!r}")
    return values.tolist()


def shipped_subgroup_bitstrings() -> list[str]:
    """The bundled 63-element fixture for k = 10 (data/h52_k10.txt)."""
    from importlib import resources  # loaded only by the callers of the fixture

    text = resources.files("relrep.data").joinpath("h52_k10.txt").read_text()
    return [line for _, line in content_lines(text.splitlines())]


# -- weight-class prechecks -------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    detail: str


@dataclass(frozen=True)
class PrecheckReport:
    k: int
    t: int
    low_size: int
    high_size: int
    checks: tuple[IdentityCheck, ...]
    passed: bool


@functools.lru_cache(maxsize=None)
def precheck(k: int, t: int) -> PrecheckReport:
    """Exact sumset identities the weight split must satisfy before any search.

    X = weights 1..t and C = weights t+1..k must give X+X = G,
    X+C = G\\{0} and C+C = G\\C (C maximal sum-free).  The answer depends on
    (k, t) alone, so it is computed once per pair; the report is immutable.
    Every set compared is a union of weight classes (see below), so each is
    held here as a mask over the weights 0..k and sized by binomials, with no
    group element: the three sumsets over (Z/2)^k would take three 2^k-point
    transforms.  The dense sumset version is the test oracle.

    The three hold exactly when 3t = 2(k - 1), so only at
    t = default_threshold(k) and only for k = 1 (mod 3), k >= 4.  Proof:
    vectors of weights a and b that share o ones sum to weight a + b - 2o,
    for every o from max(0, a + b - k) to min(a, b).  S_k acts transitively
    on each weight class and fixes X and C, so every set here is a union of
    weight classes, and each identity is a statement about weights.

    Only if.  When 2t + 2 <= k, weights t + 1 and k - t - 1 with o = 0 put
    weight k into C+C, so C is not sum-free.  Otherwise a + b > k forces
    o >= a + b - k, so the heaviest weight in C+C is 2(k - t - 1), at
    a = b = t + 1.  C+C = G\\C needs it at most t, as C+C misses C, and at
    least t, as weight t lies in X.  Hence 3t = 2(k - 1).

    If.  Let 3t = 2(k - 1) with k >= 4, so t is even, k <= 2t and t + 2 <= k.
    C+C: a = b = t + 1 gives the even weights 0..t, a = t + 1 and b = t + 2
    the odd weights 1..t - 1, and no weight exceeds 2(k - t - 1) = t.
    X+X: (1, 1) with o = 1 gives 0, (2, 1) with o = 1 gives 1, and (a, w - a)
    with o = 0 each w in 2..k, since k <= 2t.
    X+C: X and C are disjoint, so 0 is missed; (t, t + 1) gives the odd
    weights 1..t + 1, (t, t + 2) the even weights 2..t, and (1, w - 1) with
    o = 0 each w in t + 2..k.
    """
    if not 1 <= t < k:
        raise ValueError(f"threshold t = {t} must satisfy 1 <= t < k = {k}")
    binomials = np.array([math.comb(k, w) for w in range(k + 1)], dtype=object)
    width = k + 4 - k % 2  # even, and past the largest range end k + 2

    def plus(a_lo, a_hi, b_lo, b_hi):
        # the weights of (weights a_lo..a_hi) + (weights b_lo..b_hi): a pair (a, b = s - a)
        # reaches |a - b|..min(s, 2k - s) in steps of 2; the pairs of one sum s share
        # that top, so they reach it from the smallest |2a - s|
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

    weights = np.arange(k + 1)
    high = weights > t
    checks = (check("X+X = G", plus(1, t, 1, t), weights >= 0),
              check("X+C = G minus 0", plus(1, t, t + 1, k), weights > 0),
              check("C+C = G minus C", plus(t + 1, k, t + 1, k), ~high))
    return PrecheckReport(k, t, int(binomials[1:t + 1].sum()), int(binomials[high].sum()),
                          checks, all(c.holds for c in checks))


# -- incremental basis maintenance -------------------------------------------


@dataclass(frozen=True)
class BasisState:
    """An independent basis whose span's nonzero vectors all stay in `allowed`.

    Besides the span H it keeps the read-only `blocked_mask` of
    B = H + ({0} | G \\ allowed): the candidates extend_basis would reject,
    either as dependent (in H) or because some h + v leaves `allowed`.  Both
    masks follow from (group, allowed, vectors), so states compare by those.
    """

    group: GroupSpec
    allowed: ElementSet
    vectors: tuple[int, ...]
    span_mask: np.ndarray = field(compare=False)
    blocked_mask: np.ndarray = field(compare=False)

    @property
    def order(self) -> int:
        return 1 << len(self.vectors)  # the vectors are independent by construction

    def span_set(self) -> ElementSet:
        return ElementSet(self.group, self.span_mask)

    def canonical_basis(self) -> tuple[int, ...]:
        return tuple(sorted(self.vectors))


@dataclass(frozen=True)
class ExtensionRejected:
    reason: str  # "dependent" | "escapes_allowed"


def initial_state(group: GroupSpec, allowed: ElementSet) -> BasisState:
    mask = np.zeros(group.order, dtype=bool)
    mask[0] = True
    mask.setflags(write=False)
    blocked = mask | ~allowed.mask
    blocked.setflags(write=False)
    return BasisState(group, allowed, (), mask, blocked)


def extend_basis(state: BasisState, v: int) -> BasisState | ExtensionRejected:
    """Add v to the basis if the doubled span still lies in allowed + {0}.

    Rejections (dependence, or some h + v leaving the allowed set) are
    returned, not raised; v itself lying outside the allowed set is a caller
    error and raises.
    """
    v = state.group.check_element(v)
    if v not in state.allowed:
        raise ValueError(
            f"candidate {state.group.format_element(v)} is outside the allowed set")
    if state.span_mask[v]:
        return ExtensionRejected("dependent")
    shifted = state.group._translate_mask(state.span_mask, v)
    # every element of span + v is nonzero here: 0 would need v itself in span
    escaped = shifted & ~state.allowed.mask
    if escaped.any():
        return ExtensionRejected("escapes_allowed")
    new_mask = state.span_mask | shifted
    new_mask.setflags(write=False)
    # H' = H | (H + v), so H' + D = (H + D) | (H + D + v) for D = {0} | G \ allowed
    blocked = state.blocked_mask | state.group._translate_mask(state.blocked_mask, v)
    blocked.setflags(write=False)
    return BasisState(state.group, state.allowed, state.vectors + (v,), new_mask, blocked)


# -- fixture validation -------------------------------------------------------


@dataclass(frozen=True)
class FixtureValidation:
    """What validate_fixture measured; the verdict and the classes follow from it."""

    k: int
    element_count: int
    bad_weight_elements: tuple[str, ...]
    closure_ok: bool
    subgroup_order: int
    verification: VerificationReport | None  # run only when the weights pass

    @property
    def weights_ok(self) -> bool:
        return not self.bad_weight_elements

    @property
    def passed(self) -> bool:
        return self.weights_ok and self.closure_ok and self.verification.accepted

    def to_dict(self) -> dict:
        cosets = self.weights_ok and self.closure_ok  # the classes are the cosets of H
        order = self.subgroup_order
        return {"k": self.k, "t": default_threshold(self.k),
                "element_count": self.element_count,
                "weights_ok": self.weights_ok,
                "bad_weight_elements": list(self.bad_weight_elements),
                "closure_ok": self.closure_ok,
                "subgroup_order": order,
                "verification": self.verification.to_dict() if self.verification else None,
                "classes_ok": self.closure_ok if self.weights_ok else None,
                "class_count": (1 << self.k) // order if cosets else None,
                "class_size": order if cosets else None,
                "verdict": "accept" if self.passed else "reject"}


def induced_partition(group: GroupSpec, subgroup_elements: ElementSet) -> ColoredPartition:
    """52_65-style coloring: b = H\\{0}, a = rest of the low shell, c = high."""
    low, high = _weight_split(group)
    b_mask = subgroup_elements.mask.copy()
    b_mask[0] = False
    b = ElementSet(group, b_mask)
    return ColoredPartition(group, {"a": low - b, "b": b, "c": high})


def validate_fixture(bitstrings) -> FixtureValidation:
    """Run the four subgroup-fixture checks: weights, closure, sumsets, cliques.

    k is the length of the bitstrings, and their weights must lie in 1..t for
    t = default_threshold(k).  The cliques are the classes of "y - x in H",
    H = b | {0} the fixture plus 0: an equivalence exactly when H is closed,
    whose classes are then the cosets of H.  So the closure check decides
    them, with no N^2 coloring.
    """
    lines = [line for _, line in content_lines(bitstrings)]
    if not lines:
        raise ValueError("the fixture lists no bitstrings, so it has no dimension k")
    k = len(lines[0])
    group = GroupSpec.power(2, k)
    elements = parse_bitstrings(lines, k)
    low = _weight_split(group)[0]
    bad = tuple(group.format_element(e) for e in elements if e not in low)
    with_zero = ElementSet.from_indices(group, elements + [0])
    closure_ok = sumset(with_zero, with_zero) == with_zero
    verification = None if bad else verify_sumsets(builtin_52_65(),
                                                   induced_partition(group, with_zero))
    return FixtureValidation(k, len(elements), bad, closure_ok, len(with_zero), verification)


# -- randomized restart search --------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    k: int
    target_order: int | None = None  # power of two; None = grow as far as possible
    seed: int = 0
    restarts: int = 1
    backtrack: int = 0  # how many basis pops a restart may spend when stuck
    initial_elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        default_threshold(self.k)  # refuses k < 3
        if self.target_order is not None:
            m = self.target_order
            if m < 1 or (m & (m - 1)) or m > (1 << self.k):
                raise ValueError(f"target order {m} must be a power of two <= 2^{self.k}")
        if self.restarts < 1:
            raise ValueError("restart budget must be at least 1")
        if self.backtrack < 0:
            raise ValueError("backtrack depth must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def reaches(self, order: int) -> bool:
        """Whether a subgroup of this order reaches the target order."""
        return self.target_order is not None and order >= self.target_order


@dataclass(frozen=True)
class SearchOutcome:
    config: SearchConfig
    basis: tuple[int, ...]  # canonical (sorted) basis of the best subgroup found
    order: int
    report: VerificationReport
    orders: tuple[int, ...]  # each restart's order, in run order

    @property
    def reached_target(self) -> bool:
        """Whether the last restart reached the target: the search stops at the first that does."""
        return self.config.reaches(self.orders[-1])

    @property
    def passed(self) -> bool:
        """The exit code's verdict: accepted, and at the target order if one was set."""
        return self.report.accepted and (self.config.target_order is None
                                         or self.reached_target)

    def to_dict(self) -> dict:
        group = GroupSpec.power(2, self.config.k)
        # no timing fields: identical config + seed must give identical JSON
        return {"k": self.config.k,
                "t": default_threshold(self.config.k),
                "seed": self.config.seed,
                "target_order": self.config.target_order,
                "restarts_requested": self.config.restarts,
                "backtrack": self.config.backtrack,
                "order": self.order,
                "basis": [group.format_element(v) for v in self.basis],
                "reached_target": self.reached_target,
                "restarts_run": len(self.orders),
                "stats": [{"restart": r, "order": order,
                           "reached_target": self.config.reaches(order)}
                          for r, order in enumerate(self.orders)],
                "stopped_by": "target" if self.reached_target else "restarts",
                "verdict": self.report.verdict,
                "report": self.report.to_dict()}


def _seeded_candidates(low: ElementSet, k: int, rng: np.random.Generator) -> np.ndarray:
    # weight-ascending order, ties broken by a seeded shuffle
    candidates = low.indices()
    shuffled = candidates[rng.permutation(candidates.size)]
    by_weight = np.argsort(hamming_weights(k)[shuffled], kind="stable")
    return shuffled[by_weight]


def _fold_initial(state: BasisState, elements) -> BasisState:
    for v in elements:
        result = extend_basis(state, v)
        if isinstance(result, BasisState):
            state = result
        elif result.reason != "dependent":
            raise ValueError(
                f"initial element {state.group.format_element(v)} breaks the "
                f"weight constraint together with the span")
    return state


def _next_extension(state: BasisState, candidates: np.ndarray, pos: int) -> int:
    """Position of the first candidate at or after pos that extend_basis
    accepts, or len(candidates) if none does.

    extend_basis rejects v iff v lies in the state's kept blocked mask
    H + ({0} | G \\ allowed), so one gather of that mask tests every
    remaining candidate.
    """
    free = np.flatnonzero(~state.blocked_mask[candidates[pos:]])
    return pos + int(free[0]) if free.size else candidates.size


def _run_restart(start: BasisState, candidates: np.ndarray,
                 target: int | None, backtrack: int) -> BasisState:
    # a restart pops at most `backtrack` frames, so only the top backtrack + 1 are kept
    frames: deque[list] = deque([[start, 0]], maxlen=backtrack + 1)
    best = start
    pops_left = backtrack
    while True:
        state, pos = frames[-1]
        if target is not None and state.order >= target:
            return state
        pos = _next_extension(state, candidates, pos)
        if pos < candidates.size:
            result = extend_basis(state, int(candidates[pos]))
            if not isinstance(result, BasisState):
                raise RuntimeError(f"the kept blocked mask passed a candidate that "
                                   f"extend_basis rejects ({result.reason})")
            frames[-1][1] = pos + 1
            frames.append([result, pos + 1])
            if result.order > best.order:
                best = result
            continue
        if len(frames) == 1 or pops_left <= 0:
            return best
        frames.pop()
        pops_left -= 1


def search(config: SearchConfig) -> SearchOutcome:
    """Randomized restart search for a subgroup H with H\\{0} inside the low shell.

    Each restart greedily extends a basis along a seeded candidate order
    (restart r uses the derived rng seed [seed, r]); optional backtracking
    re-opens the most recent choices when stuck.  The loop stops when some
    restart reaches the target order, whether or not the partition it induces
    is accepted, or when the restarts run out.  It keeps only the best
    restart's key and report, so its memory does not grow with the restarts:
    a restart whose order ties or beats the best is verified, and wins on a
    higher order, else on (not accepted, canonical basis).  The outcome
    carries the full verification report of the winner's partition.
    Identical configs give identical outcomes.
    """
    t, target = default_threshold(config.k), config.target_order
    group = GroupSpec.power(2, config.k)  # refuses a group over the memory budget first
    pre = precheck(config.k, t)
    if not pre.passed:
        failed = [c.name for c in pre.checks if not c.holds]
        raise ValueError(f"weight-class precheck failed for k={config.k}, t={t}: {failed}")
    low = _weight_split(group)[0]
    start = _fold_initial(initial_state(group, low), config.initial_elements)
    spec = builtin_52_65()

    orders = []
    best_key = None  # (-order, not accepted, canonical basis); the smallest wins
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        candidates = _seeded_candidates(low, config.k, rng)
        state = _run_restart(start, candidates, target, config.backtrack)
        reached = config.reaches(state.order)
        orders.append(state.order)
        if best_key is None or -state.order <= best_key[0]:
            # no name holds the partition, whose spectra would outlive this restart
            report = verify_sumsets(spec, induced_partition(group, state.span_set()))
            key = (-state.order, not report.accepted, state.canonical_basis())
            if best_key is None or key < best_key:
                best_key, best_report = key, report
        if reached:
            break

    # a restart that reaches the target outranks every earlier one, all below it
    negated_order, _, basis = best_key
    return SearchOutcome(config, basis, -negated_order, best_report, tuple(orders))
