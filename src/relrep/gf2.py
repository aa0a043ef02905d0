"""Weight-class constructions over (Z/2Z)^k and the randomized subgroup search.

The 52_65 recipe at dimension k splits the nonzero vectors into a low-weight
shell X (weights 1..t) and its complement C; a subgroup H whose nonzero part
stays inside X yields the candidate coloring b = H\\{0}, a = X\\H, c = C.
Finding a large enough H is the hard part, so this module offers a seeded
restart search with greedy basis growth and optional backtracking.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .algebra import builtin_52_65
from .groups import ElementSet, GroupSpec, hamming_weights, sumset, weight_class
from .verify import ColoredPartition, VerificationReport, verify_sumsets


def default_threshold(k: int) -> int:
    """Weight cutoff t used when none is given: floor(2(k-1)/3).

    Matches t = 6 at k = 10 and keeps the complement C a top-weight band;
    the general rule is a library choice, not an established fact, and every
    run is still gated by an explicit precheck.
    """
    return 2 * (k - 1) // 3


def _check_threshold(k: int, t: int) -> None:
    """Refuse a weight cutoff t outside 1 <= t < k, where X and C are both nonempty."""
    if not 1 <= t < k:
        raise ValueError(f"threshold t = {t} must satisfy 1 <= t < k = {k}")


def parse_bitstrings(lines, k: int) -> list[int]:
    """Element indices from k-character bitstring lines ('#' starts a comment)."""
    group = GroupSpec.power(2, k)
    seen: dict[int, str] = {}
    out = []
    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        value = group.parse_element(text)
        if value in seen:
            raise ValueError(f"duplicate element {text!r}")
        seen[value] = text
        out.append(value)
    return out


def shipped_subgroup_bitstrings() -> list[str]:
    """The bundled 63-element fixture for k = 10 (data/h52_k10.txt)."""
    text = resources.files("relrep.data").joinpath("h52_k10.txt").read_text()
    return [line.split("#", 1)[0].strip() for line in text.splitlines()
            if line.split("#", 1)[0].strip()]


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


def _identity_check(name: str, actual: ElementSet, expected: ElementSet) -> IdentityCheck:
    if actual == expected:
        return IdentityCheck(name, True, f"holds with {len(actual)} elements")
    missing = expected - actual
    extra = actual - expected
    return IdentityCheck(name, False,
                         f"{len(missing)} missing, {len(extra)} unexpected")


@functools.lru_cache(maxsize=None)
def precheck(k: int, t: int) -> PrecheckReport:
    """Exact sumset identities the weight split must satisfy before any search.

    X = weights 1..t and C = weights t+1..k must give X+X = G,
    X+C = G\\{0} and C+C = G\\C (C maximal sum-free).  The answer depends on
    (k, t) alone, so it is computed once per pair; the report is immutable.
    """
    group = GroupSpec.power(2, k)
    _check_threshold(k, t)
    low = weight_class(group, 1, t)
    high = weight_class(group, t + 1, k)
    everything = ElementSet.full(group)
    nonzero = everything - ElementSet.singleton(group, 0)
    checks = (
        _identity_check("X+X = G", sumset(low, low), everything),
        _identity_check("X+C = G minus 0", sumset(low, high), nonzero),
        _identity_check("C+C = G minus C", sumset(high, high), everything - high),
    )
    return PrecheckReport(k, t, len(low), len(high), checks,
                          all(c.holds for c in checks))


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
    offending: int | None = None  # span element h with h + v outside allowed

    def __bool__(self) -> bool:
        return False


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
        bad = int(np.flatnonzero(escaped)[0])
        return ExtensionRejected("escapes_allowed", state.group.sub(bad, v))
    new_mask = state.span_mask | shifted
    new_mask.setflags(write=False)
    # H' = H | (H + v), so H' + D = (H + D) | (H + D + v) for D = {0} | G \ allowed
    blocked = state.blocked_mask | state.group._translate_mask(state.blocked_mask, v)
    blocked.setflags(write=False)
    return BasisState(state.group, state.allowed, state.vectors + (v,), new_mask, blocked)


# -- fixture validation -------------------------------------------------------


@dataclass
class FixtureValidation:
    k: int
    t: int
    element_count: int
    weights_ok: bool
    bad_weight_elements: tuple[str, ...]
    closure_ok: bool
    subgroup_order: int
    verification: VerificationReport | None
    classes_ok: bool | None
    class_count: int | None
    class_size: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {"k": self.k, "t": self.t,
                "element_count": self.element_count,
                "weights_ok": self.weights_ok,
                "bad_weight_elements": list(self.bad_weight_elements),
                "closure_ok": self.closure_ok,
                "subgroup_order": self.subgroup_order,
                "verification": self.verification.to_dict() if self.verification else None,
                "classes_ok": self.classes_ok,
                "class_count": self.class_count,
                "class_size": self.class_size,
                "verdict": "accept" if self.passed else "reject"}


def induced_partition(group: GroupSpec, subgroup_elements: ElementSet, t: int) -> ColoredPartition:
    """52_65-style coloring: b = H\\{0}, a = rest of the low shell, c = high."""
    low = weight_class(group, 1, t)
    high = weight_class(group, t + 1, group.rank)
    b_mask = subgroup_elements.mask.copy()
    b_mask[0] = False
    b = ElementSet(group, b_mask)
    return ColoredPartition(group, {"a": low - b, "b": b, "c": high})


def validate_fixture(bitstrings, k: int = 10, t: int = 6) -> FixtureValidation:
    """Run the four subgroup-fixture checks: weights, closure, sumsets, cliques.

    The cliques are the classes of "y - x in H", H = b | {0} the fixture plus 0:
    an equivalence exactly when H is closed, whose classes are then the cosets
    of H.  So the closure check decides them, with no N^2 coloring.
    """
    group = GroupSpec.power(2, k)
    _check_threshold(k, t)
    elements = parse_bitstrings(bitstrings, k)
    weights = hamming_weights(k)
    bad = tuple(group.format_element(e) for e in elements
                if not 1 <= int(weights[e]) <= t)
    weights_ok = not bad

    with_zero = ElementSet.from_indices(group, elements + [0])
    closure_ok = sumset(with_zero, with_zero) == with_zero
    order = len(with_zero)

    verification = classes_ok = class_count = class_size = None
    if weights_ok:
        verification = verify_sumsets(builtin_52_65(), induced_partition(group, with_zero, t))
        classes_ok = closure_ok
        if closure_ok:
            class_count, class_size = group.order // order, order
    passed = bool(weights_ok and closure_ok and verification is not None
                  and verification.accepted and classes_ok)
    return FixtureValidation(k, t, len(elements), weights_ok, bad, closure_ok,
                             order, verification, classes_ok, class_count,
                             class_size, passed)


# -- randomized restart search --------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    k: int
    t: int | None = None
    target_order: int | None = None  # power of two; None = grow as far as possible
    seed: int = 0
    restarts: int = 1
    backtrack: int = 0  # how many basis pops a restart may spend when stuck
    time_budget: float | None = None  # seconds; wall-clock, so machine-dependent
    initial_elements: tuple[int, ...] = ()

    @property
    def resolved_t(self) -> int:
        return self.t if self.t is not None else default_threshold(self.k)

    def validated(self) -> "SearchConfig":
        if self.k < 2:
            raise ValueError("dimension k must be at least 2")
        _check_threshold(self.k, self.resolved_t)
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
        if self.time_budget is not None and self.time_budget < 0:
            raise ValueError("time budget must be >= 0 seconds")
        return self


@dataclass(frozen=True)
class RestartStat:
    index: int
    order: int
    reached_target: bool

    def to_dict(self) -> dict:
        return {"restart": self.index, "order": self.order,
                "reached_target": self.reached_target}


@dataclass
class SearchOutcome:
    config: SearchConfig
    basis: tuple[int, ...]  # canonical (sorted) basis of the best subgroup found
    order: int
    report: VerificationReport
    reached_target: bool
    restarts_run: int
    stats: list[RestartStat]
    stopped_by: str  # "target" | "restarts" | "time"

    def to_dict(self) -> dict:
        group = GroupSpec.power(2, self.config.k)
        # no timing fields: identical config + seed must give identical JSON
        return {"k": self.config.k,
                "t": self.config.resolved_t,
                "seed": self.config.seed,
                "target_order": self.config.target_order,
                "restarts_requested": self.config.restarts,
                "backtrack": self.config.backtrack,
                "order": self.order,
                "basis": [group.format_element(v) for v in self.basis],
                "reached_target": self.reached_target,
                "restarts_run": self.restarts_run,
                "stats": [s.to_dict() for s in self.stats],
                "stopped_by": self.stopped_by,
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
                 target: int | None, backtrack: int,
                 deadline: float | None) -> BasisState:
    frames: list[list] = [[start, 0]]
    best = start
    pops_left = backtrack
    while True:
        if deadline is not None and time.monotonic() > deadline:
            break
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
        frames[-1][1] = pos
        if len(frames) == 1 or pops_left <= 0:
            break
        frames.pop()
        pops_left -= 1
    return best


def search(config: SearchConfig) -> SearchOutcome:
    """Randomized restart search for a subgroup H with H\\{0} inside the low shell.

    Each restart greedily extends a basis along a seeded candidate order
    (restart r uses the derived rng seed [seed, r]); optional backtracking
    re-opens the most recent choices when stuck.  Stops early once some restart
    reaches the target order, whether or not the partition it induces is
    accepted.  The outcome always carries the full verification report of the
    partition induced by the best H found.  Determinism: identical configs give
    identical outcomes, unless a wall-clock time budget cuts a run short.
    """
    config = config.validated()
    pre = precheck(config.k, config.resolved_t)
    if not pre.passed:
        failed = [c.name for c in pre.checks if not c.holds]
        raise ValueError(f"weight-class precheck failed for k={config.k}, "
                         f"t={config.resolved_t}: {failed}")
    group = GroupSpec.power(2, config.k)
    low = weight_class(group, 1, config.resolved_t)
    start = _fold_initial(initial_state(group, low), config.initial_elements)

    began = time.monotonic()
    deadline = began + config.time_budget if config.time_budget is not None else None
    stats: list[RestartStat] = []
    results: list[BasisState] = []
    stopped_by = "restarts"
    for r in range(config.restarts):
        if deadline is not None and time.monotonic() > deadline:
            stopped_by = "time"
            break
        rng = np.random.default_rng([config.seed, r])
        candidates = _seeded_candidates(low, config.k, rng)
        state = _run_restart(start, candidates, config.target_order,
                             config.backtrack, deadline)
        reached = config.target_order is not None and state.order >= config.target_order
        stats.append(RestartStat(r, state.order, reached))
        results.append(state)
        if reached:
            stopped_by = "target"
            break

    completed = len(stats)
    if not results:
        results = [start]  # time ran out before any restart; report the seed state
    best_order = max(s.order for s in results)
    tied = [s for s in results if s.order == best_order]
    scored = []
    for state in tied:
        partition = induced_partition(group, state.span_set(), config.resolved_t)
        report = verify_sumsets(builtin_52_65(), partition)
        scored.append((not report.accepted, state.canonical_basis(), state, report))
    scored.sort(key=lambda item: item[:2])
    _, basis, winner, report = scored[0]
    reached_target = (config.target_order is not None
                      and winner.order >= config.target_order)
    return SearchOutcome(config, basis, winner.order, report, reached_target,
                         completed, stats, stopped_by)
