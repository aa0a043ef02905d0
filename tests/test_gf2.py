"""Weight-class prechecks, basis growth, fixture validation, and the search."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REPO_ROOT, dense_precheck, fixture_classes_oracle
from relrep import gf2, groups
from relrep.cli import EXIT_REJECT, main

from relrep import (BasisState, ElementSet, ExtensionRejected, GroupSpec,
                    SearchConfig, builtin_52_65, default_threshold, extend_basis,
                    hamming_weights, induced_partition, initial_state,
                    parse_bitstrings, precheck, search,
                    shipped_subgroup_bitstrings, span, sumset, sumset_reference,
                    validate_fixture, verify_sumsets, weight_class)


def test_default_threshold_rule():
    assert default_threshold(10) == 6
    assert default_threshold(7) == 4
    assert default_threshold(13) == 8


def test_precheck_k10_t6_passes():
    report = precheck(10, 6)
    assert report.passed
    assert report.low_size == 847 and report.high_size == 176
    assert report.low_size + report.high_size + 1 == 1024
    assert [c.holds for c in report.checks] == [True, True, True]


def test_precheck_k10_t9_fails_on_sum_free_identity():
    # C is the single all-ones vector; C+C = {0} is nowhere near G minus C
    report = precheck(10, 9)
    assert not report.passed
    by_name = {c.name: c.holds for c in report.checks}
    assert by_name["X+X = G"] is True
    assert by_name["C+C = G minus C"] is False


def test_precheck_k7_values_frozen():
    # recorded once from the sumset computation itself
    assert precheck(7, 4).passed
    report = precheck(7, 3)
    assert not report.passed
    assert [c.holds for c in report.checks] == [False, True, False]


def test_precheck_k13_default_threshold_passes():
    assert precheck(13, 8).passed


def test_precheck_passes_exactly_where_3t_is_2k_minus_2():
    # the proof in precheck's docstring, checked by weight arithmetic and densely
    for k in range(2, 17):
        for t in range(1, k):
            report = precheck(k, t)
            assert report.passed == (3 * t == 2 * (k - 1)), (k, t)
            assert dense_precheck(k, t) == report, (k, t)
            assert type(report.low_size) is int and type(report.high_size) is int


def test_weight_class_precheck_passes_on_the_same_line_up_to_k_200():
    passing = {(k, t) for k in range(2, 201) for t in range(1, k)
               if precheck(k, t).passed}
    assert passing == {(k, default_threshold(k)) for k in range(4, 201, 3)}


def test_weight_split_is_the_weight_class_pair_on_the_given_group():
    for k in range(3, 17):
        group = GroupSpec.power(2, k)
        low, high = gf2._weight_split(group)
        t = default_threshold(k)
        assert low == weight_class(group, 1, t)
        assert high == weight_class(group, t + 1, k)
        assert low.group is group and high.group is group


def test_precheck_validation():
    with pytest.raises(ValueError):
        precheck(10, 0)
    with pytest.raises(ValueError):
        precheck(10, 10)


def test_precheck_is_computed_once_per_k_and_t(monkeypatch):
    first = precheck(9, 5)

    def no_check(*args):
        raise AssertionError("precheck recomputed its identity checks")

    monkeypatch.setattr(gf2, "IdentityCheck", no_check)
    assert precheck(9, 5) is first
    for _ in range(2):  # a failed call is not cached: it raises every time
        with pytest.raises(ValueError):
            precheck(9, 9)


# -- extend_basis ------------------------------------------------------------------


def _fresh_state(k=10, t=6):
    group = GroupSpec.power(2, k)
    return initial_state(group, weight_class(group, 1, t))


def test_extend_accepts_singletons_and_rejects_repeats():
    state = _fresh_state()
    v = int("0000000001", 2)
    grown = extend_basis(state, v)
    assert isinstance(grown, BasisState)
    assert grown.order == 2 and grown.vectors == (v,)
    again = extend_basis(grown, v)
    assert isinstance(again, ExtensionRejected) and again.reason == "dependent"


def test_extend_rejects_vectors_leaving_the_shell():
    group = GroupSpec.power(2, 10)
    h = group.parse_element("1110000000")
    v = group.parse_element("0001111000")
    state = extend_basis(_fresh_state(), h)
    rejected = extend_basis(state, v)
    assert isinstance(rejected, ExtensionRejected)
    assert rejected.reason == "escapes_allowed"
    assert group.format_element(group.add(h, v)).count("1") == 7  # outside weights 1..6


def test_extend_raises_on_candidates_outside_the_shell():
    group = GroupSpec.power(2, 10)
    heavy = group.parse_element("1111111000")
    with pytest.raises(ValueError, match="outside"):
        extend_basis(_fresh_state(), heavy)


def test_span_doubles_and_stays_inside_shell():
    state = _fresh_state()
    weights = hamming_weights(10)
    rng = np.random.default_rng(0)
    low = weight_class(state.group, 1, 6)
    candidates = [int(v) for v in rng.permutation(low.indices())]
    for v in candidates:
        result = extend_basis(state, v)
        if isinstance(result, BasisState):
            assert result.order == 2 * state.order
            nonzero = result.span_set().indices()
            nonzero = nonzero[nonzero != 0]
            assert ((weights[nonzero] >= 1) & (weights[nonzero] <= 6)).all()
            state = result
        if state.order >= 32:
            break


def test_basis_states_compare_by_group_allowed_and_vectors():
    state = _fresh_state()
    grown = extend_basis(state, 1)
    again = extend_basis(_fresh_state(), 1)
    assert grown == again and grown.span_mask is not again.span_mask
    assert grown != state
    assert grown != extend_basis(state, 2)
    assert extend_basis(grown, 2) != extend_basis(extend_basis(state, 2), 1)  # basis order
    assert grown != extend_basis(initial_state(state.group, weight_class(state.group, 1, 5)), 1)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_blocked_mask_is_the_span_plus_the_disallowed_set(data):
    # random allowed sets, with or without 0, not only weight shells
    k = data.draw(st.integers(2, 10), label="k")
    group = GroupSpec.power(2, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    density = data.draw(st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]), label="density")
    mask = rng.random(group.order) < density
    mask[0] = data.draw(st.booleans(), label="zero allowed")
    allowed = ElementSet(group, mask)
    blocked_base = allowed.complement() | ElementSet.singleton(group, 0)
    states = [initial_state(group, allowed)]
    for v in rng.permutation(allowed.indices()):
        grown = extend_basis(states[-1], int(v))
        if isinstance(grown, BasisState):
            states.append(grown)
    for state in states:
        assert not state.blocked_mask.flags.writeable
        assert np.array_equal(state.blocked_mask,
                              sumset_reference(state.span_set(), blocked_base).mask)
        # the scan picks the first candidate at or after pos that extend_basis accepts
        candidates = rng.choice(group.order, size=int(rng.integers(0, 40)))
        candidates = candidates[mask[candidates]]
        pos = int(rng.integers(0, candidates.size + 1))
        expected = next((i for i in range(pos, candidates.size)
                         if isinstance(extend_basis(state, int(candidates[i])), BasisState)),
                        candidates.size)
        assert gf2._next_extension(state, candidates, pos) == expected


# -- fixture validation ----------------------------------------------------------------


def test_shipped_fixture_passes_all_four_checks():
    result = validate_fixture(shipped_subgroup_bitstrings())
    assert result.element_count == 63
    assert result.weights_ok and not result.bad_weight_elements
    assert result.closure_ok and result.subgroup_order == 64
    assert result.verification.accepted
    assert result.passed
    payload = result.to_dict()
    assert payload["classes_ok"]
    assert payload["class_count"] == 16 and payload["class_size"] == 64
    assert payload["verdict"] == "accept"


def test_repo_fixture_file_matches_package_data(fixtures_dir):
    from importlib import resources
    repo_text = (fixtures_dir / "h52_k10.txt").read_text()
    pkg_text = resources.files("relrep.data").joinpath("h52_k10.txt").read_text()
    assert repo_text == pkg_text


def test_dropping_an_element_breaks_closure():
    bits = shipped_subgroup_bitstrings()
    result = validate_fixture(bits[:-1])
    assert not result.closure_ok
    assert result.subgroup_order == 63  # 62 elements plus 0: not a 2-group order
    assert not result.passed


def test_flipping_a_bit_breaks_closure_and_verification():
    bits = shipped_subgroup_bitstrings()
    assert bits[0] == "0110000000"
    result = validate_fixture(["1110000000"] + bits[1:])
    assert result.weights_ok
    assert not result.closure_ok
    assert not result.verification.accepted
    assert result.to_dict()["classes_ok"] is False
    assert not result.passed


def test_fixture_validation_is_frozen():
    result = validate_fixture(shipped_subgroup_bitstrings()[:-1])
    assert not result.passed
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.passed = True
    assert result.to_dict()["verdict"] == "reject"


def _fixture_variants():
    bits = shipped_subgroup_bitstrings()
    return {"shipped": bits, "dropped": bits[:-1], "flipped": ["1110000000"] + bits[1:]}


@pytest.mark.parametrize("name", ["shipped", "dropped", "flipped"])
def test_fixture_classes_match_the_coloring_oracle(name):
    bits = _fixture_variants()[name]
    payload = validate_fixture(bits).to_dict()
    fields = (payload["classes_ok"], payload["class_count"], payload["class_size"])
    assert fields == fixture_classes_oracle(bits)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 8), closed=st.booleans(), data=st.data())
def test_fixture_classes_match_the_oracle_on_drawn_subsets(k, closed, data):
    # vectors drawn from the low shell; their span is closed but may leave the
    # shell, while the drawn set mostly is not closed, though one vector is
    group = GroupSpec.power(2, k)
    t = default_threshold(k)
    shell = weight_class(group, 1, t).indices().tolist()
    vectors = data.draw(st.lists(st.sampled_from(shell), min_size=1,
                                 max_size=k + 2, unique=True))
    elements = [x for x in span(group, vectors).elements if x] if closed else vectors
    top = max(int(hamming_weights(k)[x]) for x in elements)
    bits = [group.format_element(x) for x in elements]
    result = validate_fixture(bits)
    payload = result.to_dict()
    assert (result.k, payload["t"], result.weights_ok) == (k, t, top <= t)
    fields = (payload["classes_ok"], payload["class_count"], payload["class_size"])
    if result.weights_ok:
        assert fields == fixture_classes_oracle(bits)
        assert payload["classes_ok"] == result.closure_ok
    else:
        assert closed and fields == (None, None, None)


def test_fixture_parse_errors():
    with pytest.raises(ValueError, match="bitstring"):
        validate_fixture(["0110000000", "011000000"])  # ten characters, then nine
    with pytest.raises(ValueError, match="duplicate"):
        validate_fixture(["0110000000", "0110000000"])
    with pytest.raises(ValueError, match="no bitstrings"):
        validate_fixture(["# a comment", "   "])


def test_parse_bitstrings_handles_comments():
    values = parse_bitstrings(["# header", "  ", "0000000011  # two"], 10)
    assert values == [3]


# -- search ------------------------------------------------------------------------------


def test_search_target_two_is_immediate():
    out = search(SearchConfig(k=10, target_order=2, seed=0, restarts=1))
    assert out.reached_target and out.order == 2
    assert out.to_dict()["stopped_by"] == "target"
    assert len(out.basis) == 1


def test_search_seeded_with_fixture_reaches_64_and_accepts():
    initial = tuple(parse_bitstrings(shipped_subgroup_bitstrings(), 10))
    out = search(SearchConfig(k=10, target_order=64, seed=1, restarts=1,
                              initial_elements=initial))
    assert out.reached_target and out.order == 64
    assert out.report.accepted
    assert out.orders == (64,)


def test_search_is_deterministic():
    config = SearchConfig(k=10, seed=21, restarts=3)
    first = search(config)
    second = search(config)
    assert first.to_dict() == second.to_dict()
    assert first.basis == second.basis and first.order == second.order


def test_search_outcome_revalidates_independently():
    for config in (SearchConfig(k=10, seed=2, restarts=2),
                   SearchConfig(k=7, seed=3, restarts=3, backtrack=2),
                   SearchConfig(k=13, seed=4, restarts=1)):
        out = search(config)
        group = GroupSpec.power(2, config.k)
        t = default_threshold(config.k)
        subgroup = span(group, out.basis)
        assert subgroup.order == out.order
        # closure, weight range, and the full sumset verdict, all recomputed
        assert sumset(subgroup.elements, subgroup.elements) == subgroup.elements
        weights = hamming_weights(config.k)
        nonzero = subgroup.elements.indices()
        nonzero = nonzero[nonzero != 0]
        assert ((weights[nonzero] >= 1) & (weights[nonzero] <= t)).all()
        fresh = verify_sumsets(builtin_52_65(),
                               induced_partition(group, subgroup.elements))
        assert fresh.accepted == out.report.accepted


def test_search_k7_runs_and_reports_without_success_claim():
    # open-ended attempt: only soundness and determinism are asserted
    config = SearchConfig(k=7, seed=5, restarts=6, backtrack=1)
    out = search(config)
    assert out.order >= 2
    assert len(out.orders) == 6
    assert search(config).to_dict() == out.to_dict()


def test_search_config_validation():
    # an invalid config cannot be built, so search never checks one
    with pytest.raises(ValueError, match="restart"):
        SearchConfig(k=10, restarts=0)
    with pytest.raises(ValueError, match="power of two"):
        SearchConfig(k=10, target_order=48)
    with pytest.raises(ValueError, match="seed"):
        SearchConfig(k=10, seed=-1)
    with pytest.raises(ValueError, match="dimension k = 2 must be at least 3"):
        SearchConfig(k=2)
    with pytest.raises(ValueError, match="precheck failed"):
        search(SearchConfig(k=3))  # t = 1, but 3t != 2(k - 1)


def test_search_rejects_bad_initial_elements():
    group = GroupSpec.power(2, 10)
    clash = (group.parse_element("1110001000"),   # weight 4
             group.parse_element("0001110100"))   # weight 4, disjoint support
    with pytest.raises(ValueError, match="weight constraint"):
        search(SearchConfig(k=10, seed=0, restarts=1, initial_elements=clash))


@pytest.mark.parametrize("k, restarts, backtrack, target", [
    (7, 8, 2, None), (7, 6, 0, 16), (10, 12, 0, None), (10, 5, 1, 64), (13, 4, 0, None)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_winner_is_the_best_of_all_restarts(k, restarts, backtrack, target, seed):
    # the reference keeps every restart's state up to the first that reaches the
    # target, verifies each one of the top order and sorts those by
    # (not accepted, canonical basis)
    config = SearchConfig(k=k, seed=seed, restarts=restarts, backtrack=backtrack,
                          target_order=target)
    group = GroupSpec.power(2, k)
    low = weight_class(group, 1, default_threshold(k))
    states = []
    for r in range(restarts):
        candidates = gf2._seeded_candidates(low, k, np.random.default_rng([seed, r]))
        states.append(gf2._run_restart(initial_state(group, low), candidates,
                                       target, backtrack))
        if target is not None and states[-1].order >= target:
            break
    top = max(s.order for s in states)
    scored = []
    for state in (s for s in states if s.order == top):
        partition = induced_partition(group, state.span_set())
        report = verify_sumsets(builtin_52_65(), partition)
        scored.append((not report.accepted, state.canonical_basis(), report.to_dict()))
    _, basis, report = min(scored)
    reached = target is not None and top >= target

    out = search(config)
    assert out.orders == tuple(s.order for s in states)
    assert (out.order, out.basis, out.report.to_dict()) == (top, basis, report)
    assert out.reached_target == reached
    payload = out.to_dict()
    assert payload["stats"] == [
        {"restart": r, "order": s.order,
         "reached_target": target is not None and s.order >= target}
        for r, s in enumerate(states)]
    assert payload["restarts_run"] == len(states)
    assert payload["stopped_by"] == ("target" if reached else "restarts")


def test_search_memory_does_not_grow_with_restarts():
    # one best key and report are kept, not every restart's two masks; the
    # first call fills the per-(k, t) caches so that the peak is the search's own
    config = SearchConfig(k=13, seed=1, restarts=32)
    search(config)
    tracemalloc.start()
    try:
        search(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < groups._BYTES_PER_ELEMENT["wht"] * 2**13


# -- the kept-mask restart against the per-candidate oracle -----------------------


def _sequential_restart(start, candidates, target, backtrack):
    """One extend_basis call per candidate: the accepted vectors in order and
    the best state, with _run_restart's frames, target and backtracking."""
    accepted = []
    frames = [[start, 0]]
    best = start
    pops_left = backtrack
    while True:
        state, pos = frames[-1]
        if target is not None and state.order >= target:
            return accepted, state
        advanced = False
        while pos < len(candidates):
            v = int(candidates[pos])
            pos += 1
            result = extend_basis(state, v)
            if isinstance(result, BasisState):
                accepted.append(v)
                frames[-1][1] = pos
                frames.append([result, pos])
                if result.order > best.order:
                    best = result
                advanced = True
                break
        if advanced:
            continue
        frames[-1][1] = pos
        if len(frames) == 1 or pops_left <= 0:
            return accepted, best
        frames.pop()
        pops_left -= 1


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_batched_restart_matches_sequential_extend_basis(data):
    k = data.draw(st.integers(4, 10), label="k")
    t = data.draw(st.integers(1, k - 1), label="t")
    group = GroupSpec.power(2, k)
    low = weight_class(group, 1, t)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    start = initial_state(group, low)
    for v in rng.choice(low.indices(), size=int(rng.integers(0, 4))):
        grown = extend_basis(start, int(v))
        if isinstance(grown, BasisState):
            start = grown
    candidates = rng.permutation(low.indices())
    target = data.draw(st.sampled_from([None, 4, 16, 64]), label="target")
    backtrack = data.draw(st.integers(0, 3), label="backtrack")

    expected, expected_best = _sequential_restart(start, candidates, target, backtrack)

    accepted = []

    def recording(state, v):
        result = extend_basis(state, v)
        if isinstance(result, BasisState):
            accepted.append(v)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2, "extend_basis", recording)
        best = gf2._run_restart(start, candidates, target, backtrack)
    assert accepted == expected
    assert best.vectors == expected_best.vectors
    assert np.array_equal(best.span_mask, expected_best.span_mask)
    assert np.array_equal(best.blocked_mask, expected_best.blocked_mask)
    assert best.order == int(best.span_mask.sum())


def _unbounded_restart(start, candidates, target, backtrack):
    """_run_restart with every frame kept on a list, the oracle of its bounded
    deque: the accepted vectors in order and the returned state.  Unlike
    _sequential_restart it skips blocked candidates by the kept mask, so it
    stays fast at k = 13."""
    accepted = []
    frames = [[start, 0]]
    best = start
    pops_left = backtrack
    while True:
        state, pos = frames[-1]
        if target is not None and state.order >= target:
            return accepted, state
        pos = gf2._next_extension(state, candidates, pos)
        if pos < candidates.size:
            accepted.append(int(candidates[pos]))
            result = extend_basis(state, accepted[-1])
            frames[-1][1] = pos + 1
            frames.append([result, pos + 1])
            if result.order > best.order:
                best = result
            continue
        if len(frames) == 1 or pops_left <= 0:
            return accepted, best
        frames.pop()
        pops_left -= 1


@pytest.mark.parametrize("k", [7, 10, 13])
def test_restart_keeps_only_the_frames_it_can_pop(k, monkeypatch):
    group = GroupSpec.power(2, k)
    low = weight_class(group, 1, default_threshold(k))
    start = initial_state(group, low)
    accepted = []

    def recording(state, v):
        accepted.append(v)
        return extend_basis(state, v)

    monkeypatch.setattr(gf2, "extend_basis", recording)
    for seed in range(4):
        candidates = gf2._seeded_candidates(low, k, np.random.default_rng([seed, 0]))
        for backtrack in range(4):
            for target in (None, 1 << (k // 2)):
                accepted.clear()
                state = gf2._run_restart(start, candidates, target, backtrack)
                assert (accepted, state) == _unbounded_restart(start, candidates, target,
                                                               backtrack)


# -- search-gf2 output pinned to the per-candidate search ----------------------------

PINNED = REPO_ROOT / "tests" / "pinned"


@pytest.mark.parametrize("name,argv", [
    ("k7_seed1", ("--k", "7", "--restarts", "8", "--backtrack", "2", "--seed", "1")),
    ("k7_seed2", ("--k", "7", "--restarts", "8", "--backtrack", "2", "--seed", "2")),
    ("k10_seed1", ("--k", "10", "--target-order", "64", "--seed", "1")),
    ("k10_seed2", ("--k", "10", "--target-order", "64", "--seed", "2")),
    ("k13_seed1", ("--k", "13", "--restarts", "1", "--seed", "1")),
    ("k13_seed2", ("--k", "13", "--restarts", "1", "--seed", "2")),
    ("k16_seed1", ("--k", "16", "--restarts", "1", "--seed", "1")),
    ("k19_seed1", ("--k", "19", "--restarts", "1", "--seed", "1")),
])
def test_search_gf2_json_bytes_pinned(capsys, name, argv):
    # k <= 13 recorded with the search that called extend_basis once per
    # candidate, k = 16 and 19 with the batched block scan before the kept mask
    code = main(["--format", "json", "search-gf2", *argv])
    out = capsys.readouterr().out
    assert code == EXIT_REJECT
    assert out == (PINNED / f"search_gf2_{name}.json").read_text()


def test_validate_fixture_k16_json_bytes_pinned(capsys, tmp_path):
    # the span of the pinned k = 16 search basis, a coordinate subspace of order
    # 1024; its N^2 Cayley coloring would take about 43 GB
    group = GroupSpec.power(2, 16)
    basis = json.loads((PINNED / "search_gf2_k16_seed1.json").read_text())["basis"]
    elements = span(group, [int(v, 2) for v in basis]).elements
    path = tmp_path / "h_k16.txt"
    path.write_text("".join(f"{group.format_element(x)}\n" for x in elements if x))
    code = main(["--format", "json", "validate-fixture", str(path)])
    assert code == EXIT_REJECT
    assert capsys.readouterr().out == (PINNED / "validate_fixture_k16_t10.json").read_text()
