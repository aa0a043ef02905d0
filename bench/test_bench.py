"""Self-tests of the benchmark (not part of relrep's own suite).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import relrep  # noqa: E402
import relrep.groups  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One small op of each output check, with its input files written."""
    work = tmp_path_factory.mktemp("work")
    certify = workloads.generate("certify", 7)
    for name, text in certify.files:
        (work / name).write_text(text)
    by_argv = {op.argv[1] if len(op.argv) > 1 else op.argv[0]: op for op in certify.ops}
    picks = [certify.warmup, by_argv["build-59"], by_argv["{root}/fixtures/h52_k10.txt"],
             next(op for op in certify.ops if "gf2k10" in op.argv[1])]
    search = workloads.generate("search", 7)
    picks += [search.warmup, next(op for op in search.ops if op.argv[2] == "7")]
    picks.append(workloads.generate("johnson-mc", 7).warmup)
    return work, picks


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_a_pure_function_of_the_seed(name):
    first, again, other = (workloads.generate(name, s) for s in (3, 3, 4))
    assert first == again
    assert first.ops != other.ops
    # only contents are seeded: the mix of op shapes is the same for every seed
    shape = [sorted(op.argv[:3] + (op.expect,) for op in w.ops) for w in (first, other)]
    assert shape[0] == shape[1]


def test_traced_and_untraced_runs_print_identical_outputs(inputs):
    work, ops = inputs
    untraced = [run.call(run.resolve(op, work))[:2] for op in ops]
    original = relrep.groups.sumset
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run.call(run.resolve(op, work))[:2] for op in ops]
        assert relrep.verify.sumset is not original
    finally:
        tracer.uninstall()
    assert relrep.verify.sumset is original and relrep.gf2.sumset is original
    assert traced == untraced
    assert [checks.check(op, rc, text) for op, (rc, text) in zip(ops, untraced)] == [None] * len(ops)
    layers = tracer.metrics()
    assert layers["cli.main.calls"] == len(ops)
    assert layers["gf2.extend_basis.calls"] == (layers["gf2.extend_basis.accepted"]
                                                + layers["gf2.extend_basis.rejected_escapes"]
                                                + layers["gf2.extend_basis.rejected_dependent"])
    assert layers["verify.verify_bruteforce.points"] > 0 and layers["groups.sumset.wht_cells"] > 0


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer._wrap("outer", outer_body)()
    assert tracer.stats["inner"].self_s >= 0.05
    assert 0.01 <= tracer.stats["outer"].self_s < 0.05


def _corrupt(payload: dict) -> None:
    if "reports" in payload:  # a verifier's pair flag flips
        pair = payload["reports"]["bruteforce"]["pairs"][0]
        pair["ok"] = not pair["ok"]
    elif "basis" in payload:  # a basis vector goes missing
        payload["basis"].pop()
    elif "records" in payload:  # a violation count changes
        payload["records"][0]["violation_count"] += 1
    else:  # the fixture's sumset verdict changes
        payload["verification"]["verdict"] = "reject"


def test_a_corrupted_output_is_counted_as_failed(inputs):
    work, ops = inputs
    first = [run.call(run.resolve(op, work))[:2] for op in ops]
    workload = workloads.Workload("test", 0, (), ops[0], tuple(ops))
    passes = [{"differs": set()}, {"differs": set()}]
    assert run.count_failures(workload, first, passes, first[0], [])[0] == 0

    for i, (rc, text) in enumerate(first):
        payload = json.loads(text)
        _corrupt(payload)
        bad = list(first)
        bad[i] = (rc, json.dumps(payload))
        failed, reasons = run.count_failures(workload, bad, passes, first[0], [])
        assert failed == len(passes), (ops[i].argv, reasons)

    # a repeat that prints other bytes fails on its own
    passes = [{"differs": set()}, {"differs": {1}}]
    assert run.count_failures(workload, first, passes, first[0], [])[0] == 1


def test_johnson_check_catches_missed_violations(inputs):
    work, ops = inputs
    op = next(op for op in ops if op.kind == "johnson-mc")
    rc, text, _ = run.call(run.resolve(op, work))
    payload = json.loads(text)
    record = payload["records"][0]
    assert record["verdict"] == "reject" and checks.check(op, rc, text) is None

    # a cycle's violations go missing and the totals still add up
    key, count = next(iter(record["counts_by_cycle"].items()))
    del record["counts_by_cycle"][key]
    record["violation_count"] -= count
    assert checks.check(op, rc, json.dumps(payload))

    # a rejecting trial is reported as accepted, with no violations at all
    record.update(verdict="accept", violation_count=0, counts_by_cycle={})
    assert checks.check(op, rc, json.dumps(payload))


def test_search_check_rejects_a_smaller_subgroup(inputs):
    work, ops = inputs
    op = next(op for op in ops if op.kind == "search" and op.argv[2] == "7")
    rc, text, _ = run.call(run.resolve(op, work))
    payload = json.loads(text)
    assert payload["order"] == op.min_order and checks.check(op, rc, text) is None

    # a consistent result one basis vector short: only its order gives it away
    k, t = payload["k"], payload["t"]
    payload["basis"].pop()
    payload["order"] //= 2
    group = relrep.GroupSpec.power(2, k)
    elements = relrep.span(group, [int(b, 2) for b in payload["basis"]]).elements
    report = relrep.verify_sumsets(relrep.builtin_52_65(),
                                   checks.induced_partition(k, t, elements))
    payload.update(report=report.to_dict(), verdict=report.verdict)
    assert checks.check(op, rc, json.dumps(payload)).startswith(f"order {payload['order']}")
