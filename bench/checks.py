"""Output checks for benchmark ops.

Each check takes an op, the exit code and the captured JSON text and returns
None when the output is correct, or a one-line reason.  A ``reject`` verdict
is a result, not a failure; an op fails when its exit code does not match its
verdict, when the two verifiers disagree, or when an independent recomputation
contradicts the payload.
"""

from __future__ import annotations

import functools
import json
import random

import numpy as np

from relrep import (ColoredPartition, ElementSet, GroupSpec, builtin_52_65,
                    cayley_coloring, span, verify_bruteforce, verify_sumsets)
from relrep.johnson import (JohnsonUniverse, classify, partition_coloring,
                            random_equitable_partition)

EDGE_SAMPLE = 200  # seeded edges per johnson-mc op re-classified one by one


def check(op, rc: int | None, text: str) -> str | None:
    if rc is None:
        return "raised " + text.strip().splitlines()[-1]
    if rc not in (0, 1):
        return f"exit code {rc}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    return _CHECKS[op.kind](op, rc, payload)


def _rc_matches(rc: int, accepted: bool) -> str | None:
    if rc != (0 if accepted else 1):
        return f"exit code {rc} does not match {'accept' if accepted else 'reject'}"
    return None


def _expected(op, verdict: str) -> str | None:
    if op.expect is not None and verdict != op.expect:
        return f"verdict {verdict}, expected {op.expect}"
    return None


def _agree(sumsets: dict, brute: dict) -> str | None:
    """The two verifiers give the same verdict and the same per-pair outcome."""
    if sumsets["verdict"] != brute["verdict"]:
        return f"sumsets says {sumsets['verdict']}, bruteforce says {brute['verdict']}"
    left = [(p["pair"], p["ok"]) for p in sumsets["pairs"]]
    right = [(p["pair"], p["ok"]) for p in brute["pairs"]]
    if left != right:
        return "sumsets and bruteforce disagree on the pair checks"
    return None


def _check_verify(op, rc, payload) -> str | None:
    """verify-group-rep --method both, and build-59, which runs both verifiers."""
    reports = payload["reports"]
    accepted = payload["verdict"] == "accept"
    return (_agree(reports["sumsets"], reports["bruteforce"])
            or _rc_matches(rc, accepted)
            or _expected(op, payload["verdict"]))


def _check_fixture(op, rc, payload) -> str | None:
    if payload["verification"] is None or payload["verification"]["verdict"] != payload["verdict"]:
        return "fixture verdict does not match its sumset verification"
    return _rc_matches(rc, payload["verdict"] == "accept") or _expected(op, payload["verdict"])


def _weights(k: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(1 << k)])


def induced_partition(k: int, t: int, elements: ElementSet) -> ColoredPartition:
    """The coloring a subgroup H of the low shell induces, built from own
    popcounts: b = H minus 0, a = the rest of the low shell, c = the high shell."""
    group = elements.group
    weights = _weights(k)
    b = ElementSet(group, elements.mask & (np.arange(group.order) != 0))
    low = ElementSet(group, (weights >= 1) & (weights <= t))
    high = ElementSet(group, weights > t)
    return ColoredPartition(group, {"a": low - b, "b": b, "c": high})


def _check_search(op, rc, payload) -> str | None:
    k, t = payload["k"], payload["t"]
    group = GroupSpec.power(2, k)
    basis = [int(b, 2) for b in payload["basis"]]
    rows, rank = list(basis), 0
    for bit in reversed(range(k)):  # Gaussian elimination over GF(2)
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
        rank += 1
    if rank != len(basis):
        return "returned basis is not independent"
    elements = span(group, basis).elements
    if len(elements) != 2 ** rank or payload["order"] != len(elements):
        return f"span order {len(elements)}, payload order {payload['order']}, rank {rank}"
    weights = _weights(k)
    members = elements.indices()
    if not ((weights[members] >= 1) & (weights[members] <= t) | (members == 0)).all():
        return "span leaves the low shell"
    part = induced_partition(k, t, elements)
    spec = builtin_52_65()
    fresh = verify_sumsets(spec, part)
    if fresh.to_dict() != payload["report"] or fresh.verdict != payload["verdict"]:
        return "report differs from a fresh verify_sumsets run"
    if k <= 10 and verify_bruteforce(spec, cayley_coloring(part),
                                     early_exit=True).verdict != payload["verdict"]:
        return "verdict differs from verify_bruteforce on the induced coloring"
    target = payload["target_order"]
    if payload["reached_target"] != (target is not None and payload["order"] >= target):
        return "reached_target does not match order and target"
    if op.min_order is not None and payload["order"] < op.min_order:
        return f"order {payload['order']}, below the {op.min_order} the search reaches"
    return _rc_matches(rc, fresh.accepted and (target is None or payload["reached_target"]))


@functools.lru_cache(maxsize=None)
def _universe(n: int) -> JohnsonUniverse:
    return JohnsonUniverse(n)  # one per n, so its point bitmasks are built once


def _check_johnson(op, rc, payload) -> str | None:
    n, seed = payload["n"], payload["seed"]
    u = _universe(n)
    if payload["universe_size"] != u.size or payload["class_size"] * 3 != u.size:
        return "universe or class size is wrong"
    if payload["trials"] != len(payload["records"]) or rc != 0:
        return "trial count or exit code is wrong"
    spec = builtin_52_65()
    for record in payload["records"]:
        part = random_equitable_partition(u, (seed, record["trial"]))
        coloring = partition_coloring(u, part)
        rng = random.Random(f"{seed}/{record['trial']}")
        for _ in range(EDGE_SAMPLE):
            x, y = rng.randrange(u.size), rng.randrange(u.size)
            if coloring.atom_names[coloring.colors[x, y]] != classify(u, part, x, y):
                return f"edge ({x},{y}) is colored differently from classify"
        reason = _recount(u, part, coloring, spec, record, rng)
        if reason:
            return f"trial {record['trial']}: {reason}"
    return None


def _recount(u, part, coloring, spec, record, rng) -> str | None:
    """Recount every cycle's violations with an own witness product and
    compare them with the reported counts, including the cycles the payload
    leaves out as zero; derive the verdict from the recount; and re-classify
    a seeded sample of the violating edges and triangles."""
    names = [a.name for a in spec.diversity_atoms]  # verify_bruteforce's pair order
    codes = {name: code for code, name in enumerate(coloring.atom_names)}
    masks = {name: coloring.colors == codes[name] for name in names}
    floats = {name: mask.astype(np.float32) for name, mask in masks.items()}
    counts = record["counts_by_cycle"]
    recounted: dict[str, int] = {}
    for j_pos, j in enumerate(names):
        for k in names[j_pos:]:
            # one product per unordered pair; float32 counts are exact below 2^24 points
            reach = (floats[j] @ floats[k]) > 0.5
            for i in names:
                key = f"{i},{j},{k}"
                required = spec.is_cycle(i, j, k)
                bad = np.argwhere(masks[i] & (~reach if required else reach))
                recounted[key] = len(bad)
                if counts.get(key, 0) != len(bad):
                    return (f"cycle {key}: {len(bad)} violations recounted, "
                            f"{counts.get(key, 0)} reported")
                for x, y in (bad[rng.randrange(len(bad))] for _ in range(min(5, len(bad)))):
                    reason = _check_violation(u, part, masks, key, required, int(x), int(y))
                    if reason:
                        return reason
    unknown = sorted(set(counts) - set(recounted))
    if unknown:
        return f"cycle {unknown[0]} is not a cycle of the algebra's atoms"
    total = sum(recounted.values())
    verdict = "accept" if total == 0 else "reject"
    if record["violation_count"] != total or record["verdict"] != verdict:
        return (f"{total} violations recounted; reported {record['violation_count']}, "
                f"verdict {record['verdict']}")
    return None


def _check_violation(u, part, masks, key, required, x, y) -> str | None:
    """Edge (x, y) violates cycle ``key``: re-classified one edge at a time."""
    i, j, k = key.split(",")
    if classify(u, part, x, y) != i:
        return f"edge ({x},{y}) of a {key} violation is not {i}"
    witnesses = np.flatnonzero(masks[j][x] & masks[k][:, y])
    if required != (witnesses.size == 0):
        return f"edge ({x},{y}) does not violate cycle {key}"
    if not required:
        z = int(witnesses[0])
        if (classify(u, part, x, z), classify(u, part, z, y)) != (j, k):
            return f"triangle ({x},{z},{y}) is not a {key} triangle"
    return None


_CHECKS = {"verify": _check_verify,
           "validate-fixture": _check_fixture, "search": _check_search,
           "johnson-mc": _check_johnson}
