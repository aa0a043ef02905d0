"""Seeded op lists for the relrep benchmark workloads.

A workload is a pure function of its name and seed: the same pair always
gives the same input files, warm-up op and op list.  An op is one call of
``relrep.cli.main(["--format", "json", *argv])``; in an argument, ``{work}``
stands for the directory the input files are written to before timing and
``{root}`` for the repository root.

The mix of op sizes in each list is fixed and only the contents are seeded,
so that the median and the 90th-percentile latency each fall inside one
block of same-sized ops, never on the edge between two blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("certify", "search", "johnson-mc")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``kind`` selects the output check; ``expect`` is a
    verdict known in advance ("accept"), or None when only the two verifiers'
    agreement is checked.  ``min_order`` is the subgroup order a search op
    must reach at least."""

    kind: str
    argv: tuple[str, ...]
    expect: str | None = None
    min_order: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    files: tuple[tuple[str, str], ...]  # (file name, text) in the input dir
    warmup: Op
    ops: tuple[Op, ...]


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"relrep-bench/{name}/{seed}")
    make = {"certify": _certify, "search": _search, "johnson-mc": _johnson}[name]
    files, warmup, ops = make(rng)
    rng.shuffle(ops)
    return Workload(name, seed, tuple(files), warmup, tuple(ops))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


# -- certify -------------------------------------------------------------------

# 59_65 over Z/113: b = X_0, a = X_1..X_5, c = X_6, X_7 (cyclotomic classes
# for the smallest primitive root, 3).  Multiplying every element by 3^s maps
# X_i onto X_{i+s}, an automorphism of Z/113, so each shift s of this grouping
# is again a representation of 59_65: the accept path with a known answer.
_GROUPING_59 = "baaaaacc"
P = 113
M = 8


def _cyclotomic_classes() -> list[list[int]]:
    classes: list[list[int]] = [[] for _ in range(M)]
    power = 1
    for t in range(P - 1):
        classes[t % M].append(power)
        power = power * 3 % P
    return classes


def _partition_text(group: str, atom_of: dict[str, str]) -> str:
    lines = [f"group: {group}"]
    lines += [f"{atom} {element}" for element, atom in atom_of.items()]
    return "\n".join(lines) + "\n"


def _grouping_text(grouping: str) -> str:
    atom_of = {}
    for i, members in enumerate(_cyclotomic_classes()):
        for x in members:
            atom_of[str(x)] = grouping[i]
    return _partition_text(f"z:{P}", dict(sorted(atom_of.items(), key=lambda kv: int(kv[0]))))


def _random_symmetric_113(rng: random.Random) -> str:
    atom_of = {}
    for x in range(1, (P + 1) // 2):
        atom_of[x] = atom_of[P - x] = rng.choice("abc")
    return _partition_text(f"z:{P}", {str(x): atom_of[x] for x in sorted(atom_of)})


def _random_gf2(rng: random.Random, k: int) -> str:
    # every element of (Z/2)^k is its own negative, so any split is symmetric
    return _partition_text(f"2^{k}", {format(x, f"0{k}b"): rng.choice("abc")
                                      for x in range(1, 1 << k)})


def _shifted_59(rng: random.Random) -> str:
    s = rng.randrange(M)
    return _grouping_text(_GROUPING_59[-s:] + _GROUPING_59[:-s])


def _verify_argv(path: str, spec: str, early_exit: bool) -> tuple[str, ...]:
    argv = ("verify-group-rep", "{work}/" + path, "--spec", spec, "--method", "both")
    return argv if early_exit else argv + ("--no-early-exit",)


def _certify(rng: random.Random):
    """100 ops: 74 Z/113 candidates (~8 ms each), build-59 and the fixture
    (~20-50 ms), and 24 (Z/2)^10 candidates (~100-340 ms each)."""
    files: list[tuple[str, str]] = []
    ops: list[Op] = []

    def add_file(stem: str, text: str) -> str:
        path = f"{stem}_{len(files):03d}.txt"
        files.append((path, text))
        return path

    for i in range(24):  # shifted 59_65 groupings: accept under 59_65
        path = add_file("shift", _shifted_59(rng))
        ops.append(Op("verify", _verify_argv(path, "59_65", i % 2 == 0), "accept"))
    for i in range(8):  # the same groupings checked against 52_65: reject
        path = add_file("shift", _shifted_59(rng))
        ops.append(Op("verify", _verify_argv(path, "52_65", i % 2 == 0)))
    for i in range(20):  # seeded groupings of X_0..X_7 into a/b/c, all three used
        grouping = ""
        while set(grouping) != set("abc"):
            grouping = "".join(rng.choice("abc") for _ in range(M))
        path = add_file("group", _grouping_text(grouping))
        ops.append(Op("verify", _verify_argv(path, ("59_65", "52_65")[i % 2], i % 4 < 2)))
    for i in range(22):  # random symmetric 3-atom partitions of Z/113
        path = add_file("sym113", _random_symmetric_113(rng))
        ops.append(Op("verify", _verify_argv(path, ("59_65", "52_65")[i % 2], i % 4 < 2)))
    for _ in range(24):  # random partitions of (Z/2)^10 against 52_65: the middle-N path
        path = add_file("gf2k10", _random_gf2(rng, 10))
        ops.append(Op("verify", _verify_argv(path, "52_65", True)))
    ops.append(Op("verify", ("build-59",), "accept"))
    ops.append(Op("validate-fixture", ("validate-fixture", "{root}/fixtures/h52_k10.txt"),
                  "accept"))

    path = add_file("warmup", _shifted_59(rng))
    warmup = Op("verify", _verify_argv(path, "59_65", False), "accept")
    return files, warmup, ops


# -- search --------------------------------------------------------------------


# The subgroup order each search op must reach: what the seed code reached
# on every op and restart it was tried on (k=7 stalls at 16), so that a
# faster search returning smaller subgroups fails its check.
_MIN_ORDER = {7: 16, 10: 64, 13: 256}


def _search_op(rng: random.Random, k: int, *extra: str) -> Op:
    return Op("search", ("search-gf2", "--k", str(k), "--seed", _seed(rng)) + extra,
              min_order=_MIN_ORDER[k])


def _search(rng: random.Random):
    """40 ops: 4 k=10 searches that stop at order 64 (~10 ms), 4 stalled k=7
    searches with backtracking (~50 ms) and 32 one-restart k=13 searches
    (~200 ms).  Both percentiles fall inside the k=13 block, the median near
    its middle: the small ops are bound by Python overhead, whose speed
    drifts most between runs on a shared machine."""
    ops = [_search_op(rng, 10, "--target-order", "64") for _ in range(4)]
    ops += [_search_op(rng, 7, "--restarts", "8", "--backtrack", "2") for _ in range(4)]
    ops += [_search_op(rng, 13, "--restarts", "1") for _ in range(32)]
    warmup = _search_op(rng, 10, "--target-order", "64")
    return [], warmup, ops


# -- johnson-mc ----------------------------------------------------------------


def _johnson_op(rng: random.Random, n: int) -> Op:
    return Op("johnson-mc", ("johnson-mc", "--n", str(n), "--trials", "1",
                             "--seed", _seed(rng)))


def _johnson(rng: random.Random):
    """61 ops: 60 trials at n=5 (462 points, ~40 ms) and one at n=6 (3003
    points, ~4 s); the n=6 trial stays above the 90th percentile."""
    ops = [_johnson_op(rng, 5) for _ in range(60)] + [_johnson_op(rng, 6)]
    warmup = _johnson_op(rng, 5)
    return [], warmup, ops
