"""Per-layer tracing of relrep from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper
at every place it is bound: the defining module, every relrep module that
imported it by name, and the package namespace.  Methods and cached
properties are replaced on their class.  ``uninstall`` puts the originals
back, so untraced passes run relrep's own code objects.

A wrapped call's self time is its duration minus the durations of the
wrapped calls made inside it.  Counts that explain the work (sumset path and
cells, witness-product flops, extension outcomes) are taken from the wrapped
calls' arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

MODULES = ("relrep", "relrep.algebra", "relrep.groups", "relrep.verify",
           "relrep.gf2", "relrep.comer", "relrep.johnson", "relrep.cli")

# metric prefix -> (module, attribute path) of every traced callable
TRACED = {
    "cli.main": ("relrep.cli", "main"),
    "cli.load_partition": ("relrep.cli", "load_partition"),
    "groups.sumset": ("relrep.groups", "sumset"),
    "groups.weight_class": ("relrep.groups", "weight_class"),
    "verify.verify_sumsets": ("relrep.verify", "verify_sumsets"),
    "verify.verify_bruteforce": ("relrep.verify", "verify_bruteforce"),
    "verify.cayley_coloring": ("relrep.verify", "cayley_coloring"),
    "verify.equivalence_classes": ("relrep.verify", "equivalence_classes"),
    "verify.ColoredPartition.validate": ("relrep.verify", "ColoredPartition.validate"),
    "verify.EdgeColoring.validate": ("relrep.verify", "EdgeColoring.validate"),
    "gf2.extend_basis": ("relrep.gf2", "extend_basis"),
    "gf2.search": ("relrep.gf2", "search"),
    "gf2.precheck": ("relrep.gf2", "precheck"),
    "gf2.induced_partition": ("relrep.gf2", "induced_partition"),
    "gf2.validate_fixture": ("relrep.gf2", "validate_fixture"),
    "comer.build_scheme": ("relrep.comer", "build_scheme"),
    "johnson.partition_coloring": ("relrep.johnson", "partition_coloring"),
    "johnson.point_bitmasks": ("relrep.johnson", "JohnsonUniverse.point_bitmasks"),
    "johnson.random_equitable_partition": ("relrep.johnson", "random_equitable_partition"),
    "johnson.mc_trial": ("relrep.johnson", "mc_trial"),
}


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # wrapped-child time of each open call
        self._patches: list[tuple[object, str, object]] = []
        self._observers = {"groups.sumset": self._observe_sumset,
                           "verify.verify_bruteforce": self._observe_bruteforce,
                           "gf2.extend_basis": self._observe_extension}

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module_name, path) in TRACED.items():
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, original.func))
                wrapped.__set_name__(owner, attr)
                self._patch(owner, attr, wrapped)
            elif classes:
                self._patch(owner, attr, self._wrap(name, original))
            else:
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        children = self._children
        stat = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = children.pop()
                if children:
                    children[-1] += elapsed
                entry = stat[name]
                entry.calls += 1
                entry.self_s += elapsed - child
            if observe is not None:
                observe(elapsed, args, result)
            return result

        return wrapper

    # -- counts taken from arguments and results ----------------------------

    def _observe_sumset(self, elapsed, args, result) -> None:
        left, right = args[0], args[1]
        order = left.group.order
        empty = len(left) == 0 or len(right) == 0
        if left.group.is_elementary_two:
            self.counts["wht_s"] += elapsed
            if not empty:  # three length-N transforms of N log2 N butterflies
                self.counts["wht_cells"] += 3 * order * math.log2(order)
        else:
            self.counts["translate_s"] += elapsed
            if not empty:  # one N-cell mask OR per element of the smaller set
                self.counts["translate_cells"] += min(len(left), len(right)) * order

    def _observe_bruteforce(self, elapsed, args, result) -> None:
        coloring = args[1]
        n = coloring.point_count
        atoms = len(coloring.atom_names) - 1
        self.counts["points"] += n
        self.counts["witness_flops"] += len(result.pair_checks) * 2 * n ** 3
        self.counts["float_bytes"] = max(self.counts["float_bytes"], atoms * 8 * n * n)

    def _observe_extension(self, elapsed, args, result) -> None:
        reason = getattr(result, "reason", None)
        key = {None: "accepted", "escapes_allowed": "rejected_escapes",
               "dependent": "rejected_dependent"}[reason]
        self.counts[key] += 1

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TRACED:
            entry = self.stats.get(name, _Stat())
            out[f"{name}.self_ms"] = entry.self_s * 1e3
            out[f"{name}.calls"] = entry.calls
        c = self.counts
        extensions = out["gf2.extend_basis.calls"]
        out.update({
            "gf2.extend_basis.accepted": c["accepted"],
            "gf2.extend_basis.rejected_escapes": c["rejected_escapes"],
            "gf2.extend_basis.rejected_dependent": c["rejected_dependent"],
            "gf2.extend_basis.accept_ratio": c["accepted"] / extensions if extensions else 0.0,
            "groups.sumset.wht_ms": c["wht_s"] * 1e3,
            "groups.sumset.translate_ms": c["translate_s"] * 1e3,
            "groups.sumset.wht_cells": c["wht_cells"],
            "groups.sumset.translate_cells": c["translate_cells"],
            "verify.verify_bruteforce.points": c["points"],
            "verify.verify_bruteforce.witness_flops": c["witness_flops"],
            "verify.verify_bruteforce.float_bytes": c["float_bytes"],
        })
        return out

