"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline; without -s they still appear in pytest's captured output.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from helpers import fixture_classes_oracle, random_symmetric_partition
from relrep import (ElementSet, GroupSpec, SearchConfig, builtin_52_65,
                    builtin_59_65, build_59_65_partition, build_scheme,
                    cayley_coloring, default_threshold, hamming_weights,
                    induced_partition, mc_trial, minimal_sufficient_n,
                    parse_bitstrings, precheck,
                    primitive_root, probability_bound, search,
                    shipped_subgroup_bitstrings, span, sumset,
                    validate_fixture, verify_bruteforce, verify_sumsets,
                    acc_witness_family, JohnsonUniverse)


def _criterion(number: int, description: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: " + ", ".join(
        name for name, value in checks.items() if not value)


def test_criterion_1_fixture_regression():
    start = time.monotonic()
    result = validate_fixture(shipped_subgroup_bitstrings())
    elapsed = time.monotonic() - start
    # the cliques from the N^2 coloring, not from the closure check validate_fixture reads
    classes_ok, class_count, class_size = fixture_classes_oracle(
        shipped_subgroup_bitstrings())
    _criterion(1, "52_65 fixture over (Z/2)^10 passes all four checks", {
        "weights in [1,6]": result.weights_ok,
        "closure with 0 to order 64": result.closure_ok and result.subgroup_order == 64,
        "verify_sumsets accepts": result.verification.accepted,
        "16 b-clique classes of size 64": classes_ok and class_count == 16 and class_size == 64,
        "runtime < 2 s": elapsed < 2.0,
    })


def test_criterion_2_weight_class_identities():
    report = precheck(10, 6)
    by_name = {c.name: c.holds for c in report.checks}
    expected_low = sum(math.comb(10, w) for w in range(1, 7))
    expected_high = sum(math.comb(10, w) for w in range(7, 11))
    _criterion(2, "weight-class identities at k=10, t=6 hold exactly", {
        "X+X = G": by_name["X+X = G"],
        "X+C = G minus 0": by_name["X+C = G minus 0"],
        "C+C = G minus C": by_name["C+C = G minus C"],
        "|X| = 847": report.low_size == expected_low == 847,
        "|C| = 176": report.high_size == expected_high == 176,
    })


def test_criterion_3_comer_regression():
    start = time.monotonic()
    scheme = build_scheme(113, 8)
    expected_forbidden = set()
    for i in range(8):
        for d in (0, 6, 7):
            expected_forbidden.add(tuple(sorted((i, i, (i + d) % 8))))
    part = build_59_65_partition(scheme)
    g = scheme.group
    a, b, c = (part.assignment[n] for n in ("a", "b", "c"))
    everything = ElementSet.full(g)
    nonzero = everything - ElementSet.singleton(g, 0)
    bullets = (
        sumset(a, a) == everything,
        sumset(a, b) == nonzero,
        sumset(a, c) == nonzero,
        sumset(b, b) == ElementSet.singleton(g, 0) | a,
        sumset(b, c) == a | c,
        sumset(c, c) == everything,
    )
    sumset_report = verify_sumsets(builtin_59_65(), part)
    brute_report = verify_bruteforce(builtin_59_65(), cayley_coloring(part))
    elapsed = time.monotonic() - start
    _criterion(3, "59_65 over Z/113: cosets, forbidden families, bullets, verdicts", {
        "primitive_root(113) = 3": primitive_root(113) == 3,
        "forbidden = the three families exactly":
            scheme.forbidden_multisets() == expected_forbidden,
        "all six sumset bullets hold": all(bullets),
        "verify_sumsets accepts": sumset_report.accepted,
        "verify_bruteforce agrees": brute_report.accepted,
        "runtime < 5 s": elapsed < 5.0,
    })


def test_criterion_4_probability_bound():
    agreement = True
    for n in range(3, 21):
        result = probability_bound(n)
        exact = (Fraction(math.comb(3 * n - 4, n)) ** 2 * 64
                 * Fraction(2, 3) ** ((n - 2) ** 2))
        exact_log = math.log(exact.numerator) - math.log(exact.denominator)
        if result.below_one != (exact < 1):
            agreement = False
        if abs(result.log_value - exact_log) > 1e-9 * abs(exact_log):
            agreement = False
    _criterion(4, "probability bound reproduces n = 13 and the exact binomial", {
        "minimal_sufficient_n() = 13": minimal_sufficient_n() == 13,
        "C(35,13) = 1476337800": probability_bound(13).binomial == 1476337800,
        "bound(12) not below one": not probability_bound(12).below_one,
        "bound(13) below one": probability_bound(13).below_one,
        "log-space matches exact rationals to 1e-9 for n <= 20": agreement,
    })


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    groups = [GroupSpec.cyclic(n) for n in range(5, 25)]
    groups += [GroupSpec.power(2, k) for k in range(1, 7)]
    specs = (builtin_52_65(), builtin_59_65())
    partitions = 0
    agreed = True
    for group in groups:
        rng = np.random.default_rng(group.order * 1000 + group.rank)
        for _ in range(8):
            part = random_symmetric_partition(group, ("a", "b", "c"), rng)
            partitions += 1
            coloring = cayley_coloring(part)
            for spec in specs:
                direct = verify_sumsets(spec, part).accepted
                brute = verify_bruteforce(spec, coloring).accepted
                if direct != brute:
                    agreed = False
    elapsed = time.monotonic() - start
    _criterion(5, "sumset and brute-force verdicts agree on random partitions", {
        "every group in Z/5..Z/24 and (Z/2)^1..6 covered": len(groups) == 26,
        "at least 200 partitions": partitions >= 200,
        "all verdicts identical": agreed,
        "runtime < 60 s": elapsed < 60.0,
    })


def test_criterion_6_johnson_harness_determinism():
    start = time.monotonic()
    first = mc_trial(5, 5, seed=2026)
    second = mc_trial(5, 5, seed=2026)
    elapsed = time.monotonic() - start
    identical = (json.dumps(first.to_dict(), sort_keys=True)
                 == json.dumps(second.to_dict(), sort_keys=True))
    n4_rejected = False
    try:
        mc_trial(4, 1, seed=0)
    except ValueError:
        n4_rejected = True
    _criterion(6, "johnson-mc at n=5 is deterministic; n=4 rejected", {
        "universe is 462 points": first.universe_size == 462,
        "five trials recorded": len(first.records) == 5,
        "byte-identical reports": identical,
        "n=4 rejected (70 not divisible by 3)": n4_rejected,
        "runtime < 60 s for both runs": elapsed < 60.0,
    })


def _independently_sound(outcome, k, t) -> bool:
    group = GroupSpec.power(2, k)
    subgroup = span(group, outcome.basis)
    if subgroup.order != outcome.order:
        return False
    if sumset(subgroup.elements, subgroup.elements) != subgroup.elements:
        return False
    weights = hamming_weights(k)
    nonzero = subgroup.elements.indices()
    nonzero = nonzero[nonzero != 0]
    if nonzero.size and not ((weights[nonzero] >= 1) & (weights[nonzero] <= t)).all():
        return False
    fresh = verify_sumsets(builtin_52_65(), induced_partition(group, subgroup.elements))
    return fresh.accepted == outcome.report.accepted


def test_criterion_7_search_soundness_and_determinism():
    fixture_elements = tuple(parse_bitstrings(shipped_subgroup_bitstrings(), 10))
    seeded_cfg = SearchConfig(k=10, target_order=64, seed=42, restarts=2,
                              initial_elements=fixture_elements)
    seeded = search(seeded_cfg)

    configs = (SearchConfig(k=10, seed=6, restarts=3),
               SearchConfig(k=7, seed=7, restarts=4, backtrack=1),
               SearchConfig(k=13, seed=8, restarts=1))
    sound = True
    deterministic = True
    for config in configs:
        out1 = search(config)
        out2 = search(config)
        if out1.to_dict() != out2.to_dict():
            deterministic = False
        if not _independently_sound(out1, config.k, default_threshold(config.k)):
            sound = False
    _criterion(7, "search outcomes re-validate and reproduce; fixture seed reaches 64", {
        "fixture-seeded search reaches order 64": seeded.order == 64 and seeded.reached_target,
        "fixture-seeded report accepts": seeded.report.accepted,
        "identical config+seed reproduces outcomes": deterministic,
        "every outcome re-validates from scratch":
            sound and _independently_sound(seeded, 10, 6),
    })


def test_criterion_8_witness_family_property():
    ok_sizes = True
    ok_meets = True
    for n in range(4, 9):
        u = JohnsonUniverse(n)
        rng = np.random.default_rng(n * 31)
        for _ in range(4):
            shared = [int(v) for v in rng.choice(u.ground_size, size=2, replace=False)]
            rest = [g for g in range(u.ground_size) if g not in shared]
            rng.shuffle(rest)
            x = tuple(shared) + tuple(rest[:n - 2])
            y = tuple(shared) + tuple(rest[n - 2:2 * (n - 2)])
            family = acc_witness_family(u, u.rank(x), u.rank(y))
            if len(set(family)) != (n - 2) ** 2:
                ok_sizes = False
            for zr in family:
                z = set(u.unrank(zr))
                if len(z & set(x)) > 1 or len(z & set(y)) > 1:
                    ok_meets = False
    _criterion(8, "witness families have exactly (n-2)^2 members meeting x, y in <= 1", {
        "sizes exact and members distinct (n in 4..8)": ok_sizes,
        "all members meet x and y in at most one element": ok_meets,
    })
