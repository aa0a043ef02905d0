"""Single command-line entry point with deterministic, machine-readable output.

Exit codes: 0 for success or an accepting verdict, 1 for a rejecting verdict,
2 for usage or structural errors.  ``--format json`` emits stable sorted-key
JSON meant for CI; randomized subcommands echo their effective seed, and
re-running with that seed reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

from .algebra import RaSpec, builtin, parse_spec
from .comer import SchemeError, build_59_65_partition, build_scheme, sweep_schemes
from .gf2 import SearchConfig, parse_bitstrings, search, validate_fixture
from .groups import ElementSet, GroupSpec
from .johnson import mc_trial, minimal_sufficient_n, probability_bound
from .verify import (ColoredPartition, StructuralError, cayley_coloring,
                     verify_bruteforce, verify_sumsets)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


# -- group flags and partition files -----------------------------------------


def parse_group_flag(text: str) -> GroupSpec:
    """Group descriptors: ``z:N`` (cyclic), ``B^K`` (B repeated K times, e.g.
    2^10 for elementary abelian), or ``N1xN2x...`` (explicit product)."""
    text = text.strip()
    try:
        if text.startswith("z:"):
            return GroupSpec.cyclic(int(text[2:]))
        if "^" in text:
            base, _, exp = text.partition("^")
            return GroupSpec.power(int(base), int(exp))
        if "x" in text:
            return GroupSpec(tuple(int(p) for p in text.split("x")))
        return GroupSpec.cyclic(int(text))
    except ValueError as exc:
        raise StructuralError(f"bad group descriptor {text!r}: {exc}") from None


def format_group_flag(group: GroupSpec) -> str:
    if group.rank == 1:
        return f"z:{group.moduli[0]}"
    if len(set(group.moduli)) == 1:
        return f"{group.moduli[0]}^{group.rank}"
    return "x".join(str(n) for n in group.moduli)


def load_partition(path, group: GroupSpec | None = None,
                   spec: RaSpec | None = None) -> ColoredPartition:
    """Read an ``atom element`` partition file (optional ``group:`` directive).

    Structural problems (gap, overlap, zero assigned, asymmetric set, group
    mismatch) raise StructuralError, as do atom names a given spec lacks.  Spec
    atoms the file never mentions get empty sets: faithfulness then fails at
    verification time, which is a verdict, not a structural error.
    """
    text = Path(path).read_text()
    file_group: GroupSpec | None = None
    rows: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("group:"):
            if file_group is not None:
                raise StructuralError(f"{path}:{lineno}: duplicate group directive")
            file_group = parse_group_flag(line[len("group:"):])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StructuralError(f"{path}:{lineno}: expected 'atom element', got {line!r}")
        rows.append((parts[0], parts[1]))
    if group is not None and file_group is not None and group != file_group:
        raise StructuralError(
            f"--group says {format_group_flag(group)} but {path} says "
            f"{format_group_flag(file_group)}")
    group = group or file_group
    if group is None:
        raise StructuralError(f"{path} has no group directive; pass --group")
    assignment: dict[str, set[int]] = {}
    for atom, element_text in rows:
        try:
            element = group.parse_element(element_text)
        except ValueError as exc:
            raise StructuralError(f"bad element in {path}: {exc}") from None
        assignment.setdefault(atom, set())
        for members in assignment.values():
            if element in members:
                raise StructuralError(
                    f"element {element_text} is assigned more than once in {path}")
        assignment[atom].add(element)
    if spec is not None:
        spec_names = [a.name for a in spec.diversity_atoms]
        unknown = sorted(set(assignment) - set(spec_names))
        if unknown:
            raise StructuralError(f"partition names atoms {unknown} that "
                                  f"{spec.label or 'the spec'} does not have")
        assignment.update((name, set()) for name in spec_names if name not in assignment)
    sets = {name: ElementSet.from_indices(group, members)
            for name, members in assignment.items()}
    return ColoredPartition(group, sets)  # validates gap/zero/symmetry


def write_partition(part: ColoredPartition, path) -> None:
    lines = [f"group: {format_group_flag(part.group)}"]
    for name in part.atom_names():
        for element in part.assignment[name]:
            lines.append(f"{name} {part.group.format_element(element)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _load_spec(ref: str) -> RaSpec:
    if ref in ("52_65", "59_65"):
        return builtin(ref)
    return parse_spec(Path(ref).read_text())


# -- output helpers ------------------------------------------------------------


def _report_table(report_dict: dict) -> list[str]:
    lines = [f"verdict: {report_dict['verdict']}  (method: {report_dict['method']})"]
    for pair in report_dict["pairs"]:
        j, k = pair["pair"]
        zero = " + {0}" if pair["include_zero"] else ""
        status = "ok" if pair["ok"] else "VIOLATED"
        lines.append(f"  {j}+{k}: expect {'+'.join(pair['expected_atoms']) or '(empty)'}"
                     f"{zero}  [{status}]")
    if report_dict["violation_count"]:
        lines.append(f"violations: {report_dict['violation_count']} total"
                     + (" (truncated)" if report_dict["truncated"] else ""))
        for v in report_dict["violations"][:10]:
            cycle = ",".join(v["cycle"]) if v["cycle"] else "-"
            lines.append(f"  {v['kind']} [{cycle}] at {v['where']}")
    return lines


def _effective_seed(value: int | None) -> int:
    return secrets.randbelow(2**32) if value is None else value


# -- subcommands ----------------------------------------------------------------
# Each returns (JSON payload, table lines, exit code); only main writes stdout.


def _cmd_show_algebra(args) -> tuple[dict, list[str], int]:
    spec = _load_spec(args.spec)
    profiles = []
    names = [a.name for a in spec.diversity_atoms]
    for i, j in ((i, j) for i in range(len(names)) for j in range(i, len(names))):
        prof, zero = spec.required_sumset_profile(names[i], names[j])
        profiles.append({"pair": [names[i], names[j]],
                         "atoms": sorted(a.name for a in prof),
                         "include_zero": zero})
    payload = {"name": spec.label,
               "atoms": [a.name for a in spec.atoms],
               "allowed_cycles": ["".join(t) for t in spec.cycle_names()],
               "forbidden_cycles": ["".join(t) for t in spec.forbidden_cycle_names()],
               "profiles": profiles}
    lines = [f"algebra {spec.label or '(unnamed)'}",
             "atoms: " + " ".join(payload["atoms"]),
             "allowed cycles: " + " ".join(payload["allowed_cycles"]),
             "forbidden cycles: " + " ".join(payload["forbidden_cycles"]),
             "required sumset profiles:"]
    for p in profiles:
        zero = " + {0}" if p["include_zero"] else ""
        lines.append(f"  {p['pair'][0]}+{p['pair'][1]} = "
                     f"{'+'.join(p['atoms']) or '(empty)'}{zero}")
    return payload, lines, EXIT_OK


def _cmd_verify_group_rep(args) -> tuple[dict, list[str], int]:
    spec = _load_spec(args.spec)
    group = parse_group_flag(args.group) if args.group else None
    part = load_partition(args.partition, group, spec)
    reports = {}
    if args.method in ("sumsets", "both"):
        reports["sumsets"] = verify_sumsets(spec, part, early_exit=args.early_exit)
    if args.method in ("bruteforce", "both"):
        reports["bruteforce"] = verify_bruteforce(spec, cayley_coloring(part),
                                                  early_exit=args.early_exit)
    accepted = all(r.accepted for r in reports.values())
    payload = {"spec": spec.label,
               "group": format_group_flag(part.group),
               "verdict": "accept" if accepted else "reject",
               "reports": {k: r.to_dict() for k, r in reports.items()}}
    lines = [f"spec {spec.label} over {part.group.describe()}"]
    for name, rep in reports.items():
        lines.extend(_report_table(rep.to_dict()))
    return payload, lines, EXIT_OK if accepted else EXIT_REJECT


def _cmd_comer(args) -> tuple[dict, list[str], int]:
    if args.p is None and not args.sweep_max_p:
        raise StructuralError("either --p or --sweep-max-p is required")
    if args.sweep_max_p:
        rows = sweep_schemes(args.sweep_max_p, args.m)
        payload = {"sweep": rows}
        lines = [f"p={r['p']} m={r['m']} g={r['g']} symmetric={r['symmetric']} "
                 + (f"allowed={r['allowed']} forbidden={r['forbidden']}"
                    if "allowed" in r else
                    f"ordered-cycles={r['allowed_ordered']} (orientation-dependent)")
                 for r in rows]
        return payload, lines, EXIT_OK
    scheme = build_scheme(args.p, args.m, args.g)
    payload = {"p": scheme.p, "m": scheme.m, "g": scheme.generator,
               "symmetric": scheme.symmetric,
               "coset_size": (scheme.p - 1) // scheme.m}
    lines = [f"scheme p={scheme.p} m={scheme.m} g={scheme.generator} "
             f"symmetric={scheme.symmetric} coset size {(scheme.p - 1) // scheme.m}"]
    try:
        allowed = sorted(scheme.cycle_multisets())
        forbidden = sorted(scheme.forbidden_multisets())
        payload["allowed"] = [list(t) for t in allowed]
        payload["forbidden"] = [list(t) for t in forbidden]
        lines.append(f"allowed cycles ({len(allowed)}): "
                     + " ".join("".join(map(str, t)) for t in allowed))
        lines.append(f"forbidden cycles ({len(forbidden)}): "
                     + " ".join("".join(map(str, t)) for t in forbidden))
    except SchemeError:
        ordered = sorted(scheme.cycles_ordered)
        payload["allowed_ordered"] = [list(t) for t in ordered]
        payload["orientation_dependent"] = True
        lines.append(f"orientation-dependent structure; {len(ordered)} ordered cycles")
    return payload, lines, EXIT_OK


def _cmd_build_59(args) -> tuple[dict, list[str], int]:
    scheme = build_scheme(args.p, 8, args.g)
    part = build_59_65_partition(scheme)
    spec = builtin("59_65")
    report = verify_sumsets(spec, part)
    brute = verify_bruteforce(spec, cayley_coloring(part))
    accepted = report.accepted and brute.accepted
    out_path = None
    if args.out:
        write_partition(part, args.out)
        out_path = str(args.out)
    payload = {"p": scheme.p, "m": scheme.m, "g": scheme.generator,
               "verdict": "accept" if accepted else "reject",
               "partition_file": out_path,
               "sizes": {n: len(part.assignment[n]) for n in part.atom_names()},
               "reports": {"sumsets": report.to_dict(), "bruteforce": brute.to_dict()}}
    lines = [f"59_65 over Z/{scheme.p} (m={scheme.m}, g={scheme.generator}): "
             f"sizes {payload['sizes']}"]
    lines.extend(_report_table(report.to_dict()))
    lines.append(f"bruteforce agrees: {brute.verdict}")
    if out_path:
        lines.append(f"partition written to {out_path}")
    return payload, lines, EXIT_OK if accepted else EXIT_REJECT


def _cmd_johnson_bound(args) -> tuple[dict, list[str], int]:
    rows = [probability_bound(n).to_dict() for n in range(3, args.max_n + 1)]
    first = next((r["n"] for r in rows if r["below_one"]), None)
    if first is None:
        first = minimal_sufficient_n()
    payload = {"rows": rows, "first_below_one": first}
    lines = [f"{'n':>4} {'C(3n-4,n)':>16} {'log10(bound)':>14} below_one"]
    for r in rows:
        lines.append(f"{r['n']:>4} {r['binomial']:>16} {r['log10_bound']:>14.4f} "
                     f"{str(r['below_one']).lower()}")
    lines.append(f"first n with bound < 1: {first}")
    return payload, lines, EXIT_OK


def _cmd_johnson_mc(args) -> tuple[dict, list[str], int]:
    seed = _effective_seed(args.seed)
    report = mc_trial(args.n, args.trials, seed)
    payload = report.to_dict()
    lines = [f"johnson mc: n={report.n} universe={report.universe_size} "
             f"classes of {report.class_size}, seed={report.seed}"]
    for rec in report.records:
        d = rec.to_dict()
        lines.append(f"  trial {d['trial']}: {d['verdict']} "
                     f"({d['violation_count']} violations)")
    return payload, lines, EXIT_OK


def _cmd_search_gf2(args) -> tuple[dict, list[str], int]:
    seed = _effective_seed(args.seed)
    initial = ()
    if args.seed_fixture:
        initial = tuple(parse_bitstrings(
            Path(args.seed_fixture).read_text().splitlines(), args.k))
    config = SearchConfig(k=args.k, t=args.t, target_order=args.target_order,
                          seed=seed, restarts=args.restarts,
                          backtrack=args.backtrack, time_budget=args.time_budget,
                          initial_elements=initial)
    outcome = search(config)
    payload = outcome.to_dict()
    lines = [f"search k={args.k} t={config.resolved_t} seed={seed}: "
             f"|H| = {outcome.order} after {outcome.restarts_run} restart(s) "
             f"(stopped by {outcome.stopped_by})",
             f"basis: {' '.join(payload['basis']) or '(trivial)'}",
             f"verdict: {outcome.report.verdict}"]
    accepted = outcome.report.accepted and (
        config.target_order is None or outcome.reached_target)
    return payload, lines, EXIT_OK if accepted else EXIT_REJECT


def _cmd_validate_fixture(args) -> tuple[dict, list[str], int]:
    lines_in = Path(args.path).read_text().splitlines()
    result = validate_fixture(lines_in, k=args.k, t=args.t)
    payload = result.to_dict()
    lines = [f"fixture {args.path}: {result.element_count} elements over "
             f"(Z/2)^{result.k}",
             f"  weights within [1, {result.t}]: {result.weights_ok}",
             f"  closed subgroup with 0: {result.closure_ok} "
             f"(order {result.subgroup_order})",
             f"  sumset verification: "
             f"{result.verification.verdict if result.verification else 'skipped'}",
             f"  b-clique classes: {result.class_count} of size {result.class_size} "
             f"(ok: {result.classes_ok})",
             f"verdict: {'accept' if result.passed else 'reject'}"]
    return payload, lines, EXIT_OK if result.passed else EXIT_REJECT


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relrep",
        description="Build and verify finite representations of relation "
                    "algebras 52_65 and 59_65.")
    parser.add_argument("--format", choices=("table", "json"),
                        default=os.environ.get("RELREP_FORMAT", "table"),
                        help="output format (env RELREP_FORMAT overrides the default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show-algebra", help="print an algebra's cycle structure")
    p.add_argument("spec", help="52_65, 59_65, or a path to a spec file")
    p.set_defaults(func=_cmd_show_algebra)

    p = sub.add_parser("verify-group-rep", help="verify a partition file")
    p.add_argument("partition", help="path to an 'atom element' partition file")
    p.add_argument("--spec", required=True, help="52_65, 59_65, or a spec file path")
    p.add_argument("--group", help="group descriptor (z:N, B^K, N1xN2x...)")
    p.add_argument("--method", choices=("sumsets", "bruteforce", "both"),
                   default="sumsets")
    p.add_argument("--no-early-exit", dest="early_exit", action="store_false",
                   help="count every violation instead of stopping at the first")
    p.set_defaults(func=_cmd_verify_group_rep, early_exit=True)

    p = sub.add_parser("comer", help="cyclotomic coset scheme cycle structure")
    p.add_argument("--p", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", type=int, help="primitive root (default: smallest)")
    p.add_argument("--sweep-max-p", type=int,
                   help="scan all primes up to this bound instead (uses --m)")
    p.set_defaults(func=_cmd_comer)

    p = sub.add_parser("build-59", help="build and verify the 59_65 representation")
    p.add_argument("--p", type=int, default=113)
    p.add_argument("--g", type=int)
    p.add_argument("--out", help="write the partition to this file")
    p.set_defaults(func=_cmd_build_59)

    p = sub.add_parser("johnson-bound", help="table of the existence bound by n")
    p.add_argument("--max-n", type=int, default=16)
    p.set_defaults(func=_cmd_johnson_bound)

    p = sub.add_parser("johnson-mc", help="Monte Carlo trials of random colorings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, help="base seed (derived and echoed if omitted)")
    p.set_defaults(func=_cmd_johnson_mc)

    p = sub.add_parser("search-gf2", help="randomized subgroup search over (Z/2)^k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, help="weight cutoff (default: floor(2(k-1)/3))")
    p.add_argument("--target-order", type=int)
    p.add_argument("--seed", type=int, help="base seed (derived and echoed if omitted)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--backtrack", type=int, default=0)
    p.add_argument("--time-budget", type=float,
                   help="wall-clock seconds; trades determinism for a hard stop")
    p.add_argument("--seed-fixture", help="bitstring file folded into every restart's basis")
    p.set_defaults(func=_cmd_search_gf2)

    p = sub.add_parser("validate-fixture", help="run the four subgroup-fixture checks")
    p.add_argument("path", help="bitstring file, one element per line")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--t", type=int, default=6)
    p.set_defaults(func=_cmd_validate_fixture)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        if args.format == "json":
            lines = [json.dumps(payload, indent=2, sort_keys=True)]
        for line in lines:
            print(line)
    except (ValueError, OSError) as exc:  # StructuralError, SchemeError, SpecError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
