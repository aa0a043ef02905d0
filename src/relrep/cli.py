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
from itertools import combinations_with_replacement
from pathlib import Path

from .algebra import RaSpec, builtin, parse_spec
from .comer import build_59_65_partition, build_scheme, sweep_schemes
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
    seen: set[int] = set()
    for atom, element_text in rows:
        try:
            element = group.parse_element(element_text)
        except ValueError as exc:
            raise StructuralError(f"bad element in {path}: {exc}") from None
        if element in seen:
            raise StructuralError(
                f"element {element_text} is assigned more than once in {path}")
        seen.add(element)
        assignment.setdefault(atom, set()).add(element)
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


_METHODS = ("sumsets", "bruteforce")


def _verify(spec: RaSpec, part: ColoredPartition, methods: tuple[str, ...],
            early_exit: bool) -> tuple[dict, bool]:
    """Run the named verifiers; return their report dicts and the AND of verdicts."""
    reports = {m: verify_sumsets(spec, part, early_exit=early_exit) if m == "sumsets"
               else verify_bruteforce(spec, cayley_coloring(part), early_exit=early_exit)
               for m in methods}
    return ({m: r.to_dict() for m, r in reports.items()},
            all(r.accepted for r in reports.values()))


def _effective_seed(value: int | None) -> int:
    return secrets.randbelow(2**32) if value is None else value


# -- subcommands ----------------------------------------------------------------
# Each returns (JSON payload, exit code) and builds no text.


def _cmd_show_algebra(args) -> tuple[dict, int]:
    spec = _load_spec(args.spec)
    profiles = []
    for left, right in combinations_with_replacement([a.name for a in spec.diversity_atoms], 2):
        prof, zero = spec.required_sumset_profile(left, right)
        profiles.append({"pair": [left, right],
                         "atoms": sorted(a.name for a in prof),
                         "include_zero": zero})
    return {"name": spec.label,
            "atoms": [a.name for a in spec.atoms],
            "allowed_cycles": ["".join(t) for t in spec.cycle_names()],
            "forbidden_cycles": ["".join(t) for t in spec.forbidden_cycle_names()],
            "profiles": profiles}, EXIT_OK


def _cmd_verify_group_rep(args) -> tuple[dict, int]:
    spec = _load_spec(args.spec)
    group = parse_group_flag(args.group) if args.group else None
    part = load_partition(args.partition, group, spec)
    methods = _METHODS if args.method == "both" else (args.method,)
    reports, accepted = _verify(spec, part, methods, args.early_exit)
    return {"spec": spec.label,
            "group": format_group_flag(part.group),
            "verdict": "accept" if accepted else "reject",
            "reports": reports}, EXIT_OK if accepted else EXIT_REJECT


def _cmd_comer(args) -> tuple[dict, int]:
    if args.p is None and not args.sweep_max_p:
        raise StructuralError("either --p or --sweep-max-p is required")
    if args.sweep_max_p:
        ignored = [flag for flag, value in (("--p", args.p), ("--g", args.g)) if value is not None]
        if ignored:
            raise StructuralError(f"--sweep-max-p would ignore {' and '.join(ignored)}: it "
                                  f"scans every prime with its smallest primitive root")
        return {"sweep": sweep_schemes(args.sweep_max_p, args.m)}, EXIT_OK
    return build_scheme(args.p, args.m, args.g).to_dict(), EXIT_OK


def _cmd_build_59(args) -> tuple[dict, int]:
    scheme = build_scheme(args.p, 8, args.g)
    part = build_59_65_partition(scheme)
    reports, accepted = _verify(builtin("59_65"), part, _METHODS, early_exit=False)
    if args.out:
        write_partition(part, args.out)
    return {"p": scheme.p, "m": scheme.m, "g": scheme.generator,
            "verdict": "accept" if accepted else "reject",
            "partition_file": str(args.out) if args.out else None,
            "sizes": {n: len(part.assignment[n]) for n in part.atom_names()},
            "reports": reports}, EXIT_OK if accepted else EXIT_REJECT


def _cmd_johnson_bound(args) -> tuple[dict, int]:
    return {"rows": [probability_bound(n).to_dict() for n in range(3, args.max_n + 1)],
            "first_below_one": minimal_sufficient_n()}, EXIT_OK


def _cmd_johnson_mc(args) -> tuple[dict, int]:
    return mc_trial(args.n, args.trials, _effective_seed(args.seed)).to_dict(), EXIT_OK


def _cmd_search_gf2(args) -> tuple[dict, int]:
    initial = (tuple(parse_bitstrings(Path(args.seed_fixture).read_text().splitlines(),
                                      args.k)) if args.seed_fixture else ())
    config = SearchConfig(k=args.k, t=args.t, target_order=args.target_order,
                          seed=_effective_seed(args.seed), restarts=args.restarts,
                          backtrack=args.backtrack, time_budget=args.time_budget,
                          initial_elements=initial)
    outcome = search(config)
    accepted = outcome.report.accepted and (
        config.target_order is None or outcome.reached_target)
    return outcome.to_dict(), EXIT_OK if accepted else EXIT_REJECT


def _cmd_validate_fixture(args) -> tuple[dict, int]:
    result = validate_fixture(Path(args.path).read_text().splitlines(), k=args.k, t=args.t)
    return result.to_dict(), EXIT_OK if result.passed else EXIT_REJECT


# -- tables -----------------------------------------------------------------------
# Each renders the lines of --format table from the subcommand's JSON payload
# alone; args is there for validate-fixture, whose input path is not in it.


def _table_report(report: dict) -> list[str]:
    lines = [f"verdict: {report['verdict']}  (method: {report['method']})"]
    for pair in report["pairs"]:
        zero = " + {0}" if pair["include_zero"] else ""
        status = "ok" if pair["ok"] else "VIOLATED"
        lines.append(f"  {'+'.join(pair['pair'])}: expect "
                     f"{'+'.join(pair['expected_atoms']) or '(empty)'}{zero}  [{status}]")
    if report["violation_count"]:
        lines.append(f"violations: {report['violation_count']} total"
                     + (" (truncated)" if report["truncated"] else ""))
        for v in report["violations"][:10]:
            cycle = ",".join(v["cycle"]) if v["cycle"] else "-"
            lines.append(f"  {v['kind']} [{cycle}] at {v['where']}")
    return lines


def _table_show_algebra(args, payload: dict) -> list[str]:
    return ([f"algebra {payload['name'] or '(unnamed)'}",
             "atoms: " + " ".join(payload["atoms"]),
             "allowed cycles: " + " ".join(payload["allowed_cycles"]),
             "forbidden cycles: " + " ".join(payload["forbidden_cycles"]),
             "required sumset profiles:"]
            + [f"  {'+'.join(p['pair'])} = {'+'.join(p['atoms']) or '(empty)'}"
               + (" + {0}" if p["include_zero"] else "") for p in payload["profiles"]])


def _table_verify_group_rep(args, payload: dict) -> list[str]:
    lines = [f"spec {payload['spec']} over "
             f"{parse_group_flag(payload['group']).describe()}"]
    for method in _METHODS:  # JSON sorts the report keys; keep run order
        if method in payload["reports"]:
            lines.extend(_table_report(payload["reports"][method]))
    return lines


def _table_comer(args, payload: dict) -> list[str]:
    if "sweep" in payload:
        return [f"p={r['p']} m={r['m']} g={r['g']} symmetric={r['symmetric']} "
                + (f"allowed={r['allowed']} forbidden={r['forbidden']}"
                   if "allowed" in r else
                   f"ordered-cycles={r['allowed_ordered']} (orientation-dependent)")
                for r in payload["sweep"]]
    lines = [f"scheme p={payload['p']} m={payload['m']} g={payload['g']} "
             f"symmetric={payload['symmetric']} coset size {payload['coset_size']}"]
    if "allowed" in payload:
        for kind in ("allowed", "forbidden"):
            lines.append(f"{kind} cycles ({len(payload[kind])}): "
                         + " ".join("".join(map(str, t)) for t in payload[kind]))
    else:
        lines.append(f"orientation-dependent structure; "
                     f"{len(payload['allowed_ordered'])} ordered cycles")
    return lines


def _table_build_59(args, payload: dict) -> list[str]:
    reports, written = payload["reports"], payload["partition_file"]
    return ([f"59_65 over Z/{payload['p']} (m={payload['m']}, g={payload['g']}): "
             f"sizes {payload['sizes']}"]
            + _table_report(reports["sumsets"])
            + [f"bruteforce agrees: {reports['bruteforce']['verdict']}"]
            + ([f"partition written to {written}"] if written else []))


def _table_johnson_bound(args, payload: dict) -> list[str]:
    return ([f"{'n':>4} {'C(3n-4,n)':>16} {'log10(bound)':>14} below_one"]
            + [f"{r['n']:>4} {r['binomial']:>16} {r['log10_bound']:>14.4f} "
               f"{str(r['below_one']).lower()}" for r in payload["rows"]]
            + [f"first n with bound < 1: {payload['first_below_one']}"])


def _table_johnson_mc(args, payload: dict) -> list[str]:
    return ([f"johnson mc: n={payload['n']} universe={payload['universe_size']} "
             f"classes of {payload['class_size']}, seed={payload['seed']}"]
            + [f"  trial {d['trial']}: {d['verdict']} ({d['violation_count']} violations)"
               for d in payload["records"]])


def _table_search_gf2(args, payload: dict) -> list[str]:
    return [f"search k={payload['k']} t={payload['t']} seed={payload['seed']}: "
            f"|H| = {payload['order']} after {payload['restarts_run']} restart(s) "
            f"(stopped by {payload['stopped_by']})",
            f"basis: {' '.join(payload['basis']) or '(trivial)'}",
            f"verdict: {payload['verdict']}"]


def _table_validate_fixture(args, payload: dict) -> list[str]:
    verification = payload["verification"]
    return [f"fixture {args.path}: {payload['element_count']} elements over "
            f"(Z/2)^{payload['k']}",
            f"  weights within [1, {payload['t']}]: {payload['weights_ok']}",
            f"  closed subgroup with 0: {payload['closure_ok']} "
            f"(order {payload['subgroup_order']})",
            f"  sumset verification: "
            f"{verification['verdict'] if verification else 'skipped'}",
            f"  b-clique classes: {payload['class_count']} of size "
            f"{payload['class_size']} (ok: {payload['classes_ok']})",
            f"verdict: {payload['verdict']}"]


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
    p.set_defaults(func=_cmd_show_algebra, table=_table_show_algebra)

    p = sub.add_parser("verify-group-rep", help="verify a partition file")
    p.add_argument("partition", help="path to an 'atom element' partition file")
    p.add_argument("--spec", required=True, help="52_65, 59_65, or a spec file path")
    p.add_argument("--group", help="group descriptor (z:N, B^K, N1xN2x...)")
    p.add_argument("--method", choices=("sumsets", "bruteforce", "both"),
                   default="sumsets")
    p.add_argument("--no-early-exit", dest="early_exit", action="store_false",
                   help="count every violation instead of stopping at the first")
    p.set_defaults(func=_cmd_verify_group_rep, table=_table_verify_group_rep)

    p = sub.add_parser("comer", help="cyclotomic coset scheme cycle structure")
    p.add_argument("--p", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", type=int, help="primitive root (default: smallest)")
    p.add_argument("--sweep-max-p", type=int,
                   help="scan all primes up to this bound instead (uses --m; not with --p or --g)")
    p.set_defaults(func=_cmd_comer, table=_table_comer)

    p = sub.add_parser("build-59", help="build and verify the 59_65 representation")
    p.add_argument("--p", type=int, default=113)
    p.add_argument("--g", type=int)
    p.add_argument("--out", help="write the partition to this file")
    p.set_defaults(func=_cmd_build_59, table=_table_build_59)

    p = sub.add_parser("johnson-bound", help="table of the existence bound by n")
    p.add_argument("--max-n", type=int, default=16)
    p.set_defaults(func=_cmd_johnson_bound, table=_table_johnson_bound)

    p = sub.add_parser("johnson-mc", help="Monte Carlo trials of random colorings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, help="base seed (derived and echoed if omitted)")
    p.set_defaults(func=_cmd_johnson_mc, table=_table_johnson_mc)

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
    p.set_defaults(func=_cmd_search_gf2, table=_table_search_gf2)

    p = sub.add_parser("validate-fixture", help="run the four subgroup-fixture checks")
    p.add_argument("path", help="bitstring file, one element per line")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--t", type=int, default=6)
    p.set_defaults(func=_cmd_validate_fixture, table=_table_validate_fixture)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        lines = ([json.dumps(payload, indent=2, sort_keys=True)]
                 if args.format == "json" else args.table(args, payload))
        for line in lines:
            print(line)
    except (ValueError, OSError) as exc:  # StructuralError, SchemeError, SpecError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
