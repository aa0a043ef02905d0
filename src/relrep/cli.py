"""Single command-line entry point with deterministic, machine-readable output.

Exit codes: 0 for success or an accepting verdict, 1 for a rejecting verdict,
2 for usage, structural, memory or internal errors, so that a broken invariant
is never read as a verdict.  Each subcommand builds one JSON payload.
``--format json`` emits it as stable sorted-key JSON meant for CI;
``--format table`` (the default) prints the same payload one key per line, in
the same key order.  Randomized subcommands echo their effective seed, and
re-running with that seed reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from pathlib import Path

from .algebra import RaSpec, builtin, parse_spec
from .comer import build_59_65_partition, build_scheme, sweep_schemes
from .gf2 import SearchConfig, parse_bitstrings, search, validate_fixture
from .groups import ElementSet, GroupSpec, check_memory
from .johnson import mc_trial, minimal_sufficient_n, probability_bound
from .verify import (ColoredPartition, StructuralError, cayley_coloring,
                     check_coloring_memory, verify_bruteforce, verify_sumsets)

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


def _read_text(path) -> str:
    """An input file's text, charged 16 bytes per file byte before it is read: a 24 MB
    (Z/2)^20 partition file peaked at 13 B per byte through verify_sumsets."""
    check_memory(Path(path).stat().st_size * 16, f"parsing {path}")
    return Path(path).read_text()


def load_partition(path, group: GroupSpec | None = None,
                   spec: RaSpec | None = None) -> ColoredPartition:
    """Read an ``atom element`` partition file (optional ``group:`` directive).

    Structural problems (gap, overlap, zero assigned, asymmetric set, group
    mismatch) raise StructuralError, as do atom names a given spec lacks.  Spec
    atoms the file never mentions get empty sets: faithfulness then fails at
    verification time, which is a verdict, not a structural error.
    """
    text = _read_text(path)
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
    return parse_spec(_read_text(ref))


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
    return {"name": spec.label,
            "atoms": [a.name for a in spec.atoms],
            "allowed_cycles": ["".join(t) for t in spec.cycle_names()],
            "forbidden_cycles": ["".join(t) for t in spec.forbidden_cycle_names()],
            "profiles": [{"pair": [j, k], "atoms": list(atoms), "include_zero": zero}
                         for j, k, atoms, zero in spec.pair_profiles()]}, EXIT_OK


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
    if args.p is None and args.sweep_max_p is None:
        raise StructuralError("either --p or --sweep-max-p is required")
    if args.sweep_max_p is not None:
        ignored = [flag for flag, value in (("--p", args.p), ("--g", args.g)) if value is not None]
        if ignored:
            raise StructuralError(f"--sweep-max-p would ignore {' and '.join(ignored)}: it "
                                  f"scans every prime with its smallest primitive root")
        return {"sweep": sweep_schemes(args.sweep_max_p, args.m)}, EXIT_OK
    return build_scheme(args.p, args.m, args.g).to_dict(), EXIT_OK


def _cmd_build_59(args) -> tuple[dict, int]:
    check_coloring_memory(args.p, 3)  # the brute force's charge, before any other work
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
    initial = (tuple(parse_bitstrings(_read_text(args.seed_fixture).splitlines(),
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
    result = validate_fixture(_read_text(args.path).splitlines(), k=args.k, t=args.t)
    return result.to_dict(), EXIT_OK if result.passed else EXIT_REJECT


# -- table ------------------------------------------------------------------------


def _inline(value) -> str:
    """One value on one line: a string bare, anything else as compact JSON."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"),
                                                           sort_keys=True)


def _table(payload: dict, indent: str = "") -> list[str]:
    """The lines of ``--format table``: the JSON payload, one key per line in sorted
    key order.  Lists of scalars or of scalar lists stay on one line, a dict is an
    indented block, a list of dicts one ``- k=v`` line per item, empty ``(none)``."""
    lines = []
    for key, value in sorted(payload.items()):
        if isinstance(value, (dict, list)) and not value:
            lines.append(f"{indent}{key}: (none)")
        elif isinstance(value, dict):
            lines += [f"{indent}{key}:"] + _table(value, indent + "  ")
        elif isinstance(value, list) and all(isinstance(item, dict) for item in value):
            lines.append(f"{indent}{key}:")
            lines += [f"{indent}  - " + " ".join(f"{k}={_inline(v)}"
                                                 for k, v in sorted(item.items()))
                      for item in value]
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: " + " ".join(map(_inline, value)))
        else:
            lines.append(f"{indent}{key}: {_inline(value)}")
    return lines


# -- parser -----------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="relrep",
        description="Build and verify finite representations of relation "
                    "algebras 52_65 and 59_65.")
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: table)")
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
    p.set_defaults(func=_cmd_verify_group_rep)

    p = sub.add_parser("comer", help="cyclotomic coset scheme cycle structure")
    p.add_argument("--p", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", type=int, help="primitive root (default: smallest)")
    p.add_argument("--sweep-max-p", type=int,
                   help="scan all primes up to this bound instead (uses --m; not with --p or --g)")
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
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        text = json.dumps(payload, indent=2, sort_keys=True)  # the table renders this text
        print(text if args.format == "json" else "\n".join(_table(json.loads(text))))
    except (ValueError, OSError,  # StructuralError, SchemeError, SpecError too
            MemoryError,  # MemoryGuardError, or an allocation the budget under-charges
            RuntimeError, AssertionError) as exc:  # broken invariants: an error, not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
