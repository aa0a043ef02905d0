"""Single command-line entry point with deterministic, machine-readable output.

Exit codes: 0 for success or an accepting verdict, 1 for a rejecting verdict,
2 for usage, structural, memory or internal errors, so that a broken invariant
is never read as a verdict.  Each subcommand builds one JSON payload.
``--format json`` emits it as stable sorted-key JSON meant for CI, the bytes
of ``json.dumps(payload, indent=2, sort_keys=True)``;
``--format table`` (the default) prints the same payload one key per line, in
the same key order.  Randomized subcommands echo their effective seed, and
re-running with that seed reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

# comer, gf2 and johnson are imported inside the subcommands that run them, so
# a process loads only its own subcommand's code
from .algebra import RaSpec, builtin, content_lines, parse_spec
from .groups import ElementSet, GroupSpec, MemoryGuardError, check_memory, first_repeat
from .verify import (ColoredPartition, StructuralError, cayley_coloring,
                     check_coloring_memory, verify_bruteforce, verify_sumsets)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


# -- partition files -------------------------------------------------------------


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
    file_group: GroupSpec | None = None
    code: dict[str, int] = {}  # atom name -> its number, in order of first use
    codes: list[int] = []
    texts: list[str] = []
    for lineno, line in content_lines(_read_text(path).splitlines()):
        parts = line.split()
        if line.startswith("group:"):
            if file_group is not None:
                raise StructuralError(f"{path}:{lineno}: duplicate group directive")
            try:
                file_group = GroupSpec.parse(line[len("group:"):])
            except ValueError as exc:
                raise StructuralError(f"{path}:{lineno}: {exc}") from None
            except MemoryGuardError as exc:
                raise MemoryGuardError(f"{path}:{lineno}: {exc.detail}") from None
        elif len(parts) != 2:
            raise StructuralError(f"{path}:{lineno}: expected 'atom element', got {line!r}")
        else:
            codes.append(code.setdefault(parts[0], len(code)))
            texts.append(parts[1])
    if group is not None and file_group is not None and group != file_group:
        raise StructuralError(f"--group says {group} but {path} says {file_group}")
    group = group or file_group
    if group is None:
        raise StructuralError(f"{path} has no group directive; pass --group")
    try:
        elements = group.parse_elements(texts)
    except ValueError as exc:
        raise StructuralError(f"bad element in {path}: {exc}") from None
    repeat = first_repeat(elements)
    if repeat is not None:
        raise StructuralError(f"element {texts[repeat]} is assigned more than once in {path}")
    if spec is not None:
        spec_names = [a.name for a in spec.diversity_atoms]
        unknown = sorted(set(code) - set(spec_names))
        if unknown:
            raise StructuralError(f"partition names atoms {unknown} that "
                                  f"{spec.label or 'the spec'} does not have")
        for name in spec_names:
            code.setdefault(name, -1)  # no line names it: an empty set
    atom_of = np.array(codes, dtype=np.intp)
    sets = {name: ElementSet.from_indices(group, elements[atom_of == i])
            for name, i in code.items()}
    return ColoredPartition(group, sets)  # validates gap/zero/symmetry


def write_partition(part: ColoredPartition, path) -> None:
    lines = [f"group: {part.group}"]
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
    """The given seed, or a uniform one in [0, 2^32) from os.urandom (the secrets
    module would load OpenSSL's libcrypto through hashlib for the same draw)."""
    return int.from_bytes(os.urandom(4), "big") if value is None else value


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
    group = GroupSpec.parse(args.group) if args.group else None
    part = load_partition(args.partition, group, spec)
    methods = _METHODS if args.method == "both" else (args.method,)
    reports, accepted = _verify(spec, part, methods, args.early_exit)
    return {"spec": spec.label,
            "group": str(part.group),
            "verdict": "accept" if accepted else "reject",
            "reports": reports}, EXIT_OK if accepted else EXIT_REJECT


def _cmd_comer(args) -> tuple[dict, int]:
    from .comer import build_scheme, sweep_schemes

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
    from .comer import build_59_65_partition, build_scheme

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
    from .johnson import minimal_sufficient_n, probability_bound

    return {"rows": [probability_bound(n).to_dict() for n in range(3, args.max_n + 1)],
            "first_below_one": minimal_sufficient_n()}, EXIT_OK


def _cmd_johnson_mc(args) -> tuple[dict, int]:
    from .johnson import mc_trial

    return mc_trial(args.n, args.trials, _effective_seed(args.seed)).to_dict(), EXIT_OK


def _cmd_search_gf2(args) -> tuple[dict, int]:
    from .gf2 import SearchConfig, parse_bitstrings, search

    initial = (tuple(parse_bitstrings(_read_text(args.seed_fixture).splitlines(),
                                      args.k)) if args.seed_fixture else ())
    config = SearchConfig(k=args.k, target_order=args.target_order,
                          seed=_effective_seed(args.seed), restarts=args.restarts,
                          backtrack=args.backtrack, initial_elements=initial)
    outcome = search(config)
    return outcome.to_dict(), EXIT_OK if outcome.passed else EXIT_REJECT


def _cmd_validate_fixture(args) -> tuple[dict, int]:
    from .gf2 import validate_fixture

    result = validate_fixture(_read_text(args.path).splitlines())
    return result.to_dict(), EXIT_OK if result.passed else EXIT_REJECT


# -- output ---------------------------------------------------------------------


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, without the stdlib's
    pure-Python encoder, which it runs whenever an indent is given.

    ``newline`` is the line break plus the indent of the value's own line.
    Strings, keys included, go through the stdlib's C escaper.  A type the
    payloads never hold, or a key that is not a str, raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    p.add_argument("--target-order", type=int)
    p.add_argument("--seed", type=int, help="base seed (derived and echoed if omitted)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--backtrack", type=int, default=0)
    p.add_argument("--seed-fixture", help="bitstring file folded into every restart's basis")
    p.set_defaults(func=_cmd_search_gf2)

    p = sub.add_parser("validate-fixture", help="run the four subgroup-fixture checks")
    p.add_argument("path", help="bitstring file, one length-k element per line")
    p.set_defaults(func=_cmd_validate_fixture)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        text = _json(payload)  # the table renders this text
        print(text if args.format == "json" else "\n".join(_table(json.loads(text))))
    except Exception as exc:  # bad input, memory guard or broken invariant: never a verdict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
