"""Exit codes, JSON schemas, seed echoing, and reproducible CLI output."""

import json
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, REPO_ROOT
import peak_rss
from relrep import GroupSpec, StructuralError
import relrep.groups
from relrep import cli
from relrep.cli import (EXIT_ERROR, EXIT_OK, EXIT_REJECT, load_partition, main,
                        write_partition)

PINNED = REPO_ROOT / "tests" / "pinned"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


# -- partition files ------------------------------------------------------------


def test_load_partition_round_trip(tmp_path):
    part = load_partition(FIXTURES / "comer113_partition.txt")
    assert part.group == GroupSpec.cyclic(113)
    assert {n: len(s) for n, s in part.assignment.items()} == {
        "a": 70, "b": 14, "c": 28}
    out = tmp_path / "copy.txt"
    write_partition(part, out)
    again = load_partition(out)
    assert again.assignment == part.assignment


@pytest.mark.parametrize("body,fragment", [
    ("group: z:5\nb 1\nb 4\n", "not assigned"),
    ("group: z:5\nb 0\nb 1\nb 2\nb 3\nb 4\n", "zero"),
    ("group: z:5\na 1\na 1\nb 2\nb 3\nb 4\n", "more than once"),
    ("group: z:5\na 1\nb 1\nb 2\nb 3\nb 4\n", "more than once"),
    ("group: z:5\na 1\na 2\nb 3\nb 4\n", "symmetric"),
    ("group: z:5\nnonsense\n", "expected"),
    ("b 1\nb 2\nb 3\nb 4\n", "no group"),
])
def test_load_partition_structural_errors(tmp_path, body, fragment):
    path = tmp_path / "part.txt"
    path.write_text(body)
    with pytest.raises(StructuralError, match=fragment):
        load_partition(path)


@pytest.mark.parametrize("descriptor", ["z:abc", "2^", "3x", "z:1"])
def test_bad_group_directive_names_its_line(tmp_path, descriptor):
    path = tmp_path / "part.txt"
    path.write_text(f"# header\ngroup: {descriptor}\nb 1\n")
    with pytest.raises(StructuralError, match=re.escape(f"{path}:2: bad group descriptor")):
        load_partition(path)


def test_bad_group_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-group-rep", str(FIXTURES / "comer113_partition.txt"),
                             "--spec", "59_65", "--group", "z:abc")
    assert code == EXIT_ERROR and not out
    assert "bad group descriptor 'z:abc'" in err


def test_load_partition_group_conflict(tmp_path):
    path = tmp_path / "part.txt"
    path.write_text("group: z:5\nb 1\nb 2\nb 3\nb 4\n")
    with pytest.raises(StructuralError, match="says"):
        load_partition(path, GroupSpec.cyclic(7))
    part = load_partition(path, GroupSpec.cyclic(5))
    assert len(part.assignment["b"]) == 4


# -- subcommands --------------------------------------------------------------------


def test_show_algebra_json(capsys):
    code, payload, _ = run_json(capsys, "show-algebra", "52_65")
    assert code == EXIT_OK
    assert payload["atoms"] == ["1'", "a", "b", "c"]
    assert "acc" in payload["allowed_cycles"]
    assert payload["forbidden_cycles"] == ["abb", "bbc", "ccc"]


def test_show_algebra_from_file(capsys):
    code, payload, _ = run_json(capsys, "show-algebra", str(FIXTURES / "ra59_65.txt"))
    assert code == EXIT_OK
    assert payload["name"] == "59_65"
    assert "ccc" in payload["allowed_cycles"]


def test_johnson_bound_first_true_row_is_13(capsys):
    code, payload, _ = run_json(capsys, "johnson-bound", "--max-n", "16")
    assert code == EXIT_OK
    assert payload["first_below_one"] == 13
    rows = {r["n"]: r for r in payload["rows"]}
    assert rows[13]["binomial"] == 1476337800
    assert rows[12]["below_one"] is False and rows[13]["below_one"] is True
    first_true = next(r["n"] for r in payload["rows"] if r["below_one"])
    assert first_true == 13


def test_johnson_bound_first_below_one_does_not_depend_on_max_n(capsys):
    code, payload, _ = run_json(capsys, "johnson-bound", "--max-n", "5")
    assert code == EXIT_OK
    assert [r["n"] for r in payload["rows"]] == [3, 4, 5]
    assert not any(r["below_one"] for r in payload["rows"])
    assert payload["first_below_one"] == 13


def test_comer_forbidden_families(capsys):
    code, payload, _ = run_json(capsys, "comer", "--p", "113", "--m", "8")
    assert code == EXIT_OK
    forbidden = {tuple(t) for t in payload["forbidden"]}
    expected = set()
    for i in range(8):
        for d in (0, 6, 7):
            expected.add(tuple(sorted((i, i, (i + d) % 8))))
    assert forbidden == expected
    assert payload["g"] == 3 and payload["symmetric"] is True


def test_comer_sweep(capsys):
    code, payload, _ = run_json(capsys, "comer", "--m", "2", "--sweep-max-p", "20")
    assert code == EXIT_OK
    assert [r["p"] for r in payload["sweep"]] == [3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_comer_sweep_with_nonpositive_m_exits_2(capsys, m):
    code, out, err = run_cli(capsys, "comer", "--m", m, "--sweep-max-p", "10")
    assert code == EXIT_ERROR and not out
    assert "error:" in err and "at least 1" in err


@pytest.mark.parametrize("extra,named", [
    (("--p", "113"), "--p"),
    (("--g", "5"), "--g"),
    (("--p", "113", "--g", "5"), "--p and --g"),
])
def test_comer_sweep_refuses_p_and_g(capsys, extra, named):
    code, out, err = run_cli(capsys, "comer", "--m", "8", "--sweep-max-p", "20", *extra)
    assert code == EXIT_ERROR and not out
    assert f"would ignore {named}:" in err


def test_comer_sweep_max_p_zero_is_an_empty_sweep(capsys):
    code, payload, _ = run_json(capsys, "comer", "--m", "2", "--sweep-max-p", "0")
    assert code == EXIT_OK and payload == {"sweep": []}


def test_comer_sweep_max_p_zero_still_refuses_p(capsys):
    code, out, err = run_cli(capsys, "comer", "--p", "113", "--m", "8", "--sweep-max-p", "0")
    assert code == EXIT_ERROR and not out
    assert "would ignore --p:" in err


def test_comer_requires_p_or_sweep(capsys):
    code, _, err = run_cli(capsys, "comer", "--m", "8")
    assert code == EXIT_ERROR
    assert "--p" in err


def test_validate_fixture_accepts_shipped_list(capsys):
    code, payload, _ = run_json(capsys, "validate-fixture",
                                str(FIXTURES / "h52_k10.txt"))
    assert code == EXIT_OK
    assert payload["verdict"] == "accept"
    assert payload["subgroup_order"] == 64
    assert payload["class_count"] == 16


def test_validate_fixture_rejects_mutation(capsys, tmp_path):
    lines = (FIXTURES / "h52_k10.txt").read_text().splitlines()
    kept = [l for l in lines if l.strip() and not l.startswith("#")][:-1]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(kept) + "\n")
    code, payload, _ = run_json(capsys, "validate-fixture", str(bad))
    assert code == EXIT_REJECT
    assert payload["verdict"] == "reject"


def test_validate_fixture_reads_k_from_the_bitstrings(capsys, tmp_path):
    # H + E3 for E3 = {000, 110, 011, 101}, the three new coordinates leftmost:
    # the shipped k = 10 subgroup lifted to k = 13, accepted at t = 8
    lines = (FIXTURES / "h52_k10.txt").read_text().splitlines()
    shipped = ["0" * 10] + [l for l in lines if l.strip() and not l.startswith("#")]
    path = tmp_path / "h_k13.txt"
    path.write_text("".join(f"{e}{h}\n" for e in ("000", "110", "011", "101")
                            for h in shipped if e + h != "0" * 13))
    code, payload, _ = run_json(capsys, "validate-fixture", str(path))
    assert code == EXIT_OK
    assert (payload["k"], payload["t"], payload["subgroup_order"]) == (13, 8, 256)


def test_validate_fixture_without_bitstrings_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# no elements\n\n")
    code, out, err = run_cli(capsys, "validate-fixture", str(path))
    assert code == EXIT_ERROR and not out
    assert "no bitstrings" in err


def test_verify_group_rep_accepts_comer_partition(capsys):
    code, payload, _ = run_json(capsys, "verify-group-rep",
                                str(FIXTURES / "comer113_partition.txt"),
                                "--spec", "59_65", "--method", "both")
    assert code == EXIT_OK
    assert payload["verdict"] == "accept"
    assert set(payload["reports"]) == {"sumsets", "bruteforce"}
    assert all(r["verdict"] == "accept" for r in payload["reports"].values())


def test_verify_group_rep_rejects_wrong_spec(capsys):
    code, payload, _ = run_json(capsys, "verify-group-rep",
                                str(FIXTURES / "comer113_partition.txt"),
                                "--spec", "52_65", "--no-early-exit")
    assert code == EXIT_REJECT
    assert payload["verdict"] == "reject"
    report = payload["reports"]["sumsets"]
    assert report["violation_count"] > 0


_VERIFY_INPUTS = {"z113": FIXTURES / "comer113_partition.txt",
                  "z53": FIXTURES / "z53_59_65_partition.txt",
                  "gf2_6": PINNED / "gf2_6_partition.txt"}


@pytest.mark.parametrize("mode", ["early", "full"])
@pytest.mark.parametrize("spec", ["52_65", "59_65"])
@pytest.mark.parametrize("name", sorted(_VERIFY_INPUTS))
def test_verify_group_rep_json_bytes_pinned(capsys, name, spec, mode):
    # recorded before both verifiers recorded violations through VerificationReport.record
    extra = ("--no-early-exit",) if mode == "full" else ()
    code = main(["--format", "json", "verify-group-rep", str(_VERIFY_INPUTS[name]),
                 "--spec", spec, "--method", "both", *extra])
    out = capsys.readouterr().out
    assert code == (EXIT_OK if json.loads(out)["verdict"] == "accept" else EXIT_REJECT)
    assert out == (PINNED / f"verify_group_rep_{name}_{spec}_{mode}.json").read_text()


def _random_gf2_partition_text(k: int, seed: int) -> str:
    """A seeded 3-atom partition of (Z/2)^k: each nonzero element, its own
    negative, gets a, b or c."""
    rng = random.Random(seed)
    lines = [f"group: 2^{k}"] + [f"{rng.choice('abc')} {x:0{k}b}" for x in range(1, 1 << k)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k,mode", [
    (10, "early"),  # the reject stops in the one-tile product of (a, a) and (a, b)
    (10, "full"),
    (11, "full"),  # 2048 points: products of several tiles
    (12, "full"),  # 4096 points: the coloring built from 63 translated blocks of 64 rows
])
def test_verify_group_rep_random_gf2_json_bytes_pinned(capsys, tmp_path, k, mode):
    path = tmp_path / "part.txt"
    path.write_text(_random_gf2_partition_text(k, seed=1))
    extra = ("--no-early-exit",) if mode == "full" else ()
    code = main(["--format", "json", "verify-group-rep", str(path), "--spec", "52_65",
                 "--method", "both", *extra])
    assert code == EXIT_REJECT
    assert capsys.readouterr().out == (
        PINNED / f"verify_group_rep_gf2_{k}_seed1_52_65_{mode}.json").read_text()


def test_verify_group_rep_structural_error_exits_2(capsys, tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("group: z:5\nb 1\nb 4\n")
    code, out, err = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_out_of_range_product_coordinate_is_structural(capsys, tmp_path):
    # a complete Z/3 x Z/5 partition except that 1,1 is written 4,1
    rows = [f"b {a},{b}" for a in range(3) for b in range(5) if (a, b) != (0, 0)]
    path = tmp_path / "wrapped.txt"
    path.write_text("group: 3x5\n" + "\n".join(rows).replace("b 1,1", "b 4,1") + "\n")
    with pytest.raises(StructuralError, match="out of range"):
        load_partition(path)
    code, out, err = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_ERROR and not out
    assert "out of range" in err


def test_verify_group_rep_unused_atoms_fail_faithfully_not_structurally(capsys, tmp_path):
    # every nonzero element of Z/5 colored b: loads fine, a and c stay empty,
    # and the verdict is a faithfulness reject rather than a usage error
    path = tmp_path / "all_b.txt"
    path.write_text("group: z:5\nb 1\nb 2\nb 3\nb 4\n")
    code, payload, _ = run_json(capsys, "verify-group-rep", str(path),
                                "--spec", "52_65", "--method", "both",
                                "--no-early-exit")
    assert code == EXIT_REJECT
    assert payload["verdict"] == "reject"
    kinds = payload["reports"]["sumsets"]["counts_by_kind"]
    assert kinds.get("empty_atom") == 2


def test_verify_group_rep_unknown_atom_is_structural(capsys, tmp_path):
    path = tmp_path / "weird.txt"
    path.write_text("group: z:5\nq 1\nq 2\nq 3\nq 4\n")
    code, _, err = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_ERROR
    assert "does not have" in err


def test_build_59_writes_verifiable_partition(capsys, tmp_path):
    out_path = tmp_path / "p113.txt"
    code, payload, _ = run_json(capsys, "build-59", "--out", str(out_path))
    assert code == EXIT_OK
    assert payload["verdict"] == "accept"
    assert payload["sizes"] == {"a": 70, "b": 14, "c": 28}
    part = load_partition(out_path)
    assert part.group == GroupSpec.cyclic(113)


def test_johnson_mc_deterministic_output(capsys):
    args = ("johnson-mc", "--n", "5", "--trials", "2", "--seed", "9")
    code1, out1, _ = run_cli(capsys, "--format", "json", *args)
    code2, out2, _ = run_cli(capsys, "--format", "json", *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 9 and payload["trials"] == 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_johnson_mc_json_bytes_pinned(capsys, seed):
    # recorded while verify_bruteforce still multiplied every atom pair; the
    # n = 6 file is compared in CI, the one input whose products span several tiles
    code = main(["--format", "json", "johnson-mc", "--n", "5", "--trials", "1",
                 "--seed", str(seed)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (PINNED / f"johnson_mc_n5_seed{seed}.json").read_text()


def test_johnson_mc_derives_and_echoes_seed(capsys):
    code, payload, _ = run_json(capsys, "johnson-mc", "--n", "5", "--trials", "0")
    assert code == EXIT_OK
    assert isinstance(payload["seed"], int)


def test_johnson_mc_rejects_n4(capsys):
    code, _, err = run_cli(capsys, "johnson-mc", "--n", "4", "--trials", "1",
                           "--seed", "0")
    assert code == EXIT_ERROR
    assert "divisible" in err


def test_johnson_mc_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "johnson-mc", "--n", "5", "--trials", "1",
                             "--seed", "-1")
    assert code == EXIT_ERROR and not out
    assert "seed must be non-negative" in err


def test_johnson_mc_memory_guard_exits_2(capsys):
    code, out, err = run_cli(capsys, "johnson-mc", "--n", "8", "--trials", "1",
                             "--seed", "0")
    assert code == EXIT_ERROR and not out
    assert "guard" in err


def test_johnson_mc_has_no_max_points_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["johnson-mc", "--n", "5", "--trials", "1", "--seed", "0",
              "--max-points", "5"])
    assert exc.value.code == 2


def test_build_59_has_no_m_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-59", "--m", "8"])
    assert exc.value.code == 2


def test_search_gf2_deterministic_and_seeded(capsys):
    args = ("search-gf2", "--k", "10", "--seed", "12", "--restarts", "2",
            "--target-order", "64", "--seed-fixture", str(FIXTURES / "h52_k10.txt"))
    code1, out1, _ = run_cli(capsys, "--format", "json", *args)
    code2, out2, _ = run_cli(capsys, "--format", "json", *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["order"] == 64 and payload["verdict"] == "accept"
    assert payload["reached_target"] is True


def test_search_gf2_unreachable_target_exits_reject(capsys):
    # t = 4 leaves only 98 weight-1..4 vectors plus 0, so order 128 cannot fit
    code, payload, _ = run_json(capsys, "search-gf2", "--k", "7", "--seed", "1",
                                "--restarts", "2", "--target-order", "128")
    assert code == EXIT_REJECT
    assert payload["reached_target"] is False


def test_search_gf2_refuses_k_below_3_by_its_dimension(capsys):
    # the split's cutoff t = floor(2(k - 1)/3) is 0 at k = 2, but no flag sets it
    code, out, err = run_cli(capsys, "search-gf2", "--k", "2", "--seed", "1")
    assert code == EXIT_ERROR and not out
    assert "k = 2" in err and "threshold" not in err


@pytest.mark.parametrize("bits", ["1", "11"])
def test_validate_fixture_refuses_k_below_3_by_its_dimension(capsys, tmp_path, bits):
    path = tmp_path / "short.txt"
    path.write_text(bits + "\n")
    code, out, err = run_cli(capsys, "validate-fixture", str(path))
    assert code == EXIT_ERROR and not out
    assert f"dimension k = {len(bits)} must be at least 3" in err


def test_search_gf2_has_no_time_budget_option(capsys):
    # --restarts is the deterministic work bound; a wall clock would make seeded output vary
    with pytest.raises(SystemExit) as exc:
        main(["search-gf2", "--k", "7", "--time-budget", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("error", [RuntimeError, AssertionError, MemoryError,
                                   TypeError, KeyError, IndexError])
def test_internal_errors_exit_2_not_reject(capsys, monkeypatch, error):
    def broken(config):
        raise error("invariant broken")

    monkeypatch.setattr(cli, "search", broken)
    code, out, err = run_cli(capsys, "search-gf2", "--k", "7", "--seed", "1")
    assert code == EXIT_ERROR and not out
    assert err.startswith("error:") and "invariant broken" in err


@pytest.mark.parametrize("argv", [
    ("search-gf2", "--k", "26", "--seed", "1"),  # order 2^26
    ("comer", "--p", "1048573", "--m", "262143"),  # 256 GiB of coset masks alone
    # the brute-force coloring's charge, taken before the scheme is built
    ("build-59", "--p", "1048129"),
    # 240 B per element on the FFT path refuses Z/2e7, though (Z/2)^25 is admitted
    ("verify-group-rep", str(FIXTURES / "z53_59_65_partition.txt"), "--spec", "59_65",
     "--group", "z:20000000"),
])
def test_work_over_the_memory_budget_exits_2(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_ERROR and not out
    assert err.startswith("error: memory guard:")


def test_partition_file_over_the_memory_budget_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "padded.txt"
    path.write_text("group: z:5\n" + "# padding\n" * 1000 + "a 1\na 4\nb 2\nb 3\n")
    code, _, _ = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_REJECT  # c is empty
    # about 10 kB of file is charged 160 kB to parse; Z/5 is charged 1200 bytes
    monkeypatch.setattr(relrep.groups, "MEMORY_BUDGET", 100_000)
    code, out, err = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_ERROR and not out
    assert err.startswith("error: memory guard: parsing ")


def test_group_directive_over_the_memory_budget_names_its_line(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("# header\ngroup: 2^40\na 1\n")
    code, out, err = run_cli(capsys, "verify-group-rep", str(path), "--spec", "52_65")
    assert code == EXIT_ERROR and not out
    assert err.startswith(f"error: memory guard: {path}:2: ")
    assert "order 1099511627776" in err


def test_peak_rss_script_bounds_a_command(capsys):
    assert peak_rss.run(["100000", "show-algebra", "52_65"]) == EXIT_OK
    assert peak_rss.run(["1", "show-algebra", "52_65"]) == peak_rss.OVER_BOUND
    assert "show-algebra 52_65: peak RSS" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["comer"])  # missing required --p/--m
    assert exc.value.code == 2


def test_table_output_is_default(capsys):
    code, out, _ = run_cli(capsys, "show-algebra", "52_65")
    assert code == EXIT_OK
    assert "allowed_cycles:" in out


_H52 = str(FIXTURES / "h52_k10.txt")
_HEAVY = "{heavy fixture}"


_KEY_LINES = [
    (("show-algebra", "52_65"), "forbidden_cycles: abb bbc ccc"),
    (("verify-group-rep", str(FIXTURES / "comer113_partition.txt"), "--spec", "52_65"),
     "verdict: reject"),
    (("comer", "--p", "113", "--m", "8"), "coset_size: 14"),
    (("comer", "--m", "2", "--sweep-max-p", "20"),
     "  - allowed_ordered=2 g=2 m=2 orientation_dependent=true p=3 symmetric=false"),
    (("build-59",), "verdict: accept"),
    (("johnson-bound", "--max-n", "16"), "first_below_one: 13"),
    (("johnson-mc", "--n", "5", "--trials", "1", "--seed", "9"), "universe_size: 462"),
    (("search-gf2", "--k", "10", "--seed", "12", "--restarts", "2",
      "--target-order", "64", "--seed-fixture", _H52), "verdict: accept"),
    (("validate-fixture", _H52), "class_count: 16"),
]


@pytest.mark.parametrize("argv,key_line", _KEY_LINES)
def test_table_output_matches_json_exit_code(capsys, argv, key_line):
    json_code, _, _ = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, "--format", "table", *argv)
    assert code == json_code
    assert out.strip()
    assert key_line in out.splitlines()


@pytest.mark.parametrize("argv", [argv for argv, _ in _KEY_LINES] + [
    ("comer", "--p", "13", "--m", "4"),  # orientation-dependent
    ("build-59", "--p", "17"),  # reject
    ("verify-group-rep", str(FIXTURES / "comer113_partition.txt"), "--spec", "52_65",
     "--method", "both", "--no-early-exit"),
    ("validate-fixture", _HEAVY),  # weights fail, verification skipped
])
def test_table_is_rendered_from_the_json_payload_alone(capsys, tmp_path, argv):
    if _HEAVY in argv:  # the shipped list plus one element of weight 7
        path = tmp_path / "heavy.txt"
        path.write_text((FIXTURES / "h52_k10.txt").read_text() + "1111111000\n")
        argv = tuple(str(path) if arg == _HEAVY else arg for arg in argv)
    json_code, json_out, _ = run_cli(capsys, "--format", "json", *argv)
    code, out, _ = run_cli(capsys, "--format", "table", *argv)
    assert "\n".join(cli._table(json.loads(json_out))) + "\n" == out
    assert code == json_code


def test_table_layout():
    payload = {"e": True, "d": 1.5, "c": [["p", 1], ["q", 2]],
               "b": [{"y": [1, 2], "x": "s"}], "a": {"n": None, "m": [], "l": "x y"}}
    assert cli._table(payload) == [
        "a:", "  l: x y", "  m: (none)", "  n: null",
        "b:", "  - x=s y=[1,2]",
        'c: ["p",1] ["q",2]',
        "d: 1.5",
        "e: true"]


_WORDS = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                               blacklist_characters='"\\'), min_size=1, max_size=5)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | _WORDS)
_VALUES = st.recursive(
    _SCALARS | st.lists(_SCALARS, max_size=4) | st.lists(st.lists(_SCALARS, max_size=3),
                                                         max_size=3),
    lambda inner: (st.dictionaries(_WORDS, inner, max_size=4)
                   | st.lists(st.dictionaries(_WORDS, inner, max_size=3), max_size=3)),
    max_leaves=12)


def _keys_and_leaves(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys_and_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys_and_leaves(item)
    else:
        yield value if isinstance(value, str) else json.dumps(value)


@given(st.dictionaries(_WORDS, _VALUES, max_size=5))
def test_table_shows_every_key_and_scalar_of_the_payload(payload):
    lines = cli._table(payload)
    top = [line.split(": ", 1)[0] if ": " in line else line[:-1]
           for line in lines if not line.startswith(" ")]
    assert top == sorted(payload)  # one line per top-level key, in JSON's key order
    text = "\n".join(lines)
    for fact in _keys_and_leaves(payload):
        assert fact in text


# -- the JSON emitter against json.dumps -------------------------------------------

# every escape class of the stdlib's ASCII escaper: quotes, backslashes, control
# characters, non-ASCII letters and an astral symbol (a surrogate pair)
_STRINGS = st.text() | st.sampled_from(['', '"', '\\', '\x00\x1f\x7f', '\u00e9\u2028',
                                        '\U0001f600', 'a "b" \\c\n\td'])
_JSON_SCALARS = (st.none() | st.booleans()
                 | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-1)
                 | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
                 | _STRINGS)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300)
@given(_JSON_TREES)
@example({})
@example([])
@example({"": {"": [[], {}, [{}]]}, "b": [-0.0, math.nan, math.inf, -math.inf, 2**70, -1]})
def test_json_emitter_matches_json_dumps(value):
    # json.dumps(indent=2, sort_keys=True) is the oracle the emitter replaced
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [1, (2, {3})], {"a": {"b": b""}}])
def test_json_emitter_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json(value)


def test_json_output_runs_no_indenting_json_dumps(capsys, monkeypatch):
    dumps = json.dumps

    def compact_only(*args, **kwargs):
        assert kwargs.get("indent") is None, "json.dumps with an indent on the output path"
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", compact_only)
    for fmt in ("json", "table"):
        assert main(["--format", fmt, "johnson-bound", "--max-n", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"first_below_one": 13' in out and "first_below_one: 13" in out


@pytest.mark.parametrize("name,argv", [
    ("show_algebra_52_65", ("show-algebra", "52_65")),
    ("comer_p113_m8", ("comer", "--p", "113", "--m", "8")),
    ("build_59_p113", ("build-59",)),
    ("johnson_bound", ("johnson-bound",)),  # the one payload with floats
])
def test_json_bytes_pinned(capsys, name, argv):
    # recorded with json.dumps(payload, indent=2, sort_keys=True), before the emitter
    assert main(["--format", "json", *argv]) == EXIT_OK
    assert capsys.readouterr().out == (PINNED / f"{name}.json").read_text()
