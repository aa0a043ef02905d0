"""Exit codes, JSON schemas, seed echoing, and reproducible CLI output."""

import json

import pytest

from helpers import FIXTURES
from relrep import GroupSpec, StructuralError
from relrep.cli import (EXIT_ERROR, EXIT_OK, EXIT_REJECT, _build_parser,
                        format_group_flag, load_partition, main, parse_group_flag,
                        write_partition)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


# -- group flags and partition files ----------------------------------------------


def test_parse_group_flag_forms():
    assert parse_group_flag("z:113") == GroupSpec.cyclic(113)
    assert parse_group_flag("2^10") == GroupSpec.power(2, 10)
    assert parse_group_flag("3x4x5") == GroupSpec((3, 4, 5))
    assert parse_group_flag("7") == GroupSpec.cyclic(7)
    with pytest.raises(StructuralError):
        parse_group_flag("z:abc")


def test_group_flag_round_trip():
    for flag in ("z:113", "2^10", "3x4x5"):
        assert format_group_flag(parse_group_flag(flag)) == flag


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


def test_johnson_mc_derives_and_echoes_seed(capsys):
    code, payload, _ = run_json(capsys, "johnson-mc", "--n", "5", "--trials", "0")
    assert code == EXIT_OK
    assert isinstance(payload["seed"], int)


def test_johnson_mc_rejects_n4(capsys):
    code, _, err = run_cli(capsys, "johnson-mc", "--n", "4", "--trials", "1",
                           "--seed", "0")
    assert code == EXIT_ERROR
    assert "divisible" in err


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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["comer"])  # missing required --p/--m
    assert exc.value.code == 2


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RELREP_FORMAT", "json")
    code = main(["show-algebra", "52_65"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    json.loads(out)


def test_table_output_is_default(capsys):
    code, out, _ = run_cli(capsys, "show-algebra", "52_65")
    assert code == EXIT_OK
    assert "allowed cycles:" in out


_H52 = str(FIXTURES / "h52_k10.txt")


_KEY_LINES = [
    (("show-algebra", "52_65"), "forbidden cycles: abb bbc ccc"),
    (("verify-group-rep", str(FIXTURES / "comer113_partition.txt"), "--spec", "52_65"),
     "verdict: reject  (method: sumsets)"),
    (("comer", "--p", "113", "--m", "8"),
     "scheme p=113 m=8 g=3 symmetric=True coset size 14"),
    (("comer", "--m", "2", "--sweep-max-p", "20"),
     "p=5 m=2 g=2 symmetric=True allowed=2 forbidden=2"),
    (("build-59",), "bruteforce agrees: accept"),
    (("johnson-bound", "--max-n", "16"), "first n with bound < 1: 13"),
    (("johnson-mc", "--n", "5", "--trials", "1", "--seed", "9"),
     "johnson mc: n=5 universe=462 classes of 154, seed=9"),
    (("search-gf2", "--k", "10", "--seed", "12", "--restarts", "2",
      "--target-order", "64", "--seed-fixture", _H52), "verdict: accept"),
    (("validate-fixture", _H52), "  b-clique classes: 16 of size 64 (ok: True)"),
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
    ("validate-fixture", _H52, "--t", "5"),  # weights fail, verification skipped
])
def test_table_is_rendered_from_the_json_payload_alone(capsys, argv):
    json_code, json_out, _ = run_cli(capsys, "--format", "json", *argv)
    code, out, _ = run_cli(capsys, "--format", "table", *argv)
    args = _build_parser().parse_args(argv)
    assert "\n".join(args.table(args, json.loads(json_out))) + "\n" == out
    assert code == json_code
