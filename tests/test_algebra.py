"""Cycle bookkeeping for the builtin algebras and the spec-file grammar."""

from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relrep import (RaSpec, SpecError, builtin, builtin_52_65, builtin_59_65,
                    parse_spec)

ALL_MULTISETS = [tuple(sorted(t))
                 for t in combinations_with_replacement("abc", 3)]


def test_builtin_52_65_cycle_counts():
    spec = builtin_52_65()
    assert len(spec.cycle_names()) == 7
    assert len(spec.forbidden_cycle_names()) == 3
    assert set(spec.cycle_names()) | set(spec.forbidden_cycle_names()) == set(ALL_MULTISETS)


def test_builtin_52_65_examples():
    spec = builtin_52_65()
    assert spec.is_cycle("a", "c", "c")
    assert not spec.is_cycle("c", "c", "c")
    # bab canonicalizes to abb, which is forbidden
    assert not spec.is_cycle("b", "a", "b")


def test_builtin_59_65_examples():
    spec = builtin_59_65()
    assert spec.is_cycle("c", "c", "c")
    assert not spec.is_cycle("b", "b", "b")
    assert spec.is_cycle("a", "b", "b")


def test_builtin_59_65_is_all_but_two():
    # derived independently: every diversity multiset except bbb and cbb
    expected = set(ALL_MULTISETS) - {("b", "b", "b"), tuple(sorted("cbb"))}
    assert set(builtin_59_65().cycle_names()) == expected
    assert len(builtin_59_65().forbidden_cycle_names()) == 2


@pytest.mark.parametrize("make", [builtin_52_65, builtin_59_65])
def test_identity_cycle_rules(make):
    spec = make()
    assert spec.is_cycle("1'", "a", "a")
    assert not spec.is_cycle("1'", "a", "b")
    assert spec.is_cycle("1'", "1'", "1'")
    assert not spec.is_cycle("1'", "1'", "a")


def test_unknown_atom_errors():
    spec = builtin_52_65()
    with pytest.raises(SpecError):
        spec.is_cycle("a", "b", "d")
    with pytest.raises(SpecError):
        spec.required_sumset_profile("1'", "a")


cycle_sets = st.frozensets(st.sampled_from(ALL_MULTISETS))


@given(cycle_sets, st.permutations(["a", "b", "c"]))
def test_is_cycle_permutation_invariant(cycles, triple):
    spec = RaSpec(("a", "b", "c"), cycles)
    verdicts = {spec.is_cycle(*perm) for perm in permutations(triple)}
    assert len(verdicts) == 1


@given(cycle_sets)
def test_profiles_reconstruct_cycle_set(cycles):
    spec = RaSpec(("a", "b", "c"), cycles)
    rebuilt = set()
    for j, k in combinations_with_replacement("abc", 2):
        profile, include_zero = spec.required_sumset_profile(j, k)
        assert include_zero == (j == k)
        for atom in profile:
            rebuilt.add(tuple(sorted((atom.name, j, k))))
    assert rebuilt == set(cycles)


@given(cycle_sets)
def test_pair_profiles_are_built_once_from_the_required_profiles(cycles):
    spec = RaSpec(("a", "b", "c"), cycles)
    profiles = spec.pair_profiles()
    assert isinstance(profiles, tuple) and spec.pair_profiles() is profiles
    expected = []
    for j, k in combinations_with_replacement("abc", 2):
        profile, include_zero = spec.required_sumset_profile(j, k)
        expected.append((j, k, tuple(sorted(a.name for a in profile)), include_zero))
    assert list(profiles) == expected


@pytest.mark.parametrize("spec_name,pair,expected,zero", [
    ("59_65", ("b", "b"), {"a"}, True),
    ("52_65", ("b", "b"), {"b"}, True),
    ("52_65", ("a", "c"), {"a", "b", "c"}, False),
    ("52_65", ("b", "c"), {"a", "c"}, False),
])
def test_required_profiles(spec_name, pair, expected, zero):
    profile, include_zero = builtin(spec_name).required_sumset_profile(*pair)
    assert {a.name for a in profile} == expected
    assert include_zero is zero


def test_parse_round_trips_builtins(fixtures_dir):
    assert parse_spec((fixtures_dir / "ra52_65.txt").read_text()) == builtin_52_65()
    assert parse_spec((fixtures_dir / "ra59_65.txt").read_text()) == builtin_59_65()


def test_parse_empty_cycle_list_forbids_everything():
    spec = parse_spec("atoms: a b c\ncycles:\n")
    assert spec.cycle_names() == []
    assert len(spec.forbidden_cycle_names()) == 10


@pytest.mark.parametrize("text,fragment", [
    ("atoms: a b c\ncycles: aad\n", "unknown atom"),
    ("atoms: a a b\ncycles:\n", "duplicate"),
    ("atoms: a b c\ncycles: ab\n", "three"),
    ("atoms: a b c\n", "missing cycles"),
    ("cycles: aaa\n", "missing atoms"),
    ("atoms: a b c\nwidgets: yes\ncycles:\n", "unknown directive"),
    ("atoms: ab c\ncycles:\n", "single"),
    ("atoms: a b c\natoms: d\ncycles:\n", "duplicate atoms"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_spec(text)


def test_constructor_rejects_identity_in_cycle():
    with pytest.raises(SpecError, match="identity"):
        RaSpec(("a", "b"), [("1'", "a", "a")])


def test_builtin_lookup():
    assert builtin("52_65").label == "52_65"
    assert builtin("52_65") is builtin("52_65") is builtin_52_65()  # built once
    assert builtin("59_65") is builtin_59_65()
    with pytest.raises(SpecError):
        builtin("1_65")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nname: demo\natoms: a b  # trailing\ncycles: aaa abb\n"
    spec = parse_spec(text)
    assert spec.label == "demo"
    assert spec.is_cycle("a", "b", "b")
