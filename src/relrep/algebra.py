"""Integral symmetric relation algebras described by their diversity cycles."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

IDENTITY = "1'"


class SpecError(ValueError):
    """Raised for malformed algebra descriptions."""


@dataclass(frozen=True, order=True)
class Atom:
    index: int
    name: str

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    def __str__(self) -> str:
        return self.name


class RaSpec:
    """A finite integral relation algebra in which every atom is symmetric.

    The algebra is determined by which triples of diversity atoms are allowed
    as cycles.  Since all atoms are self-converse, a cycle is closed under all
    six permutations of its entries, so cycles are stored as canonical sorted
    triples.  Identity cycles (1'xx) are implicit and never stored.  Atom 0 is
    always the identity 1'.  Instances are immutable.
    """

    def __init__(self, diversity_names: Sequence[str],
                 cycles: Iterable[Sequence[str]],
                 label: str | None = None):
        names = list(diversity_names)
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate atom names in {names!r}")
        for name in names:
            if not name or name == IDENTITY or any(ch.isspace() for ch in name) or "#" in name:
                raise SpecError(f"bad diversity atom name {name!r}")
        self.label = label
        self._atoms = (Atom(0, IDENTITY),) + tuple(Atom(i + 1, n) for i, n in enumerate(names))
        self._by_name = {a.name: a for a in self._atoms}
        triples = set()
        for cyc in cycles:
            parts = tuple(cyc)
            if len(parts) != 3:
                raise SpecError(f"cycle {cyc!r} must name exactly three atoms")
            atoms = tuple(self.atom(p) for p in parts)
            if any(a.is_identity for a in atoms):
                raise SpecError(
                    f"cycle {cyc!r} names the identity atom; identity cycles are implicit")
            triples.add(tuple(sorted(a.index for a in atoms)))
        self._cycles = frozenset(triples)
        profiles = []
        for j, k in combinations_with_replacement(self.diversity_atoms, 2):
            profile, include_zero = self.required_sumset_profile(j, k)
            profiles.append((j.name, k.name, tuple(sorted(a.name for a in profile)),
                             include_zero))
        self._pair_profiles = tuple(profiles)

    # -- atom access ---------------------------------------------------

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def diversity_atoms(self) -> tuple[Atom, ...]:
        return self._atoms[1:]

    def atom(self, ref: "Atom | str | int") -> Atom:
        if isinstance(ref, Atom):
            if ref.index < len(self._atoms) and self._atoms[ref.index] == ref:
                return ref
            raise SpecError(f"atom {ref!r} does not belong to this algebra")
        if isinstance(ref, int):
            if 0 <= ref < len(self._atoms):
                return self._atoms[ref]
            raise SpecError(f"atom index {ref} out of range")
        try:
            return self._by_name[ref]
        except KeyError:
            raise SpecError(f"unknown atom {ref!r}") from None

    # -- cycle structure -------------------------------------------------

    def is_cycle(self, i, j, k) -> bool:
        """Whether [i, j, k] is a cycle; identity triples follow the 1'xx rule."""
        a, b, c = self.atom(i), self.atom(j), self.atom(k)
        diversity = [x for x in (a, b, c) if not x.is_identity]
        if len(diversity) == 3:
            return tuple(sorted(x.index for x in diversity)) in self._cycles
        if len(diversity) == 2:
            return diversity[0] == diversity[1]
        return len(diversity) == 0  # 1'1'1' is a cycle, 1'1'x is not

    def required_sumset_profile(self, j, k) -> tuple[frozenset[Atom], bool]:
        """The atoms i with [i, j, k] a cycle, and whether 0 must appear (j = k).

        This is what the sumset S_j + S_k of a group representation must
        equal: the union of the profile's atom sets, plus {0} exactly when
        j = k (the identity cycle 1'jj).
        """
        ja, ka = self.atom(j), self.atom(k)
        if ja.is_identity or ka.is_identity:
            raise SpecError("sumset profiles are defined for diversity atoms only")
        profile = frozenset(
            a for a in self.diversity_atoms
            if tuple(sorted((a.index, ja.index, ka.index))) in self._cycles)
        return profile, ja == ka

    def pair_profiles(self) -> tuple[tuple[str, str, tuple[str, ...], bool], ...]:
        """(j, k, sorted profile atom names, include_zero) for each diversity
        pair j <= k, in atom order; computed once, when the spec is built."""
        return self._pair_profiles

    def cycle_names(self) -> list[tuple[str, str, str]]:
        """Allowed diversity cycles as sorted name triples."""
        return sorted(tuple(self._atoms[i].name for i in tri) for tri in self._cycles)

    def forbidden_cycle_names(self) -> list[tuple[str, str, str]]:
        return sorted(tuple(a.name for a in tri)
                      for tri in combinations_with_replacement(self.diversity_atoms, 3)
                      if tuple(sorted(a.index for a in tri)) not in self._cycles)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RaSpec)
                and [a.name for a in self._atoms] == [a.name for a in other._atoms]
                and self._cycles == other._cycles)

    __hash__ = None

    def __repr__(self) -> str:
        tag = self.label or ",".join(a.name for a in self.diversity_atoms)
        return f"<RaSpec {tag}: {len(self._cycles)} cycles>"


@functools.cache
def builtin_52_65() -> RaSpec:
    """Algebra 52_65 (Maddux numbering): atoms 1', a, b, c; forbidden ccc, abb, bbc."""
    return RaSpec(("a", "b", "c"),
                  ["aaa", "bbb", "acc", "aab", "aac", "bcc", "abc"],
                  label="52_65")


@functools.cache
def builtin_59_65() -> RaSpec:
    """Algebra 59_65 (Maddux numbering): atoms 1', a, b, c; forbidden bbb, bbc."""
    return RaSpec(("a", "b", "c"),
                  ["aaa", "acc", "aab", "aac", "bcc", "abc", "ccc", "abb"],
                  label="59_65")


_BUILTINS = {"52_65": builtin_52_65, "59_65": builtin_59_65}


def builtin(label: str) -> RaSpec:
    try:
        return _BUILTINS[label]()
    except KeyError:
        raise SpecError(f"no builtin algebra named {label!r}; "
                        f"available: {sorted(_BUILTINS)}") from None


def content_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """(line number from 1, text) of each line that keeps text once a '#' comment
    and the surrounding whitespace are stripped: the input files' one comment grammar."""
    return [(lineno, text) for lineno, raw in enumerate(lines, 1)
            if (text := raw.partition("#")[0].strip())]


def parse_spec(text: str) -> RaSpec:
    """Parse the line-oriented algebra format.

    Grammar: an ``atoms:`` line listing single-character diversity atom names,
    a ``cycles:`` line (possibly empty) of three-character cycle tokens, an
    optional ``name:`` line, and ``#`` comments.
    """
    atoms: list[str] | None = None
    cycles: list[str] | None = None
    label = None
    for lineno, line in content_lines(text.splitlines()):
        key, sep, rest = line.partition(":")
        if not sep:
            raise SpecError(f"line {lineno}: expected 'key: values', got {line!r}")
        key = key.strip()
        if key == "atoms":
            if atoms is not None:
                raise SpecError(f"line {lineno}: duplicate atoms: line")
            atoms = rest.split()
            for name in atoms:
                if len(name) != 1:
                    raise SpecError(
                        f"line {lineno}: atom names in spec files must be single "
                        f"characters, got {name!r}")
        elif key == "cycles":
            cycles = (cycles or []) + rest.split()
        elif key == "name":
            label = rest.strip() or None
        else:
            raise SpecError(f"line {lineno}: unknown directive {key!r}")
    if atoms is None:
        raise SpecError("missing atoms: line")
    if cycles is None:
        raise SpecError("missing cycles: line (may be empty, but must be present)")
    for token in cycles:
        if len(token) != 3:
            raise SpecError(f"cycle token {token!r} must be three atom characters")
    return RaSpec(atoms, cycles, label=label)
