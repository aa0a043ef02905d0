"""Cyclotomic coset schemes over Z/pZ and the 59_65 representation built on one.

For a prime p, a divisor m of p-1 and a primitive root g, the m cyclotomic
classes X_i partition the nonzero residues, and their sumsets are unions of
whole classes (possibly plus {0}).  Reading "X_i meets X_j + X_k" as the
cycle [i, j, k] turns each scheme into a relation-algebra cycle structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .groups import (ElementSet, GroupSpec, cyclotomic_cosets, is_prime,
                     primitive_root, sumset)
from .verify import ColoredPartition


class SchemeError(ValueError):
    """A coset scheme could not be built or used as requested."""


@dataclass(frozen=True)
class CosetScheme:
    p: int
    m: int
    generator: int
    cosets: tuple[ElementSet, ...]
    symmetric: bool  # every X_i closed under negation, i.e. m | (p-1)/2
    cycles_ordered: frozenset[tuple[int, int, int]]  # (i,j,k): X_i within X_j + X_k

    @property
    def group(self) -> GroupSpec:
        return self.cosets[0].group

    def all_multisets(self) -> list[tuple[int, int, int]]:
        return list(combinations_with_replacement(range(self.m), 3))

    def cycle_multisets(self) -> frozenset[tuple[int, int, int]]:
        """Cycles as canonical sorted triples.

        Well-defined only when membership is invariant under permuting the
        triple, which holds whenever the cosets are symmetric; an
        orientation-dependent structure raises.
        """
        out = set()
        for tri in self.all_multisets():
            verdicts = {perm in self.cycles_ordered for perm in set(permutations(tri))}
            if len(verdicts) != 1:
                raise SchemeError(
                    f"cycle structure of ({self.p}, {self.m}) is orientation-dependent; "
                    f"triple {tri} has no canonical multiset form")
            if verdicts.pop():
                out.add(tri)
        return frozenset(out)

    def forbidden_multisets(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self.all_multisets()) - self.cycle_multisets()

    def to_dict(self) -> dict:
        """Sorted index triples of the allowed and forbidden cycles, or of the
        ordered cycles alone when the structure is orientation-dependent."""
        out = {"p": self.p, "m": self.m, "g": self.generator,
               "symmetric": self.symmetric, "coset_size": (self.p - 1) // self.m}
        try:
            out["allowed"] = [list(t) for t in sorted(self.cycle_multisets())]
            out["forbidden"] = [list(t) for t in sorted(self.forbidden_multisets())]
        except SchemeError:
            out["allowed_ordered"] = [list(t) for t in sorted(self.cycles_ordered)]
            out["orientation_dependent"] = True
        return out


def build_scheme(p: int, m: int, g: int | None = None) -> CosetScheme:
    """Build the cyclotomic coset scheme for (p, m) and compute its cycles.

    The default generator is the smallest primitive root mod p, which fixes
    the paper-style indexing of cosets; the cycle structure itself is
    generator-independent up to reindexing.
    """
    generator = primitive_root(p) if g is None else g
    cosets = cyclotomic_cosets(p, m, generator)  # validates p prime, m | p-1, g primitive
    symmetric = all(c.is_symmetric for c in cosets)
    # -1 = g^((p-1)/2) lies in X_0 iff m divides (p-1)/2; all-or-nothing
    if symmetric != (((p - 1) // m) % 2 == 0 or p == 2):
        raise AssertionError("symmetry flag inconsistent")

    ordered = set()
    for j in range(m):
        for k in range(j, m):
            s = sumset(cosets[j], cosets[k])
            for t in range(m):
                overlap = len(cosets[t] & s)
                if overlap not in (0, len(cosets[t])):
                    raise SchemeError(
                        f"sumset X_{j} + X_{k} is not coset-saturated at X_{t} "
                        f"({overlap} of {len(cosets[t])} elements)")
                if overlap:  # saturated, so X_t lies in X_j + X_k = X_k + X_j
                    ordered.update({(t, j, k), (t, k, j)})
            if symmetric and ((0 in s) != (j == k)):
                raise SchemeError(
                    f"zero lies in X_{j} + X_{k} iff {j == k} expected, got {0 in s}")
    return CosetScheme(p, m, generator, tuple(cosets), symmetric, frozenset(ordered))


def build_59_65_partition(scheme: CosetScheme) -> ColoredPartition:
    """The 59_65 coloring of Z/pZ: b = X_0, a = X_1..X_5, c = X_6 and X_7."""
    if scheme.m != 8:
        raise SchemeError(f"the 59_65 construction needs m = 8, got m = {scheme.m}")
    if not scheme.symmetric:
        raise SchemeError(
            "the 59_65 construction needs symmetric cosets (m must divide (p-1)/2)")
    a = scheme.cosets[1]
    for i in range(2, 6):
        a = a | scheme.cosets[i]
    # build_scheme's cosets partition Z/p minus 0, and each is symmetric (checked above)
    return ColoredPartition._wrap(scheme.group, {
        "a": a,
        "b": scheme.cosets[0],
        "c": scheme.cosets[6] | scheme.cosets[7],
    })


def sweep_schemes(max_p: int, m: int) -> list[dict]:
    """Scheme shapes for every prime p <= max_p with m | p - 1 (plumbing only).

    Each row is the scheme's ``to_dict`` without ``coset_size`` and with every
    cycle list replaced by its length; makes no representability claims.
    """
    if m < 1:
        raise SchemeError(f"m must be at least 1, got {m}")
    rows = []
    for p in range(2, max_p + 1):
        if is_prime(p) and (p - 1) % m == 0:
            row = build_scheme(p, m).to_dict()
            del row["coset_size"]
            rows.append({k: len(v) if isinstance(v, list) else v for k, v in row.items()})
    return rows
