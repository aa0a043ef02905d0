"""Two independent verifiers for relation-algebra representation candidates.

``verify_sumsets`` checks a group (Cayley) candidate through the sumset
identities its algebra requires; ``verify_bruteforce`` checks an arbitrary
finite edge coloring by exhaustive witness search.  On Cayley colorings the
two must agree, which the test suite exercises as an oracle-equivalence
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import IDENTITY, RaSpec
from .groups import ElementSet, GroupSpec, check_memory, sumset

MISSING_WITNESS = "missing_witness"
FORBIDDEN_REALIZED = "forbidden_realized"
EMPTY_ATOM = "empty_atom"

DEFAULT_VIOLATION_CAP = 100

# float32 holds every integer below 2^24 exactly and a witness count is at most
# the number of points, so a float32 product of 0/1 matrices counts witnesses
# exactly below 2^24 points.  The memory guard keeps colorings far smaller.
_FLOAT32_EXACT_POINTS = 1 << 24

# A remainder of verify_bruteforce lies between 0 and an atom's degree, which is
# below the number of points, so uint16 remainders are exact below 2^16 points.
# The memory guard keeps colorings far smaller.
_UINT16_EXACT_POINTS = 1 << 16

# Cells of one operand tile of a witness product (side 2^21 // N, one tile up
# to N = 1448).  At N = 3003 on 2 cores, 698-wide tiles ran within noise of
# 1396-wide ones, which peaked 22 MB higher, and faster than 349-wide ones.
_WITNESS_TILE_CELLS = 1 << 21

# Side of the square tiles in which a transposed matrix is subtracted: at
# N = 3003 one strided pass over all N^2 uint16 cells took 60 ms and 256 x 256
# tiles 13 ms; at N = 1024 both took about 2 ms (2 cores).
_TRANSPOSE_TILE = 256

# Cells of one row block of every N^2 pass that is not a witness product: the
# differences of a Cayley coloring (2^18 int64 cells, 2 MiB), the meets of a
# Johnson coloring and the checks of verify_bruteforce.  Their temporaries stay
# this small, so a build peaks near the colors themselves.
_ROW_BLOCK_CELLS = 1 << 18


class StructuralError(ValueError):
    """The candidate is malformed; distinct from a reject verdict."""


def check_coloring_memory(points: int, atoms: int) -> None:
    """Charge building and brute-force verifying an N-point, A-atom coloring: N^2 (2 A + 4)
    bytes, fitted to peak RSS (the colors, A - 1 uint16 remainders and one bool reach)."""
    check_memory(points * points * (2 * atoms + 4),
                 f"building and verifying a {points}-point coloring with {atoms} atoms")


@dataclass(frozen=True)
class Violation:
    kind: str
    cycle: tuple[str, str, str] | None  # (i, j, k) atom names; None for empty-atom
    where: str  # offending element, edge or atom, already formatted

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "cycle": list(self.cycle) if self.cycle else None,
                "where": self.where}


@dataclass(frozen=True)
class PairCheck:
    """Outcome of one required identity for the unordered atom pair (left, right)."""

    left: str
    right: str
    expected_atoms: tuple[str, ...]
    include_zero: bool
    actual_atoms: tuple[str, ...]
    actual_has_zero: bool
    ok: bool

    def to_dict(self) -> dict:
        return {"pair": [self.left, self.right],
                "expected_atoms": list(self.expected_atoms),
                "include_zero": self.include_zero,
                "actual_atoms": list(self.actual_atoms),
                "actual_has_zero": self.actual_has_zero,
                "ok": self.ok}


@dataclass
class VerificationReport:
    """A verifier's findings, recorded into an initially empty report.

    ``record`` counts every violation and keeps the first ``max_recorded``.
    Under ``early_exit`` the first recorded violation stops the report: later
    ``record`` calls do nothing, and each verifier ends its pair walk.
    """

    method: str
    early_exit: bool = False
    max_recorded: int = DEFAULT_VIOLATION_CAP
    pair_checks: list[PairCheck] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0
    counts_by_kind: dict[str, int] = field(default_factory=dict)
    counts_by_cycle: dict[str, int] = field(default_factory=dict)
    stopped: bool = False

    @property
    def accepted(self) -> bool:
        return self.violation_count == 0

    @property
    def truncated(self) -> bool:
        return self.stopped or self.violation_count > len(self.violations)

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"

    def record(self, kind: str, cycle: tuple[str, str, str] | None,
               wheres: Iterable[str], total: int) -> None:
        """Count ``total`` violations of one kind and cycle, located by ``wheres``."""
        if self.stopped or total <= 0:
            return
        self.violation_count += total
        self.counts_by_kind[kind] = self.counts_by_kind.get(kind, 0) + total
        if cycle is not None:
            key = ",".join(cycle)
            self.counts_by_cycle[key] = self.counts_by_cycle.get(key, 0) + total
        room = min(self.max_recorded - len(self.violations), total)
        self.violations.extend(Violation(kind, cycle, where)
                               for where in islice(wheres, max(room, 0)))
        self.stopped = self.early_exit

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "method": self.method,
                "pairs": [p.to_dict() for p in self.pair_checks],
                "violations": [v.to_dict() for v in self.violations],
                "violation_count": self.violation_count,
                "counts_by_kind": dict(sorted(self.counts_by_kind.items())),
                "counts_by_cycle": dict(sorted(self.counts_by_cycle.items())),
                "truncated": self.truncated}


class ColoredPartition:
    """Diversity atom names assigned to symmetric subsets partitioning G minus 0.

    Validated once, at construction; ``assignment`` is a read-only mapping,
    so an instance stays valid for its whole life.
    """

    def __init__(self, group: GroupSpec, assignment: Mapping[str, ElementSet]):
        self.group = group
        self.assignment = MappingProxyType(dict(assignment))
        self.validate()

    def validate(self) -> None:
        cover = np.zeros(self.group.order, dtype=np.int32)
        for name, es in self.assignment.items():
            if not isinstance(es, ElementSet) or es.group != self.group:
                raise StructuralError(f"set for atom {name!r} does not live in {self.group}")
            if 0 in es:
                raise StructuralError(f"atom {name!r} contains the group zero")
            if not es.is_symmetric:
                bad = int(np.flatnonzero(es.mask & ~es.negated().mask)[0])
                raise StructuralError(
                    f"atom {name!r} is not symmetric: contains "
                    f"{self.group.format_element(bad)} but not its negation")
            cover[es.mask] += 1
        overlap = np.flatnonzero(cover > 1)
        if overlap.size:
            raise StructuralError(
                f"element {self.group.format_element(int(overlap[0]))} is assigned "
                f"to more than one atom")
        gaps = np.flatnonzero(cover == 0)
        gaps = gaps[gaps != 0]
        if gaps.size:
            raise StructuralError(
                f"element {self.group.format_element(int(gaps[0]))} is not assigned to any atom")

    def atom_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.assignment))

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(s)}" for n, s in sorted(self.assignment.items()))
        return f"<ColoredPartition over {self.group.describe()} [{sizes}]>"


class EdgeColoring:
    """A total symmetric coloring of ordered point pairs by atom names.

    ``colors[x, y]`` is an integer index into ``atom_names``; code 0 must be the
    identity and appears exactly on the diagonal.  Validated once, at
    construction; ``colors`` is a read-only copy.
    """

    def __init__(self, atom_names: Sequence[str], colors: np.ndarray):
        self.atom_names = tuple(atom_names)
        self.colors = np.array(colors)
        self.colors.setflags(write=False)
        self.validate()

    @property
    def point_count(self) -> int:
        return self.colors.shape[0]

    def validate(self) -> None:
        if self.atom_names[:1] != (IDENTITY,):
            raise StructuralError(f"atom code 0 must be the identity {IDENTITY!r}")
        if len(set(self.atom_names)) != len(self.atom_names):
            raise StructuralError("duplicate atom names in coloring")
        c = self.colors
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise StructuralError(f"color matrix must be square, got shape {c.shape}")
        if c.size == 0:
            raise StructuralError("coloring needs at least one point")
        if not (c.dtype == bool or np.issubdtype(c.dtype, np.integer)):
            raise StructuralError(f"color codes must be integers, got dtype {c.dtype}")
        if c.min() < 0 or c.max() >= len(self.atom_names):
            raise StructuralError("color codes out of range")
        # upper tiles against their mirrors; a failing tile's row of tiles holds the
        # first asymmetric pair in row-major order, so only that row is searched
        t = _TRANSPOSE_TILE
        for i in range(0, c.shape[0], t):
            for j in range(i, c.shape[0], t):
                if not np.array_equal(c[i:i + t, j:j + t], c[j:j + t, i:i + t].T):
                    x, y = np.argwhere(c[i:i + t] != c[:, i:i + t].T)[0]
                    raise StructuralError(f"coloring is not symmetric at pair ({i + x}, {y})")
        diag = np.diagonal(c)
        if (diag != 0).any():
            x = int(np.flatnonzero(diag != 0)[0])
            raise StructuralError(f"diagonal point ({x}, {x}) is not identity-colored")
        # the diagonal is all zero, so any further zero code is off the diagonal
        if c.size - np.count_nonzero(c) != c.shape[0]:
            zeros = np.argwhere(c == 0)
            x, y = zeros[zeros[:, 0] != zeros[:, 1]][0]
            raise StructuralError(f"off-diagonal pair ({x}, {y}) is identity-colored")

    def atom_code(self, name: str) -> int:
        try:
            return self.atom_names.index(name)
        except ValueError:
            raise StructuralError(f"coloring has no atom {name!r}") from None

    def atom_mask(self, name: str) -> np.ndarray:
        return self.colors == self.atom_code(name)


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of every N^2 row pass over n x n matrices: _ROW_BLOCK_CELLS each."""
    step = max(1, _ROW_BLOCK_CELLS // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _tile_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 left and right operand tiles and the counts of an n-point product."""
    side = min(n, max(1, _WITNESS_TILE_CELLS // n))
    return (np.empty((side, n), dtype=np.float32), np.empty((side, n), dtype=np.float32),
            np.empty((side, side), dtype=np.float32))


def _witness_tiles(left, right, n: int, symmetric: bool, buffers=None):
    """Yield (rows, cols, counts) for each square tile of the float32 product A @ B.

    A and B are n x n 0/1 matrices given by readers: ``left(rows, out)``
    writes the rows ``rows`` of A into the float32 array ``out``, and
    ``right(cols, out)`` the columns ``cols`` of B as rows, so a symmetric B
    is read by its rows.  The operand tiles and the counts are the arrays of
    ``buffers`` (from ``_tile_buffers``, made here if not given), so a tile's
    counts are valid until the next tile is drawn.  With ``symmetric`` (B is
    A, and A is symmetric) the product is symmetric: only the tiles on or
    above the diagonal are multiplied, and each off-diagonal one is yielded
    again, transposed, as its mirror.
    """
    if n >= _FLOAT32_EXACT_POINTS:
        raise ValueError(
            f"witness product over {n} points: float32 counts are exact "
            f"only below {_FLOAT32_EXACT_POINTS} points")
    a, b, out = _tile_buffers(n) if buffers is None else buffers
    side = len(a)
    for r in range(0, n, side):
        rows = slice(r, min(r + side, n))
        m = rows.stop - r
        left(rows, a[:m])
        for c in range(r if symmetric else 0, n, side):
            cols = slice(c, min(c + side, n))
            w = cols.stop - c
            if symmetric and c == r:
                operand = a[:m]
            else:
                operand = b[:w]
                right(cols, operand)
            counts = out[:m, :w]
            np.matmul(a[:m], operand.T, out=counts)
            yield rows, cols, counts
            if symmetric and c != r:
                yield cols, rows, counts.T


def _degrees(colors: np.ndarray, codes: Sequence[int]) -> np.ndarray:
    """Each code's row counts in a symmetric coloring (its points' degrees), as uint16 rows.

    ``verify_bruteforce`` subtracts witness counts from degrees down to a count
    of its own, so every remainder lies between 0 and a degree, which is below
    the number of points.
    """
    if len(colors) >= _UINT16_EXACT_POINTS:
        raise ValueError(
            f"remainder over {len(colors)} points: uint16 counts are exact "
            f"only below {_UINT16_EXACT_POINTS} points")
    degrees = np.empty((len(codes), len(colors)), dtype=np.uint16)
    for rows in _row_blocks(len(colors)):
        for row, code in zip(degrees, codes):
            np.equal(colors[rows], code).sum(axis=1, dtype=np.uint16, out=row[rows])
    return degrees


def _subtract_transposed(target: np.ndarray, source: np.ndarray) -> None:
    """target -= source.T for an m x n uint16 block, one _TRANSPOSE_TILE square at a time.

    ``source`` may be the float32 counts of a witness product, whose exact
    integer differences are cast back to uint16.
    """
    tile = _TRANSPOSE_TILE
    for i in range(0, target.shape[0], tile):
        for j in range(0, target.shape[1], tile):
            block = target[i:i + tile, j:j + tile]
            np.subtract(block, source[j:j + tile, i:i + tile].T, out=block, casting="unsafe")


def _true_cells(mask: np.ndarray):
    """Yield (x, y) of each True cell of a 2-D bool mask, lazily, in row-major order."""
    for x in np.flatnonzero(mask.any(axis=1)):
        for y in np.flatnonzero(mask[x]):
            yield int(x), int(y)


def cayley_coloring(part: ColoredPartition) -> EdgeColoring:
    """The coloring with points G and edge (x, y) colored by the atom of y - x."""
    group = part.group
    check_coloring_memory(group.order, len(part.assignment))
    names = (IDENTITY,) + part.atom_names()
    code_of = np.zeros(group.order, dtype=np.int16)
    for code, name in enumerate(names[1:], start=1):
        code_of[part.assignment[name].mask] = code
    colors = np.empty((group.order, group.order), dtype=np.int16)
    for rows in _row_blocks(group.order):
        np.take(code_of, group.difference_rows(rows.start, rows.stop), out=colors[rows])
    return EdgeColoring(names, colors)


def _check_atoms_match(spec: RaSpec, names: Sequence[str]) -> list[str]:
    spec_names = [a.name for a in spec.diversity_atoms]
    if set(names) != set(spec_names):
        raise StructuralError(
            f"candidate atoms {sorted(names)} do not match algebra atoms {sorted(spec_names)}")
    return spec_names


def verify_sumsets(spec: RaSpec, part: ColoredPartition, *,
                   early_exit: bool = False,
                   max_recorded: int = DEFAULT_VIOLATION_CAP) -> VerificationReport:
    """Check every sumset identity the algebra imposes on a group partition.

    Accepts iff for each unordered diversity pair (j, k) the sumset
    S_j + S_k equals the union of the profile atoms' sets, with 0 included
    exactly when j = k, and every atom is nonempty (faithfulness).
    """
    names = _check_atoms_match(spec, list(part.assignment))
    group = part.group
    report = VerificationReport("sumsets", early_exit, max_recorded)
    sets = part.assignment

    def elements(mask: np.ndarray):
        return (group.format_element(int(e)) for e in np.flatnonzero(mask))

    empty = [name for name in names if len(sets[name]) == 0]
    report.record(EMPTY_ATOM, None, empty, len(empty))

    for j, k, profile_names, include_zero in spec.pair_profiles():
        if report.stopped:
            break
        # each atom's transform is computed by its first sumset and kept
        actual = sumset(sets[j], sets[k])
        has_zero = 0 in actual
        if sets[j] and sets[k] and has_zero != include_zero:
            # structurally guaranteed; a failure here is a sumset bug
            raise AssertionError("zero membership inconsistent with structure")
        expected = np.zeros(group.order, dtype=bool)
        for name in profile_names:
            expected |= sets[name].mask
        if include_zero:
            expected[0] = True
        actual_atoms = tuple(n for n in names if bool(sets[n] & actual))
        ok = bool(np.array_equal(expected, actual.mask))
        report.pair_checks.append(PairCheck(j, k, profile_names, include_zero,
                                            actual_atoms, has_zero, ok))
        if ok:
            continue
        for i in profile_names:
            missing = sets[i].mask & ~actual.mask
            report.record(MISSING_WITNESS, (i, j, k), elements(missing), int(missing.sum()))
        for i in names:
            if i not in profile_names:
                extra = sets[i].mask & actual.mask
                report.record(FORBIDDEN_REALIZED, (i, j, k), elements(extra), int(extra.sum()))
        if include_zero and not has_zero:
            # only possible when S_j is empty; the check above rules out 0 where j != k
            report.record(MISSING_WITNESS, (IDENTITY, j, k), [group.format_element(0)], 1)
    return report


def verify_bruteforce(spec: RaSpec, coloring: EdgeColoring, *,
                      early_exit: bool = False,
                      max_recorded: int = DEFAULT_VIOLATION_CAP) -> VerificationReport:
    """Exhaustively check witness existence and forbidden triangles.

    For each unordered diversity pair (j, k), the witness counts A_j A_k of the
    atoms' 0/1 matrices give the set of edges (x, y) admitting a point z with
    (x, z) colored j and (z, y) colored k.  Every edge colored by a profile
    atom of (j, k) must be such an edge; no edge colored outside the profile
    may be.  Every atom must color at least one edge (faithfulness).  Identity
    cycles need no check: z = x or z = y witnesses them on any well-formed
    coloring.

    Only the products of two atoms before the last atom L (in spec order) are
    float32 matrix products: A(A - 1)/2 of them for A atoms, not A(A + 1)/2.
    A validated coloring gives each off-diagonal edge exactly one diversity
    atom and each diagonal point the identity, so the diversity atoms sum to
    J - I.  Hence sum_k A_j A_k = deg_j(x) - A_j by rows and
    sum_j A_j A_L = deg_L(y) - A_L by columns, and the products with L follow
    in exact integer arithmetic:

    - A_j A_L = deg_j(x) - A_j - sum_{k != L} A_j A_k, the remainder R_j that
      each atom j before L keeps: A_j A_k drains into R_j, and for j < k into
      R_k transposed (A_k A_j is its transpose);
    - A_L A_L = deg_L(y) - A_L - sum_{j != L} R_j.

    No 0/1 matrix of an atom is held: every pass reads atom i as
    ``colors == code_i``, a product by its float32 operand tiles and every
    other pass by row blocks.  A call holds the uint16 remainders, one bool
    reach that every pair reuses, and buffers of fixed size.  A pair is
    checked by counts: hits_i, the reached edges of atom i, makes a MISSING
    total |A_i| - hits_i and a FORBIDDEN total hits_i, and the violating
    edges are found again, block by block, only while the report has room.
    """
    names = _check_atoms_match(
        spec, [n for n in coloring.atom_names if n != IDENTITY])
    report = VerificationReport("bruteforce", early_exit, max_recorded)
    colors = coloring.colors
    n = coloring.point_count
    code = {name: coloring.atom_code(name) for name in names}
    degrees = dict(zip(names, _degrees(colors, [code[i] for i in names])))
    sizes = {name: int(degrees[name].sum()) for name in names}
    last = names[-1] if names else None
    # The remainders share one array; each is filled on its first drain, so the
    # pages of one that an early exit never reaches stay unwritten.
    stack = np.empty((len(names[:-1]), n, n), dtype=np.uint16)
    remainders = dict(zip(names[:-1], stack))
    filled = set()
    reach = np.empty((n, n), dtype=bool)
    blocks = _row_blocks(n)
    # One row block of one atom, shared: each generator of violating edges that
    # reads it is drained by report.record before it is written again.
    flags = np.empty((blocks[0].stop, n), dtype=bool)
    tiles = _tile_buffers(n)

    empty = [name for name in names if sizes[name] == 0]
    report.record(EMPTY_ATOM, None, empty, len(empty))

    def atom_rows(name: str, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The atom's 0/1 matrix at rows, written into out (the shared row block if None)."""
        out = flags[:rows.stop - rows.start] if out is None else out
        return np.equal(colors[rows], code[name], out=out)

    def edges_in(name: str, rows: slice, reached: bool) -> np.ndarray:
        """The edges of the atom in rows that the reach holds (or, if not reached, misses)."""
        hit = atom_rows(name, rows)
        return (np.logical_and if reached else np.greater)(hit, reach[rows], out=hit)

    def edges(name: str, reached: bool):
        """(x, y) of each such edge in all rows, lazily, in row-major order."""
        for rows in blocks:
            for x, y in _true_cells(edges_in(name, rows, reached)):
                yield rows.start + x, y

    def triangle_labels(cells, j: str, k: str):
        """Label each cell (x, y) with its first witness z: colors[x, z] is j and
        colors[z, y], read as colors[y, z] in a symmetric coloring, is k."""
        last_x = None
        for x, y in cells:
            if x != last_x:  # the cells come row by row
                last_x, from_x = x, colors[x] == code[j]
            z = int(((colors[y] == code[k]) & from_x).argmax())
            yield f"({x},{z},{y})"

    def remainder(name: str) -> np.ndarray:
        rest = remainders[name]
        if name not in filled:
            filled.add(name)
            for rows in blocks:
                np.subtract(degrees[name][rows, None], atom_rows(name, rows), out=rest[rows])
        return rest

    def subtract(j: str, k: str, rows: slice, cols: slice, counts: np.ndarray) -> None:
        """Drain the counts of A_j A_k at (rows, cols) into R_j, and into R_k transposed."""
        target = remainder(j)[rows, cols]
        np.subtract(target, counts, out=target, casting="unsafe")
        if k != j:
            _subtract_transposed(remainder(k)[cols, rows], counts)

    def product(j: str, k: str):
        """Write the witness reach of (j, k); return its counts if still to subtract.

        A product of several tiles is subtracted tile by tile; A_j A_j is
        symmetric, so only its upper tiles are multiplied.  A product of one
        tile is returned whole and subtracted only once the pair is checked,
        so a pair that ends an early-exit walk costs no upkeep.
        """
        for rows, cols, counts in _witness_tiles(partial(atom_rows, j), partial(atom_rows, k), n,
                                                 j == k, tiles):
            np.greater(counts, 0, out=reach[rows, cols])
            if counts.size == reach.size:
                return counts
            subtract(j, k, rows, cols, counts)
        return None

    def last_pair() -> None:
        """Write the reach of (L, L), summing its counts into a remainder in place.

        (L, L) is the last pair, so no remainder is read after it.  Every
        remainder is exact by then, so each sum lies between 0 and deg_L(y).
        """
        for rows in blocks:
            counts = (stack[0, rows] if len(stack)
                      else np.zeros((rows.stop - rows.start, n), dtype=np.uint16))
            for rest in stack[1:]:
                counts += rest[rows]
            counts += atom_rows(last, rows)
            np.subtract(degrees[last], counts, out=counts)
            np.greater(counts, 0, out=reach[rows])

    for j, k, profile_names, include_zero in spec.pair_profiles():
        if report.stopped:
            break
        pending = None
        if k != last:
            pending = product(j, k)
        elif j != last:
            np.greater(remainders[j], 0, out=reach)
        else:
            last_pair()
        hits = dict.fromkeys(names, 0)
        for rows in blocks:
            for i in names:
                hits[i] += int(np.count_nonzero(edges_in(i, rows, True)))
        actual_atoms = tuple(i for i in names if hits[i])
        has_zero = bool(np.diagonal(reach).any())
        before = report.violation_count
        for i in names:
            if report.stopped:
                break
            if i in profile_names:
                report.record(MISSING_WITNESS, (i, j, k),
                              (f"({x},{y})" for x, y in edges(i, False)), sizes[i] - hits[i])
            else:
                report.record(FORBIDDEN_REALIZED, (i, j, k),
                              triangle_labels(edges(i, True), j, k), hits[i])
        if include_zero and not has_zero:
            # only possible when S_j is empty; mirror the sumset verifier
            report.record(MISSING_WITNESS, (IDENTITY, j, k), ["(diagonal)"], 1)
        report.pair_checks.append(PairCheck(j, k, profile_names, include_zero, actual_atoms,
                                            has_zero, report.violation_count == before))
        if pending is not None and not report.stopped:
            subtract(j, k, slice(None), slice(None), pending)
    return report


@dataclass(frozen=True)
class EquivalenceResult:
    """Either the classes of (atom or identity), or a transitivity witness."""

    classes: tuple[tuple[int, ...], ...] | None
    witness: tuple[int, int, int] | None  # (x, z, y): x~z and z~y but not x~y

    @property
    def is_equivalence(self) -> bool:
        return self.witness is None


def equivalence_classes(coloring: EdgeColoring, atom_name: str) -> EquivalenceResult:
    """Partition points by (atom_name or identity) if transitive, else witness.

    The relation is read from the colors, atom_name's code or code 0 (the
    diagonal), through the witness product's tiles; the witness is the first
    pair in row-major order that the relation composed with itself reaches
    but the relation does not hold.
    """
    code = coloring.atom_code(atom_name)
    colors = coloring.colors

    def related(rows, out) -> np.ndarray:
        return np.logical_or(colors[rows] == code, colors[rows] == 0, out=out)

    first = None
    for rows, cols, counts in _witness_tiles(related, related, coloring.point_count, True):
        tile = colors[rows, cols]
        bad = next(_true_cells((counts > 0) & (tile != code) & (tile != 0)), None)
        if bad is not None:
            cell = (rows.start + bad[0], cols.start + bad[1])
            first = cell if first is None else min(first, cell)
    if first is not None:
        x, y = first
        z = int(np.flatnonzero(related(x, None) & related(y, None))[0])
        return EquivalenceResult(None, (x, z, y))
    seen = np.zeros(coloring.point_count, dtype=bool)
    classes = []
    for x in range(coloring.point_count):
        if seen[x]:
            continue
        members = np.flatnonzero(related(x, None))
        seen[members] = True
        classes.append(tuple(int(m) for m in members))
    return EquivalenceResult(tuple(classes), None)
