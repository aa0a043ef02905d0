"""Two independent verifiers for relation-algebra representation candidates.

``verify_sumsets`` checks a group (Cayley) candidate through the sumset
identities its algebra requires; ``verify_bruteforce`` checks an arbitrary
finite edge coloring by exhaustive witness search.  On Cayley colorings the
two must agree, which the test suite exercises as an oracle-equivalence
property.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .algebra import IDENTITY, RaSpec
from .groups import ElementSet, GroupSpec, check_memory, sumset

MISSING_WITNESS = "missing_witness"
FORBIDDEN_REALIZED = "forbidden_realized"
EMPTY_ATOM = "empty_atom"

DEFAULT_VIOLATION_CAP = 100

# float32 holds every integer below 2^24 exactly (its mantissa width) and a
# witness count is below the number of points, so a float32 product of 0/1
# matrices counts witnesses exactly below 2^24 points.  The memory guard keeps
# colorings far smaller.  _packed_digits reads the width when called, so a
# test may narrow it to switch packing off; the point limit is fixed here.
_FLOAT32_MANTISSA_BITS = 24
_FLOAT32_EXACT_POINTS = 1 << _FLOAT32_MANTISSA_BITS

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
# meets of a Johnson coloring (2^18 uint32 cells, 1 MiB) and the checks of
# verify_bruteforce.  Their temporaries stay this small, so a build peaks near
# the colors themselves.
_ROW_BLOCK_CELLS = 1 << 18


# Forbidden cells are labelled with their first witness this many at a time:
# one batch covers the default cap of 100 recorded violations, and it reads
# two rows of colors per cell.
_LABEL_BATCH = 128


class StructuralError(ValueError):
    """The candidate is malformed; distinct from a reject verdict."""


def check_coloring_memory(points: int, atoms: int) -> None:
    """Charge building and brute-force verifying an N-point, A-atom coloring: N^2 (2 A + 4) bytes.

    Its cells hold 2 A bytes: the int8 codes (int16 above 127 atoms), A - 1 uint16
    remainders and one uint8 reach.  The charge covers measured peak RSS: a full
    3-atom walk over (Z/2)^13 peaked at 6.9 bytes per cell, interpreter included.
    The remainders, the reach and the product tiles live in a workspace that
    the process keeps after the call, sized by the largest call served and
    released before it grows, so a later call of at most that size allocates
    none of them again and a larger one peaks as a first call would.
    """
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
        return f"<ColoredPartition over {self.group} [{sizes}]>"


class EdgeColoring:
    """A total symmetric coloring of ordered point pairs by atom names.

    ``colors[x, y]`` is an integer index into ``atom_names``; code 0 must be the
    identity and appears exactly on the diagonal.  The constructor validates
    once and keeps a read-only copy.  ``cayley_coloring`` and
    ``johnson.partition_coloring`` keep the matrix they built (``_wrap``), and
    are trusted: each builds a well-formed coloring from a validated input,
    which the tests check by calling ``validate`` on their output.
    """

    def __init__(self, atom_names: Sequence[str], colors: np.ndarray):
        self.atom_names = tuple(atom_names)
        self.colors = np.array(colors)
        self.colors.setflags(write=False)
        self.validate()

    @classmethod
    def _wrap(cls, atom_names: Sequence[str], colors: np.ndarray) -> "EdgeColoring":
        """Take ownership of a freshly built, well-formed matrix without copying
        or validating it."""
        obj = object.__new__(cls)
        obj.atom_names = tuple(atom_names)
        obj.colors = colors
        colors.setflags(write=False)
        return obj

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


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of every N^2 row pass over n x n matrices: _ROW_BLOCK_CELLS each."""
    step = max(1, _ROW_BLOCK_CELLS // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


class _Workspace:
    """Named byte buffers whose pages a process keeps between the calls it serves.

    ``array`` views a buffer as an uninitialised array, so each cell must be
    written before it is read, as with ``np.empty``.  A buffer only grows, to
    the largest array asked of it, and one too small is released before its
    replacement is allocated, so a call peaks no higher than with fresh
    arrays, and reuses the pages that earlier calls faulted in.  Each array
    has a buffer of its own: pages that one array leaves unwritten (the
    remainders an early exit never fills) share no huge page with another's.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        return sum(buffer.size for buffer in self._buffers.values())

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous array on the buffer ``name``, valid until
        that buffer is asked for again."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if name not in self._buffers or self._buffers[name].size < size:
            self._buffers.pop(name, None)  # released before the larger one exists
            self._buffers[name] = np.empty(size, dtype=np.uint8)
        return self._buffers[name][:size].view(dtype).reshape(shape)


class _WorkspacePool:
    """Keeps one workspace and lends it to one call at a time.

    A call that finds it lent works in a fresh workspace, so two calls never
    share a buffer; of the two, the one given back first is kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: _Workspace | None = _Workspace()

    @contextmanager
    def lend(self) -> Iterator[_Workspace]:
        with self._lock:
            workspace, self._idle = self._idle or _Workspace(), None
        try:
            yield workspace
        finally:
            with self._lock:
                if self._idle is None:
                    self._idle = workspace


# The buffers of every witness product: verify_bruteforce and equivalence_classes
# take theirs from here.
_WORKSPACES = _WorkspacePool()


def _tile_buffers(workspace: _Workspace, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 left and right operand tiles and the counts of an n-point
    product, on the workspace's buffers."""
    side = min(n, max(1, _WITNESS_TILE_CELLS // n))
    return (workspace.array("left", (side, n), np.float32),
            workspace.array("right", (side, n), np.float32),
            workspace.array("counts", (side, side), np.float32))


def _witness_tiles(left, right, n: int, symmetric: bool, buffers):
    """Yield (rows, cols, counts) for each square tile of the float32 product A @ B.

    A and B are n x n 0/1 matrices given by readers: ``left(rows, out)``
    writes the rows ``rows`` of A into the float32 array ``out``, and
    ``right(cols, out)`` the columns ``cols`` of B as rows, so a symmetric B
    is read by its rows.  The operand tiles and the counts are the arrays of
    ``buffers`` (from ``_tile_buffers``), so a tile's counts are valid until
    the next tile is drawn.  With ``symmetric`` (B is A, and A is symmetric)
    the product is symmetric: only the tiles on or above the diagonal are
    multiplied, and each off-diagonal one is yielded again, transposed, as its
    mirror.
    """
    if n >= _FLOAT32_EXACT_POINTS:
        raise ValueError(
            f"witness product over {n} points: float32 counts are exact "
            f"only below {_FLOAT32_EXACT_POINTS} points")
    a, b, out = buffers
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


def _digit_width(n: int) -> int:
    """Bits of one digit of a packed witness count over n points: every count is below n."""
    return max(1, (n - 1).bit_length())


def _packed_digits(n: int, pairs: int) -> int:
    """Witness pairs counted by one float32 product over n points, given ``pairs``
    that share its left atom: as many digits as the mantissa holds, at least 1.

    Each digit is a count below 2^s, s = _digit_width(n), so D digits sum below
    2^(D s) and every partial sum of the product is an exact float32 integer
    while D s <= 24: 2 digits up to 4096 points, 3 up to 256.  Each digit's
    reach is one bit of a reach byte, so there are at most 8.
    """
    return min(pairs, 8, max(1, _FLOAT32_MANTISSA_BITS // _digit_width(n)))


def _spare(tile: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The first cells of a contiguous buffer, viewed with the shape of like."""
    return tile.reshape(-1)[:like.size].reshape(like.shape)


def _reach_bits(counts: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 digits: int, width: int) -> None:
    """Write bit d of the uint8 reach ``out`` where digit d of the packed counts
    is nonzero, through a float32 ``scratch`` of their shape; counts are kept.

    Digit 0 is nonzero where the counts, read as int32, are not 0 mod 2^s, and
    the top digit where counts >= 2^((D - 1) s).  Digits between them exist
    only below 257 points (3 digits or more), where temporaries are small.
    """
    if digits == 1:
        np.greater(counts, 0, out=out)
        return
    low = scratch.view(np.int32)
    np.copyto(low, counts, casting="unsafe")
    np.bitwise_and(low, (1 << width) - 1, out=low)
    np.greater(low, 0, out=out)
    bit = _spare(scratch.view(np.uint8), out)  # the int32 digit 0 is read by now
    for d in range(1, digits):
        if d == digits - 1:
            np.greater_equal(counts, 1 << d * width, out=bit)
        else:
            np.greater(counts.astype(np.int32) >> d * width & (1 << width) - 1, 0, out=bit)
        np.multiply(bit, 1 << d, out=bit)
        np.bitwise_or(out, bit, out=out)


def _split_digits(counts: np.ndarray, scratch: np.ndarray, digits: int, width: int):
    """Yield (d, digit d) of the packed float32 counts, the highest first.

    Consumes the counts: the rest below a digit is held as int32 in the float32
    ``scratch`` of their shape, and each digit but the last is written over the
    counts, so a digit is valid until the next is drawn.  One digit is the
    counts themselves.
    """
    if digits == 1:
        yield 0, counts
        return
    rest = scratch.view(np.int32)
    np.copyto(rest, counts, casting="unsafe")
    for d in reversed(range(1, digits)):
        np.right_shift(rest, d * width, out=counts, casting="unsafe")
        yield d, counts
        np.bitwise_and(rest, (1 << d * width) - 1, out=rest)
    yield 0, rest


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


def _translation_split(moduli: Sequence[int]) -> int:
    """How many leading factors form H in G = H x L: L is the fewest trailing
    factors whose order is at least sqrt(|G|), so one cyclic factor is all L."""
    order = math.prod(moduli)
    return max(s for s in range(len(moduli)) if math.prod(moduli[s:]) ** 2 >= order)


def cayley_coloring(part: ColoredPartition) -> EdgeColoring:
    """The coloring with points G and edge (x, y) colored by the atom of y - x.

    The codes have the smallest signed type that holds them: int8 up to 127
    diversity atoms, int16 above.  The rows are built by translation.  G splits
    along its mixed-radix digits into H x L (``_translation_split``), so
    y - x = (y_H - x_H, y_L - x_L) with no carry between the parts.  The |L|
    rows with x_H = 0 are one strided copy of a window over the codes doubled
    along L's axes: colors[x_L, (y_H, y_L)] = codes[y_H, y_L - x_L], whose
    digit of modulus m is read at y - x + m, in 1 .. 2m - 1, of a doubled axis.
    Each other block of |L| rows takes the H blocks of those rows in the order
    y_H - x_H, from H's difference table.  Beside the codes, only the doubled
    codes (at most N |L| bytes) and that |H| x |H| table are allocated.
    """
    group = part.group
    n = group.order
    check_coloring_memory(n, len(part.assignment))
    names = (IDENTITY,) + part.atom_names()
    codes = np.zeros(n, dtype=np.min_scalar_type(-len(names)))
    for code, name in enumerate(names[1:], start=1):
        codes[part.assignment[name].mask] = code
    split = _translation_split(group.moduli)
    h_moduli, l_moduli = group.moduli[:split], group.moduli[split:]
    l = math.prod(l_moduli)
    h = n // l
    colors = np.empty((n, n), dtype=codes.dtype)
    doubled = np.tile(codes.reshape(group.moduli), (1,) * split + (2,) * len(l_moduli))
    l_strides = doubled.strides[split:]
    window = np.lib.stride_tricks.as_strided(
        doubled[(slice(None),) * split + tuple(slice(m, None) for m in l_moduli)],
        l_moduli + h_moduli + l_moduli,
        tuple(-s for s in l_strides) + doubled.strides[:split] + l_strides, writeable=False)
    np.copyto(colors[:l].reshape(l_moduli + h_moduli + l_moduli), window)
    if split:
        first = colors[:l].reshape(l, h, l)
        # mode="clip" leaves the in-range indices alone and, unlike "raise", writes out unbuffered
        for x_h, order in enumerate(GroupSpec(h_moduli).difference_rows(1, h), start=1):
            np.take(first, order, axis=1, mode="clip",
                    out=colors[x_h * l:(x_h + 1) * l].reshape(l, h, l))
    return EdgeColoring._wrap(names, colors)


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

    Only the pairs of two atoms before the last atom L (in spec order) are
    counted by float32 matrix products: A(A - 1)/2 pairs for A atoms, not
    A(A + 1)/2.
    A validated coloring gives each off-diagonal edge exactly one diversity
    atom and each diagonal point the identity, so the diversity atoms sum to
    J - I.  Hence sum_k A_j A_k = deg_j(x) - A_j by rows and
    sum_j A_j A_L = deg_L(y) - A_L by columns, and the products with L follow
    in exact integer arithmetic:

    - A_j A_L = deg_j(x) - A_j - sum_{k != L} A_j A_k, the remainder R_j that
      each atom j before L keeps: A_j A_k drains into R_j, and for j < k into
      R_k transposed (A_k A_j is its transpose);
    - A_L A_L = deg_L(y) - A_L - sum_{j != L} R_j.

    Consecutive pairs (j, k), (j, k + 1), ... before L share one product
    A_j (A_k + 2^s A_{k+1} + ...)^T: every count is below N <= 2^s, so each
    pair's counts are one base-2^s digit of the float32 sums, exact while the
    digits fit the mantissa (``_packed_digits``: two up to 4096 points, so 2
    products instead of 3 at three atoms).  An unpaired A_j A_j is symmetric,
    so only its upper tiles are multiplied.

    No 0/1 matrix of an atom is held: every pass reads atom i as
    ``colors == code_i``, a product by its float32 operand tiles and every
    other pass by row blocks.  A call holds the uint16 remainders, one uint8
    reach that every pair reuses, and buffers of fixed size.  All of them lie
    on the buffers of one workspace that the process keeps between calls: it
    holds the largest call's buffers, and releases one before it grows.  So
    repeated calls in one process (a bench pass, a test session) reuse the
    pages that earlier calls faulted in, and a one-shot CLI run gains
    nothing; calls in concurrent threads never share a buffer.  Bit 0 of the
    reach is the pair being checked; bit d holds the reach of the pair d
    places further in the same product, shifted down as the walk reaches it.
    A pair is checked by counts: hits_i, the reached edges of atom i, makes a
    MISSING total |A_i| - hits_i and a FORBIDDEN total hits_i, and the
    violating edges are found again, block by block, only while the report
    has room.
    """
    names = _check_atoms_match(
        spec, [n for n in coloring.atom_names if n != IDENTITY])
    report = VerificationReport("bruteforce", early_exit, max_recorded)
    with _WORKSPACES.lend() as workspace:
        _bruteforce_walk(spec, coloring, names, report, workspace)
    return report


def _bruteforce_walk(spec: RaSpec, coloring: EdgeColoring, names: list[str],
                     report: VerificationReport, workspace: _Workspace) -> None:
    """The pair walk of ``verify_bruteforce``, recorded into ``report``, with every
    N^2 buffer and tile on the buffers of ``workspace``."""
    colors = coloring.colors
    n = coloring.point_count
    code = {name: coloring.atom_code(name) for name in names}
    degrees = dict(zip(names, _degrees(colors, [code[i] for i in names])))
    sizes = {name: int(degrees[name].sum()) for name in names}
    last = names[-1] if names else None
    blocks = _row_blocks(n)
    # The remainders share one array; each is filled on its first drain, so the
    # pages of one that an early exit never reaches stay unwritten in a fresh
    # workspace.  The flags are one row block of one atom, shared: each
    # generator of violating edges that reads it is drained by report.record
    # before it is written again.
    stack = workspace.array("remainders", (len(names[:-1]), n, n), np.uint16)
    reach = workspace.array("reach", (n, n), np.uint8)
    flags = workspace.array("flags", (blocks[0].stop, n), np.bool_)
    tiles = _tile_buffers(workspace, n)
    remainders = dict(zip(names[:-1], stack))
    filled = set()
    flag_bytes = flags.view(np.uint8)
    width = _digit_width(n)
    # The product of each pair (j, k) with k before L: the atoms ks whose pairs
    # with j it counts, and the digit d of (j, k) in it.
    products = {}
    for at, j in enumerate(names[:-1]):
        ks = names[at:-1]
        step = _packed_digits(n, len(ks))
        for first in range(0, len(ks), step):
            chunk = tuple(ks[first:first + step])
            products.update(((j, k), (chunk, d)) for d, k in enumerate(chunk))

    empty = [name for name in names if sizes[name] == 0]
    report.record(EMPTY_ATOM, None, empty, len(empty))

    def atom_rows(name: str, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The atom's 0/1 matrix at rows, written into out (the shared row block if None)."""
        out = flags[:rows.stop - rows.start] if out is None else out
        return np.equal(colors[rows], code[name], out=out)

    def packed_rows(ks: tuple[str, ...], rows: slice, out: np.ndarray) -> np.ndarray:
        """sum_d 2^(d s) A_{ks[d]} at rows, written into the float32 out by
        Horner's rule, one shared row block at a time."""
        for start in range(rows.start, rows.stop, len(flags)):
            part = slice(start, min(start + len(flags), rows.stop))
            digits = out[start - rows.start:part.stop - rows.start]
            atom_rows(ks[-1], part, digits)
            for k in reversed(ks[:-1]):
                digits *= 1 << width
                digits += atom_rows(k, part)
        return out

    def edges_in(name: str, rows: slice, reached: bool) -> np.ndarray:
        """The edges of the atom in rows that bit 0 of the reach holds (or, if
        not reached, misses)."""
        hit = atom_rows(name, rows)
        if not reached:
            return np.greater(hit, reach[rows] & 1, out=hit)
        hit_bytes = flag_bytes[:len(hit)]
        np.bitwise_and(hit_bytes, reach[rows], out=hit_bytes)
        return hit

    def edges(name: str, reached: bool):
        """(x, y) of each such edge in all rows, lazily, in row-major order."""
        for rows in blocks:
            for x, y in _true_cells(edges_in(name, rows, reached)):
                yield rows.start + x, y

    def triangle_labels(cells, j: str, k: str):
        """Label each cell (x, y) with its first witness z: colors[x, z] is j and
        colors[z, y], read as colors[y, z] in a symmetric coloring, is k.  The
        cells are drawn _LABEL_BATCH at a time and each batch labelled at once."""
        while batch := list(islice(cells, _LABEL_BATCH)):
            xs, ys = np.array(batch).T
            zs = ((colors[xs] == code[j]) & (colors[ys] == code[k])).argmax(axis=1)
            yield from (f"({x},{z},{y})" for (x, y), z in zip(batch, zs.tolist()))

    def remainder(name: str) -> np.ndarray:
        rest = remainders[name]
        if name not in filled:
            filled.add(name)
            for rows in blocks:
                np.subtract(degrees[name][rows, None], atom_rows(name, rows), out=rest[rows])
        return rest

    def drain(j: str, ks: tuple[str, ...], rows: slice, cols: slice, counts) -> None:
        """Drain digit d of the counts at (rows, cols), A_j A_{ks[d]}, into R_j,
        and into R_{ks[d]} transposed unless ks[d] is j; consumes the counts.
        The right operand tile, free once its counts are drawn, is the scratch."""
        for d, digit in _split_digits(counts, _spare(tiles[1], counts), len(ks), width):
            target = remainder(j)[rows, cols]
            np.subtract(target, digit, out=target, casting="unsafe")
            if ks[d] != j:
                _subtract_transposed(remainder(ks[d])[cols, rows], digit)

    def product(j: str, ks: tuple[str, ...]):
        """Write the witness reach of the pairs (j, k), k in ks, as bits of the
        reach; return the counts if still to drain.

        A product of several tiles is drained tile by tile.  A product of one
        tile is returned whole and drained only once its pairs are checked,
        so a pair that ends an early-exit walk costs no upkeep.
        """
        right = partial(packed_rows, ks) if len(ks) > 1 else partial(atom_rows, ks[0])
        for rows, cols, counts in _witness_tiles(partial(atom_rows, j), right, n,
                                                 ks == (j,), tiles):
            _reach_bits(counts, reach[rows, cols], _spare(tiles[1], counts), len(ks), width)
            if counts.size == reach.size:
                return counts
            drain(j, ks, rows, cols, counts)
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

    pending = None
    for j, k, profile_names, include_zero in spec.pair_profiles():
        if report.stopped:
            break
        ks, d = products.get((j, k), ((), 0))
        if d:
            np.right_shift(reach, 1, out=reach)
        elif ks:
            pending = product(j, ks)
        elif j != last:
            np.greater(remainders[j], 0, out=reach)
        else:
            last_pair()
        hits = dict.fromkeys(names, 0)
        for rows in blocks:
            for i in names:
                hits[i] += int(np.count_nonzero(edges_in(i, rows, True)))
        actual_atoms = tuple(i for i in names if hits[i])
        has_zero = bool((reach.diagonal() & 1).any())
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
        if pending is not None and d == len(ks) - 1 and not report.stopped:
            drain(j, ks, slice(None), slice(None), pending)
            pending = None


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
    diagonal), through the witness product's tiles, which come from the
    workspace that ``verify_bruteforce`` uses too; the witness is the first
    pair in row-major order that the relation composed with itself reaches
    but the relation does not hold.
    """
    code = coloring.atom_code(atom_name)
    colors = coloring.colors
    n = coloring.point_count

    def related(rows, out) -> np.ndarray:
        return np.logical_or(colors[rows] == code, colors[rows] == 0, out=out)

    first = None
    with _WORKSPACES.lend() as workspace:
        tiles = _tile_buffers(workspace, n)
        for rows, cols, counts in _witness_tiles(related, related, n, True, tiles):
            tile = colors[rows, cols]
            bad = next(_true_cells((counts > 0) & (tile != code) & (tile != 0)), None)
            if bad is not None:
                cell = (rows.start + bad[0], cols.start + bad[1])
                first = cell if first is None else min(first, cell)
    if first is not None:
        x, y = first
        z = int(np.flatnonzero(related(x, None) & related(y, None))[0])
        return EquivalenceResult(None, (x, z, y))
    seen = np.zeros(n, dtype=bool)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        members = np.flatnonzero(related(x, None))
        seen[members] = True
        classes.append(tuple(int(m) for m in members))
    return EquivalenceResult(tuple(classes), None)
