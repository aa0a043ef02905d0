"""Partition structure, both verifiers, their agreement, and equivalence classes."""

import json
import time
import tracemalloc
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import PAIR_GROUPS, random_symmetric_partition
from relrep import (ColoredPartition, EdgeColoring, ElementSet, GroupSpec,
                    RaSpec, StructuralError, builtin_52_65, builtin_59_65,
                    build_59_65_partition, build_scheme, cayley_coloring,
                    JohnsonUniverse, equivalence_classes, sumset_reference,
                    verify_bruteforce, verify_sumsets, weight_class)
import relrep.groups
import relrep.verify
from relrep.algebra import IDENTITY
from relrep.groups import MemoryGuardError
from relrep.verify import (EMPTY_ATOM, FORBIDDEN_REALIZED, MISSING_WITNESS,
                           PairCheck, VerificationReport, _degrees, _packed_digits,
                           _reach_bits, _ROW_BLOCK_CELLS, _split_digits,
                           _subtract_transposed, _true_cells, _witness_tiles,
                           check_coloring_memory)


def _witness_reach(a: np.ndarray, b: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Boolean product of square bool matrices through the witness-product tiles:
    True at (x, y) iff a[x, z] b[z, y] for some z."""
    reach = np.empty(a.shape, dtype=bool)
    for rows, cols, counts in _witness_tiles(lambda rows, out: np.copyto(out, a[rows]),
                                             lambda cols, out: np.copyto(out, b[:, cols].T),
                                             len(a), symmetric):
        np.greater(counts, 0, out=reach[rows, cols])
    return reach


def _z5_partition(a=(1, 4), b=(2, 3), c=()):
    g = GroupSpec.cyclic(5)
    return ColoredPartition(g, {
        "a": ElementSet.from_indices(g, a),
        "b": ElementSet.from_indices(g, b),
        "c": ElementSet.from_indices(g, c)})


# -- structural validation ------------------------------------------------------


def test_partition_rejects_overlap():
    g = GroupSpec.cyclic(5)
    with pytest.raises(StructuralError, match="more than one"):
        ColoredPartition(g, {"a": ElementSet.from_indices(g, [1, 2, 3, 4]),
                             "b": ElementSet.from_indices(g, [2, 3])})


def test_partition_rejects_gap():
    g = GroupSpec.cyclic(5)
    with pytest.raises(StructuralError, match="not assigned"):
        ColoredPartition(g, {"a": ElementSet.from_indices(g, [1, 4])})


def test_partition_rejects_zero():
    g = GroupSpec.cyclic(5)
    with pytest.raises(StructuralError, match="zero"):
        ColoredPartition(g, {"a": ElementSet.from_indices(g, [0, 1, 2, 3, 4])})


def test_partition_rejects_asymmetric_set():
    g = GroupSpec.cyclic(5)
    with pytest.raises(StructuralError, match="symmetric"):
        ColoredPartition(g, {"a": ElementSet.from_indices(g, [1, 2]),
                             "b": ElementSet.from_indices(g, [3, 4])})


def test_partition_assignment_is_read_only():
    part = _z5_partition()
    with pytest.raises(TypeError):
        part.assignment["a"] = part.assignment["b"]


def test_verify_rejects_atom_mismatch():
    part = _z5_partition()
    wrong = ColoredPartition(part.group, {"x": part.assignment["a"],
                                          "y": part.assignment["b"],
                                          "z": part.assignment["c"]})
    with pytest.raises(StructuralError, match="do not match"):
        verify_sumsets(builtin_52_65(), wrong)


# -- sumset verifier --------------------------------------------------------------


def test_empty_atom_is_rejected_with_both_kinds_of_evidence():
    report = verify_sumsets(builtin_52_65(), _z5_partition(), early_exit=False)
    assert not report.accepted
    kinds = {v.kind for v in report.violations}
    assert EMPTY_ATOM in kinds
    assert MISSING_WITNESS in kinds  # pairs needing c have no witnesses at all


def test_accepting_report_covers_all_six_pairs():
    scheme = build_scheme(113, 8)
    report = verify_sumsets(builtin_59_65(), build_59_65_partition(scheme))
    assert report.accepted
    assert report.violation_count == 0 and not report.violations
    assert len(report.pair_checks) == 6
    assert all(p.ok for p in report.pair_checks)


def test_report_dict_is_json_stable():
    scheme = build_scheme(113, 8)
    report = verify_sumsets(builtin_59_65(), build_59_65_partition(scheme))
    payload = report.to_dict()
    assert payload["verdict"] == "accept"
    assert json.loads(json.dumps(payload)) == payload


def test_early_exit_and_cap():
    report = verify_sumsets(builtin_52_65(), _z5_partition(), early_exit=True)
    assert not report.accepted and report.truncated
    assert len(report.violations) <= report.violation_count
    full = verify_sumsets(builtin_52_65(), _z5_partition(),
                          early_exit=False, max_recorded=2)
    assert len(full.violations) == 2
    assert full.violation_count > 2
    assert full.truncated


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("method", ["sumsets", "bruteforce"])
def test_all_one_atom_partition_counts_empty_atoms(method, early_exit):
    g = GroupSpec.cyclic(7)
    part = ColoredPartition(g, {"a": ElementSet.from_indices(g, range(1, 7)),
                                "b": ElementSet.empty(g),
                                "c": ElementSet.empty(g)})
    report = (verify_sumsets(builtin_52_65(), part, early_exit=early_exit)
              if method == "sumsets"
              else verify_bruteforce(builtin_52_65(), cayley_coloring(part),
                                     early_exit=early_exit))
    assert not report.accepted
    assert report.counts_by_kind[EMPTY_ATOM] == 2
    assert [v.where for v in report.violations[:2]] == ["b", "c"]
    if early_exit:  # the empty atoms' one record stops the walk before any pair
        assert report.violation_count == 2 and report.truncated and not report.pair_checks


def _pairwise_sumsets(spec, part, early_exit, max_recorded):
    """verify_sumsets as one definitional sumset per atom pair, in spec order."""
    names = [a.name for a in spec.diversity_atoms]
    g, sets = part.group, part.assignment
    report = VerificationReport("sumsets", early_exit, max_recorded)
    empty = [n for n in names if not sets[n]]
    report.record(EMPTY_ATOM, None, empty, len(empty))
    for j, k, profile, include_zero in spec.pair_profiles():
        if report.stopped:
            break
        actual = sumset_reference(sets[j], sets[k])
        expected = ElementSet.from_indices(g, [0] if include_zero else [])
        for i in profile:
            expected = expected | sets[i]
        report.pair_checks.append(PairCheck(
            j, k, profile, include_zero, tuple(n for n in names if sets[n] & actual),
            0 in actual, actual == expected))
        if actual == expected:
            continue
        for i in profile:
            missing = sets[i] - actual
            report.record(MISSING_WITNESS, (i, j, k),
                          (g.format_element(x) for x in missing), len(missing))
        for i in names:
            if i not in profile:
                extra = sets[i] & actual
                report.record(FORBIDDEN_REALIZED, (i, j, k),
                              (g.format_element(x) for x in extra), len(extra))
        if include_zero and 0 not in actual:
            report.record(MISSING_WITNESS, (IDENTITY, j, k), [g.format_element(0)], 1)
    return report


@settings(max_examples=150, deadline=None)
@given(group=PAIR_GROUPS, spec=st.sampled_from([builtin_52_65(), builtin_59_65()]),
       early_exit=st.booleans(), max_recorded=st.sampled_from([0, 3, 100]),
       seed=st.integers(0, 2**32 - 1))
def test_verify_sumsets_matches_a_per_pair_walk(group, spec, early_exit, max_recorded, seed):
    part = random_symmetric_partition(group, ("a", "b", "c"), np.random.default_rng(seed))
    report = verify_sumsets(spec, part, early_exit=early_exit, max_recorded=max_recorded)
    oracle = _pairwise_sumsets(spec, part, early_exit, max_recorded)
    assert report.to_dict() == oracle.to_dict()


def test_verify_sumsets_transforms_each_atom_once():
    g = GroupSpec.power(2, 6)
    part = random_symmetric_partition(g, ("a", "b", "c"), np.random.default_rng(3),
                                      allow_empty=False)
    with mock.patch.object(relrep.groups, "_walsh_hadamard",
                           side_effect=relrep.groups._walsh_hadamard) as transform:
        report = verify_sumsets(builtin_52_65(), part)
    assert len(report.pair_checks) == 6
    assert transform.call_count == 3 + 6  # one per atom, one inverse per pair


def test_forbidden_realized_detected():
    # c+c lands on c-elements, but ccc is forbidden in 52_65
    g = GroupSpec.cyclic(8)
    part = ColoredPartition(g, {
        "a": ElementSet.from_indices(g, [1, 7]),
        "b": ElementSet.from_indices(g, [4]),
        "c": ElementSet.from_indices(g, [2, 3, 5, 6])})
    report = verify_sumsets(builtin_52_65(), part, early_exit=False)
    assert not report.accepted
    assert FORBIDDEN_REALIZED in report.counts_by_kind


# -- cayley colorings ---------------------------------------------------------------


def test_cayley_coloring_single_atom():
    g = GroupSpec.cyclic(5)
    part = ColoredPartition(g, {"b": ElementSet.from_indices(g, [1, 2, 3, 4])})
    col = cayley_coloring(part)
    assert col.atom_names == ("1'", "b")
    off = col.colors[~np.eye(5, dtype=bool)]
    assert (off == 1).all()
    assert (np.diagonal(col.colors) == 0).all()


def _assert_scalar_cayley_coloring(part: ColoredPartition, dtype) -> None:
    """cayley_coloring(part) is read-only, has code type dtype and colors every
    (x, y) by the atom of the scalar difference g.sub(y, x)."""
    g = part.group
    col = cayley_coloring(part)
    assert col.colors.dtype == dtype
    assert not col.colors.flags.writeable
    code_of = {x: col.atom_names.index(name)
               for name, es in part.assignment.items() for x in es}
    code_of[0] = 0
    expected = [[code_of[g.sub(y, x)] for y in range(g.order)] for x in range(g.order)]
    assert col.colors.tolist() == expected


# one cyclic factor (L = G), H = L, and H and L of different orders
@pytest.mark.parametrize("moduli", [(113,), (2,) * 6, (3, 5)])
def test_cayley_coloring_matches_scalar_differences(moduli):
    g = GroupSpec(moduli)
    _assert_scalar_cayley_coloring(
        random_symmetric_partition(g, ("a", "b", "c"), np.random.default_rng(5)), np.int8)


_CAYLEY_GROUPS = st.one_of(
    st.integers(2, 130).map(GroupSpec.cyclic),  # prime and composite orders
    st.integers(1, 9).map(lambda k: GroupSpec.power(2, k)),
    st.sampled_from([GroupSpec((2, 4)), GroupSpec((3, 5)), GroupSpec((2, 2, 3)),
                     GroupSpec.power(4, 2)]),
)


@settings(max_examples=60, deadline=None)
@given(group=_CAYLEY_GROUPS, atoms=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_cayley_coloring_matches_scalar_differences_over_drawn_groups(group, atoms, seed):
    names = ("a", "b", "c", "d")[:atoms]
    _assert_scalar_cayley_coloring(
        random_symmetric_partition(group, names, np.random.default_rng(seed)), np.int8)


@pytest.mark.parametrize("order,dtype", [(255, np.int8), (257, np.int16)])
def test_cayley_coloring_codes_take_the_smallest_signed_type(order, dtype):
    # one atom per {x, -x}: 127 diversity atoms mod 255, 128 mod 257
    g = GroupSpec.cyclic(order)
    part = ColoredPartition(g, {f"o{x:03d}": ElementSet.from_indices(g, (x, order - x))
                                for x in range(1, order // 2 + 1)})
    _assert_scalar_cayley_coloring(part, dtype)


def test_cayley_coloring_memory_stays_near_the_codes():
    g = GroupSpec.cyclic(3001)
    part = random_symmetric_partition(g, ("a", "b", "c"), np.random.default_rng(6))
    tracemalloc.start()
    try:
        cayley_coloring(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 codes and temporaries below a quarter of them
    assert peak < 5 * g.order * g.order // 4


def test_cayley_coloring_holds_no_large_index_table():
    # (Z/2)^10 = H x L with |H| = |L| = 32: beside the int8 codes, an intp array
    # of N^2 / 8 cells or more (a difference table of 128 or more rows) goes over
    g = GroupSpec.power(2, 10)
    part = random_symmetric_partition(g, ("a", "b", "c"), np.random.default_rng(6))
    n = g.order
    intp_bytes = np.dtype(np.intp).itemsize
    assert _traced_peak(lambda: cayley_coloring(part)) < n * n + n * n // 8 * intp_bytes


def test_edge_coloring_validates_without_copying_the_matrix():
    g = GroupSpec.cyclic(3001)
    coloring = cayley_coloring(random_symmetric_partition(g, ("a", "b", "c"),
                                                          np.random.default_rng(6)))
    tracemalloc.start()
    try:
        EdgeColoring(coloring.atom_names, coloring.colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # its own copy of the int8 codes and tile temporaries; a second copy, or a
    # bool temporary of every cell, for the zero check goes over
    assert peak < 2 * coloring.colors.nbytes


def test_edge_coloring_rejects_non_integer_codes():
    # two copies of the 59_65 coloring of Z/113 joined by edges coded 0.5, which
    # belong to no atom: a float matrix like this once passed verify_bruteforce
    block = cayley_coloring(build_59_65_partition(build_scheme(113, 8)))
    n = block.point_count
    colors = np.full((2 * n, 2 * n), 0.5)
    colors[:n, :n] = colors[n:, n:] = block.colors
    with pytest.raises(StructuralError, match="integers"):
        EdgeColoring(block.atom_names, colors)
    assert EdgeColoring(block.atom_names[:2], ~np.eye(2, dtype=bool)).point_count == 2


def test_cayley_coloring_refuses_over_budget_before_allocating():
    g = GroupSpec.power(2, 15)
    part = ColoredPartition(g, {"a": weight_class(g, 1, 4), "b": weight_class(g, 5, 9),
                                "c": weight_class(g, 10, 15)})
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(MemoryGuardError, match="guard"):
            cayley_coloring(part)
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < g.order * g.order // 100  # no N^2 array was allocated


def test_memory_guard_admits_the_desk_scale_colorings():
    check_coloring_memory(16384, 3)  # (Z/2)^14 Cayley coloring, about 2.7 GB
    check_coloring_memory(8192, 30)  # (Z/2)^13 at 30 atoms: the whole 4 GiB
    check_coloring_memory(JohnsonUniverse(6).size, 3)
    with pytest.raises(MemoryGuardError, match="bytes"):
        check_coloring_memory(16384, 7)  # the remainders scale with the atoms
    with pytest.raises(MemoryGuardError, match="guard"):
        check_coloring_memory(JohnsonUniverse(8).size, 3)


def test_cayley_coloring_comer_membership():
    scheme = build_scheme(113, 8)
    part = build_59_65_partition(scheme)
    col = cayley_coloring(part)
    # 3 = g^1 lies in X_1, so the difference 3 - 0 is colored a
    assert 3 in part.assignment["a"]
    assert col.atom_names[col.colors[0, 3]] == "a"
    # 1 = g^0 lies in X_0 = b
    assert col.atom_names[col.colors[0, 1]] == "b"


def test_edge_coloring_validation():
    with pytest.raises(StructuralError, match="identity"):
        EdgeColoring(("a", "1'"), np.zeros((2, 2), dtype=int))
    bad = np.array([[0, 1], [2, 0]])
    with pytest.raises(StructuralError, match="not symmetric"):
        EdgeColoring(("1'", "a", "b"), bad)
    with pytest.raises(StructuralError, match="diagonal"):
        EdgeColoring(("1'", "a"), np.array([[1, 1], [1, 0]]))
    with pytest.raises(StructuralError, match="identity-colored"):
        EdgeColoring(("1'", "a"), np.array([[0, 0], [0, 0]]))


def test_edge_coloring_names_the_first_off_diagonal_identity_pair():
    colors = np.ones((4, 4), dtype=np.int8)
    np.fill_diagonal(colors, 0)
    colors[1, 3] = colors[3, 1] = colors[2, 3] = colors[3, 2] = 0
    with pytest.raises(StructuralError, match=r"pair \(1, 3\) is identity-colored"):
        EdgeColoring(("1'", "a"), colors)


@pytest.mark.parametrize("cells", [
    [(5, 2)],
    [(3, 5), (2, 11)],  # a failing tile left of the first pair's tile, one row lower
    [(12, 0), (9, 10), (4, 12)],
])
def test_edge_coloring_names_the_first_asymmetric_pair_over_several_tiles(cells, monkeypatch):
    monkeypatch.setattr(relrep.verify, "_TRANSPOSE_TILE", 4)  # 4 x 4 tiles of 13 points
    colors = np.ones((13, 13), dtype=np.int8)
    np.fill_diagonal(colors, 0)
    for x, y in cells:
        colors[x, y] = 2
    x, y = np.argwhere(colors != colors.T)[0]
    with pytest.raises(StructuralError, match=rf"not symmetric at pair \({x}, {y}\)"):
        EdgeColoring(("1'", "a", "b"), colors)


# -- brute-force verifier --------------------------------------------------------------


def test_single_point_fails_faithfulness():
    col = EdgeColoring(("1'", "a", "b", "c"), np.zeros((1, 1), dtype=int))
    report = verify_bruteforce(builtin_52_65(), col, early_exit=False)
    assert not report.accepted
    assert report.counts_by_kind[EMPTY_ATOM] == 3


def test_bruteforce_accepts_comer_coloring():
    scheme = build_scheme(113, 8)
    col = cayley_coloring(build_59_65_partition(scheme))
    report = verify_bruteforce(builtin_59_65(), col)
    assert report.accepted
    assert len(report.pair_checks) == 6


def test_bruteforce_counts_forbidden_triangles():
    # K3 colored entirely b realizes bbb, which 59_65 forbids
    colors = np.ones((3, 3), dtype=int) * 2
    np.fill_diagonal(colors, 0)
    col = EdgeColoring(("1'", "a", "b", "c"), colors)
    report = verify_bruteforce(builtin_59_65(), col, early_exit=False)
    assert not report.accepted
    assert report.counts_by_kind.get(FORBIDDEN_REALIZED, 0) == 6
    assert report.counts_by_cycle["b,b,b"] == 6
    # recorded violations carry an explicit triangle
    triangle = next(v for v in report.violations if v.kind == FORBIDDEN_REALIZED)
    assert triangle.cycle == ("b", "b", "b")


def test_bruteforce_triangles_follow_spec_atom_order():
    # spec lists y before x; the path 0 -y- 1 -x- 2 is witnessed only in that order
    spec = RaSpec(("y", "x", "z"), ["xxx", "yyy", "zzz"])
    names = ("1'", "x", "y", "z")
    colors = np.array([[0, 2, 3, 3],
                       [2, 0, 1, 3],
                       [3, 1, 0, 3],
                       [3, 3, 3, 0]])
    report = verify_bruteforce(spec, EdgeColoring(names, colors), early_exit=False)
    triangles = [v for v in report.violations if v.kind == FORBIDDEN_REALIZED]
    assert triangles
    for v in triangles:
        i, j, k = (names.index(a) for a in v.cycle)
        x, z, y = (int(t) for t in v.where.strip("()").split(","))
        assert (colors[x, y], colors[x, z], colors[z, y]) == (i, j, k)


# -- witness product -----------------------------------------------------------------


def _boolean_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] & b[None, :, :]).any(axis=1)


@pytest.mark.parametrize("size,tile_cells", [
    (1, None), (2, None), (113, None),
    (37, 5 * 37),  # 5 x 5 tiles, the last row and column of tiles 2 wide
    (37, 37),  # 1 x 1 tiles
])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
def test_witness_reach_matches_boolean_oracle(size, tile_cells, density, monkeypatch):
    if tile_cells is not None:
        monkeypatch.setattr(relrep.verify, "_WITNESS_TILE_CELLS", tile_cells)
    rng = np.random.default_rng(size * 10 + int(density * 10))
    a = rng.random((size, size)) < density
    b = rng.random((size, size)) < density
    reach = _witness_reach(a, b)
    assert reach.dtype == bool
    assert np.array_equal(reach, _boolean_product(a, b))
    sym = a | a.T  # the upper tiles and their mirrors
    assert np.array_equal(_witness_reach(sym, sym, symmetric=True), _boolean_product(sym, sym))


def test_witness_tiles_refuse_counts_float32_cannot_hold():
    # refused before any operand is read or any tile allocated
    with pytest.raises(ValueError, match="float32"):
        next(_witness_tiles(None, None, 1 << 24, symmetric=False))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_witness_products_hold_no_full_size_float_copy(monkeypatch):
    g = GroupSpec.power(2, 9)
    part = random_symmetric_partition(g, ("a", "b", "c"), np.random.default_rng(0))
    coloring = cayley_coloring(part)
    n = coloring.point_count
    monkeypatch.setattr(relrep.verify, "_WITNESS_TILE_CELLS", 32 * n)  # 16 x 16 tiles
    a, b = (coloring.colors == coloring.atom_code(n) for n in ("a", "b"))
    # the bool reach is 1 B/cell and the tiles 0.5; a float32 copy of one
    # operand would add 4
    assert _traced_peak(lambda: _witness_reach(a, b)) < 2 * n * n
    assert _traced_peak(lambda: _witness_reach(a, a, symmetric=True)) < 2 * n * n
    # two uint16 remainders (the last pair's counts are summed into one of them)
    # and the uint8 reach are 5 B/cell; at this size one row block is the whole
    # matrix, so the checks' bool block and its temporaries add about 2, and
    # the tiles 0.5; a bool mask per atom would add 3, and a fresh N^2
    # temporary of a check 1 or 2
    peak = _traced_peak(lambda: verify_bruteforce(builtin_52_65(), coloring, early_exit=False))
    assert peak < 8 * n * n


def test_remainder_refuses_counts_uint16_cannot_hold():
    points = 1 << 16
    colors = np.broadcast_to(np.int8(0), (points, points))  # a zero-stride view: nothing allocated
    with pytest.raises(ValueError, match="uint16"):
        _degrees(colors, [1])


@pytest.mark.parametrize("size,tile", [
    (1, 256), (7, 3), (300, 256), (512, 256),
    # rectangular blocks with a ragged last tile
    pytest.param((7, 11), 3, id="7x11-3"),
    pytest.param((300, 40), 256, id="300x40-256"),
    pytest.param((40, 300), 64, id="40x300-64"),
])
def test_subtract_transposed_matches_a_whole_transpose(size, tile, monkeypatch):
    monkeypatch.setattr(relrep.verify, "_TRANSPOSE_TILE", tile)
    shape = size if isinstance(size, tuple) else (size, size)
    rng = np.random.default_rng(shape)
    for dtype in (np.uint16, np.float32):  # float32: the counts of a witness product
        target = rng.integers(1000, 2000, shape, dtype=np.uint16)
        source = rng.integers(0, 1000, shape[::-1], dtype=np.uint16)
        expected = target - source.T
        _subtract_transposed(target, source.astype(dtype))
        assert target.dtype == np.uint16
        assert np.array_equal(target, expected)


def _pairwise_bruteforce(spec, coloring, early_exit, max_recorded):
    """verify_bruteforce as one float32 product per atom pair: the slow oracle
    of the products that verify_bruteforce derives from the others."""
    names = [a.name for a in spec.diversity_atoms]
    report = VerificationReport("bruteforce", early_exit, max_recorded)
    masks = {n: coloring.colors == coloring.atom_code(n) for n in names}
    empty = [n for n in names if not masks[n].any()]
    report.record(EMPTY_ATOM, None, empty, len(empty))
    for j, k, profile, include_zero in spec.pair_profiles():
        if report.stopped:
            break
        reach = _witness_reach(masks[j], masks[k])
        before = report.violation_count
        for i in names:
            if report.stopped:
                break
            if i in profile:
                bad = masks[i] & ~reach
                wheres = (f"({x},{y})" for x, y in zip(*np.nonzero(bad)))
            else:
                bad = masks[i] & reach
                wheres = (f"({x},{np.flatnonzero(masks[j][x] & masks[k][:, y])[0]},{y})"
                          for x, y in zip(*np.nonzero(bad)))
            report.record(MISSING_WITNESS if i in profile else FORBIDDEN_REALIZED,
                          (i, j, k), wheres, int(bad.sum()))
        has_zero = bool(np.diagonal(reach).any())
        if include_zero and not has_zero:
            report.record(MISSING_WITNESS, (IDENTITY, j, k), ["(diagonal)"], 1)
        actual = tuple(n for n in names if (masks[n] & reach).any())
        report.pair_checks.append(PairCheck(j, k, profile, include_zero, actual, has_zero,
                                            report.violation_count == before))
    return report


@st.composite
def _colorings(draw):
    """A spec of 1 to 5 atoms in shuffled order with random cycles, and a
    coloring of 1 to 70 points: skewed random colors, or a circulant coloring
    (a Cayley coloring of Z/n), whose counts are often exactly zero."""
    count = draw(st.integers(1, 5))
    names = "pqrst"[:count]
    order = draw(st.permutations(names))
    triples = list(combinations_with_replacement(order, 3))
    cycles = draw(st.lists(st.sampled_from(triples), unique=True, max_size=len(triples)))
    n = draw(st.integers(1, 70))
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=count, max_size=count)
                            .filter(any)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        code_of = 1 + rng.choice(count, size=n, p=weights / weights.sum())
        code_of = code_of[np.minimum(np.arange(n), -np.arange(n) % n)]  # x, -x alike
        diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        colors = code_of[diff]
    else:
        colors = np.triu(1 + rng.choice(count, size=(n, n), p=weights / weights.sum()), 1)
        colors += colors.T
    np.fill_diagonal(colors, 0)
    return RaSpec(order, cycles), EdgeColoring((IDENTITY,) + tuple(names), colors)


def _random_coloring(n: int, seed: int) -> EdgeColoring:
    colors = np.triu(np.random.default_rng(seed).integers(1, 4, (n, n)), 1)
    return EdgeColoring(("1'", "a", "b", "c"), colors + colors.T)


# packing on (24 mantissa bits: up to 8 digits per product at these sizes) and
# forced off (0 bits: one pair per product, as above 4096 points), 300
# examples so that each gets about as many as one path got before packing
@settings(max_examples=300, deadline=None)
@given(case=_colorings(), tile=st.sampled_from(["cell", "ragged", "whole"]),
       block=st.sampled_from(["cell", "ragged", "whole"]),
       early_exit=st.booleans(), max_recorded=st.sampled_from([0, 2, 100]),
       mantissa=st.sampled_from([24, 0]))
# fixed cases with violations in every row block, on both paths
@example(case=(builtin_52_65(), _random_coloring(50, 1)), tile="ragged", block="cell",
         early_exit=False, max_recorded=100, mantissa=24)
@example(case=(builtin_52_65(), _random_coloring(50, 1)), tile="ragged", block="cell",
         early_exit=False, max_recorded=100, mantissa=0)
@example(case=(builtin_59_65(), _random_coloring(50, 2)), tile="whole", block="ragged",
         early_exit=False, max_recorded=100, mantissa=24)
@example(case=(builtin_59_65(), _random_coloring(50, 2)), tile="whole", block="ragged",
         early_exit=False, max_recorded=100, mantissa=0)
@example(case=(builtin_52_65(), _random_coloring(50, 3)), tile="cell", block="ragged",
         early_exit=True, max_recorded=2, mantissa=24)
@example(case=(builtin_52_65(), _random_coloring(50, 3)), tile="cell", block="ragged",
         early_exit=True, max_recorded=2, mantissa=0)
def test_bruteforce_matches_pairwise_products(case, tile, block, early_exit, max_recorded,
                                               mantissa):
    spec, coloring = case
    n = coloring.point_count
    # square tiles of the products and row blocks of the checks: 1 wide, a
    # shorter last one, or the whole matrix
    side = {"cell": 1, "ragged": n // 2 + 1, "whole": n}
    with mock.patch.multiple(relrep.verify, _WITNESS_TILE_CELLS=side[tile] * n,
                             _ROW_BLOCK_CELLS=side[block] * n,
                             _FLOAT32_MANTISSA_BITS=mantissa):
        report = verify_bruteforce(spec, coloring, early_exit=early_exit,
                                   max_recorded=max_recorded)
    oracle = _pairwise_bruteforce(spec, coloring, early_exit, max_recorded)
    assert report.to_dict() == oracle.to_dict()


@pytest.mark.parametrize("n,pairs,digits", [
    (4096, 2, 2), (4097, 2, 1),  # 12-bit digits fit twice, 13-bit ones once
    (256, 3, 3), (256, 4, 3), (257, 3, 2),  # 8-bit digits fit three times
    (1024, 1, 1), (8, 30, 8), (2, 30, 8),  # capped by the pairs and the reach byte
])
def test_digits_per_product(n, pairs, digits):
    assert _packed_digits(n, pairs) == digits


@pytest.mark.parametrize("digits,width", [(2, 12), (3, 8), (4, 6), (8, 3), (1, 24)])
def test_digit_split_is_exact_up_to_the_mantissa(digits, width):
    rng = np.random.default_rng(digits)
    parts = rng.integers(0, 1 << width, (digits, 5, 7))
    parts[:, 0, 0] = (1 << width) - 1  # the packed 2^(D s) - 1, 2^24 - 1 at D s = 24
    parts[:, 0, 1] = 0
    parts[rng.random(parts.shape) < 0.3] = 0  # digits that reach nothing
    packed = sum(part << d * width for d, part in enumerate(parts))
    assert packed.max() < 1 << 24
    counts = packed.astype(np.float32)
    assert np.array_equal(counts, packed)
    reach = np.full(packed.shape, 0xFF, dtype=np.uint8)
    scratch = np.empty_like(counts)
    _reach_bits(counts, reach, scratch, digits, width)
    assert np.array_equal(reach, sum((part > 0).astype(int) << d
                                     for d, part in enumerate(parts)))
    assert np.array_equal(counts, packed)  # kept
    split = {d: digit.copy() for d, digit in _split_digits(counts, scratch, digits, width)}
    assert list(split) == list(reversed(range(digits)))
    for d, part in enumerate(parts):
        assert np.array_equal(split[d], part)


@pytest.mark.parametrize("mantissa,products", [(24, 2), (0, 3)])
def test_three_atoms_take_two_products_with_packing(mantissa, products, monkeypatch):
    monkeypatch.setattr(relrep.verify, "_FLOAT32_MANTISSA_BITS", mantissa)
    calls = []

    def counted(*args):
        calls.append(args)
        return _witness_tiles(*args)

    monkeypatch.setattr(relrep.verify, "_witness_tiles", counted)
    report = verify_bruteforce(builtin_52_65(), _random_coloring(50, 1), early_exit=False)
    assert len(report.pair_checks) == 6 and len(calls) == products


def _per_cell_triangle_labels(colors, cells, code_j: int, code_k: int):
    """The per-cell labelling that verify_bruteforce batches, kept as its oracle:
    each cell (x, y) gets the first z with colors[x, z] = j and colors[y, z] = k."""
    last_x = None
    for x, y in cells:
        if x != last_x:  # the cells come row by row
            last_x, from_x = x, colors[x] == code_j
        z = int(((colors[y] == code_k) & from_x).argmax())
        yield f"({x},{z},{y})"


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("rows_per_block", [None, 7])
# above 100 points a random 3-coloring seldom misses a witness, so the first
# violation is a forbidden triangle with thousands of cells
@pytest.mark.parametrize("n,seed", [(110, 2), (131, 4)])
@pytest.mark.parametrize("spec", [builtin_52_65(), builtin_59_65()])
def test_batched_triangle_labels_match_the_per_cell_oracle(spec, n, seed, rows_per_block,
                                                          early_exit):
    coloring = _random_coloring(n, seed)
    colors = coloring.colors
    block_cells = _ROW_BLOCK_CELLS if rows_per_block is None else rows_per_block * n
    with mock.patch.object(relrep.verify, "_ROW_BLOCK_CELLS", block_cells):
        report = verify_bruteforce(spec, coloring, early_exit=early_exit, max_recorded=300)
    labels = {}
    for v in report.violations:
        if v.kind == FORBIDDEN_REALIZED:
            labels.setdefault(v.cycle, []).append(v.where)
    # the first forbidden cycle fills the whole cap, over several batches of cells
    assert len(next(iter(labels.values()))) == 300 > 2 * relrep.verify._LABEL_BATCH
    for (i, j, k), where in labels.items():
        cells = [(int(x), int(y)) for x, _, y in (w.strip("()").split(",") for w in where)]
        assert where == list(_per_cell_triangle_labels(
            colors, cells, coloring.atom_code(j), coloring.atom_code(k)))
    assert report.to_dict() == _pairwise_bruteforce(spec, coloring, early_exit, 300).to_dict()


@pytest.mark.parametrize("density", [0.0, 0.001, 0.3, 1.0])
def test_true_cells_follow_row_major_order(density):
    mask = np.random.default_rng(9).random((40, 30)) < density
    assert list(_true_cells(mask)) == [(int(x), int(y)) for x, y in np.argwhere(mask)]


# -- oracle equivalence and symmetry ---------------------------------------------------


def _assert_verifiers_agree(part: ColoredPartition) -> None:
    """Both verifiers give the same verdict and the same check of every pair."""
    col = cayley_coloring(part)
    for spec in (builtin_52_65(), builtin_59_65()):
        sums, brute = verify_sumsets(spec, part), verify_bruteforce(spec, col)
        assert sums.accepted == brute.accepted
        assert ([(p.ok, p.actual_atoms, p.actual_has_zero) for p in sums.pair_checks]
                == [(p.ok, p.actual_atoms, p.actual_has_zero) for p in brute.pair_checks])


@pytest.mark.parametrize("seed", range(4))
def test_verifiers_agree_on_random_partitions(seed):
    rng = np.random.default_rng(seed)
    for group in (GroupSpec.cyclic(7), GroupSpec.cyclic(12), GroupSpec.power(2, 4)):
        _assert_verifiers_agree(random_symmetric_partition(group, ("a", "b", "c"), rng))


def test_verifiers_agree_over_several_witness_tiles():
    # N = 2048: each witness product runs over 2 x 2 tiles at the default tile size
    group = GroupSpec.power(2, 11)
    assert relrep.verify._WITNESS_TILE_CELLS // group.order < group.order
    _assert_verifiers_agree(
        random_symmetric_partition(group, ("a", "b", "c"), np.random.default_rng(0)))


def test_verdict_invariant_under_coordinate_permutation():
    rng = np.random.default_rng(11)
    g = GroupSpec.power(2, 4)
    part = random_symmetric_partition(g, ("a", "b", "c"), rng)
    perm = rng.permutation(4)

    def remap(x):
        coords = g.decode(x)
        return g.encode([coords[perm[i]] for i in range(4)])

    mapped = ColoredPartition(g, {
        name: ElementSet.from_indices(g, (remap(x) for x in es))
        for name, es in part.assignment.items()})
    for spec in (builtin_52_65(), builtin_59_65()):
        assert verify_sumsets(spec, part).accepted == verify_sumsets(spec, mapped).accepted


# -- equivalence classes ------------------------------------------------------------------


def test_equivalence_classes_on_empty_atom_gives_singletons():
    colors = np.ones((4, 4), dtype=int)
    np.fill_diagonal(colors, 0)
    col = EdgeColoring(("1'", "a", "b"), colors)
    result = equivalence_classes(col, "b")
    assert result.is_equivalence
    assert result.classes == ((0,), (1,), (2,), (3,))


def test_equivalence_classes_witness_on_comer_b():
    scheme = build_scheme(113, 8)
    col = cayley_coloring(build_59_65_partition(scheme))
    result = equivalence_classes(col, "b")
    assert not result.is_equivalence
    x, z, y = result.witness
    b_code = col.atom_names.index("b")
    assert col.colors[x, z] == b_code or x == z
    assert col.colors[z, y] == b_code or z == y
    assert x != y and col.colors[x, y] != b_code


@pytest.mark.parametrize("seed", range(6))
def test_equivalence_classes_match_a_dense_oracle_over_several_tiles(seed, monkeypatch):
    monkeypatch.setattr(relrep.verify, "_WITNESS_TILE_CELLS", 5 * 37)  # 5-wide tiles, ragged
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, 37)
    colors = np.where(labels[:, None] == labels, 2, 1)  # b within a class, a across
    for x, y in rng.integers(0, 37, (seed % 3, 2)):  # b across classes breaks transitivity
        colors[x, y] = colors[y, x] = 2
    np.fill_diagonal(colors, 0)
    result = equivalence_classes(EdgeColoring(("1'", "a", "b"), colors), "b")
    relation = colors != 1  # b or the identity
    bad = _boolean_product(relation, relation) > relation
    if bad.any():
        x, y = (int(v) for v in np.argwhere(bad)[0])
        z = int(np.flatnonzero(relation[x] & relation[:, y])[0])
        assert result.witness == (x, z, y)
    else:
        firsts = sorted({int(np.flatnonzero(row)[0]) for row in relation})
        assert result.classes == tuple(tuple(int(m) for m in np.flatnonzero(relation[x]))
                                       for x in firsts)


def test_equivalence_classes_unknown_atom():
    col = EdgeColoring(("1'", "a"), np.array([[0, 1], [1, 0]]))
    with pytest.raises(StructuralError):
        equivalence_classes(col, "zz")
