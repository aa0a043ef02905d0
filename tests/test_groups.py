"""Group arithmetic, dense sets, sumsets, spans, cosets, weight classes."""

import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relrep.groups
from relrep import (ElementSet, GroupSpec, cyclotomic_cosets, hamming_weights,
                    is_prime, is_primitive_root, primitive_root, span, sumset,
                    sumset_reference, weight_class)
from relrep.groups import MemoryGuardError, _sum_counts, _walsh_hadamard

from helpers import PAIR_GROUPS


# -- GroupSpec basics ---------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1, 4))
    assert GroupSpec((2,) * 25).order == 1 << 25  # within the memory budget
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(MemoryGuardError, match="memory guard"):
            GroupSpec((2,) * 26)  # refused before anything of its order is allocated
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20
    # FFT sumsets cost more per element than WHT sumsets, and are charged more
    assert GroupSpec.cyclic(17_000_000).order == 17_000_000
    with pytest.raises(MemoryGuardError, match="memory guard"):
        GroupSpec.cyclic(1 << 25)


def test_scalar_arithmetic_examples():
    g = GroupSpec.cyclic(113)
    assert g.add(50, 63) == 0
    assert g.neg(1) == 112
    assert g.sub(3, 5) == 111
    g2 = GroupSpec.power(2, 10)
    assert all(g2.add(x, x) == 0 for x in (0, 1, 77, 1023))


@given(st.lists(st.integers(2, 9), min_size=1, max_size=4), st.data())
def test_encode_decode_round_trip(moduli, data):
    g = GroupSpec(moduli)
    x = data.draw(st.integers(0, g.order - 1))
    assert g.encode(g.decode(x)) == x
    coords = g.decode(x)
    assert len(coords) == g.rank
    assert all(0 <= c < n for c, n in zip(coords, g.moduli))


def test_bitstring_convention_leftmost_is_coordinate_zero():
    g = GroupSpec.power(2, 10)
    x = g.parse_element("1000000000")
    assert g.decode(x)[0] == 1 and sum(g.decode(x)) == 1
    assert g.format_element(x) == "1000000000"
    assert x == int("1000000000", 2)


def test_element_text_forms():
    cyc = GroupSpec.cyclic(7)
    assert cyc.parse_element("5") == 5 and cyc.format_element(5) == "5"
    mixed = GroupSpec((3, 4))
    x = mixed.encode((2, 1))
    assert mixed.format_element(x) == "2,1"
    assert mixed.parse_element("2,1") == x
    with pytest.raises(ValueError):
        cyc.parse_element("7")
    with pytest.raises(ValueError):
        GroupSpec.power(2, 4).parse_element("012")
    with pytest.raises(ValueError):
        GroupSpec.power(2, 4).parse_element("0123")


def test_product_coordinates_out_of_range_rejected():
    g = GroupSpec((3, 5))
    for text in ("4,1", "-1,0", "1,7", "3,0", "0,5"):
        with pytest.raises(ValueError, match="out of range"):
            g.parse_element(text)
    assert g.parse_element("2,4") == g.encode((2, 4))
    assert g.encode((4, 1)) == g.encode((1, 1))  # scalar arithmetic still reduces mod n


def test_out_of_range_elements_rejected():
    g = GroupSpec.cyclic(5)
    with pytest.raises(ValueError):
        g.add(5, 0)
    with pytest.raises(ValueError):
        g.neg(-1)


# -- ElementSet ----------------------------------------------------------------


def test_element_set_basics():
    g = GroupSpec.cyclic(10)
    s = ElementSet.from_indices(g, [1, 3, 3, 9])
    assert len(s) == 3 and 3 in s and 2 not in s
    assert list(s) == [1, 3, 9]
    assert s.negated() == ElementSet.from_indices(g, [9, 7, 1])
    assert ElementSet(g, g._translate_mask(s.mask, 1)) == ElementSet.from_indices(g, [2, 4, 0])
    assert (s | s.complement()) == ElementSet.full(g)
    assert not ElementSet.empty(g)
    assert s.is_symmetric is False
    assert ElementSet.from_indices(g, [2, 8]).is_symmetric


@pytest.mark.parametrize("moduli", [(113,), (2,) * 6, (3, 4, 5), (2, 2, 3)])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_translate_and_negated_match_scalar_arithmetic(moduli, data):
    g = GroupSpec(moduli)
    members = data.draw(st.sets(st.integers(0, g.order - 1)))
    c = data.draw(st.integers(0, g.order - 1))
    s = ElementSet.from_indices(g, members)
    translated = ElementSet(g, g._translate_mask(s.mask, c))
    assert translated == ElementSet.from_indices(g, {g.add(x, c) for x in members})
    assert s.negated() == ElementSet.from_indices(g, {g.neg(x) for x in members})


def test_element_set_group_mismatch():
    a = ElementSet.full(GroupSpec.cyclic(4))
    b = ElementSet.full(GroupSpec.cyclic(5))
    with pytest.raises(ValueError):
        _ = a | b
    with pytest.raises(ValueError):
        sumset(a, b)


def test_element_set_mask_is_immutable():
    s = ElementSet.full(GroupSpec.cyclic(4))
    with pytest.raises(ValueError):
        s.mask[0] = False


# -- sumsets ---------------------------------------------------------------------


def test_sumset_trivial_cases():
    g = GroupSpec.power(2, 5)
    s = ElementSet.from_indices(g, [3, 17, 30])
    assert sumset(ElementSet.empty(g), s) == ElementSet.empty(g)
    assert sumset(ElementSet.singleton(g, 0), s) == s


def test_weight_class_sumsets_match_reported_identities():
    g = GroupSpec.power(2, 10)
    low = weight_class(g, 1, 6)
    high = weight_class(g, 7, 10)
    assert sumset(high, high) == ElementSet.full(g) - high
    assert sumset(low, high) == ElementSet.full(g) - ElementSet.singleton(g, 0)
    assert sumset(low, low) == ElementSet.full(g)


small_groups = st.sampled_from([
    GroupSpec.cyclic(5), GroupSpec.cyclic(12), GroupSpec.cyclic(24),
    GroupSpec.power(2, 4), GroupSpec.power(2, 6), GroupSpec((3, 4)),
    GroupSpec((2, 3, 5)),
])


@settings(deadline=None)
@given(small_groups, st.data())
def test_sumset_agrees_with_reference(group, data):
    pick = st.lists(st.integers(0, group.order - 1), max_size=8)
    left = ElementSet.from_indices(group, data.draw(pick))
    right = ElementSet.from_indices(group, data.draw(pick))
    assert sumset(left, right) == sumset_reference(left, right)


@settings(deadline=None)
@given(small_groups, st.data())
def test_sumset_commutative_and_monotone(group, data):
    pick = st.lists(st.integers(0, group.order - 1), max_size=8)
    a = ElementSet.from_indices(group, data.draw(pick))
    b = ElementSet.from_indices(group, data.draw(pick))
    assert sumset(a, b) == sumset(b, a)
    assert sumset(a, b) <= sumset(a | b, b | a)
    assert sumset(a, ElementSet.singleton(group, 0)) == a


def test_cyclic_convolution_counts_are_exact_on_long_intervals():
    # [0, a) + [0, b) in Z/p: every count up to min(a, b) = 50001 must round exactly
    g = GroupSpec.cyclic(100003)
    a, b = 50001, 50002
    left, right = np.arange(g.order) < a, np.arange(g.order) < b
    z = np.arange(g.order)
    expected = np.clip(np.minimum(np.minimum(z, a + b - 2 - z), min(a, b) - 1) + 1, 0, None)
    sets = [ElementSet(g, left), ElementSet(g, right)]
    assert np.array_equal(_sum_counts(*sets), expected)


@settings(max_examples=200, deadline=None)
@given(group=PAIR_GROUPS, data=st.data())
def test_sumsets_agree_with_reference_on_every_pair(group, data):
    # 1 to 5 sets, empty and full ones among them; every pair both ways round,
    # the (j, j) self-pairs too, with each set's spectrum kept across pairs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    densities = data.draw(st.lists(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]),
                                   min_size=1, max_size=5))
    sets = [ElementSet(group, rng.random(group.order) < d) for d in densities]
    for j, left in enumerate(sets):
        for right in sets[j:]:
            expected = sumset_reference(left, right)
            assert sumset(left, right) == expected and sumset(right, left) == expected


def test_sumset_transforms_each_set_once():
    g = GroupSpec.power(2, 3)
    sets = [ElementSet.from_indices(g, [1]), ElementSet.from_indices(g, [2, 3])]
    with mock.patch.object(relrep.groups, "_walsh_hadamard",
                           side_effect=relrep.groups._walsh_hadamard) as transform:
        assert sumset(sets[0], sets[1]) == ElementSet.from_indices(g, [3, 2])
        assert transform.call_count == 3  # each set once, then the product
        # the sets keep their transforms: a later call inverts its product alone
        assert sumset(sets[1], sets[1]) == ElementSet.from_indices(g, [0, 1])
        assert transform.call_count == 4
        assert sumset(sets[1], sets[0]) == ElementSet.from_indices(g, [3, 2])
        assert transform.call_count == 5


def test_a_set_keeps_its_read_only_walsh_hadamard_spectrum():
    s = ElementSet.from_indices(GroupSpec.power(2, 3), [1, 2])
    spectrum = s._spectrum()
    assert s._spectrum() is spectrum and not spectrum.flags.writeable
    # derived sets start without one
    assert (s | s)._transform is None and s.complement()._transform is None


def test_a_set_keeps_its_read_only_fft_spectrum():
    c = ElementSet.from_indices(GroupSpec((2, 3)), [1, 2])
    spectrum = c._spectrum()
    assert c._spectrum() is spectrum and not spectrum.flags.writeable
    assert np.allclose(spectrum, np.fft.rfftn(c.mask.reshape(2, 3)))
    assert (c | c)._transform is None and c.negated()._transform is None


def test_sumset_refuses_sets_of_different_groups():
    with pytest.raises(ValueError, match="different groups"):
        sumset(ElementSet.full(GroupSpec.cyclic(5)), ElementSet.full(GroupSpec.cyclic(7)))


def test_sum_counts_are_exact_beyond_order_2_20():
    g = GroupSpec.power(2, 21)
    rng = np.random.default_rng(21)
    left, right = (ElementSet(g, rng.random(g.order) < d) for d in (0.5, 0.9))
    counts = _sum_counts(left, right)
    assert counts.sum() == len(left) * len(right)
    # x + y = z iff x lies in right + z, so each count is an overlap of two masks
    for z in rng.integers(g.order, size=4):
        assert counts[z] == np.count_nonzero(left.mask & right.mask[g._indices ^ z])
    sparse = ElementSet(g, rng.random(g.order) < 0.005)
    small = ElementSet.from_indices(g, rng.integers(g.order, size=3))
    counts = _sum_counts(sparse, small)
    assert counts.sum() == len(sparse) * len(small)
    assert ElementSet(g, counts > 0) == sumset_reference(sparse, small)


def test_sumset_reference_reads_each_operand_once():
    g = GroupSpec.power(2, 8)
    left, right = ElementSet.from_indices(g, range(0, 200, 3)), ElementSet.from_indices(g, [1, 6])
    with mock.patch.object(np, "flatnonzero", side_effect=np.flatnonzero) as reads:
        result = sumset_reference(left, right)
    assert reads.call_count == 2  # not one read of right per element of left
    assert result == ElementSet.from_indices(g, [x ^ y for x in left for y in right])


def test_sum_counts_refuse_orders_past_float64_exactness(monkeypatch):
    full = ElementSet.full(GroupSpec.power(2, 4))
    monkeypatch.setattr(relrep.groups, "_WHT_EXACT_ORDER", 8)
    with pytest.raises(ValueError, match="exact only up to order 8"):
        _sum_counts(full, full)


def test_sum_counts_refuse_an_inexact_xor_convolution():
    g = GroupSpec.power(2, 4)
    full = ElementSet.full(g)
    full._spectrum()  # kept, so only the product's inverse comes out off by one
    exact = relrep.groups._walsh_hadamard
    with mock.patch.object(relrep.groups, "_walsh_hadamard", lambda rows: exact(rows) + 1):
        with pytest.raises(AssertionError, match="non-integer"):
            _sum_counts(full, full)


def test_sum_counts_refuse_an_inexact_cyclic_convolution():
    g = GroupSpec.cyclic(15)
    full = ElementSet.full(g)
    exact = np.fft.irfftn
    with mock.patch.object(np.fft, "irfftn", lambda *a, **kw: exact(*a, **kw) + 0.3):
        with pytest.raises(AssertionError, match="exactness"):
            _sum_counts(full, full)


@pytest.mark.parametrize("moduli", [(3,) * 9, (4, 5, 6, 7, 8), (9973,)])
def test_sumset_matches_translation_union_on_larger_groups(moduli):
    g = GroupSpec(moduli)
    rng = np.random.default_rng(sum(moduli))
    small = ElementSet(g, rng.random(g.order) < 0.003)
    big = ElementSet(g, rng.random(g.order) < 0.2)
    expected = np.zeros(moduli, dtype=bool)
    for s in small:  # S + B as the union of B shifted by each s, axis by axis
        expected |= np.roll(big.mask.reshape(moduli), g.decode(s), axis=tuple(range(g.rank)))
    assert np.array_equal(sumset(small, big).mask, expected.ravel())


@pytest.mark.parametrize("moduli", [(113,), (2,) * 6, (3, 5)])
def test_difference_rows_match_scalar_subtraction(moduli):
    g = GroupSpec(moduli)
    for start, stop in ((0, g.order), (1, 4), (g.order - 2, g.order)):
        expected = [[g.sub(y, x) for y in g.elements()] for x in range(start, stop)]
        assert g.difference_rows(start, stop).tolist() == expected


def test_walsh_hadamard_is_self_inverse_up_to_n():
    rng = np.random.default_rng(5)
    for k in (1, 3, 6, 7, 13, 14):
        v = rng.integers(-4, 5, size=1 << k).astype(np.float64)
        assert np.array_equal(_walsh_hadamard(_walsh_hadamard(v.copy())), v * (1 << k))


def test_walsh_hadamard_matches_the_sylvester_matrix_product():
    # k = 1..14 covers one to three digits of at most 6 bits, and the uneven
    # splits at k = 7, 13 and 14; entries reach +-order^2, the size of a product
    # of two spectra.  The oracle is the int64 product with columns of the dense
    # matrix H[i, j] = (-1)^popcount(i & j): all of them up to order 1024, 256
    # random ones above
    rng = np.random.default_rng(7)
    for k in range(1, 15):
        n = 1 << k
        v = rng.integers(-n * n, n * n + 1, size=n)
        columns = np.arange(n) if n <= 1024 else rng.choice(n, 256, replace=False)
        dense = 1 - 2 * (np.bitwise_count(np.arange(n)[:, None] & columns) & 1).astype(np.int64)
        out = _walsh_hadamard(v.astype(np.float64))
        assert out.dtype == np.float64 and out.shape == (n,)
        assert np.array_equal(out[columns], v @ dense), k


def test_walsh_hadamard_refuses_anything_but_a_float64_vector():
    for values in (np.ones(8, dtype=bool), np.ones(8, dtype=np.int64),
                   np.ones((2, 8))):
        with pytest.raises(ValueError, match="float64 vector"):
            _walsh_hadamard(values)


# -- span --------------------------------------------------------------------------


def test_span_trivial_and_cyclic():
    g = GroupSpec.cyclic(113)
    assert span(g, []).order == 1
    assert 0 in span(g, []).elements
    assert span(g, [1]).order == 113
    assert span(g, [0]).order == 1


def test_span_is_closed():
    g = GroupSpec((4, 6))
    sub = span(g, [g.encode((2, 0)), g.encode((0, 3))])
    elems = list(sub.elements)
    members = set(elems)
    for x in elems:
        assert g.neg(x) in members
        for y in elems:
            assert g.add(x, y) in members


def _closure(group: GroupSpec, generators) -> set[int]:
    """Definitional span: add generators to {0} until nothing new appears."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for gen in generators:
            y = group.add(x, gen)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(3, 4, 5), (4, 6), (2, 2, 2, 2), (12,), (2, 4, 3)]), st.data())
def test_span_matches_definitional_closure(moduli, data):
    g = GroupSpec(moduli)
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    assert set(span(g, gens).elements) == _closure(g, gens)


def test_span_of_shipped_fixture_has_order_64(fixtures_dir):
    from relrep import parse_bitstrings
    g = GroupSpec.power(2, 10)
    lines = (fixtures_dir / "h52_k10.txt").read_text().splitlines()
    elements = parse_bitstrings(lines, 10)
    assert span(g, elements).order == 64


# -- primitive roots and cyclotomic cosets ----------------------------------------


def test_primitive_root_values():
    assert primitive_root(113) == 3
    assert primitive_root(2) == 1
    # direct-powering oracle for p = 7: order of 2 is 3, order of 3 is 6
    orders = {g: min(e for e in range(1, 7) if pow(g, e, 7) == 1) for g in (2, 3)}
    assert orders[2] == 3 and orders[3] == 6
    assert primitive_root(7) == 3


def test_primitive_root_rejects_composites():
    with pytest.raises(ValueError):
        primitive_root(112)
    assert is_prime(113) and not is_prime(1)


def test_is_primitive_root():
    assert is_primitive_root(3, 113)
    assert not is_primitive_root(2, 113)  # 2 = 3^? has even index: 2^56 = 1 mod 113
    assert pow(2, 56, 113) == 1


def test_cyclotomic_cosets_113():
    cosets = cyclotomic_cosets(113, 8, 3)
    assert [len(c) for c in cosets] == [14] * 8
    union = cosets[0]
    for c in cosets[1:]:
        union = union | c
    g = cosets[0].group
    assert union == ElementSet.full(g) - ElementSet.singleton(g, 0)
    assert 112 in cosets[0]  # -1 = 3^56 and 56 = 0 mod 8
    assert pow(3, 56, 113) == 112


def test_cyclotomic_cosets_edge_cases():
    assert list(cyclotomic_cosets(7, 1)[0]) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        cyclotomic_cosets(113, 9)
    with pytest.raises(ValueError):
        cyclotomic_cosets(113, 8, g=2)
    with pytest.raises(ValueError):
        cyclotomic_cosets(112, 8)


def test_coset_stability_under_subgroup_action():
    # multiplying X_i by any element of X_0 permutes X_i onto itself
    p, m = 13, 4
    cosets = cyclotomic_cosets(p, m)
    for u in cosets[0]:
        for c in cosets:
            assert {x * u % p for x in c} == set(c)


def test_sumsets_of_cosets_are_coset_saturated():
    p, m = 13, 4
    cosets = cyclotomic_cosets(p, m)
    for j in range(m):
        for k in range(m):
            s = sumset(cosets[j], cosets[k])
            for c in cosets:
                overlap = len(c & s)
                assert overlap in (0, len(c))


# -- weight classes ------------------------------------------------------------------


def test_weight_class_sizes_against_binomial_sums():
    g = GroupSpec.power(2, 10)
    assert len(weight_class(g, 1, 6)) == sum(math.comb(10, w) for w in range(1, 7)) == 847
    assert len(weight_class(g, 7, 10)) == sum(math.comb(10, w) for w in range(7, 11)) == 176
    assert len(weight_class(g, 0, 10)) == 1024


def test_weight_class_validation():
    with pytest.raises(ValueError):
        weight_class(GroupSpec.cyclic(8), 0, 1)
    with pytest.raises(ValueError):
        weight_class(GroupSpec.power(2, 4), 2, 5)
    with pytest.raises(ValueError):
        weight_class(GroupSpec.power(2, 4), -1, 2)


def test_hamming_weights_match_bit_count():
    w = hamming_weights(11)
    for x in (0, 1, 5, 1000, 2047):
        assert int(w[x]) == x.bit_count()
