"""Cyclotomic coset schemes: structure at (113, 8) and generator independence."""

from itertools import permutations

import pytest

from relrep import (ElementSet, SchemeError, build_59_65_partition, build_scheme,
                    builtin_59_65, is_primitive_root, sumset, sweep_schemes,
                    verify_sumsets)


def expected_forbidden_families(m=8):
    out = set()
    for i in range(m):
        out.add(tuple(sorted((i, i, i))))
        out.add(tuple(sorted((i, i, (i + 6) % m))))
        out.add(tuple(sorted((i, i, (i + 7) % m))))
    return out


def test_forbidden_cycles_at_113_8_match_the_three_families():
    scheme = build_scheme(113, 8, 3)
    assert scheme.generator == 3 and scheme.symmetric
    assert scheme.forbidden_multisets() == expected_forbidden_families()
    assert len(scheme.forbidden_multisets()) == 24
    assert len(scheme.cycle_multisets()) == 120 - 24


def test_cycle_multisets_closed_under_permutation():
    scheme = build_scheme(113, 8, 3)
    for tri in scheme.cycle_multisets():
        for perm in set(permutations(tri)):
            assert perm in scheme.cycles_ordered


def test_coset_sizes_and_symmetry():
    scheme = build_scheme(113, 8)
    assert all(len(c) == 14 for c in scheme.cosets)
    assert all(c.is_symmetric for c in scheme.cosets)


def _all_primitive_roots(p):
    return [g for g in range(2, p) if is_primitive_root(g, p)]


def test_generator_independence_up_to_reindexing():
    base = build_scheme(113, 8, 3)
    roots = _all_primitive_roots(113)
    assert len(roots) == 48  # phi(phi(113)) = phi(112)
    for g in roots:
        other = build_scheme(113, 8, g)
        # exact reindexing: g = 3^u scales coset indices by u mod 8
        u = next(e for e in range(112) if pow(3, e, 113) == g)
        remapped = {tuple(sorted(((u * i) % 8, (u * j) % 8, (u * k) % 8)))
                    for (i, j, k) in other.forbidden_multisets()}
        assert remapped == base.forbidden_multisets()


def test_quadratic_residue_scheme_mod_7_is_asymmetric():
    scheme = build_scheme(7, 2, 3)
    assert set(scheme.cosets[0]) == {1, 2, 4}
    assert set(scheme.cosets[1]) == {3, 5, 6}
    assert not scheme.symmetric
    assert not scheme.cosets[1].is_symmetric


def test_59_65_partition_bullets_hold_verbatim():
    scheme = build_scheme(113, 8)
    part = build_59_65_partition(scheme)
    g = scheme.group
    a, b, c = (part.assignment[n] for n in ("a", "b", "c"))
    everything = ElementSet.full(g)
    nonzero = everything - ElementSet.singleton(g, 0)
    zero = ElementSet.singleton(g, 0)
    assert sumset(a, a) == everything
    assert sumset(a, b) == nonzero
    assert sumset(a, c) == nonzero
    assert sumset(b, b) == zero | a
    assert sumset(b, c) == a | c
    assert sumset(c, c) == everything


def test_59_65_partition_verifies():
    part = build_59_65_partition(build_scheme(113, 8))
    assert verify_sumsets(builtin_59_65(), part).accepted


def test_partition_requires_m8_and_symmetry():
    with pytest.raises(SchemeError, match="m = 8"):
        build_59_65_partition(build_scheme(13, 4))
    # p = 41: 8 | 40 but 40/8 = 5 is odd, so cosets are asymmetric
    asym = build_scheme(41, 8)
    assert not asym.symmetric
    with pytest.raises(SchemeError, match="symmetric"):
        build_59_65_partition(asym)


def test_build_scheme_validation():
    with pytest.raises(ValueError, match="not prime"):
        build_scheme(112, 8)
    with pytest.raises(ValueError, match="does not divide"):
        build_scheme(113, 9)
    with pytest.raises(ValueError, match="primitive"):
        build_scheme(113, 8, g=2)


def test_zero_membership_follows_pair_equality():
    scheme = build_scheme(113, 8)
    for j in range(8):
        for k in range(j, 8):
            s = sumset(scheme.cosets[j], scheme.cosets[k])
            assert (0 in s) == (j == k)


def test_sweep_reports_shapes_only():
    rows = sweep_schemes(30, 2)
    assert [r["p"] for r in rows] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    for r in rows:
        assert r["symmetric"] == (((r["p"] - 1) // 2) % 2 == 0)
        assert "allowed" in r or "allowed_ordered" in r


@pytest.mark.parametrize("m", [0, -1])
def test_sweep_rejects_nonpositive_m(m):
    with pytest.raises(SchemeError, match="at least 1"):
        sweep_schemes(10, m)


def test_sweep_rows_count_the_cycles_of_the_scheme_payload():
    rows = {r["p"]: r for r in sweep_schemes(20, 4)}
    assert sorted(rows) == [5, 13, 17]
    symmetric = rows[17]  # 16/4 = 4 is even
    assert symmetric["symmetric"] and symmetric["allowed"] + symmetric["forbidden"] == 20
    assert symmetric["allowed"] == len(build_scheme(17, 4).to_dict()["allowed"])
    oriented = rows[13]  # 12/4 = 3 is odd
    assert oriented["orientation_dependent"] is True
    assert oriented["allowed_ordered"] == len(build_scheme(13, 4).cycles_ordered)
    assert "coset_size" not in oriented and "allowed" not in oriented
