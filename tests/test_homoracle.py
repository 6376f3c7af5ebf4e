"""Homomorphism enumeration into cyclic groups and the extension oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers

import subdirect.homoracle as homoracle
import subdirect.products as products
from subdirect import (
    CyclicHom,
    InternalInconsistency,
    NotSubdirect,
    OrderLimitExceeded,
    Subgroup,
    abelian_invariants,
    abelianization,
    alternating,
    analyze_subgroup,
    catalog_group,
    catalog_names,
    coefficient_modulus,
    cyclic,
    diagonal,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_homs,
    enumerate_subdirect,
    extend_hom,
    hom_count_formula,
    is_subdirect,
    mutual_commutator,
    oracle_is_extensible_for_modulus,
    oracle_is_p_extensible,
    prime_factors,
    quaternion8,
    raw_enumerate_homs,
    raw_oracle_is_p_extensible,
    restriction_kernel_fibers,
    restriction_kernel_image_sizes,
    restriction_map,
    subgroup_generated,
    subgroup_quotient,
    symmetric,
)
from subdirect.groups import _quotient, all_subgroups
from subdirect.presets import _small_registry
from subdirect.products import DEFAULT_PRODUCT_CAP
from subdirect.verification import SCAN_CAP

A3 = (0, 3, 4)


def coset_diagonal(G, K_elems):
    """(K x 1) Delta(G) built from explicit kernel elements."""
    info = direct_product(G, G)
    gens = [info.encode(g, g) for g in range(G.order)]
    gens += [info.encode(k, 0) for k in K_elems]
    return subgroup_generated(info.group, gens)


def test_enumerate_homs_trivial_group():
    homs = enumerate_homs(cyclic(1), 12)
    assert len(homs) == 1
    assert homs[0].is_zero


def test_enumerate_homs_s3():
    homs = enumerate_homs(symmetric(3), 6)
    assert len(homs) == 2
    keys = {h.key() for h in homs}
    # Identity hom plus the sign character scaled into C6.
    assert (0, 0, 0, 0, 0, 0) in keys


def test_enumerate_homs_klein_four():
    homs = enumerate_homs(elementary_abelian(2, 2), 2)
    assert len(homs) == 4


def test_enumerate_homs_matches_brute():
    for G in (cyclic(4), cyclic(6), symmetric(3), elementary_abelian(2, 2),
              dihedral(8), quaternion8()):
        for m in (1, 2, 3, 4, 6):
            keys = {h.key() for h in enumerate_homs(G, m)}
            assert keys == helpers.brute_homs_to_cyclic(G, m)


def test_enumerate_homs_sorted_and_deterministic():
    homs = enumerate_homs(dihedral(8), 2)
    keys = [h.key() for h in homs]
    assert keys == sorted(keys)
    again = enumerate_homs(dihedral(8), 2)
    assert [h.key() for h in again] == keys
    cases = [(G, m) for _, G in _small_registry() for m in (2, 3, 4, 6, 8, 12)]
    for F, H in ((dihedral(8), dihedral(8)), (quaternion8(), dihedral(8)),
                 (symmetric(3), symmetric(3)), (alternating(4), alternating(4))):
        cases += [(U, m) for U in enumerate_subdirect(F, H) for m in (2, 3, 4)]
    for K, m in cases:
        keys = [h.key() for h in enumerate_homs(K, m)]
        assert keys == sorted(keys), (K, m)


def test_raw_enumerator_agrees():
    # The raw search visits value tables in lexicographic order, which is
    # the sorted order of enumerate_homs.  D8 x C2 at m = 2 is 2**15
    # candidates, spread over many blocks.
    cases = [(G, m) for G in (cyclic(6), symmetric(3), dihedral(8))
             for m in (2, 3, 4)]
    cases.append((direct_product(dihedral(8), cyclic(2)).group, 2))
    for G, m in cases:
        fast = [h.key() for h in enumerate_homs(G, m)]
        slow = [h.key() for h in raw_enumerate_homs(G, m)]
        assert fast == slow, (G, m)


def test_raw_enumerator_cap(monkeypatch):
    monkeypatch.setattr(homoracle, "RAW_SEARCH_LIMIT", 100)
    with pytest.raises(OrderLimitExceeded):
        raw_enumerate_homs(dihedral(12), 12)


def test_hom_count_formula():
    inv, _ = abelianization(dihedral(8))
    assert hom_count_formula(inv.divisors, 2) == 4
    assert hom_count_formula(inv.divisors, 3) == 1
    assert hom_count_formula((12,), 8) == 4
    assert hom_count_formula((), 5) == 1


def test_hom_counts_match_formula():
    for G in (cyclic(12), elementary_abelian(3, 2),
              direct_product(cyclic(2), cyclic(4)).group):
        inv, _ = (abelianization(G))
        for m in (1, 2, 3, 4, 6, 9, 12):
            assert len(enumerate_homs(G, m)) == hom_count_formula(
                inv.divisors, m)


def test_cyclic_hom_validation():
    G = cyclic(4)
    CyclicHom(G, 4, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        CyclicHom(G, 4, [1, 1, 2, 3])
    with pytest.raises(ValueError):
        CyclicHom(G, 4, [0, 2, 1, 3])
    with pytest.raises(ValueError):
        CyclicHom(G, 4, [0, 1, 2])


@pytest.mark.parametrize("modulus", [0, -4, 2.5, 4.0, "4"])
def test_cyclic_hom_needs_a_positive_integer_modulus(modulus):
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        CyclicHom(cyclic(4), modulus, [0, 1, 2, 3])


def test_restriction_map_zero_and_identity():
    G = cyclic(2)
    info = direct_product(G, G)
    zero = CyclicHom(info.group, 2, [0, 0, 0, 0])
    U = diagonal(G)
    assert restriction_map(zero, U).is_zero
    # Sum character vanishes on the diagonal of C2 x C2.
    sum_char = CyclicHom(info.group, 2, [0, 1, 1, 0])
    assert restriction_map(sum_char, U).is_zero
    # Left character restricted to C2 x 1 is the identity character.
    left_char = CyclicHom(info.group, 2, [0, 0, 1, 1])
    axis = subgroup_generated(info.group, [info.encode(1, 0)])
    got = restriction_map(left_char, axis)
    assert got.key() == (0, 1)


def test_restriction_kernel_image_full_product():
    info = direct_product(symmetric(3), cyclic(2))
    U = info.group.full()
    kernel, image = restriction_kernel_image_sizes(U, 2)
    assert kernel == 1
    assert image == len(enumerate_homs(info.group, 2))


def test_restriction_kernel_coset_diagonal():
    G = symmetric(3)
    U = coset_diagonal(G, [3])
    # U = (A3 x 1) Delta(S3): quotient is C2, kernel counts Hom(C2, C6) = 2.
    kernel, image = restriction_kernel_image_sizes(U, 6)
    assert kernel == 2
    assert kernel * image == len(enumerate_homs(G, 6)) ** 2


def test_restriction_kernel_center_example():
    D = dihedral(8)
    U = coset_diagonal(D, [2])
    kernel, image = restriction_kernel_image_sizes(U, 8)
    # Quotient is C2 x C2: four homs into C8.
    assert kernel == 4
    assert kernel * image == len(enumerate_homs(D, 8)) ** 2


def test_fiber_counts_uniform():
    G = symmetric(3)
    for U in enumerate_subdirect(G, G):
        for m in (2, 3, 6):
            counts = restriction_kernel_fibers(U, m)[1]
            kernel, image = restriction_kernel_image_sizes(U, m)
            assert set(counts) == {kernel}
            assert len(counts) == image


def test_restriction_requires_subdirect():
    G = symmetric(3)
    info = direct_product(G, G)
    small = subgroup_generated(info.group, [info.encode(1, 0)])
    with pytest.raises(NotSubdirect):
        restriction_kernel_image_sizes(small, 2)
    with pytest.raises(NotSubdirect):
        oracle_is_extensible_for_modulus(small, 2)


def test_coefficient_modulus():
    G = dihedral(8)
    U = diagonal(G)
    assert coefficient_modulus(U, 2) == 4
    assert coefficient_modulus(U, 3) == 1
    S = symmetric(3)
    V = diagonal(S)
    assert coefficient_modulus(V, 2) == 2
    assert coefficient_modulus(V, 3) == 3


def test_oracle_full_product_extensible():
    info = direct_product(dihedral(8), cyclic(6))
    U = info.group.full()
    for p in (2, 3, 5):
        assert oracle_is_p_extensible(U, p)


def test_oracle_center_example_fails_at_two():
    D = dihedral(8)
    U = coset_diagonal(D, [2])
    assert not oracle_is_p_extensible(U, 2)
    assert oracle_is_p_extensible(U, 3)
    Q = quaternion8()
    V = coset_diagonal(Q, [4])
    assert not oracle_is_p_extensible(V, 2)


def test_oracle_coset_diagonal_extensible():
    G = symmetric(3)
    U = coset_diagonal(G, [3])
    assert oracle_is_p_extensible(U, 2)
    assert oracle_is_p_extensible(U, 3)


def test_oracle_modulus_one():
    U = diagonal(symmetric(3))
    assert oracle_is_extensible_for_modulus(U, 1)


def test_raw_oracle_matches_structured_oracle():
    G = symmetric(3)
    for U in enumerate_subdirect(cyclic(2), cyclic(2)):
        assert raw_oracle_is_p_extensible(U, 2) == oracle_is_p_extensible(U, 2)
    U = diagonal(G)
    for p in (2, 3):
        assert raw_oracle_is_p_extensible(U, p) == oracle_is_p_extensible(U, p)


def test_raw_oracle_infeasible_input_raises():
    # The brute value-table search refuses rather than truncates.
    D = dihedral(8)
    U = coset_diagonal(D, [2])
    with pytest.raises(OrderLimitExceeded):
        raw_oracle_is_p_extensible(U, 2)


def test_raw_oracle_coset_diagonal():
    G = symmetric(3)
    U = coset_diagonal(G, [3])
    assert raw_oracle_is_p_extensible(U, 2) is True


def test_extend_hom_zero():
    G = symmetric(3)
    U = diagonal(G)
    sub_grp, _ = U.as_group()
    zero = CyclicHom(sub_grp, 6, np.zeros(sub_grp.order, dtype=np.int64))
    big = extend_hom(zero, U)
    assert big is not None
    assert big.is_zero


def test_extend_hom_on_full_product_returns_same_function():
    info = direct_product(cyclic(2), cyclic(3))
    U = info.group.full()
    sub_grp, emb = U.as_group()
    for h in enumerate_homs(info.group, 6):
        phi = CyclicHom(sub_grp, 6,
                        [int(h.values[emb(i)]) for i in range(sub_grp.order)])
        big = extend_hom(phi, U)
        assert big is not None
        assert big.key() == h.key()


def test_extend_hom_obstructed_witness():
    D = dihedral(8)
    U = coset_diagonal(D, [2])
    sub_grp, emb = U.as_group()
    info = direct_product(D, D)
    # A character on U that is 1 on (r^2, 1): kills extension at p = 2.
    target = info.encode(2, 0)
    idx = U.elements.index(target)
    # Build the character through the quotient U / ker where it exists.
    found = None
    for h in enumerate_homs(U, 2):
        if int(h.values[idx]) == 1:
            found = h
            break
    assert found is not None
    assert extend_hom(found, U) is None


def test_extension_witness_consistency():
    # Whenever the oracle says extensible, every hom really extends.
    G = symmetric(3)
    for U in enumerate_subdirect(G, G):
        m = 6
        extendable = oracle_is_extensible_for_modulus(U, m)
        results = [extend_hom(phi, U) is not None
                   for phi in enumerate_homs(U, m)]
        assert all(results) == extendable
        # The zero hom always extends.
        assert results[0]


def assert_extend_hom_matches_the_pairwise_loop(U, m) -> set:
    """extend_hom against the pair loop for every hom U -> C_m; returns
    which outcomes (extends or not) occurred."""
    seen = set()
    for phi in enumerate_homs(U, m):
        big = extend_hom(phi, U)
        want = helpers.pairwise_extend_hom(phi, U)
        seen.add(big is not None)
        if want is None:
            assert big is None
        else:
            assert big == want
            assert restriction_map(big, U) == phi
    return seen


def test_extend_hom_matches_the_pairwise_loop_on_catalog_subdirects():
    seen = set()
    for U in catalog_subdirects():
        info = U.parent.product_info
        m = math.lcm(info.left.exponent(), info.right.exponent())
        seen |= assert_extend_hom_matches_the_pairwise_loop(U, m)
    assert seen == {True, False}


def test_extend_hom_accepts_product_subgroups_that_are_not_subdirect():
    info = direct_product(symmetric(3), cyclic(4))
    seen = set()
    for U in all_subgroups(info.group):
        if not is_subdirect(U):
            seen |= assert_extend_hom_matches_the_pairwise_loop(U, 12)
    assert seen == {True, False}


def test_oracle_hom_count_on_the_abelianization():
    for U in catalog_subdirects():
        assert U.parent.order <= SCAN_CAP
        Q, _ = subgroup_quotient(U, mutual_commutator(U, U))
        divisors = abelian_invariants(Q).divisors
        for p in prime_factors(U.parent.order):
            m = coefficient_modulus(U, p)
            for k in (m, m * p):
                count = homoracle._hom_count(U, k)
                assert U._cache[("hom_count", k)] == count
                assert count == len(enumerate_homs(U, k)), (U, k)
                assert count == hom_count_formula(divisors, k), (U, k)


def test_analysis_makes_no_copy_of_the_subgroup():
    for F in (symmetric(4), direct_product(dihedral(8), cyclic(2)).group):
        for U in enumerate_subdirect(F, F):
            analyze_subgroup(U)
            assert "as_group" not in U._cache, U


def test_analysis_builds_no_quotient_of_the_subgroup():
    subgroups = [U for F in (symmetric(4),
                             direct_product(dihedral(8), cyclic(2)).group)
                 for U in enumerate_subdirect(F, F)]
    subgroups.append(diagonal(alternating(5)))
    for U in subgroups:
        analyze_subgroup(U)
        memos = {k[0] if isinstance(k, tuple) else k for k in U._cache}
        assert "quotient" not in memos, U


def test_analysis_walks_no_product_subgroup(monkeypatch):
    """The value-table walk runs only on a factor group's full(), for its
    memoised hom list, and every subdirect product comes with its
    generators, so analysis walks over no U."""
    walk = homoracle._value_tables
    walked = []

    def spy(P, m):
        walked.append(P)
        return walk(P, m)

    monkeypatch.setattr(homoracle, "_value_tables", spy)
    factors = (symmetric(4), direct_product(dihedral(8), cyclic(2)).group)
    for F in factors:
        subgroups = enumerate_subdirect(F, F)
        assert all("gens" in U._cache for U in subgroups)
        for U in subgroups:
            analyze_subgroup(U)
    assert walked
    assert all(P.parent in factors and P is P.parent.full() for P in walked)


def test_hom_count_matches_the_walk_beyond_the_catalog():
    """The m-torsion count of U/[U, U] is the number of hom value tables
    and the count the invariants of U/[U, U] give, at the saturating
    modulus m and at m * p, for products of order up to 576."""
    for U in helpers.preset_subdirects():
        D = mutual_commutator(U, U)
        divisors = abelian_invariants(_quotient(U, D, "A")[0]).divisors
        for p in prime_factors(U.parent.order):
            m = coefficient_modulus(U, p)
            for k in (m, m * p):
                count = homoracle._hom_count(U, k)
                assert count == len(homoracle._value_tables(U, k)), (U, k)
                assert count == hom_count_formula(divisors, k), (U, k)


def test_hom_count_names_a_torsion_count_off_the_derived_order(monkeypatch):
    """A torsion count that |[U, U]| does not divide is an internal
    inconsistency naming |U|, |[U, U]| and m."""
    U = cyclic(4).full()
    monkeypatch.setattr(homoracle, "mutual_commutator",
                        lambda X, Y: Subgroup._trusted(X.parent, (0, 1, 2)))
    with pytest.raises(InternalInconsistency,
                       match=r"order 4 .*4-th powers .*order 3"):
        homoracle._hom_count(U, 4)


# -- array routines against the loops they replaced --------------------------

MODULI = (1, 2, 3, 4, 6, 8, 9, 12)


def test_value_tables_count_the_homs_of_every_subgroup():
    """One row per hom P -> C_m, as many as the invariants of P/[P, P]
    give and as ``_hom_count`` counts, for every subgroup P of two groups
    that are no direct product, whose [P, P] the commutator walk takes
    in their own tables, paired with the trivial group: Hom(D8, C12)
    has 4."""
    for G in (symmetric(4), dihedral(8)):
        for P in all_subgroups(G):
            Q, _ = subgroup_quotient(P, mutual_commutator(P, P))
            divisors = abelian_invariants(Q).divisors
            for m in MODULI:
                count = hom_count_formula(divisors, m)
                assert len(homoracle._value_tables(P, m)) == count, (P, m)
                assert homoracle._hom_count(P, m) == count, (P, m)
    assert len(homoracle._value_tables(dihedral(8).full(), 12)) == 4


def test_power_tables_are_repeated_products(monkeypatch):
    """x**m for every x: a plain group's by square-and-multiply, a direct
    product's composed from its factors' tables without its own."""
    build = products.ProductGroup.table
    built = []
    monkeypatch.setattr(products.ProductGroup, "table",
                        lambda info: built.append(info) or build(info))
    S3, D8 = symmetric(3), dihedral(8)
    info = direct_product(S3, D8)
    nested = direct_product(info.group, cyclic(3))
    powers = {(G, m): homoracle._power_table(G, m)
              for G in (S3, D8, info.group, nested.group) for m in MODULI}
    assert built == []
    for (G, m), power in powers.items():
        want = np.zeros(G.order, dtype=np.int64)
        for _ in range(m):
            want = G.product[want, np.arange(G.order)]
        assert power.tolist() == want.tolist(), (G, m)
        assert not power.flags.writeable


@functools.cache
def catalog_subdirects() -> tuple:
    """Every subdirect product of two catalog groups within the default cap."""
    catalog = [catalog_group(name) for name in catalog_names()]
    return tuple(U for G in catalog for H in catalog
                 if G.order * H.order <= DEFAULT_PRODUCT_CAP
                 for U in enumerate_subdirect(G, H))


def abelian_quotient(U):
    """The abelianization of U as a group."""
    return abelianization(U.as_group()[0])[1].codomain


def assert_value_tables_match(A, m):
    tables = homoracle._value_tables(A.full(), m)
    assert tables.dtype == np.int64
    assert sorted(tables.tolist()) == [
        t.tolist() for t in helpers.recursive_value_tables(A, m)]


def test_value_tables_match_recursion_on_catalog_subdirects():
    for U in catalog_subdirects():
        A = abelian_quotient(U)
        for m in MODULI:
            assert_value_tables_match(A, m)


def test_abelian_invariants_match_quotient_loop_on_catalog_subdirects():
    for U in catalog_subdirects():
        A = abelian_quotient(U)
        assert (abelian_invariants(A).divisors
                == helpers.maximal_order_invariants(A))


def test_restriction_counts_match_unique_rows_on_catalog_subdirects():
    for U in catalog_subdirects():
        for m in MODULI:
            assert (restriction_kernel_image_sizes(U, m)
                    == helpers.unique_row_kernel_image(U, m))
            assert (restriction_kernel_fibers(U, m)
                    == helpers.unique_row_fibers(U, m))


@settings(max_examples=80, deadline=None)
@given(orders=st.lists(st.integers(1, 16), min_size=1, max_size=4),
       m=st.sampled_from(MODULI))
def test_array_routines_match_references_on_cyclic_products(orders, m):
    assume(math.prod(orders) <= 400)
    A = functools.reduce(lambda a, b: direct_product(a, b).group,
                         map(cyclic, orders))
    assert abelian_invariants(A).divisors == helpers.maximal_order_invariants(A)
    assert_value_tables_match(A, m)
    if A.order <= 36:
        U = diagonal(A)
        assert (restriction_kernel_fibers(U, m)
                == helpers.unique_row_fibers(U, m))
