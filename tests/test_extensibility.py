"""Kernel/commutator criterion, shortcuts, and composition behaviour."""

import itertools

import pytest

import helpers

from subdirect import (
    InternalInconsistency,
    NoDiagonal,
    NotSubdirect,
    PreconditionFailed,
    Subgroup,
    build_report,
    central_inextensibility,
    commutator_subgroup,
    cyclic,
    cyclic_sylow_sufficient,
    diagonal,
    dihedral,
    direct_product,
    enumerate_subdirect,
    is_extensible,
    is_p_extensible,
    kernel_commutator_data,
    mutual_commutator,
    obstruction_quotient,
    oracle_is_p_extensible,
    p_part,
    quaternion8,
    star_kernel_quotient_orders,
    star_preservation_condition,
    star_product,
    subgroup_generated,
    symmetric,
    twisted_kernel_identity,
)
from subdirect.extensibility import (
    METHOD_CENTRAL,
    METHOD_CYCLIC_SYLOW,
    METHOD_EXACT,
)
from subdirect.groups import prime_factors


def coset_diagonal(G, K_elems):
    info = direct_product(G, G)
    gens = [info.encode(g, g) for g in range(G.order)]
    gens += [info.encode(k, 0) for k in K_elems]
    return subgroup_generated(info.group, gens)


def d8_center_example():
    return coset_diagonal(dihedral(8), [2])


def q8_center_example():
    return coset_diagonal(quaternion8(), [4])


def s3_a3_example():
    return coset_diagonal(symmetric(3), [3])


def test_kernel_commutator_full_product():
    info = direct_product(symmetric(3), symmetric(3))
    data = kernel_commutator_data(info.group.full())
    Gp = commutator_subgroup(symmetric(3))
    assert data.k1_of_derived.order == Gp.order
    assert data.p1_derived_cap_k1.order == Gp.order


def test_kernel_commutator_diagonal():
    data = kernel_commutator_data(diagonal(symmetric(3)))
    assert data.k1_of_derived.order == 1
    assert data.p1_derived_cap_k1.order == 1
    assert data.k2_of_derived.order == 1


def test_kernel_commutator_center_example():
    U = d8_center_example()
    data = kernel_commutator_data(U)
    assert data.k1_of_derived.order == 1
    assert data.p1_derived_cap_k1.order == 2


def test_kernel_commutator_chain():
    for U in enumerate_subdirect(symmetric(3), symmetric(3)):
        data = kernel_commutator_data(U)
        assert data.commutator_k1_p1.is_subset_of(data.k1_of_derived)
        assert data.k1_of_derived.is_subset_of(data.p1_derived_cap_k1)
        assert data.commutator_k2_p2.is_subset_of(data.k2_of_derived)
        assert data.k2_of_derived.is_subset_of(data.p2_derived_cap_k2)


def test_is_extensible_examples():
    info = direct_product(symmetric(3), symmetric(3))
    assert is_extensible(info.group.full())
    assert is_extensible(s3_a3_example())
    assert not is_extensible(d8_center_example())
    assert not is_extensible(q8_center_example())


def test_is_extensible_requires_subdirect():
    info = direct_product(symmetric(3), symmetric(3))
    small = subgroup_generated(info.group, [info.encode(1, 0)])
    with pytest.raises(NotSubdirect):
        is_extensible(small)


def test_is_p_extensible_prime_outside_order():
    U = diagonal(symmetric(3))
    assert is_p_extensible(U, 5)
    assert is_p_extensible(U, 7)


def test_is_p_extensible_center_example():
    U = d8_center_example()
    assert not is_p_extensible(U, 2)
    assert is_p_extensible(U, 3)
    assert is_p_extensible(U, 5)
    data = kernel_commutator_data(U)
    k, cap = data.k1_of_derived.order, data.p1_derived_cap_k1.order
    assert p_part(k, (3, 5)) == p_part(cap, (3, 5))
    assert p_part(k, (2, 3)) != p_part(cap, (2, 3))


def test_per_prime_conjunction_equals_overall():
    for G in (symmetric(3), dihedral(8)):
        for U in enumerate_subdirect(G, G):
            primes = prime_factors(U.parent.order)
            assert is_extensible(U) == all(
                is_p_extensible(U, p) for p in primes)


def test_criterion_matches_oracle_everywhere_small():
    for G, H in ((cyclic(2), cyclic(2)), (symmetric(3), symmetric(3)),
                 (dihedral(8), cyclic(2))):
        for U in enumerate_subdirect(G, H):
            for p in prime_factors(U.parent.order):
                assert is_p_extensible(U, p) == oracle_is_p_extensible(U, p)


def test_obstruction_quotient_trivial_kernel():
    G = symmetric(3)
    one = subgroup_generated(G, [])
    q = obstruction_quotient(G, one)
    assert q.order == 1
    assert q.divisors == ()


def test_obstruction_quotient_center():
    D = dihedral(8)
    Z = subgroup_generated(D, [2])
    q = obstruction_quotient(D, Z)
    assert q.order == 2
    assert q.divisors == (2,)
    assert p_part(q.order, (2,)) != 1
    assert p_part(q.order, (3,)) == 1


def test_obstruction_quotient_a3():
    G = symmetric(3)
    A = commutator_subgroup(G)
    q = obstruction_quotient(G, A)
    assert q.order == 1


def test_obstruction_triviality_implies_extensible():
    # If (k1 cap G')/[k1, G] has trivial p-part for a diagonal-containing
    # U, the criterion agrees at p.
    for G in (symmetric(3), dihedral(8), quaternion8()):
        info = direct_product(G, G)
        for U in enumerate_subdirect(G, G):
            from subdirect.products import projections_kernels
            data = projections_kernels(U)
            if not diagonal(G).is_subset_of(U):
                continue
            q = obstruction_quotient(G, data.k1)
            for p in prime_factors(info.group.order):
                if p_part(q.order, (p,)) == 1:
                    assert is_p_extensible(U, p)


def test_cyclic_sylow_sufficient():
    assert cyclic_sylow_sufficient(diagonal(cyclic(6)))
    assert cyclic_sylow_sufficient(s3_a3_example())
    assert cyclic_sylow_sufficient(diagonal(symmetric(3)))
    assert cyclic_sylow_sufficient(d8_center_example()) is None


def test_cyclic_sylow_soundness():
    for G in (symmetric(3), dihedral(8), quaternion8()):
        for U in enumerate_subdirect(G, G):
            if cyclic_sylow_sufficient(U):
                assert is_extensible(U)


def test_twisted_kernel_identity_examples():
    from subdirect.products import product_of, projections_kernels
    for U, order in ((diagonal(symmetric(3)), 1), (d8_center_example(), 1),
                     (s3_a3_example(), 3)):
        assert twisted_kernel_identity(U) is None
        assert kernel_commutator_data(U).k1_of_derived.order == order
        G = product_of(U).left
        d = projections_kernels(U)
        assert mutual_commutator(d.k1, G.full()).order == order
        assert mutual_commutator(d.k2, G.full()).order == order


def test_twisted_kernel_identity_requires_diagonal():
    info = direct_product(symmetric(3), cyclic(6))
    # Subdirect subgroup of a non-square product: no diagonal possible.
    gens = [info.encode(1, 1), info.encode(3, 2)]
    U = subgroup_generated(info.group, gens)
    with pytest.raises((NoDiagonal, ValueError)):
        twisted_kernel_identity(U)


def test_central_inextensibility_examples():
    assert central_inextensibility(diagonal(symmetric(3))) is None
    assert central_inextensibility(d8_center_example()) is False
    assert central_inextensibility(q8_center_example()) is False


def test_central_shortcut_agrees_with_oracle():
    for U in (d8_center_example(), q8_center_example()):
        assert not oracle_is_p_extensible(U, 2)


def test_star_preservation_true_cases():
    G = symmetric(3)
    D = diagonal(G)
    full = direct_product(G, G).group.full()
    for side in (1, 2):
        assert star_preservation_condition(D, D, side)
        assert star_preservation_condition(full, full, side)
    assert is_extensible(star_product(D, D))


def test_star_preservation_requires_extensible_inputs():
    U = d8_center_example()
    with pytest.raises(PreconditionFailed):
        star_preservation_condition(U, U, 1)


def test_star_preservation_requires_diagonal():
    G = symmetric(3)
    info = direct_product(G, G)
    # A twisted diagonal without the plain one.
    from subdirect import automorphisms, twisted_diagonal
    phi = next(a for a in automorphisms(G) if not a.is_identity)
    tw = twisted_diagonal(G, phi)
    with pytest.raises(PreconditionFailed):
        star_preservation_condition(tw, tw, 1)


def test_star_preservation_biconditional_d8():
    # Over all diagonal-containing extensible pairs, the two-sided
    # condition tracks extensibility of the composition exactly.
    G = dihedral(8)
    D = diagonal(G)
    pool = [U for U in enumerate_subdirect(G, G)
            if D.is_subset_of(U) and is_extensible(U)]
    assert pool
    for U, V in itertools.product(pool, pool):
        cond = (star_preservation_condition(U, V, 1)
                and star_preservation_condition(U, V, 2))
        assert cond == is_extensible(star_product(U, V))


def test_star_nonpreservation_witness():
    # In G = D8 x C2 two central order-2 kernels compose into a kernel
    # meeting G', giving extensible inputs with inextensible composite.
    D8 = dihedral(8)
    C2 = cyclic(2)
    G = direct_product(D8, C2).group
    U = coset_diagonal(G, [5])   # kernel generated by (r^2, x)
    V = coset_diagonal(G, [1])   # kernel generated by (1, x)
    assert is_extensible(U)
    assert is_extensible(V)
    W = star_product(U, V)
    assert not is_extensible(W)
    assert not star_preservation_condition(U, V, 1)
    assert not star_preservation_condition(U, V, 2)
    assert not oracle_is_p_extensible(W, 2)


def test_star_kernel_quotient_orders_diagonals():
    G = symmetric(3)
    D = diagonal(G)
    orders = star_kernel_quotient_orders(D, D)
    assert (orders.left_composite, orders.left_inner,
            orders.right_composite, orders.right_inner) == (1, 1, 1, 1)


def test_star_kernel_quotient_orders_mixed():
    G = symmetric(3)
    U = coset_diagonal(G, [3])
    D = diagonal(G)
    orders = star_kernel_quotient_orders(U, D)
    assert orders.left_composite == orders.left_inner
    assert orders.right_composite == orders.right_inner
    full = direct_product(G, G).group.full()
    orders = star_kernel_quotient_orders(full, full)
    assert orders.left_composite == orders.left_inner


def test_build_report_full_product():
    info = direct_product(symmetric(3), cyclic(4))
    report = build_report(info.group.full())
    assert list(report) == [2, 3]
    for verdict in report.values():
        assert verdict["extensible"] is True
        assert verdict["methods"][0] == METHOD_EXACT


def test_build_report_center_example():
    report = build_report(d8_center_example(), primes=[2, 3])
    assert report[2]["extensible"] is False
    assert METHOD_CENTRAL in report[2]["methods"]
    assert report[3]["extensible"] is True


def test_build_report_cyclic_sylow_flagged():
    report = build_report(s3_a3_example())
    for verdict in report.values():
        assert verdict["extensible"] is True
        assert METHOD_CYCLIC_SYLOW in verdict["methods"]


def test_build_report_witnesses():
    report = build_report(d8_center_example())
    w = report[2]["witnesses"]
    assert w["derived_cap_k1_order"] == 2
    assert w["k1_derived_order"] == 1
    assert w["obstruction_divisors"] == [2]


def test_build_report_prime_selection():
    U = d8_center_example()
    report = build_report(U, primes=[3])
    assert list(report) == [3]
    assert report[3]["extensible"] is True
