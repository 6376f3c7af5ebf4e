"""Acceptance sweep: the core guarantees, each as one exhaustive scan.

Every test prints a single PASS line with its case count once its scan
completes; a violated property fails the owning test via assert.  All
comparisons are exact (booleans, orders, element sets).
"""

import itertools
import math

import pytest

import helpers

from subdirect import (
    CheckContext,
    Subgroup,
    automorphisms,
    catalog_group,
    catalog_names,
    central_inextensibility,
    commutator_subgroup,
    cyclic,
    cyclic_sylow_sufficient,
    diagonal,
    dihedral,
    direct_product,
    enumerate_homs,
    goursat_quintuple,
    goursat_quotient,
    has_cyclic_sylows,
    is_extensible,
    is_p_extensible,
    is_section,
    kernel_commutator_data,
    mutual_commutator,
    oracle_is_p_extensible,
    p_part,
    prime_factors,
    quaternion8,
    restriction_kernel_image_sizes,
    set_product,
    star_product,
    star_preservation_condition,
    subgroup_from_quintuple,
    subgroup_generated,
    symmetric,
    twisted_kernel_identity,
)
from subdirect.groups import abelian_invariants, all_subgroups, \
    normal_subgroups
from subdirect.products import contains_twisted_diagonal, \
    projections_kernels

CATALOG = tuple(catalog_group(name) for name in catalog_names())

# Subdirect products enumerated once per factor pair, and composites
# resolved to the subgroups already enumerated, so their Goursat data,
# sections and Sylow data are computed once.
CTX = CheckContext(CATALOG)
subdirects = CTX.subdirects


def catalog_pairs(cap):
    for G in CATALOG:
        for H in CATALOG:
            if G.order * H.order <= cap:
                yield G, H


def embedded_derived(S):
    """Commutator subgroup of S, as a subgroup of S's parent."""
    K, emb = S.as_group()
    D = commutator_subgroup(K)
    return Subgroup(S.parent, [emb(x) for x in D.elements])


def diagonal_closures(G):
    """All (K x 1) Delta(G) for K normal in G, with the kernel K."""
    info = direct_product(G, G)
    diag = [info.encode(g, g) for g in range(G.order)]
    out = []
    for K in normal_subgroups(G):
        U = subgroup_generated(
            info.group, diag + [info.encode(k, 0) for k in K.elements])
        out.append((U, K))
    return out


def report(capsys, label, cases):
    with capsys.disabled():
        print(f"PASS {label}: {cases} cases")


def test_01_criterion_matches_oracle(capsys):
    """Kernel criterion equals the hom-counting oracle at every prime."""
    cases = 0
    for G, H in catalog_pairs(576):
        for U in subdirects(G, H):
            for p in prime_factors(G.order * H.order):
                assert is_p_extensible(U, p) == oracle_is_p_extensible(U, p), \
                    f"{G.label} x {H.label}, |U|={U.order}, p={p}"
                cases += 1
    report(capsys, "01 per-prime criterion vs oracle", cases)


def test_02_side_symmetry(capsys):
    """Left and right kernel equalities always agree."""
    cases = 0
    for G, H in catalog_pairs(576):
        for U in subdirects(G, H):
            data = kernel_commutator_data(U)
            left = data.k1_of_derived == data.p1_derived_cap_k1
            right = data.k2_of_derived == data.p2_derived_cap_k2
            assert left == right, f"{G.label} x {H.label}, |U|={U.order}"
            for p in prime_factors(G.order * H.order):
                lp = (p_part(data.k1_of_derived.order, (p,))
                      == p_part(data.p1_derived_cap_k1.order, (p,)))
                rp = (p_part(data.k2_of_derived.order, (p,))
                      == p_part(data.p2_derived_cap_k2.order, (p,)))
                assert lp == rp
                cases += 1
    report(capsys, "02 side symmetry of the criterion", cases)


def test_03_restriction_kernel_counts_section_homs(capsys):
    """|ker of restriction| = |Hom(q(U), C_m)| at the deciding modulus."""
    cases = 0
    for G, H in catalog_pairs(576):
        m = p_part(math.lcm(G.exponent(), H.exponent()),
                   prime_factors(G.order * H.order))
        for U in subdirects(G, H):
            kernel, image = restriction_kernel_image_sizes(U, m)
            want = len(enumerate_homs(goursat_quotient(U), m))
            assert kernel == want, \
                f"{G.label} x {H.label}, |U|={U.order}, m={m}"
            assert kernel * image == len(enumerate_homs(G, m)) * len(
                enumerate_homs(H, m))
            cases += 1
    report(capsys, "03 restriction kernel counts section homs", cases)


def test_04_projection_kernel_identities_full_lattice(capsys):
    """Order identity, commutator projection, and the containment chain.

    Scanned over every subgroup (subdirect or not) of every catalog
    product of order at most 144.
    """
    cases = 0
    for G, H in catalog_pairs(144):
        info = direct_product(G, H)
        for U in all_subgroups(info.group):
            d = projections_kernels(U)
            assert U.order == d.p1.order * d.k2.order
            assert U.order == d.p2.order * d.k1.order
            prime = mutual_commutator(U, U)
            dp = projections_kernels(prime)
            assert dp.p1 == embedded_derived(d.p1)
            assert dp.p2 == embedded_derived(d.p2)
            for ki, pi, kprime in ((d.k1, d.p1, dp.k1), (d.k2, d.p2, dp.k2)):
                lower = mutual_commutator(ki, pi)
                upper = embedded_derived(pi).intersection(ki)
                assert lower.is_subset_of(kprime)
                assert kprime.is_subset_of(upper)
            cases += 1
    report(capsys, "04 projection and kernel identities, full lattice", cases)


def test_05_goursat_roundtrip_full_lattice(capsys):
    """Quintuple extraction then reconstruction is the identity."""
    cases = 0
    for G, H in catalog_pairs(144):
        info = direct_product(G, H)
        for U in all_subgroups(info.group):
            quint = goursat_quintuple(U)
            back = subgroup_from_quintuple(quint)
            assert back == U, f"{G.label} x {H.label}, |U|={U.order}"
            assert quint.phi.is_bijective
            cases += 1
    report(capsys, "05 Goursat roundtrip, full lattice", cases)


def test_06_derived_kernel_equals_bracket(capsys):
    """k_i([U,U]) = [k_i(U), G] whenever U contains a twisted diagonal."""
    import subdirect.presets as presets
    cases = 0
    for G in (symmetric(3), dihedral(8), quaternion8(),
              presets.alternating(4)):
        with_diagonal = [U for U in subdirects(G, G)
                         if contains_twisted_diagonal(U) is not None]
        assert with_diagonal
        for U in with_diagonal:
            twisted_kernel_identity(U)
            d = projections_kernels(U)
            data = kernel_commutator_data(U)
            assert data.k1_of_derived == mutual_commutator(d.k1, G.full())
            assert data.k2_of_derived == mutual_commutator(d.k2, G.full())
            cases += 1
    report(capsys, "06 derived kernels equal commutator brackets", cases)


def test_07_composition_preservation_biconditional(capsys):
    """Kernel condition on both sides iff the composite stays extensible.

    Over S3, D8 and Q8 every qualifying pair satisfies both sides, so
    the required false/false witness is exhibited in D8 x C2, where two
    central kernels avoid G' separately but generate across it.
    """
    cases = 0
    false_false = []

    def scan(G, pool):
        nonlocal cases
        found = []
        for U, V in itertools.product(pool, pool):
            cond = (star_preservation_condition(U, V, 1)
                    and star_preservation_condition(U, V, 2))
            composite_ok = is_extensible(star_product(U, V))
            assert cond == composite_ok, \
                f"{G.label}: condition {cond}, composite {composite_ok}"
            cases += 1
            if not cond and not composite_ok:
                found.append((U, V))
        return found

    for name in ("S3", "D8", "Q8"):
        G = catalog_group(name)
        D = diagonal(G)
        pool = [U for U in subdirects(G, G)
                if D.is_subset_of(U) and is_extensible(U)]
        # Exhaustiveness of the diagonal-closure construction.
        masks = {U.mask for U, _ in diagonal_closures(G)}
        assert {U.mask for U in subdirects(G, G)
                if D.is_subset_of(U)} == masks
        assert not scan(G, pool)

    GX = direct_product(dihedral(8), cyclic(2)).group
    pool = [U for U, _ in diagonal_closures(GX) if is_extensible(U)]
    false_false = scan(GX, pool)
    assert false_false, "no false/false witness pair in D8 x C2"
    U, V = false_false[0]
    assert not oracle_is_p_extensible(star_product(U, V), 2)
    report(capsys, "07 composition biconditional plus witness "
           f"({len(false_false)} false/false pairs in D8xC2)", cases)


def test_08_cyclic_sylow_sufficiency(capsys):
    """All-cyclic-Sylow sections are never inextensible."""
    cases = 0
    flagged = 0
    for G, H in catalog_pairs(576):
        for U in subdirects(G, H):
            verdict = cyclic_sylow_sufficient(U)
            assert verdict in (True, None)
            if verdict:
                flagged += 1
                assert is_extensible(U)
                for p in prime_factors(G.order * H.order):
                    assert oracle_is_p_extensible(U, p)
            cases += 1
    assert flagged
    report(capsys, f"08 cyclic-Sylow sufficiency ({flagged} flagged)", cases)


def test_09_central_kernel_inextensibility(capsys):
    """Central kernels meeting G' force inextensibility; named examples."""
    cases = 0
    flagged = 0
    for G in CATALOG:
        for U in subdirects(G, G):
            if contains_twisted_diagonal(U) is None:
                continue
            verdict = central_inextensibility(U)
            assert verdict in (False, None)
            if verdict is False:
                flagged += 1
                assert not is_extensible(U)
                assert not all(oracle_is_p_extensible(U, p)
                               for p in prime_factors(G.order ** 2))
            cases += 1
    assert flagged

    for G, z in ((dihedral(8), 2), (quaternion8(), 4)):
        info = direct_product(G, G)
        U = subgroup_generated(
            info.group,
            [info.encode(g, g) for g in range(G.order)] + [info.encode(z, 0)])
        assert central_inextensibility(U) is False
        assert not oracle_is_p_extensible(U, 2)
        cases += 2
    report(capsys, f"09 central shortcut soundness ({flagged} flagged)",
           cases)


def test_10_kernel_transport_identities(capsys):
    """Twist transport: k2 = phi(k1); composite kernels factor as products."""
    cases = 0
    for name in ("S3", "D8", "Q8"):
        G = catalog_group(name)
        pairs = []
        for U in subdirects(G, G):
            for phi in automorphisms(G):
                coded = [U.parent.product_info.encode(g, phi(g))
                         for g in range(G.order)]
                if all(c in U for c in coded):
                    pairs.append((U, phi))
        assert pairs
        for U, phi in pairs:
            dU = projections_kernels(U)
            assert phi.map_subgroup(dU.k1) == dU.k2
            cases += 1
        subs = [U for U, _ in pairs]
        twists = itertools.product([phi for _, phi in pairs], repeat=2)
        for (phi, psi), (U, V, W) in zip(twists, CTX.star_block(subs, subs),
                                         strict=True):
            dU = projections_kernels(U)
            dV = projections_kernels(V)
            dW = projections_kernels(W)
            assert dW.k1 == set_product(
                dU.k1, phi.inverted().map_subgroup(dV.k1))
            assert dW.k2 == set_product(dV.k2, psi.map_subgroup(dU.k2))
            cases += 1
    report(capsys, "10 kernel transport under twists", cases)


def test_11_composition_sections(capsys):
    """q(U*V) is a section of both inputs; cyclic Sylow survives."""
    cases = 0
    for F, G, H in itertools.product(CATALOG, repeat=3):
        if F.order > 12 or G.order > 12 or H.order > 12:
            continue
        for U, V, W in CTX.star_block(subdirects(F, G), subdirects(G, H)):
            qu = goursat_quotient(U)
            qv = goursat_quotient(V)
            qw = goursat_quotient(W)
            assert is_section(qw, qu)
            assert is_section(qw, qv)
            if has_cyclic_sylows(qu) and has_cyclic_sylows(qv):
                assert has_cyclic_sylows(qw)
            cases += 1
    report(capsys, "11 composition sections and Sylow closure", cases)


def test_12_hom_count_identity(capsys):
    """|Hom(B, C_m)| equals the pi-part of |B| at m = pi-part of exp(B)."""
    bases = [G for G in CATALOG if G.is_abelian]
    abelians = list(bases)
    for G, H in itertools.product(bases, bases):
        prod = direct_product(G, H).group
        if prod.order <= 32:
            abelians.append(prod)
    for G, H, K in itertools.product(bases, repeat=3):
        if G.order * H.order * K.order <= 32:
            abelians.append(direct_product(
                direct_product(G, H).group, K).group)
    assert any(B.order > 16 for B in abelians)
    cases = 0
    subsets = [()]
    for r in (1, 2, 3):
        subsets.extend(itertools.combinations((2, 3, 5), r))
    for B in abelians:
        inv = abelian_invariants(B)
        for pi in subsets:
            m = p_part(B.exponent(), pi)
            count = len(enumerate_homs(B, m))
            assert count == p_part(B.order, pi), \
                f"{B.label}, pi={pi}, m={m}"
            assert count == math.prod(
                math.gcd(d, m) for d in inv.divisors)
            cases += 1
    report(capsys, "12 hom count equals pi-part of the order", cases)
