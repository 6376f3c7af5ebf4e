"""Direct products, Goursat data, composition, and diagonals."""

import dataclasses
import functools
import gc
import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import helpers

from subdirect import (
    CyclicHom,
    FactorMismatch,
    FiniteGroup,
    GoursatQuintuple,
    GroupHom,
    InvalidQuintuple,
    NotAutomorphism,
    OrderLimitExceeded,
    Subgroup,
    alternating,
    analyze_subgroup,
    automorphisms,
    catalog_group,
    catalog_names,
    center,
    commutator_subgroup,
    compose_relations,
    contains_twisted_diagonal,
    cyclic,
    diagonal,
    dicyclic12,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_homs,
    enumerate_subdirect,
    extend_hom,
    goursat_quintuple,
    goursat_quotient,
    identity_hom,
    is_isomorphic,
    is_section,
    is_subdirect,
    kernel_commutator_data,
    make_quintuple,
    mutual_commutator,
    quaternion8,
    quotient_group,
    raw_enumerate_homs,
    restriction_map,
    star_product,
    subdirect_by_scan,
    subgroup_from_quintuple,
    subgroup_generated,
    subgroup_quotient,
    symmetric,
    twisted_diagonal,
)
import subdirect.cli as cli
import subdirect.groups as groups
import subdirect.products as products
from subdirect.groups import _interned_table, all_subgroups, interned, \
    isomorphism_class, isomorphisms_iter, normal_subgroups
from subdirect.presets import _small_registry
from subdirect.products import product_of, projections_kernels
from subdirect.specs import load_group, load_product_subgroup
from subdirect.verification import CheckContext, run_checks


def pair_subgroup(info, pairs):
    return subgroup_generated(info.group,
                              [info.encode(g, h) for g, h in pairs])


A3_INDICES = frozenset({0, 3, 4})


def s3_a3_diagonal():
    """{(g, h) in S3 x S3 : g and h lie in the same coset of A3}."""
    S3 = symmetric(3)
    info = direct_product(S3, S3)
    elems = [info.encode(g, h) for g in range(6) for h in range(6)
             if (g in A3_INDICES) == (h in A3_INDICES)]
    return info, Subgroup(info.group, elems)


def test_direct_product_with_trivial_factor():
    G = symmetric(3)
    info = direct_product(cyclic(1), G)
    assert info.group.order == 6
    assert is_isomorphic(info.group, G)


def test_direct_product_encoding_roundtrip():
    info = direct_product(dihedral(8), cyclic(3))
    for g in range(8):
        for h in range(3):
            u = info.encode(g, h)
            assert info.decode(u) == (g, h)


def test_direct_product_caching_and_cap():
    G = symmetric(3)
    assert direct_product(G, G) is direct_product(G, G)
    S4 = symmetric(4)
    with pytest.raises(OrderLimitExceeded):
        direct_product(S4, S4, max_order=500)
    assert direct_product(S4, S4).group.order == 576
    with pytest.raises(OrderLimitExceeded):
        direct_product(S4, S4, max_order=500)


def test_derived_products_build_above_the_cap_on_a_cold_cache():
    """A5 x A5 (3600) is above the default product cap: the products the
    library derives from A5 are built anyway, on a fresh A5 each time,
    and direct_product still refuses it afterwards."""
    C1 = cyclic(1)

    def star(A5):
        return star_product(direct_product(A5, C1).group.full(),
                            direct_product(C1, A5).group.full())

    def quintuple(A5):
        full = A5.full()
        return subgroup_from_quintuple(
            make_quintuple(full, full, full, full, [(0, 0)]))

    for build, order in ((diagonal, 60), (star, 3600), (quintuple, 3600)):
        A5 = alternating(5)
        U = build(A5)
        assert U.order == order
        assert product_of(U).left is A5 and product_of(U).right is A5
        with pytest.raises(OrderLimitExceeded):
            direct_product(A5, A5)


def _spy_on_tables(monkeypatch) -> list:
    """The ProductGroup of every table built from now on."""
    built = []
    build = products.ProductGroup.table

    def spy(info):
        built.append(info)
        return build(info)

    monkeypatch.setattr(products.ProductGroup, "table", spy)
    return built


@pytest.mark.parametrize("left, right", [("C1", "S3"), ("S3", "C4"),
                                         ("D8", "Q8"), ("A4", "C3"),
                                         ("C32", "C32")])
def test_direct_product_table_matches_the_dense_formula(monkeypatch, left,
                                                       right):
    """A product starts with its inverses, from the factors', and no
    table; the first read of ``product`` builds the dense formula's
    table, read-only, and later reads return it."""
    built = _spy_on_tables(monkeypatch)
    G, H = load_group(left), load_group(right)
    info = direct_product(G, H)
    assert built == []
    dense = helpers.dense_product_table(G, H)
    assert info.group.inverse.tolist() \
        == groups._inverse_table(dense).tolist()
    table = info.group.product
    assert built == [info]
    assert table.dtype == dense.dtype and table.tobytes() == dense.tobytes()
    assert not table.flags.writeable
    assert info.group.product is table and built == [info]


def test_direct_product_builds_no_wide_intermediate():
    C = cyclic(32)
    P = direct_product(C, C).group
    tracemalloc.start()
    try:
        table = P.product  # built here, on its first read
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.nbytes


def test_analysis_builds_no_product_table(monkeypatch):
    """The analysis of a subdirect product reads only its factors'
    tables: the subdirects of S4 x S4, the diagonal and a twisted
    diagonal of A5 and the quintuple-built A5 x A5."""
    built = _spy_on_tables(monkeypatch)
    S4, A5 = symmetric(4), alternating(5)
    subgroups = list(enumerate_subdirect(S4, S4))
    full = A5.full()
    subgroups += [diagonal(A5),
                  twisted_diagonal(A5, next(isomorphisms_iter(A5, A5))),
                  subgroup_from_quintuple(make_quintuple(full, full, full,
                                                         full, [(0, 0)]))]
    for U in subgroups:
        assert analyze_subgroup(U).subdirect, U
    products_analysed = {U.parent for U in subgroups}
    assert not any(info.group in products_analysed for info in built)


def _assert_derived_in_factor_coordinates(U: Subgroup) -> None:
    """[U, U] walked in the factors' tables is the all-pairs commutator
    subgroup, and its generators close to it under groups._closure."""
    D = mutual_commutator(U, U)
    assert D.parent is U.parent
    assert D.elements == helpers.all_pairs_commutator(U, U), U
    assert groups._closure(U.parent, groups.subgroup_generators(D))[0] \
        == D.elements, U


def test_derived_subgroup_matches_all_pairs_on_the_catalog_lattice():
    ctx = CheckContext([catalog_group(name) for name in catalog_names()])
    for G, H in ctx.scan_pairs():
        for U in ctx.lattice(G, H):
            _assert_derived_in_factor_coordinates(U)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(helpers.permutation_groups(4), helpers.permutation_groups(4),
       st.data())
def test_derived_subgroup_matches_all_pairs_on_permutation_groups(G, H,
                                                                   data):
    """Subgroups generated by drawn pairs, and every subdirect product,
    whose generators come from its Goursat data."""
    info = direct_product(G, H)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, G.order - 1),
                                         st.integers(0, H.order - 1)),
                               max_size=3))
    _assert_derived_in_factor_coordinates(
        subgroup_generated(info.group, [info.encode(g, h) for g, h in pairs]))
    for U in enumerate_subdirect(G, H):
        _assert_derived_in_factor_coordinates(U)


def test_product_center_and_exponent():
    E = direct_product(cyclic(2), cyclic(2)).group
    assert E.order == 4
    assert E.exponent() == 2
    SS = direct_product(symmetric(3), symmetric(3)).group
    assert center(SS).order == 1


def test_projections_of_full_product():
    info = direct_product(symmetric(3), cyclic(4))
    data = projections_kernels(info.group.full())
    assert data.p1.is_whole and data.k1.is_whole
    assert data.p2.is_whole and data.k2.is_whole


def test_projections_of_diagonal():
    G = symmetric(3)
    U = diagonal(G)
    data = projections_kernels(U)
    assert data.p1.is_whole and data.p2.is_whole
    assert data.k1.order == 1 and data.k2.order == 1
    assert is_subdirect(U)


def test_projections_of_coset_diagonal():
    info, U = s3_a3_diagonal()
    assert U.order == 18
    data = projections_kernels(U)
    assert data.p1.is_whole and data.p2.is_whole
    assert data.k1.order == 3 and data.k2.order == 3


def test_goursat_quotient_examples():
    G = symmetric(3)
    info = direct_product(G, G)
    assert goursat_quotient(info.group.full()).order == 1
    assert is_isomorphic(goursat_quotient(diagonal(G)), G)
    _, U = s3_a3_diagonal()
    assert goursat_quotient(U).order == 2


def test_goursat_roundtrip_full_lattice():
    for G, H in ((cyclic(2), cyclic(2)), (symmetric(3), cyclic(4)),
                 (dihedral(8), cyclic(2))):
        info = direct_product(G, H)
        for U in all_subgroups(info.group):
            quint = goursat_quintuple(U)
            assert subgroup_from_quintuple(quint) == U
            assert quint.p1.order * quint.k2.order == U.order


def test_make_quintuple_diagonal():
    G = cyclic(2)
    info = direct_product(G, G)
    one = subgroup_generated(G, [])
    quint = make_quintuple(G.full(), one, G.full(), one, [(0, 0), (1, 1)])
    U = subgroup_from_quintuple(quint)
    assert U == diagonal(G)
    assert info.group.full() == subgroup_from_quintuple(
        make_quintuple(G.full(), G.full(), G.full(), G.full(), [(0, 0)]))


def test_goursat_quintuple_is_five_pieces_over_the_memoised_quotients():
    assert [f.name for f in dataclasses.fields(GoursatQuintuple)] == \
        ["p1", "k1", "p2", "k2", "phi"]
    S3 = symmetric(3)
    A3 = commutator_subgroup(S3)
    quints = [goursat_quintuple(U) for G in (dihedral(8), S3)
              for U in enumerate_subdirect(G, G)]
    quints.append(make_quintuple(S3.full(), A3, S3.full(), A3,
                                 [(0, 0), (1, 1)]))
    for quint in quints:
        assert quint.phi.domain is subgroup_quotient(quint.p1, quint.k1)[0]
        assert quint.phi.codomain is subgroup_quotient(quint.p2, quint.k2)[0]


def test_failed_order_check_leaves_the_intern_table_unchanged():
    G = cyclic(4)
    P = direct_product(G, G).group
    one = G.trivial()
    quint = make_quintuple(G.full(), one, G.full(), one,
                           [(g, g) for g in range(4)])
    before = dict(_interned_table(P))
    with pytest.raises(InvalidQuintuple, match="order bookkeeping"):
        subgroup_from_quintuple(dataclasses.replace(quint, k2=G.full()))
    assert _interned_table(P) == before
    U = subgroup_from_quintuple(quint)
    assert U.mask not in before and U is interned(P, U.mask)


def test_goursat_subgroups_carry_generating_sets():
    """A subgroup built from Goursat data is interned with the lifts of
    p1's generators and k2's generators, which generate it, and [U, U]
    from them is the all-pairs commutator subgroup; also for a U that
    is not subdirect: (C4 / C2) ~ (V4 / C2) inside D8 x D8."""
    D8 = dihedral(8)
    quint = make_quintuple(
        subgroup_generated(D8, [1]), subgroup_generated(D8, [2]),
        subgroup_generated(D8, [2, 4]), subgroup_generated(D8, [2]),
        [(0, 0), (1, 4)])
    V = subgroup_from_quintuple(quint)
    assert V.order == 8 and not is_subdirect(V)
    for U in (*helpers.preset_subdirects(), V):
        assert "gens" in U._cache, U
        assert groups._closure(U.parent, groups.subgroup_generators(U))[0] \
            == U.elements, U
        assert (mutual_commutator(U, U).elements
                == helpers.all_pairs_commutator(U, U)), U


def _assert_carries_the_derived_data(U: Subgroup) -> None:
    """U's Goursat memos equal what its elements give: the same
    quintuple, and the very factor objects as projections and kernels."""
    assert goursat_quintuple(U) == goursat_quintuple.__wrapped__(U), U
    carried, derived = (projections_kernels(U),
                        projections_kernels.__wrapped__(U))
    for piece in ("p1", "k1", "p2", "k2"):
        assert getattr(carried, piece) is getattr(derived, piece), (U, piece)


def _spy_on_body(monkeypatch, memo) -> list:
    """Record each run of the body behind a memoised function, on a miss."""
    cell = next(c for c in memo.__closure__
                if c.cell_contents is memo.__wrapped__)
    calls = []
    body = cell.cell_contents

    def spy(*args):
        calls.append(args)
        return body(*args)

    monkeypatch.setattr(cell, "cell_contents", spy)
    return calls


def test_goursat_subgroups_carry_their_goursat_data():
    """A subgroup first interned from a quintuple carries that quintuple
    and its projections and kernels: every preset subdirect, the
    non-subdirect D8 quintuple and a quintuple spec."""
    D8 = dihedral(8)
    V = subgroup_from_quintuple(make_quintuple(
        subgroup_generated(D8, [1]), subgroup_generated(D8, [2]),
        subgroup_generated(D8, [2, 4]), subgroup_generated(D8, [2]),
        [(0, 0), (1, 4)]))
    S3 = symmetric(3)
    spec = ('{"quintuple": {"p1": [0, 1, 2, 3, 4, 5], "k1": [0, 3, 4], '
            '"p2": [0, 1, 2, 3, 4, 5], "k2": [0, 3, 4], '
            '"phi": [[0, 0], [1, 1]]}}')
    W = load_product_subgroup(direct_product(S3, S3), spec)
    assert W.order == 18 and not is_subdirect(V)
    for U in (*helpers.preset_subdirects(), V, W):
        assert {"quintuple", "projections"} <= set(U._cache), U
        _assert_carries_the_derived_data(U)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(helpers.permutation_groups(4), helpers.permutation_groups(4))
def test_subdirects_of_permutation_groups_carry_their_goursat_data(G, H):
    for U in enumerate_subdirect(G, H):
        _assert_carries_the_derived_data(U)


def test_subdirect_analysis_derives_no_goursat_data(monkeypatch):
    """Analysing the subdirects of fresh S4 x S4 reads every quintuple
    and projection from the enumeration, and searches for a twisted
    diagonal in each U once, for the record and the report together."""
    S4 = symmetric(4)
    subdirects = enumerate_subdirect(S4, S4)
    assert len(subdirects) == 32
    bodies = {memo.__name__: _spy_on_body(monkeypatch, memo)
              for memo in (goursat_quintuple, projections_kernels,
                           contains_twisted_diagonal)}
    for U in subdirects:
        analyze_subgroup(U)
    ids = {id(U) for U in subdirects}
    assert {name: [args for args in calls if id(args[0]) in ids]
            for name, calls in bodies.items()} == {
        "goursat_quintuple": [], "projections_kernels": [],
        "contains_twisted_diagonal": [(U,) for U in subdirects]}


def test_goursat_roundtrip_check_derives_each_lattice_quintuple(monkeypatch):
    """verify's goursat-roundtrip derives the quintuple of every lattice
    subgroup from its elements once: the lattice interns each subgroup
    first, so a rebuild from its quintuple carries nothing over."""
    ctx = CheckContext([symmetric(3), cyclic(4)])
    lattice = [U for G, H in ctx.scan_pairs() for U in ctx.lattice(G, H)]
    bodies = _spy_on_body(monkeypatch, goursat_quintuple)
    [result] = run_checks(ctx, ["goursat-roundtrip"])
    assert result.passed and result.checked == len(lattice)
    assert bodies == [(U,) for U in lattice]


def test_lattice_subgroups_keep_their_generators_as_subdirects():
    """A subgroup first interned by the lattice keeps the lattice's
    generators when enumerate_subdirect returns it; Goursat data would
    have given other generators to some of them."""
    def generators(subgroups):
        return {S.mask: groups.subgroup_generators(S) for S in subgroups}

    G = dihedral(8)
    P = direct_product(G, G).group
    lattice = generators(all_subgroups(P))
    fresh = dihedral(8)
    goursat = generators(enumerate_subdirect(fresh, fresh))
    subdirects = enumerate_subdirect(G, G)
    assert all(U is _interned_table(P)[U.mask] for U in subdirects)
    assert generators(subdirects) == {U.mask: lattice[U.mask]
                                      for U in subdirects}
    assert any(goursat[U.mask] != lattice[U.mask] for U in subdirects)


def test_make_quintuple_rejects_bad_data():
    G = symmetric(3)
    A3 = commutator_subgroup(G).elements
    A = subgroup_generated(G, A3)
    one = subgroup_generated(G, [])
    flip = subgroup_generated(G, [1])
    # Mismatched quotient orders.
    with pytest.raises(InvalidQuintuple):
        make_quintuple(G.full(), one, G.full(), A, [(0, 0)])
    # Non-normal kernel.
    with pytest.raises(InvalidQuintuple):
        make_quintuple(G.full(), flip, G.full(), flip, [(0, 0)])
    # Cosets not all covered.
    with pytest.raises(InvalidQuintuple):
        make_quintuple(G.full(), A, G.full(), A, [(0, 0)])
    # Ill-defined map: two cosets sent to one.
    with pytest.raises(InvalidQuintuple):
        make_quintuple(G.full(), A, G.full(), A, [(0, 0), (1, 0)])


def test_enumerate_subdirect_counts():
    assert len(enumerate_subdirect(cyclic(2), cyclic(2))) == 2
    assert len(enumerate_subdirect(cyclic(2), cyclic(3))) == 1
    S3 = symmetric(3)
    assert len(enumerate_subdirect(S3, S3)) == 8


def test_enumerate_subdirect_returns_the_products_interned_objects():
    G = dihedral(8)
    P = direct_product(G, G).group
    first = enumerate_subdirect(G, G)
    assert first and all(U is interned(P, U.mask) for U in first)
    second = enumerate_subdirect(G, G)
    assert second is not first
    assert len(second) == len(first)
    assert all(a is b for a, b in zip(first, second))
    second.clear()
    assert len(enumerate_subdirect(G, G)) == len(first)


def test_star_product_of_subdirects_is_the_enumerated_object():
    F, G, H = cyclic(2), symmetric(3), cyclic(6)
    targets = enumerate_subdirect(F, H)
    for U in enumerate_subdirect(F, G):
        for V in enumerate_subdirect(G, H):
            W = star_product(U, V)
            assert any(W is T for T in targets)


def test_composite_miss_is_checked_and_not_interned(monkeypatch):
    G = symmetric(3)
    P = direct_product(G, G).group
    D = diagonal(G)
    assert D.mask not in _interned_table(P)
    checked = []
    init = Subgroup.__init__

    def spy(self, parent, elements):
        checked.append(parent)
        init(self, parent, elements)

    monkeypatch.setattr(Subgroup, "__init__", spy)
    W = star_product(D, D)
    assert W == D and W is not D and checked == [P]
    assert D.mask not in _interned_table(P)
    enumerate_subdirect(G, G)  # interns the diagonal
    checked.clear()
    assert star_product(D, D) is interned(P, D.mask) and checked == []


def test_enumeration_agrees_with_scan():
    for G, H in ((cyclic(2), cyclic(2)), (cyclic(4), cyclic(2)),
                 (symmetric(3), symmetric(3)), (symmetric(3), cyclic(6))):
        listed = {U.mask for U in enumerate_subdirect(G, H)}
        scanned = {U.mask for U in subdirect_by_scan(G, H)}
        assert listed == scanned


def test_subdirect_by_scan_cap_ignores_a_cached_lattice():
    # C37 x C37 (order 1369) is above the default product cap of 1296.
    C37 = cyclic(37)
    with pytest.raises(OrderLimitExceeded, match="above cap 1296"):
        subdirect_by_scan(C37, C37)
    assert len(all_subgroups(direct_product(C37, C37,
                                            max_order=1369).group)) == 40
    with pytest.raises(OrderLimitExceeded, match="above cap 1296"):
        subdirect_by_scan(C37, C37)


def test_enumerate_subdirect_cap_ignores_a_cached_product():
    S4 = symmetric(4)
    with pytest.raises(OrderLimitExceeded):
        enumerate_subdirect(S4, S4, max_order=500)
    assert len(enumerate_subdirect(S4, S4)) == 32
    with pytest.raises(OrderLimitExceeded):
        enumerate_subdirect(S4, S4, max_order=500)


def test_enumerated_subgroups_are_subdirect_and_closed():
    for U in enumerate_subdirect(symmetric(3), symmetric(3)):
        assert is_subdirect(U)
        assert helpers.brute_is_subgroup(U.parent, U.elements)


def test_star_of_twisted_diagonals_composes():
    G = symmetric(3)
    auts = automorphisms(G)
    for phi, psi in itertools.product(auts[:4], auts[:4]):
        W = star_product(twisted_diagonal(G, phi), twisted_diagonal(G, psi))
        assert W == twisted_diagonal(G, psi.compose(phi))


def test_star_of_full_products():
    G, H, K = symmetric(3), cyclic(4), cyclic(2)
    U = direct_product(G, H).group.full()
    V = direct_product(H, K).group.full()
    W = star_product(U, V)
    assert W.parent is direct_product(G, K).group
    assert W.is_whole


def test_star_idempotent_on_coset_diagonal():
    _, U = s3_a3_diagonal()
    assert star_product(U, U) == U


def test_star_requires_matching_middle():
    U = diagonal(symmetric(3))
    V = diagonal(cyclic(2))
    with pytest.raises(FactorMismatch):
        star_product(U, V)


def _lattice(G, H):
    return all_subgroups(direct_product(G, H).group)


def _composition_blocks():
    """Square lattice blocks and non-square subdirect and lattice blocks."""
    C2, C4, S3 = cyclic(2), cyclic(4), symmetric(3)
    for G in (C4, elementary_abelian(2, 2), S3):
        yield _lattice(G, G), _lattice(G, G)
    yield enumerate_subdirect(C2, C4), enumerate_subdirect(C4, S3)
    yield _lattice(C2, C4), _lattice(C4, S3)


def _assert_block_matches_dict_loop(Us, Vs):
    rows = compose_relations(Us, Vs)
    assert rows.shape[:2] == (len(Us), len(Vs))
    for U, U_rows in zip(Us, rows):
        for V, row in zip(Vs, U_rows):
            want = sum(1 << x for x in helpers.dict_loop_composite(U, V))
            assert int.from_bytes(row, "little") == want


def test_compose_relations_matches_dict_loop():
    for Us, Vs in _composition_blocks():
        _assert_block_matches_dict_loop(Us, Vs)


def test_compose_relations_in_one_row_chunks(monkeypatch):
    monkeypatch.setattr(products, "COMPOSE_BUDGET", 1)
    for Us, Vs in _composition_blocks():
        _assert_block_matches_dict_loop(Us, Vs)


def test_compose_relations_requires_matching_middle():
    S3, C2 = symmetric(3), cyclic(2)
    with pytest.raises(FactorMismatch):
        compose_relations(_lattice(S3, S3), _lattice(C2, C2))
    with pytest.raises(FactorMismatch):
        compose_relations(enumerate_subdirect(C2, S3),
                          enumerate_subdirect(C2, C2))


def test_star_order_identity():
    # |U * V| * |k(U) meet-factor| follows from the fibering over the middle.
    G = symmetric(3)
    info = direct_product(G, G)
    subs = enumerate_subdirect(G, G)
    for U, V in itertools.product(subs, subs):
        W = star_product(U, V)
        assert is_subdirect(W)
        assert W.order % goursat_quotient(W).order == 0


def test_twisted_diagonal_orders():
    G = dihedral(8)
    for phi in automorphisms(G):
        D = twisted_diagonal(G, phi)
        assert D.order == G.order
        assert is_subdirect(D)


def test_twisted_diagonal_rejects_non_automorphism():
    G = symmetric(3)
    H = cyclic(6)
    with pytest.raises(NotAutomorphism):
        twisted_diagonal(G, identity_hom(H))


def test_contains_twisted_diagonal_witnesses():
    G = symmetric(3)
    assert contains_twisted_diagonal(diagonal(G)).is_identity
    full = direct_product(G, G).group.full()
    assert contains_twisted_diagonal(full).is_identity
    _, U = s3_a3_diagonal()
    w = contains_twisted_diagonal(U)
    assert w is not None and w.is_identity
    # A twisted diagonal that misses the plain one still yields a witness.
    phi = next(a for a in automorphisms(G) if not a.is_identity)
    tw = twisted_diagonal(G, phi)
    got = contains_twisted_diagonal(tw)
    assert got is not None and not got.is_identity


def test_contains_twisted_diagonal_needs_square():
    info = direct_product(symmetric(3), cyclic(6))
    with pytest.raises(ValueError):
        contains_twisted_diagonal(info.group.full())


_D8C2 = direct_product(dihedral(8), cyclic(2)).group
_SCAN_SQUARES = [symmetric(3), dihedral(8), quaternion8(), alternating(4),
                 symmetric(4), dihedral(12), _D8C2, elementary_abelian(2, 3)]


def _assert_witness_matches_the_scan(U) -> None:
    got = contains_twisted_diagonal(U)
    want = helpers.twisted_diagonal_by_scan(U)
    if want is None:
        assert got is None
    else:
        assert got.image.tolist() == want.image.tolist()


@pytest.mark.parametrize("G", _SCAN_SQUARES, ids=lambda G: G.label)
def test_twisted_diagonal_search_matches_the_automorphism_scan(G):
    for U in enumerate_subdirect(G, G):
        _assert_witness_matches_the_scan(U)


@pytest.mark.parametrize("G", [symmetric(3), elementary_abelian(2, 2)],
                         ids=lambda G: G.label)
def test_twisted_diagonal_search_matches_the_scan_on_the_lattice(G):
    """Every subgroup of G x G, subdirect or not."""
    for U in all_subgroups(direct_product(G, G).group):
        _assert_witness_matches_the_scan(U)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_relabelled_twisted_diagonal_search_matches_the_scan(data):
    G = helpers.relabelled(data, data.draw(st.sampled_from(
        [G for G in _SCAN_SQUARES if G.order <= 12])))
    for U in enumerate_subdirect(G, G):
        _assert_witness_matches_the_scan(U)


def test_twisted_diagonal_search_lists_no_automorphisms(monkeypatch,
                                                        capsys):
    S3 = symmetric(3)
    phi = automorphisms(S3)[1]
    twisted = twisted_diagonal(S3, phi)

    def refuse(G):
        raise AssertionError(f"automorphisms of {G.label} listed")

    # every name the package could call it by
    for module in (groups, products):
        monkeypatch.setattr(module, "automorphisms", refuse, raising=False)
    E = elementary_abelian(2, 5)
    info = direct_product(E, E)
    assert contains_twisted_diagonal(info.group.full()).is_identity
    left = Subgroup(info.group, [info.encode(g, 0) for g in range(E.order)])
    assert contains_twisted_diagonal(left) is None
    got = contains_twisted_diagonal(twisted)
    assert not got.is_identity
    assert got.image.tolist() == phi.image.tolist()
    assert cli.main(["analyze", "--G", "C2xC2xC2xC2xC2", "--U", "full"]) == 0
    assert "contains diagonal: yes" in capsys.readouterr().out


def test_twisted_diagonal_searches_leave_no_cyclic_garbage():
    """The search keeps its partial maps on an explicit stack, so the
    containment searches over the subdirects of D8 x D8, built fresh,
    leave nothing for the cyclic collector."""
    D8 = dihedral(8)
    fresh = [Subgroup(U.parent, U.elements)
             for U in enumerate_subdirect(D8, D8)]
    assert len(fresh) == 24
    gc.collect()
    gc.disable()
    try:
        found = [contains_twisted_diagonal(U) for U in fresh]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sum(phi is not None for phi in found) == 16


def test_twisted_diagonal_is_generated_by_the_lifts_of_the_generators():
    for G in (symmetric(3), dihedral(8), alternating(5)):
        for phi in itertools.islice(isomorphisms_iter(G, G), 3):
            U = twisted_diagonal(G, phi)
            info = product_of(U)
            assert groups.subgroup_generators(U) == tuple(
                info.encode(g, phi(g)) for g in groups.generating_sequence(G))
            assert groups._closure(U.parent, groups.subgroup_generators(U))[0] \
                == U.elements


def test_is_section_examples():
    assert is_section(cyclic(1), symmetric(3))
    assert not is_section(cyclic(4), elementary_abelian(2, 2))
    assert is_section(elementary_abelian(2, 2), dihedral(8))
    assert is_section(cyclic(2), symmetric(3))
    assert not is_section(quaternion8(), dihedral(8))


def test_is_section_matches_lattice_walk():
    # Every pair of groups of order at most 12, up to isomorphism.
    groups = [G for _, G in _small_registry()]
    sections = 0
    for Q, G in itertools.product(groups, groups):
        want = helpers.lattice_walk_is_section(Q, G)
        assert is_section(Q, G) == want, (Q.label, G.label)
        sections += want
    assert len(groups) == 24
    assert sections > len(groups)


def test_certify():
    G = symmetric(3)
    assert is_subdirect(diagonal(G))
    assert contains_twisted_diagonal(diagonal(G)) is not None
    info = direct_product(G, cyclic(2))
    sub = pair_subgroup(info, [(0, 1)])
    assert not is_subdirect(sub)
    with pytest.raises(ValueError):
        contains_twisted_diagonal(sub)


def test_projection_commutator_identities():
    # For subdirect U: p_i(U') equals the factor commutator subgroup, and
    # k_i(U') is normal in the factor.
    for G, H in ((symmetric(3), symmetric(3)), (dihedral(8), cyclic(2))):
        for U in enumerate_subdirect(G, H):
            Ugrp, emb = U.as_group()
            Uprime = commutator_subgroup(Ugrp)
            lifted = [emb(x) for x in Uprime.elements]
            prime = Subgroup(U.parent, lifted)
            data = projections_kernels(prime)
            assert data.p1 == commutator_subgroup(G)
            assert data.p2 == commutator_subgroup(H)


def test_product_of_requires_product_parent():
    G = symmetric(3)
    with pytest.raises(ValueError):
        product_of(G.full())


# -- factor data shared across subgroups ------------------------------------------


def test_subdirects_with_one_section_share_factor_data():
    G = dihedral(8)
    by_kernel: dict = {}
    for U in enumerate_subdirect(G, G):
        by_kernel.setdefault(projections_kernels(U).k1.mask, []).append(U)
    shared = [Us[:2] for Us in by_kernel.values() if len(Us) > 1]
    assert shared
    for U, V in shared:
        dU, dV = projections_kernels(U), projections_kernels(V)
        assert dU.p1 is dV.p1 is G.full()
        assert dU.k1 is dV.k1
        qU, qV = goursat_quintuple(U), goursat_quintuple(V)
        assert qU.phi.domain is qV.phi.domain
        to_q1 = subgroup_quotient(dU.p1, dU.k1)[1]
        assert to_q1 is subgroup_quotient(dV.p1, dV.k1)[1]
        assert not to_q1.flags.writeable
        assert (kernel_commutator_data(U).p1_derived_cap_k1
                is kernel_commutator_data(V).p1_derived_cap_k1)
    assert mutual_commutator(G.full(), G.full()) is commutator_subgroup(G)


def test_interned_factor_subgroups_stay_within_the_lattice():
    G = load_group("D8xC2")
    subdirects = enumerate_subdirect(G, G)
    assert len(subdirects) == 608
    for U in subdirects:
        analyze_subgroup(U)
    lattice = {S.mask for S in all_subgroups(G)}
    table = _interned_table(G)
    assert set(table) <= lattice
    assert len(table) <= len(lattice)
    assert all(S.mask == mask for mask, S in table.items())


def test_analysis_leaves_no_reference_cycle_through_the_subgroup():
    G = dihedral(8)
    info = direct_product(G, G)
    subdirects = enumerate_subdirect(G, G)
    analyze_subgroup(subdirects[0])  # fill the factor and product memos

    def live_in_product():
        return sum(1 for obj in gc.get_objects()
                   if isinstance(obj, Subgroup) and obj.parent is info.group)

    gc.collect()
    gc.disable()
    try:
        before = live_in_product()
        U = Subgroup(info.group, subdirects[-1].elements)
        analyze_subgroup(U)
        del U
        after = live_in_product()
    finally:
        gc.enable()
    assert after == before


def _fresh_pair(left: str, right: str) -> tuple:
    G = load_group(left)
    return G, (G if left == right else load_group(right))


_ORDER_PAIRS = (("C2xC2", "C2xC2"), ("S3", "S3"), ("C4", "D8"),
                ("D8", "D8"), ("D8", "Q8"), ("Q8", "Q8"))


@functools.cache
def _cold_records(left: str, right: str) -> list:
    """Each subdirect's record, analysed first on freshly built groups."""
    count = len(enumerate_subdirect(*_fresh_pair(left, right)))
    return [analyze_subgroup(enumerate_subdirect(*_fresh_pair(left, right))[i])
            for i in range(count)]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_analysis_does_not_depend_on_earlier_analyses(data):
    left, right = data.draw(st.sampled_from(_ORDER_PAIRS))
    cold = _cold_records(left, right)
    order = data.draw(st.permutations(range(len(cold))))
    subdirects = enumerate_subdirect(*_fresh_pair(left, right))
    for i in order:
        assert analyze_subgroup(subdirects[i]) == cold[i]


# -- trusted subgroup builds ----------------------------------------------------


def _assert_trusted(S: Subgroup) -> None:
    """S, built unchecked by the library, is what the checked constructor
    builds from its elements, which are sorted Python ints."""
    assert all(type(e) is int for e in S.elements)
    assert list(S.elements) == sorted(set(S.elements))
    checked = Subgroup(S.parent, S.elements)
    assert checked.elements == S.elements and checked.mask == S.mask


_REGISTRY = [G for _, G in _small_registry()]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_internal_builds_match_the_checked_constructor(data):
    G = data.draw(st.sampled_from(_REGISTRY))
    seeds = st.lists(st.integers(0, G.order - 1), max_size=4)
    seed_a, seed_b = data.draw(seeds), data.draw(seeds)
    A, B = subgroup_generated(G, seed_a), subgroup_generated(G, seed_b)
    mul = helpers.mul_table(G)
    assert set(A.elements) == helpers.brute_closure(mul, seed_a)
    assert set(B.elements) == helpers.brute_closure(mul, seed_b)
    N = data.draw(st.sampled_from(normal_subgroups(G)))
    _, proj = quotient_group(G, N)
    phi = data.draw(st.sampled_from(automorphisms(G)))
    assert proj.kernel() == N
    built = [G.full(), G.trivial(), A, B, A.intersection(B),
             interned(G, A.mask), center(G), proj.kernel(),
             proj.map_subgroup(A), phi.map_subgroup(B)]
    for S in built:
        _assert_trusted(S)

    F, H = (catalog_group(data.draw(st.sampled_from(catalog_names())))
            for _ in range(2))
    U = data.draw(st.sampled_from(enumerate_subdirect(F, H)))
    W = subgroup_from_quintuple(goursat_quintuple(U))
    assert W == U
    d = projections_kernels(U)
    phi = data.draw(st.sampled_from(automorphisms(F)))
    for S in (U, W, d.p1, d.k1, d.p2, d.k2, twisted_diagonal(F, phi)):
        _assert_trusted(S)


def _assert_checked_group(G: FiniteGroup) -> None:
    """G, built unchecked by the library, passes the checked constructor."""
    checked = FiniteGroup(G.product, G.label)
    assert (checked.inverse == G.inverse).all()


def _assert_checked_hom(f) -> None:
    """f, built unchecked by the library, passes its checked constructor."""
    if isinstance(f, CyclicHom):
        assert CyclicHom(f.domain, f.modulus, f.values) == f
    else:
        assert GroupHom(f.domain, f.codomain, f.image) == f


_PRESETS = [
    (cyclic, st.tuples(st.integers(1, 12))),
    (dihedral, st.tuples(st.integers(1, 6).map(lambda n: 2 * n))),
    (symmetric, st.tuples(st.integers(1, 4))),
    (alternating, st.tuples(st.integers(1, 5))),
    (quaternion8, st.tuples()),
    (elementary_abelian, st.tuples(st.sampled_from([2, 3]),
                                   st.integers(0, 3))),
    (dicyclic12, st.tuples()),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_internal_group_and_hom_builds_pass_the_checked_constructors(data):
    build, args = data.draw(st.sampled_from(_PRESETS))
    G = build(*data.draw(args))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    A = subgroup_generated(G, seed)
    N = data.draw(st.sampled_from(normal_subgroups(G)))
    Q, proj = quotient_group(G, N)
    sub_grp, embedding = A.as_group()
    autos = automorphisms(G)
    phi, psi = (data.draw(st.sampled_from(autos)) for _ in range(2))
    m = data.draw(st.integers(1, 6))
    for K in (G, groups._class_reps[isomorphism_class(G)], Q, sub_grp,
              subgroup_quotient(A, mutual_commutator(A, A))[0]):
        _assert_checked_group(K)
    for f in (proj, embedding, phi, psi, phi.compose(psi), phi.inverted(),
              identity_hom(G), *enumerate_homs(G, m), *enumerate_homs(A, m)):
        _assert_checked_hom(f)
    assert autos == list(isomorphisms_iter(G, G))

    F, H = (catalog_group(data.draw(st.sampled_from(catalog_names())))
            for _ in range(2))
    info = direct_product(F, H)
    _assert_checked_group(info.group)
    U = data.draw(st.sampled_from(enumerate_subdirect(F, H)))
    m = data.draw(st.integers(1, 4))
    raw = raw_enumerate_homs(F, m) if m ** (F.order - 1) <= 4096 else []
    restricted = [restriction_map(big, U)
                  for big in enumerate_homs(info.group, m)]
    extended = [extend_hom(chi, U) for chi in enumerate_homs(U, m)]
    for f in (*raw, *restricted, *(e for e in extended if e is not None)):
        _assert_checked_hom(f)


def test_subdirect_analysis_builds_no_checked_subgroup(monkeypatch):
    """Only the Goursat quintuple's induced-map cross-check builds a
    checked object on the analysis path."""
    checked = []

    def spy(cls, name):
        real = getattr(cls, name)

        def wrapped(self, *args, **kwargs):
            checked.append((cls.__name__, sys._getframe(1).f_code.co_name))
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapped)

    for cls in (Subgroup, GroupHom, CyclicHom):
        spy(cls, "__init__")
    spy(FiniteGroup, "validate")
    S4 = load_group("S4")
    subdirects = enumerate_subdirect(S4, S4)
    assert len(subdirects) == 32
    for U in subdirects:
        analyze_subgroup(U)
    assert set(checked) == {("GroupHom", "_checked_quintuple")}
