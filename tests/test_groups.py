"""Core group machinery: tables, subgroups, quotients, invariants."""

import collections
import inspect
import itertools
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers

from subdirect import (
    CyclicHom,
    FiniteGroup,
    InternalInconsistency,
    InvalidQuintuple,
    NotAGroup,
    NotNormal,
    OrderLimitExceeded,
    abelian_invariants,
    abelianization,
    alternating,
    automorphisms,
    catalog_group,
    catalog_names,
    center,
    commutator_subgroup,
    contains_twisted_diagonal,
    cyclic,
    diagonal,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_homs,
    find_isomorphism,
    from_cayley_table,
    from_permutation_generators,
    generating_sequence,
    goursat_quintuple,
    has_cyclic_sylows,
    is_cyclic,
    is_isomorphic,
    is_normal,
    kernel_commutator_data,
    make_quintuple,
    mutual_commutator,
    p_part,
    prime_factors,
    quaternion8,
    quotient_group,
    set_product,
    subgroup_generated,
    subgroup_generators,
    subgroup_quotient,
    sylow_subgroup,
    symmetric,
)
from subdirect.groups import GroupHom, Subgroup, all_subgroups, \
    conjugacy_class_sizes, conjugacy_classes, interned, isomorphism_class, \
    isomorphisms_iter, memoised, normal_subgroups
import subdirect.groups as groups
from subdirect.extensibility import obstruction_quotient
from subdirect.presets import _small_registry
from subdirect.products import projections_kernels
from subdirect.verification import SCAN_CAP


def test_trivial_table():
    G = from_cayley_table([[0]])
    assert G.order == 1
    assert G.identity == 0


def test_mod2_table_is_c2():
    G = from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert is_isomorphic(G, cyclic(2))


def test_corrupted_table_reports_witness():
    table = cyclic(6).product.copy()
    table[3, 4] = table[3, 3]
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(table)
    assert "3" in str(exc.value) or "4" in str(exc.value)


def test_latin_square_without_identity_rejected():
    table = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    with pytest.raises(NotAGroup, match="no two-sided identity"):
        from_cayley_table(table)


def _named(message: str) -> tuple:
    """The ints of the pair or triple an error message names last."""
    return tuple(int(x) for x in
                 message.rsplit("(", 1)[1].rstrip(")").split(","))


def test_nonassociative_loop_rejected_at_a_failing_triple():
    """A loop: a Latin square with identity 0 that is no group, so only
    the associativity test can reject it.  The triple it names fails,
    and its last entry is a greedy generator."""
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup, match="associativity fails") as exc:
        from_cayley_table(table)
    x, y, s = _named(str(exc.value))
    assert table[table[x][y]][s] != table[x][table[y][s]]
    assert s in helpers.right_step_generators(table)


def test_cayley_table_with_its_identity_elsewhere_is_range_checked():
    """Relabelling the identity to 0 swaps entries; it no longer indexes
    by them, so an out-of-range entry is a NotAGroup, not an IndexError."""
    with pytest.raises(NotAGroup, match="out of range"):
        from_cayley_table([[1, 0, 5], [0, 1, 2], [2, 2, 2]])
    G = from_cayley_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert G.product.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_permutation_generators_s3():
    G = from_permutation_generators(3, [[1, 2, 0], [1, 0, 2]])
    assert G.order == 6
    assert is_isomorphic(G, symmetric(3))


def test_permutation_generators_empty_is_trivial():
    G = from_permutation_generators(4, [])
    assert G.order == 1


def test_permutation_generators_refuse_a_negative_degree():
    with pytest.raises(ValueError, match="degree -1 is negative"):
        from_permutation_generators(-1, [()])


def test_permutation_generators_quaternion_regular():
    # Regular action of Q8 on itself reproduces a group of order 8.
    Q = quaternion8()
    gens = [list(map(int, Q.product[g])) for g in generating_sequence(Q)]
    G = from_permutation_generators(8, gens)
    assert G.order == 8
    assert is_isomorphic(G, Q)


def test_subgroup_generated_empty_seed():
    G = symmetric(3)
    S = subgroup_generated(G, [])
    assert S.order == 1
    assert S.elements == (0,)


def _bit_loop_mask(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def test_mask_of_matches_the_bit_loop():
    """Both sides of the loop limit: random sequences with repeats, the
    empty one, and indices far above the sequence's length."""
    rng = random.Random(7)
    limit = groups._MASK_LOOP_LIMIT
    for size in (0, 1, 5, limit - 1, limit, 3 * limit):
        for top in (1, 64, 600, 518400):
            for _ in range(5):
                elems = [rng.randrange(top) for _ in range(size)]
                want = _bit_loop_mask(elems)
                assert groups._mask_of(elems) == want
                assert groups._mask_of(tuple(sorted(set(elems)))) == want


def test_subgroup_generated_matches_brute_closure():
    G = symmetric(3)
    mul = helpers.mul_table(G)
    for seed in [(1,), (3,), (1, 3), (5,)]:
        S = subgroup_generated(G, seed)
        assert frozenset(S.elements) == helpers.brute_closure(mul, seed)


def test_subgroup_generated_three_cycle():
    G = symmetric(3)
    cycles = [g for g in range(G.order) if G.element_order(g) == 3]
    S = subgroup_generated(G, cycles[:1])
    assert S.order == 3


def test_subgroup_generated_rotation():
    D = dihedral(8)
    S = subgroup_generated(D, [1])
    assert S.order == 4


def test_all_subgroups_matches_powerset_search():
    for G in (cyclic(8), symmetric(3), dihedral(8), quaternion8(),
              elementary_abelian(2, 3)):
        got = {frozenset(S.elements) for S in all_subgroups(G)}
        assert got == helpers.brute_subgroups(G)


def test_subgroup_as_group_embedding():
    G = dihedral(8)
    S = subgroup_generated(G, [1])
    K, emb = S.as_group()
    assert K.order == 4
    for i in range(K.order):
        for j in range(K.order):
            assert emb(int(K.product[i, j])) == int(
                G.product[emb(i), emb(j)])


def test_mutual_commutator_with_trivial():
    G = symmetric(3)
    one = subgroup_generated(G, [])
    assert mutual_commutator(G.full(), one).order == 1


def test_commutator_subgroup_s3():
    G = symmetric(3)
    D = commutator_subgroup(G)
    assert D.order == 3
    assert frozenset(D.elements) == helpers.brute_commutator_subgroup(G)


def test_commutator_matches_brute_on_catalog():
    for G in (cyclic(6), dihedral(8), quaternion8(), alternating(4)):
        D = commutator_subgroup(G)
        assert frozenset(D.elements) == helpers.brute_commutator_subgroup(G)


def test_center_commutes_with_everything():
    for G in (symmetric(3), dihedral(8), quaternion8()):
        Z = center(G)
        assert frozenset(Z.elements) == helpers.brute_center(G)


def test_center_of_dihedral8():
    Z = center(dihedral(8))
    assert Z.order == 2


def test_center_commutator_trivial_bracket():
    D = dihedral(8)
    assert mutual_commutator(center(D), D.full()).order == 1


def test_quotient_by_whole_group():
    G = symmetric(3)
    Q, _ = quotient_group(G, G.full())
    assert Q.order == 1


def test_quotient_s3_by_a3():
    G = symmetric(3)
    Q, to_q = quotient_group(G, commutator_subgroup(G))
    assert Q.order == 2
    assert is_isomorphic(Q, cyclic(2))
    # The projection is a homomorphism.
    for a in range(G.order):
        for b in range(G.order):
            assert to_q(int(G.product[a, b])) == int(
                Q.product[to_q(a), to_q(b)])


def test_quotient_d8_by_center():
    D = dihedral(8)
    Q, _ = quotient_group(D, center(D))
    assert Q.order == 4
    assert is_isomorphic(Q, elementary_abelian(2, 2))


def test_quotient_requires_normal():
    G = symmetric(3)
    flip = subgroup_generated(G, [1])
    assert not is_normal(flip)
    with pytest.raises(NotNormal):
        quotient_group(G, flip)


def test_subgroup_quotient_inside_product():
    G = dihedral(8)
    P = subgroup_generated(G, [1])
    K = subgroup_generated(G, [2])
    Q, _ = subgroup_quotient(P, K)
    assert Q.order == 2


# Every group of order at most 12 up to isomorphism, plus two products
# with larger lattices.
_COSET_GROUPS = [G for _, G in _small_registry()] + [
    direct_product(cyclic(4), cyclic(4)).group,
    direct_product(symmetric(3), symmetric(3)).group,
]


@pytest.mark.parametrize("G", _COSET_GROUPS, ids=lambda G: G.label)
def test_quotients_match_the_materialised_route(G):
    subgroups = all_subgroups(G)
    normal_pairs = 0
    for P in subgroups:
        for K in subgroups:
            if not K.is_subset_of(P):
                continue
            want = helpers.materialised_quotient(P, K)
            if want is None:
                with pytest.raises(NotNormal):
                    subgroup_quotient(P, K)
                continue
            normal_pairs += 1
            Q, to_q = subgroup_quotient(P, K)
            assert np.array_equal(Q.product, want[0])
            assert np.array_equal(to_q, want[1])
            if P.is_whole:
                Q, proj = quotient_group(G, K)
                assert np.array_equal(Q.product, want[0])
                assert np.array_equal(proj.image, want[1])
    assert normal_pairs >= len(subgroups)
    for N in subgroups:
        assert is_normal(N) == helpers.brute_is_normal(G, N.elements)


def _commutator_seed(G, X, Y) -> np.ndarray:
    mul = helpers.mul_table(G)
    inv = [int(G.inverse[x]) for x in range(G.order)]
    return np.unique([mul[mul[inv[x]][inv[y]]][mul[x][y]]
                      for x in X.elements for y in Y.elements])


def _deferred_products() -> list:
    """Products of fresh copies of small groups, so no other test has
    read their tables, which are built only when something does."""
    def copy(F):
        return FiniteGroup._trusted(F.product, F.label)

    return [direct_product(copy(G), copy(H)).group
            for G, H in ((dihedral(8), cyclic(3)), (cyclic(2), alternating(4)),
                         (quaternion8(), cyclic(2)))]


def _lattice(G) -> list:
    """all_subgroups(G); for a product whose table is not built, those
    of a plain twin with the same table, moved over by elements, so G's
    own table stays unbuilt."""
    if type(G) is not groups._DeferredTable:
        return all_subgroups(G)
    twin = FiniteGroup._trusted(G.product_info.table(), G.label)
    return [Subgroup._trusted(G, S.elements, S.mask)
            for S in all_subgroups(twin)]


def _commutator(G, x, y) -> int:
    return int(G.product[G.product[G.inverse[x], G.inverse[y]],
                         G.product[x, y]])


@pytest.mark.parametrize("G", _COSET_GROUPS + _deferred_products(),
                         ids=lambda G: G.label)
def test_closure_matches_the_squaring_route(G):
    """The last three groups are products whose tables are not built:
    the walks step on their factors' tables and leave theirs unbuilt,
    and the references, which read it, run afterwards."""
    deferred = type(G) is groups._DeferredTable
    seeds = [(x,) for x in range(G.order)]
    seeds += itertools.product(range(G.order), repeat=2)
    closures = [subgroup_generated(G, seed).elements for seed in seeds]
    pairs = list(itertools.product(_lattice(G), repeat=2))
    commutators = [mutual_commutator(X, Y).elements for X, Y in pairs]
    greedy = generating_sequence(G)
    assert (type(G) is groups._DeferredTable) == deferred
    for seed, elements in zip(seeds, closures):
        assert elements == helpers.squaring_closure(G, seed)
    for (X, Y), elements in zip(pairs, commutators):
        seed = _commutator_seed(G, X, Y)
        want = helpers.squaring_closure(G, seed)
        assert subgroup_generated(G, seed).elements == want
        assert elements == want
    assert greedy == helpers.greedy_generating_sequence(G)


def test_mutual_commutator_matches_all_pairs():
    """Every ordered pair of subgroups of the registry groups, S4, A5 and
    three products whose tables are not built (and stay unbuilt), against
    the closure of all |X| * |Y| commutators.  Nested pairs occur, and
    pairs where the commutators of generator pairs close to less than
    [X, Y]: there the walk adopts a generator outside that closure, which
    only the conjugation step can give."""
    nested = conjugated = 0
    for G in ([G for _, G in _small_registry()]
              + [symmetric(4), alternating(5)] + _deferred_products()):
        deferred = type(G) is groups._DeferredTable
        pairs = list(itertools.product(_lattice(G), repeat=2))
        got = [mutual_commutator(X, Y) for X, Y in pairs]
        assert (type(G) is groups._DeferredTable) == deferred, G
        for (X, Y), D in zip(pairs, got):
            want = helpers.all_pairs_commutator(X, Y)
            assert D.elements == want, (G, X, Y)
            nested += X.is_subset_of(Y) or Y.is_subset_of(X)
            seeded = subgroup_generated(
                G, [_commutator(G, s, t) for s in subgroup_generators(X)
                    for t in subgroup_generators(Y)])
            if seeded.elements != want:
                conjugated += 1
                assert any(t not in seeded for t in subgroup_generators(D))
    assert nested > 0 and conjugated > 0, (nested, conjugated)


def _lattice_groups():
    names = catalog_names()
    pairs = [(catalog_group(a), catalog_group(b)) for a in names for b in names]
    return [direct_product(G, H).group for G, H in pairs
            if G.order * H.order <= SCAN_CAP] + [symmetric(4), alternating(5)]


@pytest.mark.parametrize("G", _lattice_groups(), ids=lambda G: G.label)
def test_lattice_matches_the_join_scan(G):
    lattice = all_subgroups(G)
    assert [S.elements for S in lattice] == helpers.join_scan_lattice(G)
    for S in lattice:
        assert subgroup_generated(G, subgroup_generators(S)) == S


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_is_the_generated_subgroup(data):
    G = catalog_group(data.draw(st.sampled_from(catalog_names())))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=8))
    seed = data.draw(st.permutations(seed + seed[:2] + [0]))
    elems = subgroup_generated(G, seed).elements
    have = set(elems)
    assert have >= set(seed)
    assert all(int(G.product[a, b]) in have for a in elems for b in elems)
    assert all(int(G.inverse[a]) in have for a in elems)
    assert elems == helpers.squaring_closure(G, seed)


def test_kernel_not_normal_in_point_stabiliser():
    S4 = symmetric(4)
    index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    stabiliser = subgroup_generated(S4, [index[(1, 0, 2, 3)],
                                         index[(1, 2, 0, 3)]])
    flip = subgroup_generated(S4, [index[(1, 0, 2, 3)]])
    rotations = subgroup_generated(S4, [index[(1, 2, 0, 3)]])
    assert stabiliser.order == 6
    with pytest.raises(NotNormal):
        subgroup_quotient(stabiliser, flip)
    with pytest.raises(InvalidQuintuple):
        make_quintuple(stabiliser, flip, stabiliser, flip, [(0, 0)])
    # Normal in the stabiliser but not in S4.
    Q, to_q = subgroup_quotient(stabiliser, rotations)
    assert Q.order == 2
    assert {int(to_q[x]) for x in stabiliser.elements} == {0, 1}
    assert not is_normal(rotations)
    with pytest.raises(NotNormal):
        quotient_group(S4, rotations)


def test_automorphisms_above_order_64():
    assert len(automorphisms(cyclic(65))) == 48


def test_automorphisms_need_the_identity_once_and_first(monkeypatch):
    G = _fresh(symmetric(3))
    found = list(isomorphisms_iter(G, G))
    assert automorphisms(G) == found
    for bad in (found[1:] + found[:1], found + found[:1], found[1:]):
        monkeypatch.setattr(groups, "isomorphisms_iter",
                            lambda G1, G2, bad=bad: iter(bad))
        with pytest.raises(InternalInconsistency):
            automorphisms(_fresh(G))


def test_set_product_orders():
    G = dihedral(8)
    A = subgroup_generated(G, [2, 4])
    B = subgroup_generated(G, [1])
    P = set_product(A, B)
    assert P.order == (A.order * B.order) // A.intersection(B).order


def _checked_set_product(A: Subgroup, B: Subgroup):
    """The checked constructor on the product set, or None if it raises."""
    prods = A.parent.product[np.array(A.elements)[:, None],
                             np.array(B.elements)]
    try:
        return Subgroup(A.parent, prods.ravel().tolist())
    except ValueError:
        return None


@pytest.mark.parametrize("G", [G for _, G in _small_registry()]
                         + [symmetric(4)], ids=lambda G: G.label)
def test_set_product_matches_the_checked_constructor(G):
    for A, B in itertools.product(all_subgroups(G), repeat=2):
        want = _checked_set_product(A, B)
        if want is None:
            with pytest.raises(ValueError):
                set_product(A, B)
        else:
            got = set_product(A, B)
            assert got.elements == want.elements and got.mask == want.mask
            assert all(type(e) is int for e in got.elements)


@pytest.mark.parametrize("cls", [FiniteGroup, Subgroup, GroupHom, CyclicHom])
def test_value_types_have_no_check_flag(cls):
    """Checking is chosen by constructor, public or ``_trusted``."""
    params = inspect.signature(cls.__init__).parameters
    assert not {"check", "validate"} & set(params)
    assert callable(cls._trusted)


def test_sylow_subgroups():
    G = symmetric(3)
    assert sylow_subgroup(G, 3).order == 3
    assert sylow_subgroup(G, 2).order == 2
    assert sylow_subgroup(G, 5).order == 1
    A = alternating(4)
    assert sylow_subgroup(A, 2).order == 4
    assert sylow_subgroup(A, 3).order == 3


def test_has_cyclic_sylows():
    assert has_cyclic_sylows(cyclic(1))
    assert has_cyclic_sylows(symmetric(3))
    assert has_cyclic_sylows(dihedral(10))
    assert not has_cyclic_sylows(elementary_abelian(2, 2))
    assert not has_cyclic_sylows(quaternion8())
    assert not has_cyclic_sylows(alternating(4))
    G = dihedral(12)
    want = all(is_cyclic(sylow_subgroup(G, p)) for p in prime_factors(12))
    assert has_cyclic_sylows(G) is want is False
    assert G._cache["cyclic_sylows"] is False
    # The element-order route against the Sylow subgroups themselves.
    groups = [G for _, G in _small_registry()]
    groups += [symmetric(4), dihedral(16), elementary_abelian(2, 4),
               alternating(5)]
    for F, H in ((cyclic(4), cyclic(4)), (symmetric(3), symmetric(3)),
                 (quaternion8(), cyclic(2))):
        groups += [U.as_group()[0]
                   for U in all_subgroups(direct_product(F, H).group)]
    assert len(groups) == 122
    for G in groups:
        want = all(is_cyclic(sylow_subgroup(G, p))
                   for p in prime_factors(G.order))
        assert has_cyclic_sylows(G) is want, G.label


def test_is_cyclic():
    assert is_cyclic(cyclic(12).full())
    assert not is_cyclic(elementary_abelian(2, 2).full())
    assert not is_cyclic(symmetric(3).full())


def test_abelianization_s3():
    inv, _ = abelianization(symmetric(3))
    assert inv.divisors == (2,)


def test_abelianization_c6():
    inv, _ = abelianization(cyclic(6))
    assert inv.divisors == (6,)


def test_abelianization_d8():
    inv, _ = abelianization(dihedral(8))
    assert inv.divisors == (2, 2)


def test_abelianization_order_identity():
    for G in (symmetric(3), dihedral(8), quaternion8(), alternating(4)):
        inv, proj = abelianization(G)
        assert inv.order * commutator_subgroup(G).order == G.order
        assert proj.domain is G


def test_abelian_invariants_divisor_chain():
    inv = abelian_invariants(cyclic(12))
    assert inv.divisors == (12,)
    inv = abelian_invariants(elementary_abelian(3, 2))
    assert inv.divisors == (3, 3)
    for i in range(len(inv.divisors) - 1):
        assert inv.divisors[i + 1] % inv.divisors[i] == 0


def test_isomorphism_positive_and_negative():
    G = symmetric(3)
    assert is_isomorphic(G, G)
    assert not is_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert not is_isomorphic(dihedral(8), quaternion8())


def test_find_isomorphism_is_homomorphism():
    f = find_isomorphism(cyclic(6), dihedral(8))
    assert f is None
    g = find_isomorphism(symmetric(3), dihedral(6))
    assert g is not None
    assert g.is_bijective


def test_small_registry_groups_get_distinct_class_ids():
    registry = _small_registry()
    assert len(registry) == 24
    assert len({isomorphism_class(G) for _, G in registry}) == 24


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_isomorphism_class_is_the_isomorphism_relation(data):
    registry = [G for _, G in _small_registry()]
    G = data.draw(st.sampled_from(registry))
    H = data.draw(st.sampled_from(registry))
    copy = helpers.relabelled(data, G)
    known = isomorphism_class(G)
    classes = len(groups._class_reps)
    assert isomorphism_class(copy) == known
    assert len(groups._class_reps) == classes  # no new class, no new entry
    same = isomorphism_class(copy) == isomorphism_class(H)
    assert same == is_isomorphic(copy, H)


def test_automorphism_counts_match_brute():
    for G, count in ((elementary_abelian(2, 2), 6), (symmetric(3), 6),
                     (dihedral(8), 8), (quaternion8(), 24)):
        auts = automorphisms(G)
        assert len(auts) == count
        assert len(helpers.brute_automorphisms(G)) == count
        assert auts[0].is_identity
    # too large for the brute-force relabelling scan
    for G, count in ((alternating(5), 120), (symmetric(5), 120),
                     (elementary_abelian(2, 4), 20160)):
        auts = automorphisms(G)
        assert len(auts) == count
        assert auts[0].is_identity


# The small registry plus larger groups with many automorphisms; E2^4
# (20 160 of them) is left out, as the pairwise reference needs seconds.
_SEARCH_GROUPS = [G for _, G in _small_registry()] + [
    symmetric(4), alternating(5), dihedral(16), cyclic(16),
    direct_product(dihedral(8), cyclic(2)).group,
    direct_product(quaternion8(), cyclic(2)).group,
    direct_product(cyclic(4), cyclic(4)).group,
]


def _fresh(G: FiniteGroup) -> FiniteGroup:
    return FiniteGroup._trusted(G.product, G.label)


def _same_search(G1: FiniteGroup, G2: FiniteGroup) -> None:
    found = [tuple(h.image.tolist()) for h in isomorphisms_iter(G1, G2)]
    assert found == list(helpers.pairwise_isomorphisms(G1, G2))


@pytest.mark.parametrize("G", _SEARCH_GROUPS, ids=lambda G: G.label)
def test_generator_walk_steps_each_element_by_each_generator_once(G):
    """Step j of the walk takes every element of <g_0..g_j> by every
    generator up to g_j, except the steps of earlier entries, and each
    step starts from an element reached before it."""
    gens = generating_sequence(G)
    reached, done = {0}, set()
    for j, steps in enumerate(groups._generator_walk(G)):
        for z, x, k, new in steps:
            assert x in reached and k <= j
            assert z == G.product[x, gens[k]]
            assert new == (z not in reached)
            reached.add(z)
        taken = [(x, k) for _, x, k, _ in steps]
        assert len(set(taken)) == len(taken) and not done & set(taken)
        done |= set(taken)
        span = subgroup_generated(G, gens[:j + 1]).elements
        assert reached == set(span)
        assert done == {(x, k) for x in span for k in range(j + 1)}


@pytest.mark.parametrize("G", _SEARCH_GROUPS, ids=lambda G: G.label)
def test_isomorphism_search_matches_the_pairwise_reference(G):
    for H in _SEARCH_GROUPS:
        if H.order == G.order:
            _same_search(_fresh(G), _fresh(H))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_isomorphism_search_matches_the_pairwise_reference(data):
    registry = [G for _, G in _small_registry()]
    G = data.draw(st.sampled_from(registry))
    H = data.draw(st.sampled_from([H for H in registry
                                   if H.order == G.order]))
    copy = helpers.relabelled(data, G)
    _same_search(copy, H)
    _same_search(H, copy)
    for hom in isomorphisms_iter(copy, H):
        GroupHom(copy, H, hom.image)  # checks every product


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_fibered_search_is_the_search_cut_to_its_fibers(data):
    """With fiber, the search yields, in order, exactly the isomorphisms
    whose generator images lie in their fibers."""
    G = data.draw(st.sampled_from([G for _, G in _small_registry()]))
    copy = helpers.relabelled(data, G)
    rows = {x: data.draw(st.integers(0, (1 << G.order) - 1))
            for x in generating_sequence(copy)}
    cut = [h.image.tolist() for h in isomorphisms_iter(copy, G, rows.get)]
    assert cut == [h.image.tolist() for h in isomorphisms_iter(copy, G)
                   if all(rows[x] >> h(x) & 1 for x in rows)]


def test_p_part():
    assert p_part(12, (2,)) == 4
    assert p_part(12, (2, 3)) == 12
    assert p_part(7, (2, 3)) == 1
    assert p_part(1, (2,)) == 1


def test_prime_factors():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(1) == ()
    assert prime_factors(30) == (2, 3, 5)


def test_element_orders_and_exponent():
    G = quaternion8()
    orders = sorted(int(x) for x in G.element_orders())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert G.exponent() == 4


def test_normal_subgroups_of_s3():
    G = symmetric(3)
    got = {S.order for S in normal_subgroups(G)}
    assert got == {1, 3, 6}


@pytest.mark.parametrize("G", [G for _, G in _small_registry()] + [
    symmetric(4), alternating(5), dihedral(16),
    direct_product(dihedral(8), dihedral(8)).group,
    direct_product(symmetric(3), symmetric(3)).group,
], ids=lambda G: G.label)
def test_normal_subgroups_match_the_lattice_filter(G):
    got = normal_subgroups(_fresh(G))
    want = helpers.lattice_normal_subgroups(G)
    assert [S.elements for S in got] == [S.elements for S in want]


def test_normal_subgroups_above_the_lattice_cap(monkeypatch):
    """Both scans stop at the same subgroup count at every order, not at
    an order: C257 has two subgroups, E2^8 has 417 199, all normal.  A
    scan that stops interns none of the subgroups it found, and a second
    call raises the same error again without scanning."""
    G = cyclic(257)
    assert [S.order for S in all_subgroups(G)] == [1, 257]
    assert [S.order for S in normal_subgroups(G)] == [1, 257]
    scans = collections.Counter()
    joins = groups._joins

    def counted(group, normal):
        scans[id(group), normal] += 1
        return joins(group, normal)

    monkeypatch.setattr(groups, "_joins", counted)
    E = elementary_abelian(2, 8)
    E9 = elementary_abelian(2, 9)
    for scan, group in ((all_subgroups, E), (normal_subgroups, E),
                        (normal_subgroups, E9)):
        before = len(groups._interned_table(group))
        messages = []
        for _ in range(2):
            with pytest.raises(OrderLimitExceeded,
                               match="above cap 32768") as raised:
                scan(group)
            messages.append(str(raised.value))
            assert len(groups._interned_table(group)) == before, scan
        assert messages[0] == messages[1]
        assert scans[id(group), scan is normal_subgroups] == 1, scan


def test_normal_subgroups_are_the_lattice_objects():
    G = _fresh(symmetric(4))
    lattice = {S.mask: S for S in all_subgroups(G)}
    assert all(lattice[N.mask] is N for N in normal_subgroups(G))


def _prime_power_elements(G: FiniteGroup) -> list:
    """The elements of G whose order is a prime power, each order found
    by repeated multiplication in the table."""
    table, found = G.product, []
    for x in range(1, G.order):
        k, y = 1, x
        while y:
            y, k = table[y, x], k + 1
        p = next(d for d in range(2, k + 1) if k % d == 0)
        while k % p == 0:
            k //= p
        if k == 1:
            found.append(x)
    return found


def _joined_blocks(G: FiniteGroup, S, block_of) -> int:
    """How many blocks ``block_of(x)`` other than S itself hold an element
    of prime-power order, walking x up over those elements past the
    elements of S and of the blocks already seen."""
    seen = np.zeros(G.order, dtype=bool)
    seen[list(S.elements)] = True
    count = 0
    for x in _prime_power_elements(G):
        if not seen[x]:
            seen[block_of(x)] = True
            count += 1
    return count


def _spy_on_extensions(monkeypatch) -> collections.Counter:
    """Count the calls of groups._extended per mask of the extended S."""
    calls = collections.Counter()
    extended = groups._extended

    def spy(S, seed):
        calls[S.mask] += 1
        return extended(S, seed)

    monkeypatch.setattr(groups, "_extended", spy)
    return calls


def test_lattice_extends_each_subgroup_once_per_double_coset(monkeypatch):
    calls = _spy_on_extensions(monkeypatch)
    names = catalog_names()
    total = 0
    for a, b in itertools.product(names, repeat=2):
        F, H = catalog_group(a), catalog_group(b)
        if F.order * H.order > SCAN_CAP:
            continue
        G = _fresh(direct_product(F, H).group)
        calls.clear()
        table = G.product
        for S in all_subgroups(G):
            s = np.array(S.elements)
            want = _joined_blocks(G, S, lambda x: table[table[s[:, None], x], s])
            assert calls[S.mask] == want, (G.label, S.order)
            total += want
    # 18 415 when every double coset was joined
    assert total == 16765


def test_normal_scan_extends_once_per_block(monkeypatch):
    calls = _spy_on_extensions(monkeypatch)
    S4 = symmetric(4)
    G = direct_product(S4, S4, max_order=576).group
    table, everyone = G.product, np.arange(G.order)
    for N in normal_subgroups(G):
        n = np.array(N.elements)
        want = _joined_blocks(G, N, lambda x: table[
            n[:, None], table[table[G.inverse, x], everyone]])
        assert calls[N.mask] == want, N.order


@pytest.mark.parametrize("F", [symmetric(4), alternating(5)],
                         ids=lambda F: F.label)
def test_normal_scan_above_the_lattice_cap_is_complete(F):
    """Members normal, every normal closure a member, members closed
    under products: together, exactly the normal subgroups.  The scan
    stays below a quarter of the table's bytes, which forming N·x^G·N
    (0.20 -> 3.1 MB on S4 x S4) or N times every conjugate, repeats
    included (0.82 MB), would not."""
    G = direct_product(F, F, max_order=F.order ** 2).group
    normal_subgroups(symmetric(3))  # any lazy import happens untraced
    G.product  # the scan reads the table, which is built on first read
    tracemalloc.start()
    try:
        normals = normal_subgroups(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.product.nbytes / 4
    masks = {N.mask for N in normals}
    gens = generating_sequence(G)
    for N in normals:
        n = np.array(N.elements)
        member = np.zeros(G.order, dtype=bool)
        member[n] = True
        for g in gens:
            assert member[G.product[G.product[G.inverse[g], n], g]].all()
    everyone = np.arange(G.order)
    seen = np.zeros(G.order, dtype=bool)
    for x in range(G.order):
        if not seen[x]:
            conjugates = G.product[G.product[G.inverse, x], everyone]
            seen[conjugates] = True
            assert subgroup_generated(G, conjugates.tolist()).mask in masks
    for A, B in itertools.combinations(normals, 2):
        if not (A.is_subset_of(B) or B.is_subset_of(A)):
            assert set_product(A, B).mask in masks


@settings(max_examples=25, deadline=None, derandomize=True)
@given(helpers.permutation_groups())
def test_scans_of_permutation_groups_match_the_references(G):
    assume(G.order <= SCAN_CAP)
    normals = normal_subgroups(G)
    assert [S.elements for S in all_subgroups(G)] == \
        helpers.join_scan_lattice(G)
    assert [N.elements for N in normals] == \
        [N.elements for N in helpers.lattice_normal_subgroups(G)]
    assert conjugacy_class_sizes(G).tolist() == helpers.brute_class_sizes(G)


def test_subgroup_membership_and_equality():
    G = dihedral(8)
    A = subgroup_generated(G, [1])
    B = subgroup_generated(G, [3])
    assert A == B
    assert 2 in A
    assert 4 not in A
    assert A.is_subset_of(G.full())


def test_validate_accepts_catalog():
    for G in (cyclic(5), symmetric(4), dihedral(12), alternating(4)):
        G.validate()


def test_validate_agrees_with_the_cubic_scan_on_reduced_latin_squares():
    """Every Latin square of order <= 6 with identity 0: validate, which
    tests (x*y)*s = x*(y*s) at the greedy generators s only, rejects
    exactly the non-associative ones, at a triple that fails and ends
    in a greedy generator, and stores nothing on the group."""
    tables = rejected = 0
    for n in range(1, 7):
        for table in helpers.reduced_latin_squares(n):
            tables += 1
            associative = helpers.brute_is_associative(table)
            G = FiniteGroup._trusted(np.array(table), "L")
            try:
                G.validate()
            except NotAGroup as error:
                rejected += 1
                assert not associative, table
                assert G._cache == {}, table
                assert str(error).startswith("associativity fails"), table
                x, y, s = _named(str(error))
                assert table[table[x][y]][s] != table[x][table[y][s]]
                assert s in helpers.right_step_generators(table)
            else:
                assert associative, table
    # the group tables among them, (n-1)!/|Aut G| per group G of order
    # n: 1, 1, 1, 3 + 1, 6 and 60 + 20
    assert (tables, tables - rejected) == (9471, 93)


def _order_8_groups() -> list:
    c4c2 = FiniteGroup._trusted(
        helpers.dense_product_table(cyclic(4), cyclic(2)), "C4xC2")
    return [cyclic(8), c4c2, elementary_abelian(2, 3), dihedral(8),
            quaternion8()]


@pytest.mark.parametrize("G", _order_8_groups(), ids=lambda G: G.label)
def test_checked_subgroup_agrees_with_the_brute_test(G):
    """Every subset with the identity: Subgroup accepts exactly the
    subgroups, and seeds their greedy generators."""
    for bits in range(1 << (G.order - 1)):
        elems = [0] + [x for x in range(1, G.order) if bits >> (x - 1) & 1]
        want = helpers.brute_is_subgroup(G, elems)
        try:
            S = Subgroup(G, elems)
        except ValueError as error:
            assert not want, elems
            assert "not closed under products" in str(error)
        else:
            assert want, elems
            assert S.elements == tuple(elems)
            assert S._cache["gens"] == \
                helpers.greedy_generating_sequence(G, elems)


@pytest.mark.parametrize("G", _deferred_products(), ids=lambda G: G.label)
def test_checked_subgroup_of_a_product_leaves_its_table_unbuilt(G):
    """The check walks in the factors' tables: every subgroup of a
    product whose table is not built passes, and each nontrivial proper
    one grown by an element outside it fails, with the table still
    unbuilt."""
    lattice = _lattice(G)
    outside = {S.mask: next(x for x in range(G.order) if x not in S)
               for S in lattice if 1 < S.order < G.order}
    for S in lattice:
        assert Subgroup(G, S.elements) == S
        if S.mask in outside:
            with pytest.raises(ValueError, match="not closed"):
                Subgroup(G, S.elements + (outside[S.mask],))
    assert type(G) is groups._DeferredTable
    for S in lattice:
        assert helpers.brute_is_subgroup(G, S.elements)


def _perturbed(values, size):
    """Every copy of values with one entry changed to another of
    range(size)."""
    for x in range(len(values)):
        for v in range(size):
            if v != values[x]:
                yield [*values[:x], v, *values[x + 1:]]


def _assert_step_test_matches(G, build, values, size, times):
    """build(values) accepts exactly the maps the all-pairs test
    accepts; the pair a rejection names fails, with a greedy generator
    second."""
    gens = helpers.greedy_generating_sequence(G)
    for image in _perturbed(values, size):
        want = helpers.brute_is_hom(G, image, times)
        try:
            build(image)
        except ValueError as error:
            assert not want, image
            if image[0] != 0:
                assert "identity must map to identity" in str(error)
                continue
            a, s = _named(str(error))
            assert image[G.product[a, s]] != times(image[a], image[s])
            assert s in gens
        else:
            assert want, image


@pytest.mark.parametrize("G", [symmetric(3), dihedral(8), quaternion8(),
                               alternating(4)], ids=lambda G: G.label)
def test_group_hom_step_test_matches_the_pairs_test(G):
    homs = automorphisms(G) + [quotient_group(G, N)[1]
                               for N in normal_subgroups(G)]
    for f in homs:
        H = f.codomain
        _assert_step_test_matches(
            G, lambda image: GroupHom(G, H, image), f.image.tolist(),
            H.order, lambda a, b: int(H.product[a, b]))


@pytest.mark.parametrize("G", [cyclic(4), symmetric(3), dihedral(8),
                               elementary_abelian(2, 2)],
                         ids=lambda G: G.label)
def test_cyclic_hom_step_test_matches_the_pairs_test(G):
    for m in (2, 3, 4):
        for f in enumerate_homs(G, m):
            _assert_step_test_matches(
                G, lambda values: CyclicHom(G, m, values), f.values.tolist(),
                m, lambda a, b: (a + b) % m)


def test_validate_memoises_only_a_passing_scan():
    bad = FiniteGroup._trusted(np.array([[0, 1], [1, 1]]), "bad")
    for _ in range(2):
        with pytest.raises(NotAGroup, match="row 1"):
            bad.validate()
    assert "validated" not in bad._cache
    G = cyclic(5)
    G.validate()
    assert "validated" in G._cache


def test_group_product_array_shape():
    G = symmetric(3)
    assert G.product.shape == (6, 6)
    assert G.product.dtype == np.int32
    assert int(G.inverse[0]) == 0


def test_memoised_stores_none_and_keys_extra_arguments():
    calls = []

    @memoised("probe")
    def probe(obj, *args):
        calls.append(args)
        return None

    box = types.SimpleNamespace(_cache={})
    assert probe(box) is None
    assert probe(box) is None
    probe(box, 3)
    probe(box, 3)
    S = cyclic(4).full()
    probe(box, S)
    probe(box, cyclic(4).full())
    assert calls == [(), (3,), (S,)]
    assert set(box._cache) == {"probe", ("probe", 3), ("probe", S.mask)}
    with pytest.raises(TypeError):
        probe(box, Y=S)
    with pytest.raises(TypeError):
        probe(box, 3, 4)


_S3 = symmetric(3)
_C6 = cyclic(6)
_DIAG = diagonal(_S3)
_MEMOISED_CALLS = {
    "element_orders": lambda: _S3.element_orders(),
    "exponent": lambda: _S3.exponent(),
    "is_abelian": lambda: _S3.is_abelian,
    "full": lambda: _S3.full(),
    "trivial": lambda: _S3.trivial(),
    "as_group": lambda: _DIAG.as_group(),
    "commutator_subgroup": lambda: commutator_subgroup(_S3),
    "center": lambda: center(_S3),
    "generating_sequence": lambda: generating_sequence(_S3),
    "has_cyclic_sylows": lambda: has_cyclic_sylows(_S3),
    "abelianization": lambda: abelianization(_S3),
    "conjugacy_classes": lambda: conjugacy_classes(_S3),
    "conjugacy_class_sizes": lambda: conjugacy_class_sizes(_S3),
    "automorphisms": lambda: automorphisms(_S3),
    "mutual_commutator": lambda: mutual_commutator(_DIAG, _DIAG),
    "subgroup_quotient": lambda: subgroup_quotient(_S3.full(),
                                                   commutator_subgroup(_S3)),
    "abelian_invariants": lambda: abelian_invariants(_C6),
    "obstruction_quotient": lambda: obstruction_quotient(_S3, _S3.full()),
    "interned": lambda: interned(_S3, 0b11001),  # A3 = {0, 3, 4}
    "all_subgroups": lambda: all_subgroups(_S3),
    "normal_subgroups": lambda: normal_subgroups(_S3),
    "projections_kernels": lambda: projections_kernels(_DIAG),
    "goursat_quintuple": lambda: goursat_quintuple(_DIAG),
    "contains_twisted_diagonal": lambda: contains_twisted_diagonal(_DIAG),
    "kernel_commutator_data": lambda: kernel_commutator_data(_DIAG),
    "enumerate_homs": lambda: enumerate_homs(_DIAG, 2),
}


@pytest.mark.parametrize("name", sorted(_MEMOISED_CALLS))
def test_memoised_function_returns_the_same_object(name):
    call = _MEMOISED_CALLS[name]
    assert call() is call()
