"""The verify sweep's shared state: interned composites and case counts."""

import dataclasses
import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import helpers

import subdirect.extensibility as extensibility
import subdirect.homoracle as homoracle
import subdirect.products as products
import subdirect.verification as verification
from subdirect import (
    CheckContext,
    CyclicHom,
    FiniteGroup,
    GroupHom,
    Subgroup,
    alternating,
    catalog_group,
    diagonal,
    dihedral,
    run_checks,
    star_product,
)
from subdirect.products import ProductGroup
from subdirect.specs import load_group
from subdirect.verification import check_fiber_uniformity


@pytest.fixture(scope="module")
def ctx():
    return CheckContext([catalog_group(n) for n in ("C2", "C3", "S3")])


def test_star_matches_star_product(ctx):
    """Block composites and star_product against the dict loop."""
    for U, V, W in ctx.composable_triples():
        want = helpers.dict_loop_composite(U, V)
        assert set(W.elements) == want
        assert star_product(U, V) is W


def test_star_of_subdirects_is_the_enumerated_object(ctx):
    for F in ctx.groups:
        for G in ctx.groups:
            for H in ctx.groups:
                targets = ctx.subdirects(F, H)
                for U in ctx.subdirects(F, G):
                    for V in ctx.subdirects(G, H):
                        W = star_product(U, V)
                        assert any(W is T for T in targets)


@pytest.mark.parametrize("name", ["C4", "S3"])
def test_star_of_lattice_subgroups_is_the_lattice_object(name):
    G = catalog_group(name)
    ctx = CheckContext([G])
    lattice = ctx.lattice(G, G)
    for U in lattice:
        for V in lattice:
            W = star_product(U, V)
            assert any(W is T for T in lattice)


def test_context_keeps_no_subgroup_tables():
    """The one state a context holds besides its selection is the packed
    blocks of composable triples: rows and the subgroup lists they
    compose, no table from masks to subgroups."""
    ctx = CheckContext([catalog_group("C2"), catalog_group("S3")])
    assert list(ctx.composable_triples())
    assert set(vars(ctx)) == {"groups", "product_cap", "triple_rows"}
    assert len(ctx.triple_rows) == 8
    for home, Us, Vs, rows in ctx.triple_rows:
        assert isinstance(home, FiniteGroup)
        assert type(Us) is list and type(Vs) is list
        assert all(type(S) is Subgroup for S in Us + Vs)
        assert rows.dtype == np.uint8
        assert rows.shape == (len(Us), len(Vs), (home.order + 7) // 8)


def test_star_outside_the_context_is_fresh():
    D = diagonal(catalog_group("S3"))
    W = star_product(D, D)
    assert W == D and W is not D


# Case counts of every check on C2, C3, S3, recorded before composites
# were interned; sharing subgroups must not change what is checked.
CASE_COUNTS = {
    "group-axioms": 12,
    "normal-product-commutator": 11,
    "quotient-commutator": 7,
    "abelianization-order": 3,
    "isomorphism-equivalence": 39,
    "goursat-roundtrip": 139,
    "product-order-identity": 139,
    "commutator-projection": 139,
    "kernel-commutator-chain": 139,
    "enumeration-vs-scan": 9,
    "star-monotonicity": 3832,
    "section-relation": 171,
    "cyclic-sylow-functoriality": 171,
    "twisted-kernel-transport": 90,
    "side-symmetry": 21,
    "oracle-agreement": 37,
    "sufficiency-soundness": 21,
    "obstruction-soundness": 37,
    "twisted-kernel-identity": 13,
    "star-preservation": 17,
    "star-kernel-sections": 17,
    "report-methods": 21,
    "hom-count-identity": 14,
    "raw-enumerator-agreement": 15,
    "restriction-kernel": 21,
    "fiber-uniformity": 21,
    "coefficient-stabilization": 37,
    "record-roundtrip": 21,
}


def test_case_counts_small_selection():
    ctx = CheckContext([catalog_group(n) for n in ("C2", "C3", "S3")])
    results = run_checks(ctx)
    assert {r.name: r.checked for r in results} == CASE_COUNTS
    for res in results:
        assert res.passed, res.line()
        assert res.seconds > 0


def test_each_check_is_registered_once_under_its_function_name():
    names = [r.name for r in run_checks(CheckContext([]))]
    assert len(names) == len(set(names)) == len(verification.ALL_CHECKS)
    for name, check in zip(names, verification.ALL_CHECKS):
        assert check.__name__ == "check_" + name.replace("-", "_")
        assert [r.name for r in run_checks(CheckContext([]), [name])] == [name]


def _reachable_caches(roots) -> list:
    """The _cache dicts of every group and subgroup reachable from roots
    through memoised values, products and homomorphisms."""
    seen, stack, caches = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (FiniteGroup, Subgroup)):
            caches.append(obj._cache)
            stack.extend(obj._cache.values())
            stack.append(getattr(obj, "parent", None))
        elif isinstance(obj, ProductGroup):
            stack += [obj.left, obj.right, obj.group]
        elif isinstance(obj, GroupHom):
            stack += [obj.domain, obj.codomain]
        elif isinstance(obj, CyclicHom):
            stack.append(obj.domain)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif dataclasses.is_dataclass(obj):
            stack.extend(vars(obj).values())
    return caches


def test_memo_keys_are_strings_masks_and_ints(ctx):
    """Every memo key is a str, or a str followed by ints; the one
    exception is the product builder's ("product", H)."""
    run_checks(ctx)
    keys = [key for cache in _reachable_caches(ctx.groups) for key in cache]
    for key in keys:
        if isinstance(key, str):
            continue
        assert isinstance(key, tuple) and isinstance(key[0], str), key
        if key[0] == "product":
            assert len(key) == 2 and isinstance(key[1], FiniteGroup), key
        else:
            assert all(type(k) is int for k in key[1:]), key
    seen = {key[0] for key in keys if isinstance(key, tuple)}
    assert {"product", "commutator", "quotient", "hom_count"} <= seen


def test_fiber_uniformity_builds_one_matrix_per_case(monkeypatch):
    """One matrix per distinct (U, m), memoised on U: the restriction
    fibers of restriction-kernel's cases are fiber-uniformity's.  The
    groups are fresh, as the catalog's are shared by the whole process."""
    built = []
    real = homoracle._restriction_matrix

    def counted(U, m):
        built.append((U.parent.label, U.mask, m))
        return real(U, m)

    monkeypatch.setattr(homoracle, "_restriction_matrix", counted)
    ctx = CheckContext([load_group(n) for n in ("C2", "C3", "S3")])
    result = check_fiber_uniformity(ctx)
    assert result.passed
    assert len(built) == len(set(built)) == result.checked \
        == CASE_COUNTS["fiber-uniformity"]
    for res in run_checks(ctx, ["restriction-kernel", "fiber-uniformity"]):
        assert res.passed, res.line()
    assert len(built) == CASE_COUNTS["fiber-uniformity"]


COMPOSING_CHECKS = ("star-monotonicity", "section-relation",
                    "cyclic-sylow-functoriality", "twisted-kernel-transport",
                    "star-preservation")


def test_composing_checks_compose_once_per_block(monkeypatch):
    ctx = CheckContext([catalog_group(n) for n in ("C2", "C3", "S3")])
    blocks = []
    real_compose = verification.compose_relations
    real_chunks = verification.compose_chunks

    def compose(Us, Vs):
        blocks.append(len(Us) * len(Vs))
        return real_compose(Us, Vs)

    def chunks(Us, Vs):
        blocks.append(len(Us) * len(Vs))
        return real_chunks(Us, Vs)

    checked = []
    real_init = Subgroup.__init__

    def init(self, parent, elements):
        real_init(self, parent, elements)
        if parent.product_info is not None:
            checked.append(self)

    monkeypatch.setattr(verification, "compose_relations", compose)
    monkeypatch.setattr(verification, "compose_chunks", chunks)
    monkeypatch.setattr(Subgroup, "__init__", init)
    for res in run_checks(ctx, COMPOSING_CHECKS[:4]):
        assert res.passed, res.line()
    # One block per (F, G, H), composed once for the three checks that
    # read it, one lattice block per square in star-monotonicity,
    # streamed, and one block of diagonal pairs per square in
    # twisted-kernel-transport, whose other cases are the single
    # subgroups that twisted-kernel-identity also counts.
    assert len(blocks) == 27 + 3 + 3
    assert sum(blocks) == (CASE_COUNTS["star-monotonicity"]
                           + CASE_COUNTS["twisted-kernel-transport"]
                           - CASE_COUNTS["twisted-kernel-identity"])
    assert checked == []

    del blocks[:]
    res = run_checks(ctx, ["star-preservation"])[0]
    assert res.passed and res.checked == CASE_COUNTS["star-preservation"]
    assert len(blocks) == 3 and sum(blocks) == res.checked


def test_star_checks_reuse_the_block_composite(monkeypatch):
    calls = []
    real = products.star_product

    def counted(U, V):
        calls.append((U, V))
        return real(U, V)

    monkeypatch.setattr(products, "star_product", counted)
    monkeypatch.setattr(extensibility, "star_product", counted)
    ctx = CheckContext([catalog_group(n) for n in ("C2", "C3", "S3")])
    names = ["star-preservation", "star-kernel-sections"]
    for res in run_checks(ctx, names):
        assert res.passed, res.line()
        assert res.checked == CASE_COUNTS[res.name]
    assert calls == []


def _planted_block(monkeypatch, ctx, mask: int) -> None:
    """Make ctx's one block of composable triples (C2 x C2 full) * (C2 x
    C2 full) with the composite row of the given mask, and sweep no
    lattice."""
    C2 = ctx.groups[0]
    full = ctx.lattice(C2, C2)[-1]
    assert full.is_whole and full.parent.order == 4
    rows = np.array([[[mask]]], dtype=np.uint8)
    monkeypatch.setattr(ctx, "triple_blocks",
                        lambda: [(full.parent, [full], [full], rows)])
    monkeypatch.setattr(ctx, "squares", lambda: [])


def test_star_monotonicity_failure_names_its_groups(monkeypatch):
    ctx = CheckContext([catalog_group("C2")])
    # A composite that loses k1, the trivial subgroup: the block must
    # report the case.
    _planted_block(monkeypatch, ctx, 0b0001)
    result = verification.check_star_monotonicity(ctx)
    assert not result.passed and result.checked == 1
    assert result.failures == [
        "Subgroup(order=4 of C2xC2), Subgroup(order=4 of C2xC2), "
        "Subgroup(order=1 of C2xC2): k1(U) not inside k1(U*V)"]


def test_star_monotonicity_fails_a_composite_that_is_no_subgroup(
        monkeypatch):
    ctx = CheckContext([catalog_group("C2")])
    _planted_block(monkeypatch, ctx, 0b0110)  # no identity
    result = verification.check_star_monotonicity(ctx)
    assert not result.passed and result.checked == 1
    assert result.failures == [
        "Subgroup(order=4 of C2xC2), Subgroup(order=4 of C2xC2): "
        "U*V is no subgroup interned on C2xC2"]


def _swap_full_and_trivial(rows: np.ndarray, order: int) -> np.ndarray:
    """A planted fault in composite rows over a home of the given order:
    every composite that is the whole home becomes the trivial subgroup
    and every trivial one the whole home, both interned on every group."""
    bits = np.unpackbits(rows, axis=-1, bitorder="little")
    whole = bits[..., :order].all(axis=-1)
    trivial = (bits[..., 0] == 1) & (bits.sum(axis=-1) == 1)
    bits[whole] = 0
    bits[whole, 0] = 1
    bits[trivial, :order] = 1
    return np.packbits(bits, axis=-1, bitorder="little")


def _home_order(Us, Vs) -> int:
    return Us[0].parent.product_info.left.order \
        * Vs[0].parent.product_info.right.order


@pytest.mark.parametrize("names", [("C2", "C3", "S3"), ("C2xC4",)],
                         ids="-".join)
@pytest.mark.parametrize("planted", [False, True])
def test_star_monotonicity_blocks_match_the_per_case_probe(monkeypatch,
                                                           names, planted):
    """The block arrays count and fail the same cases, in the same order,
    as the per-case probe over the same composites, the triples first,
    then each scanned square's lattice with itself."""
    if planted:
        compose = verification.compose_relations
        chunks = verification.compose_chunks
        monkeypatch.setattr(verification, "compose_relations",
                            lambda Us, Vs: _swap_full_and_trivial(
                                compose(Us, Vs), _home_order(Us, Vs)))
        monkeypatch.setattr(verification, "compose_chunks", lambda Us, Vs: (
            (lo, _swap_full_and_trivial(rows, _home_order(Us, Vs)))
            for lo, rows in chunks(Us, Vs)))
    ctx = CheckContext([load_group(n) for n in names])
    lattices = [ctx.lattice(G, G) for G in ctx.squares()
                if G.order * G.order <= verification.SCAN_CAP]
    cases = itertools.chain(ctx.composable_triples(), *(
        ctx.star_block(lattice, lattice) for lattice in lattices))
    want = verification._run("star-monotonicity", verification._probe_each(
        cases, helpers.star_monotonicity_probe))
    got = verification.check_star_monotonicity(ctx)
    assert (got.checked, got.failures) == (want.checked, want.failures)
    assert got.checked == (CASE_COUNTS["star-monotonicity"]
                           if names[0] == "C2" else 249 ** 2 + 32 ** 2)
    assert bool(got.failures) == planted
    if planted:
        reasons = {line.rsplit(": ", 1)[1] for line in got.failures}
        assert reasons == {"k1(U) not inside k1(U*V)",
                           "p1(U*V) not inside p1(U)"}


def test_star_monotonicity_holds_no_lattice_block(monkeypatch):
    """The C2xC4 lattice block, 249 x 249 composites, is composed chunk
    by chunk: the sweep never holds half of the packed block, and
    keeps none of it."""
    budget = 1 << 12
    monkeypatch.setattr(products, "COMPOSE_BUDGET", budget)
    G = load_group("C2xC4")
    ctx = CheckContext([G])
    lattice = ctx.lattice(G, G)
    assert len(lattice) == 249
    packed = len(lattice) ** 2 * (G.order ** 2 // 8)
    verification.check_star_monotonicity(ctx)  # memoises U's kernels
    tracemalloc.start()
    try:
        result = verification.check_star_monotonicity(ctx)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed and result.checked == 249 ** 2 + 32 ** 2
    assert peak < packed / 2
    assert held < packed / 32


def test_checks_and_case_counts_match_the_benchmark_answers():
    """The verify-catalog benchmark rejects a run whose check names or
    case counts differ from perfbench/expected.json; this fails first."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "expected.json")
    want = json.loads(path.read_text())["verify-catalog"]
    ctx = CheckContext([load_group(name) for name in want["groups"]])
    results = [check(ctx) for check in verification.ALL_CHECKS]
    assert [(r.name, r.checked) for r in results] == list(
        want["checks"].items())
    assert [r.name for r in results if not r.passed] == []


def test_the_largest_swept_lattices_pass_their_checks():
    """A4 x A4, A4 x D12, D12 x A4 and D12 x D12 have order 144, the
    largest lattices that verify sweeps: 1800 subgroups in all."""
    ctx = CheckContext([alternating(4), dihedral(12)])
    results = run_checks(ctx, ["goursat-roundtrip", "product-order-identity",
                               "commutator-projection", "enumeration-vs-scan"])
    assert [(r.name, r.passed, r.checked) for r in results] == [
        ("goursat-roundtrip", True, 1800),
        ("product-order-identity", True, 1800),
        ("commutator-projection", True, 1800),
        ("enumeration-vs-scan", True, 4),
    ]
