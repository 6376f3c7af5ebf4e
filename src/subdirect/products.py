"""Direct products, Goursat data and the composition of product subgroups.

A subgroup U of G x H is stored as a plain :class:`Subgroup` of the
product group; the pair (g, h) lives at index g * |H| + h.  The product
group keeps a back reference to its factors so that projections and
kernels can be recovered from U alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    FactorMismatch,
    InvalidQuintuple,
    NotAutomorphism,
    NotNormal,
    NotSubdirect,
    OrderLimitExceeded,
)
from .groups import (
    DEFAULT_PRODUCT_CAP,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _DeferredTable,
    _coset_minima,
    _interned_table,
    _mask_of,
    _quotient,
    all_subgroups,
    generating_sequence,
    identity_hom,
    interned,
    isomorphism_class,
    isomorphisms_iter,
    memoised,
    normal_subgroups,
    subgroup_generators,
    subgroup_quotient,
)


@dataclass(frozen=True)
class ProductGroup:
    """A direct product together with its factor bookkeeping."""

    left: FiniteGroup
    right: FiniteGroup
    group: FiniteGroup

    def encode(self, g: int, h: int) -> int:
        return g * self.right.order + h

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(int(x), self.right.order)

    def split(self, elements: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Left and right factor indices of product elements, as arrays."""
        return np.divmod(np.asarray(elements), self.right.order)

    def table(self) -> np.ndarray:
        """The dense |G·H|^2 table of ``group``, read-only, which the group
        builds from this on the first read of its ``product``."""
        G, H = self.left, self.right
        gn, hn = G.order, H.order
        # (g, h) * (g', h') at [g, h, g', h'], filled in place: no n x n
        # intermediate besides the table itself
        table = np.empty((gn, hn, gn, hn), dtype=G.product.dtype)
        np.multiply(G.product[:, None, :, None], hn, out=table)
        table += H.product[None, :, None, :]
        table = table.reshape(gn * hn, gn * hn)
        table.setflags(write=False)
        return table


def direct_product(G: FiniteGroup, H: FiniteGroup, *,
                   max_order: int = DEFAULT_PRODUCT_CAP) -> ProductGroup:
    """G x H; above the cap, built or not, raises OrderLimitExceeded."""
    n = G.order * H.order
    if n > max_order:
        raise OrderLimitExceeded(f"product order {n} above cap {max_order}")
    return _product(G, H)


@memoised("product")
def _product(G: FiniteGroup, H: FiniteGroup) -> ProductGroup:
    """G x H with no cap, memoised on G per right factor H, so it lives as
    long as G: the products the library derives from groups it has.  The
    group gets its inverses from the factors' and its table only when
    something reads it, see :meth:`ProductGroup.table`."""
    inverse = (G.inverse[:, None] * H.order + H.inverse).ravel()
    inverse.setflags(write=False)
    group = _DeferredTable(G.order * H.order, inverse, f"{G.label}x{H.label}")
    product = ProductGroup(G, H, group)
    group.product_info = product
    return product


def product_of(U: Subgroup) -> ProductGroup:
    info = U.parent.product_info
    if info is None:
        raise ValueError("subgroup does not live in a direct product")
    return info


@dataclass(frozen=True)
class ProjectionData:
    """Projections and kernels of a product subgroup, both sides."""

    p1: Subgroup
    k1: Subgroup
    p2: Subgroup
    k2: Subgroup


@memoised("projections")
def projections_kernels(U: Subgroup) -> ProjectionData:
    """The four factor subgroups of U, from one pass over its pairs,
    interned on their factor, so subgroups with a common section share
    them and their memos."""
    info = product_of(U)
    hn = info.right.order
    p1 = k1 = p2 = k2 = 0
    for x in U.elements:
        g, h = divmod(x, hn)
        p1 |= 1 << g
        p2 |= 1 << h
        if not h:
            k1 |= 1 << g
        if not g:
            k2 |= 1 << h
    return ProjectionData(interned(info.left, p1), interned(info.left, k1),
                          interned(info.right, p2), interned(info.right, k2))


def is_subdirect(U: Subgroup) -> bool:
    d = projections_kernels(U)
    return d.p1.is_whole and d.p2.is_whole


def require_subdirect(U: Subgroup) -> None:
    """Raise NotSubdirect unless both projections of U are onto."""
    if not is_subdirect(U):
        d = projections_kernels(U)
        raise NotSubdirect(
            f"projections have orders {d.p1.order} and {d.p2.order}")


# -- Goursat data -------------------------------------------------------------


@dataclass(frozen=True)
class GoursatQuintuple:
    """The five-piece description of a product subgroup: ``phi`` is the
    induced isomorphism between the memoised :func:`subgroup_quotient`
    groups p1/k1 and p2/k2."""

    p1: Subgroup
    k1: Subgroup
    p2: Subgroup
    k2: Subgroup
    phi: GroupHom


@memoised("quintuple")
def goursat_quintuple(U: Subgroup) -> GoursatQuintuple:
    d = projections_kernels(U)
    _, to_q1 = subgroup_quotient(d.p1, d.k1)
    _, to_q2 = subgroup_quotient(d.p2, d.k2)
    gs, hs = product_of(U).split(U.elements)
    return _checked_quintuple(d.p1, d.k1, d.p2, d.k2, to_q1[gs], to_q2[hs])


def _checked_quintuple(p1: Subgroup, k1: Subgroup, p2: Subgroup, k2: Subgroup,
                       cosets1, cosets2) -> GoursatQuintuple:
    """The quintuple whose phi, checked to be a bijective hom, maps coset
    cosets1[i] of p1/k1 to coset cosets2[i] of p2/k2, listing all of p1/k1."""
    q1, _ = subgroup_quotient(p1, k1)
    q2, _ = subgroup_quotient(p2, k2)
    image = np.full(q1.order, -1, dtype=np.int64)
    image[cosets1] = cosets2
    try:
        phi = GroupHom(q1, q2, image)
    except ValueError as exc:
        raise InvalidQuintuple(str(exc)) from exc
    if not phi.is_bijective:
        raise InvalidQuintuple("coset map is not bijective")
    return GoursatQuintuple(p1, k1, p2, k2, phi)


def goursat_quotient(U: Subgroup) -> FiniteGroup:
    """p1(U) / k1(U), the section common to both sides."""
    return goursat_quintuple(U).phi.domain


def make_quintuple(p1: Subgroup, k1: Subgroup, p2: Subgroup, k2: Subgroup,
                   phi_pairs: Sequence[tuple[int, int]]) -> GoursatQuintuple:
    """Build and validate Goursat data from raw subgroups and coset pairs.

    ``phi_pairs`` lists pairs (g, h) of factor elements meaning that the
    coset g*k1 maps to h*k2; every coset of k1 in p1 must be covered.
    The four subgroups come back as their factor's interned objects, the
    ones :func:`projections_kernels` gives.
    """
    if not (k1.is_subset_of(p1) and k2.is_subset_of(p2)):
        raise InvalidQuintuple("kernels must sit inside the projections")
    p1, k1, p2, k2 = (interned(S.parent, S.mask, None, S.elements)
                      for S in (p1, k1, p2, k2))
    try:
        q1, to_q1 = subgroup_quotient(p1, k1)
        q2, to_q2 = subgroup_quotient(p2, k2)
    except NotNormal as exc:
        raise InvalidQuintuple(str(exc)) from exc
    if q1.order != q2.order:
        raise InvalidQuintuple("quotients have different orders")
    cosets: dict = {}
    for g, h in phi_pairs:
        if not (0 <= g < p1.parent.order and g in p1):
            raise InvalidQuintuple(f"{g} is not in the left projection")
        if not (0 <= h < p2.parent.order and h in p2):
            raise InvalidQuintuple(f"{h} is not in the right projection")
        b = int(to_q2[h])
        if cosets.setdefault(int(to_q1[g]), b) != b:
            raise InvalidQuintuple("coset map is ill defined")
    if len(cosets) != q1.order:
        raise InvalidQuintuple("coset map does not cover every coset")
    return _checked_quintuple(p1, k1, p2, k2, list(cosets),
                              list(cosets.values()))


def subgroup_from_quintuple(quint: GoursatQuintuple) -> Subgroup:
    """The subgroup {(g, h) : phi(g k1) = h k2}, interned on the factor
    product once its order checks out.  It maps onto p1 with kernel
    1 x k2, so a lift of each generator of p1 and (1, k) for each
    generator k of k2 generate it: its generators when first interned.

    The quintuple must be checked, with the factors' interned subgroups,
    as :func:`make_quintuple`, the enumeration and
    :func:`goursat_quintuple` build it.  A new object is interned with
    its elements, its generators, its projections and kernels (p1, k1,
    p2, k2) and the quintuple itself as memos, so its analysis need not
    derive them again; one already interned keeps its own memos."""
    info = _product(quint.p1.parent, quint.p2.parent)
    _, to_q1 = subgroup_quotient(quint.p1, quint.k1)
    _, to_q2 = subgroup_quotient(quint.p2, quint.k2)
    gs = np.array(quint.p1.elements)
    hs = np.array(quint.p2.elements)
    want = quint.phi.image[to_q1[gs]]
    match = want[:, None] == to_q2[hs][None, :]
    if np.count_nonzero(match) != quint.p1.order * quint.k2.order:
        raise InvalidQuintuple("order bookkeeping failed")
    elements = tuple(info.encode(gs[:, None], hs[None, :])[match].tolist())
    g = np.array(subgroup_generators(quint.p1), dtype=np.int64)
    h = hs[match[np.searchsorted(gs, g)].argmax(axis=1)]
    k = np.array(subgroup_generators(quint.k2), dtype=np.int64)
    gens = (*info.encode(g, h).tolist(), *info.encode(0, k).tolist())
    memos = {"quintuple": quint,
             "projections": ProjectionData(quint.p1, quint.k1,
                                           quint.p2, quint.k2)}
    return interned(info.group, _mask_of(elements), gens, elements, memos)


# -- enumeration ---------------------------------------------------------------


def enumerate_subdirect(G: FiniteGroup, H: FiniteGroup, *,
                        max_order: int = DEFAULT_PRODUCT_CAP) -> list:
    """All subgroups of G x H with both projections surjective, sorted by
    element tuple: a fresh list of the product's interned objects.

    Each comes from a checked Goursat quintuple (G, K, H, L, phi), one
    per isomorphism phi of G/K onto H/L; one first interned here carries
    that quintuple and its projections, see
    :func:`subgroup_from_quintuple`."""
    return list(_subdirects(direct_product(G, H, max_order=max_order).group))


@memoised("subdirects")
def _subdirects(P: FiniteGroup) -> tuple:
    """One Goursat subgroup per isomorphism between quotients G/K, H/L."""
    G, H = P.product_info.left, P.product_info.right
    by_K = [(K, subgroup_quotient(G.full(), K)[0]) for K in normal_subgroups(G)]
    by_L = [(L, subgroup_quotient(H.full(), L)[0]) for L in normal_subgroups(H)]
    subs = {subgroup_from_quintuple(_checked_quintuple(
                G.full(), K, H.full(), L, np.arange(QG.order), iso.image))
            for K, QG in by_K for L, QH in by_L
            if QG.order == QH.order for iso in isomorphisms_iter(QG, QH)}
    return tuple(sorted(subs, key=lambda s: s.elements))


def subdirect_by_scan(G: FiniteGroup, H: FiniteGroup) -> list:
    """Subdirect subgroups by filtering the full lattice of G x H.

    Exhaustive and slow; kept as the independent cross-check for
    :func:`enumerate_subdirect`.  The product is capped at its default
    order and the lattice scan at its subgroup count.
    """
    P = direct_product(G, H).group
    return [U for U in all_subgroups(P) if is_subdirect(U)]


# -- composition ---------------------------------------------------------------


# Largest float32 product (elements) one chunk of compose_chunks forms.
COMPOSE_BUDGET = 1 << 20


def _relation_tensor(subs: Sequence[Subgroup], rows: int,
                     cols: int) -> np.ndarray:
    """Stack subgroups of a rows x cols product as 0/1 relation matrices."""
    tensor = np.zeros((len(subs), rows * cols), dtype=np.float32)
    for i, S in enumerate(subs):
        tensor[i, S.elements] = 1
    return tensor.reshape(len(subs), rows, cols)


def compose_relations(Us: Sequence[Subgroup],
                      Vs: Sequence[Subgroup]) -> np.ndarray:
    """Relation composites of every U <= F x G in Us with every V <= G x H.

    Returns a uint8 array of shape (len(Us), len(Vs), bytes): entry
    [i, j] is the membership row of Us[i] * Vs[j] in element order
    f * |H| + h, packed little-endian, so ``int.from_bytes(row, "little")``
    is the subgroup mask.  The rows are those of :func:`compose_chunks`.
    """
    out = None
    for lo, rows in compose_chunks(Us, Vs):
        if out is None:
            out = np.empty((len(Us), *rows.shape[1:]), dtype=np.uint8)
        out[lo:lo + len(rows)] = rows
    return out


def compose_chunks(Us: Sequence[Subgroup],
                   Vs: Sequence[Subgroup]) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`compose_relations` chunk by chunk: pairs (lo, rows), rows[i, j]
    being the packed row of Us[lo + i] * Vs[j].  All composites come from
    one matrix product, taken over chunks of Us of at most COMPOSE_BUDGET
    output elements, so a caller that streams the chunks holds one."""
    if not Us or not Vs:
        raise ValueError("nothing to compose")
    PU = product_of(Us[0])
    PV = product_of(Vs[0])
    if any(U.parent is not PU.group for U in Us) \
            or any(V.parent is not PV.group for V in Vs):
        raise ValueError("each side must live in a single product")
    if PU.right is not PV.left:
        raise FactorMismatch(
            f"middle factors differ: {PU.right.label} vs {PV.left.label}")
    fn, gn, hn = PU.left.order, PU.right.order, PV.right.order
    n, m = len(Us), len(Vs)
    right = _relation_tensor(Vs, gn, hn).transpose(1, 0, 2).reshape(gn, m * hn)
    step = max(1, COMPOSE_BUDGET // (fn * m * hn))
    for lo in range(0, n, step):
        yield lo, _composed(_relation_tensor(Us[lo:lo + step], fn, gn),
                            right, m, hn)


def _composed(left: np.ndarray, right: np.ndarray, m: int,
              hn: int) -> np.ndarray:
    """The packed composite rows of a chunk, its temporaries freed on
    return."""
    c, fn, gn = left.shape
    related = (left.reshape(c * fn, gn) @ right) > 0
    rows = related.reshape(c, fn, m, hn).transpose(0, 2, 1, 3)
    return np.packbits(rows.reshape(c, m, fn * hn), axis=-1,
                       bitorder="little")


def composite_subgroup(group: FiniteGroup, row: np.ndarray) -> Subgroup:
    """The subgroup whose packed membership row is row: the group's
    interned object, else a fresh build with its closure checked, which
    is not interned."""
    S = _interned_table(group).get(int.from_bytes(row, "little"))
    if S is None:
        S = Subgroup(group,
                     np.flatnonzero(np.unpackbits(row, bitorder="little")))
    return S


def packed_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """Masks of subsets of n elements as packed rows, shape (len(masks),
    bytes), in the byte order of :func:`compose_relations`."""
    size = (n + 7) // 8
    return np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks),
                         dtype=np.uint8).reshape(len(masks), size)


def interned_row_test(group: FiniteGroup) -> Callable[[np.ndarray], np.ndarray]:
    """A test of packed membership rows of group, shape (..., bytes) as
    :func:`compose_relations` gives them: which rows are the mask of a
    subgroup interned on group when the test was made, as a boolean
    array of the leading shape.  One sorted search, no loop over rows."""
    rows = packed_masks(list(_interned_table(group)), group.order)
    row = np.dtype((np.void, rows.shape[1]))
    known = np.sort(rows.view(row)[:, 0])

    def test(rows: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(rows).view(row)[..., 0]
        at = np.searchsorted(known, flat)
        return known[np.minimum(at, len(known) - 1)] == flat
    return test


def star_product(U: Subgroup, V: Subgroup) -> Subgroup:
    """Relation composition of U <= F x G and V <= G x H inside F x H."""
    row = compose_relations([U], [V])[0, 0]
    info = _product(product_of(U).left, product_of(V).right)
    return composite_subgroup(info.group, row)


def twisted_diagonal(G: FiniteGroup, phi: GroupHom) -> Subgroup:
    """{(g, phi(g))} inside G x G, generated by the lifts (g, phi(g)) of
    ``generating_sequence(G)``."""
    if phi.domain is not G or phi.codomain is not G or not phi.is_bijective:
        raise NotAutomorphism("twist must be an automorphism of G")
    info = _product(G, G)
    coded = info.encode(np.arange(G.order, dtype=np.int64), phi.image).tolist()
    gens = tuple(coded[g] for g in generating_sequence(G))
    return Subgroup._trusted(info.group, tuple(coded), None, gens)


def diagonal(G: FiniteGroup) -> Subgroup:
    return twisted_diagonal(G, identity_hom(G))


@memoised("twisted_diagonal")
def contains_twisted_diagonal(U: Subgroup) -> Optional[GroupHom]:
    """First automorphism phi (identity first) with (g, phi(g)) all in U,
    or None, memoised on U.  The search maps each generator g into U's
    row over g only; as U is a subgroup, all of phi's graph is then in U."""
    info = product_of(U)
    if info.left is not info.right:
        raise ValueError("both factors must be the same group")
    G, n = info.left, info.left.order
    return next(isomorphisms_iter(
        G, G, lambda g: (U.mask >> g * n) & ((1 << n) - 1)), None)


# -- sections ------------------------------------------------------------------


@memoised("sections")
def _section_catalogue(G: FiniteGroup) -> set:
    """Class ids of the sections S/N of G, from pairs N <= S of its
    subgroup lattice (at most SCAN_SUBGROUP_CAP) with N normal in S."""
    subgroups = all_subgroups(G)
    # unmemoised _quotient: the quotients must not stay alive on S
    return {isomorphism_class(_quotient(S, N, G.label)[0])
            for S in subgroups for N in subgroups
            if N.is_subset_of(S) and _coset_minima(S, N)[1]}


def is_section(Q: FiniteGroup, G: FiniteGroup) -> bool:
    """Is Q isomorphic to a quotient of a subgroup of G?"""
    if Q.order == 1:
        return True
    if G.order % Q.order:
        return False
    return isomorphism_class(Q) in _section_catalogue(G)

