"""Finite groups as dense multiplication tables over element indices.

Conventions used throughout the package:

* the elements of a group of order n are the indices 0..n-1 and the
  identity is pinned at index 0;
* ``product[a, b]`` is the index of a*b and ``inverse[a]`` of a**-1;
* subgroups are sorted index tuples with an integer bitmask fast path;
* permutations are tuples ``p`` with ``p[i]`` the image of ``i``, and
  the product ``p*q`` means "apply p, then q";
* every choice (coset representatives, generator order, search order)
  is deterministic, so repeated runs give identical objects.

Construction rule: the public constructors of ``FiniteGroup``,
``Subgroup``, ``GroupHom`` and ``CyclicHom`` check their input; the
library's own builds use ``_trusted``, the same fill with no check.
Checks stay at ``from_cayley_table``, ``specs``, ``make_quintuple``'s
coset pairs, composite misses and ``set_product`` (AB = BA).  Each
Goursat quintuple's induced map is checked once, where the quintuple is
built: in ``make_quintuple``, the subdirect enumeration or
``goursat_quintuple``.  Each check tests only the steps x -> x*s at
generators s (walk rule): a subgroup is its own closure, a map with
f(x*s) = f(x)*f(s) is a hom, a table with (x*y)*s = x*(y*s) associative.

Caps, each raising OrderLimitExceeded: a group a spec or closure asks
for and every ``direct_product`` stop above ``max_order`` (default
:data:`DEFAULT_PRODUCT_CAP`) before a table is built, while products
derived from groups the library has are uncapped; the lattice and
normal subgroup scans stop after :data:`SCAN_SUBGROUP_CAP` subgroups,
and a scan that stopped raises again at once when asked again.

Walk rule: :func:`_closure` is the one walk that generates subgroups,
commutator subgroups included.  It steps in factor coordinates, an
element of G x H as a pair in the tables of G and H and one of any
other group in its own table, so it never builds a product's table.
The checks above and the isomorphism search rest on one lemma: the c
at which a product rule holds for every x -> x*c are closed under
products (Light's test, for associativity), so a rule that holds at
each generator holds at each element the walk reaches.

Derived data such as element orders, conjugacy classes and the full
subgroup lattice is memoised in the ``_cache`` dict of the instance that
owns it.  :func:`memoised` is the one helper that reads those dicts, in
every module of the package; besides it, only :func:`interned` and
``Subgroup._trusted`` write to them, seeding a new subgroup with what
its build already knows.

Ownership rule: subgroups are interned on their group.  The
projections and kernels of a product subgroup, and the intersections
built from them, belong to a factor group, not to the one product
subgroup that produced them; :func:`interned` keeps one object per
mask on the factor, so their commutators and quotients, memoised on
them, are computed once per factor.  The lattice, the subdirect
enumeration and the Goursat construction intern product subgroups on
the product group, which keeps them; checked builds are fresh.  A
subgroup built from a Goursat quintuple is interned with its gens, its
projections and kernels and the quintuple, all of which belong to the
factors and none of which refers back to it.  Memo
keys are masks or ints, never a ``Subgroup`` or group object:
:func:`memoised` keys a ``Subgroup`` argument by its mask.  So nothing
memoised on a product subgroup refers back to it, and a fresh one is
freed by reference counting alone.  The one exception is the product
builder, keyed on its right factor, which the product refers to
anyway.  The module-level registry of :func:`isomorphism_class` is
never cleared: it gains one representative per new isomorphism class,
sharing the first group's table, and searches memoise its element
orders, class sizes and profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    InternalInconsistency,
    NotAGroup,
    NotNormal,
    OrderLimitExceeded,
)

_DTYPE = np.int32

DEFAULT_PRODUCT_CAP = 1296  # default max_order of every capped table
# Most subgroups one lattice or normal scan finds.  Fixed, not per call:
# both scans are memoised per group, so a per-call cap would make a
# scan's result depend on which call ran first.
SCAN_SUBGROUP_CAP = 1 << 15

# Longest sequence _mask_of ORs one bit at a time: below it the loop
# beats the array's fixed cost on groups of a few hundred elements.
_MASK_LOOP_LIMIT = 128

_MISSING = object()


def memoised(key: str):
    """Store ``fn(obj)`` in ``obj._cache`` under ``key``, or ``fn(obj, arg)``
    under ``(key, arg)``, a ``Subgroup`` arg keyed by its mask.  There is
    at most one argument after ``obj``, and no keyword argument."""
    def wrap(fn):
        @functools.wraps(fn)
        def cached(obj, arg=_MISSING, /):
            if arg is _MISSING:
                slot, args = key, ()
            else:
                slot = (key, arg.mask if type(arg) is Subgroup else arg)
                args = (arg,)
            value = obj._cache.get(slot, _MISSING)
            if value is _MISSING:
                value = obj._cache[slot] = fn(obj, *args)
            return value
        return cached
    return wrap


def _unchecked(cls, *args):
    """``cls._trusted``: the public constructor's fill, with no check."""
    obj = cls.__new__(cls)
    obj._fill(*args)
    return obj


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Instances are immutable after construction.  ``product_info`` is
    filled in by the product builder of :mod:`subdirect.products` when
    the group is built as a direct product, so subgroups of the product
    can recover the two factors.  Such a group starts without its table,
    as a :class:`_DeferredTable`.
    """

    __slots__ = ("order", "product", "inverse", "identity", "label",
                 "product_info", "_cache")
    _trusted = classmethod(_unchecked)

    def __init__(self, product: np.ndarray, label: str = "G"):
        self._fill(product, label)
        self.validate()

    def _fill(self, product: np.ndarray, label: str) -> None:
        table = np.ascontiguousarray(np.asarray(product, dtype=_DTYPE))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("multiplication table must be square")
        self.order = int(table.shape[0])
        if self.order == 0:
            raise NotAGroup("a group has at least one element")
        table.setflags(write=False)
        self.product = table
        self.identity = 0
        self.label = label
        self.product_info = None
        self._cache: dict = {}
        self.inverse = _inverse_table(table)

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    @memoised("orders")
    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        cur = np.arange(n)
        k = 1
        while (orders == 0).any():
            newly = (cur == 0) & (orders == 0)
            orders[newly] = k
            cur = self.product[cur, np.arange(n)]
            k += 1
        orders.setflags(write=False)
        return orders

    @memoised("exponent")
    def exponent(self) -> int:
        return math.lcm(*(int(o) for o in self.element_orders()))

    @property
    @memoised("abelian")
    def is_abelian(self) -> bool:
        return bool((self.product == self.product.T).all())

    @memoised("full")
    def full(self) -> "Subgroup":
        if self.order == 1:  # one object per mask, as interned keeps them
            return self.trivial()
        return Subgroup._trusted(self, tuple(range(self.order)),
                                 (1 << self.order) - 1)

    @memoised("trivial")
    def trivial(self) -> "Subgroup":
        return Subgroup._trusted(self, (0,), 1)

    # -- validation --------------------------------------------------------

    @memoised("validated")
    def validate(self) -> None:
        """Full axiom scan; raises NotAGroup with the failing witness.
        The table is read-only, so a passing scan is memoised; a failing
        one raises before anything is stored."""
        _check_axioms(self)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


class _DeferredTable(FiniteGroup):
    """A :class:`FiniteGroup` whose ``product`` slot is not yet filled.
    The first read of ``product`` stores ``product_info.table()`` in the
    slot and makes the group a plain FiniteGroup, whose reads of it are
    slot reads."""

    __slots__ = ()

    def __init__(self, order: int, inverse: np.ndarray, label: str):
        """No table yet; the builder sets ``product_info`` next."""
        self.order, self.inverse, self.identity = order, inverse, 0
        self.label, self.product_info, self._cache = label, None, {}

    @property
    def product(self) -> np.ndarray:
        table = self.product_info.table()
        FiniteGroup.product.__set__(self, table)
        self.__class__ = FiniteGroup
        return table


def _check_axioms(G: FiniteGroup) -> None:
    """The scan behind :meth:`FiniteGroup.validate`; associativity at the
    greedy generators of an unmemoised walk."""
    table, n = G.product, G.order
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroup(f"entry out of range at {tuple(int(x) for x in bad)}")
    want = np.arange(n)
    rows_ok = (np.sort(table, axis=1) == want).all(axis=1)
    if not rows_ok.all():
        raise NotAGroup(f"row {int(np.flatnonzero(~rows_ok)[0])} is not a permutation")
    cols_ok = (np.sort(table, axis=0) == want[:, None]).all(axis=0)
    if not cols_ok.all():
        raise NotAGroup(f"column {int(np.flatnonzero(~cols_ok)[0])} is not a permutation")
    if not (table[0] == want).all() or not (table[:, 0] == want).all():
        raise NotAGroup("identity is not at index 0")
    for s in _closure(G, range(n))[1]:
        col = table[:, s]
        left, right = col[table], table[:, col]  # (x*y)*s and x*(y*s)
        if not (left == right).all():
            x, y = (int(v) for v in np.argwhere(left != right)[0])
            raise NotAGroup(f"associativity fails at triple ({x}, {y}, {s})")


def _inverse_table(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    inv = np.empty(n, dtype=_DTYPE)
    rows, cols = np.nonzero(table == 0)
    inv[rows] = cols
    inv.setflags(write=False)
    return inv


def from_cayley_table(table: Sequence[Sequence[int]], label: str = "G") -> FiniteGroup:
    """Build a group from a raw table, relabelling the identity to 0.

    The identity is located first; if it sits at some index e != 0 the
    elements e and 0 are swapped, in the entries too, before validation.
    """
    arr = np.asarray(table, dtype=_DTYPE)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotAGroup("multiplication table must be square")
    want = np.arange(arr.shape[0])
    units = np.flatnonzero((arr == want).all(axis=1) & (arr.T == want).all(axis=1))
    if not units.size:
        raise NotAGroup("table has no two-sided identity")
    e = int(units[0])
    if e:
        sigma = want.copy()
        sigma[0], sigma[e] = e, 0
        arr = arr[sigma[:, None], sigma]
        arr = np.where(arr == e, 0, np.where(arr == 0, e, arr))
    return FiniteGroup(arr, label)


# -- permutation groups ----------------------------------------------------


def perm_product(p: Sequence[int], q: Sequence[int]) -> tuple:
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def from_permutations(perms: Sequence[tuple], label: str) -> FiniteGroup:
    """The group of a list of permutations closed under composition,
    indexed in list order; the identity must come first."""
    index = {p: k for k, p in enumerate(perms)}
    table = np.array([[index[perm_product(p, q)] for q in perms]
                      for p in perms], dtype=_DTYPE)
    return FiniteGroup._trusted(table, label)


def from_permutation_generators(degree: int, generators: Sequence[Sequence[int]],
                                label: str = "G", *,
                                max_order: int = DEFAULT_PRODUCT_CAP
                                ) -> FiniteGroup:
    """Close a generator set under composition, breadth first.

    Elements are indexed in discovery order starting from the identity,
    which therefore gets index 0.  Closures above ``max_order`` elements
    raise OrderLimitExceeded before any table is built, and a negative
    degree raises ValueError.
    """
    if degree < 0:
        raise ValueError(f"permutation degree {degree} is negative")
    gens = []
    for g in generators:
        p = tuple(int(x) for x in g)
        if sorted(p) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
        gens.append(p)
    identity = tuple(range(degree))
    index = {identity: 0}
    elems = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_product(x, g)
                if y not in index:
                    if len(elems) >= max_order:
                        raise OrderLimitExceeded(
                            f"closure exceeds max_order={max_order}")
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return from_permutations(elems, label)


# -- subgroups ---------------------------------------------------------------


class Subgroup:
    """A subgroup stored as a sorted element tuple plus a bitmask.

    The constructor checks elements from outside the library; the
    library's own builds go through :meth:`_trusted`.
    """

    __slots__ = ("parent", "elements", "mask", "_cache")
    _trusted = classmethod(_unchecked)

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elems = tuple(sorted({int(x) for x in elements}))
        if not elems or elems[0] < 0 or elems[-1] >= parent.order:
            raise ValueError("subgroup elements out of range or empty")
        if elems[0] != 0:
            raise ValueError("subgroup must contain the identity")
        closed, gens = _closure(parent, elems)
        if closed != elems:
            raise ValueError("element set is not closed under products")
        self._fill(parent, elems, None, gens)

    def _fill(self, parent, elements, mask=None, gens=None,
              memos=None) -> None:
        """``elements`` is a sorted tuple of Python ints and ``mask``
        its bitmask, computed when not given; ``gens``, the generators
        a closure walk adopted, seeds :func:`subgroup_generators`, and
        ``memos`` whatever else the build already knows."""
        self.parent = parent
        self.elements = elements
        self.mask = _mask_of(elements) if mask is None else mask
        self._cache = {} if memos is None else dict(memos)
        if gens is not None:
            self._cache["gens"] = gens

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> int(x)) & 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask | other.mask == other.mask

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if other.parent is not self.parent:
            raise ValueError("subgroups of different parents")
        m = self.mask & other.mask
        return Subgroup._trusted(self.parent, _mask_elements(m), m)

    @memoised("as_group")
    def as_group(self) -> tuple[FiniteGroup, "GroupHom"]:
        """Materialise as a standalone group plus the embedding."""
        parent = self.parent
        arr = np.array(self.elements)
        pos = np.full(parent.order, -1, dtype=_DTYPE)
        pos[arr] = np.arange(len(arr))
        table = pos[parent.product[arr[:, None], arr]]
        grp = FiniteGroup._trusted(table, f"{parent.label}[{self.order}]")
        return grp, GroupHom._trusted(grp, parent, arr)


def _mask_of(elems) -> int:
    """The bitmask of a sequence of Python ints, repeats allowed.  Each OR
    copies the int built so far, so a long sequence sets its bits in one
    bool array instead, which is converted once."""
    if len(elems) < _MASK_LOOP_LIMIT:
        m = 0
        for e in elems:
            m |= 1 << e
        return m
    at = np.array(elems, dtype=np.intp)
    bits = np.zeros(int(at.max()) + 1, dtype=bool)
    bits[at] = True
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def _mask_elements(mask: int) -> tuple:
    return tuple(e for e, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct entries of an array of indices below n: one
    boolean mask, where ``np.unique`` would sort and import ``numpy.ma``."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def _closure(G: FiniteGroup, seed: Iterable[int], elements: tuple = (0,),
             gens: tuple = (),
             normalisers: Sequence = ()) -> tuple[tuple, tuple]:
    """Sorted elements of <elements, seed>, and ``gens`` followed by the
    seed elements adopted as generators: those not yet generated when the
    walk reaches them.  ``elements`` must be the subgroup that ``gens``
    generate.  The set stays closed under right multiplication by every
    generator, so old elements meet only the new one and new elements
    meet them all.

    The walk reads no direct product's table: x steps as the pair
    (g, h) = divmod(x, |H|) of :func:`_factors`, in the factors' tables.
    With ``normalisers``, maps x -> u^-1 x u from :func:`_conjugations`,
    the conjugates of each adopted generator are seeded in turn, so the
    result is the smallest subgroup over the seed that each u normalises,
    given that it normalises ``elements``."""
    left, right = _factors(G)
    lt, rt, hn = left.product.T, right.product.T, right.order
    have = set(elements)
    gens = list(gens)
    cols = [(lt[x // hn].tolist(), rt[x % hn].tolist()) for x in gens]
    pending = seed
    while True:
        done = len(gens)
        for s in pending:
            s = int(s)
            if s in have:
                continue
            gens.append(s)
            cols.append((lt[s // hn].tolist(), rt[s % hn].tolist()))
            frontier, step = list(have), cols[-1:]
            while frontier:
                fresh = []
                for cg, ch in step:
                    for x in frontier:
                        y = cg[x // hn] * hn + ch[x % hn]
                        if y not in have:
                            have.add(y)
                            fresh.append(y)
                frontier, step = fresh, cols
        if not normalisers or len(gens) == done:
            return tuple(sorted(have)), tuple(gens)
        pending = [cg[lg[x // hn]] * hn + ch[lh[x % hn]]
                   for x in gens[done:] for lg, cg, lh, ch in normalisers]


_TRIVIAL = FiniteGroup._trusted(np.zeros((1, 1), dtype=_DTYPE), "1")


def _factors(G: FiniteGroup) -> tuple[FiniteGroup, FiniteGroup]:
    """The factors whose tables :func:`_closure` steps on: a direct
    product's two, any other group with the trivial group on the right."""
    info = G.product_info
    return (G, _TRIVIAL) if info is None else (info.left, info.right)


def _conjugations(G: FiniteGroup, us: Sequence[int]) -> list:
    """x -> u^-1 x u for each u, in the coordinates of :func:`_factors`:
    per factor, the row of u^-1 and then the column of u, as lists."""
    left, right = _factors(G)
    lp, li, rp, ri, hn = (left.product, left.inverse, right.product,
                          right.inverse, right.order)
    return [(lp[li[a]].tolist(), lp[:, a].tolist(),
             rp[ri[b]].tolist(), rp[:, b].tolist())
            for a, b in (divmod(u, hn) for u in us)]


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    elements, gens = _closure(G, seed)
    return Subgroup._trusted(G, elements, None, gens)


def _extended(S: Subgroup, seed: Iterable[int]) -> Subgroup:
    """<S, seed>, walking on from S's elements and generators, so S's
    elements step by the new generators only."""
    elements, gens = _closure(S.parent, seed, S.elements, subgroup_generators(S))
    return Subgroup._trusted(S.parent, elements, None, gens)


@memoised("gens")
def subgroup_generators(S: Subgroup) -> tuple:
    """A generating set of S: the generators the closure walk adopted
    when it built S, those its Goursat data gives (see
    ``products.subgroup_from_quintuple``), or, for another subgroup built
    from its elements, the greedy ones: repeatedly the smallest element
    not yet generated."""
    return _closure(S.parent, S.elements)[1]


@memoised("interned")
def _interned_table(G: FiniteGroup) -> dict:
    return {S.mask: S for S in (G.trivial(), G.full())}


def interned(G: FiniteGroup, mask: int, gens: Optional[tuple] = None,
             elements: Optional[tuple] = None,
             memos: Optional[dict] = None) -> Subgroup:
    """The one shared subgroup of G with this element mask.

    The mask must describe a subgroup; it is not checked.  The table is
    seeded with ``G.full()`` and ``G.trivial()``, so those come back as
    themselves.  ``gens``, not checked either, seeds
    :func:`subgroup_generators` of a new object, or of one that has none.
    A new object takes ``elements``, the mask's sorted element tuple,
    when given, and ``memos`` into its ``_cache``; neither is checked.
    The two seeds, which no scan or build found, take the memos they
    lack; any other object already interned keeps its own memos.
    """
    table = _interned_table(G)
    S = table.get(mask)
    if S is None:
        if elements is None:
            elements = _mask_elements(mask)
        S = table[mask] = Subgroup._trusted(G, elements, mask, gens, memos)
        return S
    if gens is not None:
        S._cache.setdefault("gens", gens)
    if memos and (mask == 1 or S.is_whole):
        for key, value in memos.items():
            S._cache.setdefault(key, value)
    return S


def set_product(A: Subgroup, B: Subgroup) -> Subgroup:
    """The product set AB, checked to be a subgroup: it is one exactly
    when AB = BA, as whenever one factor is normal.  Memoised on A per
    B's mask; a product set that is no subgroup raises each time."""
    if A.parent is not B.parent:
        raise ValueError("subgroups of different parents")
    return _set_product(A, B)


@memoised("set_product")
def _set_product(A: Subgroup, B: Subgroup) -> Subgroup:
    G, a, b = A.parent, np.array(A.elements), np.array(B.elements)
    ab, ba = np.zeros((2, G.order), dtype=bool)
    ab[G.product[a[:, None], b]] = ba[G.product[b[:, None], a]] = True
    if not (ab == ba).all():
        raise ValueError("product set is not a subgroup: AB != BA")
    return Subgroup._trusted(G, tuple(np.flatnonzero(ab).tolist()))


def mutual_commutator(X: Subgroup, Y: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [x, y] with x in X, y in Y,
    memoised on X.

    It is the normal closure in <X, Y> of the commutators [s, t] of the
    generators s of X and t of Y, walked by :func:`_closure` with the
    generators of X and Y as normalisers.  That closure lies in [X, Y],
    which <X, Y> normalises, and modulo it each s commutes with each t,
    so X and Y commute: it is [X, Y]."""
    if Y.parent is not X.parent:
        raise ValueError("subgroups of different parents")
    return _commutator_with(X, Y)


@memoised("commutator")
def _commutator_with(X: Subgroup, Y: Subgroup) -> Subgroup:
    G = X.parent
    xs, ys = subgroup_generators(X), subgroup_generators(Y)
    # [s, t] and [t, s] are inverse: one of each pair is enough
    if X.mask == Y.mask:
        us, pairs = xs, [(i, j) for j in range(len(xs)) for i in range(j)]
    else:
        us = tuple(dict.fromkeys(xs + ys))
        pairs = [(i, us.index(t)) for i, s in enumerate(xs)
                 for t in ys if s != t]
    conj = _conjugations(G, us)
    hn = _factors(G)[1].order
    seed = []
    for i, j in pairs:
        a, b = divmod(us[i], hn)
        ls, _, ks, _ = conj[i]
        lt, ct, kt, dt = conj[j]
        seed.append(ls[ct[lt[a]]] * hn + ks[dt[kt[b]]])  # s^-1 (t^-1 s t)
    elements, gens = _closure(G, seed, normalisers=conj)
    return Subgroup._trusted(G, elements, None, gens)


@memoised("derived")
def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    return mutual_commutator(G.full(), G.full())


@memoised("center")
def center(G: FiniteGroup) -> Subgroup:
    central = (G.product == G.product.T).all(axis=1)
    return Subgroup._trusted(G, tuple(np.flatnonzero(central).tolist()))


def generating_sequence(G: FiniteGroup) -> tuple:
    """Greedy generators: repeatedly the smallest element not yet generated."""
    return subgroup_generators(G.full())


def _coset_minima(P: Subgroup, K: Subgroup) -> tuple[np.ndarray, bool]:
    """Cosets of K <= P, computed in the parent's table.

    Returns the least element of each left coset gK, for g in P in
    element order, and whether it always equals the least element of the
    right coset Kg.  Cosets are disjoint, so that holds exactly when
    every gK = Kg, that is when K is normal in P.
    """
    table = P.parent.product
    ps = np.array(P.elements)
    ks = np.array(K.elements)
    least = table[ps[:, None], ks].min(axis=1)
    return least, bool((least == table[ks[:, None], ps].min(axis=0)).all())


def is_normal(N: Subgroup) -> bool:
    """Is N normal in its parent group?"""
    return _coset_minima(N.parent.full(), N)[1]


def _quotient(P: Subgroup, K: Subgroup, name: str) -> tuple[FiniteGroup, np.ndarray]:
    """P/K labelled ``name/|K|``, cosets numbered by their least elements."""
    least, normal = _coset_minima(P, K)
    if not normal:
        raise NotNormal(f"subgroup of order {K.order} is not normal in {name}")
    reps = _distinct(least, P.parent.order)
    to_q = np.full(P.parent.order, -1, dtype=_DTYPE)
    to_q[np.array(P.elements)] = np.searchsorted(reps, least)
    to_q.setflags(write=False)
    qtable = to_q[P.parent.product[reps[:, None], reps]]
    return FiniteGroup._trusted(qtable, f"{name}/{K.order}"), to_q


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, "GroupHom"]:
    """G/N with minimal-index coset representatives; returns the projection."""
    if N.parent is not G:
        raise ValueError("subgroup of a different parent")
    Q, to_q = _quotient(G.full(), N, G.label)
    return Q, GroupHom._trusted(G, Q, to_q)


def subgroup_quotient(P: Subgroup, K: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """P/K for K normal in P, plus the parent-index to coset-index map.

    The returned array has one entry per element of the ambient group,
    -1 outside P, and is read-only: both are memoised on P and shared by
    every caller.
    """
    if K.parent is not P.parent:
        raise ValueError("subgroups of different parents")
    if not K.is_subset_of(P):
        raise ValueError("kernel must sit inside the projection")
    return _quotient_by(P, K)


@memoised("quotient")
def _quotient_by(P: Subgroup, K: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    return _quotient(P, K, f"{P.parent.label}[{P.order}]")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def p_part(n: int, primes: Iterable[int]) -> int:
    """Largest divisor of n whose prime factors all lie in `primes`."""
    if n <= 0:
        raise ValueError("n must be positive")
    r = 1
    for p in sorted(set(primes)):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        while n % p == 0:
            n //= p
            r *= p
    return r


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """First Sylow p-subgroup found by growing along index order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order, (p,))
    P = G.trivial()
    orders = G.element_orders()
    while P.order < target:
        arr = np.array(P.elements)
        for x in range(G.order):
            o = int(orders[x])
            if x in P or p_part(o, (p,)) != o:
                continue
            conj = G.product[G.product[G.inverse[x], arr], x].tolist()
            if _mask_of(conj) == P.mask:
                P = _extended(P, (x,))
                break
        else:
            raise InternalInconsistency("Sylow growth stalled below the p-part")
    if p_part(P.order, (p,)) != P.order:
        raise InternalInconsistency("Sylow candidate is not a p-group")
    return P


def is_cyclic(obj: Union[FiniteGroup, Subgroup]) -> bool:
    if isinstance(obj, Subgroup):
        orders = obj.parent.element_orders()
        return any(int(orders[e]) == obj.order for e in obj.elements)
    return int(obj.element_orders().max()) == obj.order


@memoised("cyclic_sylows")
def has_cyclic_sylows(G: FiniteGroup) -> bool:
    """Is every Sylow subgroup of G cyclic?

    The Sylow p-subgroups are conjugate, so they are cyclic exactly when
    some element has order p_part(|G|, p).
    """
    orders = set(G.element_orders().tolist())
    return all(p_part(G.order, (p,)) in orders for p in prime_factors(G.order))


# -- abelian invariants ------------------------------------------------------


@dataclass(frozen=True)
class AbelianInvariants:
    """Divisor chain d1 | d2 | ... | dk of a finite abelian group."""

    divisors: tuple

    def __post_init__(self):
        prev = 1
        for d in self.divisors:
            if d < 2 or d % prev:
                raise ValueError(f"not a divisor chain: {self.divisors}")
            prev = d

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def describe(self) -> str:
        return " x ".join(f"C{d}" for d in self.divisors) or "1"


@memoised("invariants")
def abelian_invariants(G: FiniteGroup) -> AbelianInvariants:
    """Divisor chain of an abelian group, read from its element orders.

    For a prime p, the elements of order dividing p**k number
    p**(r_1 + ... + r_k), where r_k counts the cyclic p-factors of order
    at least p**k.  The j-th largest p-factor has order p**e_j, where e_j
    counts the k with r_k >= j, and the j-th largest divisor is the
    product of the j-th largest p-factors over all p.
    """
    if not G.is_abelian:
        raise ValueError("divisor chain is only defined for abelian groups")
    orders = G.element_orders()
    top: list = []  # top[j-1] is the j-th largest divisor
    for p in prime_factors(G.order):
        ranks = []  # r_1, r_2, ... while the counts grow
        below = 1
        while True:
            count = int(np.count_nonzero(p ** (len(ranks) + 1) % orders == 0))
            if count == below:
                break
            growth, r = count // below, 0
            while growth > 1:
                growth //= p
                r += 1
            ranks.append(r)
            below = count
        for j in range(1, ranks[0] + 1):
            if j > len(top):
                top.append(1)
            top[j - 1] *= p ** sum(1 for r in ranks if r >= j)
    return AbelianInvariants(tuple(reversed(top)))


@memoised("abelianization")
def abelianization(G: FiniteGroup) -> tuple[AbelianInvariants, "GroupHom"]:
    """Invariants of G/G' plus the projection onto that quotient."""
    Q, proj = quotient_group(G, commutator_subgroup(G))
    return abelian_invariants(Q), proj


# -- homomorphisms -----------------------------------------------------------


class GroupHom:
    """A homomorphism stored as the full image table."""

    __slots__ = ("domain", "codomain", "image")
    _trusted = classmethod(_unchecked)

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 image: np.ndarray):
        self._fill(domain, codomain, image)
        if self.image.min() < 0 or self.image.max() >= codomain.order:
            raise ValueError("image table out of range")
        _check_steps(domain, self.image, lambda fx, fs: codomain.product[fx, fs])

    def _fill(self, domain, codomain, image) -> None:
        arr = np.ascontiguousarray(np.asarray(image, dtype=_DTYPE))
        if arr.shape != (domain.order,):
            raise ValueError("image table has the wrong length")
        self.domain = domain
        self.codomain = codomain
        arr.setflags(write=False)
        self.image = arr

    def __call__(self, a: int) -> int:
        return int(self.image[a])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupHom) and other.domain is self.domain
                and other.codomain is self.codomain
                and bool((other.image == self.image).all()))

    def __hash__(self) -> int:
        return hash((id(self.domain), id(self.codomain), self.image.tobytes()))

    def __repr__(self) -> str:
        return (f"GroupHom({self.domain.label} -> {self.codomain.label}, "
                f"{list(int(x) for x in self.image)})")

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain is not self.domain:
            raise ValueError("composition factors do not line up")
        return GroupHom._trusted(other.domain, self.codomain,
                                 self.image[other.image])

    @property
    def is_bijective(self) -> bool:
        return (self.domain.order == self.codomain.order
                == len(_distinct(self.image, self.codomain.order)))

    @property
    def is_identity(self) -> bool:
        return (self.domain is self.codomain
                and bool((self.image == np.arange(self.domain.order)).all()))

    def inverted(self) -> "GroupHom":
        if not self.is_bijective:
            raise ValueError("only bijections can be inverted")
        inv = np.empty(self.domain.order, dtype=_DTYPE)
        inv[self.image] = np.arange(self.domain.order)
        return GroupHom._trusted(self.codomain, self.domain, inv)

    def kernel(self) -> Subgroup:
        return Subgroup._trusted(
            self.domain, tuple(np.flatnonzero(self.image == 0).tolist()))

    def map_subgroup(self, sub: Subgroup) -> Subgroup:
        if sub.parent is not self.domain:
            raise ValueError("subgroup of a different parent")
        m = _mask_of(self.image[np.array(sub.elements)].tolist())
        return Subgroup._trusted(self.codomain, _mask_elements(m), m)


def _check_steps(domain: FiniteGroup, image: np.ndarray,
                 times: Callable) -> None:
    """Raise unless image[0] is 0 and image[x*s] == times(image[x],
    image[s]) for every x and each greedy generator s, named second in
    the failing pair."""
    if image[0] != 0:
        raise ValueError("identity must map to identity")
    for s in generating_sequence(domain):
        bad = np.flatnonzero(image[domain.product[:, s]] != times(image, image[s]))
        if bad.size:
            raise ValueError(f"not a homomorphism at pair ({int(bad[0])}, {s})")


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom._trusted(G, G, np.arange(G.order))


# -- conjugacy data ----------------------------------------------------------


@memoised("classes")
def conjugacy_classes(G: FiniteGroup) -> tuple[np.ndarray, tuple]:
    """The index of each element's conjugacy class, and the classes as
    sorted arrays in the order of their least elements; all read-only."""
    n = G.order
    index = np.full(n, -1, dtype=np.int64)
    classes = []
    allg = np.arange(n)
    for x in range(n):
        if index[x] >= 0:
            continue
        orbit = _distinct(G.product[G.product[G.inverse, x], allg], n)
        orbit.setflags(write=False)
        index[orbit] = len(classes)
        classes.append(orbit)
    index.setflags(write=False)
    return index, tuple(classes)


@memoised("class_sizes")
def conjugacy_class_sizes(G: FiniteGroup) -> np.ndarray:
    index, classes = conjugacy_classes(G)
    sizes = np.array([c.size for c in classes], dtype=np.int64)[index]
    sizes.setflags(write=False)
    return sizes


@memoised("profile")
def _element_profile(G: FiniteGroup) -> list:
    orders = G.element_orders()
    sizes = conjugacy_class_sizes(G)
    return [(int(orders[x]), int(sizes[x])) for x in range(G.order)]


# -- isomorphism search ------------------------------------------------------


@memoised("walk")
def _generator_walk(G: FiniteGroup) -> list:
    """The walk of :func:`_closure` along ``generating_sequence(G)``, one
    list per generator g_j: the steps (z, x, k, new), z = x*g_k, that grow
    <g_0..g_{j-1}> to <g_0..g_j>, with new on the first step to reach z."""
    cols = [G.product[:, g].tolist() for g in generating_sequence(G)]
    reached = [True] + [False] * (G.order - 1)
    support, walk = [0], []
    for j in range(len(cols)):
        steps, frontier, todo = [], support, [j]
        while frontier:
            fresh = []
            for k in todo:
                for x in frontier:
                    z = cols[k][x]
                    steps.append((z, x, k, not reached[z]))
                    if not reached[z]:
                        reached[z] = True
                        fresh.append(z)
            support = support + fresh
            frontier, todo = fresh, range(j + 1)
        walk.append(steps)
    return walk


def isomorphisms_iter(G1: FiniteGroup, G2: FiniteGroup,
                      fiber: Optional[Callable] = None) -> Iterator[GroupHom]:
    """All isomorphisms G1 -> G2 by pruned generator-image backtracking.

    Deterministic: generators are the greedy sequence of G1 and image
    candidates are tried in ascending index order; with ``fiber``, only
    the set bits of the int ``fiber(x)`` are candidates for generator x.
    Each new generator image grows the partial map along
    :func:`_generator_walk`: every step x -> x*g must land on
    img(x)*img(g), and no image is used twice.  A map that keeps every
    step is a homomorphism.
    """
    if G1.order != G2.order:
        return
    prof1, prof2 = _element_profile(G1), _element_profile(G2)
    if G1 is not G2 and sorted(prof1) != sorted(prof2):
        return
    gens, walk, n = generating_sequence(G1), _generator_walk(G1), G1.order
    rows = [(1 << n) - 1 if fiber is None else fiber(g) for g in gens]
    rows.append(0)  # no generator after the last
    # depth first, one stack entry per partial map on g_0..g_{j-1}: its
    # images, the images used, their columns and the candidates left for
    # g_j; a map that grows is resumed after the subtree it opens
    stack = [([0] + [-1] * (n - 1), [True] + [False] * (n - 1), [], rows[0])]
    while stack:
        img, used, cols, left = stack.pop()
        j = len(cols)
        if j == len(gens):
            # cheap final guard; the walk already kept every step
            if len(set(img)) == n:
                yield GroupHom._trusted(G1, G2, img)
            continue
        want = prof1[gens[j]]
        while left:  # the set bits of left, least first
            y = (left & -left).bit_length() - 1
            left &= left - 1
            if prof2[y] != want or used[y]:
                continue
            tried = cols + [G2.product[:, y].tolist()]
            grown, taken = img[:], used[:]
            for z, x, k, new in walk[j]:
                w = tried[k][grown[x]]
                if new and not taken[w]:
                    grown[z], taken[w] = w, True
                elif new or grown[z] != w:
                    break
            else:
                stack.append((img, used, cols, left))
                stack.append((grown, taken, tried, rows[j + 1]))
                break


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> Optional[GroupHom]:
    return next(isomorphisms_iter(G1, G2), None)


def is_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    return find_isomorphism(G1, G2) is not None


_class_reps: list = []  # class id -> representative, built memo-free
_class_ids: dict = {}  # (order, sorted element profile) -> class ids


@memoised("iso_class")
def isomorphism_class(G: FiniteGroup) -> int:
    """An int that two groups share exactly when they are isomorphic."""
    bucket = _class_ids.setdefault(
        (G.order, tuple(sorted(_element_profile(G)))), [])
    for cid in bucket:
        if find_isomorphism(G, _class_reps[cid]) is not None:
            return cid
    bucket.append(len(_class_reps))
    _class_reps.append(FiniteGroup._trusted(G.product, G.label))
    return bucket[-1]


@memoised("automorphisms")
def automorphisms(G: FiniteGroup) -> list:
    """All automorphisms in discovery order, which puts the identity
    first: every candidate below the next greedy generator is used.  No
    module calls it (containment searches U's fibers); it is kept for
    callers that want all of Aut(G) and as the tests' reference."""
    found = list(isomorphisms_iter(G, G))
    images = np.array([a.image for a in found]).reshape(len(found), G.order)
    fixed = (images == np.arange(G.order)).all(axis=1)
    if np.flatnonzero(fixed).tolist() != [0]:
        raise InternalInconsistency(
            "automorphism scan did not find the identity once, first")
    return found


# -- subgroup lattice --------------------------------------------------------


def _joins(G: FiniteGroup, normal: bool) -> list:
    """The subgroups of G, or with ``normal`` its normal subgroups, sorted
    by order, then elements.

    The scan starts from the trivial subgroup and extends the closure
    walk of each subgroup S it finds by a set R that starts with an
    element x of prime-power order: the coset xS for the lattice, giving
    <S, x>, and the conjugacy class x^G from :func:`conjugacy_classes`
    for the normal subgroups, so that the join of a normal S is normal.
    The join depends only on the block S·R, the double coset SxS or
    S·x^G, so x walks up from 0 past the marked elements and each block
    that holds an element of prime-power order is joined once and marked
    with |S|·|R| products.

    That reaches every subgroup.  Each element g is a product of commuting
    powers of g of prime-power order, so a subgroup T is generated by its
    elements y1, ..., yk of prime-power order, and the chain
    <y1> <= <y1, y2> <= ... <= T climbs from the trivial subgroup by
    joins with such elements, each found before the next is joined.  A
    normal T is likewise the join of the classes y1^G, ..., yk^G.

    Every subgroup comes from G's interned table, so the lattice and the
    normal subgroups share their objects and memos.  The scan reads the
    table and adds what it found only once it finishes: finding more
    than SCAN_SUBGROUP_CAP subgroups raises OrderLimitExceeded and
    leaves the table as it was.
    """
    table = _interned_table(G)
    found = {G.trivial().mask: G.trivial()}
    queue = list(found.values())
    class_of, classes = conjugacy_classes(G) if normal else (None, None)
    orders = G.element_orders()
    # marked from the start: the identity and the elements whose order
    # is not a prime power
    skipped = ~np.isin(orders, [q for q in set(orders.tolist())
                                if len(prime_factors(q)) == 1])
    for S in queue:
        elems = np.array(S.elements)
        marked = skipped.copy()
        marked[elems] = True
        x = int(marked.argmin())
        while x:  # argmin is 0, in S, only once everything is marked
            right = classes[class_of[x]] if normal else G.product[x, elems]
            joined = _extended(S, right.tolist())
            if joined.mask not in found:
                joined = found[joined.mask] = table.get(joined.mask, joined)
                queue.append(joined)
                if len(queue) > SCAN_SUBGROUP_CAP:
                    raise OrderLimitExceeded(
                        f"subgroup join scan above cap {SCAN_SUBGROUP_CAP} "
                        f"subgroups (order {G.order})")
            marked[G.product[elems[:, None], right]] = True
            x = int(marked.argmin())
    for mask, S in found.items():
        table.setdefault(mask, S)
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def all_subgroups(G: FiniteGroup) -> list:
    """Every subgroup, as joins <S, x> of the subgroups S found before
    with an element x of prime-power order, one per double coset SxS
    that holds such an element: every subgroup is generated by its
    elements of prime-power order (see :func:`_joins`).

    Kept as the exhaustive cross-check for the targeted constructions;
    the lattice grows quickly, so the scan stops after SCAN_SUBGROUP_CAP
    subgroups, at any order.
    """
    return _scan(G, False)


def normal_subgroups(G: FiniteGroup) -> list:
    """Every normal subgroup, as joins <N, x^G> of the normal subgroups N
    found before with the class of an element x of prime-power order,
    one per block N·x^G that holds such an element: a normal subgroup is
    the join of the classes of its elements of prime-power order (see
    :func:`_joins`).  Like the lattice scan, it stops after
    SCAN_SUBGROUP_CAP subgroups."""
    return _scan(G, True)


def _scan(G: FiniteGroup, normal: bool) -> list:
    """``_joins(G, normal)``, run once per group: a scan that stopped at
    the cap raises its OrderLimitExceeded again at once, rescanning
    nothing."""
    found = _scan_outcome(G, int(normal))  # memo keys hold ints, no bools
    if isinstance(found, str):
        raise OrderLimitExceeded(found)
    return found


@memoised("scan")
def _scan_outcome(G: FiniteGroup, normal: int) -> Union[list, str]:
    """The scan's subgroups, or the message of the cap it stopped at.
    Only the message is kept: the exception's traceback would keep the
    stopped scan's subgroups alive."""
    try:
        return _joins(G, normal)
    except OrderLimitExceeded as exc:
        return str(exc)
