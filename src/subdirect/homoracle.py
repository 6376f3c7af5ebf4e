"""Enumeration of homomorphisms into cyclic groups, and the restriction map.

This is the ground-truth side of the package: extensibility verdicts
from the kernel criterion are cross-checked against literal counting of
homomorphisms.  Coefficients are cyclic C_m written additively; a prime
p is decided with m = p ** v_p(exponent), which carries the same
information as any larger p-power coefficient.

|Hom(U, C_m)| is the m-torsion of U/[U, U], counted with a table of
m-th powers, so no quotient group is built and no hom of U is listed;
for a subgroup of G x H both come from the factors' tables: the powers
composed from the factors' powers, and [U, U] from
``groups.mutual_commutator``, whose walk steps in the factors.  The homs
of a factor group come from one walk over the cosets of its derived
subgroup, :func:`_value_tables`.  The restriction
image is compared on the generators of U, which fix a hom.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Union

import numpy as np

from .errors import InternalInconsistency, OrderLimitExceeded
from .groups import (
    FiniteGroup,
    Subgroup,
    _check_steps,
    _unchecked,
    memoised,
    mutual_commutator,
    p_part,
    subgroup_generators,
)
from .products import product_of, require_subdirect

RAW_SEARCH_LIMIT = 1 << 22
# Entries of the n x n hom test per block of raw candidate tables.
RAW_BLOCK_ENTRIES = 1 << 14


class CyclicHom:
    """A homomorphism into C_m stored as a residue per element."""

    __slots__ = ("domain", "modulus", "values")
    _trusted = classmethod(_unchecked)

    def __init__(self, domain: FiniteGroup, modulus: int, values):
        if not isinstance(modulus, (int, np.integer)) or modulus < 1:
            raise ValueError(f"modulus must be a positive integer: {modulus!r}")
        self._fill(domain, modulus, values)
        _check_steps(domain, self.values, lambda fx, fs: (fx + fs) % modulus)

    def _fill(self, domain: FiniteGroup, modulus: int, values) -> None:
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64)) % modulus
        if arr.shape != (domain.order,):
            raise ValueError("value table has the wrong length")
        arr.setflags(write=False)
        self.domain = domain
        self.modulus = modulus
        self.values = arr

    def key(self) -> tuple:
        return tuple(int(v) for v in self.values)

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclicHom) and other.domain is self.domain
                and other.modulus == self.modulus
                and bool((other.values == self.values).all()))

    def __hash__(self) -> int:
        return hash((id(self.domain), self.modulus, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"CyclicHom({self.domain.label} -> C{self.modulus}, {self.key()})"


def _as_plain_group(K: Union[FiniteGroup, Subgroup]) -> FiniteGroup:
    if isinstance(K, Subgroup):
        return K.as_group()[0]
    return K


def _value_tables(P: Subgroup, m: int) -> np.ndarray:
    """Every hom value table P -> C_m, one row each, over the parent's
    elements (0 outside P), in no fixed order.

    Every such hom vanishes on D = [P, P], as C_m is abelian, so the walk
    starts on D and adds the generators of P one at a time: if g has
    relative order t over the part built so far, its value v must solve
    t*v = value(g**t) mod m, a linear congruence with gcd(t, m) solutions
    (or none), and the layers part*g, ..., part*g**(t-1) are cosets of D
    that get the values v, ..., (t-1)*v on top.  Every partial table is
    extended by all of its solutions at once, so every full table is
    produced exactly once.  Layers that meet each other or the part built
    so far, or a walk that does not end on |P| elements, raise
    InternalInconsistency.
    """
    G = P.parent
    D = mutual_commutator(P, P)
    tables = np.zeros((1, G.order), dtype=np.int64)
    current = np.array(D.elements)
    valued = np.zeros(G.order, dtype=bool)
    valued[current] = True
    for g in subgroup_generators(P):
        powers = []
        e = g
        while not valued[e]:
            powers.append(e)
            e = int(G.product[e, g])
        if not powers:
            continue
        t0 = len(powers) + 1  # e = g ** t0 is already valued
        d = math.gcd(t0, m)
        tables = tables[tables[:, e] % d == 0]
        step = m // d
        v0 = (tables[:, e] // d) * pow(t0 // d, -1, step) % step
        values = (v0[:, None] + step * np.arange(d)).ravel()
        tables = np.repeat(tables, d, axis=0)
        # layers[t - 1] = current * g**t, valued t * v on top of current
        layers = G.product[current, np.array(powers)[:, None]]
        valued[layers] = True
        t = np.arange(1, t0)[:, None]
        tables[:, layers] = (tables[:, None, current]
                             + t * values[:, None, None]) % m
        current = np.concatenate((current, layers.ravel()))
        if np.count_nonzero(valued) != current.size:
            raise InternalInconsistency(
                f"coset layers over [P, P] of order {D.order} overlap "
                f"in order {P.order}")
    if current.size != P.order:
        raise InternalInconsistency(
            f"hom walk ends on {current.size} of {P.order} elements")
    return tables


def enumerate_homs(K: Union[FiniteGroup, Subgroup], m: int) -> list:
    """All homomorphisms K -> C_m, sorted by value table."""
    return _cyclic_homs(_as_plain_group(K), m)


@memoised("cyclic_homs")
def _cyclic_homs(grp: FiniteGroup, m: int) -> list:
    return [CyclicHom._trusted(grp, m, t) for t in _hom_value_matrix(grp, m)]


@memoised("hom_matrix")
def _hom_value_matrix(G: FiniteGroup, m: int) -> np.ndarray:
    """Every hom value table G -> C_m, one row each, sorted."""
    tables = _value_tables(G.full(), m)
    matrix = tables[np.lexsort(tables.T[::-1])]
    matrix.setflags(write=False)
    return matrix


def hom_count_formula(divisors, m: int) -> int:
    """Expected |Hom| from a divisor chain: product of gcd(d, m)."""
    return math.prod(math.gcd(int(d), m) for d in divisors)


def raw_enumerate_homs(K: Union[FiniteGroup, Subgroup], m: int) -> list:
    """All homomorphisms by brute value-table search.

    Exponential in the group order; only usable for small inputs, and
    kept as a second, structure-free route to the same set.
    """
    grp = _as_plain_group(K)
    n = grp.order
    total = m ** (n - 1) if n > 1 else 1
    if total > RAW_SEARCH_LIMIT:
        raise OrderLimitExceeded(
            f"{m}**{n - 1} value tables exceed {RAW_SEARCH_LIMIT}")
    rows = max(1, RAW_BLOCK_ENTRIES // (n * n))
    out = []
    for start in range(0, total, rows):
        code = np.arange(start, min(start + rows, total), dtype=np.int64)
        block = np.zeros((code.size, n), dtype=np.int64)
        for j in range(n - 1, 0, -1):  # base-m digits, the last fastest
            code, block[:, j] = np.divmod(code, m)
        ok = (block[:, grp.product]
              == (block[:, :, None] + block[:, None, :]) % m).all(axis=(1, 2))
        out.extend(CyclicHom._trusted(grp, m, vals) for vals in block[ok])
    return out


# -- restriction to a product subgroup ----------------------------------------


def restriction_map(big: CyclicHom, U: Subgroup) -> CyclicHom:
    """Restrict a hom on the ambient group to U, reindexed to U's group."""
    if big.domain is not U.parent:
        raise ValueError("hom is not defined on the subgroup's parent")
    sub_grp, _ = U.as_group()
    vals = big.values[np.array(U.elements)]
    return CyclicHom._trusted(sub_grp, big.modulus, vals)


def _restriction_matrix(U: Subgroup, m: int) -> np.ndarray:
    """The restriction to U of every hom G x H -> C_m, one row per hom,
    evaluated at the identity and the generators of U.

    Every hom on the product splits as a hom on G plus a hom on H, so the
    rows are all such sums, left-major over the sorted factor hom lists.
    A hom on U is fixed by its values on the generators, so two rows are
    equal exactly when the restrictions are; the identity column gives a
    trivial U a column.
    """
    info = product_of(U)
    gs, hs = info.split((0, *subgroup_generators(U)))
    vg = _hom_value_matrix(info.left, m)[:, gs]
    vh = _hom_value_matrix(info.right, m)[:, hs]
    return ((vg[:, None, :] + vh[None, :, :]) % m).reshape(-1, gs.size)


def restriction_kernel_image_sizes(U: Subgroup, m: int) -> tuple[int, int]:
    """Kernel and image size of restriction Hom(G x H, C_m) -> Hom(U, C_m)."""
    kernel, fibers = restriction_kernel_fibers(U, m)
    return kernel, len(fibers)


@memoised("fibers")
def restriction_kernel_fibers(U: Subgroup, m: int) -> tuple[int, tuple]:
    """Kernel size of the restriction map, and the multiplicity of each
    distinct restricted hom, sorted ascending, from one matrix; memoised
    on U per m.

    All fiber counts equal the kernel size: fibers of a group
    homomorphism of hom-groups are cosets, so kernel * image must be the
    number of rows.
    """
    require_subdirect(U)
    flat = np.ascontiguousarray(_restriction_matrix(U, m))
    row = np.dtype((np.void, flat.shape[1] * flat.itemsize))
    counts = Counter(flat.view(row).ravel().tolist())
    kernel = counts[bytes(row.itemsize)]  # the rows that are all zero
    if kernel * len(counts) != flat.shape[0]:
        raise InternalInconsistency("fiber count does not match the coset count")
    return kernel, tuple(sorted(counts.values()))


def coefficient_modulus(U: Subgroup, p: int) -> int:
    """p ** v_p(exponent of G x H), the coefficient that decides p."""
    info = product_of(U)
    exponent = math.lcm(info.left.exponent(), info.right.exponent())
    return p_part(exponent, (p,))


def oracle_is_extensible_for_modulus(U: Subgroup, m: int) -> bool:
    """Do all homs U -> C_m extend to the ambient product?  No decision
    logic is shared with the criterion, only its memoised G', H', [U, U]."""
    require_subdirect(U)
    if m == 1:
        return True
    _, image = restriction_kernel_image_sizes(U, m)
    return image == _hom_count(U, m)


@memoised("hom_count")
def _hom_count(U: Subgroup, m: int) -> int:
    """|Hom(U, C_m)| as the m-torsion of A = U/[U, U]: every such hom
    factors through the finite abelian A, and |Hom(A, C_m)| = |A/mA| =
    |A[m]| = #{x in U : x**m in [U, U]} / |[U, U]|.  The m-th powers come
    from the parent's :func:`_power_table` and [U, U] from
    ``mutual_commutator``, the one route for every parent, which reads
    no direct product's table; the walk over U of :func:`_value_tables`
    counts the same homs, the tests' reference."""
    G = U.parent
    D = mutual_commutator(U, U)
    in_d = np.zeros(G.order, dtype=bool)
    in_d[np.array(D.elements)] = True
    power = _power_table(G, m)[np.array(U.elements)]
    torsion = int(np.count_nonzero(in_d[power]))
    if torsion % D.order:
        raise InternalInconsistency(
            f"{torsion} elements of a subgroup of order {U.order} have "
            f"{m}-th powers in [U, U] of order {D.order}")
    return torsion // D.order


@memoised("powers")
def _power_table(G: FiniteGroup, m: int) -> np.ndarray:
    """x**m for every element x of G, read-only: a direct product's from
    its factors' tables, (g, h)**m being (g**m, h**m), and any other
    group's by square-and-multiply in its own table."""
    info = G.product_info
    if info is not None:
        power = (_power_table(info.left, m)[:, None] * info.right.order
                 + _power_table(info.right, m)).ravel()
    else:
        base, e = np.arange(G.order), m
        power = np.zeros(G.order, np.int64)  # x**0, the identity at index 0
        while e:
            if e & 1:
                power = G.product[power, base]
            base, e = G.product[base, base], e >> 1
    power.setflags(write=False)
    return power


def oracle_is_p_extensible(U: Subgroup, p: int) -> bool:
    """Do all homs U -> C_m extend, for the decisive modulus m?

    True exactly when the restriction image is all of Hom(U, C_m).
    """
    return oracle_is_extensible_for_modulus(U, coefficient_modulus(U, p))


def raw_oracle_is_p_extensible(U: Subgroup, p: int) -> bool:
    """Same verdict as oracle_is_p_extensible via literal value-table search.

    Every hom list involved is produced by raw_enumerate_homs, so this
    path shares no code with the abelianization-based enumerator.  Only
    feasible for very small groups; the cap is an error, not a cutoff.
    """
    require_subdirect(U)
    m = coefficient_modulus(U, p)
    if m == 1:
        return True
    info = product_of(U)
    sub_grp, _ = U.as_group()
    target = raw_enumerate_homs(sub_grp, m)
    left = raw_enumerate_homs(info.left, m)
    right = raw_enumerate_homs(info.right, m)
    gs, hs = info.split(U.elements)
    restricted = {
        tuple(((hl.values[gs] + hr.values[hs]) % m).tolist())
        for hl in left for hr in right
    }
    return len(restricted) == len(target)


def extend_hom(phi: CyclicHom, U: Subgroup) -> Optional[CyclicHom]:
    """First hom on the ambient product restricting to phi, if any.

    The search order is the sorted hom lists of the two factors, left
    factor outermost, so witnesses are deterministic.  U need not be
    subdirect.
    """
    info = product_of(U)
    sub_grp, _ = U.as_group()
    if phi.domain is not sub_grp:
        raise ValueError("phi must live on the subgroup's materialised group")
    m = phi.modulus
    at = np.searchsorted(U.elements, (0, *subgroup_generators(U)))
    hits = np.flatnonzero((_restriction_matrix(U, m) == phi.values[at])
                          .all(axis=1))
    if not hits.size:
        return None
    left = _hom_value_matrix(info.left, m)
    right = _hom_value_matrix(info.right, m)
    i, j = divmod(int(hits[0]), len(right))
    gi, hi = info.split(np.arange(info.group.order))
    return CyclicHom._trusted(info.group, m, (left[i][gi] + right[j][hi]) % m)
