"""Ready-made groups and a registry of small groups for identification.

Element encodings are fixed so that tests and reports are stable:

* cyclic(n): residues, product is addition mod n;
* dihedral(2n): r**i * s**j at index i + n*j, so r = 1 and s = n;
* symmetric(n) / alternating(n): permutation tuples in lexicographic
  order, identity first, product "apply left, then right";
* quaternion8: 1, i, j, k, -1, -i, -j, -k in that order;
* elementary_abelian(p, k): base-p digit vectors, componentwise sum.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

import numpy as np

from .groups import FiniteGroup, from_permutations, is_prime, \
    isomorphism_class
from .products import direct_product


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n, dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    np.add(idx[:, None], idx, out=table)
    table %= n
    return FiniteGroup._trusted(table, f"C{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the stated order 2n."""
    if order < 2 or order % 2:
        raise ValueError("dihedral groups here have even order >= 2")
    n = order // 2
    idx = np.arange(n, dtype=np.int32)
    table = np.empty((order, order), dtype=np.int32)
    # (i1, j1) * (i2, j2) = (i1 + (-1)**j1 * i2 mod n, j1 + j2 mod 2) at
    # blocks[j1, i1, j2, i2], filled in place
    blocks = table.reshape(2, n, 2, n)
    np.add(idx[:, None, None], idx, out=blocks[0])
    np.subtract(idx[:, None, None], idx, out=blocks[1])
    table %= n
    blocks[0, :, 1] += n
    blocks[1, :, 0] += n
    return FiniteGroup._trusted(table, f"D{order}")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    perms = list(itertools.permutations(range(n)))
    return from_permutations(perms, f"S{n}")


def _parity(p: tuple) -> int:
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return from_permutations(perms, f"A{n}")


_QUAT_AXIS = {  # (axis1, axis2) -> (sign, axis); 0 is the real unit
    (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion8() -> FiniteGroup:
    def mul(a: int, b: int) -> int:
        sa, xa = divmod(a, 4)
        sb, xb = divmod(b, 4)
        sign = (-1) ** (sa + sb)
        if xa == 0:
            s, x = 1, xb
        elif xb == 0:
            s, x = 1, xa
        else:
            s, x = _QUAT_AXIS[(xa, xb)]
        if sign * s < 0:
            return x + 4
        return x

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup._trusted(np.array(table), "Q8")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("rank must not be negative")
    n = p ** k
    table = np.zeros((n, n), dtype=np.int32)
    digit = np.arange(p, dtype=np.int32)
    digit_sum = (digit[:, None] + digit) % p
    for d in range(k):  # add digit d, of weight w = p**d, in place
        w = p ** d
        blocks = table.reshape(n // (w * p), p, w, n // (w * p), p, w)
        blocks += (digit_sum * w)[:, None, None, :, None]
    return FiniteGroup._trusted(table, f"E{p}^{k}")


def dicyclic12() -> FiniteGroup:
    """Dicyclic group of order 12: a**6 = 1, b**2 = a**3, b a b**-1 = a**-1."""
    def mul(x: int, y: int) -> int:
        i1, j1 = x % 6, x // 6
        i2, j2 = y % 6, y // 6
        if j1 == 0:
            return (i1 + i2) % 6 + 6 * j2
        if j2 == 0:
            return (i1 - i2) % 6 + 6
        return (i1 - i2 + 3) % 6

    table = [[mul(x, y) for y in range(12)] for x in range(12)]
    return FiniteGroup._trusted(np.array(table), "Dic12")


# -- catalog and identification ----------------------------------------------

CATALOG_NAMES = ("C2", "C3", "C4", "C2xC2", "C6", "S3", "D8", "Q8")


@functools.cache
def catalog_group(name: str) -> FiniteGroup:
    """Shared instances of the verification catalog groups, built by the
    registry's builders."""
    if name not in CATALOG_NAMES:
        raise KeyError(f"unknown catalog group {name!r}")
    return dict(_REGISTRY_BUILDERS)[name]()


def catalog_names() -> tuple:
    return CATALOG_NAMES


def preset_descriptions() -> tuple:
    """One help line per JSON preset id."""
    return (
        "cyclic              data: {\"n\": order}",
        "dihedral            data: {\"order\": 2n}",
        "symmetric           data: {\"n\": points}",
        "alternating         data: {\"n\": points}",
        "quaternion8         data: {}",
        "dicyclic12          data: {}",
        "elementary_abelian  data: {\"p\": prime, \"k\": rank}",
    )


_REGISTRY_BUILDERS = [
    ("1", lambda: cyclic(1)),
    ("C2", lambda: cyclic(2)),
    ("C3", lambda: cyclic(3)),
    ("C4", lambda: cyclic(4)),
    ("C2xC2", lambda: elementary_abelian(2, 2)),
    ("C5", lambda: cyclic(5)),
    ("C6", lambda: cyclic(6)),
    ("S3", lambda: symmetric(3)),
    ("C7", lambda: cyclic(7)),
    ("C8", lambda: cyclic(8)),
    ("C2xC4", lambda: direct_product(cyclic(2), cyclic(4)).group),
    ("C2xC2xC2", lambda: elementary_abelian(2, 3)),
    ("D8", lambda: dihedral(8)),
    ("Q8", quaternion8),
    ("C9", lambda: cyclic(9)),
    ("C3xC3", lambda: elementary_abelian(3, 2)),
    ("C10", lambda: cyclic(10)),
    ("D10", lambda: dihedral(10)),
    ("C11", lambda: cyclic(11)),
    ("C12", lambda: cyclic(12)),
    ("C2xC6", lambda: direct_product(cyclic(2), cyclic(6)).group),
    ("D12", lambda: dihedral(12)),
    ("A4", lambda: alternating(4)),
    ("Dic12", dicyclic12),
]


@functools.cache
def _small_registry() -> list:
    return [(name, builder()) for name, builder in _REGISTRY_BUILDERS]


@functools.cache
def _small_group_names() -> dict:
    return {isomorphism_class(rep): name for name, rep in _small_registry()}


def identify_small_group(G: FiniteGroup) -> Optional[str]:
    """Name of G up to isomorphism, for orders at most 12."""
    if G.order > 12:
        return None
    return _small_group_names().get(isomorphism_class(G))
