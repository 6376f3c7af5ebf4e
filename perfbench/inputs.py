"""Seeded benchmark inputs: relabelled Cayley tables and workload groups.

Every factor group is built here from permutation (or quaternion)
generators, independently of the library's own presets, then relabelled
by a permutation drawn from the seed that keeps the identity at index 0.
The program receives the result as ``cayley`` spec files, the input
format the README documents, so the seed changes element names but
never the abstract groups or the amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _closure(gens, mul, identity):
    """Elements in breadth-first discovery order, identity first."""
    index = {identity: 0}
    elems = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def _perm_mul(p, q):
    return tuple(q[i] for i in p)


def _cycle(degree, *points):
    perm = list(range(degree))
    for i, a in enumerate(points):
        perm[a] = points[(i + 1) % len(points)]
    return tuple(perm)


def _quat_mul(a, b):
    """Quaternions with integer coordinates (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _perm_group(degree, *gens):
    return _closure(list(gens), _perm_mul, tuple(range(degree))), _perm_mul


def _base_group(name):
    """(elements, multiplication) for every group the workloads use."""
    if name in ("C2", "C3", "C4", "C6"):
        n = int(name[1:])
        return _perm_group(n, _cycle(n, *range(n)))
    if name == "C2xC2":
        return _perm_group(4, _cycle(4, 0, 1), _cycle(4, 2, 3))
    if name in ("S3", "S4"):
        n = int(name[1:])
        return _perm_group(n, _cycle(n, *range(n)), _cycle(n, 0, 1))
    if name == "A4":
        return _perm_group(4, _cycle(4, 0, 1, 2), _cycle(4, 1, 2, 3))
    if name in ("D8", "D12"):
        n = int(name[1:]) // 2
        reflection = tuple((-i) % n for i in range(n))
        return _perm_group(n, _cycle(n, *range(n)), reflection)
    if name == "D8xC2":
        return _perm_group(6, _cycle(6, 0, 1, 2, 3), _cycle(6, 1, 3),
                           _cycle(6, 4, 5))
    if name == "Q8":
        i, j = (0, 1, 0, 0), (0, 0, 1, 0)
        return _closure([i, j], _quat_mul, (1, 0, 0, 0)), _quat_mul
    raise KeyError(f"no benchmark construction for {name}")


class Group:
    """One relabelled factor group and its Cayley table."""

    def __init__(self, name: str, seed: int):
        elems, mul = _base_group(name)
        n = len(elems)
        rng = random.Random(f"{seed}/{name}")
        rest = list(range(1, n))
        rng.shuffle(rest)
        sigma = [0] + rest  # old index -> new index; identity stays at 0
        pos = {e: k for k, e in enumerate(elems)}
        table = [[0] * n for _ in range(n)]
        for a, x in enumerate(elems):
            row = table[sigma[a]]
            for b, y in enumerate(elems):
                row[sigma[b]] = sigma[pos[mul(x, y)]]
        self.name = name
        self.table = table

    def spec(self) -> dict:
        return {"name": self.name, "kind": "cayley",
                "data": {"table": self.table}}


def write_specs(names, seed: int, directory: Path) -> dict:
    """Write one cayley spec file per group; returns name -> '@path'."""
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in names:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(Group(name, seed).spec()))
        out[name] = f"@{path}"
    return out


# -- workloads -----------------------------------------------------------------

# The catalog groups of order at most 6.  The whole catalog (adding D8
# and Q8) takes about a minute per sweep on a 2-core Xeon VM, longer
# than one run may last; this selection keeps the same profile
# (star-monotonicity, section-relation, cyclic-sylow-functoriality and
# goursat-roundtrip take about three quarters of the sweep).
VERIFY_GROUPS = ("C2", "C3", "C4", "C2xC2", "C6", "S3")

SUBDIRECT_PAIRS = (("D8", "D8"), ("Q8", "D8"), ("Q8", "Q8"),
                   ("D8xC2", "D8xC2"), ("A4", "A4"), ("S4", "S4"),
                   ("D12", "D12"), ("S4", "S3"))
PAIR_GROUPS = tuple(sorted({name for pair in SUBDIRECT_PAIRS for name in pair}))
