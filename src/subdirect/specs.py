"""Parsing of group and subgroup descriptions used by the command line.

Groups come either as a shorthand string or as a JSON object:

* shorthand: ``C6``, ``D8``, ``S4``, ``A4``, ``Q8``, ``E2^3`` and
  ``x``-separated products of those, for example ``C2xS3``;
* ``@path`` loads a JSON spec file;
* JSON: ``{"name": ..., "kind": ..., "data": ...}`` with kinds
  ``cayley`` (raw table), ``permutations`` (degree plus generators in
  cycle or image-list notation), ``preset`` and ``product``.

Subgroups of G x H are described by ``full``, ``diagonal``, a JSON
object ``{"pairs": [[g, h], ...]}`` generating the subgroup, or
``{"quintuple": {...}}`` driving the coset construction directly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import ParseError
from .groups import FiniteGroup, Subgroup, from_cayley_table, \
    from_permutation_generators, subgroup_generated
from .presets import (
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    quaternion8,
    symmetric,
)
from .products import (
    ProductGroup,
    diagonal,
    direct_product,
    make_quintuple,
    subgroup_from_quintuple,
)

PRESETS = {
    "cyclic": lambda data: cyclic(_int_field(data, "n")),
    "dihedral": lambda data: dihedral(_int_field(data, "order")),
    "symmetric": lambda data: symmetric(_int_field(data, "n")),
    "alternating": lambda data: alternating(_int_field(data, "n")),
    "quaternion8": lambda data: quaternion8(),
    "elementary_abelian": lambda data: elementary_abelian(
        _int_field(data, "p"), _int_field(data, "k")),
}


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group description, not yet materialised."""

    name: str
    kind: str
    data: dict


def _as_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are input errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _int_field(data: dict, key: str) -> int:
    if key not in data:
        raise ParseError(f"preset is missing the field {key!r}")
    return _as_int(data[key], f"field {key!r}")


_SHORTHAND = re.compile(
    r"^(C(?P<cyc>\d+)|D(?P<dih>\d+)|S(?P<sym>\d+)|A(?P<alt>\d+)"
    r"|Q8|E(?P<eap>\d+)\^(?P<eak>\d+))$")


def _shorthand_spec(token: str) -> Optional[GroupSpec]:
    m = _SHORTHAND.match(token)
    if not m:
        return None
    if m.group("cyc"):
        data = {"id": "cyclic", "n": int(m.group("cyc"))}
    elif m.group("dih"):
        data = {"id": "dihedral", "order": int(m.group("dih"))}
    elif m.group("sym"):
        data = {"id": "symmetric", "n": int(m.group("sym"))}
    elif m.group("alt"):
        data = {"id": "alternating", "n": int(m.group("alt"))}
    elif m.group("eap"):
        data = {"id": "elementary_abelian", "p": int(m.group("eap")),
                "k": int(m.group("eak"))}
    else:
        data = {"id": "quaternion8"}
    return GroupSpec(token, "preset", data)


def _read_json(text: str):
    """The JSON value of an ``@path`` file reference or of inline JSON."""
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad inline JSON: {exc}") from exc


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    if not text:
        raise ParseError("empty group description")
    if text.startswith(("@", "{")):
        return spec_from_dict(_read_json(text))
    factors = text.split("x")
    specs = []
    for token in factors:
        spec = _shorthand_spec(token.strip())
        if spec is None:
            raise ParseError(f"unknown group shorthand {token.strip()!r}")
        specs.append(spec)
    if len(specs) == 1:
        return specs[0]
    combined = specs[0]
    for nxt in specs[1:]:
        combined = GroupSpec(f"{combined.name}x{nxt.name}", "product",
                             {"left": combined, "right": nxt})
    return combined


def spec_from_dict(payload: dict) -> GroupSpec:
    if not isinstance(payload, dict):
        raise ParseError("group spec must be a JSON object")
    kind = payload.get("kind")
    if kind not in ("cayley", "permutations", "preset", "product"):
        raise ParseError(f"unknown spec kind {kind!r}")
    name = str(payload.get("name", kind))
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ParseError("spec field 'data' must be an object")
    if kind == "product":
        for side in ("left", "right"):
            if side not in data:
                raise ParseError(f"product spec is missing {side!r}")
        data = {
            "left": _child_spec(data["left"]),
            "right": _child_spec(data["right"]),
        }
    return GroupSpec(name, kind, data)


def _child_spec(value) -> GroupSpec:
    if isinstance(value, GroupSpec):
        return value
    if isinstance(value, str):
        return parse_group_spec(value)
    if isinstance(value, dict):
        return spec_from_dict(value)
    raise ParseError("product factors must be specs or shorthand strings")


_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_permutation(value, degree: int) -> tuple:
    """Accepts image lists like [1, 0, 2] or cycles like "(0 1 2)(3 4)"."""
    if isinstance(value, (list, tuple)):
        perm = [int(x) for x in value]
        if sorted(perm) != list(range(degree)):
            raise ParseError(f"not a permutation of 0..{degree - 1}: {value}")
        return tuple(perm)
    if isinstance(value, str):
        stripped = value.replace(" ", "")
        if not stripped:
            raise ParseError("empty permutation")
        body = value.strip()
        if not re.fullmatch(r"(\([^()]*\))+", stripped):
            raise ParseError(f"bad cycle notation {value!r}")
        perm = list(range(degree))
        for cycle_text in _CYCLE.findall(body):
            points = [int(tok) for tok in re.split(r"[,\s]+", cycle_text.strip())
                      if tok]
            if len(points) != len(set(points)):
                raise ParseError(f"repeated point in cycle {cycle_text!r}")
            for a in points:
                if not 0 <= a < degree:
                    raise ParseError(f"point {a} out of range in {value!r}")
            for i, a in enumerate(points):
                perm[a] = points[(i + 1) % len(points)]
        return tuple(perm)
    raise ParseError(f"cannot parse permutation {value!r}")


def load_group(spec: Union[str, GroupSpec]) -> FiniteGroup:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.kind == "preset":
        preset_id = spec.data.get("id")
        if preset_id not in PRESETS:
            raise ParseError(f"unknown preset {preset_id!r}")
        try:
            group = PRESETS[preset_id](spec.data)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if spec.name not in ("preset", group.label):
            group.label = spec.name
    elif spec.kind == "cayley":
        table = spec.data.get("table")
        if not isinstance(table, list) or not all(
                isinstance(row, list) and len(row) == len(table[0])
                for row in table):
            raise ParseError("cayley spec needs a 'table' list of equal rows")
        table = [[_as_int(x, "cayley entry") for x in row] for row in table]
        group = from_cayley_table(table, label=spec.name)
    elif spec.kind == "permutations":
        degree = _int_field(spec.data, "degree")
        gens = spec.data.get("generators")
        if not isinstance(gens, list) or not gens:
            raise ParseError("permutation spec needs a 'generators' list")
        perms = [parse_permutation(g, degree) for g in gens]
        group = from_permutation_generators(degree, perms, label=spec.name)
    else:  # product
        group = direct_product(load_group(spec.data["left"]),
                               load_group(spec.data["right"])).group
    return group


# -- subgroup descriptors ------------------------------------------------------


def load_product_subgroup(info: ProductGroup, text: str) -> Subgroup:
    """Resolve a subgroup description inside an already built product."""
    text = text.strip()
    if not text:
        raise ParseError("empty subgroup description")
    if text == "full":
        return info.group.full()
    if text == "diagonal":
        if info.left is not info.right:
            raise ParseError("diagonal needs both factors to be the same "
                             "group; pass --H identical to --G or omit it")
        return diagonal(info.left)
    if not text.startswith(("@", "{")):
        raise ParseError(f"unknown subgroup description {text!r}")
    payload = _read_json(text)
    if not isinstance(payload, dict):
        raise ParseError("subgroup description must be a JSON object")
    if "pairs" in payload:
        items = payload["pairs"]
        if not isinstance(items, list) or not all(
                isinstance(item, list) and len(item) == 2 for item in items):
            raise ParseError("'pairs' must be a list of [g, h] pairs")
        coded = []
        for item in items:
            g, h = (_as_int(x, "pair entry") for x in item)
            if not (0 <= g < info.left.order and 0 <= h < info.right.order):
                raise ParseError(f"pair {item!r} out of range")
            coded.append(info.encode(g, h))
        return subgroup_generated(info.group, coded)
    if "quintuple" in payload:
        q = payload["quintuple"]
        try:
            p1 = Subgroup(info.left, [_as_int(x, "p1") for x in q["p1"]])
            k1 = Subgroup(info.left, [_as_int(x, "k1") for x in q["k1"]])
            p2 = Subgroup(info.right, [_as_int(x, "p2") for x in q["p2"]])
            k2 = Subgroup(info.right, [_as_int(x, "k2") for x in q["k2"]])
            pairs = [(_as_int(g, "phi"), _as_int(h, "phi")) for g, h in q["phi"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad quintuple description: {exc}") from exc
        quint = make_quintuple(p1, k1, p2, k2, pairs)
        return subgroup_from_quintuple(quint)
    raise ParseError("subgroup object needs 'pairs' or 'quintuple'")
