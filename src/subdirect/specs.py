"""Parsing of group and subgroup descriptions used by the command line.

Groups come either as a shorthand string or as a JSON object:

* shorthand: ``C6``, ``D8``, ``S4``, ``A4``, ``Q8``, ``Dic12``, ``E2^3`` and
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

import functools
import json
import math
import re
from pathlib import Path

from .errors import OrderLimitExceeded, ParseError
from .groups import FiniteGroup, Subgroup, from_cayley_table, \
    from_permutation_generators, subgroup_generated
from .presets import alternating, cyclic, dicyclic12, dihedral, \
    elementary_abelian, quaternion8, symmetric
from .products import (
    DEFAULT_PRODUCT_CAP,
    ProductGroup,
    diagonal,
    direct_product,
    make_quintuple,
    subgroup_from_quintuple,
)

# preset id -> (builder, the integer fields a JSON preset spec passes it,
# the order they give, with degrees and exponents clipped to 0..64: past
# 64 any order exceeds 2**63)
PRESETS = {
    "cyclic": (cyclic, ("n",), lambda n: n),
    "dihedral": (dihedral, ("order",), lambda order: order),
    "symmetric": (symmetric, ("n",),
                  lambda n: math.prod(range(2, min(n, 64) + 1))),
    "alternating": (alternating, ("n",),
                    lambda n: math.prod(range(3, min(n, 64) + 1))),
    "quaternion8": (quaternion8, (), lambda: 8),
    "dicyclic12": (dicyclic12, (), lambda: 12),
    "elementary_abelian": (elementary_abelian, ("p", "k"),
                           lambda p, k: max(p, 0) ** min(max(k, 0), 64)),
}

# One alternative per preset, named after its id, capturing its arguments.
_SHORTHAND = re.compile(
    r"(?P<cyclic>C(\d+))|(?P<dihedral>D(\d+))|(?P<symmetric>S(\d+))"
    r"|(?P<alternating>A(\d+))|(?P<quaternion8>Q8)|(?P<dicyclic12>Dic12)"
    r"|(?P<elementary_abelian>E(\d+)\^(\d+))")


_INT32 = range(-2 ** 31, 2 ** 31)


def _as_int(value, what: str) -> int:
    """A JSON integer that fits the int32 tables; floats, strings,
    booleans and larger integers are input errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if value not in _INT32:
        raise ParseError(f"{what} {value} is outside the int32 range")
    return value


def _int_field(data: dict, key: str) -> int:
    if key not in data:
        raise ParseError(f"preset is missing the field {key!r}")
    return _as_int(data[key], f"field {key!r}")


def _preset(preset_id: str, args: tuple, name: str,
            max_order: int) -> FiniteGroup:
    """A preset group; any name but its own label or 'preset' relabels it.
    Its order is checked against ``max_order`` before any table is built."""
    build, _, order = PRESETS[preset_id]
    if order(*args) > max_order:
        raise OrderLimitExceeded(f"order of {name} above cap {max_order}")
    try:
        group = build(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if name not in ("preset", group.label):
        group.label = name
    return group


def _read_json(text: str):
    """The JSON value of an ``@path`` file reference or of inline JSON.

    Nesting too deep for the parser, and a file that is not text, are
    input errors like bad syntax.
    """
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError,
                UnicodeDecodeError) as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad inline JSON: {exc}") from exc


def load_group(text: str, *,
               max_order: int = DEFAULT_PRODUCT_CAP) -> FiniteGroup:
    """The group of a shorthand, inline JSON or ``@path`` description.

    Every shorthand factor is checked before any is built; the factors
    of a product are then built and multiplied from the left.  Every
    group the description asks for, of any kind, is capped at
    ``max_order`` before its table is built.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty group description")
    if text.startswith(("@", "{")):
        payload = _read_json(text)
        try:
            return _group_from_json(payload, max_order)
        except RecursionError:
            raise ParseError("group spec is nested too deeply") from None
    factors = []
    for token in (token.strip() for token in text.split("x")):
        m = _SHORTHAND.fullmatch(token)
        if m is None:
            raise ParseError(f"unknown group shorthand {token!r}")
        args = tuple(int(x) for x in m.groups()[m.lastindex:] if x)
        factors.append((m.lastgroup, args, token))
    return functools.reduce(
        lambda a, b: direct_product(a, b, max_order=max_order).group,
        (_preset(*factor, max_order) for factor in factors))


def _group_from_json(payload, max_order: int) -> FiniteGroup:
    if not isinstance(payload, dict):
        raise ParseError("group spec must be a JSON object")
    kind = payload.get("kind")
    if kind not in ("cayley", "permutations", "preset", "product"):
        raise ParseError(f"unknown spec kind {kind!r}")
    name = str(payload.get("name", kind))
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ParseError("spec field 'data' must be an object")
    if kind == "preset":
        preset_id = data.get("id")
        if not isinstance(preset_id, str) or preset_id not in PRESETS:
            raise ParseError(f"unknown preset {preset_id!r}")
        args = tuple(_int_field(data, key) for key in PRESETS[preset_id][1])
        return _preset(preset_id, args, name, max_order)
    if kind == "cayley":
        table = data.get("table")
        if not isinstance(table, list) or not all(
                isinstance(row, list) and len(row) == len(table[0])
                for row in table):
            raise ParseError("cayley spec needs a 'table' list of equal rows")
        if len(table) > max_order:
            raise OrderLimitExceeded(f"order of {name} above cap {max_order}")
        table = [[_as_int(x, "cayley entry") for x in row] for row in table]
        return from_cayley_table(table, label=name)
    if kind == "permutations":
        degree = _int_field(data, "degree")
        if degree < 0:
            raise ParseError(f"permutation degree {degree} is negative")
        gens = data.get("generators")
        if not isinstance(gens, list) or not gens:
            raise ParseError("permutation spec needs a 'generators' list")
        perms = [parse_permutation(g, degree) for g in gens]
        return from_permutation_generators(degree, perms, label=name,
                                           max_order=max_order)
    for side in ("left", "right"):  # a product; its name is not used
        if side not in data:
            raise ParseError(f"product spec is missing {side!r}")
    return direct_product(_factor(data["left"], max_order),
                          _factor(data["right"], max_order),
                          max_order=max_order).group


def _factor(value, max_order: int) -> FiniteGroup:
    """A product factor: a description string or a JSON spec object."""
    if isinstance(value, str):
        return load_group(value, max_order=max_order)
    if isinstance(value, dict):
        return _group_from_json(value, max_order)
    raise ParseError("product factors must be specs or shorthand strings")


_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_permutation(value, degree: int) -> tuple:
    """Accepts image lists like [1, 0, 2] or cycles like "(0 1 2)(3 4)"."""
    if isinstance(value, (list, tuple)):
        perm = [_as_int(x, "permutation entry") for x in value]
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
        seen: set = set()
        for cycle_text in _CYCLE.findall(body):
            tokens = re.split(r"[,\s]+", cycle_text.strip())
            try:
                points = [int(tok) for tok in tokens if tok]
            except ValueError:
                raise ParseError(f"non-integer point in {value!r}") from None
            for a in points:
                if not 0 <= a < degree:
                    raise ParseError(f"point {a} out of range in {value!r}")
                if a in seen:
                    raise ParseError(f"point {a} repeated in {value!r}")
                seen.add(a)
            for i, a in enumerate(points):
                perm[a] = points[(i + 1) % len(points)]
        return tuple(perm)
    raise ParseError(f"cannot parse permutation {value!r}")


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
