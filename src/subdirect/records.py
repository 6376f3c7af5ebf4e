"""Analysis records and the line-oriented report format.

A report file holds one JSON object per line.  The first line is a
header documenting the schema version and the element encoding; every
following line is one analysis record.  All values are plain JSON types
chosen so that a parsed record compares equal to the one that was
written, and identical inputs always serialise to identical bytes (the
timing field, which nothing measures, is null on disk).  A record's
'pairs' are held as the subgroup's encoded element tuple and expanded
to [g, h] lists only when the record is written.
"""

from __future__ import annotations

import itertools
import json
import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ParseError, PreconditionFailed
from .extensibility import (
    build_report,
    is_extensible,
    star_preservation_condition,
)
from .groups import FiniteGroup, Subgroup, abelian_invariants, prime_factors
from .homoracle import (
    coefficient_modulus,
    oracle_is_p_extensible,
    raw_oracle_is_p_extensible,
)
from .presets import identify_small_group
from .products import (
    contains_twisted_diagonal,
    goursat_quotient,
    is_section,
    is_subdirect,
    product_of,
    projections_kernels,
    star_product,
)

RECORD_SCHEMA = "subdirect-analysis/1"
HEADER_SCHEMA = "subdirect-report/1"
ENCODING_NOTE = ("element (g, h) of G x H has index g*|H| + h; "
                 "'pairs' lists [g, h] factor index pairs")

ORACLE_ABELIANIZATION = "abelianization"
ORACLE_RAW = "raw-value-table"


class ElementPairs:
    """The 'pairs' field of an analysed subgroup: its encoded element
    tuple, shared with the subgroup, not copied, and the right factor's
    order |H|.  It becomes the [g, h] lists of the report only in
    :meth:`tolist`, and compares equal to those lists."""

    __slots__ = ("elements", "right_order")

    def __init__(self, elements: tuple, right_order: int):
        self.elements = elements
        self.right_order = right_order

    def __len__(self) -> int:
        return len(self.elements)

    def tolist(self) -> list:
        """[g, h] factor index lists, element (g, h) having index g*|H| + h."""
        split = np.divmod(np.asarray(self.elements), self.right_order)
        return np.stack(split, axis=1).tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, ElementPairs):
            other = other.tolist()
        if not isinstance(other, list):
            return NotImplemented
        return self.tolist() == other

    def __repr__(self) -> str:
        return (f"ElementPairs({len(self)} elements, "
                f"right_order={self.right_order})")


@dataclass
class AnalysisRecord:
    """One analysed subgroup of a direct product, JSON-ready.

    per_prime maps the decimal prime string to a verdict object with
    the criterion verdict, the deciding methods, the witness orders and
    the oracle verdict (null when the oracle was skipped).  ``pairs`` is
    an :class:`ElementPairs` in an analysed record and the JSON list in
    one read back; the two compare equal.
    """

    schema: str
    left: dict
    right: dict
    pairs: Union[list, ElementPairs]
    subdirect: bool
    projections: dict
    quotient: Optional[dict]
    contains_diagonal: Optional[bool]
    primes: list
    per_prime: dict
    extensible: Optional[bool]
    oracle_extensible: Optional[bool]
    oracle_mode: Optional[str]
    inconsistent: bool
    star: Optional[dict]
    timing_ms: Optional[float] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.pairs, ElementPairs):
            data["pairs"] = self.pairs.tolist()
        data["timing_ms"] = None
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisRecord":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ParseError(f"unknown record fields {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ParseError(f"record is missing fields {sorted(missing)}")
        if data.get("schema") != RECORD_SCHEMA:
            raise ParseError(f"unsupported record schema {data.get('schema')!r}")
        for name, types in _FIELD_TYPES.items():
            if not _is_a(data[name], types):
                want = " or ".join("null" if t is type(None) else t.__name__
                                   for t in types)
                raise ParseError(f"record field {name!r} must be {want}, "
                                 f"got {json.dumps(data[name])[:40]}")
        return cls(**data)


# The JSON types each record field admits, from its annotation.
_FIELD_TYPES = {name: typing.get_args(hint) or (hint,)
                for name, hint in typing.get_type_hints(AnalysisRecord).items()}


def _is_a(value, types: tuple) -> bool:
    """isinstance for JSON values: a bool is no number, an int is a float."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (float in types
                                        and isinstance(value, int))


def _group_summary(G: FiniteGroup) -> dict:
    return {"label": G.label, "order": G.order}


def _quotient_summary(q: FiniteGroup) -> dict:
    name = identify_small_group(q)
    invariants = None
    if q.is_abelian:
        invariants = list(abelian_invariants(q).divisors)
    return {"order": q.order, "name": name,
            "abelian_invariants": invariants}


def analyze_subgroup(U: Subgroup, primes=None, *,
                     raw_oracle: bool = False) -> AnalysisRecord:
    """Full analysis of one subgroup U of a direct product.

    Non-subdirect subgroups are not an error here: the record carries
    the projection orders and no verdicts.
    """
    info = product_of(U)
    subdirect = is_subdirect(U)
    proj = projections_kernels(U)
    projections = {
        "p1_order": proj.p1.order,
        "k1_order": proj.k1.order,
        "p2_order": proj.p2.order,
        "k2_order": proj.k2.order,
    }
    quotient = None
    if subdirect:
        quotient = _quotient_summary(goursat_quotient(U))
    contains_diag = None
    if info.left is info.right:
        contains_diag = contains_twisted_diagonal(U) is not None
    if primes is None:
        primes = prime_factors(info.group.order)
    primes = sorted(set(int(p) for p in primes))

    per_prime: dict = {}
    extensible = None
    oracle_overall = None
    inconsistent = False
    mode = None
    if subdirect:
        mode = ORACLE_RAW if raw_oracle else ORACLE_ABELIANIZATION
        oracle = raw_oracle_is_p_extensible if raw_oracle \
            else oracle_is_p_extensible
        for p, entry in build_report(U, primes).items():
            entry["coefficient_modulus"] = coefficient_modulus(U, p)
            entry["oracle"] = oracle(U, p)
            per_prime[str(p)] = entry
        entries = per_prime.values()
        extensible = all(e["extensible"] for e in entries)
        oracle_overall = all(e["oracle"] for e in entries)
        inconsistent = any(e["oracle"] != e["extensible"] for e in entries)

    return AnalysisRecord(
        schema=RECORD_SCHEMA,
        left=_group_summary(info.left),
        right=_group_summary(info.right),
        pairs=ElementPairs(U.elements, info.right.order),
        subdirect=subdirect,
        projections=projections,
        quotient=quotient,
        contains_diagonal=contains_diag,
        primes=primes,
        per_prime=per_prime,
        extensible=extensible,
        oracle_extensible=oracle_overall,
        oracle_mode=mode,
        inconsistent=inconsistent,
        star=None,
    )


def star_analysis(U: Subgroup, V: Subgroup, primes=None, *,
                  raw_oracle: bool = False) -> AnalysisRecord:
    """Analysis of U*V decorated with composition facts.

    Always checks that the composite quotient is a section of both input
    quotients; evaluates the kernel preservation condition when both
    inputs contain a plain diagonal and are extensible.
    """
    W = star_product(U, V)
    record = analyze_subgroup(W, primes, raw_oracle=raw_oracle)
    star: dict = {
        "left_input": _input_summary(U),
        "right_input": _input_summary(V),
        "composite_order": W.order,
    }
    qw = goursat_quotient(W)
    star["section_of_left"] = is_section(qw, goursat_quotient(U))
    star["section_of_right"] = is_section(qw, goursat_quotient(V))

    try:
        condition = {
            "side1": star_preservation_condition(U, V, side=1, composite=W),
            "side2": star_preservation_condition(U, V, side=2, composite=W),
        }
    except PreconditionFailed:
        condition = None
    star["preservation_condition"] = condition
    record.star = star
    return record


def _input_summary(U: Subgroup) -> dict:
    info = product_of(U)
    subdirect = is_subdirect(U)
    return {
        "left": _group_summary(info.left),
        "right": _group_summary(info.right),
        "order": U.order,
        "subdirect": subdirect,
        "extensible": is_extensible(U) if subdirect else None,
    }


# -- report files --------------------------------------------------------------


def report_header(extra: Optional[dict] = None) -> dict:
    header = {
        "schema": HEADER_SCHEMA,
        "record_schema": RECORD_SCHEMA,
        "encoding": ENCODING_NOTE,
    }
    if extra:
        header.update(extra)
    return {key: header[key] for key in sorted(header)}


def write_records(path: Union[str, Path], records, *,
                  extra_header: Optional[dict] = None) -> int:
    """Stream the header and records through :func:`write_lines`;
    returns the record count."""
    header = json.dumps(report_header(extra_header), sort_keys=True,
                        separators=(",", ":"))
    lines = itertools.chain([header], (r.to_json() for r in records))
    return write_lines(path, lines) - 1


def write_lines(path: Union[str, Path], lines) -> int:
    """Write each string of ``lines`` as one line of ``path``; returns
    the line count.  The lines go to a temporary sibling of ``path`` as
    they come, which replaces ``path`` only once the last is written: an
    error on the way, one the lines raise included, leaves no partial
    file and an existing one as it was.  An error opening or moving the
    file names ``path``."""
    path = Path(path)
    partial = path.parent / f".{path.name}.{os.getpid()}.partial"
    count = 0
    try:
        with partial.open("w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
                count += 1
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(partial):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    return count


def read_records(path: Union[str, Path]) -> tuple[dict, list]:
    """Parse a report file back into (header, records)."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise ParseError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != HEADER_SCHEMA:
        raise ParseError("first line is not a report header")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"bad record on line {i}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParseError(f"record on line {i} is not a JSON object")
        try:
            records.append(AnalysisRecord.from_dict(payload))
        except ParseError as exc:
            raise ParseError(f"record on line {i}: {exc}") from exc
    return header, records
