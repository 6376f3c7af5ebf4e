"""Description parsing, report records, self checks, and the command line."""

import gc
import hashlib
import inspect
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import types
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers

import subdirect
import subdirect.cli as cli
import subdirect.presets as presets
import subdirect.products as products
import subdirect.specs as specs
import subdirect.verification as verification
from subdirect import (
    CheckContext,
    FiniteGroup,
    OrderLimitExceeded,
    ParseError,
    SubdirectError,
    analyze_subgroup,
    catalog_group,
    cyclic,
    diagonal,
    dihedral,
    direct_product,
    enumerate_subdirect,
    is_isomorphic,
    read_records,
    run_checks,
    star_analysis,
    subgroup_generated,
    symmetric,
    write_records,
)
from subdirect.cli import build_parser, main
from subdirect.products import DEFAULT_PRODUCT_CAP, ProductGroup
from subdirect.records import AnalysisRecord, RECORD_SCHEMA
from subdirect.specs import (
    load_group,
    load_product_subgroup,
    parse_permutation,
)


# -- group descriptions ---------------------------------------------------------


def test_shorthand_specs():
    assert load_group("S3").label == "S3"
    assert load_group("Q8").order == 8
    G = load_group("D8xC2")
    assert G.product_info is not None
    assert G.label == "D8xC2"


def test_dic12_shorthand(capsys):
    # analyze names Dic12 as a quotient, so --G takes the name too.
    G = load_group("Dic12")
    assert G.label == "Dic12"
    assert is_isomorphic(G, presets.dicyclic12())
    assert load_group('{"kind": "preset", "data": {"id": "dicyclic12"}}'
                      ).label == "Dic12"
    code, out, err = run_cli(capsys, "verify", "--G", "Dic12")
    assert code == 0, err
    assert out.splitlines()[-1].startswith("all 28 checks passed")


def test_shorthand_rejects_unknown():
    with pytest.raises(ParseError):
        load_group("F20")
    with pytest.raises(ParseError):
        load_group("")


def test_load_group_orders():
    assert load_group("C12").order == 12
    assert load_group("S4").order == 24
    assert load_group("A4").order == 12
    assert load_group("E2^3").order == 8
    assert load_group("D8xC2").order == 16
    assert load_group("C2xC2xC2").order == 8


def test_load_group_inline_json():
    G = load_group('{"name": "V", "kind": "preset", '
                   '"data": {"id": "elementary_abelian", "p": 2, "k": 2}}')
    assert G.order == 4
    assert G.label == "V"


def test_load_group_cayley_json():
    G = load_group('{"kind": "cayley", "data": {"table": [[0, 1], [1, 0]]}}')
    assert G.order == 2


def test_load_group_permutations_json():
    G = load_group('{"name": "S3", "kind": "permutations", "data": '
                   '{"degree": 3, "generators": ["(0 1 2)", "(0 1)"]}}')
    assert G.order == 6
    assert is_isomorphic(G, symmetric(3))


def test_load_group_permutation_degree_is_not_negative():
    spec = {"kind": "permutations",
            "data": {"degree": 0, "generators": ["()"]}}
    assert load_group(json.dumps(spec)).order == 1
    spec["data"]["degree"] = -1
    with pytest.raises(ParseError, match="degree -1 is negative"):
        load_group(json.dumps(spec))


def test_load_group_from_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "name": "K", "kind": "preset",
        "data": {"id": "cyclic", "n": 6},
    }))
    G = load_group(f"@{path}")
    assert G.order == 6


def test_load_group_caps_every_product_at_max_order():
    assert load_group("C37xC37", max_order=2000).order == 1369
    with pytest.raises(OrderLimitExceeded):
        load_group("C37xC37")
    spec = json.dumps({"kind": "product",
                       "data": {"left": "C37", "right": {
                           "kind": "preset",
                           "data": {"id": "cyclic", "n": 37}}}})
    assert load_group(spec, max_order=2000).order == 1369
    with pytest.raises(OrderLimitExceeded):
        load_group(spec)
    with pytest.raises(OrderLimitExceeded):
        load_group("C2xC3", max_order=5)


def test_presets_above_max_order_stop_before_any_table(monkeypatch, capsys):
    def refuse(*args):
        pytest.fail(f"a preset table was built for {args}")

    for preset_id, (_, fields, order) in list(specs.PRESETS.items()):
        monkeypatch.setitem(specs.PRESETS, preset_id, (refuse, fields, order))
    for text in ("C100000", "D4000", "S8", "A8", "E2^11", "C4000xC2",
                 "S2147483647", "E2^2147483647"):
        with pytest.raises(OrderLimitExceeded, match="above cap 1296"):
            load_group(text)
    with pytest.raises(OrderLimitExceeded, match="order of V above cap 7"):
        load_group('{"name": "V", "kind": "preset", '
                   '"data": {"id": "quaternion8"}}', max_order=7)
    for argv in (("analyze", "--G", "C100000", "--H", "C2", "--U", "full"),
                 ("verify", "--G", "C4000")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "cap exceeded" in err, err


def test_max_order_raises_the_preset_cap():
    assert load_group("C1500", max_order=1500).order == 1500
    with pytest.raises(OrderLimitExceeded):
        load_group("C1500", max_order=1499)


def test_max_order_is_the_only_limit_on_permutation_presets(monkeypatch):
    def stop(*args):
        raise RuntimeError("table build started")

    monkeypatch.setattr(presets, "from_permutations", stop)
    for text, order in (("S8", 40320), ("A8", 20160)):
        with pytest.raises(RuntimeError, match="table build started"):
            load_group(text, max_order=order)
        with pytest.raises(OrderLimitExceeded):
            load_group(text, max_order=order - 1)


def test_every_table_cap_defaults_to_the_product_cap():
    for fn, name in ((subdirect.groups.from_permutation_generators,
                      "max_order"),
                     (products.direct_product, "max_order"),
                     (products.enumerate_subdirect, "max_order"),
                     (load_group, "max_order"),
                     (CheckContext, "product_cap")):
        default = inspect.signature(fn).parameters[name].default
        assert default == DEFAULT_PRODUCT_CAP, fn.__name__
    parser = build_parser()
    for argv in (("analyze", "--G", "S3", "--U", "full"),
                 ("subdirects", "--G", "S3"),
                 ("star", "--G", "S3", "--U", "full", "--V", "full"),
                 ("verify",)):
        assert parser.parse_args(argv).max_order == DEFAULT_PRODUCT_CAP


_A6 = json.dumps({"name": "A6", "kind": "permutations",
                  "data": {"degree": 6,
                           "generators": ["(0 1 2)", "(1 2 3 4 5)"]}})


def _cyclic_cayley(n: int) -> str:
    return _cayley([[(i + j) % n for j in range(n)] for i in range(n)])


def test_specs_above_max_order_stop_before_any_table(monkeypatch, capsys,
                                                     tmp_path):
    """permutations and cayley specs are capped like presets: the closure
    stops at the cap, and a cayley table is neither read nor validated."""
    def refuse(*args, **kwargs):
        pytest.fail("a table was built or validated above the cap")

    monkeypatch.setattr(subdirect.groups, "from_permutations", refuse)
    monkeypatch.setattr(FiniteGroup, "validate", refuse)
    with pytest.raises(OrderLimitExceeded, match="max_order=300"):
        load_group(_A6, max_order=300)
    path = tmp_path / "c1400.json"
    path.write_text(_cyclic_cayley(1400))
    with pytest.raises(OrderLimitExceeded, match="above cap 1296"):
        load_group(f"@{path}")
    for argv in (("verify", "--G", _A6, "--max-order", "300"),
                 ("verify", "--G", f"@{path}"),
                 ("analyze", "--G", _A6, "--H", "C1", "--U", "full",
                  "--max-order", "300")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "cap exceeded" in err, err


def test_max_order_raises_the_permutation_and_cayley_caps(capsys):
    assert load_group(_A6, max_order=360).order == 360
    assert load_group(_cyclic_cayley(12), max_order=12).order == 12
    with pytest.raises(OrderLimitExceeded):
        load_group(_cyclic_cayley(12), max_order=11)
    code, out, err = run_cli(capsys, "verify", "--G", _A6,
                             "--max-order", "360")
    assert code == 0, err


def test_cli_verify_scans_a_cayley_entry_once(monkeypatch, capsys, tmp_path):
    """from_cayley_table, cmd_verify and group-axioms all validate the
    entry; the table is read-only, so only the first scan runs."""
    scanned = []
    real = subdirect.groups._check_axioms

    def spy(G):
        scanned.append(G.order)
        real(G)

    monkeypatch.setattr(subdirect.groups, "_check_axioms", spy)
    path = tmp_path / "c5.json"
    path.write_text(_cyclic_cayley(5))
    code, out, err = run_cli(capsys, "verify", "--G", f"@{path}")
    assert code == 0, err
    assert "group-axioms: pass (2 cases)" in out
    assert sorted(scanned) == [5, 25]


def test_cayley_entry_outside_int32_is_named():
    with pytest.raises(ParseError, match="cayley entry 99999999999"):
        load_group(_cayley([[0, 99999999999]]))
    with pytest.raises(ParseError, match="cayley entry -2147483649"):
        load_group(_cayley([[0, -2 ** 31 - 1]]))


def _nested_product(depth: int) -> str:
    return ('{"kind":"product","data":{"left":' * depth + '"C1"'
            + ',"right":"C1"}}' * depth)


def test_nested_product_specs_raise_only_parse_errors():
    """Specs nested just below the parser's depth limit can still run out
    of stack while their groups are built; that too is an input error."""
    def parses(depth):
        try:
            json.loads(_nested_product(depth))
        except RecursionError:
            return False
        return True

    limit = next(d for d in itertools.count(1) if not parses(d))
    for depth in range(max(1, limit - 20), limit + 2):
        try:
            assert load_group(_nested_product(depth)).order == 1
        except ParseError:
            pass


def test_parse_permutation_forms():
    assert parse_permutation([1, 0, 2], 3) == (1, 0, 2)
    assert parse_permutation("(0 1 2)", 3) == (1, 2, 0)
    assert parse_permutation("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    with pytest.raises(ParseError):
        parse_permutation([0, 0, 1], 3)
    with pytest.raises(ParseError):
        parse_permutation("(0 5)", 3)
    with pytest.raises(ParseError):
        parse_permutation("(0 0)", 3)


def test_load_product_subgroup_forms(tmp_path):
    G = symmetric(3)
    info = direct_product(G, G)
    assert load_product_subgroup(info, "full").is_whole
    assert load_product_subgroup(info, "diagonal") == diagonal(G)
    got = load_product_subgroup(info, '{"pairs": [[1, 1], [3, 3], [3, 0]]}')
    assert got.order == 18
    quint = {"quintuple": {
        "p1": [0, 1, 2, 3, 4, 5], "k1": [0, 3, 4],
        "p2": [0, 1, 2, 3, 4, 5], "k2": [0, 3, 4],
        "phi": [[0, 0], [1, 1]],
    }}
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(quint))
    assert load_product_subgroup(info, f"@{path}") == got
    with pytest.raises(ParseError):
        load_product_subgroup(info, "nonsense")
    with pytest.raises(ParseError):
        load_product_subgroup(info, '{"pairs": [[9, 0]]}')


def test_diagonal_descriptor_needs_equal_factors():
    info = direct_product(symmetric(3), cyclic(6))
    with pytest.raises(ParseError):
        load_product_subgroup(info, "diagonal")


# Fuzzed descriptions.  Every group is checked against the order cap
# before its table is built, but a group under the default cap of 1296
# is still built in full.  So that each of the 300 examples stays a
# small build, every integer is drawn from -3..12 and the fields that
# set a group's size exponentially (symmetric and alternating degrees,
# elementary abelian p and k, permutation degrees) from -3..4.
_SMALL = st.integers(-3, 12)
_SIZE = st.integers(-3, 4)
# deferred, so that "x | _JUNK" draws x half of the time
_JUNK = st.deferred(lambda: st.none() | st.booleans() | st.floats()
                    | st.text(max_size=4) | _SIZE
                    | st.lists(_SIZE, max_size=3))


def _object(**fields):
    """JSON objects with these fields, all of them half of the time."""
    return (st.fixed_dictionaries(fields)
            | st.fixed_dictionaries({}, optional=fields))


def _spec(kind, data):
    return _object(kind=st.just(kind) | _JUNK, name=st.text(max_size=3),
                   data=data | _JUNK)


_PRESET_DATA = st.one_of(
    _object(id=st.just("cyclic"), n=_SMALL | _JUNK),
    _object(id=st.just("dihedral"), order=_SMALL | _JUNK),
    _object(id=st.sampled_from(["symmetric", "alternating"]), n=_SIZE | _JUNK),
    _object(id=st.just("elementary_abelian"), p=_SIZE | _JUNK,
            k=_SIZE | _JUNK),
    _object(id=st.sampled_from(["quaternion8", "bogus"]) | _JUNK),
)
_PERMUTATION = (st.lists(_SMALL | _JUNK, max_size=5)
                | st.text(alphabet="()0123456789 ,-a", max_size=10) | _JUNK)
_SHORTHANDS = st.sampled_from(
    ["C2", "D6", "S3", "A4", "Q8", "E2^2", "C2xC3", "", "F20", "C0", "E4^2",
     " C2 x S3 ", "{", "@"])
_GROUP_SPECS = st.recursive(
    st.one_of(
        _spec("preset", _PRESET_DATA),
        _spec("cayley", _object(table=st.lists(
            st.lists(_SMALL | _JUNK, max_size=4), max_size=4) | _JUNK)),
        _spec("permutations", _object(
            degree=_SIZE | _JUNK,
            generators=st.lists(_PERMUTATION, max_size=3) | _JUNK)),
        _JUNK),
    lambda children: _spec("product", _object(left=children | _SHORTHANDS,
                                              right=children | _SHORTHANDS)),
    max_leaves=4)
_INDICES = st.lists(_SMALL | _JUNK, max_size=6) | _JUNK
_SUBGROUP_DESCRIPTORS = st.one_of(
    _object(pairs=st.lists(st.lists(_SMALL | _JUNK, max_size=3), max_size=4)
            | _JUNK),
    _object(quintuple=_object(
        p1=_INDICES, k1=_INDICES, p2=_INDICES, k2=_INDICES,
        phi=st.lists(st.lists(_SMALL | _JUNK, max_size=3), max_size=4)
        | _JUNK) | _JUNK),
    _JUNK)


@settings(max_examples=300, deadline=None)
@given(payload=_GROUP_SPECS | _SHORTHANDS)
@example(payload={"kind": "permutations",
                  "data": {"degree": 3, "generators": ["(0 1)(1 2)"]}})
def test_load_group_raises_only_library_errors(payload):
    try:
        load_group(payload if isinstance(payload, str)
                   else json.dumps(payload))
    except SubdirectError:
        pass


@settings(max_examples=300, deadline=None)
@given(payload=_SUBGROUP_DESCRIPTORS)
def test_load_product_subgroup_raises_only_library_errors(payload):
    info = direct_product(symmetric(3), cyclic(2))
    try:
        load_product_subgroup(info, json.dumps(payload))
    except SubdirectError:
        pass


# -- records ---------------------------------------------------------------------


def test_analyze_record_fields():
    G = symmetric(3)
    rec = analyze_subgroup(diagonal(G))
    assert rec.schema == RECORD_SCHEMA
    assert rec.subdirect is True
    assert rec.extensible is True
    assert rec.oracle_extensible is True
    assert rec.inconsistent is False
    assert rec.contains_diagonal is True
    assert rec.quotient["name"] == "S3"
    assert set(rec.per_prime) == {"2", "3"}


def test_analyze_record_non_subdirect():
    G = symmetric(3)
    info = direct_product(G, G)
    U = subgroup_generated(info.group, [info.encode(1, 0)])
    rec = analyze_subgroup(U)
    assert rec.subdirect is False
    assert rec.extensible is None
    assert rec.per_prime == {}


def test_record_json_roundtrip():
    G = dihedral(8)
    info = direct_product(G, G)
    U = subgroup_generated(
        info.group,
        [info.encode(g, g) for g in range(8)] + [info.encode(2, 0)])
    rec = analyze_subgroup(U)
    assert rec.extensible is False
    clone = AnalysisRecord.from_dict(json.loads(rec.to_json()))
    assert clone == rec
    assert clone.to_json() == rec.to_json()


def test_record_rejects_unknown_fields():
    rec = analyze_subgroup(diagonal(cyclic(2)))
    payload = json.loads(rec.to_json())
    payload["surprise"] = 1
    with pytest.raises(ParseError):
        AnalysisRecord.from_dict(payload)
    payload = json.loads(rec.to_json())
    del payload["subdirect"]
    with pytest.raises(ParseError):
        AnalysisRecord.from_dict(payload)


def test_record_pairs_share_the_subgroup_elements(tmp_path):
    """A record keeps U's element tuple itself and expands it to the
    [g, h] lists only when written; read back, it compares equal."""
    info = direct_product(dihedral(8), cyclic(2))
    subs = enumerate_subdirect(info.left, info.right)
    records = [analyze_subgroup(U) for U in subs]
    for U, record in zip(subs, records):
        assert record.pairs.elements is U.elements
        assert len(record.pairs) == U.order
        want = [list(info.decode(x)) for x in U.elements]
        assert record.to_dict()["pairs"] == want
        assert record.pairs == want and want == record.pairs
        assert record.pairs != want[:-1]
    path = tmp_path / "report.jsonl"
    write_records(path, records)
    _, loaded = read_records(path)
    assert loaded == records and records == loaded
    assert [r.to_json() for r in loaded] == [r.to_json() for r in records]
    assert records[0] != records[1]


def test_write_and_read_records(tmp_path):
    G = cyclic(2)
    recs = [analyze_subgroup(U) for U in enumerate_subdirect(G, G)]
    path = tmp_path / "report.jsonl"
    count = write_records(path, recs, extra_header={"source": "test"})
    assert count == len(recs)
    header, loaded = read_records(path)
    assert header["source"] == "test"
    assert loaded == recs


def _report(directory, *record_lines):
    """A report file with a real header line and these record lines."""
    path = directory / "report.jsonl"
    write_records(path, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in record_lines))
    return path


@pytest.mark.parametrize("line", ["5", "null", "[[1]]", '"text"', "true"])
def test_read_records_rejects_non_object_lines(tmp_path, line):
    with pytest.raises(ParseError, match="line 2 is not a JSON object"):
        read_records(_report(tmp_path, line))


def test_read_records_rejects_undecodable_files(tmp_path):
    path = _report(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        read_records(path)


# The JSON type of each record field, written out independently of the
# annotations that records.py checks against.
_FIELD_JSON_TYPES = {
    "schema": (str,), "left": (dict,), "right": (dict,), "pairs": (list,),
    "subdirect": (bool,), "projections": (dict,),
    "quotient": (dict, type(None)), "contains_diagonal": (bool, type(None)),
    "primes": (list,), "per_prime": (dict,),
    "extensible": (bool, type(None)),
    "oracle_extensible": (bool, type(None)),
    "oracle_mode": (str, type(None)), "inconsistent": (bool,),
    "star": (dict, type(None)), "timing_ms": (int, float, type(None)),
}
_VALID_RECORD = json.loads(analyze_subgroup(diagonal(cyclic(2))).to_json())


def _has_json_type(value, types) -> bool:
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


def test_record_field_types_cover_every_field():
    assert set(_FIELD_JSON_TYPES) == set(AnalysisRecord.__dataclass_fields__)


def test_read_records_rejects_a_record_of_fives(tmp_path):
    payload = {name: 5 for name in _FIELD_JSON_TYPES}
    payload["schema"] = RECORD_SCHEMA
    with pytest.raises(ParseError, match="line 2: record field 'left'"):
        read_records(_report(tmp_path, json.dumps(payload)))


@pytest.mark.parametrize("name", sorted(set(_FIELD_JSON_TYPES) - {"schema"}))
def test_read_records_names_a_mistyped_field(tmp_path, name):
    wrong = "5" if int in _FIELD_JSON_TYPES[name] else 5
    payload = {**_VALID_RECORD, name: wrong}
    with pytest.raises(ParseError, match=f"line 3: record field '{name}'"):
        read_records(_report(tmp_path, json.dumps(_VALID_RECORD),
                             json.dumps(payload)))


_RECORD_FIELDS = sorted(AnalysisRecord.__dataclass_fields__)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=3)),
    max_leaves=8)
_RECORD_LIKE = st.dictionaries(
    st.sampled_from(_RECORD_FIELDS) | st.text(max_size=3),
    st.just(RECORD_SCHEMA) | _JSON_VALUES, max_size=len(_RECORD_FIELDS) + 1)
# A real record with some fields swapped for arbitrary JSON values.
_TYPE_CONFUSED = st.dictionaries(
    st.sampled_from(_RECORD_FIELDS), _JSON_VALUES, min_size=1
).map(lambda junk: {**_VALID_RECORD, **junk})
_REPORT_LINES = (_JSON_VALUES.map(json.dumps) | _RECORD_LIKE.map(json.dumps)
                 | _TYPE_CONFUSED.map(json.dumps)
                 | st.text(max_size=12) | st.just('{"a":' * 5000))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_REPORT_LINES, max_size=4), junk_header=st.booleans())
def test_read_records_raises_only_parse_errors(tmp_path_factory, lines,
                                               junk_header):
    """read_records raises only ParseError, and every record it does
    load has a value of its field's JSON type in every field."""
    path = _report(tmp_path_factory.getbasetemp(), *lines)
    if junk_header:
        path.write_text("\n".join(lines), encoding="utf-8")
    try:
        _, records = read_records(path)
    except ParseError:
        return
    for record in records:
        for name, types in _FIELD_JSON_TYPES.items():
            assert _has_json_type(getattr(record, name), types), name


def test_star_analysis_fields():
    G = symmetric(3)
    U = diagonal(G)
    rec = star_analysis(U, U)
    assert rec.star is not None
    assert rec.star["composite_order"] == 6
    assert rec.star["section_of_left"] is True
    assert rec.star["preservation_condition"] == {
        "side1": True, "side2": True}
    assert rec.extensible is True


def test_timing_is_nulled_in_serialization():
    rec = analyze_subgroup(diagonal(cyclic(2)))
    assert rec.timing_ms is None  # nothing measures it
    payload = json.loads(rec.to_json())
    assert payload["timing_ms"] is None


# -- self checks ------------------------------------------------------------------


def test_run_checks_small_selection():
    ctx = CheckContext([catalog_group("C2"), catalog_group("S3")])
    results = run_checks(ctx)
    assert results
    for res in results:
        assert res.passed, res.line()
        assert res.checked >= 0


def test_run_checks_name_filter():
    ctx = CheckContext([catalog_group("C2")])
    results = run_checks(ctx, names=["group-axioms", "goursat-roundtrip"])
    assert [r.name for r in results] == ["group-axioms", "goursat-roundtrip"]


def test_run_checks_unknown_name():
    ctx = CheckContext([catalog_group("C2")])
    with pytest.raises(KeyError):
        run_checks(ctx, names=["no-such-check"])


# -- command line -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_analyze_diagonal(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3",
                             "--U", "diagonal")
    assert code == 0
    assert "extensible" in out
    assert "oracle agrees" in out


def test_cli_analyze_center_example(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--G", "D8", "--U",
        '{"pairs": [[1, 1], [4, 4], [2, 0]]}')
    assert code == 0
    assert "inextensible" in out
    assert "central-shortcut" in out


def test_cli_analyze_non_subdirect_reports(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3",
                             "--U", '{"pairs": [[1, 0]]}')
    assert code == 0
    assert "not subdirect" in out


def test_cli_analyze_mixed_factors(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3", "--H", "C6",
                             "--U", "full")
    assert code == 0
    assert "extensible" in out


def test_cli_analyze_prime_selection(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "D8",
                             "--U", '{"pairs": [[1, 1], [4, 4], [2, 0]]}',
                             "--prime", "3")
    assert code == 0
    assert "p=3" in out
    assert "p=2" not in out


def test_cli_analyze_raw_oracle(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "C2",
                             "--U", "diagonal", "--raw-oracle")
    assert code == 0
    assert "extensible" in out


def test_cli_subdirects_counts(capsys):
    code, out, err = run_cli(capsys, "subdirects", "--G", "C2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["count"] == 2


def test_cli_subdirects_to_file(capsys, tmp_path):
    path = tmp_path / "out.jsonl"
    code, out, err = run_cli(capsys, "subdirects", "--G", "S3",
                             "--out", str(path))
    assert code == 0
    header, recs = read_records(path)
    assert len(recs) == 8
    assert all(rec.subdirect for rec in recs)
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["count"] == 8


def test_cli_subdirects_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(capsys, "subdirects", "--G", "S3", "--out", str(a))[0] == 0
    assert run_cli(capsys, "subdirects", "--G", "S3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `subdirects` stdout with no --out, and of the --out file and
# the summary stdout with one, recorded when every record was built
# before the first was printed.
PINNED_SUBDIRECTS = {
    "subdirects --G D8xC2": (
        "3df40a328b18594b4b46de7d34f167fd3e2f7564eb9533afd1f350490a073504",
        "16fb63882db8b3f8500ad741845825a932d089899092ad5239ecf855db121b47",
        "295b80058abb45a162af7804cd89a154ce391a83e12cc61b261b18d0f0a1b9b3"),
    "subdirects --G S4 --H S3": (
        "8ab42ab30a71e2ed4e6ef475534c08c64f1e54369a433b517d34e15a82c94700",
        "12687fcd6f6b4d319375d947fc6be4c79b10271ffba79cb3dd04aa72f167c776",
        "19b6367a1dabd7f79dfc05dd855a6cfdea60961b7e83921c306f0703bbec1543"),
}


def _sha256(data) -> str:
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED_SUBDIRECTS))
def test_cli_subdirects_stream_pinned_bytes(capsys, tmp_path, command):
    stdout, report, summary = PINNED_SUBDIRECTS[command]
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert _sha256(out) == stdout
    path = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, *command.split(), "--out", str(path))
    assert code == 0, err
    assert _sha256(path.read_bytes()) == report
    assert _sha256(out) == summary


def _spy_on_records(monkeypatch, fail_at=None) -> list:
    """Weak references to the records cli.analyze_subgroup returns, and
    before each call the count of those still alive; the call numbered
    ``fail_at`` raises InternalInconsistency instead."""
    refs, alive = [], []
    analyze = cli.analyze_subgroup

    def spy(U, primes, *, raw_oracle):
        alive.append(sum(ref() is not None for ref in refs))
        if len(alive) == fail_at:
            raise subdirect.InternalInconsistency("planted")
        record = analyze(U, primes, raw_oracle=raw_oracle)
        refs.append(weakref.ref(record))
        return record

    monkeypatch.setattr(cli, "analyze_subgroup", spy)
    return alive


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_cli_subdirects_holds_one_record_at_a_time(capsys, monkeypatch,
                                                   tmp_path, to_file):
    alive = _spy_on_records(monkeypatch)
    out_args = ("--out", str(tmp_path / "r.jsonl")) if to_file else ()
    code, out, err = run_cli(capsys, "subdirects", "--G", "D8", *out_args)
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["count"] == len(alive) == 24
    assert max(alive) == 1


def test_cli_subdirects_fault_keeps_the_old_report(capsys, monkeypatch,
                                                   tmp_path):
    """A fault in the third analysis exits 1: with --out, the existing
    file stays byte for byte and no temporary file is left; without it,
    the first two records are already printed, and no summary."""
    path = tmp_path / "report.jsonl"
    path.write_bytes(b"an older report\n")
    _spy_on_records(monkeypatch, fail_at=3)
    code, out, err = run_cli(capsys, "subdirects", "--G", "S3",
                             "--out", str(path))
    assert code == 1
    assert "internal consistency failure: planted" in err
    assert out == ""
    assert path.read_bytes() == b"an older report\n"
    assert sorted(tmp_path.iterdir()) == [path]
    _spy_on_records(monkeypatch, fail_at=3)
    code, out, err = run_cli(capsys, "subdirects", "--G", "S3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["schema"] == RECORD_SCHEMA for line in lines)


def test_cli_star_diagonals(capsys):
    code, out, err = run_cli(capsys, "star", "--G", "S3",
                             "--U", "diagonal", "--V", "diagonal")
    assert code == 0
    assert "composition" in out


def test_cli_star_nonpreservation_witness(capsys, tmp_path):
    path = tmp_path / "star.jsonl"
    code, out, err = run_cli(
        capsys, "star", "--G", "D8xC2",
        "--U", '{"pairs": [[0, 5], [1, 1], [2, 2], [3, 3], [4, 4], '
               '[5, 5], [6, 6], [7, 7], [8, 8], [9, 9], [10, 10], '
               '[11, 11], [12, 12], [13, 13], [14, 14], [15, 15], [5, 0]]}',
        "--V", '{"pairs": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], '
               '[6, 6], [7, 7], [8, 8], [9, 9], [10, 10], [11, 11], '
               '[12, 12], [13, 13], [14, 14], [15, 15], [1, 0]]}',
        "--out", str(path))
    assert code == 0
    _, recs = read_records(path)
    rec = recs[0]
    assert rec.extensible is False
    assert rec.star["preservation_condition"] == {
        "side1": False, "side2": False}
    assert rec.star["left_input"]["extensible"] is True
    assert rec.star["right_input"]["extensible"] is True


def test_cli_verify_selection(capsys):
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C3")
    assert code == 0
    assert "all" in out and "passed" in out


def test_cli_verify_times_each_check_on_stderr(capsys, tmp_path):
    path = tmp_path / "verify.jsonl"
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C3",
                             "--out", str(path))
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 28
    assert all(re.fullmatch(r"time [a-z-]+: \d+\.\d ms", line)
               for line in lines)
    assert "time" not in out
    # --out bytes recorded before the timing lines were added.
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c310bdb7cbf0bc06434c3cf27535cc272ac6b216cbaa7f709e73a0701d888244"


def test_cli_verify_above_order_64_exits_0(capsys):
    # The isomorphism search has no order cap: C66's Goursat quotients
    # and twisted diagonals need automorphisms of order-66 groups.
    code, out, err = run_cli(capsys, "verify", "--G", "C66")
    assert code == 0, err
    assert "cap exceeded" not in err


def test_cli_subdirects_of_a_factor_above_the_lattice_cap(capsys):
    # The scans stop at a subgroup count, not at an order: C257 (order
    # 257) has two normal subgroups.
    code, out, err = run_cli(capsys, "subdirects", "--G", "C257", "--H", "C2",
                             "--max-order", "1000")
    assert code == 0, err
    assert json.loads(out.strip().splitlines()[-1])["count"] == 1


def test_cli_subdirects_of_many_normal_subgroups_above_the_cap_exits_3(capsys):
    # E2^9 (order 512) has millions of subgroups, all normal: the normal
    # subgroup scan stops once it has found 32 768 of them.
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "subdirects", "--G", "E2^9", "--H", "C2")
    assert code == 3
    assert "cap exceeded" in err
    assert time.perf_counter() - start < 30


def test_cli_subdirects_of_e2_8_stops_at_the_scan_cap():
    # E2^8 (order 256) has 417 199 normal subgroups; the scan stops at
    # 32 768 at every order.  Run in a child, so a scan with no stop
    # times out rather than filling memory.
    src = pathlib.Path(subdirect.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from subdirect.cli import main; sys.exit(main())",
         "subdirects", "--G", "E2^8", "--H", "C2", "--max-order", "600"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=30)
    err = run.stderr.decode()
    assert run.returncode == 3, err
    assert "cap exceeded" in err


# sha256 of the stdout of `star --G S5 --U diagonal --V diagonal
# --max-order 20000`, whose composite is checked in the factors' tables.
STAR_S5_STDOUT = \
    "569dfe8378fb4c3d89485e0e290b745db7b2ae22cfb840980dd06d3f133eeef9"


def test_cli_star_of_s5_diagonals_builds_no_product_table():
    """The composite, not interned on S5 x S5, is built by the checked
    Subgroup; its closure walk steps in the S5 tables, so the 14 400^2
    table (830 MB) is never built and the run peaks under 100 MB.  A
    small middle process reports the peak of its one child: a process
    forked straight from the test run would count the test run's pages
    in its own peak."""
    src = pathlib.Path(subdirect.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c",
         "import resource, subprocess, sys; run = subprocess.run("
         "sys.argv[1:]); print(resource.getrusage(resource.RUSAGE_CHILDREN)"
         ".ru_maxrss, file=sys.stderr); sys.exit(run.returncode)",
         sys.executable, "-m", "subdirect.cli",
         "star", "--G", "S5", "--U", "diagonal", "--V", "diagonal",
         "--max-order", "20000"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120)
    err = run.stderr.decode()
    assert run.returncode == 0, err
    assert hashlib.sha256(run.stdout).hexdigest() == STAR_S5_STDOUT
    assert int(err.splitlines()[-1]) < 100 * 1024, err  # ru_maxrss in KiB


def test_cli_verify_out_keeps_the_old_file_when_a_line_fails(
        capsys, monkeypatch, tmp_path):
    """verify --out goes through the report writer: a line that cannot
    be written leaves an existing file byte for byte and no temporary
    file behind."""
    path = tmp_path / "verify.jsonl"
    path.write_bytes(b"an older verify file\n")
    real = cli.iter_checks

    def unwritable(ctx):
        yield from real(ctx)
        yield verification.CheckResult("planted", True, object())

    monkeypatch.setattr(cli, "iter_checks", unwritable)
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_cli(capsys, "verify", "--G", "C2", "--out", str(path))
    assert path.read_bytes() == b"an older verify file\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_cli_verify_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 10-20 ms per process;
    # the library dedupes with boolean masks instead.
    src = pathlib.Path(subdirect.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from subdirect.cli import main; code = main(); "
         "print('numpy.ma' in sys.modules, file=sys.stderr); sys.exit(code)",
         "verify", "--G", "C2,S3"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60)
    err = run.stderr.decode()
    assert run.returncode == 0, err
    assert err.splitlines()[-1] == "False", err


def test_cli_closed_stdout_exits_141_without_a_traceback():
    # D8xC2 x D8xC2 prints about 600 kB, more than a pipe buffer holds,
    # so the child is still writing when the reader closes its end.
    src = pathlib.Path(subdirect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from subdirect.cli import main; sys.exit(main())",
         "subdirects", "--G", "D8xC2", "--H", "D8xC2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141, err
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err


def test_cli_verify_caps_the_composite_home(capsys):
    # C9 x C2 and C2 x C9 are within the cap; their composites live in
    # C9 x C9, which is not.
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C9",
                             "--max-order", "18")
    assert code == 3
    assert "product order 81 above cap 18" in err


def test_cli_verify_composite_cap_ignores_earlier_runs(capsys):
    # The cap-9 run builds C3 x C3 on the shared catalog C3; the cap-6
    # run must still refuse it as the home of its composites.
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C3",
                             "--max-order", "9")
    assert code == 0, err
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C3",
                             "--max-order", "6")
    assert code == 3
    assert "product order 9 above cap 6" in err


def test_cli_verify_caps_catalog_entries(capsys):
    """A catalog name above the cap exits 3 like a spec entry, while the
    default whole-catalog selection still sweeps within the cap."""
    for entries in ("D8", "D8xC2"):
        code, out, err = run_cli(capsys, "verify", "--G", entries,
                                 "--max-order", "4")
        assert code == 3, err
        assert "cap exceeded: order of D8 above cap 4" in err
    code, out, err = run_cli(capsys, "verify", "--G", "D8",
                             "--max-order", "8")
    assert code == 0, err
    code, out, err = run_cli(capsys, "verify", "--max-order", "4")
    assert code == 0, err


def test_cli_products_do_not_outlive_their_factors(capsys):
    def live_products() -> list:
        return [obj for obj in gc.get_objects()
                if isinstance(obj, ProductGroup)]

    gc.collect()
    before = live_products()  # held, so no new product can reuse an id
    for _ in range(3):
        code, out, err = run_cli(capsys, "analyze", "--G", "S4",
                                 "--U", "diagonal")
        assert code == 0, err
    gc.collect()
    known = {id(obj) for obj in before}
    assert [obj for obj in live_products() if id(obj) not in known] == []


S5_SQUARE_VERDICTS = [
    "G: S5 (order 120) x H: S5 (order 120); U order 120",
    "subdirect: yes (p1 120, k1 1 | p2 120, k2 1); contains diagonal: yes",
    "common section q(U): order 120, unidentified",
    "p=2: extensible [exact-criterion]; oracle: extensible",
    "p=3: extensible [exact-criterion]; oracle: extensible",
    "p=5: extensible [exact-criterion]; oracle: extensible",
    "overall: extensible for pi=[2, 3, 5] (oracle agrees)",
]


def test_cli_large_product_analysis_builds_no_product_table(capsys,
                                                            monkeypatch):
    """`subdirects` and `analyze` with `--U` diagonal, full or pairs on
    S5 x S5 read only the factors' tables: the product's 830 MB table is
    never built, and each command's traced peak stays far below it."""
    build = products.ProductGroup.table

    def refuse(info):
        if info.group.order == 120 * 120:
            raise AssertionError(f"the table of {info.group.label} was built")
        return build(info)

    monkeypatch.setattr(products.ProductGroup, "table", refuse)
    outputs, peaks = {}, {}
    for name, argv in (("subdirects", ("subdirects",)),
                       ("diagonal", ("analyze", "--U", "diagonal")),
                       ("full", ("analyze", "--U", "full")),
                       ("pairs", ("analyze", "--U",
                                  '{"pairs": [[1, 0], [0, 1]]}'))):
        tracemalloc.start()
        try:
            code = main([*argv, "--G", "S5", "--H", "S5",
                         "--max-order", "20000"])
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 0, err
        outputs[name] = out.splitlines()
    assert max(peaks.values()) < 32 << 20, peaks
    records = outputs["subdirects"]
    assert len(records) == 123
    assert records[-1] == ('{"count": 122, "extensible_count": '
                           '{"2": 122, "3": 122, "5": 122}, '
                           '"inconsistent_count": 0}')
    assert outputs["diagonal"] == S5_SQUARE_VERDICTS
    assert outputs["full"] == [
        "G: S5 (order 120) x H: S5 (order 120); U order 14400",
        "subdirect: yes (p1 120, k1 120 | p2 120, k2 120); "
        "contains diagonal: yes",
        "common section q(U): order 1, 1, invariants []",
        *(f"p={p}: extensible [exact-criterion, cyclic-sylow]; "
          "oracle: extensible" for p in (2, 3, 5)),
        "overall: extensible for pi=[2, 3, 5] (oracle agrees)"]
    assert outputs["pairs"] == [
        "G: S5 (order 120) x H: S5 (order 120); U order 4",
        "subdirect: no (p1 2, k1 2 | p2 2, k2 2); contains diagonal: no",
        "no extensibility verdicts: U is not subdirect"]


def test_cli_repeated_star_runs_keep_the_live_groups_steady(capsys):
    # the isomorphism-class registry may grow on the first run only
    def live_groups() -> int:
        gc.collect()
        return sum(isinstance(obj, FiniteGroup) for obj in gc.get_objects())

    counts = []
    for _ in range(3):
        code, out, err = run_cli(capsys, "star", "--G", "D8", "--H", "Q8",
                                 "--U", "full", "--V", "full")
        assert code == 0, err
        counts.append(live_groups())
    assert counts[1] == counts[0] and counts[2] == counts[0]


def test_cli_verify_rejects_bad_table(capsys, tmp_path):
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    table[3][4] = table[3][3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "cayley", "data": {"table": table}}))
    code, out, err = run_cli(capsys, "verify", "--G", f"@{path}")
    assert code == 2
    assert "input error" in err


def test_cli_verify_empty_selection(capsys):
    code, out, err = run_cli(capsys, "verify", "--G", "")
    assert code == 0


def test_cli_verify_out_file(capsys, tmp_path):
    path = tmp_path / "verify.jsonl"
    code, out, err = run_cli(capsys, "verify", "--G", "C2",
                             "--out", str(path))
    assert code == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(line["schema"] == "subdirect-verify/1" for line in lines)
    assert all(line["passed"] for line in lines)


CHECK_LINE = re.compile(r"[a-z-]+: (pass|FAIL) \(\d+ cases\)")


def test_cli_verify_library_error_in_a_check_exits_1(capsys, tmp_path,
                                                     monkeypatch):
    def broken(G, N):
        raise subdirect.NotNormal("injected")

    monkeypatch.setattr(verification, "quotient_group", broken)
    path = tmp_path / "verify.jsonl"
    code, out, err = run_cli(capsys, "verify", "--G", "C2,S3",
                             "--out", str(path))
    assert code == 1, err
    assert "input error" not in err
    checks = [line for line in out.splitlines() if CHECK_LINE.fullmatch(line)]
    assert len(checks) == 28
    assert [c for c in checks if "FAIL" in c] == \
        ["quotient-commutator: FAIL (5 cases)"]
    assert "  FiniteGroup('C2', order=2), Subgroup(order=1 of C2): " \
        "NotNormal: injected" in out.splitlines()
    assert out.splitlines()[-1] == "FAILED 1 of 28 checks (4693 cases)"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 28
    assert [line["name"] for line in lines if not line["passed"]] == \
        ["quotient-commutator"]


def test_cli_verify_failure_names_factors_order_and_prime(capsys,
                                                         monkeypatch):
    def broken(U, p):
        raise subdirect.InternalInconsistency("injected")

    monkeypatch.setattr(verification, "oracle_is_p_extensible", broken)
    code, out, err = run_cli(capsys, "verify", "--G", "C2,S3")
    assert code == 1, err
    assert "internal consistency failure" not in err
    lines = out.splitlines()
    assert len([line for line in lines if CHECK_LINE.fullmatch(line)]) == 28
    at = lines.index("oracle-agreement: FAIL (26 cases)")
    assert lines[at + 4] == (
        "  FiniteGroup('C2', order=2), FiniteGroup('S3', order=6), "
        "Subgroup(order=12 of C2xS3), 3: InternalInconsistency: injected")


def test_cli_verify_cap_in_a_check_exits_3(capsys, monkeypatch):
    def capped(G):
        raise subdirect.OrderLimitExceeded("injected cap")

    monkeypatch.setattr(verification, "abelianization", capped)
    code, out, err = run_cli(capsys, "verify", "--G", "C2")
    assert code == 3
    assert "cap exceeded: injected cap" in err


def test_cli_verify_case_builder_error_fails_its_check_only(capsys, tmp_path,
                                                          monkeypatch):
    """An error raised while a check's cases are built, not by one case,
    fails that check with one line naming it, the cases reached and the
    error; the other checks run and --out is written."""
    real = verification._plain_diagonal_stars

    def broken(ctx, keep=lambda U: True):
        yield from itertools.islice(real(ctx, keep), 2)
        raise subdirect.InternalInconsistency("injected")

    monkeypatch.setattr(verification, "_plain_diagonal_stars", broken)
    path = tmp_path / "verify.jsonl"
    code, out, err = run_cli(capsys, "verify", "--G", "C2,S3",
                             "--out", str(path))
    assert code == 1, err
    assert "internal consistency failure" not in err
    lines = out.splitlines()
    checks = [line for line in lines if CHECK_LINE.fullmatch(line)]
    assert len(checks) == 28
    assert [c for c in checks if "FAIL" in c] == \
        ["star-preservation: FAIL (2 cases)"]
    at = lines.index("star-preservation: FAIL (2 cases)")
    assert lines[at + 1] == ("  star-preservation stopped after 2 cases: "
                             "InternalInconsistency: injected")
    assert CHECK_LINE.fullmatch(lines[at + 2])
    assert lines[-1].startswith("FAILED 1 of 28 checks (")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 28
    assert [(r["name"], r["checked"], r["failures"]) for r in records
            if not r["passed"]] == [("star-preservation", 2, [
                "star-preservation stopped after 2 cases: "
                "InternalInconsistency: injected"])]


def test_cli_verify_prints_each_check_as_it_finishes(capsys, monkeypatch):
    """A cap exceeded in a late check exits 3 after the lines of the
    checks that finished before it."""
    def capped(U, m):
        raise subdirect.OrderLimitExceeded("injected cap")

    monkeypatch.setattr(verification, "restriction_kernel_image_sizes", capped)
    code, out, err = run_cli(capsys, "verify", "--G", "C2,C3")
    assert code == 3
    names = [r.name for r in run_checks(CheckContext([]))]
    late = names.index("restriction-kernel")
    assert out.splitlines() == [
        f"{name}: pass ({n} cases)" for name, n in zip(
            names[:late], (6, 6, 4, 2, 14, 19, 19, 19, 19, 4, 86, 25, 25,
                           18, 7, 9, 7, 9, 5, 8, 8, 7, 14, 10))]
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"time {name}" for name in names[:late]]
    assert lines[-1] == "cap exceeded: injected cap"


def test_cli_catalog(capsys):
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("C2", "S3", "D8", "Q8"):
        assert name in out


def test_cli_unknown_group_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "F20",
                             "--U", "diagonal")
    assert code == 2
    assert "input error" in err
    code, _, err = run_cli(capsys, "analyze", "--G", "S3", "--U", "bogus")
    assert code == 2


def test_cli_cap_exits_3(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "D8xD8xD8",
                             "--U", "full")
    assert code == 3
    assert "cap exceeded" in err


def test_cli_bad_prime_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3",
                             "--U", "diagonal", "--prime", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("analyze", "--G", "S3", "--U", "full", "--prime", "4"),
    ("analyze", "--G", "S3", "--U", "full", "--pi", "4"),
    ("subdirects", "--G", "S3", "--pi", "2,9"),
    ("analyze", "--G", "S3", "--U", "full", "--prime", "0"),
], ids=["prime-4", "pi-4", "pi-2-9", "prime-0"])
def test_cli_composite_prime_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "is not a prime" in err


@pytest.mark.parametrize("flag, value", [
    ("--pi", "1000000000000000003"), ("--prime", "1000000000000000003"),
    ("--pi", "2147483648"), ("--prime", "-2147483649"),
])
def test_cli_prime_outside_int32_exits_2_before_any_primality_test(
        capsys, monkeypatch, flag, value):
    """The first value is prime: trial division would run up to 10^9.
    The same int32 rule as the specs' integers refuses it first."""
    def refuse(p):
        raise AssertionError(f"is_prime({p}) ran")

    monkeypatch.setattr(cli, "is_prime", refuse)
    code, out, err = run_cli(capsys, "analyze", "--G", "S3",
                             "--U", "diagonal", flag, value)
    assert code == 2 and out == ""
    assert f"prime {value} is outside the int32 range" in err


@pytest.mark.parametrize("flag", ["--pi", "--prime"])
def test_cli_largest_int32_prime_is_decided(capsys, flag):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3",
                             "--U", "diagonal", flag, "2147483647")
    assert code == 0, err
    assert out.splitlines()[-1] == ("overall: extensible for "
                                    "pi=[2147483647] (oracle agrees)")


@pytest.mark.parametrize("argv", [
    ("analyze", "--G", "S3", "--U", "full"),
    ("subdirects", "--G", "S3"),
    ("star", "--G", "S3", "--U", "diagonal", "--V", "diagonal"),
    ("verify", "--G", "C2"),
], ids=["analyze", "subdirects", "star", "verify"])
@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cli_non_positive_max_order_exits_2(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-order", cap])
    assert exc.value.code == 2
    assert "--max-order: must be positive" in capsys.readouterr().err


def test_cli_diagonal_on_mixed_factors_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--G", "S3", "--H", "C2",
                             "--U", "diagonal")
    assert code == 2


@pytest.mark.parametrize("argv, cap, count", [
    (("analyze", "--G", "A5", "--U", "diagonal"), "5000", None),
    (("subdirects", "--G", "C37"), "1400", 37),
    (("star", "--G", "C37", "--H", "C1", "--U", "full", "--V", "full"),
     "1400", None),
    (("analyze", "--G", "C28xC49", "--H", "C1", "--U", "full"), "1400",
     None),
], ids=["analyze-diagonal", "subdirects", "star-composite", "product-spec"])
def test_cli_max_order_raises_every_product_cap(capsys, argv, cap, count):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "cap exceeded" in err
    code, out, err = run_cli(capsys, *argv, "--max-order", cap)
    assert code == 0, err
    if count is not None:
        assert json.loads(out.strip().splitlines()[-1])["count"] == count


def _cayley(table) -> str:
    return json.dumps({"kind": "cayley", "data": {"table": table}})


def _permutations(generators) -> str:
    return json.dumps({"kind": "permutations",
                       "data": {"degree": 3, "generators": generators}})


@pytest.mark.parametrize("argv", [
    ("--G", "S3", "--U", '{"pairs": 5}'),
    ("--G", "S3", "--U", '{"pairs": [[1.5, 0]]}'),
    ("--G", _cayley([[0, 1], [1]]), "--U", "full"),
    ("--G", _cayley([[0, "a"], [1, 0]]), "--U", "full"),
    ("--G", _cayley([[0, 1.5], [1, 0]]), "--U", "full"),
    ("--G", _permutations([["a", 1, 2]]), "--U", "full"),
    ("--G", _permutations(["(0 a)"]), "--U", "full"),
    ("--G", _permutations([[1.7, 0, 2]]), "--U", "full"),
    ("--G", _permutations([[True, 0, 2]]), "--U", "full"),
    ("--G", _cayley([[0, 99999999999]]), "--U", "full"),
], ids=["pairs-not-a-list", "pair-float", "cayley-ragged", "cayley-string",
        "cayley-float", "image-string", "cycle-string", "image-float",
        "image-bool", "cayley-int64"])
def test_cli_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 2
    assert "input error" in err


_POINT_IN_TWO_CYCLES = json.dumps(
    {"kind": "permutations", "data": {"degree": 3,
                                      "generators": ["(0 1)(1 2)"]}})
_NEGATIVE_DEGREE = json.dumps(
    {"kind": "permutations", "data": {"degree": -1, "generators": ["()"]}})


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--G", _POINT_IN_TWO_CYCLES, "--U", "full"),
     "point 1 repeated"),
    (("analyze", "--G", _NEGATIVE_DEGREE, "--U", "full"),
     "permutation degree -1 is negative"),
    (("verify", "--G", _NEGATIVE_DEGREE),
     "permutation degree -1 is negative"),
], ids=["point-in-two-cycles", "negative-degree", "negative-degree-verify"])
def test_cli_bad_permutation_spec_exits_2_without_a_traceback(argv, message):
    src = pathlib.Path(subdirect.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from subdirect.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60)
    err = run.stderr.decode()
    assert run.returncode == 2, err
    assert f"input error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--G", "--U"])
@pytest.mark.parametrize("kind, message", [
    ("missing-file", "cannot read"),
    ("bad-file-json", "bad JSON in"),
    ("bad-inline-json", "bad inline JSON"),
    ("deep-file-json", "bad JSON in"),
    ("deep-inline-json", "bad inline JSON"),
    ("binary-file", "bad JSON in"),
])
def test_cli_unreadable_json_exits_2(capsys, tmp_path, flag, kind, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    deep_text = '{"a":' * 100_000 + "1" + "}" * 100_000
    deep = tmp_path / "deep.json"
    deep.write_text(deep_text)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff{"kind": "preset"}')
    value = {"missing-file": f"@{tmp_path / 'absent.json'}",
             "bad-file-json": f"@{bad}",
             "bad-inline-json": '{"kind": ',
             "deep-file-json": f"@{deep}",
             "deep-inline-json": deep_text,
             "binary-file": f"@{binary}"}[kind]
    argv = {"--G": ("--G", value, "--U", "full"),
            "--U": ("--G", "S3", "--U", value)}[flag]
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 2
    assert f"input error: {message}" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--G", "C2", "--U", "full"),
    ("subdirects", "--G", "C2"),
    ("star", "--G", "C2", "--U", "full", "--V", "full"),
    ("verify", "--G", "C2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_exits_2(capsys, tmp_path, argv, where):
    path = {"missing-dir": tmp_path / "absent" / "report.jsonl",
            "directory": tmp_path}[where]
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert f"input error: cannot write {path}: " in err


def test_cli_verify_splits_the_selection_outside_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--G",
        'C2,{"kind":"preset","data":{"id":"quaternion8"}}')
    assert code == 0
    code, shorthand, err = run_cli(capsys, "verify", "--G", "C2,Q8")
    assert code == 0
    assert out == shorthand


@pytest.mark.parametrize("selection, exit_code", [
    ('{"kind":"preset","data":{"id":"cyclic","n":4}}', 0),
    ('C2,{"kind":', 2),
], ids=["json-with-commas", "malformed-json"])
def test_cli_verify_json_entries(capsys, selection, exit_code):
    code, out, err = run_cli(capsys, "verify", "--G", selection)
    assert code == exit_code
    assert ("input error" in err) == (exit_code == 2)


# sha256 of the --out files of fixed commands.  Report bytes are part of
# the interface: a refactor must leave them unchanged.  Q8 and D8 cover
# the central shortcut and inextensible verdicts.
PINNED_REPORTS = {
    "analyze --G A5 --U full --max-order 5000":
        "e71b7cd8f8eb851ce4f77abb59ae23fdeac17eff1e824bd0baf0f19ec89da3ca",
    "analyze --G A5 --U diagonal --max-order 5000":
        "033210d956dbd3faad516067254e0f49955aa1a72efaf2883a8e6add5a9e8cf8",
    "analyze --G S4 --U full":
        "87da8555e9217a664d6985762ae382ab8b4b25b462431c7f50f1887a2c47788b",
    "subdirects --G S3":
        "82921ccb842e8df4b89a15344f4b21c540c3c4753ec82fd37a2c79cfdaadb34e",
    "subdirects --G Q8":
        "8edd702090190dc86b670a8a4d29dcf07c28676fc472a5f725a6cfffaef4ecae",
    "subdirects --G D8":
        "65d43ce58f6db32601f88c8992be3c1e823776e082845aec97b94f1aca02126f",
    "star --G S3 --U diagonal --V full":
        "712e3fdfedac93d37ea95d826445475f6cfab6e69fa4558616ebec406ede7416",
    "subdirects --G D8xC2 --H D8xC2":
        "16fb63882db8b3f8500ad741845825a932d089899092ad5239ecf855db121b47",
}


# The whole-catalog verify --out file, pinned like the reports above.
VERIFY_DIGEST = \
    "d500d49c7bfa165be947d47303ee55c4250948888e9410a040934329f955ffa9"


def test_cli_verify_whole_catalog_bytes_pinned(capsys, tmp_path):
    path = tmp_path / "verify.jsonl"
    code, out, err = run_cli(capsys, "verify", "--out", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "all 28 checks passed (257692 cases)"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_DIGEST


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_cli_report_bytes_pinned(capsys, tmp_path, command):
    path = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, *command.split(), "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        PINNED_REPORTS[command]


def test_package_exports_resolve_and_are_not_modules():
    assert subdirect.__all__
    for name in subdirect.__all__:
        value = getattr(subdirect, name)
        assert not isinstance(value, types.ModuleType), name
