import json
from dataclasses import dataclass

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isosym.construct import random_commuting_tuple, reference_pair
from isosym.defect import MultiOperator
from isosym.errors import CommutationViolated, ParseError
from isosym.tupleio import (dumps, matrix_to_json, read_tuple,
                            tuple_from_dict, tuple_to_dict, write_tuple)

from oracles import matrix_to_json_entrywise


def test_round_trip_bit_exact(tmp_path):
    op = random_commuting_tuple(3, 6, 2024)
    path = tmp_path / "tuple.json"
    write_tuple(path, op, metadata={"name": "round-trip", "seed": 2024})
    loaded, meta = read_tuple(path)
    assert meta["name"] == "round-trip"
    assert meta["seed"] == 2024
    for a, b in zip(op.matrices, loaded.matrices):
        assert np.array_equal(a, b)  # bit exact


#: finite floats whose tuples keep a finite norm, the signed zeros and the
#: smallest subnormals among them
_ENTRIES = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from(
    [-0.0, 5e-324, -5e-324])


@st.composite
def _tuples(draw):
    """A diagonal tuple of any such entries (its commutators are exactly 0),
    or a dense random commuting one."""
    d, dim = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return random_commuting_tuple(d, dim, draw(st.integers(0, 2 ** 32)))
    parts = draw(st.lists(_ENTRIES, min_size=2 * d * dim,
                          max_size=2 * d * dim))
    diagonals = np.array(parts).view(np.complex128).reshape(d, dim)
    return MultiOperator([np.diag(z) for z in diagonals])


@settings(max_examples=60, deadline=None)
@given(op=_tuples())
def test_a_tuple_reads_back_from_its_dict_byte_for_byte(op):
    data = tuple_to_dict(op)
    for document in (data, json.loads(dumps(data))):
        back, _ = tuple_from_dict(document)
        assert back.stack.tobytes() == op.stack.tobytes()


def test_written_file_matches_schema(tmp_path, schemas):
    path = tmp_path / "t.json"
    write_tuple(path, reference_pair(), metadata={"name": "reference"})
    data = json.loads(path.read_text())
    jsonschema.validate(data, schemas["tuple"])


def test_reference_pair_layout(tmp_path):
    data = tuple_to_dict(reference_pair())
    assert data["d"] == 2 and data["dim"] == 3
    assert data["matrices"][0][1][0] == [1.0, 0.0]
    assert data["matrices"][1][2][2] == [1.0, 0.0]


def test_rejects_wrong_matrix_count():
    data = tuple_to_dict(reference_pair())
    data["d"] = 3
    with pytest.raises(ParseError):
        tuple_from_dict(data)


def test_rejects_non_square():
    data = {"d": 1, "dim": 2, "matrices": [[[[1, 0], [0, 0]]]]}
    with pytest.raises(ParseError):
        tuple_from_dict(data)


def test_rejects_unknown_keys():
    data = tuple_to_dict(reference_pair())
    data["extra"] = 1
    with pytest.raises(ParseError):
        tuple_from_dict(data)


def test_rejects_bad_entries():
    data = {"d": 1, "dim": 1, "matrices": [[[["x", 0]]]]}
    with pytest.raises(ParseError):
        tuple_from_dict(data)


@pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")],
                                   [float("-inf"), 1.0], [1, 0, 7], [1], [],
                                   [True, 0], [0, False], ["1", 0], [None, 0],
                                   {"re": 1, "im": 0}, 1.0, [10 ** 400, 0]],
                         ids=["nan", "inf", "-inf", "three-items", "one-item",
                              "empty", "bool-re", "bool-im", "string", "null",
                              "object", "scalar", "int-overflow"])
def test_rejects_entry_outside_the_schema(entry):
    data = {"d": 1, "dim": 2, "matrices": [[[[1, 0], [0, 0]], [[0, 0], entry]]]}
    with pytest.raises(ParseError):
        tuple_from_dict(data)


def _coerced(value):
    """What int() made of a count before counts were checked, at least 1."""
    try:
        return max(1, int(value))
    except (TypeError, ValueError, OverflowError):
        return 1


@pytest.mark.parametrize("field", ["d", "dim"])
@pytest.mark.parametrize("value", [1, 2, 2.0, 1e1, True, False, "2", 2.9, 1.5,
                                   0, -1, 0.0, -2.0, None, [2], {"n": 2},
                                   float("nan"), float("inf")],
                         ids=["1", "2", "2.0", "1e1", "true", "false", "string",
                              "2.9", "1.5", "0", "-1", "0.0", "-2.0", "null",
                              "list", "object", "nan", "inf"])
def test_counts_load_iff_the_schema_accepts_them(field, value, schemas):
    valid = jsonschema.Draft202012Validator(schemas["tuple"]).is_valid(
        {"d": 1, "dim": 1, "matrices": [[[[1, 0]]]], field: value})
    # the matrices have the shape the value names (or once named, through
    # int()), so only the value's type or range can make the file fail
    size = _coerced(value)
    d, dim = (size, 2) if field == "d" else (1, size)
    data = tuple_to_dict(MultiOperator([np.eye(dim)] * d))
    data[field] = value
    if valid:
        op, _ = tuple_from_dict(data)
        assert (op.d, op.dim) == (d, dim)
    else:
        with pytest.raises(ParseError):
            tuple_from_dict(data)


@pytest.mark.parametrize("metadata", [
    {}, {"name": "x", "seed": 3, "construction": {"kind": "random"}},
    {"seed": -2}, {"seed": 2.0}, {"other": [1, None]}, [], 0, "", False, None,
    "x", [1], {"name": 3}, {"name": None}, {"seed": 1.5}, {"seed": True},
    {"seed": "3"}, {"construction": []}, {"construction": None},
], ids=["empty", "full", "negative-seed", "seed-2.0", "extra-key", "list",
        "zero", "empty-string", "false", "null", "string", "list-of-one",
        "name-number", "name-null", "seed-1.5", "seed-true", "seed-string",
        "construction-list", "construction-null"])
def test_metadata_loads_iff_the_schema_accepts_it(metadata, schemas):
    data = {"d": 1, "dim": 1, "matrices": [[[[1, 0]]]], "metadata": metadata}
    if jsonschema.Draft202012Validator(schemas["tuple"]).is_valid(data):
        _, loaded = tuple_from_dict(data)
        assert loaded == metadata
    else:
        with pytest.raises(ParseError):
            tuple_from_dict(data)


def test_nan_and_infinity_in_a_file_fail_to_parse(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"d": 1, "dim": 1, "matrices": [[[[%s, 0]]]]}' % token)
        with pytest.raises(ParseError):
            read_tuple(path)


def test_accepts_ints_and_floats(schemas):
    data = {"d": 1, "dim": 2, "matrices": [[[[1, 0], [0.5, -2]],
                                            [[0, 0], [1, 0.0]]]]}
    jsonschema.validate(data, schemas["tuple"])
    op, _ = tuple_from_dict(data)
    assert op.matrices[0].tolist() == [[1, 0.5 - 2j], [0, 1]]
    data["matrices"][0][1][1] = [np.int64(1), np.float64(-0.0)]  # from numpy
    op, _ = tuple_from_dict(data)
    assert op.matrices[0].tolist() == [[1, 0.5 - 2j], [0, 1]]


def test_noncommuting_file_fails_to_load():
    bad = {"d": 2, "dim": 2,
           "matrices": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                        [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]}
    with pytest.raises(CommutationViolated):
        tuple_from_dict(bad)


def test_unreadable_path():
    with pytest.raises(ParseError):
        read_tuple("/nonexistent/tuple.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_tuple(path)


def _edge_matrix(big):
    """A 4x4 complex matrix holding -0.0, the smallest subnormal and +-big."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x[0, 0] = complex(-0.0, -0.0)
    x[0, 1] = complex(5e-324, -5e-324)
    x[1, 0] = complex(big, -big)
    x[2, 1] = complex(-big, 0.0)
    return x


_VIEWS = {
    "contiguous": lambda x: x,
    "transposed": lambda x: x.T,
    "conjugate-transposed": lambda x: x.conj().T,
    "sliced": lambda x: x[1:, :3],
    "strided": lambda x: x[::2, ::2],
    "real": lambda x: x.real,
    "integer": lambda x: np.arange(-8, 8).reshape(4, 4),
}


@pytest.mark.parametrize("view", _VIEWS.values(), ids=_VIEWS.keys())
def test_matrix_encoding_matches_the_entrywise_one(view):
    mat = view(_edge_matrix(1e308))
    assert json.dumps(matrix_to_json(mat)) == json.dumps(
        matrix_to_json_entrywise(mat))


@pytest.mark.parametrize("view", _VIEWS.values(), ids=_VIEWS.keys())
def test_written_matrix_reads_back_bit_exact(tmp_path, view):
    # at 1e308 the norm overflows and MultiOperator refuses the tuple
    mat = np.ascontiguousarray(view(_edge_matrix(1e150)), dtype=np.complex128)
    path = tmp_path / "edge.json"
    write_tuple(path, MultiOperator([mat]))
    loaded = read_tuple(path)[0].matrices[0]
    assert np.array_equal(loaded, mat)
    assert np.array_equal(loaded.view(np.uint64), mat.view(np.uint64))


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"d": 1}',
    b'{"d": 1, "dim": 1, "matrices": ' + b"[" * 5000 + b"]" * 5000 + b"}",
    b'{"d": 1, "dim": 1, "matrices": [[[[NaN, 0]]]]}',
    b'{"d": 1, "dim": 1, "matrices": [[[[0, -Infinity]]]]}',
    b'{"d": 1, "dim": 1, "matrices": [[[[1e400, 0]]]]}',
    b'{"d": 1, "dim": 1, "matrices": [[[[true, 0]]]]}',
    b'{"d": 1, "dim": 1, "matrices": [[[["1", 0]]]]}',
    b'{"d": 1, "dim": 2, "matrices": [[[[1, 0], [0, 0]], [[0, 0]]]]}',
    b'{"d": 2, "dim": 1, "matrices": [[[[1, 0]]]]}',
    b'{"d": 1, "dim": 2, "matrices": [[[[1, 0]]]]}',
    b'{"d": 1, "dim": 1, "matrices": [[[[1' + b"0" * 400 + b', 0]]]]}',
], ids=["not-utf-8", "nested-5000-deep", "nan", "infinity", "float-overflow",
        "bool", "string", "ragged", "wrong-d", "wrong-dim", "int-overflow"])
def test_malformed_file_fails_to_parse(tmp_path, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        read_tuple(path)


@dataclass(frozen=True)
class _Record:
    z: complex
    a: tuple
    inner: object = None


def test_dumps_writes_a_record_by_its_fields_in_declaration_order():
    record = _Record(z=1 + 2j, a=(3, "x"), inner=_Record(z=0j, a=()))
    assert dumps(record) == ('{"z": [1.0, 2.0], "a": [3, "x"], "inner": '
                             '{"z": [0.0, 0.0], "a": [], "inner": null}}\n')


@pytest.mark.parametrize("kind", [complex, np.complex128],
                         ids=["complex", "complex128"])
def test_dumps_writes_a_complex_number_as_re_im_keeping_the_sign_of_zero(kind):
    z = kind(complex(-0.0, -0.0))
    assert dumps([z, kind(1.5 - 2.5j)]) == "[[-0.0, -0.0], [1.5, -2.5]]\n"


@pytest.mark.parametrize("value", [object(), np.True_, np.zeros(2), _Record],
                         ids=["object", "numpy-bool", "array", "record-class"])
def test_dumps_refuses_what_it_does_not_know(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"value": value})
