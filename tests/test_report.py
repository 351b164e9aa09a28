"""Deterministic serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from simflow.report import dumps, to_jsonable, write_csv, write_report


def test_float_round_trip():
    values = [0.1, 1 / 3, 1e-308, 6.02e23, -0.0, math.pi]
    text = dumps({"v": values})
    back = json.loads(text)
    assert back["v"] == values


def test_keys_sorted_and_insertion_order_ignored():
    a = dumps({"b": 1, "a": 2, "c": {"z": 0, "y": 1}})
    b = dumps({"c": {"y": 1, "z": 0}, "a": 2, "b": 1})
    assert a == b
    first = a.splitlines()[1]
    assert first.strip().startswith('"a"')


def test_non_finite_literals():
    text = dumps({"nan": float("nan"), "pinf": float("inf"),
                  "ninf": float("-inf")})
    assert "NaN" in text and "Infinity" in text and "-Infinity" in text
    back = json.loads(text)
    assert math.isnan(back["nan"])
    assert back["pinf"] == math.inf
    assert back["ninf"] == -math.inf


def test_numpy_and_dataclass_conversion():
    @dataclasses.dataclass
    class Inner:
        x: float
        flag: bool

    payload = {
        "arr": np.array([1.5, 2.5]),
        "scalar": np.float64(0.25),
        "count": np.int64(7),
        "flag": np.bool_(True),
        "inner": Inner(x=1.0, flag=False),
        "tup": (1, 2),
        0.5: "float-key",
    }
    obj = to_jsonable(payload)
    assert obj["arr"] == [1.5, 2.5]
    assert obj["scalar"] == 0.25 and isinstance(obj["scalar"], float)
    assert obj["count"] == 7 and isinstance(obj["count"], int)
    assert obj["flag"] is True
    assert obj["inner"] == {"x": 1.0, "flag": False}
    assert obj["tup"] == [1, 2]
    assert obj["0.5"] == "float-key"


def test_trailing_newline_and_byte_stability(tmp_path):
    payload = {"a": [1.0, 2.0], "b": {"nested": math.pi}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(payload, p1)
    write_report(payload, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    assert b"  " in b1


def test_unknown_objects_fall_back_to_str():
    assert to_jsonable({"x": complex(1, 2)})["x"] == str(complex(1, 2))


def test_write_csv_fixed_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["name", "value"], [["pi", "n"], [math.pi, 3]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == "pi," + format(math.pi, ".17g")
    assert lines[2] == "n,3"


def test_write_csv_takes_array_and_range_columns(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["index", "value"], [range(2), np.array([0.1 + 0.2, 2.0])])
    assert path.read_text().splitlines() == ["index,value", "0,0.30000000000000004", "1,2"]
    with pytest.raises(ValueError):
        write_csv(path, ["index", "value"], [range(3), np.array([0.5, 2.0])])
    with pytest.raises(ValueError):
        write_csv(path, ["index", "value"], [range(2)])
