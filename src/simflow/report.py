"""Deterministic report serialization.

Reports must be byte-identical across runs and thread counts, so floats are
written with a fixed 17-significant-digit format (which round-trips float64
exactly), object keys are emitted in sorted order, and nothing time- or
platform-dependent enters the payload except the explicit timing field.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

__all__ = ["to_jsonable", "dumps", "write_report", "write_csv"]


def to_jsonable(obj):
    """Reduce dataclasses, numpy scalars, and arrays to plain structures."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (float, np.floating)):
        return repr(float(k))
    return str(k)


def _float_repr(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(payload) -> str:
    """Serialize an already-jsonable payload deterministically."""
    out: list[str] = []
    _emit(to_jsonable(payload), out, 0)
    out.append("\n")
    return "".join(out)


def write_report(payload, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(payload))


def write_csv(path, header, columns) -> None:
    """CSV with the same fixed float format as the JSON reports.

    A table is one sequence (or 1-D array) per header entry. Rows are built
    and formatted here only, so a table nobody writes costs nothing.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError("a CSV table needs one column per header entry, all of one length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )
