"""JSON and CSV emission with deterministic formatting."""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import fields
from typing import ClassVar

import numpy as np


class Report:
    """Base of the report dataclasses: one rule for their JSON form.

    `as_dict` is `{"op": op}` when the class sets `op`, then every dataclass
    field, then each property named in `derived`.  Values stay raw; the
    conversion to JSON types is `to_jsonable`'s alone.
    """

    op: ClassVar[str | None] = None
    derived: ClassVar[tuple] = ()

    def as_dict(self) -> dict:
        out = {} if self.op is None else {"op": self.op}
        out.update((fd.name, getattr(self, fd.name)) for fd in fields(self))
        out.update((name, getattr(self, name)) for name in self.derived)
        return out


def _key(k) -> str:
    return f"{k:g}" if isinstance(k, float) else str(k)


def to_jsonable(obj):
    """The one converter from report values to JSON types.

    Objects with `as_dict` are expanded, numpy scalars and arrays become
    Python numbers and lists, numpy bools JSON booleans, tuples lists, and
    non-finite floats the strings "nan", "inf" and "-inf".  Dict keys are
    strings, float keys printed with `:g` (1/3 gives "0.333333").  Anything
    else is written as its repr.
    """
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if hasattr(obj, "as_dict"):
        return to_jsonable(obj.as_dict())
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def dump_json(payload: dict, path: str | None = None) -> str:
    """The payload as one line of compact JSON with sorted keys, to `path` or stdout;
    returns the text.  Without indentation `json.dumps` runs its C encoder."""
    text = json.dumps(to_jsonable(payload), separators=(",", ":"), sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return text


def write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([to_jsonable(v) for v in row])


def write_cells_jsonl(path: str, cells: list):
    """Cover cells as JSON lines {nu, center, radius, color}."""
    with open(path, "w") as fh:
        for cell in cells:
            fh.write(json.dumps(to_jsonable(cell), sort_keys=True) + "\n")
