"""JSON document formats shared by the command line tools.

Every document carries a schema version field "v".  Graphs serialize as
sorted edge lists with u < v, functions as value vectors with their
declared (j, k), partitions as canonical cell lists, and matrices in
row-major order.  dump_json writes a 2-D integer array (a graph's edges)
as the list of its rows and `Records` (a search's functions) as a list
of records; json.loads reads both back as lists.  load_graph reads a graph
file's edge rows from its bytes into one array, and everything else with json.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import obs
from .domination import DominatingFunction
from .graphs import DEFAULT_SIZE_CAP, Graph, SizeCapExceeded
from .partitions import Cells, canonical_cells

__all__ = [
    "SCHEMA_VERSION",
    "graph_to_doc",
    "graph_from_doc",
    "load_graph",
    "Records",
    "function_to_doc",
    "function_rows",
    "function_from_doc",
    "partition_to_doc",
    "partition_from_doc",
    "connection_from_doc",
    "matrix_to_doc",
    "load_json",
    "dump_json",
]

SCHEMA_VERSION = 1


def _int(x) -> int:
    """A JSON integer; floats, booleans and strings are refused, not converted."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a JSON document is parsed:
    its values hold no cycles, and it would rescan the growing heap every
    few hundred new lists."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def graph_to_doc(x: Graph) -> dict:
    return {"v": SCHEMA_VERSION, "name": x.name, "n": x.n, "edges": x.edge_array()}


def _endpoints(edges):
    """The endpoints, in order, of a list of [u, w] pairs of JSON integers or of an int64 array."""
    if isinstance(edges, np.ndarray):
        return edges.reshape(-1)
    if type(edges) is not list or not set(map(type, edges)) <= {list}:
        raise TypeError("edges must be a list of [u, w] pairs")
    if not set(map(len, edges)) <= {2}:
        raise TypeError("every edge must be a pair [u, w]")
    flat = list(chain.from_iterable(edges))
    if not set(map(type, flat)) <= {int}:
        _int(next(e for e in flat if type(e) is not int))
    return flat


def graph_from_doc(doc: dict, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    try:
        n = _int(doc["n"])
        flat = _endpoints(doc["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"graph document missing field or malformed: {exc}") from exc
    if n > size_cap:
        raise SizeCapExceeded(f"{n} vertices exceeds the cap of {size_cap}")
    try:
        ends = np.asarray(flat, dtype=np.int64)
    except OverflowError:
        ends = None
    if ends is None or ((ends < 0) | (ends >= n)).any():
        i = next(i for i, e in enumerate(flat) if not 0 <= e < n) & ~1
        raise ValueError(f"edge [{flat[i]}, {flat[i + 1]}] has an endpoint outside [0, {n})")
    u, w = ends[0::2], ends[1::2]
    keys = np.sort(np.concatenate((u * n + w, w * n + u)))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    g = Graph.from_csr(n, indptr, keys % n, str(doc.get("name", "graph")))
    g._validate_rows()  # the keys of both directions make it symmetric
    return g


def load_graph(path: str, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """graph_from_doc(load_json(path), size_cap), the same graph or exception; a
    file _graph_doc refuses goes through json, counted as "jsonio.json_fallback"."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = _graph_doc(text)
    except (ValueError, RecursionError):
        obs.count("jsonio.json_fallback")
        doc = load_json(path)
    return graph_from_doc(doc, size_cap)


_WS = "[ \t\n\r]*"  # JSON's whitespace
_OPEN, _KEY, _COLON, _NEXT = (re.compile(_WS + p).match for p in (r"\{", '"', ":" + _WS, "[,}]"))
_DECODER = json.JSONDecoder()
_EMPTY, _ROWS_END = re.compile(r"\[%s\]" % _WS).match, re.compile(r"\]%s\]" % _WS).search
_SPACES, _TENS = bytes.maketrans(b"[],", b"   "), 10 ** np.arange(1, 19, dtype=np.int64)


def _graph_doc(text: str) -> dict:
    """json.loads(text) for a JSON object, with "edges" read by _edge_rows;
    ValueError for any text json refuses and any "edges" _edge_rows refuses."""

    def skip(match, at: int) -> int:
        m = match(text, at)
        if m is None:
            raise ValueError("not a JSON object")
        return m.end()

    doc, i = {}, skip(_OPEN, 0)
    while text[i - 1] != "}":
        key, i = json.decoder.scanstring(text, skip(_KEY, i))
        doc[key], i = (_edge_rows if key == "edges" else _DECODER.raw_decode)(text, skip(_COLON, i))
        i = skip(_NEXT, i)
    if text[i:].strip(" \t\n\r"):
        raise ValueError("text after the object")
    return doc


def _edge_rows(text: str, i: int) -> Tuple[np.ndarray, int]:
    """The endpoints of the JSON list of [u, w] rows at text[i] as one int64
    array, and the index past it; ValueError unless each is an integer in
    [0, 10^18) with as many digits as its value needs, as json writes it."""
    m = _EMPTY(text, i) or _ROWS_END(text, i)
    span = text[i:m.end()].encode() if m else b""
    packed = span.translate(None, b" \t\n\r")
    skeleton = packed.translate(None, b"0123456789")
    e = (len(skeleton) - 1) // 4
    # rows [,] joined by ",", with digits in every place
    rows = skeleton == b"[" + (b"[,]," * e)[:-1] + b"]" and b"[," not in packed and b",]" not in packed
    ends = np.fromstring(span.translate(_SPACES), np.int64, sep=" ") if rows and e else np.zeros(0, np.int64)
    # a number split by a blank or with a leading zero leaves more digits than 2e values need
    if not rows or ends.max(initial=0) >= 10 ** 18 \
            or np.searchsorted(_TENS, ends, "right").sum() + 2 * e != len(packed) - len(skeleton):
        raise ValueError("edges are not rows [u, w] of integers in [0, 10^18) written as json writes them")
    return ends, m.end()


def function_to_doc(f: DominatingFunction) -> dict:
    return {"v": SCHEMA_VERSION, "j": f.j, "k": f.k, "values": list(f.values)}


class Records(NamedTuple):
    """Rows of an integer matrix that dump_json writes as records {**fields, "values": row}."""
    fields: dict
    mat: np.ndarray


def function_rows(values: np.ndarray, j: int, k: int) -> Records:
    """The function documents of the rows of values, for dump_json."""
    return Records({"v": SCHEMA_VERSION, "j": j, "k": k}, values)


def function_from_doc(doc: dict) -> DominatingFunction:
    try:
        values = tuple(doc["values"])
        if not set(map(type, values)) <= {int}:
            _int(next(x for x in values if type(x) is not int))
        return DominatingFunction(values=values, j=_int(doc["j"]), k=_int(doc["k"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"function document missing field or malformed: {exc}") from exc


def partition_to_doc(cells: Cells) -> dict:
    return {"v": SCHEMA_VERSION, "cells": [list(c) for c in cells]}


def partition_from_doc(doc: dict, n: int) -> Cells:
    try:
        cells = [[_int(v) for v in cell] for cell in doc["cells"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"partition document missing field or malformed: {exc}") from exc
    return canonical_cells(cells, n)


def connection_from_doc(doc: dict) -> List[int]:
    try:
        return [_int(c) for c in doc["connection"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"connection document missing field or malformed: {exc}") from exc


def matrix_to_doc(rows: Sequence[Sequence[int]]) -> dict:
    r = len(rows)
    c = len(rows[0]) if rows else 0
    return {
        "rows": r,
        "cols": c,
        "entries": [int(e) for row in rows for e in row],
    }


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh, _collector_paused():
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to parse") from None


def dump_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte, where a 2-D integer
    array stands for the list of its rows and Records for its records.

    json falls back to its pure-Python encoder whenever indent is set, so
    lists of integers and integer matrices, which carry nearly all the bytes
    of a large document, are laid out here as templates of %d fields filled
    in one C call; every other value and every key still goes through json.
    """
    return _dumps(doc, "\n") + "\n"


def _dumps(obj, pad: str) -> str:
    """obj in the indent=2 layout, pad (a newline and the indentation of
    obj's own line) starting each of its later lines."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        return _matrix(obj, pad)
    if isinstance(obj, Records):
        return _matrix(obj.mat, pad, obj)
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        body = (json.dumps(key) + ": " + _dumps(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if type(obj) is not list or not obj:
        if isinstance(obj, (list, tuple, dict)) and obj:
            # JSON strings hold no raw newline, so every newline is a line break
            return json.dumps(obj, indent=2).replace("\n", pad)
        # a scalar or an empty container: json's C encoder gives the same text
        return json.dumps(obj)
    kinds = set(map(type, obj))
    if kinds == {int}:
        return _ints(len(obj), pad) % tuple(obj)
    return "[" + inner + ("," + inner).join(_dumps(item, inner) for item in obj) + pad + "]"


def _ints(width: int, pad: str) -> str:
    """The template of a list of width integers whose line starts at pad."""
    cell = pad + "  "
    return "[" + cell + ("," + cell).join(["%d"] * width) + pad + "]" if width else "[]"


def _matrix(mat: np.ndarray, pad: str, records: Optional[Records] = None) -> str:
    """The rows of an integer matrix (any integer dtype, or object dtype
    holding ints) as one list, each row a list or, with records, the record
    {**records.fields, "values": row}; one template is filled from the
    flat entries, and no row is built as a Python list."""
    if not len(mat):
        return "[]"
    inner = pad + "  "
    at = inner if records is None else inner + "  "  # where each row's line starts
    row = _ints(mat.shape[1], at)
    if records is not None:
        fields = [json.dumps(key) + ": " + _dumps(value, at) for key, value in records.fields.items()]
        head = "".join(field.replace("%", "%%") + "," + at for field in fields)
        row = "{" + at + head + '"values": ' + row + inner + "}"
    return ("[" + inner + ("," + inner).join([row] * len(mat)) + pad + "]") % tuple(mat.ravel().tolist())
