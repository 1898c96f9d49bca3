"""JSON document formats shared by the command line tools.

Every document carries a schema version field "v".  Graphs serialize as
sorted edge lists with u < v, functions as value vectors with their
declared (j, k), partitions as canonical cell lists, and matrices in
row-major order.  dump_json writes a 2-D integer array (a graph's edges)
as the list of its rows and `Records` (a search's functions) as a list
of records, each run of integers a block of entries at a time; json.loads
reads both back as lists.  load_graph reads a graph file's edge rows from
its bytes into one array, and json only the decoded text around them.
"""

from __future__ import annotations

import gc
import json
import re
from itertools import chain, product
from typing import List, NamedTuple, Sequence, Tuple

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
    if ends is None or len(ends) and (ends.min() < 0 or ends.max() >= n):
        i = next(i for i, e in enumerate(flat) if not 0 <= e < n) & ~1
        raise ValueError(f"edge [{flat[i]}, {flat[i + 1]}] has an endpoint outside [0, {n})")
    keys = (ends.reshape(-1, 2) @ np.array([[n, 1], [1, n]])).ravel()  # u·n + w and w·n + u of each edge
    keys.sort()  # in place: the sorted keys become the indices
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    g = Graph.from_csr(n, indptr, np.remainder(keys, n, out=keys), str(doc.get("name", "graph")))
    g._validate_rows()  # the keys of both directions make it symmetric
    return g


def load_graph(path: str, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """graph_from_doc(load_json(path), size_cap), the same graph or exception; a
    file _graph_doc refuses goes through json, counted as "jsonio.json_fallback"."""
    try:
        with open(path, "rb") as fh:
            doc = _graph_doc(fh.read())  # the file's bytes are freed before the graph is built
    except (ValueError, RecursionError):
        obs.count("jsonio.json_fallback")
        doc = load_json(path)
    return graph_from_doc(doc, size_cap)


# Entries per block of _int_rows, and bytes / 8 per block of _edge_rows: blocks of
# 2^12 to 2^14 entries wrote H(2,15) fastest, in memory that the block before freed;
# 2^11 to 2^15 read it as fast, and one block raised the reader's peak by 8.5 MB.
# Summing the digits of ENTRIES numbers at a time cut fresh H(2,15) verify's peak
# from 53.4 to 49.7 MB.
ENTRIES = 1 << 13

# the key "edges" in each of its JSON spellings, and the blanks around its colon
_EDGES = re.compile(rb'"(e|\\u0065)(d|\\u0064)(g|\\u0067)(e|\\u0065)(s|\\u0073)"[ \t\n\r]*:[ \t\n\r]*').search
_HOLE = '"\\u0000"'  # the one JSON text of the string "\0"
_BLANKS, _SPACES, _TENS = b" \t\n\r", bytes.maketrans(b"[],", b"   "), 10 ** np.arange(1, 19, dtype=np.int64)


def _graph_doc(data: bytes) -> dict:
    """json.loads(data) for a JSON object whose key "edges" is the first
    _EDGES in data: _edge_rows reads its value from the bytes, and json the
    decoded text around it, with _HOLE in its place.  ValueError for any
    text json refuses, and for other layouts and "edges" values."""
    m = _EDGES(data)
    if m is None:
        raise ValueError('no "edges" key')
    ends, stop = _edge_rows(data, m.end())
    text = data[:m.end()].decode() + _HOLE + data[stop:].decode()
    doc = json.loads(text) if text.count(_HOLE) == 1 else None
    # no other value reads as "\0", so an object whose "edges" does holds the rows there
    if type(doc) is not dict or doc.get("edges") != "\0":
        raise ValueError('the first "edges" is not the key "edges" of a JSON object')
    doc["edges"] = ends
    return doc


def _edge_rows(data: bytes, i: int) -> Tuple[np.ndarray, int]:
    """The endpoints of the JSON list of [u, w] rows at data[i] as one int64
    array, and the index past it; ValueError unless each is an integer in
    [0, 10^18) with as many digits as its value needs, as json writes it."""
    packed = data.translate(None, _BLANKS)
    at = len(data[:i].translate(None, _BLANKS))
    # rows hold "]]" only at their end, so if any "]]" ends them the first one
    # from at does; its "]" in data comes before as many "]" as it does in packed
    end = at + 2 if packed.startswith(b"[]", at) else max(packed.find(b"]]", at) + 2, at)
    stop = len(data)
    for _ in range(packed.count(b"]", end) + 1):
        stop = data.rfind(b"]", 0, stop)
    packed, stop = packed[at:end], stop + 1
    skeleton = packed.translate(None, b"0123456789")
    e = (len(skeleton) - 1) // 4
    # e rows [,] in one list have 2e places, each after a "[" or "," and
    # before a "," or "]"; with no "[," or ",]" each holds digits, so packed
    # has 2e + x digit runs, x outside the places.  data[i:stop] has as many
    # or more, more where a blank splits a number: 2e runs there leave x = 0
    # and no number split, so packed holds exactly 2e numbers, and the digit
    # count rules out a leading zero
    rows = skeleton == b"[" + (b"[,]," * e)[:-1] + b"]" and b"[," not in packed and b",]" not in packed
    # digit runs, and below the digits each number needs, are counted a block at a time
    span, step = np.frombuffer(data, np.uint8, stop - i if rows else 0, i), 8 * ENTRIES
    runs = sum(np.count_nonzero(d[:-1] > d[1:]) for d in (span[lo:lo + step + 1] - 48 < 10 for lo in range(0, len(span), step)))
    ends = np.fromstring(packed.translate(_SPACES), np.int64, 2 * e, " ") if rows and runs == 2 * e else None
    if ends is None or ends.max(initial=0) >= 10 ** 18 or 2 * e + sum(
            np.searchsorted(_TENS, ends[lo:lo + ENTRIES], "right").sum() for lo in range(0, 2 * e, ENTRIES)) \
            != len(packed) - len(skeleton):
        raise ValueError("edges are not rows [u, w] of integers in [0, 10^18) written as json writes them")
    return ends, stop


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
    # parsed JSON holds no cycles, and the cyclic collector would rescan the growing heap every few hundred lists
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


def dump_json(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\n", byte for byte, where a 2-D integer
    array stands for the list of its rows and Records for its records.

    json falls back to its pure-Python encoder whenever indent is set, so
    the runs of integers that carry nearly all the bytes of a large
    document (integer lists, matrices and Records) are written by _int_rows,
    ENTRIES at a time; every other value and every key still goes through
    json, and the pieces are joined once, at the end.
    """
    return "".join(_parts(doc, "\n", []) + ["\n"])


def _parts(obj, pad: str, out: list) -> list:
    """out, with the pieces of obj in the indent=2 layout appended, pad (a
    newline and the indentation of obj's own line) starting its later lines."""
    inner, mat = pad + "  ", obj.mat if isinstance(obj, Records) else obj
    if isinstance(mat, np.ndarray) and not len(mat):
        out.append("[]")
    elif isinstance(mat, np.ndarray):
        out.append("[" + inner)
        if mat is obj:
            _int_rows(mat, inner, out, between="," + inner)
        else:
            at = inner + "  "  # where each record's lines start
            fields = "".join(json.dumps(k) + ": " + "".join(_parts(v, at, [])) + "," + at for k, v in obj.fields.items())
            _int_rows(mat, at, out, "{" + at + fields + '"values": ', inner + "}", "," + inner)
        out.append(pad + "]")
    elif type(obj) is list and obj and set(map(type, obj)) == {int}:
        exact = np.array(obj)  # int64 or uint64 when every entry fits, else float64 or object
        _int_rows((exact if exact.dtype.kind in "iu" else np.array(obj, dtype=object))[None], pad, out)
    elif type(obj) is list and obj or type(obj) is dict and obj and set(map(type, obj)) == {str}:
        keyed = type(obj) is dict
        items = [(json.dumps(k) + ": ", v) for k, v in obj.items()] if keyed else [("", v) for v in obj]
        for i, (key, value) in enumerate(items):
            out.append(("," if i else "{" if keyed else "[") + inner + key)
            _parts(value, inner, out)
        out.append(pad + ("}" if keyed else "]"))
    else:
        # JSON strings hold no raw newline, so every newline is a line break;
        # a scalar or an empty container gets the same text from json's C encoder
        nested = isinstance(obj, (list, tuple, dict)) and obj
        out.append(json.dumps(obj, indent=2).replace("\n", pad) if nested else json.dumps(obj))
    return out


def _int_rows(mat: np.ndarray, at: str, out: list, head: str = "", tail: str = "", between: str = "") -> None:
    """Append to out the rows of an integer matrix (any integer dtype, or
    object dtype holding ints), each as head, the list of its entries with
    lines starting at `at`, and tail, joined by between.  A table of
    str(0..max) turns the entries into text when each is a non-negative
    integer below the entry count, and str one by one otherwise.  Each
    block of at most ENTRIES entries, whole rows or part of one wide row,
    fills the even columns of its own object array, the separators the odd
    ones, and is joined into one string."""
    rows, cols = mat.shape
    if not cols:
        return out.append(between.join([head + "[]" + tail] * rows))
    cell, step, width = at + "  ", max(1, ENTRIES // cols), min(cols, ENTRIES)  # the rows and columns of a block
    small = 0 <= mat.min() and mat.max() < mat.size
    table = np.array(list(map(str, range(int(mat.max()) + 1))), dtype=object) if small else None
    out.append(head + "[" + cell)
    for r, c in product(range(0, rows, step), range(0, cols, width)):
        part = mat[r:r + step, c:c + width]
        grid = np.empty((len(part), 2 * part.shape[1]), dtype=object)
        grid[:, 0::2] = table[part.astype(np.intp)] if small else \
            np.array(list(map(str, part.ravel().tolist())), dtype=object).reshape(part.shape)
        grid[:, 1::2] = "," + cell
        if c + width >= cols:  # the block ends its rows
            grid[:, -1] = at + "]" + tail + between + head + "[" + cell
        out.append("".join(grid.ravel().tolist()))
    out[-1] = out[-1][:-len(between + head + "[" + cell)]  # the last row has no next one
