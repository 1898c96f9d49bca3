"""JSON document formats shared by the command line tools.

Every document carries a schema version field "v".  Graphs serialize as
sorted edge lists with u < v, functions as value vectors with their
declared (j, k), partitions as canonical cell lists, and matrices in
row-major order.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .domination import DominatingFunction
from .graphs import DEFAULT_SIZE_CAP, Graph, SizeCapExceeded
from .partitions import Cells, canonical_cells

__all__ = [
    "SCHEMA_VERSION",
    "graph_to_doc",
    "graph_from_doc",
    "function_to_doc",
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
    return {
        "v": SCHEMA_VERSION,
        "name": x.name,
        "n": x.n,
        "edges": [[u, w] for u, w in x.edges()],
    }


def graph_from_doc(doc: dict, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    try:
        n = _int(doc["n"])
        edges = [(_int(u), _int(w)) for u, w in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"graph document missing field or malformed: {exc}") from exc
    if n > size_cap:
        raise SizeCapExceeded(f"{n} vertices exceeds the cap of {size_cap}")
    name = str(doc.get("name", "graph"))
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge [{u}, {w}] has an endpoint outside [0, {n})")
        adjacency[u].append(w)
        adjacency[w].append(u)
    for row in adjacency:
        row.sort()
    g = Graph(n=n, adjacency=adjacency, name=name)
    g.validate()
    return g


def function_to_doc(f: DominatingFunction) -> dict:
    return {"v": SCHEMA_VERSION, "j": f.j, "k": f.k, "values": list(f.values)}


def function_from_doc(doc: dict) -> DominatingFunction:
    try:
        return DominatingFunction(
            values=tuple(_int(x) for x in doc["values"]),
            j=_int(doc["j"]),
            k=_int(doc["k"]),
        )
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to parse") from None


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
