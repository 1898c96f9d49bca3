"""Serialization round trips for the JSON document formats."""

from __future__ import annotations

import json

import pytest

from effdom.domination import DominatingFunction
from effdom.graphs import SizeCapExceeded, complete_bipartite, cycle
from effdom.jsonio import (
    SCHEMA_VERSION,
    connection_from_doc,
    dump_json,
    function_from_doc,
    function_to_doc,
    graph_from_doc,
    graph_to_doc,
    matrix_to_doc,
    partition_from_doc,
    partition_to_doc,
)
from effdom.partitions import canonical_cells


def test_graph_roundtrip():
    for g in [cycle(6), complete_bipartite(2, 3)]:
        doc = graph_to_doc(g)
        assert doc["v"] == SCHEMA_VERSION
        assert doc["edges"] == sorted(doc["edges"])
        back = graph_from_doc(doc)
        assert back.adjacency == g.adjacency and back.name == g.name


def test_graph_from_doc_rejects_bad_edges():
    with pytest.raises(ValueError):
        graph_from_doc({"n": 2, "edges": [[0, 5]]})
    with pytest.raises(ValueError):
        graph_from_doc({"n": 2, "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        graph_from_doc({"n": 2})
    for edges in ([1, 2], [[0]], 5, [[0, None]]):
        with pytest.raises(ValueError):
            graph_from_doc({"n": 3, "edges": edges})
    with pytest.raises(ValueError):
        graph_from_doc({"n": float("inf"), "edges": []})


def test_graph_from_doc_checks_cap_before_allocating():
    # 10^12 adjacency lists would not fit in memory, so the cap must come first
    with pytest.raises(SizeCapExceeded):
        graph_from_doc({"n": 10 ** 12, "edges": []})
    with pytest.raises(SizeCapExceeded):
        graph_from_doc(graph_to_doc(cycle(6)), size_cap=5)
    assert graph_from_doc(graph_to_doc(cycle(6)), size_cap=6).n == 6


def test_function_roundtrip():
    f = DominatingFunction((2, 2, 1, 1, 1), j=2, k=5)
    doc = function_to_doc(f)
    assert doc == {"v": SCHEMA_VERSION, "j": 2, "k": 5, "values": [2, 2, 1, 1, 1]}
    assert function_from_doc(doc) == f
    with pytest.raises(ValueError):
        function_from_doc({"j": 1, "k": 1})


def test_partition_roundtrip():
    cells = canonical_cells([[0, 3], [1, 2, 4, 5]], 6)
    doc = partition_to_doc(cells)
    assert doc["cells"] == [[0, 3], [1, 2, 4, 5]]
    assert partition_from_doc(doc, 6) == cells
    # canonicalization happens on load
    assert partition_from_doc({"cells": [[5, 4, 2, 1], [3, 0]]}, 6) == cells
    with pytest.raises(ValueError):
        partition_from_doc({"cells": [[0, 1]]}, 6)
    with pytest.raises(ValueError):
        partition_from_doc({"cells": [5]}, 6)


def test_connection_from_doc():
    assert connection_from_doc({"connection": [1, 2, 4]}) == [1, 2, 4]
    for doc in ({"connection": 3}, [1, 2, 4], {"connection": [[1]]}):
        with pytest.raises(ValueError):
            connection_from_doc(doc)


def test_loaders_refuse_non_integers():
    # int() would truncate 1.7 to 1 and read true as 1; the loaders refuse both
    bad = [
        lambda: graph_from_doc({"n": 3.0, "edges": []}),
        lambda: graph_from_doc({"n": 3, "edges": [[0, 1.7]]}),
        lambda: graph_from_doc({"n": 3, "edges": [[False, 1]]}),
        lambda: function_from_doc({"values": [1, 0.5], "j": 1, "k": 1}),
        lambda: function_from_doc({"values": [1, 0], "j": True, "k": 1}),
        lambda: function_from_doc({"values": [1, 0], "j": 1, "k": "1"}),
        lambda: partition_from_doc({"cells": [[0, 1.0], [2, 3]]}, 4),
        lambda: connection_from_doc({"connection": [1, 2.5]}),
    ]
    for load in bad:
        with pytest.raises(ValueError):
            load()


def test_matrix_doc():
    doc = matrix_to_doc([[1, 2, 3], [4, 5, 6]])
    assert doc == {"rows": 2, "cols": 3, "entries": [1, 2, 3, 4, 5, 6]}
    assert matrix_to_doc([]) == {"rows": 0, "cols": 0, "entries": []}


def test_dump_json():
    text = dump_json({"v": 1, "x": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"v": 1, "x": [1, 2]}
