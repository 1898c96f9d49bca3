"""Serialization round trips for the JSON document formats."""

from __future__ import annotations

import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom import jsonio, obs
from effdom.domination import DominatingFunction
from effdom.graphs import DEFAULT_SIZE_CAP, SizeCapExceeded, complete_bipartite, cycle, hamming_graph
from effdom.jsonio import (
    SCHEMA_VERSION,
    Records,
    connection_from_doc,
    dump_json,
    function_from_doc,
    function_to_doc,
    graph_from_doc,
    graph_to_doc,
    load_graph,
    load_json,
    matrix_to_doc,
    partition_from_doc,
    partition_to_doc,
)
from effdom.partitions import canonical_cells


def test_graph_roundtrip():
    for g in [cycle(6), complete_bipartite(2, 3)]:
        doc = json.loads(dump_json(graph_to_doc(g)))
        assert doc["v"] == SCHEMA_VERSION
        assert doc["edges"] == sorted(doc["edges"])
        back = graph_from_doc(doc)
        assert back.adjacency == g.adjacency and back.name == g.name
        assert graph_from_doc(graph_to_doc(g)).adjacency == g.adjacency  # edges as an (E, 2) array


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
    c6 = json.loads(dump_json(graph_to_doc(cycle(6))))
    with pytest.raises(SizeCapExceeded):
        graph_from_doc(c6, size_cap=5)
    assert graph_from_doc(c6, size_cap=6).n == 6


def test_function_roundtrip():
    f = DominatingFunction((2, 2, 1, 1, 1), j=2, k=5)
    doc = function_to_doc(f)
    assert doc == {"v": SCHEMA_VERSION, "j": 2, "k": 5, "values": [2, 2, 1, 1, 1]}
    assert function_from_doc(doc) == f
    with pytest.raises(ValueError):
        function_from_doc({"j": 1, "k": 1})


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, "1", None, [1]])
def test_function_from_doc_names_the_first_non_integer(bad):
    # bool is a subclass of int, and 1.0 == 1, but neither is a JSON integer
    with pytest.raises(ValueError, match=f"^function document missing field or malformed: "
                                         f"expected an integer, got {re.escape(repr(bad))}$"):
        function_from_doc({"values": [1, 0, bad, "later"], "j": 1, "k": 1})


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


@pytest.mark.parametrize("doc", [
    {"n": 3, "edges": [[0, 2 ** 70]]},
    {"n": 3, "edges": [[2 ** 70, 2 ** 70]]},
    {"n": 3, "edges": [[0, -2 ** 70]]},
    {"n": 3, "edges": [[0, -1]]},
    {"n": 3, "edges": [[0, 1], [1, 0]]},
    {"n": 0, "edges": []},
    {"n": -1, "edges": []},
    {"n": 3, "edges": ["01"]},
    {"n": 3, "edges": [[0, 1, 2]]},
    {"n": 3, "edges": {"0": 1}},
    {"n": 3, "edges": {}},
], ids=["endpoint-beyond-int64", "both-beyond-int64", "endpoint-below-int64", "endpoint-negative",
        "reversed-duplicate", "n-zero", "n-negative", "row-string", "row-triple", "edges-object",
        "edges-empty-object"])
def test_graph_from_doc_refusals(doc):
    # ValueError, never an OverflowError from the int64 arrays: the CLI
    # turns ValueError into exit code 2 and does not catch the others
    with pytest.raises(ValueError):
        graph_from_doc(doc)


def list_loader(doc, size_cap=DEFAULT_SIZE_CAP):
    """graph_from_doc as it was on lists of lists, returning the adjacency."""
    try:
        n = doc["n"]
        if type(n) is not int:
            raise TypeError(n)
        edges = [(u, w) for u, w in doc["edges"]]
        if any(type(e) is not int for edge in edges for e in edge):
            raise TypeError(edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed: {exc}") from exc
    if n > size_cap:
        raise SizeCapExceeded(n)
    adjacency = [[] for _ in range(max(n, 0))]
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError("endpoint out of range")
        adjacency[u].append(w)
        adjacency[w].append(u)
    if n < 1:
        raise ValueError("no vertices")
    for v, row in enumerate(adjacency):
        row.sort()
        if v in row or len(set(row)) < len(row):
            raise ValueError("loop or repeated edge")
    return adjacency


ENDPOINTS = st.sampled_from([-1, 0, 3, 7, 2 ** 63, -2 ** 63 - 1, 2 ** 70, True, 1.0, "1", None])
ROWS = st.one_of(st.lists(ENDPOINTS, max_size=3), st.sampled_from(["01", 5, {"0": 1}]))


@st.composite
def graph_docs(draw):
    """A simple graph's edge list in random order and orientation, with up
    to two edits (a repeated or reversed edge, a bad endpoint, another n)
    and sometimes a malformed row."""
    n = draw(st.integers(1, 7))
    edges = [[u, w] for u in range(n) for w in range(u + 1, n) if draw(st.booleans())]
    edges = [e[::-1] if draw(st.booleans()) else e for e in draw(st.permutations(edges))]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["repeat", "reverse", "endpoint", "n"]))
        if edit == "n":
            n = draw(st.sampled_from([-1, 0, n - 1, n + 1, 2 ** 70, 3.0, True]))
        elif edges:
            i = draw(st.integers(0, len(edges) - 1))
            if edit == "endpoint":
                edges[i] = [edges[i][0], draw(ENDPOINTS)]
            else:
                edges.append(list(edges[i]) if edit == "repeat" else edges[i][::-1])
    if draw(st.integers(0, 3)) == 0:
        edges.insert(draw(st.integers(0, len(edges))), draw(ROWS))
    return {"n": n, "edges": edges}


@settings(max_examples=300, deadline=None)
@given(graph_docs(), st.sampled_from([4, DEFAULT_SIZE_CAP]))
def test_graph_from_doc_matches_list_loader(doc, cap):
    try:
        want = list_loader(doc, cap)
    except ValueError as exc:
        want = type(exc)
    try:
        got = graph_from_doc(doc, size_cap=cap).adjacency
    except ValueError as exc:
        got = type(exc)
    assert got == want


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.integers(-3, 3), st.floats(),
    st.text(), st.sampled_from(["", "\"\\\n\t\u2028", "caf\u00e9 \u65e5\u672c", "\U0001f600"]),
)
INT_ROWS = st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=w, max_size=w), max_size=6))
JSON_DOCS = st.recursive(
    JSON_LEAVES | INT_ROWS | st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.lists(st.integers(-9, 9), max_size=3), max_size=5),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(-9, 9), st.booleans(), st.none(), st.text(max_size=2)),
                        inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(JSON_DOCS)
def test_dump_json_matches_json_dumps(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    [True, 1], [1, False], [[1, True]], [[1, 2], [3, False]], [[1], [2, 3]], [[1, 2], []],
    {"a": [0, None], "b": [1.0, 2]}, {1: [1, 2]}, {"k": {"": []}}, [-0, -(2 ** 70)],
    {"t": (1, (2, 3)), "e": ()}, [(1, 2), (3, 4)],
])
def test_dump_json_mixed_lists(doc):
    # lists that look like integer lists or rows but are not laid out by
    # them, and tuples, which json writes as lists
    assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_json_graph_document():
    # graph_to_doc keeps the edges as the (m, 2) array Graph.edge_array gives
    doc = graph_to_doc(hamming_graph(3, 3))
    assert dump_json(doc) == json.dumps({**doc, "edges": doc["edges"].tolist()}, indent=2) + "\n"
    assert graph_from_doc(json.loads(dump_json(doc))).adjacency == hamming_graph(3, 3).adjacency


def test_collector_restored(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(dump_json(graph_to_doc(cycle(5))), encoding="utf-8")
    assert gc.isenabled()
    graph_from_doc(load_json(str(path)))
    assert gc.isenabled()
    gc.disable()
    try:
        load_json(str(path))
        assert not gc.isenabled()
    finally:
        gc.enable()


# entries at both ends of the int64 range, and -0, which json writes as 0
INT64_ENTRIES = st.one_of(st.integers(-9, 9), st.sampled_from([-0, 2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63]))


@st.composite
def int_matrices(draw):
    """An integer matrix, 0 rows or 0 columns included, in a small integer
    dtype, int64, or object dtype, sometimes holding ints past int64."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    dtype = draw(st.sampled_from([np.int8, np.int64, object]))
    if dtype is np.int8:
        entries = st.integers(-128, 127)
    elif dtype is object and draw(st.booleans()):
        entries = st.integers(-2 ** 70, 2 ** 70)
    else:
        entries = INT64_ENTRIES
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=dtype).reshape(rows, cols)


FIELD_VALUES = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=4), st.sampled_from(["%d", "%%", "%s"]))


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.dictionaries(st.sampled_from(["v", "j", "k", "%d", "a%"]), FIELD_VALUES, max_size=3),
       st.lists(st.sampled_from(["list", "dict"]), max_size=3))
def test_matrix_layout_matches_json_dumps(mat, fields, nesting):
    # both row layouts, each nested in 0-3 levels of lists and dicts
    for laid, plain in [(mat, mat.tolist()),
                        (Records(fields, mat), [{**fields, "values": row} for row in mat.tolist()])]:
        for level in nesting:
            laid, plain = ([laid], [plain]) if level == "list" else ({"m": laid}, {"m": plain})
        assert dump_json(laid) == json.dumps(plain, indent=2) + "\n"


# entries on both sides of the switch from the str(0..max) table to str
# one by one: max at the entry count - 1 and at the entry count, a negative
# entry, the int64 extremes, and ints past int64 in object dtype
SWITCH_MATRICES = [
    np.array([[0, 1], [2, 3]]), np.array([[0, 1], [2, 4]]), np.array([[3, 0, 0, 0]], dtype=np.int8),
    np.array([[4, 0, 0, 0]], dtype=np.uint8), np.array([[0, -1], [2, 1]]), np.array([[2 ** 63 - 1, -2 ** 63]]),
    np.array([[0, 2 ** 63], [2 ** 70, -2 ** 70]], dtype=object), np.array([[0, 3], [1, 2]], dtype=object),
    np.array([[1, 1], [1, 1]], dtype=object), np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
    # wider and longer than blocks of 1-3 entries, in both text paths
    np.arange(7).reshape(1, 7), np.arange(15).reshape(3, 5) - 4, np.array([[2 ** 63, 1, 2], [3, -4, 5]], dtype=object),
]
INT_LISTS = [[0], [1], [-1], [2 ** 63], [2 ** 64 - 1, 0], [-1, 2 ** 63], [2 ** 70], [0, 1], [0, 2], [1, 0, 1],
             list(range(7)), [3, -1, 2 ** 70, 0, 5]]


def assert_layouts_match_json_dumps(mat):
    fields = {"v": 1, "j": 2, "k": 6}
    for laid, plain in [(mat, mat.tolist()), (Records(fields, mat), [{**fields, "values": r} for r in mat.tolist()]),
                        ({"m": mat}, {"m": mat.tolist()}), (mat.ravel().tolist(), mat.ravel().tolist())]:
        assert dump_json(laid) == json.dumps(plain, indent=2) + "\n"


@pytest.mark.parametrize("mat", SWITCH_MATRICES, ids=lambda m: f"{m.dtype}-{m.shape}-{m.ravel().tolist()}")
def test_int_rows_switch_matches_json_dumps(mat):
    assert_layouts_match_json_dumps(mat)


@pytest.mark.parametrize("values", INT_LISTS)
def test_int_list_switch_matches_json_dumps(values):
    for doc in (values, {"values": values}, [values, [values]]):
        assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_json_h2_10_is_json_dumps():
    doc = graph_to_doc(hamming_graph(2, 10))
    assert dump_json(doc) == json.dumps({**doc, "edges": doc["edges"].tolist()}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# load_graph against the json path, on graph files written as text
# ---------------------------------------------------------------------------


def render(value, indent, pad, nl, level=0):
    """JSON text of value, whose leaves are already JSON text: a list is
    an array, a tuple of (key text, value) pairs an object (so keys may
    repeat or be escaped).  indent is None for one line, or the string
    repeated per level after each nl; pad goes around every token."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        items, brackets = [key + pad + ":" + pad + render(v, indent, pad, nl, level + 1) for key, v in value], "{}"
    else:
        items, brackets = [render(v, indent, pad, nl, level + 1) for v in value], "[]"
    inner, outer = ("", "") if indent is None else (nl + indent * (level + 1), nl + indent * level)
    if not items:
        return brackets[0] + pad + brackets[1]
    return brackets[0] + pad + inner + (pad + "," + pad + inner).join(items) + pad + outer + brackets[1]


# a blank inside a number, a leading zero, and places that only json reads
ODD_ENDPOINTS = ["-0", "01", "-1", "1.0", "1e2", "true", str(2 ** 63), "1" * 19, "00", "0 1", "1 0", "2\n 1",
                 '"1"', "null"]
ODD_EDGES = ["[]", "[[0]]", "[[0,1,2]]", "[" * 10 ** 5 + "]" * 10 ** 5, "[[[0,1]]]", "{}", "[[0,1],]", "[[0,1]",
             "[[,1]2,[0,2]]", "[2[0,],[1,2]]", "[[0,1],[,2]1]", "[[0,1]1,[2,]]", "[[0,01],[1,2]]", "[[0,1] 2]",
             "[[1 1,2 2],[,]]", "[[0],[1]]", "[[0,1],[2],[3]]"]


@st.composite
def graph_texts(draw):
    """A graph file: a simple graph's rows in some layout and key order,
    sometimes with an odd endpoint, odd edges, a repeated, escaped or
    nested "edges" key, a name holding brackets, or a byte order mark."""
    n = draw(st.integers(1, 7))
    rows = [[str(u), str(w)] for u in range(n) for w in range(u + 1, n) if draw(st.booleans())]
    rows = [r[::-1] if draw(st.booleans()) else r for r in draw(st.permutations(rows))]
    if rows and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_ENDPOINTS))
    edges = draw(st.sampled_from(ODD_EDGES)) if draw(st.integers(0, 5)) == 0 else rows
    name = draw(st.sampled_from(["C(6)", "[[0,1]]", "caf\u00e9 ]", "\u65e5\"]\\"]))
    n_text = draw(st.sampled_from([str(n)] * 6 + [str(n + 1), "0", "-1", "3.0", "true", str(2 ** 70)]))
    key = draw(st.sampled_from(['"edges"'] * 3 + ['"\\u0065dges"', '"e\\u0064ges"']))
    members = [('"v"', "1"), ('"name"', json.dumps(name)), ('"n"', n_text), (key, edges)]
    members = draw(st.permutations(members))
    extra = draw(st.sampled_from([None, "repeat", "nested", "other"]))
    if extra == "repeat":
        members.insert(draw(st.integers(0, len(members))), ('"edges"', draw(st.sampled_from([[["0", "1"]], '"x"', "[]"]))))
    elif extra == "nested":
        members.insert(draw(st.integers(0, len(members))), ('"meta"', (('"edges"', [["0", "1"]]),)))
    elif extra == "other":
        members.insert(draw(st.integers(0, len(members))), ('"x"', [["1", "2"], "[[3]]", '{"a": [0]}']))
    text = render(tuple(members), draw(st.sampled_from([None, "", "  ", "\t"])),
                  draw(st.sampled_from(["", " "])), draw(st.sampled_from(["\n", "\r\n"])))
    head, tail = draw(st.sampled_from(["", "", "\ufeff", " \r\n"])), draw(st.sampled_from(["", "\n", "\r\n", " x", "{}"]))
    return head + text + tail


def outcome(load):
    """The CSR arrays and name of the loaded graph, or its exception."""
    try:
        g = load()
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return g.n, g.name, g.indptr.tolist(), g.indices.tolist()


@settings(max_examples=400, deadline=None)
@given(graph_texts(), st.sampled_from([4, DEFAULT_SIZE_CAP]))
def test_load_graph_matches_json_path(tmp_path_factory, text, cap):
    path = tmp_path_factory.mktemp("g") / "g.json"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: graph_from_doc(load_json(str(path)), size_cap=cap))
    assert outcome(lambda: load_graph(str(path), size_cap=cap)) == want


@pytest.mark.parametrize("edges", [f"[[0, {e}], [1, 2]]" for e in ODD_ENDPOINTS] + ODD_EDGES)
def test_load_graph_odd_edges(tmp_path, edges):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": %s}' % edges, encoding="utf-8")
    want = outcome(lambda: graph_from_doc(load_json(str(path))))
    assert outcome(lambda: load_graph(str(path))) == want


def test_graph_refusal_messages():
    # both readers share these messages
    for doc, message in [({"n": 3, "edges": [[0, 1], [2, 3]]}, "edge [2, 3] has an endpoint outside [0, 3)"),
                         ({"n": 3, "edges": [[-1, 2 ** 70]]}, f"edge [-1, {2 ** 70}] has an endpoint outside [0, 3)"),
                         ({"n": 3, "edges": [[0, 1], [1, 0]]}, "adjacency of 0 not sorted or has repeats")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_from_doc(doc)


def test_load_graph_reads_written_graphs(tmp_path):
    path = tmp_path / "g.json"
    for g in [cycle(6), complete_bipartite(2, 3), hamming_graph(3, 3)]:
        path.write_text(dump_json(graph_to_doc(g)), encoding="utf-8")
        back = load_graph(str(path))
        assert (back.name, back.indptr.tolist(), back.indices.tolist()) == (g.name, g.indptr.tolist(), g.indices.tolist())


# byte and character offsets that differ before "edges", a byte order mark
# with CRLF line ends, CRLF alone, a number split by CRLF, empty places, "]]"
# after the rows, and "edges" the string "\0" after a nested key "edges";
# the second field says the bytes must be read directly
FIXED_TEXTS = {
    "non-ascii-name": ('{"v": 1, "name": "caf\u00e9 \u65e5\u672c \U0001f600 ]]", "n": 3, "edges": [[0, 1], [1, 2]]}', True),
    "non-ascii-escaped-key": ('{"name": "\u00e9", "\\u0065dges": [[0, 2]], "n": 3}', True),
    "bom-crlf": ('\ufeff{\r\n  "n": 3,\r\n  "edges": [\r\n    [\r\n      0,\r\n      1\r\n    ]\r\n  ]\r\n}\r\n', False),
    "crlf": ('{\r\n  "n": 3,\r\n  "edges": [\r\n    [\r\n      0,\r\n      1\r\n    ]\r\n  ]\r\n}\r\n', True),
    "number-split-by-crlf": ('{"n": 30, "edges": [[0, 1\r\n2], [1, 2]]}', False),
    "empty-place": ('{"n": 3, "edges": [[,1], [1, 2]]}', False),
    "empty-place-and-extra-digit": ('{"n": 3, "edges": [[,1]2, [0, 2]]}', False),
    "edges-in-a-name-after": ('{"n": 3, "edges": [[0, 1]], "name": "[[1, 2]]"}', True),
    "brackets-and-blanks-after": ('{"n": 3, "edges": [[0, 1]], "name": "] ] ]]", "m": [\n[1]\n]}', True),
    "nul-string-edges": ('{"x": {"edges": [[0, 1]]}, "edges": "\\u0000", "n": 3}', False),
}


@pytest.mark.parametrize("name", list(FIXED_TEXTS))
def test_load_graph_fixed_texts(tmp_path, name):
    text, as_bytes = FIXED_TEXTS[name]
    path = tmp_path / "g.json"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: graph_from_doc(load_json(str(path))))
    with obs.collecting() as stats:
        got = outcome(lambda: load_graph(str(path)))
    assert got == want
    if as_bytes:  # read from the bytes, not sent back through json
        assert stats.counters == {}


@pytest.mark.parametrize("entries", [1, 2, 3])
def test_blocks_of_one_to_three_entries(tmp_path, monkeypatch, entries):
    # blocks that end inside rows and numbers: the writer's blocks of entries
    # split rows and wide rows, and the reader's blocks of 8 * entries bytes
    # meet each byte of a number split by a blank or written with a leading
    # zero, as a pad before it moves it across every block edge
    monkeypatch.setattr(jsonio, "ENTRIES", entries)
    for mat in SWITCH_MATRICES:
        assert_layouts_match_json_dumps(mat)
    for values in INT_LISTS:
        assert dump_json(values) == json.dumps(values, indent=2) + "\n"
    path = tmp_path / "g.json"
    for pad in range(8 * entries + 1):
        for edges, as_bytes in [("1 2], [1, 2]]", False), ("01], [1, 2]]", False), ("12], [1, 2], [3, 4]]", True)]:
            path.write_text('{"n": 30, "edges": [[0, %s%s}' % (" " * pad, edges), encoding="utf-8")
            want = outcome(lambda: graph_from_doc(load_json(str(path))))
            with obs.collecting() as stats:
                assert outcome(lambda: load_graph(str(path))) == want
            assert (stats.counters == {}) == as_bytes
    for g in [cycle(6), hamming_graph(3, 3)]:
        path.write_text(dump_json(graph_to_doc(g)), encoding="utf-8")
        assert outcome(lambda: load_graph(str(path))) == (g.n, g.name, g.indptr.tolist(), g.indices.tolist())
