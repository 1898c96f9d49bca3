"""Opt-in counters and spans, and the CLI's --stats line."""

from __future__ import annotations

import json

import numpy as np

from effdom import obs
from effdom.cli import run
from effdom.fields import GF
from effdom.graphs import adjacency_matrix, cycle, folded_cube
from effdom.jsonio import dump_json, graph_to_doc, load_graph
from effdom.linalg import char_poly, int_kernel_basis, rref
from effdom.search import SearchConfig, enumerate_efficient
from test_golden import INPUTS, LAYOUTS


def test_off_by_default():
    obs.count("x")
    with obs.span("y"):
        pass
    with obs.collecting() as stats:
        pass
    assert stats.counters == {} and stats.spans_ms == {}


def test_collecting_counts_and_times():
    with obs.collecting() as stats:
        obs.count("a")
        obs.count("a", 4)
        for _ in range(2):
            with obs.span("s"):
                pass
    assert stats.counters == {"a": 5}
    assert set(stats.spans_ms) == {"s"} and stats.spans_ms["s"] >= 0
    doc = json.loads(stats.line())
    assert doc == {"stats": {"counters": {"a": 5}, "spans_ms": {"s": round(stats.spans_ms["s"], 3)}}}
    # counting stops with the block
    obs.count("a")
    assert stats.counters == {"a": 5}


def test_nested_blocks_restore_the_outer_one():
    with obs.collecting() as outer:
        obs.count("a")
        with obs.collecting() as inner:
            obs.count("b")
        obs.count("a")
    assert outer.counters == {"a": 2} and inner.counters == {"b": 1}


def test_linalg_counters():
    kernel, poly = "linalg.int_kernel_basis", "linalg.char_poly"
    cases = [
        # kernel (3, -2): the residue of -3/2 needs the rational lift; h = 5
        (kernel, lambda: int_kernel_basis([[2, 3]]), [(3, -2)],
         {"linalg.hadamard_bits": 3, "linalg.primes": 1, "linalg.panels": 1, "linalg.rational_lifts": 1}),
        # kernel entry 2^30 + 1 > p / 2: the first prime's trial row lifts
        # neither way, so a second prime and one CRT round; h = 2^30 + 2
        (kernel, lambda: int_kernel_basis([[1, -(2 ** 30 + 1)]]), [(2 ** 30 + 1, 1)],
         {"linalg.hadamard_bits": 31, "linalg.primes": 2, "linalg.panels": 2, "linalg.crt_rounds": 1,
          "linalg.rational_lifts": 1, "linalg.trial_rejects": 1}),
        # 64 rows of l1 norm 8: h = 2^192
        (kernel, lambda: len(int_kernel_basis(adjacency_matrix(folded_cube(7)) + np.eye(64, dtype=np.int64))),
         35, {"linalg.hadamard_bits": 193, "linalg.primes": 1, "linalg.panels": 1}),
        (poly, lambda: char_poly(adjacency_matrix(cycle(5))), [-2, 5, 0, -5, 0, 1],
         {"linalg.primes": 1, "linalg.crt_rounds": 1}),
    ]
    for name, call, want, counters in cases:
        with obs.collecting() as stats:
            assert call() == want
        assert stats.counters == counters
        assert list(stats.spans_ms) == [name]


def test_field_rref_counts_panels():
    # a GF(4) matrix reaches the one elimination as its 4 x 4 GF(2) block matrix
    with obs.collecting() as stats:
        assert rref(GF(2, 2), [[1, 2], [2, 1]]) == ([[1, 0], [0, 1]], [0, 1])
    assert stats.counters == {"linalg.panels": 1} and stats.spans_ms == {}


def test_search_counters():
    # C6, j = k = 1: one chunk at each of the 5 depths below the root, 30
    # nodes and the 3 perfect codes; with a limit of 10 the walk passes it
    # after 2 chunks, still takes one chunk at each later depth, and keeps
    # the one leaf made within the first 10 nodes in preorder (node 8)
    for count_only, limit, counters in [
        (False, 10 ** 8, {"search.chunks": 5, "search.nodes": 30, "search.leaves": 3}),
        (True, 10 ** 8, {"search.chunks": 5, "search.nodes": 30, "search.leaves": 3}),
        (False, 10, {"search.chunks": 5, "search.nodes": 11, "search.leaves": 1}),
    ]:
        with obs.collecting() as stats:
            outcome = enumerate_efficient(cycle(6), SearchConfig(j=1, k=1, node_limit=limit), count_only=count_only)
        assert stats.counters == counters and stats.spans_ms == {}
        assert (outcome.nodes, outcome.count) == (counters["search.nodes"], counters["search.leaves"])


def test_stats_flag_keeps_stdout_and_writes_one_line(tmp_path, capsys):
    path = tmp_path / "c6.json"
    path.write_text(dump_json(graph_to_doc(cycle(6))), encoding="utf-8")
    assert run(["spectrum", "--graph", str(path)]) == 0
    plain = capsys.readouterr()
    assert run(["--stats", "spectrum", "--graph", str(path)]) == 0
    stats = capsys.readouterr()
    assert stats.out == plain.out and plain.err == ""
    (line,) = stats.err.splitlines()
    doc = json.loads(line)["stats"]
    assert doc["counters"]["linalg.primes"] == 1
    assert set(doc["spans_ms"]) == {"linalg.int_kernel_basis"}


def test_stats_line_on_a_failing_command(capsys):
    assert run(["--stats", "verify", "--graph", "/nonexistent.json", "--function", "/nonexistent.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: ") and json.loads(err[-1]) == {"stats": {"counters": {}, "spans_ms": {}}}


def test_json_fallback_counter(tmp_path, capsys):
    # gen output (with no edges too) and every golden graph file are read as
    # arrays; a float endpoint sends the file through json, and --stats counts it
    texts = dict(LAYOUTS)
    for name, family in [("gen", ["hamming", "--q", "2", "--d", "5"]), ("gen_k1", ["complete", "--n", "1"])]:
        assert run(["gen", "--family", *family]) == 0
        texts[name] = capsys.readouterr().out
    texts.update({name: dump_json(doc) for name, doc in INPUTS.items() if "edges" in doc})
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode("utf-8"))
        with obs.collecting() as stats:
            load_graph(str(path))
        assert stats.counters == {}, name
    path = tmp_path / "float.json"
    path.write_text('{"n": 3, "edges": [[0, 1.0], [1, 2]]}', encoding="utf-8")
    assert run(["spectrum", "--graph", str(path)]) == 2
    plain = capsys.readouterr()
    assert run(["--stats", "spectrum", "--graph", str(path)]) == 2
    stats = capsys.readouterr()
    assert stats.out == plain.out == "" and stats.err.startswith(plain.err)
    assert json.loads(stats.err.splitlines()[-1])["stats"]["counters"] == {"jsonio.json_fallback": 1}


def test_verify_plan_counts_the_vertices_it_checks(capsys):
    # H(4,5) has 1024 vertices; a sample of 1500 takes two blocks
    for argv, checked in [(["verify-plan", "--q", "4", "--b", "2", "--d", "5"], 1024),
                          (["verify-plan", "--q", "4", "--b", "2", "--d", "5", "--sample", "1500"], 1500)]:
        assert run(argv) == 0
        plain = capsys.readouterr()
        assert run(["--stats", *argv]) == 0
        stats = capsys.readouterr()
        assert stats.out == plain.out and plain.err == ""
        (line,) = stats.err.splitlines()
        assert json.loads(line)["stats"]["counters"] == {"hamming.cover_vertices": checked}
