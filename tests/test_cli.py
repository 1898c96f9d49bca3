"""End-to-end command line tests driving effdom.cli.run with real files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from effdom import search
from effdom.cli import run
from effdom.graphs import complete, cycle, hamming_graph
from effdom.jsonio import dump_json, graph_to_doc


@pytest.fixture()
def write_doc(tmp_path):
    def _write(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(dump_json(doc), encoding="utf-8")
        return str(path)

    return _write


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def test_gen_cycle(capsys):
    code, doc, _ = invoke(capsys, ["gen", "--family", "cycle", "--n", "6"])
    assert code == 0
    assert doc["n"] == 6 and len(doc["edges"]) == 6


def test_gen_hamming_field_and_alphabet(capsys):
    code, doc, _ = invoke(capsys, ["gen", "--family", "hamming", "--q", "4", "--b", "2", "--d", "2"])
    assert code == 0 and doc["n"] == 16
    code2, doc2, _ = invoke(capsys, ["gen", "--family", "hamming", "--alphabet", "6", "--d", "2"])
    assert code2 == 0 and doc2["n"] == 36
    # 6 is not a prime power, so the field route must fail
    code3, _, err = invoke(capsys, ["gen", "--family", "hamming", "--q", "6", "--d", "2"])
    assert code3 == 2 and err


def test_gen_missing_flag(capsys):
    code, _, err = invoke(capsys, ["gen", "--family", "cycle"])
    assert code == 2 and "--n" in err


def test_verify_roundtrip(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    fgood = write_doc("good.json", {"j": 1, "k": 1, "values": [1, 0, 0, 1, 0, 0]})
    fbad = write_doc("bad.json", {"j": 1, "k": 1, "values": [1, 1, 0, 1, 0, 0]})
    code, doc, _ = invoke(capsys, ["verify", "--graph", gpath, "--function", fgood])
    assert code == 0 and doc["ok"] is True and doc["observed_k"] == 1
    code2, doc2, _ = invoke(capsys, ["verify", "--graph", gpath, "--function", fbad])
    assert code2 == 1 and doc2["ok"] is False and doc2["violations"]
    code3, doc3, _ = invoke(capsys, ["verify", "--dominating", "--graph", gpath, "--function", fbad])
    assert code3 == 0 and doc3["ok"] is True and doc3["mode"] == "dominating"


def test_verify_missing_file(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    code, _, err = invoke(capsys, ["verify", "--graph", gpath, "--function", "/nonexistent.json"])
    assert code == 2 and err


def test_construct(capsys):
    code, doc, _ = invoke(capsys, ["construct", "--q", "2", "--d", "5", "--k", "3"])
    assert code == 0
    assert sum(doc["values"]) == 16 and doc["k"] == 3
    assert doc["provenance"] == {"a": 1, "m": 3, "fibres": 2}


def test_construct_infeasible(capsys):
    code, _, err = invoke(capsys, ["construct", "--q", "2", "--d", "5", "--k", "2"])
    assert code == 2 and "divisibility" in err
    code2, _, err2 = invoke(capsys, ["construct", "--q", "4", "--b", "2", "--d", "13", "--k", "5"])
    assert code2 == 2 and "open" in err2


def test_feasible(capsys):
    code, doc, _ = invoke(capsys, ["feasible", "--q", "4", "--b", "2", "--d", "13"])
    assert code == 0
    assert doc["open_k"] == [5, 15, 25, 35]
    assert doc["partition"] == "10-cover of K_4"
    assert doc["expression"] == "(q-1)*d+1"


def test_feasible_checks_the_cap_before_listing(capsys, monkeypatch):
    monkeypatch.delenv("EFFDOM_SIZE_CAP", raising=False)
    assert run(["feasible", "--q", "2", "--d", "31"]) == 0
    plain = capsys.readouterr().out
    start = time.perf_counter()
    code, doc, err = invoke(capsys, ["feasible", "--q", "2", "--d", "1099511627775"])
    assert time.perf_counter() - start < 1
    assert (code, doc, err) == (2, None, "size cap: 2^40 + 1 values of k exceed the cap of 2097152\n")
    # necessary_k of H(2,63) holds 2^6 + 1 = 65 values; of H(2,31), 33
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "64")
    code, doc, err = invoke(capsys, ["feasible", "--q", "2", "--d", "63"])
    assert (code, doc, err) == (2, None, "size cap: 2^6 + 1 values of k exceed the cap of 64\n")
    assert run(["feasible", "--q", "2", "--d", "31"]) == 0
    assert capsys.readouterr().out == plain


def test_verify_plan(capsys):
    code, doc, _ = invoke(capsys, ["verify-plan", "--q", "2", "--d", "5"])
    assert code == 0 and doc["certified"] and doc["fold"] == 3 and doc["mode"] == "full"
    code2, doc2, _ = invoke(capsys, ["verify-plan", "--q", "2", "--d", "7", "--sample", "20", "--seed", "3"])
    assert code2 == 0 and doc2["mode"] == "sampled:20:3"


def test_spectrum(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    code, doc, _ = invoke(capsys, ["spectrum", "--graph", gpath])
    assert code == 0 and doc["multiplicity"] == 2
    assert doc["witness"] is not None
    g2 = write_doc("h32.json", graph_to_doc(hamming_graph(3, 2)))
    code2, doc2, _ = invoke(capsys, ["spectrum", "--graph", g2])
    assert code2 == 0 and doc2["multiplicity"] == 0 and doc2["witness"] is None


def test_search(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    code, doc, _ = invoke(capsys, ["search", "--graph", gpath, "--j", "1", "--k", "1"])
    assert code == 0 and doc["count"] == 3 and doc["exhausted"] is True
    assert len(doc["functions"]) == 3
    code2, doc2, _ = invoke(capsys, ["search", "--graph", gpath, "--j", "1", "--k", "1", "--count-only"])
    assert code2 == 0 and "functions" not in doc2


def test_spectrum_k(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    code, doc, _ = invoke(capsys, ["spectrum-k", "--graph", gpath, "--j", "1"])
    assert code == 0
    assert doc["counts"] == {"0": 1, "1": 3, "2": 3, "3": 1}


def test_count_only_commands_never_list(capsys, write_doc, monkeypatch):
    # stdout cannot tell a counted search from a listed one whose functions
    # are dropped, so the calls are watched
    modes = []
    enumerate_efficient = search.enumerate_efficient

    def watched(x, cfg, count_only=False):
        outcome = enumerate_efficient(x, cfg, count_only=count_only)
        modes.append(outcome.values is None)
        return outcome

    monkeypatch.setattr(search, "enumerate_efficient", watched)
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    invoke(capsys, ["search", "--graph", gpath, "--j", "1", "--k", "1", "--count-only"])
    invoke(capsys, ["spectrum-k", "--graph", gpath, "--j", "1"])
    assert modes == [True] * 3
    invoke(capsys, ["search", "--graph", gpath, "--j", "1", "--k", "1"])
    assert modes[-1] is False


def test_partition(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    ppath = write_doc("cells.json", {"cells": [[0, 3], [1, 2, 4, 5]]})
    code, doc, _ = invoke(capsys, ["partition", "--graph", gpath, "--partition", ppath])
    assert code == 0
    assert doc["equitable"] is True
    assert doc["characteristic_matrix"] == {"rows": 2, "cols": 2, "entries": [0, 2, 1, 1]}
    assert doc["dominatable_weights"] == [1, 2]
    p2 = write_doc("bipart.json", {"cells": [[0, 2, 4], [1, 3, 5]]})
    code2, doc2, _ = invoke(capsys, ["partition", "--graph", gpath, "--partition", p2])
    assert code2 == 0 and doc2["dominatable_weights"] is None


def test_cover_and_lift(capsys, write_doc):
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    bpath = write_doc("k3.json", graph_to_doc(complete(3)))
    ppath = write_doc("fibres.json", {"cells": [[0, 3], [1, 4], [2, 5]]})
    code, doc, _ = invoke(capsys, ["cover", "--graph", gpath, "--partition", ppath, "--base", bpath])
    assert code == 0 and doc["certified"] and doc["fold"] == 2
    bad = write_doc("badcells.json", {"cells": [[0, 1], [2, 3], [4, 5]]})
    code2, doc2, _ = invoke(capsys, ["cover", "--graph", gpath, "--partition", bad, "--base", bpath])
    assert code2 == 1 and doc2["certified"] is False

    fbase = write_doc("fbase.json", {"j": 1, "k": 1, "values": [1, 0, 0]})
    code3, doc3, _ = invoke(capsys, [
        "lift", "--graph", gpath, "--base", bpath, "--partition", ppath, "--function", fbase,
    ])
    assert code3 == 0 and doc3["values"] == [1, 0, 0, 1, 0, 0]

    fcover = write_doc("fcover.json", {"j": 1, "k": 1, "values": [1, 0, 0, 1, 0, 0]})
    code4, doc4, _ = invoke(capsys, [
        "lift", "--push", "--graph", gpath, "--base", bpath, "--partition", ppath, "--function", fcover,
    ])
    assert code4 == 0 and doc4["values"] == [1, 0, 0]

    funeven = write_doc("funeven.json", {"j": 1, "k": 1, "values": [1, 0, 0, 0, 0, 0]})
    code5, _, err5 = invoke(capsys, [
        "lift", "--push", "--graph", gpath, "--base", bpath, "--partition", ppath, "--function", funeven,
    ])
    assert code5 == 1 and "constant" in err5


def test_cover_kflag(capsys, write_doc):
    gpath = write_doc("k4.json", graph_to_doc(complete(4)))
    bpath = write_doc("k2.json", graph_to_doc(complete(2)))
    ppath = write_doc("halves.json", {"cells": [[0, 1], [2, 3]]})
    code, doc, _ = invoke(capsys, [
        "cover", "--graph", gpath, "--partition", ppath, "--base", bpath, "--k", "2",
    ])
    assert code == 0 and doc["kind"] == "m-cover" and doc["fold"] == 2


def test_translate(capsys, write_doc):
    fpath = write_doc("code.json", {"j": 1, "k": 1, "values": [1, 0, 0, 0, 0, 0, 0, 1]})
    cpath = write_doc("conn.json", {"connection": [1, 2, 4]})
    code, doc, _ = invoke(capsys, [
        "translate", "--q", "2", "--d", "3", "--function", fpath, "--connection", cpath,
    ])
    assert code == 0
    assert doc["partition"]["cells"] == [[0, 7], [1, 6], [2, 5], [3, 4]]
    assert doc["certificate"]["fold"] == 2 and doc["certificate"]["base_size"] == 4


def test_size_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "16")
    code, _, err = invoke(capsys, ["gen", "--family", "hamming", "--q", "2", "--d", "5"])
    assert code == 2 and "cap" in err
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "frogs")
    code2, _, err2 = invoke(capsys, ["gen", "--family", "hamming", "--q", "2", "--d", "5"])
    assert code2 == 2 and "EFFDOM_SIZE_CAP" in err2


def test_threads_flag_accepted(capsys):
    code, doc, _ = invoke(capsys, ["--threads", "4", "gen", "--family", "complete", "--n", "3"])
    assert code == 0 and doc["n"] == 3


def test_unknown_subcommand_exits(capsys):
    with pytest.raises(SystemExit):
        run(["frobnicate"])


C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
CODE_Q3 = {"j": 1, "k": 1, "values": [1, 0, 0, 0, 0, 0, 0, 1]}


@pytest.mark.parametrize("command, docs", [
    ("spectrum", {"graph": {"n": 3, "edges": [1, 2]}}),
    ("spectrum", {"graph": {"n": 3, "edges": [[0]]}}),
    ("spectrum", {"graph": {"n": 3, "edges": 5}}),
    ("spectrum", {"graph": '{"n": 1e400, "edges": []}'}),
    ("partition", {"graph": C4, "partition": {"cells": [5]}}),
    ("cover", {"graph": C4, "partition": {"cells": [5]}, "base": {"n": 2, "edges": [[0, 1]]}}),
    ("translate", {"function": CODE_Q3, "connection": {"connection": 3}}),
    ("translate", {"function": CODE_Q3, "connection": [1, 2, 4]}),
    ("spectrum", {"graph": "[" * 100000 + "]" * 100000}),
    ("spectrum", {"graph": {"n": 3.9, "edges": [[0, 1.7], [1, 2], [0, 2]]}}),
    ("spectrum", {"graph": {"n": 3, "edges": [[0, True], [1, 2], [0, 2]]}}),
    ("spectrum", {"graph": {"n": 3, "edges": [[0, 2 ** 70]]}}),
    ("spectrum", {"graph": {"n": 3, "edges": [[0, -1]]}}),
    ("spectrum", {"graph": {"n": 3, "edges": [[0, 1], [1, 0]]}}),
    ("spectrum", {"graph": {"n": 0, "edges": []}}),
    ("spectrum", {"graph": {"n": -1, "edges": []}}),
    ("spectrum", {"graph": {"n": 3, "edges": ["01"]}}),
    ("spectrum", {"graph": {"n": 3, "edges": {"0": 1}}}),
    ("spectrum", {"graph": {"n": 3, "edges": {}}}),
], ids=["edge-not-pair", "edge-too-short", "edges-not-list", "n-overflows",
        "partition-cell-not-list", "cover-cell-not-list", "connection-not-list", "connection-doc-list",
        "nested-too-deeply", "non-integer-numbers", "boolean-endpoint",
        "endpoint-beyond-int64", "endpoint-negative", "reversed-duplicate", "n-zero", "n-negative",
        "row-string", "edges-object", "edges-empty-object"])
def test_malformed_documents_exit_2(capsys, tmp_path, command, docs):
    argv = [command] + (["--q", "2", "--d", "3"] if command == "translate" else [])
    for flag, doc in docs.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        argv += [f"--{flag}", str(path)]
    code, doc, err = invoke(capsys, argv)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("family", [
    ["complete", "--n", "5"], ["cycle", "--n", "5"], ["complete-bipartite", "--m", "2", "--n", "3"],
])
def test_size_cap_on_gen(capsys, monkeypatch, family):
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "2")
    code, doc, err = invoke(capsys, ["gen", "--family"] + family)
    assert code == 2 and doc is None
    assert err == "size cap: 5 vertices exceeds the cap of 2\n"


def test_size_cap_on_load(capsys, monkeypatch, write_doc):
    gpath = write_doc("c4.json", C4)
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "2")
    code, doc, err = invoke(capsys, ["spectrum", "--graph", gpath])
    assert code == 2 and doc is None
    assert err == "size cap: 4 vertices exceeds the cap of 2\n"
    monkeypatch.setenv("EFFDOM_SIZE_CAP", "4")
    code2, doc2, _ = invoke(capsys, ["spectrum", "--graph", gpath])
    assert code2 == 0 and doc2["multiplicity"] == 0


@pytest.mark.parametrize("flags", [
    ["--q", str(10 ** 400), "--b", "2"],
    ["--q", str(10 ** 400)],
    ["--q", "1000000000000000000000000000057"],
    ["--q", "65537"],
    ["--q", "4", "--b", "1000000000"],
    ["--q", "-4", "--b", "2"],
], ids=["huge-q-with-b", "huge-q", "huge-prime-q", "q-above-max", "huge-b", "negative-q-with-b"])
def test_field_flags_checked_before_arithmetic(capsys, flags):
    start = time.perf_counter()
    code, doc, err = invoke(capsys, ["feasible", *flags, "--d", "1"])
    assert time.perf_counter() - start < 1
    assert code == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (["gen", "--family", "hamming", "--q", "3", "--d", "100000000"],
     "size cap: 3^100000000 vertices exceeds the cap of 2097152\n"),
    (["gen", "--family", "hamming", "--alphabet", str(10 ** 30), "--d", "3"],
     f"size cap: {10 ** 30}^3 vertices exceeds the cap of 2097152\n"),
    (["construct", "--q", "3", "--d", "100000000", "--k", "0"],
     "size cap: H(3,100000000) has 3^100000000 vertices, above the cap of 2097152\n"),
    (["translate", "--q", "3", "--d", "100000000", "--function", "{f}", "--connection", "{c}"],
     "size cap: 3^100000000 vertices exceeds the cap of 2097152\n"),
    (["gen", "--family", "folded-cube", "--d", "100000000"],
     "size cap: 2^99999999 vertices exceeds the cap of 2097152\n"),
    (["gen", "--family", "hamming", "--q", "2", "--d", "22"],
     "size cap: 4194304 vertices exceeds the cap of 2097152\n"),
    (["verify-plan", "--q", "2", "--d", "23"],
     "size cap: 2^23 vertices exceeds the cap of 2097152\n"),
], ids=["gen", "gen-alphabet", "construct", "translate", "gen-folded-cube", "gen-small-n", "verify-plan"])
def test_size_cap_before_power(capsys, monkeypatch, write_doc, argv, err):
    monkeypatch.delenv("EFFDOM_SIZE_CAP", raising=False)
    paths = {"f": write_doc("f.json", CODE_Q3), "c": write_doc("c.json", {"connection": [1]})}
    start = time.perf_counter()
    code, doc, got = invoke(capsys, [arg.format(**paths) for arg in argv])
    assert time.perf_counter() - start < 1
    assert (code, doc, got) == (2, None, err)


def test_spectrum_does_not_import_numpy_ma(write_doc):
    # np.setdiff1d imports numpy.ma, about 18 ms in a fresh process
    gpath = write_doc("c6.json", graph_to_doc(cycle(6)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from effdom.cli import run; code = run(['spectrum', '--graph', sys.argv[1]]); "
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, gpath], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr.split() == ["0", "False"], done.stderr
    assert json.loads(done.stdout)["multiplicity"] == 2
