"""Golden CLI corpus: every subcommand on small inputs, pinned by exit code
and the sha256 of stdout.

The digests were recorded from the command line before the neighbourhood
kernels were unified (the two verify-plan cases beyond int64 and over
GF(9), before the labels became digit arrays; the five verify-plan cases
over GF(8), GF(16), GF(32), GF(27) and GF(25), before extension fields
multiplied through their table of blocks; the four search cases at and
beyond the node limit and the j = 2 spectrum-k, before the search walked
its tree in batches; the spectrum cases on H(2,5) and F(7), before the
multiplicity on Cayley graphs of Z_2^m came from their character sums;
the spectrum cases on H(4,5) and H(2,9), before their witness came from
their characters too;
the H(2,10) and H(3,4) cases, before graphs became
CSR arrays and dump_json wrote its own layout; the twelve cases on graph
files in other layouts, before graph files were read as bytes); a refactor that keeps them
keeps stdout byte for byte.  Input files are written to a temporary directory, and "{name}" in
an argument list stands for the path of input file name.json.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from effdom.cli import run
from effdom.fields import GF
from effdom.graphs import complete, cycle, folded_cube, hamming_graph
from effdom.hamming import construct_function
from effdom.jsonio import dump_json, function_to_doc, graph_to_doc

INPUTS = {
    "c6": graph_to_doc(cycle(6)),
    "k3": graph_to_doc(complete(3)),
    "k4": graph_to_doc(complete(4)),
    "k2": graph_to_doc(complete(2)),
    "h23": graph_to_doc(hamming_graph(2, 3)),
    "h210": graph_to_doc(hamming_graph(2, 10)),
    "h25": graph_to_doc(hamming_graph(2, 5)),
    "f7": graph_to_doc(folded_cube(7)),
    "h45": graph_to_doc(hamming_graph(4, 5)),
    "h29": graph_to_doc(hamming_graph(2, 9)),
    "c6_code": {"j": 1, "k": 1, "values": [1, 0, 0, 1, 0, 0]},
    "c6_bad": {"j": 1, "k": 1, "values": [1, 1, 0, 1, 0, 0]},
    "c6_weak": {"j": 1, "k": 1, "values": [1, 0, 0, 0, 0, 0]},
    "k3_code": {"j": 1, "k": 1, "values": [1, 0, 0]},
    "h23_code": {"j": 1, "k": 1, "values": [1, 0, 0, 0, 0, 0, 0, 1]},
    # r + 1 = 11 does not divide 2^10, so k = 11 (all ones) is H(2,10)'s only
    # nonzero efficient k; the even-weight indicator gives closed sums 1 and 10
    "h210_all": function_to_doc(construct_function(GF(2), 10, 11).function),
    "h210_parity": {"j": 1, "k": 1, "values": [1 - bin(v).count("1") % 2 for v in range(1024)]},
    "c6_fibres": {"cells": [[0, 3], [1, 4], [2, 5]]},
    "c6_pairs": {"cells": [[0, 1], [2, 3], [4, 5]]},
    "c6_code_cells": {"cells": [[0, 3], [1, 2, 4, 5]]},
    "c6_uneven": {"cells": [[0, 1], [2, 3, 4, 5]]},
    "k4_halves": {"cells": [[0, 1], [2, 3]]},
    "q3_conn": {"connection": [1, 2, 4]},
}


def _layouts(name, doc):
    """A graph document in three layouts the reader must accept besides
    dump_json's: compact with no newline, tab-indented with CRLF line ends,
    and "edges" first under an escaped key."""
    doc = {**doc, "edges": doc["edges"].tolist()}
    first = json.dumps({"edges": doc["edges"], **doc}, indent=1)
    return {
        f"{name}_compact": json.dumps(doc, separators=(",", ":")),
        f"{name}_crlf": json.dumps(doc, indent="\t").replace("\n", "\r\n") + "\r\n",
        f"{name}_escaped": first.replace('"edges"', '"\\u0065dges"', 1),
    }


# raw texts, written byte for byte
LAYOUTS = {**_layouts("c6", INPUTS["c6"]), **_layouts("h210", INPUTS["h210"])}

CASES = [
    ("gen-complete", ["gen", "--family", "complete", "--n", "5"], 0,
     "6088a8f3cc305f9b92c74e621630ee96003956426ccce4814209157c9053ca1b"),
    ("gen-cycle", ["gen", "--family", "cycle", "--n", "7"], 0,
     "88f89c3f24790d999d2b3864800ea7aaf39aac0da16e53c8e5a3739c4d9c614a"),
    ("gen-complete-bipartite", ["gen", "--family", "complete-bipartite", "--m", "2", "--n", "3"], 0,
     "ffeb24e68dfdd7fa3b47eb6d03fe8913ab82ae86e8c2c366ef94c1c740d4678c"),
    ("gen-hamming-field", ["gen", "--family", "hamming", "--q", "4", "--b", "2", "--d", "2"], 0,
     "da0ec668f6745ad7bf3ddcaf2a83d376372d86ae87afb2177d86eb613b3c5a49"),
    ("gen-hamming-alphabet", ["gen", "--family", "hamming", "--alphabet", "3", "--d", "2"], 0,
     "794df829acce0f80852e6ea829c4b4cbcbcb7ffb8c835b16bfbb68426e6790e0"),
    ("gen-hamming-2-10", ["gen", "--family", "hamming", "--q", "2", "--d", "10"], 0,
     "ab7537c8709f1fff3976855308a986bca6fde2fa1c182b77620a2cb615674016"),
    ("gen-hamming-3-4", ["gen", "--family", "hamming", "--q", "3", "--d", "4"], 0,
     "cad17bd9c99a79fdc8780b7346a1400da3f86faeb8617a16f259bd6307f2477d"),
    ("gen-folded-cube", ["gen", "--family", "folded-cube", "--d", "5"], 0,
     "7a37c5b4fa418f6555a0accdc419b4a1f43384c104cd3c612bff098ea41e9dbd"),
    ("verify", ["verify", "--graph", "{c6}", "--function", "{c6_code}"], 0,
     "cdb630a5ff3b1b1d4642d36fcc6d6a67a55baa29a67838ca2015fb7684303358"),
    ("verify-fails", ["verify", "--graph", "{c6}", "--function", "{c6_bad}"], 1,
     "78a7ab55f86555a4fa13b4b65cb64c30f60bbbe70598a24ff88d0905592df2db"),
    ("verify-dominating", ["verify", "--dominating", "--graph", "{c6}", "--function", "{c6_bad}"], 0,
     "2251a8ef839585fb5f8ef395327d8cf399fdf87ae9c2870e27c500c213273e18"),
    ("verify-dominating-fails", ["verify", "--dominating", "--graph", "{c6}", "--function", "{c6_weak}"], 1,
     "eb269da4d667b7c8c4a116ba9ec68ac2d5835aba7aceb3cddf0a69bf3c758c2f"),
    ("verify-h210", ["verify", "--graph", "{h210}", "--function", "{h210_all}"], 0,
     "5d9663fb337eba490467b56f7ecd65bfc0ec12dd75340eaef33640aadf0dc68d"),
    ("verify-h210-fails", ["verify", "--graph", "{h210}", "--function", "{h210_parity}"], 1,
     "b18b536c7baa154318ccae756f86e553670ac85848df560a92a307cb1f80aae4"),
    ("verify-h210-dominating", ["verify", "--dominating", "--graph", "{h210}", "--function", "{h210_parity}"], 0,
     "2251a8ef839585fb5f8ef395327d8cf399fdf87ae9c2870e27c500c213273e18"),
    ("construct-h210-k1", ["construct", "--q", "2", "--d", "10", "--k", "1"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("construct", ["construct", "--q", "2", "--d", "5", "--k", "3"], 0,
     "54a794602869b9362fa626ab07d20c5d9e2558a806ac5e74107dae021374da49"),
    ("construct-gf4", ["construct", "--q", "4", "--b", "2", "--d", "5", "--k", "1"], 0,
     "3c46a23b0168d0c95b2fa3eaecc5c0aaa444de4e609e6ee71375b68991e91df6"),
    ("construct-infeasible", ["construct", "--q", "2", "--d", "5", "--k", "2"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("feasible", ["feasible", "--q", "4", "--b", "2", "--d", "13"], 0,
     "bfd14fcde250241890c9cf6f6e04be657106aafb3771325231503752fe4abdf5"),
    ("verify-plan-full", ["verify-plan", "--q", "3", "--d", "4"], 0,
     "3934ed0e6fe9ebef0f03eb2e5a9d20cac85e5cefb49c323e7579ce766f8a588c"),
    ("verify-plan-sampled", ["verify-plan", "--q", "4", "--b", "2", "--d", "5", "--sample", "40", "--seed", "7"], 0,
     "168d47c1ad8f3880cd1e0f7d0a30e8aa37bc0d5807da242e9280af879d096676"),
    ("verify-plan-sampled-beyond-int64", ["verify-plan", "--q", "2", "--d", "127", "--sample", "5", "--seed", "3"], 0,
     "3df70c100f754e3841d1bbc47fc5c58c957930fdab1f039a1b30eb18448aea2a"),
    ("verify-plan-sampled-gf9", ["verify-plan", "--q", "9", "--b", "2", "--d", "10", "--sample", "100"], 0,
     "3ed4d13719557dbaf23f45b6fa2b47ff195dc494410f6d353613bebe35797424"),
    ("verify-plan-sampled-gf8", ["verify-plan", "--q", "8", "--b", "3", "--d", "9", "--sample", "1"], 0,
     "aed949202b54ef5dfa353c4e33588f69e7dbf69be61113ab3e431eb91ba0fc84"),
    ("verify-plan-sampled-gf16", ["verify-plan", "--q", "16", "--b", "4", "--d", "17", "--sample", "1"], 0,
     "5bdba9da662f20ca4cb5e0d482f655b84e5c045c769f79c3f2e4170d8cab11a6"),
    ("verify-plan-sampled-gf32", ["verify-plan", "--q", "32", "--b", "5", "--d", "33", "--sample", "1"], 0,
     "01bdad5c5620da5c009ed9dedb45d0315e6d90a4086c787e10463c3eab17b665"),
    ("verify-plan-sampled-gf27", ["verify-plan", "--q", "27", "--b", "3", "--d", "28", "--sample", "1"], 0,
     "99d2b382f04abac226bfbd35c258733bf7652b3eee9aba9d4a739c291a29a0ba"),
    ("verify-plan-sampled-gf25", ["verify-plan", "--q", "25", "--b", "2", "--d", "26", "--sample", "1"], 0,
     "e58dede87b3474bafb76316a89806b6ca8c4fbf09711b552f54db9e4b007e201"),
    ("spectrum", ["spectrum", "--graph", "{c6}"], 0,
     "6d290682e57815bb92b8264019431b7267ebc92f7101161845985934859abfeb"),
    ("spectrum-none", ["spectrum", "--graph", "{k4}"], 0,
     "39037b5fa4b357ea39357509142e6dbc0cd6f30b2960bc66772966c70c0711c3"),
    ("spectrum-h25", ["spectrum", "--graph", "{h25}"], 0,
     "0a83028181285d1be660a2bb2b12f2569f5c903eaaef526042c6b71f0a47d60b"),
    ("spectrum-f7", ["spectrum", "--graph", "{f7}"], 0,
     "c1a12964322339c462a95f5ee66b5bbd98ba655040dc99ac5e62183f7bf3ee7d"),
    # GF(4) digits, n = 1024, multiplicity 405; and multiplicity 126
    ("spectrum-h45", ["spectrum", "--graph", "{h45}"], 0,
     "4130852d84149d3dd8d575503c0a32b651dcc1f48d5f364ad5c422c5863ad85e"),
    ("spectrum-h29", ["spectrum", "--graph", "{h29}"], 0,
     "9432f7c33de9656cd38fceb300ef124f0534707e1767047767d19438b0b2be35"),
    ("search", ["search", "--graph", "{h23}", "--j", "1", "--k", "2"], 0,
     "049058ecdb80b23ec2e9a7fac611e5d4174361c4eeb67cbc3174d9a0604c3416"),
    ("search-count-only", ["search", "--graph", "{c6}", "--j", "2", "--k", "3", "--count-only"], 0,
     "dc11dbdc8f235d9d36deb060568e0bbe14e499469f6e21250cab779b503b3702"),
    ("search-limit", ["search", "--graph", "{c6}", "--j", "2", "--k", "3", "--limit", "10"], 0,
     "e96eaf458cf5ec4a8c2a73d206afef2d787e370f85a8d650e76cdfdfb8709760"),
    ("spectrum-k", ["spectrum-k", "--graph", "{h23}", "--j", "1"], 0,
     "4f308007f5e90a5f653d0d4a9a8dc8daa1bda94a4190601c1c16e51aeec13164"),
    ("search-limit-total", ["search", "--graph", "{c6}", "--j", "2", "--k", "3", "--limit", "96"], 0,
     "b79353cde55c6dee611d4f06a6e28d0168d9bccb1c64252197fd2d5a984c6ffe"),
    ("search-limit-total-minus-one", ["search", "--graph", "{c6}", "--j", "2", "--k", "3", "--limit", "95"], 0,
     "4d22415db5ff753ef3e24a19539d3b4f68022c90630d7348b6bdca66823f2def"),
    ("search-huge-j", ["search", "--graph", "{c6}", "--j", "1000000000000000000000", "--k", "3",
                       "--limit", "1000"], 0,
     "5f694e840af5149d90aa0d349e2397689c83b003573b634e31c5069162ac9864"),
    ("spectrum-k-j2", ["spectrum-k", "--graph", "{h23}", "--j", "2"], 0,
     "3213c5430877149bb0a7423a679ac1953b386eec6610cb85b3faf5c6cc861833"),
    ("partition-equitable", ["partition", "--graph", "{c6}", "--partition", "{c6_code_cells}"], 0,
     "8a955049b186f7379ca86993f2c987d398439192b8f20d0b3d81081e68b3dbb9"),
    ("partition-not-equitable", ["partition", "--graph", "{c6}", "--partition", "{c6_uneven}"], 0,
     "f173e4b9224c7853db16a2f9421343528c5ab0bb84eed5b34db3a189f31bd5f5"),
    ("cover", ["cover", "--graph", "{c6}", "--partition", "{c6_fibres}", "--base", "{k3}"], 0,
     "96b9322437acc8d41df482f816d8871cd997b10ca2d30c6d249574308684e311"),
    ("cover-k", ["cover", "--graph", "{k4}", "--partition", "{k4_halves}", "--base", "{k2}", "--k", "2"], 0,
     "b6dd850615755178852c96a8c720944699c895e515e7daf27b9bdaf4c850a1f0"),
    ("cover-rejected", ["cover", "--graph", "{c6}", "--partition", "{c6_pairs}", "--base", "{k3}"], 1,
     "164c78426c74654691be0539914d4ddc3a74ee9ee2d96f75a9441d3d4249d71e"),
    ("lift", ["lift", "--graph", "{c6}", "--base", "{k3}", "--partition", "{c6_fibres}",
              "--function", "{k3_code}"], 0,
     "1df3d70708dd092d4c49aa94ed8c994b6a504f529f9a59359c918d959f7cff0e"),
    ("lift-push", ["lift", "--push", "--graph", "{c6}", "--base", "{k3}", "--partition", "{c6_fibres}",
                   "--function", "{c6_code}"], 0,
     "81d71bb4237a033604ddf9059300f4222883dedc466aa7cba1f3b47a6b423bb0"),
    ("translate", ["translate", "--q", "2", "--d", "3", "--function", "{h23_code}",
                   "--connection", "{q3_conn}"], 0,
     "30c3b251c6535ba08d91a7fc9c2eef9330d61aadda5cc765a2a2d7de0f9aab37"),
    ("verify-c6-compact", ["verify", "--graph", "{c6_compact}", "--function", "{c6_code}"], 0,
     "cdb630a5ff3b1b1d4642d36fcc6d6a67a55baa29a67838ca2015fb7684303358"),
    ("spectrum-c6-compact", ["spectrum", "--graph", "{c6_compact}"], 0,
     "6d290682e57815bb92b8264019431b7267ebc92f7101161845985934859abfeb"),
    ("verify-c6-crlf", ["verify", "--graph", "{c6_crlf}", "--function", "{c6_code}"], 0,
     "cdb630a5ff3b1b1d4642d36fcc6d6a67a55baa29a67838ca2015fb7684303358"),
    ("spectrum-c6-crlf", ["spectrum", "--graph", "{c6_crlf}"], 0,
     "6d290682e57815bb92b8264019431b7267ebc92f7101161845985934859abfeb"),
    ("verify-c6-escaped", ["verify", "--graph", "{c6_escaped}", "--function", "{c6_code}"], 0,
     "cdb630a5ff3b1b1d4642d36fcc6d6a67a55baa29a67838ca2015fb7684303358"),
    ("spectrum-c6-escaped", ["spectrum", "--graph", "{c6_escaped}"], 0,
     "6d290682e57815bb92b8264019431b7267ebc92f7101161845985934859abfeb"),
    ("verify-h210-compact", ["verify", "--graph", "{h210_compact}", "--function", "{h210_all}"], 0,
     "5d9663fb337eba490467b56f7ecd65bfc0ec12dd75340eaef33640aadf0dc68d"),
    ("spectrum-h210-compact", ["spectrum", "--graph", "{h210_compact}"], 0,
     "a8a6d2344806261371e6e8a8234e4802260558f76d7c358ee847dd7d285d2fce"),
    ("verify-h210-crlf", ["verify", "--graph", "{h210_crlf}", "--function", "{h210_all}"], 0,
     "5d9663fb337eba490467b56f7ecd65bfc0ec12dd75340eaef33640aadf0dc68d"),
    ("spectrum-h210-crlf", ["spectrum", "--graph", "{h210_crlf}"], 0,
     "a8a6d2344806261371e6e8a8234e4802260558f76d7c358ee847dd7d285d2fce"),
    ("verify-h210-escaped", ["verify", "--graph", "{h210_escaped}", "--function", "{h210_all}"], 0,
     "5d9663fb337eba490467b56f7ecd65bfc0ec12dd75340eaef33640aadf0dc68d"),
    ("spectrum-h210-escaped", ["spectrum", "--graph", "{h210_escaped}"], 0,
     "a8a6d2344806261371e6e8a8234e4802260558f76d7c358ee847dd7d285d2fce"),
]


@pytest.fixture()
def inputs(tmp_path):
    paths = {}
    for name, doc in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        paths[name] = str(path)
    for name, text in LAYOUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode("utf-8"))
        paths[name] = str(path)
    return paths


def run_case(argv, paths, capsys):
    code = run([arg.format(**paths) for arg in argv])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden(argv, code, digest, inputs, capsys):
    assert run_case(argv, inputs, capsys) == (code, digest)


@pytest.mark.parametrize("argv, code, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_with_stats(argv, code, digest, inputs, capsys):
    # --stats adds one JSON line to stderr and changes nothing on stdout
    got = run(["--stats"] + [arg.format(**inputs) for arg in argv])
    captured = capsys.readouterr()
    assert (got, hashlib.sha256(captured.out.encode("utf-8")).hexdigest()) == (code, digest)
    stats = json.loads(captured.err.splitlines()[-1])["stats"]
    assert set(stats) == {"spans_ms", "counters"}
