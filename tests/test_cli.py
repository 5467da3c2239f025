import ast
import hashlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

import densub
from densub import cli, oracle, orient
from densub.cli import main
from densub.decompose import Clustering
from densub.engine import RoundTrace
from densub.graphs import (
    Graph,
    barbell,
    complete,
    cycle,
    erdos_renyi,
    path,
    planted_dense,
    write_edge_list,
)


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.el"
    p.write_text(write_edge_list(complete(5)), encoding="utf-8")
    return str(p)


@pytest.fixture
def c20_file(tmp_path):
    p = tmp_path / "c20.el"
    p.write_text(write_edge_list(cycle(20)), encoding="utf-8")
    return str(p)


@pytest.fixture(scope="module")
def graphs_3000(tmp_path_factory):
    root = tmp_path_factory.mktemp("n3000")
    files = {}
    for name, g in [
        ("gnp_3000", erdos_renyi(3000, 0.002, seed=1)), ("cycle_3000", cycle(3000))
    ]:
        path = root / f"{name}.el"
        path.write_text(write_edge_list(g), encoding="utf-8")
        files[name] = str(path)
    return files


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCli:
    def test_exact_k5(self, capsys, k5_file, monkeypatch):
        # every solve ends in exactly one certificate check
        calls = []
        real = oracle._check_certificate

        def spy(g, *rest):
            calls.append(g.n)
            return real(g, *rest)

        monkeypatch.setattr(oracle, "_check_certificate", spy)
        code, payload = run_json(capsys, ["exact", "--in", k5_file])
        assert code == 0
        assert payload["result"]["D"] == "2/1"
        assert payload["result"]["witness"] == [0, 1, 2, 3, 4]
        assert payload["graph"] == {
            "n": 5, "m": 10, "max_degree": 4, "oracle_density": "2/1"
        }
        assert calls == [5]  # the report reuses D; the oracle runs once
        for argv in (
            ["approx", "--in", k5_file, "--eps", "1/8", "--seed", "1"],
            ["dual", "--in", k5_file, "--z", "2/1", "--eps", "1/8", "--T", "64"],
            # the one ball is the whole graph: the report reads its solve
            ["detect-local", "--in", k5_file, "--dtilde", "2", "--eps", "1/2"],
        ):
            calls.clear()
            code, payload = run_json(capsys, argv)
            assert code == 0 and payload["check"]["pass"] is True
            assert calls == [5], argv[0]

    def test_command_is_the_argv_given_to_main(self, capsys, k5_file, monkeypatch):
        # the field once echoed the host process's sys.argv instead
        monkeypatch.setattr(sys, "argv", ["host.py", "--workload", "congest"])
        code, payload = run_json(capsys, ["exact", "--in", k5_file])
        assert code == 0
        assert payload["command"] == f"exact --in {k5_file}"

    @pytest.mark.parametrize("n, edges, d", [
        # deep flow paths once overflowed a recursive max-flow search
        (3000, [(i, i + 1) for i in range(2999)] + [(i, i + 2) for i in range(2998)],
         "1999/1000"),
        # grid(3, 1500): long augmenting paths, like the path square's
        (4500, [(r * 1500 + c, r * 1500 + c + 1) for r in range(3) for c in range(1499)]
         + [(r * 1500 + c, (r + 1) * 1500 + c) for r in range(2) for c in range(1500)],
         "833/500"),
    ], ids=["path_square_3000", "grid_3x1500"])
    def test_exact_at_scale(self, capsys, tmp_path, n, edges, d):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(Graph(n, edges)), encoding="utf-8")
        code, payload = run_json(capsys, ["exact", "--in", str(p)])
        assert code == 0
        assert payload["result"]["D"] == d

    @pytest.mark.parametrize("graph", ["gnp_3000", "cycle_3000"])
    def test_detect_local_at_3000(self, capsys, graphs_3000, graph):
        code, payload = run_json(capsys, [
            "detect-local", "--in", graphs_3000[graph], "--dtilde", "1", "--eps", "1/2"
        ])
        assert code == 0
        assert payload["check"]["pass"] is True

    @pytest.mark.parametrize("graph", ["gnp_3000", "cycle_3000"])
    @pytest.mark.parametrize("argv", [
        "exact",
        "ldd --eps 1/4",
        "weak-orient",
        "split --eps 1/4",
        "detect-congest --dtilde 1 --eps 1/8",
        "primal --z 1 --eps 1/8 --T 64",
        "dual --z 4 --eps 1/8 --T 64",
    ], ids=lambda argv: argv.split()[0])
    def test_command_at_3000(self, capsys, graphs_3000, argv, graph):
        cmd, *rest = argv.split()
        code, payload = run_json(capsys, [cmd, "--in", graphs_3000[graph], *rest])
        assert code == 0
        assert payload["check"] is None or payload["check"]["pass"] is True

    def test_exact_brute(self, capsys, k5_file):
        code, payload = run_json(capsys, ["exact", "--in", k5_file, "--brute"])
        assert code == 0
        assert payload["result"]["D"] == "2/1"

    def test_out_writes_the_printed_report(self, capsys, tmp_path, k5_file):
        out = tmp_path / "report.json"
        argv = ["exact", "--in", k5_file, "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        written = json.loads(out.read_text(encoding="utf-8"))
        code, printed = run_json(capsys, ["exact", "--in", k5_file])
        assert code == 0
        assert written["command"] == " ".join(argv)
        for report in (written, printed):
            del report["wall_time_s"], report["command"]
        assert written == printed

    def test_gen_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "c6.el"
        code = main(
            ["gen", "--kind", "cycle", "--params", "n=6", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("6 6\n")

    def test_gen_lowerbound_pair(self, capsys, tmp_path):
        stem = tmp_path / "pair"
        code = main(
            [
                "gen",
                "--kind",
                "lowerbound_pair",
                "--params",
                "eps=1/10",
                "--out",
                str(stem),
            ]
        )
        assert code == 0
        assert (tmp_path / "pair.cycle").exists()
        assert (tmp_path / "pair.path").exists()

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--kind", "planted_dense", "--params", "n_outer=8,clique_size=4",
              "--seed", "2"], planted_dense(8, 4, 2)),
            (["--kind", "barbell", "--params", "clique_size=3,path_len=2"],
             barbell(3, 2)),
            (["--kind", "cycle", "--params", "n=4"], cycle(4)),
        ],
        ids=["planted_dense", "barbell", "cycle"],
    )
    def test_gen_without_out_prints_the_edge_list(self, capsys, argv, want):
        assert main(["gen"] + argv) == 0
        assert capsys.readouterr().out == write_edge_list(want)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "lowerbound_pair", "--params", "eps=1/10"],
             "--out is required for lowerbound_pair"),
            (["--kind", "cycle", "--params", "n"],
             "bad --params entry 'n'; want key=value"),
        ],
        ids=["lowerbound_pair-without-out", "params-without-value"],
    )
    def test_gen_usage_error(self, capsys, argv, message):
        code, payload = run_json(capsys, ["gen"] + argv)
        assert code == 2
        assert payload == {"error": "UsageError", "message": message}

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["--kind", "cycle"], "n"),
            (["--kind", "erdos_renyi", "--params", "n=5"], "p"),
            (["--kind", "barbell"], "clique_size, path_len"),
        ],
        ids=["cycle", "erdos_renyi", "barbell"],
    )
    def test_gen_missing_parameter_is_an_input_error(self, capsys, argv, missing):
        # these once escaped as a KeyError traceback with exit 1
        code, payload = run_json(capsys, ["gen"] + argv)
        assert code == 2
        assert payload["error"] == "ValueError"
        assert payload["message"].endswith(f"needs the parameter(s) {missing}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dual", "--z", "1/0", "--eps", "1/8"], "zero denominator in '1/0'"),
            (["gen", "--kind", "lowerbound_pair", "--params", "eps=1/0"],
             "zero denominator in '1/0'"),
            (["gen", "--kind", "lowerbound_pair", "--params", "eps=0"],
             "eps must be positive, got 0"),
        ],
        ids=["dual-z", "gen-eps-zero-denominator", "gen-eps-zero"],
    )
    def test_zero_denominator_is_an_input_error(self, capsys, k5_file, argv, message):
        # these once escaped as a ZeroDivisionError traceback with exit 1
        if argv[0] == "dual":
            argv = argv + ["--in", k5_file]
        code, payload = run_json(capsys, argv)
        assert code == 2
        assert payload == {"error": "ValueError", "message": message}

    def test_orient_non_power_of_two_T_is_an_input_error(self, capsys, k5_file):
        code, payload = run_json(
            capsys,
            ["orient", "--in", k5_file, "--dtilde", "128", "--eps", "1/4",
             "--T", "100"],
        )
        assert code == 2
        assert payload == {
            "error": "ValueError",
            "message": "bit-width accounting requires a power-of-two T, got 100",
        }

    def test_detect_local_c20(self, capsys, c20_file):
        code, payload = run_json(
            capsys,
            ["detect-local", "--in", c20_file, "--dtilde", "1/1", "--eps", "1/5"],
        )
        assert code == 0
        assert payload["result"]["density"] == "1/1"
        assert payload["result"]["marked"] == list(range(20))
        assert payload["check"]["pass"] is True

    @pytest.mark.parametrize(
        "cmd, eps", [("detect-local", "1/5"), ("detect-congest", "1/8")]
    )
    def test_detect_on_edgeless_graph_marks_nothing(self, capsys, tmp_path, cmd, eps):
        p = tmp_path / "e6.el"
        p.write_text("6 0\n", encoding="utf-8")
        code, payload = run_json(
            capsys, [cmd, "--in", str(p), "--dtilde", "1", "--eps", eps]
        )
        assert code == 0
        assert payload["result"]["marked"] == []
        assert payload["check"]["achieved"] == "0/1"
        assert payload["check"]["pass"] is True

    def test_detect_congest(self, capsys, k5_file):
        code, payload = run_json(
            capsys,
            [
                "detect-congest",
                "--in",
                k5_file,
                "--dtilde",
                "2/1",
                "--eps",
                "1/8",
                "--seed",
                "3",
            ],
        )
        assert code == 0
        assert payload["check"]["pass"] is True

    def test_dual_and_primal(self, capsys, k5_file):
        code, payload = run_json(
            capsys,
            ["dual", "--in", k5_file, "--z", "2/1", "--eps", "1/8", "--T", "64"],
        )
        assert code == 0
        assert payload["result"]["feasible"] is True
        code, payload = run_json(
            capsys,
            ["primal", "--in", k5_file, "--z", "1/1", "--eps", "1/8", "--T", "64"],
        )
        assert code == 0
        assert payload["result"]["found"] is True
        assert payload["check"]["pass"] is True

    def test_orient(self, capsys, tmp_path):
        p = tmp_path / "k129.el"
        p.write_text(write_edge_list(complete(129)), encoding="utf-8")
        ofile = tmp_path / "orientation.txt"
        code, payload = run_json(
            capsys,
            [
                "orient",
                "--in",
                str(p),
                "--dtilde",
                "128",
                "--eps",
                "1/4",
                "--T",
                "64",
                "--orient-out",
                str(ofile),
            ],
        )
        assert code == 0
        assert payload["result"]["max_outdeg"] <= 160
        assert payload["check"]["pass"] is True
        lines = ofile.read_text().strip().splitlines()
        assert len(lines) == complete(129).m

    def test_split_and_weak(self, capsys, k5_file):
        code, payload = run_json(
            capsys, ["split", "--in", k5_file, "--eps", "1/4"]
        )
        assert code == 0 and payload["check"]["pass"] is True
        code, payload = run_json(capsys, ["weak-orient", "--in", k5_file])
        assert code == 0 and payload["check"]["pass"] is True

    @pytest.mark.parametrize(
        "argv,orientation_of",
        [
            (["split", "--eps", "1/4"],
             lambda g: orient.directed_split(g, Fraction(1, 4))[0]),
            (["weak-orient"], lambda g: orient.weak_orientation(g).orientation),
        ],
        ids=["split", "weak-orient"],
    )
    def test_splitters_write_the_orientation(
        self, capsys, tmp_path, argv, orientation_of
    ):
        k6 = complete(6)
        p = tmp_path / "k6.el"
        p.write_text(write_edge_list(k6), encoding="utf-8")
        ofile = tmp_path / "orientation.txt"
        code, payload = run_json(
            capsys, argv + ["--in", str(p), "--orient-out", str(ofile)]
        )
        assert code == 0 and payload["check"]["pass"] is True
        text = ofile.read_text(encoding="utf-8")
        assert text == orientation_of(k6).to_text()
        assert len(text.splitlines()) == k6.m == 15

    @pytest.mark.parametrize(
        "argv,trace",
        [
            (["split", "--eps", "1/8"], [972, 9, 22_166]),
            (["weak-orient"], [58, 9, 4_511]),
        ],
        ids=["split", "weak-orient"],
    )
    def test_splitters_report_their_trace(self, capsys, tmp_path, argv, trace):
        # the pinned split_g40 and weak_g40 traces of test_charged_traces
        p = tmp_path / "g40.el"
        g40 = erdos_renyi(40, 0.3, seed=0)
        p.write_text(write_edge_list(g40), encoding="utf-8")
        code, payload = run_json(capsys, argv + ["--in", str(p)])
        assert code == 0 and payload["check"]["pass"] is True
        rounds, widest, total = trace
        assert payload["trace"] == {
            "rounds": rounds,
            "max_message_bits": widest,
            "total_bits": total,
            "violations": [],
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--z", "2/1", "--eps", "1/8", "--T", "0"],
            ["primal", "--z", "1/1", "--eps", "1/8", "--T", "-3"],
            ["detect-congest", "--dtilde", "2/1", "--eps", "1/8", "--trials", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_positive_count_is_an_input_error(self, capsys, k5_file, argv):
        code, payload = run_json(capsys, argv + ["--in", k5_file])
        assert code == 2
        assert payload["error"] == "UsageError"
        assert f"argument {argv[-2]}: must be positive" in payload["message"]

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["orient", "--dtilde", "4", "--eps", "1/4"], "required: --in"),
            (["dual", "--z", "2/1", "--eps", "1/8", "--T", "x"], "argument --T"),
            (["detect-congest", "--dtilde", "2", "--eps", "1/8",
              "--trials", "1.5"], "argument --trials"),
            (["no-such-command"], "invalid choice"),
        ],
    )
    def test_usage_error_is_json_on_stdout(
        self, capsys, k5_file, argv, expected
    ):
        if argv[0] in ("dual", "detect-congest"):
            argv = argv + ["--in", k5_file]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["error"] == "UsageError"
        assert expected in payload["message"]

    def test_ldd(self, capsys, tmp_path):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(erdos_renyi(32, 0.2, 5)), encoding="utf-8")
        code, payload = run_json(
            capsys, ["ldd", "--in", str(p), "--eps", "1/4", "--seed", "7"]
        )
        assert code == 0
        assert payload["check"]["pass"] is True

    def test_ldd_failing_its_check_exits_1(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "p4.el"
        p.write_text(write_edge_list(path(4)), encoding="utf-8")
        for clustering, want in [
            # cluster 0 = {0, 3} is not connected in path(4)
            (Clustering((0, 1, 1, 0), (0, 1), 2, 1), 1),
            # one connected cluster, but vertex 3 is 3 hops from center 0
            (Clustering((0, 0, 0, 0), (0,), 0, 2), 1),
            (Clustering((0, 0, 0, 0), (0,), 0, 3), 0),
        ]:
            monkeypatch.setattr(
                cli, "ldd_traced", lambda g, eps, seed: (clustering, RoundTrace())
            )
            code, payload = run_json(
                capsys, ["ldd", "--in", str(p), "--eps", "1/4"]
            )
            assert code == want
            assert payload["check"]["pass"] is (want == 0)

    def test_approx(self, capsys, k5_file):
        code, payload = run_json(
            capsys, ["approx", "--in", k5_file, "--eps", "1/8", "--seed", "1"]
        )
        assert code == 0
        assert payload["check"]["pass"] is True

    def test_error_is_structured(self, capsys, k5_file):
        code, payload = run_json(
            capsys,
            ["orient", "--in", k5_file, "--dtilde", "4", "--eps", "1/4"],
        )
        assert code == 2
        assert "error" in payload

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact"],
            ["exact", "--brute"],
            ["detect-local", "--dtilde", "1", "--eps", "1/2"],
            ["detect-congest", "--dtilde", "1", "--eps", "1/8"],
            ["approx", "--eps", "1/8"],
            ["dual", "--z", "1", "--eps", "1/8"],
            ["primal", "--z", "1", "--eps", "1/8"],
            ["orient", "--dtilde", "128", "--eps", "1/4"],
            ["split", "--eps", "1/2"],
            ["weak-orient"],
            ["ldd", "--eps", "1/4"],
        ],
        ids=lambda argv: argv[0] + ("-brute" if "--brute" in argv else ""),
    )
    def test_directed_input_is_an_input_error(self, capsys, tmp_path, argv):
        p = tmp_path / "d.el"
        p.write_text("4 3 directed\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, payload = run_json(capsys, argv + ["--in", str(p)])
        assert code == 2
        assert payload == {
            "error": "EdgeListError",
            "message": "header must be 'n m' at line 1",
        }

    def test_header_error_is_an_edge_list_error(self, capsys, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("three 2", encoding="utf-8")
        code, payload = run_json(capsys, ["exact", "--in", str(p)])
        assert code == 2
        assert payload == {
            "error": "EdgeListError",
            "message": "header must contain integers at line 1",
        }

    def test_parse_error_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("2 1\n0 0\n", encoding="utf-8")
        code, payload = run_json(capsys, ["exact", "--in", str(p)])
        assert code == 2
        assert "line 2" in payload["message"]


# SHA-256 of each report minus wall_time_s and command, with sorted keys:
# one case per command, exact --brute and both primal branches.
PINNED_REPORTS = [
    ("exact", "exact --in k5",
     "873a3784028ca1835f3b1e0a4d1326d475bd676bcdbe5825d4d9681dd5de01db"),
    ("exact-brute", "exact --in g16 --brute",
     "1199cac0ab08f698d6ece83d18c9ac7b8a5a282ac2a8c000017f49c6a882989a"),
    ("detect-local", "detect-local --in g16 --dtilde 3/2 --eps 1/5",
     "ddbdb84b4b58725ac24bb18d529afaab60cb927248e279cedab6d3b411c3a5e4"),
    ("detect-congest", "detect-congest --in g16 --dtilde 3/2 --eps 1/8 --seed 3",
     "8924949882bea2163f0ddb26604a38a96ca42e2b203eb72ceb230ab78e07222e"),
    ("approx", "approx --in g16 --eps 1/8 --seed 1",
     "6991ec05f5460c6ae0eedf085f2dfc3d759949a8f05551a89d8ce71c6b97460d"),
    ("dual", "dual --in g16 --z 2/1 --eps 1/8 --T 64",
     "62de2949b94193526a95ae647c117c24295329cda0185ff62b54f1cfd878b281"),
    ("primal-found", "primal --in k5 --z 1/1 --eps 1/8 --T 64",
     "2ddaad7809f4cdba8edadb7f3992b2f6ab9dcc5d86f2db814d014be0228292e9"),
    ("primal-not-found", "primal --in k5 --z 4/1 --eps 1/8 --T 64",
     "d6414efd7f1fb1b2eeea06f2157444f4d11ce4bd69ff0fcb08d696d784275b49"),
    ("orient", "orient --in g16 --dtilde 128 --eps 1/4 --T 16",
     "6ac65e0ac61efdf036776c8e53ceef7b04a0cef4e556a4a1d416ab4eef15aacc"),
    ("split", "split --in g16 --eps 1/8",
     "2e82396b888e8d1e89d5fd15486713c7c5de5ad989c25f53399ca6ae5dec7501"),
    ("weak-orient", "weak-orient --in g16",
     "786fb68ad764ae494c3d30e39deb54d33e75d0ba1759189b1b949ae4ab6470ed"),
    ("ldd", "ldd --in g16 --eps 1/4 --seed 7",
     "3288644fcf57e1194239ab112aa11b9d5746c4397eeacd0a77a48b333be3d7e0"),
]


@pytest.mark.parametrize("case, argv, digest", PINNED_REPORTS,
                         ids=[case for case, _, _ in PINNED_REPORTS])
def test_report_is_pinned(capsys, tmp_path, case, argv, digest):
    texts = {
        "k5": write_edge_list(complete(5)),
        "g16": write_edge_list(erdos_renyi(16, 0.3, seed=3)),
    }
    argv = argv.split()
    name = argv[argv.index("--in") + 1]
    path = tmp_path / f"{name}.el"
    path.write_text(texts[name], encoding="utf-8")
    argv = [str(path) if a == name else a for a in argv]
    code, payload = run_json(capsys, argv)
    assert code == 0
    del payload["wall_time_s"], payload["command"]
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_public_api_is_pinned():
    # a new export needs a caller outside tests/; growing this list is a
    # deliberate change, not a side effect
    assert sorted(densub.__all__) == [
        "Clustering", "DualSolution", "Graph",
        "OracleResult", "Orientation", "RoundTrace",
        "VertexProgram", "alpha_bit_width", "approx_densest", "brute_densest",
        "collect_ball", "component_aggregate",
        "congest_detect", "density", "directed_split", "exact_densest",
        "fractional_dual", "generate", "integral_primal", "ldd_traced",
        "local_detect", "lowerbound_pair", "msg_bits",
        "orient_low_outdegree_detailed", "read_edge_list", "run",
        "weak_orientation", "write_edge_list",
    ]


# defined in src/densub/ but reached from outside it on purpose
SRC_UNREFERENCED = {
    "knowledge_states",  # the LOCAL lower bound's acceptance test
    "min_max_outdegree",  # the exact orientation the acceptance tests compare with
    "path_decompose",  # the acceptance test of the path decomposition
    "Graph.distances_from",  # perfbench's graphs.bfs span wraps it
    "_Parser.error",  # argparse calls it
}


def test_every_src_definition_is_referenced_from_src():
    # a function, class or method that only tests reach is dead API
    root = pathlib.Path(densub.__file__).parent
    defined, used = {}, set()

    def collect(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{cls}.{child.name}" if cls else child.name] = child.name
                collect(child, child.name if isinstance(child, ast.ClassDef) else None)
            else:
                collect(child, cls)

    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        collect(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                used.add(node.args[1].value)
    unreferenced = {
        q for q, name in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreferenced == SRC_UNREFERENCED
