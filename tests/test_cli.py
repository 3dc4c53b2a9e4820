"""CLI verbs: exit codes, output stability, spec round trips."""

import json
import os
import subprocess
import sys

import pytest

import icnsim
from icnsim import cli
from icnsim.bench import run_sweep
from icnsim.cli import main
from icnsim.topospec import generate_random


def write_spec(tmp_path, name="topo.json", **kwargs):
    spec = generate_random(**kwargs)
    path = tmp_path / name
    path.write_text(spec.to_json())
    return path


class TestRun:
    def test_minimal_chain_exit_zero_two_spans(self, tmp_path, capsys):
        doc = {
            "params": {"m": 256, "k": 5, "defaults": {}},
            "nodes": [{"name": "tm", "kind": "tm"},
                      {"name": "s1", "kind": "switch"},
                      {"name": "h1", "kind": "host"}],
            "links": [{"a": "tm", "b": "s1", "delay_ms": 1.0},
                      {"a": "s1", "b": "h1", "delay_ms": 1.0}],
            "seed": 5,
        }
        topo = tmp_path / "chain.json"
        topo.write_text(json.dumps(doc))
        out = tmp_path / "spans.csv"
        assert main(["run", "--topology", str(topo), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "label,start_us,end_us,duration_us"
        assert len(rows) == 3  # one bootstrap span per non-TM node
        assert {r.split(",")[0] for r in rows[1:]} == {"bootstrap:s1", "bootstrap:h1"}

    def test_two_tm_spec_exit_one(self, tmp_path, capsys):
        doc = {
            "params": {"m": 256, "k": 5, "defaults": {}},
            "nodes": [{"name": "tm", "kind": "tm"}, {"name": "tm2", "kind": "tm"}],
            "links": [], "seed": 1,
        }
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps(doc))
        assert main(["run", "--topology", str(topo)]) == 1
        assert "exactly one 'tm'" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", "--topology", str(tmp_path / "nope.json")]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        topo = write_spec(tmp_path, switches=5, links=7, hosts=3, seed=9)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--topology", str(topo), "--out", str(out1)]) == 0
        assert main(["run", "--topology", str(topo), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        topo = write_spec(tmp_path, switches=4, links=5, hosts=2, seed=9)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--topology", str(topo), "--out", str(out1)]) == 0
        assert main(["run", "--topology", str(topo), "--seed", "123",
                     "--out", str(out2)]) == 0
        assert out1.read_text().splitlines()[0] == out2.read_text().splitlines()[0]

    def test_dump_topology_flag(self, tmp_path, capsys):
        topo = write_spec(tmp_path, switches=2, links=1, hosts=1, seed=4)
        assert main(["run", "--topology", str(topo), "--out",
                     str(tmp_path / "o.csv"), "--dump-topology"]) == 0
        printed = capsys.readouterr().out
        assert "# nodes" in printed and "# links" in printed


class TestGen:
    def test_tree(self, tmp_path):
        out = tmp_path / "tree.json"
        assert main(["gen", "--switches", "5", "--links", "4", "--hosts", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len([l for l in doc["links"]
                    if l["a"].startswith("s") and l["b"].startswith("s")]) == 4

    def test_infeasible_links_exit_one(self, tmp_path, capsys):
        assert main(["gen", "--switches", "5", "--links", "11", "--hosts", "0",
                     "--seed", "1"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["gen", "--switches", "6", "--links", "9", "--hosts", "2",
                         "--seed", "77", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_output_runs(self, tmp_path):
        topo = tmp_path / "g.json"
        assert main(["gen", "--switches", "4", "--links", "5", "--hosts", "2",
                     "--seed", "3", "--out", str(topo)]) == 0
        assert main(["run", "--topology", str(topo), "--out",
                     str(tmp_path / "r.csv")]) == 0


class TestBench:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--links", "4..8", "--step", "2", "--repeats", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("links,repeats,sim_mean_ms")
        assert len([l for l in lines if not l.startswith("#")]) == 4  # header + 3 rows
        assert lines[-1].startswith("# fit:")

    def test_single_repeat_zero_stddev(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--links", "4..4", "--step", "1", "--repeats", "1",
                     "--seed", "5", "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[3] == "0.000" and row[4] == "0.000"

    def test_bad_range_exit_one(self, capsys):
        assert main(["bench", "--links", "10", "--seed", "1"]) == 1

    def test_stdout_is_the_csv_alone(self, capsys, monkeypatch):
        # Wall-clock columns differ run to run, so the CLI prints a result made once.
        result = run_sweep(4, 8, 2, 2, 5)
        monkeypatch.setattr(cli, "run_sweep", lambda *args: result)
        assert main(["bench", "--links", "4..8", "--step", "2", "--repeats", "2",
                     "--seed", "5"]) == 0
        assert capsys.readouterr().out == result.to_csv()

    def test_bad_step_exit_one(self):
        assert main(["bench", "--links", "4..8", "--step", "0", "--seed", "1"]) == 1


class TestUsageErrors:
    """A usage error exits 1, like any invalid argument; 2 is kept for a failed simulation."""

    @pytest.mark.parametrize("argv, code", [(["run"], 1), (["bogus"], 1), (["run", "--help"], 0)])
    def test_exit_code(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code


class TestMalformedOptions:
    @pytest.mark.parametrize("argv, named", [
        (["dump-protocol", "--m", "12"], "--m:"),
        (["dump-protocol", "--m", "8", "--k", "8"], "--k:"),
        (["dump-protocol", "--m", "262144"], "--m:"),
        (["bench", "--links", "5..4"], "--links:"),
    ])
    def test_rejected_with_the_option_named(self, argv, named, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}")


class TestDumpProtocol:
    def test_prints_all_vectors(self, capsys):
        assert main(["dump-protocol"]) == 0
        out = capsys.readouterr().out
        for name in ("DiscoveryRequest", "DiscoveryOffer", "ResourceRequest",
                     "ResourceOffer", "OfferAccepted", "ResourceAccepted", "Update",
                     "LinkEvent", "LinkStatsReport", "RuleInstall"):
            assert name + ":" in out
        assert "010100080000000000000001" in out

    def test_deterministic_output(self, capsys):
        main(["dump-protocol"])
        first = capsys.readouterr().out
        main(["dump-protocol"])
        assert capsys.readouterr().out == first


class TestStandardLibraryOnly:
    """Every verb runs with numpy and scipy unimportable: jsonschema is the only dependency."""

    def python(self, code, cwd):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(icnsim.__file__)))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_loads_neither_numpy_nor_scipy(self, tmp_path):
        done = self.python("import sys, icnsim.cli; "
                           "print(sorted({'numpy', 'scipy'} & set(sys.modules)))", tmp_path)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    @pytest.mark.parametrize("argv", [
        ["dump-protocol"],
        ["gen", "--switches", "4", "--links", "4", "--hosts", "2", "--seed", "1",
         "--out", "g.json"],
        ["run", "--topology", "g.json"],
        ["bench", "--links", "4..8", "--step", "2", "--repeats", "2"],
    ])
    def test_verb_runs_with_numpy_and_scipy_unimportable(self, tmp_path, argv):
        if argv[0] == "run":
            write_spec(tmp_path, "g.json", switches=4, links=4, hosts=2, seed=1)
        done = self.python("import sys; sys.modules['numpy'] = sys.modules['scipy'] = None; "
                           f"from icnsim.cli import main; sys.exit(main({argv!r}))", tmp_path)
        assert done.returncode == 0, done.stderr
