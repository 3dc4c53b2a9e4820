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

    @pytest.mark.parametrize("field, value", [("m", 256.0), ("k", 5.0), ("k", 160)])
    def test_bad_width_or_bit_count_exit_one_named(self, tmp_path, capsys, field, value):
        # A float once crashed the run with a traceback, and k = 160 flooded without end.
        doc = json.loads(generate_random(6, 8, 4, 1).to_json())
        doc["params"][field] = value
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps(doc))
        assert main(["run", "--topology", str(topo)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid spec: params.{field}: ")

    @pytest.mark.parametrize("m, k", [(8, 4), (16, 8), (32, 16), (64, 32)])
    def test_copy_storm_exit_two_did_not_converge(self, tmp_path, capsys, m, k):
        # LIDs within the density bound, yet so dense at so small a width
        # that copies flood this fabric: its bootstrap once ran until memory
        # ran out, and now ends at its event budget.
        doc = json.loads(generate_random(10, 14, 8, 1).to_json())
        doc["params"].update(m=m, k=k)
        topo = tmp_path / "storm.json"
        topo.write_text(json.dumps(doc))
        assert main(["run", "--topology", str(topo)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: simulation did not converge: more than 172032 events")

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


class TestTrace:
    """``run --trace PATH``: each packet's hops as JSONL, then the count of hops past the cap."""

    def test_jsonl_in_trace_order_ending_with_dropped(self, tmp_path):
        topo = write_spec(tmp_path, switches=4, links=5, hosts=2, seed=3)
        path = tmp_path / "t.jsonl"
        assert main(["run", "--topology", str(topo), "--out", str(tmp_path / "r.csv"),
                     "--trace", str(path)]) == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[-1] == {"dropped": 0}
        ids = [line["trace"] for line in lines[:-1]]
        assert ids == sorted(ids) and len(ids) > 1
        assert all(set(line) == {"trace", "hops"} and line["hops"] for line in lines[:-1])
        assert all(len(hop) == 2 for line in lines[:-1] for hop in line["hops"])

    def test_byte_identical_reruns(self, tmp_path):
        topo = write_spec(tmp_path, switches=5, links=7, hosts=3, seed=9)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (first, second):
            assert main(["run", "--topology", str(topo), "--out", str(tmp_path / "r.csv"),
                         "--trace", str(path)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_cap_counts_the_hops_past_it(self, tmp_path, monkeypatch):
        topo = write_spec(tmp_path, switches=4, links=5, hosts=2, seed=3)
        path = tmp_path / "t.jsonl"
        monkeypatch.setattr(cli, "TRACE_HOPS", 10)
        assert main(["run", "--topology", str(topo), "--out", str(tmp_path / "r.csv"),
                     "--trace", str(path)]) == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(len(line["hops"]) for line in lines[:-1]) == 10
        assert lines[-1]["dropped"] > 0

    def test_unwritable_trace_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        topo = write_spec(tmp_path, switches=4, links=4, hosts=2, seed=1)
        monkeypatch.setattr(cli, "Deployment", lambda *args, **kwargs: pytest.fail("ran"))
        path = str(tmp_path / "missing" / "t.jsonl")
        assert main(["run", "--topology", str(topo), "--trace", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: --trace {path!r}:")


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


class TestPathErrors:
    """A path that cannot be read or written exits 1 with the option and path named."""

    def test_run_topology_is_a_directory(self, tmp_path, capsys):
        assert main(["run", "--topology", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --topology {str(tmp_path)!r}:")

    @pytest.mark.parametrize("argv, work", [
        (["run", "--topology", "g.json"], "Deployment"),
        (["gen", "--switches", "4", "--links", "4", "--seed", "1"], "generate_random"),
        (["bench", "--links", "4..8", "--step", "2", "--repeats", "2"], "run_sweep"),
    ])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv,
                                                  work):
        write_spec(tmp_path, "g.json", switches=4, links=4, hosts=2, seed=1)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, work, lambda *args, **kwargs: pytest.fail(f"{work} ran"))
        out = str(tmp_path / "missing" / "out")
        assert main(argv + ["--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: --out {out!r}:")


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
        (["dump-protocol", "--m", "256", "--k", "129"], "--k:"),
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

    def test_import_leaves_jsonschema_unloaded(self, tmp_path):
        # Only parse_spec validates against the schema, so only it loads jsonschema.
        done = self.python("import sys, icnsim, icnsim.cli; print('jsonschema' in sys.modules)",
                           tmp_path)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_run_still_names_a_schema_violation(self, tmp_path):
        spec = generate_random(3, 3, 1, 1)
        doc = json.loads(spec.to_json())
        doc["params"]["m"] = "wide"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        done = self.python("import sys; from icnsim.cli import main; "
                           "sys.exit(main(['run', '--topology', 'bad.json']))", tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error: invalid spec: params.m: 'wide' is not of type")

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
