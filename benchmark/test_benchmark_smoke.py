"""Smoke test of the benchmark at tiny sizes: output format and failure counting."""

import json
import os

import pytest

import harness
import run
from icnsim.deploy import Deployment
from icnsim.simnet import LimitExceeded
from icnsim.topospec import generate_random

TINY = harness.Shape(6, 8, 4, packets=20, probe_each_transition=True, passes=2, fabrics=2)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, workload, TINY)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_dropped_probe_counts_as_failed_operation():
    net = Deployment(generate_random(4, 4, 3, seed=9, delay_ms=0.1))
    net.run_bootstrap()
    dropped = []

    def drop_first_probe(src, dst, packet):
        if packet.payload == b"PROBE" and not dropped:
            dropped.append(packet.trace_id)
        return packet.trace_id in dropped

    net.drop_filter = drop_first_probe
    rnd = harness.Round()
    harness.send_probes(net, rnd)
    assert dropped
    assert (rnd.tally.attempted, rnd.tally.failed) == (3, 1)
    assert (rnd.probes_sent, rnd.probes_delivered) == (3, 2)


@pytest.mark.parametrize("phase", ["run_bootstrap", "restore_link"])
def test_limit_exceeded_fails_every_unchecked_operation(phase, monkeypatch):

    def livelock(*args):
        raise LimitExceeded("forced")

    monkeypatch.setattr(Deployment, phase, livelock)
    rnd = harness.run_round("tiny", TINY, 5, 0)
    flaps, odd = divmod(rnd.probes_sent, 2 * TINY.hosts)
    assert rnd.limited and not odd and flaps >= 1
    assert rnd.nodes == TINY.switches + TINY.hosts
    assert rnd.data_sent == TINY.packets * TINY.passes
    # every node, the uniqueness check, each packet, each LID check and each probe
    assert (rnd.tally.attempted
            == rnd.nodes + 1 + (TINY.packets + flaps) * TINY.passes + rnd.probes_sent)
    if phase == "run_bootstrap":
        assert rnd.tally.failed == rnd.tally.attempted
        assert rnd.nodes_ok == rnd.data_delivered == rnd.probes_delivered == 0
    else:  # the first link went down and was probed; its restore hit the limit
        assert rnd.probes_delivered <= TINY.hosts
        assert rnd.tally.failed >= flaps + rnd.probes_sent - TINY.hosts
    metrics = harness.end_to_end([rnd])
    assert metrics["probe_delivered_ratio"] < 1
    assert metrics["setup_s"] == metrics["link_up_p90_ms"] == 0.0


def test_operations_count_once_per_fabric():
    """A repeat of a fabric's round adds no operations, so the count depends on the seed alone."""
    measured = harness.measure("tiny", TINY, 5, 0)
    assert measured.samples["rounds"] > TINY.fabrics
    tally = harness.Tally()
    for fabric in range(TINY.fabrics):
        tally.add(harness.run_round("tiny", TINY, 5, fabric).tally)
    assert (measured.tally.attempted, measured.tally.failed) == (tally.attempted, tally.failed)
