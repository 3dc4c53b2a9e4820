"""Spec files: schema validation, error naming, random generation."""

import json

import pytest

from icnsim.topospec import (Defaults, SpecError, TopoLink, TopoNode, TopologySpec,
                             generate_random, parse_spec)


def minimal_doc():
    return {
        "params": {"m": 256, "k": 5, "defaults": {}},
        "nodes": [{"name": "tm", "kind": "tm"}, {"name": "s1", "kind": "switch"}],
        "links": [{"a": "tm", "b": "s1", "delay_ms": 1.0}],
        "seed": 1,
    }


class TestParsing:
    def test_round_trip(self):
        doc = minimal_doc()
        spec = parse_spec(json.dumps(doc))
        assert spec.tm_name() == "tm"
        assert parse_spec(spec.to_json()).to_json() == spec.to_json()

    def test_not_json(self):
        with pytest.raises(SpecError, match="document"):
            parse_spec("{nope")

    def test_two_tm_nodes_rejected(self):
        doc = minimal_doc()
        doc["nodes"].append({"name": "tm2", "kind": "tm"})
        with pytest.raises(SpecError, match="exactly one 'tm'"):
            parse_spec(json.dumps(doc))

    def test_duplicate_names(self):
        doc = minimal_doc()
        doc["nodes"].append({"name": "s1", "kind": "switch"})
        with pytest.raises(SpecError, match="duplicate name 's1'"):
            parse_spec(json.dumps(doc))

    def test_unknown_link_endpoint_named(self):
        doc = minimal_doc()
        doc["links"].append({"a": "tm", "b": "ghost"})
        with pytest.raises(SpecError, match=r"links\[1\].b"):
            parse_spec(json.dumps(doc))

    def test_bad_kind_schema(self):
        doc = minimal_doc()
        doc["nodes"][1]["kind"] = "router"
        with pytest.raises(SpecError, match="kind"):
            parse_spec(json.dumps(doc))

    def test_self_loop(self):
        doc = minimal_doc()
        doc["links"].append({"a": "s1", "b": "s1"})
        with pytest.raises(SpecError, match="self-loop"):
            parse_spec(json.dumps(doc))

    def test_bad_m(self):
        doc = minimal_doc()
        doc["params"]["m"] = 100
        with pytest.raises(SpecError, match=r"params\.m"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("where", ["defaults", "link"])
    def test_capacity_rejected(self, where):
        # Link capacities are not part of the format.
        doc = minimal_doc()
        target = doc["params"]["defaults"] if where == "defaults" else doc["links"][0]
        target["capacity_mbps"] = 1000.0
        with pytest.raises(SpecError, match="capacity_mbps"):
            parse_spec(json.dumps(doc))

    def test_defaults_applied(self):
        spec = parse_spec(json.dumps(minimal_doc()))
        assert spec.defaults == Defaults()


class TestGeneration:
    def test_tree_topology(self):
        spec = generate_random(switches=5, links=4, hosts=0, seed=1)
        switch_links = [l for l in spec.links if l.a.startswith("s") and l.b.startswith("s")]
        assert len(switch_links) == 4

    def test_infeasible_high(self):
        with pytest.raises(SpecError, match="exceeds"):
            generate_random(switches=5, links=11, hosts=0, seed=1)

    def test_infeasible_low(self):
        with pytest.raises(SpecError, match="cannot connect"):
            generate_random(switches=5, links=3, hosts=0, seed=1)

    def test_deterministic(self):
        a = generate_random(6, 8, 3, seed=99).to_json()
        b = generate_random(6, 8, 3, seed=99).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_random(6, 8, 3, seed=1).to_json()
        b = generate_random(6, 8, 3, seed=2).to_json()
        assert a != b

    def test_generated_passes_validator(self):
        for seed in range(5):
            spec = generate_random(7, 10, 4, seed=seed)
            spec.validate()
            parse_spec(spec.to_json())

    def test_hosts_attach_to_switches(self):
        spec = generate_random(4, 5, 6, seed=2)
        kinds = spec.node_kinds()
        for link in spec.links:
            ka, kb = kinds[link.a], kinds[link.b]
            if "host" in (ka, kb):
                assert {ka, kb} == {"host", "switch"}

    def test_exactly_one_tm_link(self):
        spec = generate_random(5, 7, 2, seed=3)
        tm_links = [l for l in spec.links if "tm" in (l.a, l.b)]
        assert len(tm_links) == 1


def test_validate_reports_missing_field_via_schema():
    with pytest.raises(SpecError, match="nodes"):
        parse_spec(json.dumps({"params": {}, "links": [], "seed": 0}))
