"""Spec files: schema validation, error naming, random generation."""

import copy
import hashlib
import json
from functools import reduce
from operator import getitem
from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from icnsim.deploy import Deployment
from icnsim.simnet import LimitExceeded
from icnsim.topospec import (Defaults, ExtraPairs, SpecError, TopoLink, TopoNode,
                             TopologySpec, generate_random, parse_spec)


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

    @pytest.mark.parametrize("field, value", [("m", 256.0), ("m", 1e9), ("k", 5.0)])
    def test_float_width_or_bit_count_named(self, field, value):
        # JSON Schema's integer admits a number with a zero fraction.
        doc = minimal_doc()
        doc["params"][field] = value
        with pytest.raises(SpecError, match=rf"params\.{field}: must be of type integer"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("field", ["m", "k"])
    def test_bool_width_or_bit_count_named(self, field):
        spec = parse_spec(json.dumps(minimal_doc()))
        setattr(spec, field, True)
        with pytest.raises(SpecError, match=rf"params\.{field}: must be of type integer"):
            spec.validate()

    @pytest.mark.parametrize("m, k, ok", [(256, 128, True), (256, 129, False), (256, 160, False),
                                          (256, 255, False), (8, 4, True), (8, 5, False)])
    def test_lid_may_set_at_most_half_the_bits(self, m, k, ok):
        # Denser LIDs flood: at m = 256, k = 160 a small fabric never settles.
        doc = minimal_doc()
        doc["params"].update(m=m, k=k)
        if ok:
            assert parse_spec(json.dumps(doc)).k == k
        else:
            with pytest.raises(SpecError, match=rf"params\.k: must satisfy 0 < k <= m/2, "
                                                 rf"got {k} for m = {m}"):
                parse_spec(json.dumps(doc))

    def test_m_bounded_by_the_frame_length_field(self):
        # The longest frame, a RuleInstall, has a 29 + m/4 byte payload and a u16 length.
        doc = minimal_doc()
        doc["params"]["m"] = 262024
        assert parse_spec(json.dumps(doc)).m == 262024
        doc["params"]["m"] = 262144
        with pytest.raises(SpecError, match=r"params\.m: 262144 makes a 65565-byte"):
            parse_spec(json.dumps(doc))
        doc["params"]["m"] = 2 ** 70  # wider than any struct: named before a codec is built
        with pytest.raises(SpecError, match=rf"params\.m: {2 ** 70} bits overflow"):
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


class TestExtraPairs:
    """The lazy pool of non-tree switch pairs equals the sorted list it replaces."""

    @staticmethod
    def random_tree(switches, seed):
        rng = Random(seed)
        children = {}
        for i in range(2, switches + 1):
            children.setdefault(rng.randrange(1, i), []).append(i)
        return children

    @pytest.mark.parametrize("switches", [1, 2, 3, 5, 8, 13, 30, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_sorted_pair_list(self, switches, seed):
        children = self.random_tree(switches, seed)
        tree = {(a, b) for a, kids in children.items() for b in kids}
        listed = sorted((a, b) for a in range(1, switches + 1)
                        for b in range(a + 1, switches + 1) if (a, b) not in tree)
        pool = ExtraPairs(switches, children)
        assert len(pool) == len(listed)
        assert list(pool) == listed  # iteration stops at the IndexError past the end
        assert [pool[i] for i in range(-len(listed), 0)] == listed
        for index in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                pool[index]

    def test_star_and_chain_trees(self):
        # Every child under switch 1, and each switch the parent of the next.
        star = {1: list(range(2, 7))}
        chain = {a: [a + 1] for a in range(1, 6)}
        assert list(ExtraPairs(6, star)) == [(a, b) for a in range(2, 7) for b in range(a + 1, 7)]
        assert list(ExtraPairs(6, chain)) == [(a, b) for a in range(1, 7)
                                              for b in range(a + 2, 7)]

    @pytest.mark.parametrize("shape, digest", [
        ((80, 160, 32, 1), "e05253cde791e48c857968ae2462443d62ad3288ae407bc2f6de6df6dc5b1229"),
        ((1281, 1920, 640, 1),
         "d8e371276f743ea0bfe410a0f7c89426be5feb5038a01dbe7031b4d97093ed23"),
    ])
    def test_generated_spec_unchanged(self, shape, digest):
        # Digests of the specs that the sorted pair list gave.
        assert hashlib.sha256(generate_random(*shape).to_json().encode()).hexdigest() == digest


def test_validate_reports_missing_field_via_schema():
    with pytest.raises(SpecError, match="nodes"):
        parse_spec(json.dumps({"params": {}, "links": [], "seed": 0}))


MUTANT_BASE = json.loads(generate_random(3, 3, 2, 1, delay_ms=0.5).to_json())
MUTANT_NAMES = ["tm", "s1", "s2", "s3", "h1", "h2", "switch", "host", "", "zz"]
MUTANT_ODD = [None, True, 0, -1, 2.5, 1e308, float("inf"), float("nan"), 2 ** 70, "", "s1", [], {}]


def positions(doc, path=()):
    """The path of every value in a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from positions(value, path + (key,))


def like(value):
    """Another value of ``value``'s JSON type; any float, infinities and NaN included."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-3, 300) | st.integers()
    if isinstance(value, float):
        return st.floats(0, 10) | st.floats()
    if isinstance(value, str):
        return st.sampled_from(MUTANT_NAMES)
    return st.sampled_from(MUTANT_ODD)


@st.composite
def spec_mutants(draw):
    """``MUTANT_BASE`` with one to three values changed, types changed, keys
    or list entries dropped, or list entries duplicated."""
    doc = copy.deepcopy(MUTANT_BASE)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["value", "type", "drop", "dup"]))
        paths = [p for p in positions(doc)
                 if op != "dup" or isinstance(reduce(getitem, p[:-1], doc), list)]
        if not paths:
            continue
        *up, key = draw(st.sampled_from(paths))
        parent = reduce(getitem, up, doc)
        if op == "value":
            parent[key] = draw(like(parent[key]))
        elif op == "type":
            parent[key] = draw(st.sampled_from(MUTANT_ODD))
        elif op == "drop":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@seed(15)
@settings(max_examples=600, deadline=None, database=None)
@given(spec_mutants())
def test_every_valid_mutant_reaches_a_verdict(doc):
    # A mutant raises SpecError, or bootstraps within the event budget of
    # run_bootstrap to all DONE, to LimitExceeded, or to every unfinished
    # node named in Deployment.failures: a valid mutant can cut a host off,
    # list a switch before its only attach point, or make a link slower
    # than the request timeout.
    try:
        spec = parse_spec(json.dumps(doc))
    except SpecError:
        return
    net = Deployment(spec)
    try:
        net.run_bootstrap()
    except LimitExceeded:
        return
    unfinished = {name for name, state in net.report().final_states.items()
                  if state not in ("TM", "ENABLED", "DONE")}
    assert set(net.failures) == unfinished
    assert net.all_done() == (not net.failures)
