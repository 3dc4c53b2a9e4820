"""Topology specification files: parsing, validation, random generation.

A spec is a JSON document with ``params`` (identifier widths plus protocol
defaults), ``nodes``, ``links`` and a ``seed``.  The formal JSON schema
ships with the package (``topology_spec.schema.json``); semantic rules on
top of it are enforced here and always name the offending field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources
from random import Random
from typing import Dict, List

import jsonschema

from . import wire

VALID_KINDS = ("tm", "switch", "host")


class SpecError(Exception):
    """Invalid topology spec; the message names the offending field."""


def check_params(m: int, k: int, prefix: str = "params.") -> None:
    """SpecError unless FIDs of width ``m`` with ``k`` bits per LID fit every frame.

    The message names the field at fault, after ``prefix``.
    """
    if m % 8 != 0 or m <= 0:
        raise SpecError(f"{prefix}m: must be a positive multiple of 8")
    if not 0 < k < m:
        raise SpecError(f"{prefix}k: must satisfy 0 < k < m")
    if (payload := wire.largest_payload(m)) > wire.MAX_PAYLOAD:
        raise SpecError(f"{prefix}m: {m} makes a {payload}-byte frame payload, "
                        f"over the u16 length limit {wire.MAX_PAYLOAD}")


@dataclass(frozen=True)
class Defaults:
    discovery_wait_ms: float = 100.0
    request_timeout_ms: float = 2000.0
    max_retries: int = 3
    tm_service_ms: float = 1.0
    tm_alloc_per_lid_ms: float = 0.1
    control_delay_ms: float = 0.0
    hop_limit: int = 64


@dataclass(frozen=True)
class TopoNode:
    name: str
    kind: str


@dataclass(frozen=True)
class TopoLink:
    a: str
    b: str
    delay_ms: float = 1.0


@dataclass
class TopologySpec:
    m: int = 256
    k: int = 5
    defaults: Defaults = field(default_factory=Defaults)
    nodes: List[TopoNode] = field(default_factory=list)
    links: List[TopoLink] = field(default_factory=list)
    seed: int = 0

    def node_kinds(self) -> Dict[str, str]:
        return {n.name: n.kind for n in self.nodes}

    def tm_name(self) -> str:
        return next(n.name for n in self.nodes if n.kind == "tm")

    def validate(self) -> None:
        tms = [n.name for n in self.nodes if n.kind == "tm"]
        if len(tms) != 1:
            raise SpecError(f"nodes: exactly one 'tm' node required, found {len(tms)}")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})[0]
            raise SpecError(f"nodes[].name: duplicate name {dup!r}")
        for node in self.nodes:
            if node.kind not in VALID_KINDS:
                raise SpecError(f"nodes[].kind: {node.kind!r} not one of {VALID_KINDS}")
        known = set(names)
        seen_pairs = set()
        for i, link in enumerate(self.links):
            for end, value in (("a", link.a), ("b", link.b)):
                if value not in known:
                    raise SpecError(f"links[{i}].{end}: unknown node {value!r}")
            if link.a == link.b:
                raise SpecError(f"links[{i}]: self-loop on {link.a!r}")
            pair = frozenset((link.a, link.b))
            if pair in seen_pairs:
                raise SpecError(f"links[{i}]: duplicate connection {link.a!r}<->{link.b!r}")
            seen_pairs.add(pair)
            if not 0 <= link.delay_ms <= wire.MAX_DELAY_MS:
                raise SpecError(f"links[{i}].delay_ms: must be >= 0 and <= {wire.MAX_DELAY_MS}, "
                                "a u32 count of microseconds in a LinkEvent")
        check_params(self.m, self.k)

    def to_json(self) -> str:
        doc = {
            "params": {"m": self.m, "k": self.k, "defaults": asdict(self.defaults)},
            "nodes": [{"name": n.name, "kind": n.kind} for n in self.nodes],
            "links": [{"a": l.a, "b": l.b, "delay_ms": l.delay_ms} for l in self.links],
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _schema() -> dict:
    text = resources.files("icnsim").joinpath("topology_spec.schema.json").read_text()
    return json.loads(text)


def parse_spec(text: str) -> TopologySpec:
    """Parse and fully validate a topology spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"document: not valid JSON ({exc})") from None
    try:
        jsonschema.validate(doc, _schema())
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "document"
        raise SpecError(f"{path}: {exc.message}") from None
    params = doc["params"]
    defaults = Defaults(**params.get("defaults", {}))
    spec = TopologySpec(
        m=params.get("m", 256),
        k=params.get("k", 5),
        defaults=defaults,
        nodes=[TopoNode(n["name"], n["kind"]) for n in doc["nodes"]],
        links=[TopoLink(l["a"], l["b"], l.get("delay_ms", 1.0)) for l in doc["links"]],
        seed=doc.get("seed", 0),
    )
    spec.validate()
    return spec


def load_spec(path: str) -> TopologySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def generate_random(switches: int, links: int, hosts: int, seed: int,
                    delay_ms: float = 1.0) -> TopologySpec:
    """Connected random topology: spanning tree plus uniform extra edges.

    ``links`` counts switch-to-switch connections only; the TM attachment
    and one access link per host come on top.  Hosts attach uniformly at
    random to switches.  Deterministic for a given seed.
    """
    if switches < 1:
        raise SpecError("switches: must be >= 1")
    if hosts < 0:
        raise SpecError("hosts: must be >= 0")
    if links < switches - 1:
        raise SpecError(f"links: {links} cannot connect {switches} switches "
                        f"(need at least {switches - 1})")
    if links > switches * (switches - 1) // 2:
        raise SpecError(f"links: {links} exceeds the maximum "
                        f"{switches * (switches - 1) // 2} for {switches} switches")
    rng = Random(f"{seed}:topology")
    nodes = [TopoNode("tm", "tm")]
    nodes += [TopoNode(f"s{i}", "switch") for i in range(1, switches + 1)]
    nodes += [TopoNode(f"h{i}", "host") for i in range(1, hosts + 1)]
    topo_links = [TopoLink("tm", "s1", delay_ms)]
    edges = set()
    for i in range(2, switches + 1):  # parents precede children in spec order
        parent = rng.randrange(1, i)
        edges.add((parent, i))
        topo_links.append(TopoLink(f"s{parent}", f"s{i}", delay_ms))
    extra_pool = sorted(
        (a, b) for a in range(1, switches + 1) for b in range(a + 1, switches + 1)
        if (a, b) not in edges
    )
    for (a, b) in rng.sample(extra_pool, links - (switches - 1)):
        topo_links.append(TopoLink(f"s{a}", f"s{b}", delay_ms))
    for i in range(1, hosts + 1):
        topo_links.append(TopoLink(f"h{i}", f"s{rng.randrange(1, switches + 1)}", delay_ms))
    spec = TopologySpec(nodes=nodes, links=topo_links,
                        seed=rng.getrandbits(63))
    spec.validate()
    return spec
