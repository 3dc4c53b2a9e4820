"""Topology specification files: parsing, validation, random generation.

A spec is a JSON document with ``params`` (identifier widths plus protocol
defaults), ``nodes``, ``links`` and a ``seed``.  The formal JSON schema
ships with the package (``topology_spec.schema.json``); semantic rules on
top of it are enforced here and always name the offending field.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from importlib import resources
from random import Random
from typing import Dict, List, Tuple

from . import wire
from .simnet import US_PER_MS, ms

VALID_KINDS = ("tm", "switch", "host")
_TYPES = {"integer": int, "number": (int, float)}  # the schema's types of the defaults


class SpecError(Exception):
    """Invalid topology spec; the message names the offending field."""


def check_params(m: int, k: int, prefix: str = "params.") -> None:
    """SpecError unless FIDs of width ``m`` with ``k`` bits per LID are sparse and fit every frame.

    The message names the field at fault, after ``prefix``.
    """
    for name, value in (("m", m), ("k", k)):
        if type(value) is not int:  # the schema's integer admits 256.0; bool is an int
            raise SpecError(f"{prefix}{name}: must be of type integer, got {value!r}")
    if m % 8 != 0 or m <= 0:
        raise SpecError(f"{prefix}m: must be a positive multiple of 8")
    if not 0 < k <= m // 2:  # a denser LID matches nearly every rule: copies flood
        raise SpecError(f"{prefix}k: must satisfy 0 < k <= m/2, got {k} for m = {m}")
    if m // 8 > wire.MAX_PAYLOAD:  # one identifier overflows a frame: build no codec for it
        raise SpecError(f"{prefix}m: {m} bits overflow the u16 length limit {wire.MAX_PAYLOAD}")
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
        bounds = _schema()["properties"]["params"]["properties"]["defaults"]["properties"]
        for name, bound in bounds.items():
            value = getattr(self.defaults, name)
            # JSON's 2.0 passes the schema as an integer; the simulator needs an int.
            if isinstance(value, bool) or not isinstance(value, _TYPES[bound["type"]]):
                raise SpecError(f"params.defaults.{name}: must be of type {bound['type']}, "
                                f"got {value!r}")
            if "minimum" in bound and not value >= bound["minimum"]:
                raise SpecError(f"params.defaults.{name}: must be >= {bound['minimum']}")
            if "exclusiveMinimum" in bound and not value > bound["exclusiveMinimum"]:
                raise SpecError(f"params.defaults.{name}: must be > {bound['exclusiveMinimum']}")
            if name.endswith("_ms") and value * US_PER_MS == math.inf:  # a float past its range
                raise SpecError(f"params.defaults.{name}: {value} ms overflows a count of us")
            if name in ("discovery_wait_ms", "request_timeout_ms") and ms(value) == 0:
                raise SpecError(f"params.defaults.{name}: {value} ms rounds to 0 us; "
                                "a timer counts whole microseconds and needs at least 1")
            if "maximum" in bound and not value <= bound["maximum"]:
                raise SpecError(f"params.defaults.{name}: must be <= {bound['maximum']}")

    def to_json(self) -> str:
        doc = {
            "params": {"m": self.m, "k": self.k, "defaults": asdict(self.defaults)},
            "nodes": [{"name": n.name, "kind": n.kind} for n in self.nodes],
            "links": [{"a": l.a, "b": l.b, "delay_ms": l.delay_ms} for l in self.links],
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _schema() -> dict:
    text = resources.files(__package__).joinpath("topology_spec.schema.json").read_text()
    return json.loads(text)


def parse_spec(text: str) -> TopologySpec:
    """Parse and fully validate a topology spec document."""
    import jsonschema  # here alone: a run that parses no JSON spec never loads it

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
    spec = TopologySpec(defaults=Defaults(**params.pop("defaults", {})),
                        nodes=[TopoNode(**n) for n in doc["nodes"]],
                        links=[TopoLink(**l) for l in doc["links"]],
                        seed=doc["seed"], **params)
    spec.validate()
    return spec


def load_spec(path: str) -> TopologySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


class ExtraPairs(Sequence):
    """The switch pairs ``(a, b)``, ``a < b``, that no tree edge joins, in sorted order.

    ``children[a]`` lists ascending the switches whose tree parent is ``a``
    (every parent is below its child).  A pair is computed from its index
    on demand, so the pool takes memory linear in the switch count, not
    quadratic: row ``a`` is found by bisecting the row starts, and within
    it the ``r``-th free ``b`` skips, by bisection, the children at or
    below it.
    """

    def __init__(self, switches: int, children: Dict[int, List[int]]):
        self._starts: List[int] = []  # index of each row's first pair, rows a = 1..switches
        self._skips: List[List[int]] = []  # per row, c_j - j for its j-th child c_j
        size = 0
        for a in range(1, switches + 1):
            kids = children.get(a, [])
            self._starts.append(size)
            self._skips.append([c - j for j, c in enumerate(kids)])
            size += switches - a - len(kids)
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> Tuple[int, int]:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("pair index out of range")
        row = bisect_right(self._starts, index) - 1
        a, r = row + 1, index - self._starts[row]
        # Free b's in (a, c_j) number c_j - a - 1 - j, so the children below
        # the r-th free b are those with c_j - j <= a + 1 + r.
        return a, a + 1 + r + bisect_right(self._skips[row], a + 1 + r)


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
    children: Dict[int, List[int]] = {}
    for i in range(2, switches + 1):  # parents precede children in spec order
        parent = rng.randrange(1, i)
        children.setdefault(parent, []).append(i)
        topo_links.append(TopoLink(f"s{parent}", f"s{i}", delay_ms))
    for (a, b) in rng.sample(ExtraPairs(switches, children), links - (switches - 1)):
        topo_links.append(TopoLink(f"s{a}", f"s{b}", delay_ms))
    for i in range(1, hosts + 1):
        topo_links.append(TopoLink(f"h{i}", f"s{rng.randrange(1, switches + 1)}", delay_ms))
    spec = TopologySpec(nodes=nodes, links=topo_links,
                        seed=rng.getrandbits(63))
    spec.validate()
    return spec
