"""Handshake FSMs and the TM engine, exercised without a network."""

from random import Random

import pytest

from icnsim.bootstrap import (Arm, Broadcast, DISCOVERY_TIMER, Notify,
                              NodeBootstrapFsm, NodeConfig, NotBootstrapped,
                              REQUEST_TIMER, Reply, BootstrapState, Send, Timers,
                              TmEngine, WrongState, apply_update,
                              responder_on_discovery)
from icnsim.fid import BitVector, FidParams
from icnsim.topology import (LinkEvent, LinkEventKind, NodeKind, RuleInstallFrame, TM_NID,
                             TopologyGraph)
from icnsim.wire import (DiscoveryOffer, DiscoveryRequest, OfferAccepted,
                         ResourceAccepted, ResourceOffer, ResourceRequest, Update,
                         encode)

P = FidParams(m=64, k=3)
TIMERS = Timers(discovery_wait_us=100_000, request_timeout_us=2_000_000, max_retries=3)


def make_fsm(name="h1", seed=1):
    return NodeBootstrapFsm(name, Random(seed), TIMERS)


def lid(*positions):
    return BitVector.from_bits(64, positions)


def fire_discovery(fsm, actions=None):
    arm = next(a for a in (actions or []) if isinstance(a, Arm)) if actions else None
    token = arm.token if arm else fsm._tokens[DISCOVERY_TIMER]
    return fsm.on_timeout(DISCOVERY_TIMER, token)


class TestFsmStart:
    def test_start_broadcasts_and_arms(self):
        fsm = make_fsm()
        actions = fsm.start()
        assert sum(isinstance(a, Broadcast) for a in actions) == 1
        assert sum(isinstance(a, Arm) for a in actions) == 1
        assert fsm.state == BootstrapState.DISCOVERING

    def test_start_twice_wrong_state(self):
        fsm = make_fsm()
        fsm.start()
        with pytest.raises(WrongState):
            fsm.start()

    def test_distinct_nonces_for_distinct_seeds(self):
        assert make_fsm(seed=1).nonce != make_fsm(seed=2).nonce


class TestDiscoverySelection:
    def test_single_offer_selected(self):
        fsm = make_fsm()
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), via_port=0)
        out = fire_discovery(fsm, acts)
        send = next(a for a in out if isinstance(a, Send))
        assert isinstance(send.message, ResourceRequest)
        assert send.message.attach_nid == 2
        assert send.fid == lid(1, 2, 3)
        assert fsm.state == BootstrapState.REQUESTING

    def test_fewest_bits_wins(self):
        fsm = make_fsm()
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)), 0)
        fsm.on_message(DiscoveryOffer(fsm.nonce, 3, lid(1, 2, 3, 4, 5)), 1)
        out = fire_discovery(fsm, acts)
        send = next(a for a in out if isinstance(a, Send))
        assert send.message.attach_nid == 3
        assert send.port == 1

    def test_popcount_tie_broken_by_low_nid(self):
        fsm = make_fsm()
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 9, lid(4, 5, 6)), 0)
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), 1)
        out = fire_discovery(fsm, acts)
        assert next(a for a in out if isinstance(a, Send)).message.attach_nid == 2

    def test_alien_nonce_offer_ignored(self):
        fsm = make_fsm()
        fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce + 1, 2, lid(1)), 0)
        assert fsm.collected_offers == []

    def test_no_offers_rebroadcast_then_fail(self):
        fsm = make_fsm()
        acts = fsm.start()
        out1 = fire_discovery(fsm, acts)
        assert any(isinstance(a, Broadcast) for a in out1)
        out2 = fire_discovery(fsm)
        assert any(isinstance(a, Broadcast) for a in out2)
        out3 = fire_discovery(fsm)
        assert out3 == []
        assert fsm.state == BootstrapState.FAILED


class TestRequestPhase:
    def drive_to_requesting(self, fsm):
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), 0)
        return fire_discovery(fsm, acts)

    def test_offer_adopted_and_acknowledged(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        out = fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        send = next(a for a in out if isinstance(a, Send))
        assert isinstance(send.message, OfferAccepted)
        assert send.message.nid == 7
        assert fsm.state == BootstrapState.AWAIT_FINAL

    def test_alien_nonce_resource_offer_ignored(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        out = fsm.on_message(ResourceOffer(fsm.nonce ^ 1, 7, lid(4), lid(5)), 0)
        assert out == []
        assert fsm.state == BootstrapState.REQUESTING

    def test_final_ack_commits_without_sending(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        out = fsm.on_message(ResourceAccepted(fsm.nonce, 7), 0)
        assert fsm.state == BootstrapState.DONE
        assert fsm.config.nid == 7
        assert fsm.config.ilid == lid(5)
        # Neighbours learn their links to the node from the TM, not from it.
        assert out == []

    def test_final_ack_with_wrong_nid_ignored(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        fsm.on_message(ResourceAccepted(fsm.nonce, 8), 0)
        assert fsm.state == BootstrapState.AWAIT_FINAL

    def test_three_request_timeouts_fail(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        for _ in range(2):
            out = fsm.on_timeout(REQUEST_TIMER, fsm._tokens[REQUEST_TIMER])
            assert any(isinstance(a, Send) for a in out)
        assert fsm.on_timeout(REQUEST_TIMER, fsm._tokens[REQUEST_TIMER]) == []
        assert fsm.state == BootstrapState.FAILED

    def test_stale_timer_after_done_is_noop(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        token = fsm._tokens[REQUEST_TIMER]
        fsm.on_message(ResourceAccepted(fsm.nonce, 7), 0)
        assert fsm.on_timeout(REQUEST_TIMER, token) == []
        assert fsm.state == BootstrapState.DONE


class TestResponder:
    def test_bootstrapped_neighbor_echoes_nonce(self):
        config = NodeConfig(nid=5, ilid=lid(1), tmfid=lid(2, 3))
        offer = responder_on_discovery(DiscoveryRequest(99), config)
        assert offer.nonce == 99 and offer.responder_nid == 5 and offer.tmfid == lid(2, 3)

    def test_unbootstrapped_is_silent(self):
        with pytest.raises(NotBootstrapped):
            responder_on_discovery(DiscoveryRequest(1), NodeConfig())

    def test_tm_offers_all_zero_tmfid(self):
        config = NodeConfig(nid=TM_NID, ilid=lid(0), tmfid=BitVector.zero(64))
        assert responder_on_discovery(DiscoveryRequest(1), config).tmfid.is_zero()


class TestApplyUpdate:
    def test_neighbor_mapping_recorded(self):
        config = NodeConfig(nid=5)
        apply_update(config, Update(7, lid(1, 2)), self_attach_nid=2)
        assert config.link_lids[7] == lid(1, 2)

    def test_duplicate_idempotent(self):
        config = NodeConfig(nid=5)
        for _ in range(2):
            apply_update(config, Update(7, lid(1, 2)), 2)
        assert config.link_lids == {7: lid(1, 2)}

    def test_self_update_replaces_tmfid(self):
        config = NodeConfig(nid=5, tmfid=lid(9))
        apply_update(config, Update(5, lid(1), tmfid=lid(2, 3)), self_attach_nid=2)
        assert config.tmfid == lid(2, 3)
        assert config.link_lids[2] == lid(1)

    def test_second_self_update_keeps_attach_lid(self):
        # A repair's self-Update carries the new first hop's LID, not the
        # attach point's.
        config = NodeConfig(nid=5)
        apply_update(config, Update(5, lid(1), tmfid=lid(2, 3)), self_attach_nid=2)
        apply_update(config, Update(5, lid(4), tmfid=lid(4, 6)), self_attach_nid=2)
        assert config.link_lids == {2: lid(1)}
        assert config.tmfid == lid(4, 6)

    def test_foreign_update_does_not_touch_tmfid(self):
        config = NodeConfig(nid=5, tmfid=lid(9))
        apply_update(config, Update(7, lid(1), tmfid=lid(2, 3)), 2)
        assert config.tmfid == lid(9)


class TestTmEngine:
    def make_engine(self):
        graph = TopologyGraph(P, Random(2))
        return TmEngine(graph), graph

    def test_fresh_request_offers_triple(self):
        engine, _ = self.make_engine()
        result = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in result.actions if isinstance(a, Reply))
        assert isinstance(offer, ResourceOffer)
        assert offer.nonce == 11 and offer.lid is not None and offer.ilid is not None
        assert result.lids_allocated == 3

    def test_switch_request_allocates_two_lids(self):
        engine, _ = self.make_engine()
        result = engine.on_message(ResourceRequest(11, NodeKind.SDN_SWITCH, TM_NID))
        assert result.lids_allocated == 2
        offer = next(a.message for a in result.actions if isinstance(a, Reply))
        assert offer.ilid is None

    def test_duplicate_request_byte_identical_offer(self):
        engine, _ = self.make_engine()
        first = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        second = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer1 = next(a.message for a in first.actions if isinstance(a, Reply))
        offer2 = next(a.message for a in second.actions if isinstance(a, Reply))
        assert encode(offer1, P) == encode(offer2, P)
        assert second.lids_allocated == 0

    def test_offer_accepted_commits_and_acks(self):
        engine, graph = self.make_engine()
        result = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in result.actions if isinstance(a, Reply))
        final = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in final.actions if isinstance(a, Reply))
        assert isinstance(ack, ResourceAccepted) and ack.nid == offer.nid
        assert graph.nodes[offer.nid].committed
        update = next(a for a in final.actions if isinstance(a, Notify))
        assert update.nid == offer.nid
        assert update.message.tmfid == graph.nodes[offer.nid].tmfid

    def test_offer_accepted_waits_while_attach_point_cut_off(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch.actions if isinstance(a, Reply)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        result = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, s_nid))
        offer = next(a.message for a in result.actions if isinstance(a, Reply))
        engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, s_nid, TM_NID))
        assert engine.on_message(OfferAccepted(11, offer.nid)).actions == []
        assert graph.pending_grant(offer.nid) is not None
        engine.on_link_event(LinkEvent(LinkEventKind.ADD, s_nid, TM_NID))
        retry = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in retry.actions if isinstance(a, Reply))
        assert isinstance(ack, ResourceAccepted) and ack.nid == offer.nid
        assert graph.nodes[offer.nid].committed

    def test_icn_node_link_add_announced_to_node(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch.actions if isinstance(a, Reply)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        host = engine.on_message(ResourceRequest(6, NodeKind.ICN_NODE, TM_NID))
        h_nid = next(a.message for a in host.actions if isinstance(a, Reply)).nid
        engine.on_message(OfferAccepted(6, h_nid))
        added = engine.on_link_event(LinkEvent(LinkEventKind.ADD, h_nid, s_nid))
        notes = [a for a in added.actions if isinstance(a, Notify)]
        assert [(n.nid, n.message) for n in notes] == [
            (h_nid, Update(s_nid, graph.links[(h_nid, s_nid)].lid))]
        # A revival keeps the LID the node already holds: nothing to announce.
        engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, h_nid, s_nid))
        revived = engine.on_link_event(LinkEvent(LinkEventKind.ADD, h_nid, s_nid))
        assert revived.lids_allocated == 0
        assert not any(isinstance(a, Notify) for a in revived.actions)
        added = engine.on_link_event(LinkEvent(LinkEventKind.ADD, s_nid, h_nid))
        assert not any(isinstance(a, Notify) for a in added.actions)

    def test_offer_accepted_unknown_ignored(self):
        engine, _ = self.make_engine()
        assert engine.on_message(OfferAccepted(1, 42)).actions == []

    def test_duplicate_offer_accepted_repeats_ack(self):
        engine, _ = self.make_engine()
        result = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in result.actions if isinstance(a, Reply))
        engine.on_message(OfferAccepted(11, offer.nid))
        dup = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in dup.actions if isinstance(a, Reply))
        assert isinstance(ack, ResourceAccepted)

    def test_host_rule_directive_precedes_offer(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch.actions if isinstance(a, Reply)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        result = engine.on_message(ResourceRequest(6, NodeKind.ICN_NODE, s_nid))
        kinds = [type(a).__name__ for a in result.actions]
        assert kinds.index("RuleInstallFrame") < kinds.index("Reply")
        rule = next(a for a in result.actions if isinstance(a, RuleInstallFrame))
        assert rule.switch_nid == s_nid and rule.install

    def test_switch_commit_emits_both_rules(self):
        engine, _ = self.make_engine()
        r1 = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s1 = next(a.message for a in r1.actions if isinstance(a, Reply)).nid
        engine.on_message(OfferAccepted(5, s1))
        r2 = engine.on_message(ResourceRequest(6, NodeKind.SDN_SWITCH, s1))
        s2 = next(a.message for a in r2.actions if isinstance(a, Reply)).nid
        final = engine.on_message(OfferAccepted(6, s2))
        rules = [a for a in final.actions if isinstance(a, RuleInstallFrame)]
        assert {(r.switch_nid, r.dst_nid) for r in rules} == {(s1, s2), (s2, s1)}

    def test_expire_releases_grant(self):
        engine, graph = self.make_engine()
        before = set(graph.lid_registry)
        engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        engine.expire(11)
        assert graph.lid_registry == before
        # a later retry with the same nonce gets a fresh allocation
        result = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        assert result.lids_allocated == 3

    def test_exhausted_stays_silent(self):
        graph = TopologyGraph(FidParams(m=8, k=2), Random(2))
        for i in range(8):
            for j in range(i + 1, 8):
                graph.lid_registry.add(BitVector.from_bits(8, [i, j]))
        engine = TmEngine(graph)
        result = engine.on_message(ResourceRequest(1, NodeKind.ICN_NODE, TM_NID))
        assert result.actions == []
