"""Handshake FSMs and the TM engine, exercised without a network."""

from random import Random

import pytest

from icnsim.bootstrap import (Arm, Broadcast, Notify,
                              NodeBootstrapFsm, NodeConfig, NotBootstrapped,
                              BootstrapState, Send, Timers,
                              TmEngine, WrongState, apply_update,
                              responder_on_discovery)
from icnsim.fid import BitVector, FidParams
from icnsim.topology import (LinkEvent, LinkEventKind, LinkStatsReport, NodeKind,
                             RuleInstallFrame, StatsEntry, TM_NID, TopologyGraph)
from icnsim.wire import (DiscoveryOffer, DiscoveryRequest, OfferAccepted,
                         ResourceAccepted, ResourceOffer, ResourceRequest, Update,
                         encode)

P = FidParams(m=64, k=3)
TIMERS = Timers(discovery_wait_us=100_000, request_timeout_us=2_000_000, max_retries=3)


def make_fsm(name="h1", seed=1):
    return NodeBootstrapFsm(name, Random(seed), TIMERS)


def lid(*positions):
    return BitVector.from_bits(64, positions).value


def token_of(actions):
    """The token of the one timer that ``actions`` arm."""
    [arm] = [a for a in actions if isinstance(a, Arm)]
    return arm.token


def fire(actions, fsm):
    """Expire the timer that ``actions`` armed."""
    return fsm.on_timeout(token_of(actions))


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
        out = fire(acts, fsm)
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
        out = fire(acts, fsm)
        send = next(a for a in out if isinstance(a, Send))
        assert send.message.attach_nid == 3
        assert send.port == 1

    def test_popcount_tie_broken_by_low_nid(self):
        fsm = make_fsm()
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 9, lid(4, 5, 6)), 0)
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), 1)
        out = fire(acts, fsm)
        assert next(a for a in out if isinstance(a, Send)).message.attach_nid == 2

    def test_alien_nonce_offer_ignored(self):
        fsm = make_fsm()
        fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce + 1, 2, lid(1)), 0)
        assert fsm.collected_offers == []

    def test_no_offers_rebroadcast_then_fail(self):
        fsm = make_fsm()
        acts = fsm.start()
        out1 = fire(acts, fsm)
        assert any(isinstance(a, Broadcast) for a in out1)
        out2 = fire(out1, fsm)
        assert any(isinstance(a, Broadcast) for a in out2)
        out3 = fire(out2, fsm)
        assert out3 == []
        assert fsm.state == BootstrapState.FAILED

    def test_rebroadcast_makes_the_first_discovery_timer_stale(self):
        fsm = make_fsm()
        first = token_of(fsm.start())
        again = fsm.on_timeout(first)
        assert any(isinstance(a, Broadcast) for a in again)
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), 0)
        assert fsm.on_timeout(first) == []  # neither selects the offer nor retries
        assert fsm.state == BootstrapState.DISCOVERING
        assert fsm.retries_left == TIMERS.max_retries - 1
        send = next(a for a in fire(again, fsm) if isinstance(a, Send))
        assert send.message.attach_nid == 2


class TestRequestPhase:
    def drive_to_requesting(self, fsm):
        acts = fsm.start()
        fsm.on_message(DiscoveryOffer(fsm.nonce, 2, lid(1, 2, 3)), 0)
        return fire(acts, fsm)

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
        out = self.drive_to_requesting(fsm)
        for _ in range(2):
            out = fire(out, fsm)
            send = next(a for a in out if isinstance(a, Send))
            assert isinstance(send.message, ResourceRequest)
        assert fire(out, fsm) == []
        assert fsm.state == BootstrapState.FAILED

    def test_offer_makes_the_request_timer_stale(self):
        fsm = make_fsm()
        requested = self.drive_to_requesting(fsm)
        accepted = fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        assert fire(requested, fsm) == []  # the request is answered: no re-send
        assert fsm.retries_left == TIMERS.max_retries
        [send] = [a for a in fire(accepted, fsm) if isinstance(a, Send)]
        assert send.message == OfferAccepted(fsm.nonce, 7)
        assert (send.port, send.fid) == (0, lid(1, 2, 3))
        assert fsm.state == BootstrapState.AWAIT_FINAL

    def test_stale_timer_after_done_is_noop(self):
        fsm = make_fsm()
        self.drive_to_requesting(fsm)
        accepted = fsm.on_message(ResourceOffer(fsm.nonce, 7, lid(4), lid(5)), 0)
        fsm.on_message(ResourceAccepted(fsm.nonce, 7), 0)
        assert fire(accepted, fsm) == []
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
        config = NodeConfig(nid=TM_NID, ilid=lid(0), tmfid=0)
        assert responder_on_discovery(DiscoveryRequest(1), config).tmfid == 0


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


def grown(graph, serve, *args):
    """What ``serve(*args)`` returns and how many LIDs it added to ``graph.lid_registry``."""
    before = len(graph.lid_registry)
    actions = serve(*args)
    return actions, len(graph.lid_registry) - before


class TestTmEngine:
    def make_engine(self):
        graph = TopologyGraph(P, Random(2))
        return TmEngine(graph), graph

    def test_fresh_request_offers_triple(self):
        engine, graph = self.make_engine()
        actions, lids = grown(graph, engine.on_message,
                              ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in actions if isinstance(a, Notify))
        assert isinstance(offer, ResourceOffer)
        assert offer.nonce == 11 and offer.lid is not None and offer.ilid is not None
        assert lids == 3

    def test_switch_request_allocates_two_lids(self):
        engine, graph = self.make_engine()
        actions, lids = grown(graph, engine.on_message,
                              ResourceRequest(11, NodeKind.SDN_SWITCH, TM_NID))
        assert lids == 2
        offer = next(a.message for a in actions if isinstance(a, Notify))
        assert offer.ilid is None

    def test_duplicate_request_byte_identical_offer(self):
        engine, graph = self.make_engine()
        first = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        second, lids = grown(graph, engine.on_message,
                             ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer1 = next(a.message for a in first if isinstance(a, Notify))
        offer2 = next(a.message for a in second if isinstance(a, Notify))
        assert encode(offer1, P) == encode(offer2, P)
        assert lids == 0

    def test_offer_accepted_commits_and_acks(self):
        engine, graph = self.make_engine()
        actions = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in actions if isinstance(a, Notify))
        final = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in final if isinstance(a, Notify))
        assert isinstance(ack, ResourceAccepted) and ack.nid == offer.nid
        assert graph.nodes[offer.nid].committed
        update = next(a for a in final
                      if isinstance(a, Notify) and isinstance(a.message, Update))
        assert update.nid == offer.nid
        assert update.message.tmfid == graph.nodes[offer.nid].tmfid

    def test_offer_accepted_waits_while_attach_point_cut_off(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch if isinstance(a, Notify)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        actions = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, s_nid))
        offer = next(a.message for a in actions if isinstance(a, Notify))
        engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, s_nid, TM_NID))
        assert engine.on_message(OfferAccepted(11, offer.nid)) == []
        assert graph.pending_grant(offer.nid) is not None
        engine.on_link_event(LinkEvent(LinkEventKind.ADD, s_nid, TM_NID))
        retry = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in retry if isinstance(a, Notify))
        assert isinstance(ack, ResourceAccepted) and ack.nid == offer.nid
        assert graph.nodes[offer.nid].committed

    def test_icn_node_link_add_announced_to_node(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch if isinstance(a, Notify)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        hosts = []
        for nonce in (6, 7):
            host = engine.on_message(ResourceRequest(nonce, NodeKind.ICN_NODE, TM_NID))
            hosts.append(next(a.message for a in host if isinstance(a, Notify)).nid)
            engine.on_message(OfferAccepted(nonce, hosts[-1]))
        # A new cable, named from either end, announces its fresh LID to its
        # ICN end only; its switch end gets a rule.
        for src, dst in ((hosts[0], s_nid), (s_nid, hosts[1])):
            h_nid = src if src != s_nid else dst
            added, lids = grown(graph, engine.on_link_event,
                                LinkEvent(LinkEventKind.ADD, src, dst))
            assert lids == 2
            notes = [a for a in added if isinstance(a, Notify)]
            assert [(n.nid, n.message) for n in notes] == [
                (h_nid, Update(s_nid, graph.links[(h_nid, s_nid)].lid))]
            assert [(r.switch_nid, r.dst_nid, r.install) for r in added
                    if isinstance(r, RuleInstallFrame)] == [(s_nid, h_nid, True)]
            # A revival keeps the LIDs the node already holds: nothing to announce.
            engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, src, dst))
            revived, lids = grown(graph, engine.on_link_event,
                                  LinkEvent(LinkEventKind.ADD, dst, src))
            assert lids == 0
            assert not any(isinstance(a, Notify) for a in revived)

    def test_repair_updates_icn_node_with_new_first_hop(self):
        # tm <- sa <- h and tm <- sb, with h <-> sb off the tree (sa < sb).
        # Once sa -> tm fails, h steps to sb and sa hangs below h.
        engine, graph = self.make_engine()

        def join(nonce, kind, attach_nid):
            actions = engine.on_message(ResourceRequest(nonce, kind, attach_nid))
            nid = next(a.message for a in actions if isinstance(a, Notify)).nid
            engine.on_message(OfferAccepted(nonce, nid))
            return nid

        sa = join(5, NodeKind.SDN_SWITCH, TM_NID)
        sb = join(6, NodeKind.SDN_SWITCH, TM_NID)
        h = join(7, NodeKind.ICN_NODE, sa)
        engine.on_link_event(LinkEvent(LinkEventKind.ADD, h, sb))
        assert sa < sb and graph._next[h] == sa
        sa_tmfid = graph.nodes[sa].tmfid
        removed = engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, sa, TM_NID))
        assert graph.nodes[sa].tmfid != sa_tmfid  # repaired, but a switch: no Notify
        notes = [a for a in removed if isinstance(a, Notify)]
        uplink = graph.links[(h, sb)].lid
        assert [(n.nid, n.message) for n in notes] == [
            (h, Update(h, uplink, graph.nodes[h].tmfid))]
        assert graph.nodes[h].tmfid == uplink | graph.links[(sb, TM_NID)].lid

    def test_offer_accepted_unknown_ignored(self):
        engine, _ = self.make_engine()
        assert engine.on_message(OfferAccepted(1, 42)) == []

    def test_duplicate_offer_accepted_repeats_ack(self):
        engine, _ = self.make_engine()
        actions = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in actions if isinstance(a, Notify))
        engine.on_message(OfferAccepted(11, offer.nid))
        dup = engine.on_message(OfferAccepted(11, offer.nid))
        ack = next(a.message for a in dup if isinstance(a, Notify))
        assert isinstance(ack, ResourceAccepted)

    def test_host_rule_directive_precedes_offer(self):
        engine, graph = self.make_engine()
        switch = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s_nid = next(a.message for a in switch if isinstance(a, Notify)).nid
        engine.on_message(OfferAccepted(5, s_nid))
        actions = engine.on_message(ResourceRequest(6, NodeKind.ICN_NODE, s_nid))
        kinds = [type(a).__name__ for a in actions]
        assert kinds.index("RuleInstallFrame") < kinds.index("Notify")
        rule = next(a for a in actions if isinstance(a, RuleInstallFrame))
        assert rule.switch_nid == s_nid and rule.install

    def test_switch_commit_emits_both_rules(self):
        engine, _ = self.make_engine()
        r1 = engine.on_message(ResourceRequest(5, NodeKind.SDN_SWITCH, TM_NID))
        s1 = next(a.message for a in r1 if isinstance(a, Notify)).nid
        engine.on_message(OfferAccepted(5, s1))
        r2 = engine.on_message(ResourceRequest(6, NodeKind.SDN_SWITCH, s1))
        s2 = next(a.message for a in r2 if isinstance(a, Notify)).nid
        final = engine.on_message(OfferAccepted(6, s2))
        rules = [a for a in final if isinstance(a, RuleInstallFrame)]
        assert {(r.switch_nid, r.dst_nid) for r in rules} == {(s1, s2), (s2, s1)}

    def test_expire_releases_grant(self):
        engine, graph = self.make_engine()
        before = set(graph.lid_registry)
        engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        engine.expire(11)
        assert graph.lid_registry == before
        # a later retry with the same nonce gets a fresh allocation
        _, lids = grown(graph, engine.on_message, ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        assert lids == 3

    def test_expire_of_a_committed_handshake_keeps_it(self):
        engine, graph = self.make_engine()
        actions = engine.on_message(ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        offer = next(a.message for a in actions if isinstance(a, Notify))
        engine.on_message(OfferAccepted(11, offer.nid))
        dump, lids = graph.dump(), set(graph.lid_registry)
        engine.expire(11)
        assert graph.nodes[offer.nid].committed
        assert (graph.dump(), graph.lid_registry) == (dump, lids)
        # Both messages of the handshake still replay, allocating nothing.
        replay, grew = grown(graph, engine.on_message,
                             ResourceRequest(11, NodeKind.ICN_NODE, TM_NID))
        assert (replay, grew) == ([Notify(offer.nid, offer)], 0)
        assert engine.on_message(OfferAccepted(11, offer.nid)) == [
            Notify(offer.nid, ResourceAccepted(11, offer.nid))]

    def test_rejected_link_event_and_stats_logged_yield_nothing(self, caplog):
        engine, graph = self.make_engine()
        dump = graph.dump()
        with caplog.at_level("WARNING", logger="icnsim.bootstrap"):
            assert engine.on_link_event(LinkEvent(LinkEventKind.REMOVE, TM_NID, 9)) == []
            assert engine.on_link_stats(LinkStatsReport((StatsEntry(lid(1), 0, 10),))) == []
        assert [r.getMessage().split(":")[1].strip() for r in caplog.records] == [
            "link event failed", "stats report rejected"]
        assert graph.dump() == dump

    def test_exhausted_stays_silent(self):
        graph = TopologyGraph(FidParams(m=8, k=2), Random(2))
        for i in range(8):
            for j in range(i + 1, 8):
                graph.lid_registry.add(BitVector.from_bits(8, [i, j]).value)
        engine = TmEngine(graph)
        actions, lids = grown(graph, engine.on_message,
                              ResourceRequest(1, NodeKind.ICN_NODE, TM_NID))
        assert actions == []
        assert lids == 0
