"""Per-link fault models (loss, duplication, delay spikes) and the
ServiceQueue crash semantics they ride on."""

import numpy as np
import pytest

from repro.sim.network import LatencyModel, LinkFaults, Network
from repro.sim.server_queue import ServiceQueue
from repro.sim.simulator import Simulator


def make_net(fault_seed=1, latency_seed=0):
    sim = Simulator()
    net = Network(sim, LatencyModel.from_mean(1e-3, cv=0.2),
                  np.random.default_rng(latency_seed),
                  fault_rng=np.random.default_rng(fault_seed))
    return sim, net


class TestLinkFaults:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LinkFaults(loss=1.5)
        with pytest.raises(ValueError):
            LinkFaults(duplicate=-0.1)
        with pytest.raises(ValueError):
            LinkFaults(delay_spike=2.0)
        with pytest.raises(ValueError):
            LinkFaults(spike_factor=0.5)

    def test_any(self):
        assert not LinkFaults().any
        assert LinkFaults(loss=0.1).any
        assert LinkFaults(duplicate=0.1).any
        assert LinkFaults(delay_spike=0.1).any


class TestNetworkFaults:
    def test_certain_loss_drops_everything(self):
        sim, net = make_net()
        net.set_default_faults(LinkFaults(loss=1.0))
        got = []
        net.register("dst", got.append)
        for i in range(20):
            net.send("dst", i, src="src")
        sim.run()
        assert got == []
        assert net.messages_lost == 20
        assert net.messages_sent == 20

    def test_certain_duplication_delivers_twice(self):
        sim, net = make_net()
        net.set_default_faults(LinkFaults(duplicate=1.0))
        got = []
        net.register("dst", got.append)
        net.send("dst", "m", src="src")
        sim.run()
        assert got == ["m", "m"]
        assert net.messages_duplicated == 1

    def test_lost_message_does_not_advance_fifo_floor(self):
        # A dropped message must not delay later messages on the link: the
        # FIFO arrival floor belongs to delivered traffic only.
        sim, net = make_net()
        net.set_default_faults(LinkFaults(loss=1.0))
        net.register("dst", lambda m: None)
        net.send("dst", "vanishes", src="src")
        assert ("src", "dst") not in net._last_arrival

    def test_delay_spike_slows_delivery(self):
        times = {}
        for label, spike in (("clean", 0.0), ("spiky", 1.0)):
            sim, net = make_net()
            net.set_default_faults(
                LinkFaults(delay_spike=spike, spike_factor=50.0))
            arrivals = []
            net.register("dst", lambda m: arrivals.append(sim.now))
            net.send("dst", "m", src="src")
            sim.run()
            times[label] = arrivals[0]
        assert times["spiky"] > 10 * times["clean"]

    def test_per_link_override_beats_default(self):
        sim, net = make_net()
        net.set_default_faults(LinkFaults(loss=1.0))
        net.set_link_faults("src", "lucky", LinkFaults())  # clean link
        got = []
        net.register("lucky", got.append)
        net.register("unlucky", got.append)
        net.send("lucky", "a", src="src")
        net.send("unlucky", "b", src="src")
        sim.run()
        assert got == ["a"]

    def test_clearing_link_faults(self):
        sim, net = make_net()
        net.set_link_faults("s", "d", LinkFaults(loss=1.0))
        net.set_link_faults("s", "d", None)
        got = []
        net.register("d", got.append)
        net.send("d", "m", src="s")
        sim.run()
        assert got == ["m"]

    def test_faulty_runs_are_deterministic(self):
        def run(seed):
            sim, net = make_net(fault_seed=seed)
            net.set_default_faults(
                LinkFaults(loss=0.2, duplicate=0.2, delay_spike=0.1))
            got = []
            net.register("dst", lambda m: got.append((sim.now, m)))
            for i in range(200):
                net.send("dst", i, src="src")
            sim.run()
            return got, (net.messages_lost, net.messages_duplicated,
                         net.delay_spikes)

        a, b = run(42), run(42)
        assert a == b
        # And the counters actually moved.
        assert all(c > 0 for c in a[1])

    def test_fault_rng_does_not_perturb_latency_stream(self):
        # Same latency seed, faults on vs off: the messages that survive
        # must arrive at exactly the times they would on a clean network
        # (fault sampling draws from its own stream).
        sim1, clean = make_net()
        t_clean = []
        clean.register("dst", lambda m: t_clean.append(sim1.now))
        clean.send("dst", "m", src="src")
        sim1.run()

        sim2, faulty = make_net()
        faulty.set_default_faults(LinkFaults(loss=0.0, duplicate=0.0,
                                             delay_spike=0.0))
        t_faulty = []
        faulty.register("dst", lambda m: t_faulty.append(sim2.now))
        faulty.send("dst", "m", src="src")
        sim2.run()
        assert t_clean == t_faulty

    def test_unregister_clears_fifo_floor_both_directions(self):
        # Regression: a restarted node must not inherit the pre-crash
        # arrival floor (a delay spike could have pushed it far into the
        # future, stalling every post-restart message).
        _sim, net = make_net()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net._last_arrival[("a", "b")] = 999.0
        net._last_arrival[("b", "a")] = 999.0
        net._last_arrival[("b", "c")] = 1.0
        net.unregister("a")
        assert ("a", "b") not in net._last_arrival
        assert ("b", "a") not in net._last_arrival
        assert net._last_arrival[("b", "c")] == 1.0


class TestRedelivers:
    """``Network.redelivers``: whether a message can arrive twice, the fact
    servers read when built to decide on a request-dedup log."""

    def test_a_network_redelivers_unless_told_otherwise(self):
        _sim, net = make_net()
        assert net.redelivers
        net.set_default_faults(LinkFaults(loss=0.5))
        assert net.redelivers

    def test_a_duplicating_model_switches_it_back_on(self):
        for install in (lambda net, f: net.set_default_faults(f),
                        lambda net, f: net.set_link_faults("s", "d", f)):
            _sim, net = make_net()
            net.redelivers = False
            install(net, LinkFaults(loss=0.5, delay_spike=0.1))
            assert not net.redelivers
            install(net, LinkFaults(duplicate=0.01))
            assert net.redelivers

    def test_switching_on_under_attached_nodes_is_refused(self):
        _sim, net = make_net()
        net.redelivers = False
        net.register("server", lambda m: None)
        with pytest.raises(ValueError, match="redelivers"):
            net.set_default_faults(LinkFaults(duplicate=0.1))
        assert not net.redelivers and not net._have_faults


class TestPooledFaultDraws:
    """Fault probabilities are drawn a block at a time from the dedicated
    stream.  The reference below is the unpooled network written out: one
    scalar ``random()`` per decision, in decision order, from an
    equal-seeded generator — so every refill boundary, the lost message's
    single draw and the per-link model lookup must line up exactly."""

    DEFAULT = LinkFaults(loss=0.1, duplicate=0.15, delay_spike=0.1,
                         spike_factor=7.0)
    LOSS_ONLY = LinkFaults(loss=0.3)
    LINKS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
    #: The override on one link draws once per message where the default
    #: draws up to three times: the two consume the pool at different rates.
    OVERRIDES = {("b", "y"): LOSS_ONLY}
    LATENCY = LatencyModel.from_mean(1e-3, cv=0.5)
    BURSTS, PER_BURST = 8, 300  # 2400 sends, ~6000 draws, 20+ refills

    def reference(self, fault_rng, latency_rng):
        """(deliveries, lost, duplicated, spikes) with single draws.
        ``fault_rng is latency_rng`` is the shared-stream configuration."""
        deliveries, floor = [], {}
        lost = duplicated = spikes = 0
        for burst in range(self.BURSTS):
            now = burst * 5e-4
            for n in range(self.PER_BURST):
                src, dst = link = self.LINKS[n % len(self.LINKS)]
                msg = (burst, n)
                faults = self.OVERRIDES.get(link, self.DEFAULT)
                if faults.loss and fault_rng.random() < faults.loss:
                    lost += 1
                    continue
                twice = bool(faults.duplicate
                             and fault_rng.random() < faults.duplicate)
                delay = self.LATENCY.sample(latency_rng)
                if (faults.delay_spike
                        and fault_rng.random() < faults.delay_spike):
                    spikes += 1
                    delay *= faults.spike_factor
                arrival = max(now + delay, floor.get(link, 0.0))
                floor[link] = arrival
                deliveries.append((now + (arrival - now), dst, msg))
                if twice:
                    duplicated += 1
                    deliveries.append(
                        (now + self.LATENCY.sample(latency_rng), dst, msg))
        deliveries.sort(key=lambda d: d[0])  # stable: ties keep send order
        return deliveries, lost, duplicated, spikes

    def run_network(self, net, sim):
        net.set_default_faults(self.DEFAULT)
        for link, faults in self.OVERRIDES.items():
            net.set_link_faults(*link, faults)
        got = []
        for dst in ("x", "y"):
            net.register(dst, lambda m, dst=dst: got.append((sim.now, dst, m)))

        def burst(b):
            for n in range(self.PER_BURST):
                src, dst = self.LINKS[n % len(self.LINKS)]
                net.send(dst, (b, n), src=src)

        for b in range(self.BURSTS):
            sim.schedule(b * 5e-4, burst, b)
        sim.run()
        return got, net.messages_lost, net.messages_duplicated, \
            net.delay_spikes

    def test_dedicated_stream_matches_single_draws(self):
        sim = Simulator()
        net = Network(sim, self.LATENCY, np.random.default_rng(3),
                      fault_rng=np.random.default_rng(4))
        got = self.run_network(net, sim)
        want = self.reference(np.random.default_rng(4),
                              np.random.default_rng(3))
        assert got == want
        assert net.messages_sent == self.BURSTS * self.PER_BURST
        assert min(got[1:]) > 0  # every kind of fault happened

    def test_shared_stream_still_draws_singly_in_order(self):
        # No fault_rng: probabilities and latencies interleave on one
        # stream, so nothing may be read ahead of its turn.
        sim = Simulator()
        net = Network(sim, self.LATENCY, np.random.default_rng(5))
        got = self.run_network(net, sim)
        shared = np.random.default_rng(5)
        assert got == self.reference(shared, shared)


class TestServiceQueueCrash:
    def test_drop_pending_discards_queued_and_in_service(self):
        sim = Simulator()
        handled = []
        q = ServiceQueue(sim, 1.0, 1, np.random.default_rng(0),
                         handled.append)
        q.submit("in-service")
        q.submit("queued")
        q.drop_pending()  # crash while "in-service" occupies the slot
        sim.run()
        assert handled == []

    def test_work_after_restart_is_served(self):
        sim = Simulator()
        handled = []
        q = ServiceQueue(sim, 1e-3, 1, np.random.default_rng(0),
                         handled.append)
        q.submit("old")
        q.drop_pending()
        q.submit("new")
        sim.run()
        assert handled == ["new"]
