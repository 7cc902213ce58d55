"""Connection-level invariants checked after every simulator event.

``tests/test_link.py`` checks the bottleneck link on its own; this file
checks the two transport endpoints of a whole page load, through the
ordinary :func:`~repro.core.runner.run_page_load`, over rate x RTT x
loss x jitter x protocol (QUIC-Cubic, QUIC-BBR, TCP) x page shape.
After every event:

* both endpoints' ``bytes_in_flight`` is never negative;
* both endpoints' congestion window never falls below its controller's
  floor (``kernel.min_cwnd``);
* both endpoints' congestion-control state is a :class:`CCState` or
  :class:`BBRState` value (the vocabulary the state-machine inference
  reads);
* the client's delivered application bytes never exceed the page;

and at the end the load completed with exactly the page delivered.

The check is test-side: a :class:`Simulator` subclass runs the load
through :meth:`Simulator.run_until` with a predicate that asserts and
returns False, so the event loop, and every outcome, is the product's.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.executor import ProtocolSpec
from repro.http.objects import KB, page
from repro.netem import emulated
from repro.netem.sim import Simulator
from repro.quic import quic_config
from repro.transport.cc.interface import BBRState, CCState

#: The protocols the loads run, by the name the examples print.
PROTOCOLS = {
    "quic": ProtocolSpec.quic(),
    "quic-bbr": ProtocolSpec.quic(replace(quic_config(34), use_bbr=True)),
    "tcp": ProtocolSpec.tcp(),
}
#: Every state name a controller may report.
CC_STATES = {state.value for state in (*CCState, *BBRState)}


def _delivered(connection):
    log = connection.delivery_log
    return log[-1][1] if log else 0


def checked_page_load(scenario, web_page, protocol, seed):
    """``run_page_load`` with the invariants asserted after every event;
    returns ``(output, events checked)``."""
    endpoints = []
    checked = [0]

    def check():
        for end in endpoints:
            assert end.bytes_in_flight >= 0, (end.role, end.bytes_in_flight)
            assert end.cc.cwnd >= end.cc.kernel.min_cwnd, (
                end.role, end.cc.cwnd, end.cc.kernel.min_cwnd)
            assert end.cc.state in CC_STATES, (end.role, end.cc.state)
        if endpoints:
            assert _delivered(endpoints[0]) <= web_page.total_bytes, (
                _delivered(endpoints[0]), web_page.total_bytes)
        checked[0] += 1
        return False

    class CheckedSimulator(Simulator):
        def run(self, until=None, max_events=None):
            self.run_until(check, until - self.now, max_events)

    real_open = ProtocolSpec.open_pair

    def open_pair(*args, **kwargs):
        client, server = real_open(*args, **kwargs)
        endpoints.extend((client, server))
        return client, server

    with mock.patch.object(runner, "Simulator", CheckedSimulator), \
            mock.patch.object(ProtocolSpec, "open_pair", open_pair):
        output = runner.run_page_load(scenario, web_page,
                                      PROTOCOLS[protocol], seed=seed)
    return output, checked[0]


#: Page shapes: (objects, KB per object).
SHAPES = [(1, 5), (1, 200), (4, 50), (10, 10), (20, 20)]


class TestConnectionInvariants:
    @settings(max_examples=13, deadline=None, derandomize=True)
    @example(rate=2.0, rtt_ms=100.0, loss=1.0, jitter_ms=10.0,
             protocol="quic", shape=(20, 20), seed=1)
    @example(rate=2.0, rtt_ms=100.0, loss=1.0, jitter_ms=10.0,
             protocol="tcp", shape=(20, 20), seed=1)
    @example(rate=50.0, rtt_ms=0.0, loss=1.0, jitter_ms=0.0,
             protocol="quic", shape=(1, 200), seed=2)
    # A tail loss the dupacks cannot repair: TCP's retransmission
    # timeout collapses the window to the floor.
    @example(rate=10.0, rtt_ms=50.0, loss=1.0, jitter_ms=0.0,
             protocol="tcp", shape=(20, 20), seed=9)
    @example(rate=10.0, rtt_ms=50.0, loss=0.0, jitter_ms=5.0,
             protocol="quic", shape=(10, 10), seed=3)
    @example(rate=10.0, rtt_ms=50.0, loss=0.0, jitter_ms=5.0,
             protocol="tcp", shape=(10, 10), seed=3)
    @example(rate=10.0, rtt_ms=50.0, loss=1.0, jitter_ms=5.0,
             protocol="quic-bbr", shape=(20, 20), seed=4)
    @given(rate=st.sampled_from([2.0, 10.0, 50.0, 100.0]),
           rtt_ms=st.sampled_from([0.0, 50.0, 100.0]),
           loss=st.sampled_from([0.0, 1.0]),
           jitter_ms=st.sampled_from([0.0, 5.0, 10.0]),
           protocol=st.sampled_from(sorted(PROTOCOLS)),
           shape=st.sampled_from(SHAPES),
           seed=st.integers(0, 2**16))
    def test_flight_window_and_delivery_hold_at_every_event(
            self, rate, rtt_ms, loss, jitter_ms, protocol, shape, seed):
        """7 explicit + 13 drawn examples."""
        scenario = emulated(rate, extra_delay_ms=rtt_ms, loss_pct=loss,
                            jitter_ms=jitter_ms)
        web_page = page(shape[0], shape[1] * KB)
        output, checked = checked_page_load(scenario, web_page, protocol,
                                            seed)
        assert checked > 0
        assert output.result.complete
        assert _delivered(output.client) == web_page.total_bytes

    def test_the_check_leaves_outcomes_alone(self):
        scenario = emulated(10.0, extra_delay_ms=50.0, loss_pct=1.0,
                            jitter_ms=5.0)
        web_page = page(4, 50 * KB)
        for protocol in PROTOCOLS:
            plain = runner.run_page_load(scenario, web_page,
                                         PROTOCOLS[protocol], seed=7)
            checked, events = checked_page_load(scenario, web_page,
                                                protocol, seed=7)
            assert events >= plain.sim.events_processed
            assert checked.result.plt == plain.result.plt
            assert checked.sim.events_processed == plain.sim.events_processed
            assert checked.sim.now == plain.sim.now
