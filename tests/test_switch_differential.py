"""Differential test: the run-at-a-time switch against a per-symbol reference.

:class:`ReferenceSwitch` is the switch's input state machine as it was
before it consumed bursts a run at a time: ``on_burst`` streams data runs
through an established claim in one fused loop and hands every other
symbol, one at a time, to ``_process_symbol``; a granted waiter's slack
buffer is replayed one symbol at a time, through ``_forward_data``.
Everything else (claims, grants, timeouts, output flushing, flow control)
is inherited, so the two switches differ only in how bursts are consumed.

Both switches are driven by the same random symbol streams under
contention, and must agree symbol for symbol: every burst each endpoint
receives, its arrival time and the global delivery order, every
``port_stats`` counter, and each port's flow-control state.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.myrinet.link import Link
from repro.myrinet.packet import route_byte
from repro.myrinet.switch import (
    _CRC_TABLE,
    _MODE_DRAINING,
    _MODE_FORWARDING,
    _MODE_IDLE,
    _MODE_WAITING,
    MyrinetSwitch,
)
from repro.myrinet.crc8 import crc8_update
from repro.myrinet.symbols import (
    GAP,
    GO,
    IDLE,
    STOP,
    Symbol,
    control_symbol,
    data_symbol,
    decode_control,
)
from repro.sim import Simulator

from tests.strategies import (
    Bursts,
    describe_bursts,
    gen_burst,
    minimize,
    run_property,
    shrink_bursts,
)

CHAR = 12_500
ATTACHED = 4
NUM_PORTS = 6


class ReferenceSwitch(MyrinetSwitch):
    """The switch with its per-symbol input state machine."""

    def on_burst(self, burst: List[Symbol], channel) -> None:
        port = self._channel_to_port[id(channel)]
        touched: set = set()
        state = self._ports[port]
        state.flow.tx_state.note_activity()
        index = 0
        while index < len(burst):
            symbol = burst[index]
            if symbol.is_data and state.mode == _MODE_FORWARDING:
                outbox = self._ports[state.claim_output].outbox
                while index < len(burst) and burst[index].is_data:
                    if state.held is not None:
                        if len(outbox) >= self._outbox_capacity:
                            state.symbols_dropped += 1
                            state.outbox_drops += 1
                        else:
                            outbox.append(data_symbol(state.held))
                        state.contrib = _CRC_TABLE[state.contrib]
                    state.held = burst[index].value
                    index += 1
                touched.add(state.claim_output)
                continue
            self._process_symbol(port, symbol, touched)
            index += 1
        self._drain_grants(touched)
        for out in sorted(touched):
            self._flush_output(out)
        self._update_backpressure(port)

    def _process_symbol(self, i: int, symbol: Symbol, touched: set) -> None:
        state = self._ports[i]
        if not symbol.is_data:
            decoded = decode_control(symbol.value)
            if decoded is None:
                state.undecodable_controls += 1
            elif decoded is GAP:
                self._on_gap(i, touched)
            elif decoded is not IDLE:
                state.flow.on_control_symbol(decoded)
            return
        if state.mode == _MODE_IDLE:
            self._on_route_byte(i, symbol.value, touched)
        elif state.mode == _MODE_FORWARDING:
            self._forward_data(i, symbol.value, touched)
        elif state.mode in (_MODE_WAITING, _MODE_DRAINING):
            self._buffer_symbol(i, symbol)
        else:  # discarding
            state.symbols_dropped += 1
            state.discard_drops += 1

    def _forward_data(self, i: int, byte: int, touched: set) -> None:
        state = self._ports[i]
        output = self._ports[state.claim_output]
        if state.held is not None:
            if len(output.outbox) >= self._outbox_capacity:
                state.symbols_dropped += 1
                state.outbox_drops += 1
            else:
                output.outbox.append(data_symbol(state.held))
            state.contrib = crc8_update(state.contrib, 0)
            touched.add(state.claim_output)
        state.held = byte

    def _replay_buffer(self, j: int, touched: set) -> None:
        state = self._ports[j]
        while state.buffer and state.mode not in (_MODE_WAITING,
                                                  _MODE_DRAINING):
            self._process_symbol(j, state.buffer.pop(0), touched)
        self._update_backpressure(j)

    def _drop_buffered_head_frame(self, i: int, touched: set) -> None:
        state = self._ports[i]
        state.wait_output = None
        dropped_gap = False
        while state.buffer:
            symbol = state.buffer.pop(0)
            state.symbols_dropped += 1
            if not symbol.is_data and decode_control(symbol.value) is GAP:
                dropped_gap = True
                break
        if dropped_gap:
            state.mode = _MODE_IDLE
            self._replay_buffer(i, touched)
        else:
            state.mode = "discarding"


class _Endpoint:
    """Sends its scheduled bursts; logs every burst it receives."""

    def __init__(self, sim: Simulator, port: int, log: list) -> None:
        self._sim = sim
        self._port = port
        self._log = log
        self.tx = None

    def on_burst(self, burst, channel) -> None:
        self._log.append((self._sim.now, self._port, tuple(burst)))


def _split(stream: List[Symbol],
           rng: random.Random) -> List[Tuple[int, List[Symbol]]]:
    """Cut ``stream`` into bursts, each with a pause before it (ps)."""
    pieces = []
    index = 0
    while index < len(stream):
        size = rng.choice((1, 1, 2, 3, 5, 8, 16, 40, 130))
        pause = rng.choice((0, 0, 0, CHAR, 7 * CHAR, 40 * CHAR, 400 * CHAR))
        pieces.append((pause, stream[index:index + size]))
        index += size
    return pieces


def drive(cls, streams: Bursts, split_seed: int, **switch_kwargs):
    """Run ``streams`` (stream ``k`` enters port ``k``) through a switch.

    Returns everything the comparison looks at.
    """
    sim = Simulator()
    switch = cls(sim, num_ports=NUM_PORTS, **switch_kwargs)
    log: list = []
    endpoints = []
    for port in range(ATTACHED):
        endpoint = _Endpoint(sim, port, log)
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        endpoint.tx = link.attach_a(endpoint)
        switch.attach_link(port, link, "b", flow_transport="symbols")
        endpoints.append(endpoint)
    for port, stream in enumerate(streams[:ATTACHED]):
        rng = random.Random(split_seed * 131 + port)
        at = 0
        for pause, burst in _split(stream, rng):
            at += pause
            sim.schedule_at(at, lambda e=endpoints[port], b=burst:
                            e.tx.send(b))
    sim.run(max_events=200_000)
    assert sim.pending == 0, "switch did not go quiet"
    flows = [
        (switch.port_flow(p).tx_state.stops_received,
         switch.port_flow(p).tx_state.gos_received,
         switch.port_flow(p).tx_state.timeout_recoveries)
        for p in range(ATTACHED)
    ]
    return {
        "log": log,
        "port_stats": [switch.port_stats(p) for p in range(NUM_PORTS)],
        "flows": flows,
        "events": sim.events_fired,
    }


def _mismatch(streams: Bursts, split_seed: int, **switch_kwargs) -> str:
    """Empty if both switches agree on ``streams``, else what differs."""
    ref = drive(ReferenceSwitch, streams, split_seed, **switch_kwargs)
    new = drive(MyrinetSwitch, streams, split_seed, **switch_kwargs)
    for port, (a, b) in enumerate(zip(ref["port_stats"], new["port_stats"])):
        differs = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        if differs:
            return f"port {port} stats (reference, switch): {differs}"
    for key in ("flows", "events"):
        if ref[key] != new[key]:
            return f"{key}: reference {ref[key]} != switch {new[key]}"
    if ref["log"] != new["log"]:
        for at, (a, b) in enumerate(zip(ref["log"], new["log"])):
            if a != b:
                return f"delivery {at}: reference {a} != switch {b}"
        return (f"deliveries: reference {len(ref['log'])} != switch "
                f"{len(new['log'])}")
    return ""


# ----------------------------------------------------------------------
# stream generation
# ----------------------------------------------------------------------


def _route(rng: random.Random, ingress: int) -> Symbol:
    """A route byte to an attached, unattached, ingress or absent port."""
    roll = rng.random()
    if roll < 0.75:
        port = rng.randrange(ATTACHED)
    elif roll < 0.85:
        port = ingress
    elif roll < 0.95:
        port = rng.randrange(ATTACHED, NUM_PORTS)
    else:
        port = rng.randrange(NUM_PORTS, 64)
    return data_symbol(route_byte(port))


def gen_stream(rng: random.Random, ingress: int,
               pieces: int = 30) -> List[Symbol]:
    """Frames, control runs and symbol soup for one input port."""
    stream: List[Symbol] = []
    for _ in range(pieces):
        roll = rng.random()
        if roll < 0.55:
            # A frame; sometimes a lone byte after the route byte, and
            # sometimes its GAP is lost.
            length = rng.choice((0, 1, 1, 3, 20, 70, 200))
            stream.append(_route(rng, ingress))
            stream.extend(data_symbol(rng.randrange(256))
                          for _ in range(length))
            if rng.random() < 0.9:
                stream.append(GAP)
        elif roll < 0.70:
            stream.extend([STOP] * rng.choice((1, 2, 16, 40)))
        elif roll < 0.75:
            stream.append(GO)
        elif roll < 0.82:
            stream.extend([IDLE] * rng.choice((1, 3, 9)))
        elif roll < 0.87:
            stream.extend([control_symbol(rng.choice((0xFF, 0xA5, 0x0E,
                                                      0x08, 0x02)))]
                          * rng.choice((1, 4)))
        else:
            stream.extend(gen_burst(rng, max_len=24))
    return stream


def gen_streams(rng: random.Random) -> Bursts:
    return [gen_stream(rng, port) for port in range(ATTACHED)]


#: Small buffers and a short long-timeout, so waiting-buffer and outbox
#: overflow, wait timeouts and teardowns all occur in short streams.
TIGHT = dict(slack_capacity=48, high_water=32, low_water=8,
             outbox_capacity=96, long_timeout_periods=3_000)


def _check(streams: Bursts, split_seed: int, **switch_kwargs) -> None:
    diff = _mismatch(streams, split_seed, **switch_kwargs)
    if diff:
        smallest = minimize(
            streams,
            lambda s: bool(_mismatch(s, split_seed, **switch_kwargs)),
            shrink_bursts,
        )
        raise AssertionError(
            f"{diff}\nsmallest failing streams (split seed {split_seed}): "
            f"{describe_bursts(smallest)}"
        )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


def test_random_streams_match_reference_with_default_buffers():
    def prop(rng: random.Random) -> None:
        _check(gen_streams(rng), rng.randrange(1 << 16),
               long_timeout_periods=20_000)

    run_property(prop, rounds=25, seed=1, name="default buffers")


def test_random_streams_match_reference_under_tight_buffers():
    def prop(rng: random.Random) -> None:
        _check(gen_streams(rng), rng.randrange(1 << 16), **TIGHT)

    run_property(prop, rounds=40, seed=2, name="tight buffers")


def test_waiting_buffer_overflow_matches_reference():
    """Port 1 holds output 2 while port 0 floods a frame at it: port 0's
    waiting buffer overflows, and the drops are counted in runs."""
    hog = [data_symbol(route_byte(2))] + [data_symbol(7)] * 30 + [GAP]
    flood = ([IDLE] * 8 + [data_symbol(route_byte(2))]
             + [data_symbol(9)] * 200 + [GAP])
    streams = [flood, hog, [STOP] * 400]
    ref = drive(ReferenceSwitch, streams, 3, **TIGHT)
    assert ref["port_stats"][0]["waitbuf_drops"] > 0
    _check(streams, 3, **TIGHT)


def _grant_after_teardown(cls, tail: List[Symbol]):
    """Grant output 1 to a waiter whose slack buffer holds ``tail``
    while output 1 still holds a backlog, and return what the grant's
    replay touched, with the output's backlog and the waiter's held byte.

    Port 0 claims output 1, whose endpoint keeps it stopped so the
    claim's bytes stay in the outbox; port 2 then waits for output 1.
    Releasing port 0's claim by hand is what a long-timeout teardown
    does, without the teardown's own touch of the output.
    """
    sim = Simulator()
    switch = cls(sim, num_ports=NUM_PORTS, **TIGHT)
    endpoints = []
    for port in range(ATTACHED):
        endpoint = _Endpoint(sim, port, [])
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        endpoint.tx = link.attach_a(endpoint)
        switch.attach_link(port, link, "b", flow_transport="symbols")
        endpoints.append(endpoint)
    for _ in range(6):
        endpoints[1].tx.send([STOP] * 16)
    endpoints[0].tx.send([data_symbol(route_byte(1))]
                         + [data_symbol(0x33)] * 20)
    endpoints[2].tx.send([IDLE] * 30 + [data_symbol(route_byte(1))] + tail)
    sim.run_until(50 * CHAR)
    waiter = switch._ports[2]
    assert waiter.mode == _MODE_WAITING and waiter.buffer == tail
    backlog = list(switch._ports[1].outbox)
    assert backlog
    switch._release_claim(0)
    touched: set = set()
    switch._drain_grants(touched)
    return touched, switch._ports[1].outbox == backlog, waiter.held


def test_replay_of_a_lone_byte_touches_no_output():
    """A granted waiter whose buffer holds one data byte moves no byte
    when it is replayed, so it must not touch (and so flush) the output
    it now claims, even though that output holds a backlog: the flush
    belongs to the output's own pending retry.  Two buffered bytes move
    one, and do touch it."""
    lone = [data_symbol(5)]
    pair = [data_symbol(5), data_symbol(6)]
    for cls in (ReferenceSwitch, MyrinetSwitch):
        assert _grant_after_teardown(cls, lone) == (set(), True, 5)
        assert _grant_after_teardown(cls, pair) == ({1}, False, 6)
