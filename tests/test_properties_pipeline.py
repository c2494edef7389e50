"""Property-based invariants of the device's FIFO injector pipeline.

Seeded, shrinking properties over random burst sequences and random
register files: length preservation, disarmed transparency, once-mode
at-most-once, and deterministic replay.

All generation and ddmin-style shrinking lives in
:mod:`tests.strategies`; no third-party dependencies.
"""

from __future__ import annotations

import random
from typing import List

from repro.hw.injector import FifoInjector
from repro.hw.registers import InjectorConfig, MatchMode
from repro.myrinet.symbols import data_symbol, symbol_bytes

from tests.strategies import (
    Bursts,
    describe_bursts,
    gen_bursts,
    gen_config,
    minimize,
    run_property,
    shrink_bursts,
)

PIPELINE_DEPTH = 8


def _observe(config: InjectorConfig, bursts: Bursts) -> dict:
    """Feed ``bursts`` to a fresh injector and record every observable:
    delivered bytes, stats, per-burst rewrite lists, injection events,
    and compare-window state."""
    injector = FifoInjector(name="prop", pipeline_depth=PIPELINE_DEPTH)
    injector.configure(config)
    events: List[tuple] = []
    injector.on_injection(
        lambda e: events.append((
            e.segment_index, e.window_before, e.ctl_before,
            e.window_after, e.ctl_after, e.lanes_rewritten,
            e.lanes_unreachable, e.forced,
        ))
    )
    delivered = bytearray()
    rewrites: List[List[int]] = []
    for burst in bursts:
        output = injector.process_burst(list(burst))
        delivered += symbol_bytes(output)
        delivered += bytes(1 if s.is_data else 0 for s in output)
        rewrites.append(list(injector.last_burst_rewrites))
    return {
        "delivered": bytes(delivered),
        "stats": injector.stats,
        "rewrites": rewrites,
        "events": events,
        "window": injector.compare.snapshot(),
        "occupancy": injector.fifo.occupancy,
    }


def test_property_length_preserved() -> None:
    """(1) The pipeline delivers exactly one symbol per input symbol."""
    def prop(rng: random.Random) -> None:
        injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
        injector.configure(gen_config(rng))
        for burst in gen_bursts(rng, max_bursts=5):
            output = injector.process_burst(list(burst))
            assert len(output) == len(burst)
    run_property(prop, rounds=30, name="length_preserved")


def test_property_disarmed_is_identity() -> None:
    """(2) A disarmed injector is a transparent pipe."""
    def prop(rng: random.Random) -> None:
        injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
        for burst in gen_bursts(rng, max_bursts=5):
            output = injector.process_burst(list(burst))
            assert output == burst
            assert all(a is b for a, b in zip(output, burst))
            assert injector.injections == 0
    run_property(prop, rounds=30, name="disarmed_identity")


def test_property_once_mode_at_most_once() -> None:
    """(3) Once mode injects at most once per arm."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng).copy(match_mode=MatchMode.ONCE)
        injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
        injector.configure(config)
        arms = 1
        for index, burst in enumerate(gen_bursts(rng, max_bursts=8)):
            injector.process_burst(list(burst))
            if index % 3 == 2:
                injector.set_match_mode(MatchMode.ONCE)
                arms += 1
        assert injector.injections <= arms, (injector.injections, arms)
    run_property(prop, rounds=30, name="once_at_most_once")


def test_property_determinism() -> None:
    """(4) Identical inputs replay to identical observables."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng)
        bursts = gen_bursts(rng, max_bursts=6)
        assert _observe(config, bursts) == _observe(config, bursts)
    run_property(prop, rounds=15, name="determinism")


def test_shrinker_produces_minimal_counterexample() -> None:
    """The ddmin shrinker itself: a planted divergence minimizes to a
    single-burst, few-symbol counterexample (meta-test of the harness)."""
    # A fake "divergence": any sequence containing a 0x42 data symbol.
    def fails(bursts: Bursts) -> bool:
        return any(
            s.is_data and s.value == 0x42 for b in bursts for s in b
        )

    rng = random.Random(7)
    bursts = gen_bursts(rng, max_bursts=10)
    bursts[len(bursts) // 2].append(data_symbol(0x42))
    assert fails(bursts)
    smallest = minimize(bursts, fails, shrink_bursts)
    assert fails(smallest)
    assert len(smallest) == 1
    assert len(smallest[0]) <= 2, describe_bursts(smallest)
