"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.sim import DeterministicRng, Simulator


@pytest.fixture(scope="session")
def run_flat_campaign():
    """Build a legacy *flat-layout* artifact directory programmatically.

    The CLI used to produce this layout through ``--telemetry-dir`` /
    ``--capture-dir``; those flags are retired, but the insight engine
    still reads the layout, so tests that pin it build it through the
    session APIs the old CLI path used.
    """
    def _run(root, experiments: int = 1, seed: int = 0) -> None:
        from argparse import Namespace

        from repro.capture import CaptureSession
        from repro.cli import _campaign_spec
        from repro.nftape.campaign import Campaign
        from repro.telemetry import TelemetrySession

        spec = _campaign_spec(
            Namespace(experiments=experiments, duration_ms=1.0, seed=seed),
            True,
        )
        campaign = Campaign.from_spec(spec)
        with TelemetrySession(out_dir=str(root), label=spec.name):
            with CaptureSession(out_dir=str(root), label=spec.name):
                campaign.run()

    return _run


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> DeterministicRng:
    """A deterministic random source with a fixed seed."""
    return DeterministicRng(1234)
