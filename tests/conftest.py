"""Shared fixtures for the test suite.

Fixtures deliberately use tiny graphs with hand-checkable motif content;
dataset-backed tests use small scales so the whole suite stays fast.

The session-scoped, parametrized :func:`storage_backend` fixture runs the
entire suite once per registered storage backend (``REPRO_STORAGE=list``,
``REPRO_STORAGE=columnar``, and — when NumPy is importable —
``REPRO_STORAGE=numpy``), so every seed test doubles as a parity check of
the accelerated engines.  When ``REPRO_STORAGE`` is already set in the
environment the suite runs once, pinned to that backend — this is how the
CI matrix runs one backend per job instead of every backend in every job.
"""

from __future__ import annotations

import functools
import os

import pytest

try:
    from hypothesis import settings as _hypothesis_settings

    # Reproducible property testing: the "ci" profile pins a derandomized
    # seed so every CI run replays the identical example sequence, and the
    # "thorough" profile raises the example budget for the scheduled
    # (cron) leg.  Select with HYPOTHESIS_PROFILE=ci|thorough; unset runs
    # the library defaults (randomized, 100 examples) for local fuzzing.
    _hypothesis_settings.register_profile(
        "ci", derandomize=True, deadline=None, max_examples=100
    )
    _hypothesis_settings.register_profile(
        "thorough", derandomize=True, deadline=None, max_examples=500
    )
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default")
    )
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass

from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.registry import get_dataset
from repro.storage import ENV_VAR, available_backends


def _session_backends() -> list[str]:
    forced = os.environ.get(ENV_VAR)
    if forced:
        return [forced]
    return [b for b in ("list", "columnar", "numpy") if b in available_backends()]


@pytest.fixture(scope="session", autouse=True, params=_session_backends())
def storage_backend(request: pytest.FixtureRequest):
    """Default storage backend for every graph built during the session."""
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = request.param
    yield request.param
    if previous is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = previous


@pytest.fixture
def triangle_graph() -> TemporalGraph:
    """One temporal triangle 0→1, 1→2, 0→2 at t = 10, 20, 25."""
    return TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 20), (0, 2, 25)])


@pytest.fixture
def star_graph() -> TemporalGraph:
    """A hub (node 0) contacting four leaves in quick succession."""
    return TemporalGraph.from_tuples(
        [(0, 1, 10), (0, 2, 12), (0, 3, 14), (0, 4, 16)]
    )


@pytest.fixture
def conversation_graph() -> TemporalGraph:
    """A two-person volley with an interruption from a third node.

    Events: 0→1 (t=10), 1→0 (t=20), 0→2 (t=25), 0→1 (t=30), 1→0 (t=40).
    """
    return TemporalGraph.from_tuples(
        [(0, 1, 10), (1, 0, 20), (0, 2, 25), (0, 1, 30), (1, 0, 40)]
    )


@pytest.fixture
def repeated_edge_graph() -> TemporalGraph:
    """Repeated edge with a cross edge — exercises the CDG restriction.

    Events: 0→1 (t=0), 2→3 (t=5), 0→1 (t=10), 2→3 (t=15), 1→2 (t=20).
    """
    return TemporalGraph.from_tuples(
        [(0, 1, 0), (2, 3, 5), (0, 1, 10), (2, 3, 15), (1, 2, 20)]
    )


@pytest.fixture
def loose() -> TimingConstraints:
    """Constraints wide enough to admit everything in the tiny fixtures."""
    return TimingConstraints(delta_c=1000.0, delta_w=1000.0)


@pytest.fixture(scope="session")
def small_sms(storage_backend: str) -> TemporalGraph:
    """A small message-network dataset (shared across the session)."""
    pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")
    return get_dataset("sms-copenhagen", scale=0.15)


@pytest.fixture(scope="session")
def quarter_sms(storage_backend: str) -> TemporalGraph:
    """The message network at scale 0.25 (2250 events), the census workload."""
    pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")
    return get_dataset("sms-copenhagen", scale=0.25)


@pytest.fixture(scope="session")
def small_email(storage_backend: str) -> TemporalGraph:
    """A small email dataset with same-timestamp carbon copies."""
    pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")
    return get_dataset("email", scale=0.1)


@pytest.fixture(scope="session")
def small_bitcoin(storage_backend: str) -> TemporalGraph:
    """A small no-repeated-edges ratings dataset."""
    pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")
    return get_dataset("bitcoin-otc", scale=0.2)


@pytest.fixture(scope="session")
def paper_scale():
    """Run an experiment at scale 0.5, where its paper shapes are calibrated.

    Each result is computed once per session, on numpy whatever the session's
    backends, so these runs cost the same on every pass and every CI leg.
    Backend parity of the experiments stays with the per-backend tests that
    run them at smaller scales.
    """
    pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")
    from repro.experiments import run_experiment

    @functools.cache
    def run(experiment_id: str, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(ENV_VAR, "numpy")
            return run_experiment(experiment_id, scale=0.5, **kwargs)

    return run


def make_events(*triples: tuple[int, int, float]) -> list[Event]:
    """Terse Event list construction for inline test data."""
    return [Event(*t) for t in triples]
