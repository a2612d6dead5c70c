"""Shared fixtures and test-session configuration."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.audio.signal import SpeakerProfile, synthesize_speech
from repro.ids import IdGenerator
from repro.obs import context as obs_context
from repro.workstation.station import Workstation

# Hypothesis profiles: `dev` (the default) keeps the library defaults
# for fast local iteration; `ci` removes the per-example deadline
# (shared runners have noisy clocks), derandomizes so a red build is
# reproducible from the log alone, and prints the @reproduce_failure
# blob for any counterexample.  Select with HYPOTHESIS_PROFILE=ci.
settings.register_profile(
    "ci", deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("dev", settings.default)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _reset_ambient_span_context():
    """Clear the ambient obs binding around every test.

    The span-context contextvar survives across tests in the same
    thread; a test that exercises an obs-instrumented path after an
    earlier test leaked a binding would silently parent its spans on a
    foreign trace.  Reset on both sides so neither direction leaks.
    """
    obs_context.reset()
    yield
    obs_context.reset()


@pytest.fixture
def generator() -> IdGenerator:
    """A fresh deterministic id generator."""
    return IdGenerator("test")


@pytest.fixture
def workstation() -> Workstation:
    """A fresh virtual workstation."""
    return Workstation()


@pytest.fixture
def tiny_disk():
    """An optical platter far too small to hold a real document."""
    from repro.storage.blockdev import DiskGeometry
    from repro.storage.optical import OpticalDisk

    return OpticalDisk(
        DiskGeometry(
            capacity_bytes=10_000,
            max_seek_s=0.1,
            rotational_latency_s=0.01,
            transfer_bytes_per_s=1_000_000,
        )
    )


@pytest.fixture
def office_archive():
    """An archiver holding one stored office document: ``(archiver, obj)``."""
    from repro.scenarios import build_office_document
    from repro.server import Archiver

    archiver = Archiver()
    obj = build_office_document()
    archiver.store(obj)
    return archiver, obj


@pytest.fixture
def companding_calls(monkeypatch) -> list:
    """Every array passed to ``repro.audio.codec.mu_law_encode``."""
    from repro.audio import codec

    calls = []
    encode = codec.mu_law_encode

    def counting(samples):
        calls.append(samples)
        return encode(samples)

    monkeypatch.setattr(codec, "mu_law_encode", counting)
    return calls


@pytest.fixture(scope="session")
def short_speech():
    """A small recording with two paragraphs (session-cached)."""
    return synthesize_speech(
        "Hello world today. This is a short test.\n\n"
        "Second paragraph speaks here. It also has two sentences.",
        seed=1,
    )


@pytest.fixture(scope="session")
def two_speaker_recordings():
    """The same script voiced by a fast and a slow speaker."""
    script = (
        "The optical disk stores voice and images.\n\n"
        "The magnetic disk caches the busiest objects.\n\n"
        "The network ships only the bytes a view needs."
    )
    fast = SpeakerProfile(
        name="fast", syllable_duration=0.12, word_gap=0.07,
        sentence_gap=0.3, paragraph_gap=0.8, jitter=0.1,
    )
    slow = SpeakerProfile(
        name="slow", syllable_duration=0.2, word_gap=0.18,
        sentence_gap=0.6, paragraph_gap=1.6, jitter=0.1,
    )
    return (
        synthesize_speech(script, profile=fast, seed=2),
        synthesize_speech(script, profile=slow, seed=3),
    )
