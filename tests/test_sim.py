"""The whole-system simulation harness, end to end.

Three layers of self-test: the schedule/repro machinery is exactly
replayable, the current system survives chaos sweeps with zero
violations, and — the part that keeps the harness honest — a
deliberately injected write-ahead-logging regression is caught by the
oracle and auto-shrunk to a handful of steps.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import (
    ChaosSchedule,
    ModelArchive,
    ObjectSpec,
    SimConfig,
    SimStep,
    SimWorld,
    load_repro,
    replay_repro,
    run_sim,
    save_repro,
    shrink,
)
from repro.sim.checker import check_world

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# schedules and repro files
# ----------------------------------------------------------------------


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.generate(7, n_steps=40)
        b = ChaosSchedule.generate(7, n_steps=40)
        assert a.steps == b.steps

    def test_different_seeds_differ(self):
        a = ChaosSchedule.generate(1, n_steps=40)
        b = ChaosSchedule.generate(2, n_steps=40)
        assert a.steps != b.steps

    def test_opens_with_text_and_voice_stores(self):
        schedule = ChaosSchedule.generate(3, n_steps=10)
        assert schedule.steps[0].kind == "store"
        assert schedule.steps[0].params["media"] == "text"
        assert schedule.steps[1].kind == "store"
        assert schedule.steps[1].params["media"] == "voice"

    def test_dict_round_trip(self):
        schedule = ChaosSchedule.generate(11, n_steps=25)
        clone = ChaosSchedule.from_dict(schedule.to_dict())
        assert clone.seed == schedule.seed
        assert clone.steps == schedule.steps

    def test_json_serializable(self):
        schedule = ChaosSchedule.generate(5, n_steps=40)
        text = json.dumps(schedule.to_dict())
        assert ChaosSchedule.from_dict(json.loads(text)).steps == schedule.steps

    def test_repro_file_round_trip(self, tmp_path):
        schedule = ChaosSchedule.generate(9, n_steps=12)
        config = SimConfig(seed=9)
        path = save_repro(
            tmp_path / "repro.json",
            config=config.to_dict(),
            schedule=schedule,
            violation={"invariant": "tiling", "detail": "x", "step_index": 3},
        )
        loaded_config, loaded_schedule, violation = load_repro(path)
        assert SimConfig.from_dict(loaded_config) == config
        assert loaded_schedule.steps == schedule.steps
        assert violation["invariant"] == "tiling"

    def test_repro_file_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro.sim/1"):
            load_repro(path)


class TestSimConfig:
    def test_round_trip(self):
        config = SimConfig(seed=4, n_nodes=4, bug="drop_intent")
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        data = SimConfig().to_dict()
        data["future_field"] = 1
        assert SimConfig.from_dict(data) == SimConfig()


# ----------------------------------------------------------------------
# the model oracle
# ----------------------------------------------------------------------


class TestModelArchive:
    def test_worm_accepts_append_only_growth(self):
        model = ModelArchive()
        assert model.check_worm(0, b"abc") is None
        assert model.check_worm(0, b"abcdef") is None

    def test_worm_rejects_shrink(self):
        model = ModelArchive()
        model.check_worm(0, b"abcdef")
        assert "shrank" in model.check_worm(0, b"abc")

    def test_worm_rejects_rewritten_prefix(self):
        model = ModelArchive()
        model.check_worm(0, b"abcdef")
        assert "changed" in model.check_worm(0, b"abXdef!")

    def test_version_tokens_must_not_regress(self):
        model = ModelArchive()
        assert model.check_version(0, "obj", 1) is None
        assert model.check_version(0, "obj", 2) is None
        assert "backwards" in model.check_version(0, "obj", 1)
        # Another node's copy has its own watermark.
        assert model.check_version(1, "obj", 1) is None

    def test_ack_order_is_stable(self):
        model = ModelArchive()
        for name in ("a", "b", "c"):
            model.on_store_attempt(name, ObjectSpec.make("text", [["x"]]))
            model.on_store_ack(name)
        model.on_store_ack("a")  # idempotent
        assert model.acked == ["a", "b", "c"]

    def test_expected_channel_terms(self):
        model = ModelArchive()
        model.on_store_attempt(
            "v", ObjectSpec.make("voice", [["alpha", "beta"], ["alpha"]])
        )
        terms = model.expected_channel_terms("v")
        assert terms == {"text": set(), "voice": {"alpha", "beta"}}


# ----------------------------------------------------------------------
# clean sweeps on the current system
# ----------------------------------------------------------------------


class TestCleanRuns:
    def test_benign_schedule_is_clean(self):
        steps = [
            SimStep("store", {"media": "text", "units": [["alpha", "beta"]]}),
            SimStep("store", {"media": "voice", "units": [["gamma"]]}),
            SimStep("recognize", {"pick": 0}),
            SimStep("open", {"pick": 0, "station": 1}),
            SimStep("search", {"pick": 0, "term": "alpha", "channel": "both"}),
            SimStep("browse", {"pick": 1, "station": 2}),
            SimStep("quiesce", {}),
        ]
        result = run_sim(steps, SimConfig(seed=0))
        assert result.ok, str(result.violation)
        assert result.tolerated == []

    def test_small_chaos_sweep_is_clean(self):
        for seed in range(6):
            schedule = ChaosSchedule.generate(seed, n_steps=40)
            result = run_sim(schedule, SimConfig(seed=seed))
            assert result.ok, f"seed {seed}: {result.violation}"

    def test_runs_are_deterministic(self):
        schedule = ChaosSchedule.generate(2, n_steps=40)
        a = run_sim(schedule, SimConfig(seed=2))
        b = run_sim(schedule, SimConfig(seed=2))
        assert a.ok and b.ok
        assert a.tolerated == b.tolerated

    def test_shrink_returns_none_for_passing_schedule(self):
        schedule = ChaosSchedule.generate(0, n_steps=15)
        assert shrink(schedule.steps, SimConfig(seed=0)) is None

    def test_stale_decoded_entry_is_a_cache_violation(self):
        # What a missed invalidation of the decoded tier would leave
        # behind.  A voice piece's samples carry no terms, so no check
        # that runs before the cache check sees the damage.
        schedule = ChaosSchedule.generate(1, n_steps=40)
        world = SimWorld(SimConfig(seed=1))
        for index, step in enumerate(schedule):
            assert world.apply(index, step) is None
        assert world.quiesce(len(schedule.steps)) is None
        node, key = next(
            (node, f"abs/{location.offset}/{location.length}")
            for _, node in sorted(world.router.nodes.items())
            for object_id in node.object_ids()
            for location in node.archiver.record(object_id).descriptor.locations
            if location.tag.startswith("voice/")
            and f"abs/{location.offset}/{location.length}"
            in node.archiver.decoded_pieces
        )
        tier = node.archiver.decoded_pieces
        data = tier.get(key)
        tier.put(key, bytes([data[0] ^ 0xFF]) + data[1:])
        violation = check_world(world, len(schedule.steps))
        assert violation is not None
        assert violation.invariant == "cache"
        assert violation.node_id == node.node_id
        assert key in violation.detail

    @pytest.mark.slow
    def test_medium_sweep_is_clean(self):
        for seed in range(6, 40):
            schedule = ChaosSchedule.generate(seed, n_steps=40)
            result = run_sim(schedule, SimConfig(seed=seed))
            assert result.ok, f"seed {seed}: {result.violation}"


# ----------------------------------------------------------------------
# the harness catches an injected regression and shrinks it
# ----------------------------------------------------------------------


class TestInjectedRegression:
    """``bug="drop_intent"`` builds every node with a journal that
    silently drops store BEGIN intents: data reaches the platter and
    the client is acked, but no write-ahead evidence backs the write,
    so the first crash loses the object (and recovery cannot even
    account for its bytes).  The oracle must catch it, and the
    shrinker must reduce the 40-step chaos schedule to a handful of
    steps."""

    CONFIG = SimConfig(seed=3, bug="drop_intent")

    def test_regression_is_caught(self):
        schedule = ChaosSchedule.generate(3, n_steps=40)
        result = run_sim(schedule, self.CONFIG)
        assert not result.ok
        assert result.violation.invariant in (
            "durability", "replication", "tiling"
        )

    def test_regression_shrinks_small_and_replays(self, tmp_path):
        schedule = ChaosSchedule.generate(3, n_steps=40)
        minimal = shrink(schedule.steps, self.CONFIG)
        assert minimal is not None
        assert len(minimal.steps) <= 10
        # The shrunk schedule still fails with the same invariant.
        rerun = run_sim(minimal.steps, self.CONFIG)
        assert not rerun.ok
        assert rerun.violation.invariant == minimal.violation.invariant
        # And the written repro file reproduces it from disk alone.
        path = save_repro(
            tmp_path / "repro.json",
            config=self.CONFIG.to_dict(),
            schedule=ChaosSchedule(3, minimal.steps),
            violation=minimal.violation.to_dict(),
        )
        replayed = replay_repro(path)
        assert not replayed.ok
        assert replayed.violation.invariant == minimal.violation.invariant
