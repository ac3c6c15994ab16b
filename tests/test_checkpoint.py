"""Crash-safe solver checkpoints: atomicity, CRC, and bit-identical resume.

The headline contract: a ``flow_htp`` run killed at *any* round boundary
and resumed from its checkpoint directory produces output bit-identical
to the uninterrupted run — same cost, same partition, same metric
summaries, same counters-visible behaviour.  One level down, a
``compute_spreading_metric`` resumed from a round state that went
through JSON ends with byte-identical ``lengths`` and ``flows``.  The
kill is simulated with an ``abort_check`` that trips after N polls (the same cooperative exit a
deadline or cancel uses), which exercises exactly the state a SIGKILL
would leave behind: the newest atomic checkpoint file.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core import _kernel as native_kernel
from repro.core.checkpoint import (
    FlowCheckpointer,
    MetricCheckpoint,
    decode_array,
    decode_rng_state,
    encode_array,
    encode_rng_state,
    load_flow_resume,
    load_latest_checkpoint,
    newest_checkpoint_age,
    read_checkpoint_file,
    run_fingerprint,
    write_checkpoint_file,
)
from repro.core.flow_htp import FlowHTPConfig, flow_htp
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import (
    ENGINES,
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.errors import CheckpointError, SolverAborted
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.generators import planted_hierarchy_hypergraph


@pytest.fixture(scope="module")
def instance():
    hypergraph = planted_hierarchy_hypergraph(48, height=2, seed=3)
    spec = binary_hierarchy(hypergraph.total_size(), height=2)
    config = FlowHTPConfig(
        iterations=2,
        constructions_per_metric=2,
        seed=11,
        metric=SpreadingMetricConfig(delta=0.3, max_rounds=24, seed=11),
    )
    return hypergraph, spec, config


@pytest.fixture(scope="module")
def reference(instance):
    hypergraph, spec, config = instance
    return flow_htp(hypergraph, spec, config)


def _assert_identical(result, reference):
    assert result.cost == reference.cost
    assert result.iteration_costs == reference.iteration_costs
    assert result.metric_objectives == reference.metric_objectives
    assert result.partition.to_dict() == reference.partition.to_dict()
    assert result.metric_results == reference.metric_results


class TestEncoding:
    def test_array_round_trip_is_bit_exact(self):
        values = np.array([0.1, 1e-300, np.pi, -0.0, 7.5e200])
        decoded = decode_array(encode_array(values))
        assert decoded.dtype == values.dtype
        assert decoded.tobytes() == values.tobytes()

    def test_rng_state_round_trip(self):
        rng = random.Random(42)
        rng.random()
        state = rng.getstate()
        assert decode_rng_state(encode_rng_state(state)) == state
        clone = random.Random()
        clone.setstate(decode_rng_state(encode_rng_state(state)))
        assert [clone.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]


class TestCheckpointFiles:
    def test_atomic_write_and_read(self, tmp_path):
        payload = {"kind": "test", "value": [1, 2, 3]}
        path = write_checkpoint_file(tmp_path, 4, payload)
        assert path.name == "ckpt-00000004.json"
        assert list(tmp_path.glob("*.tmp")) == []
        assert read_checkpoint_file(path) == payload

    def test_crc_failure_raises(self, tmp_path):
        path = write_checkpoint_file(tmp_path, 1, {"a": 1})
        doc = json.loads(path.read_text())
        doc["payload"]["a"] = 2  # payload no longer matches the CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint_file(path)

    def test_torn_file_is_discarded_not_raised(self, tmp_path):
        counters = PerfCounters()
        write_checkpoint_file(tmp_path, 1, {"fingerprint": "f", "n": 1})
        torn = write_checkpoint_file(
            tmp_path, 2, {"fingerprint": "f", "n": 2}
        )
        torn.write_text(torn.read_text()[:-9])  # simulate a torn write
        seq, payload = load_latest_checkpoint(
            tmp_path, fingerprint="f", counters=counters
        )
        assert (seq, payload["n"]) == (1, 1)
        assert counters.checkpoints_discarded == 1

    def test_stale_fingerprint_is_skipped(self, tmp_path):
        counters = PerfCounters()
        write_checkpoint_file(tmp_path, 1, {"fingerprint": "old", "n": 1})
        assert (
            load_latest_checkpoint(
                tmp_path, fingerprint="new", counters=counters
            )
            is None
        )
        assert counters.checkpoints_discarded == 1

    def test_non_object_payload_is_discarded_not_raised(self, tmp_path):
        counters = PerfCounters()
        write_checkpoint_file(tmp_path, 1, {"fingerprint": "f", "n": 1})
        listed = write_checkpoint_file(tmp_path, 2, ["fingerprint", "f"])
        with pytest.raises(CheckpointError, match="not an object"):
            read_checkpoint_file(listed)
        seq, payload = load_latest_checkpoint(
            tmp_path, fingerprint="f", counters=counters
        )
        assert (seq, payload["n"]) == (1, 1)
        assert counters.checkpoints_discarded == 1

    def test_missing_directory_is_none(self, tmp_path):
        assert load_latest_checkpoint(tmp_path / "absent") is None
        assert newest_checkpoint_age(tmp_path / "absent") is None

    def test_newest_checkpoint_age(self, tmp_path):
        write_checkpoint_file(tmp_path, 1, {"n": 1})
        age = newest_checkpoint_age(tmp_path)
        assert age is not None and 0 <= age < 60


class TestFingerprint:
    def test_fingerprint_excludes_engine(self, instance):
        hypergraph, spec, config = instance
        base = run_fingerprint(hypergraph, spec, config)
        other_engine = FlowHTPConfig(
            iterations=config.iterations,
            constructions_per_metric=config.constructions_per_metric,
            seed=config.seed,
            metric=SpreadingMetricConfig(
                delta=0.3, max_rounds=24, seed=11, engine="python"
            ),
        )
        # Engines are bit-identical for a fixed seed, so cross-engine
        # resume is allowed: the fingerprint must not see the engine.
        assert run_fingerprint(hypergraph, spec, other_engine) == base

    def test_fingerprint_sees_solver_knobs(self, instance):
        hypergraph, spec, config = instance
        base = run_fingerprint(hypergraph, spec, config)
        changed = FlowHTPConfig(
            iterations=config.iterations,
            constructions_per_metric=config.constructions_per_metric,
            seed=config.seed + 1,
            metric=SpreadingMetricConfig(delta=0.3, max_rounds=24, seed=12),
        )
        assert run_fingerprint(hypergraph, spec, changed) != base


@pytest.fixture(scope="module")
def total_polls(instance):
    """Abort polls an uninterrupted run makes (the kill-point space)."""
    hypergraph, spec, config = instance
    polls = {"n": 0}

    def count():
        polls["n"] += 1
        return False

    flow_htp(hypergraph, spec, config, abort_check=count)
    return polls["n"]


class TestBitIdenticalResume:
    @pytest.mark.parametrize("fraction", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_killed_run_resumes_bit_identical(
        self, tmp_path, instance, reference, total_polls, fraction
    ):
        # Kill points are spread across the whole run, so every region
        # of the round loop (early, mid, final iteration) gets covered
        # whatever the instance's actual round count turns out to be.
        kill_after = max(1, min(total_polls - 1, int(total_polls * fraction)))
        hypergraph, spec, config = instance
        ckpt = tmp_path / f"ckpt-{kill_after}"
        polls = {"n": 0}

        def killer():
            polls["n"] += 1
            if polls["n"] > kill_after:
                return "simulated crash"
            return False

        with pytest.raises(SolverAborted, match="simulated crash"):
            flow_htp(
                hypergraph,
                spec,
                config,
                checkpoint_dir=ckpt,
                abort_check=killer,
            )
        result = flow_htp(
            hypergraph, spec, config, checkpoint_dir=ckpt, resume_from=ckpt
        )
        _assert_identical(result, reference)
        assert result.perf.checkpoint_resumes >= 1

    def test_repeated_kills_still_converge(
        self, tmp_path, instance, reference
    ):
        hypergraph, spec, config = instance
        ckpt = tmp_path / "ckpt-repeated"
        survived = None
        for _round in range(40):
            polls = {"n": 0}

            def killer():
                polls["n"] += 1
                return "crash again" if polls["n"] > 2 else False

            try:
                survived = flow_htp(
                    hypergraph,
                    spec,
                    config,
                    checkpoint_dir=ckpt,
                    resume_from=ckpt,
                    abort_check=killer,
                )
                break
            except SolverAborted:
                continue
        assert survived is not None, "run never finished despite resumes"
        _assert_identical(survived, reference)

    def test_uninterrupted_checkpointed_run_matches(
        self, tmp_path, instance, reference
    ):
        hypergraph, spec, config = instance
        result = flow_htp(
            hypergraph, spec, config, checkpoint_dir=tmp_path / "c"
        )
        _assert_identical(result, reference)
        assert result.perf.checkpoints_written > 0

    def test_resume_from_empty_directory_is_cold_start(
        self, tmp_path, instance, reference
    ):
        hypergraph, spec, config = instance
        empty = tmp_path / "never-written"
        result = flow_htp(hypergraph, spec, config, resume_from=empty)
        _assert_identical(result, reference)

    def test_stale_checkpoints_are_ignored(
        self, tmp_path, instance, reference
    ):
        hypergraph, spec, config = instance
        ckpt = tmp_path / "stale"
        counters_before = PerfCounters()
        write_checkpoint_file(
            ckpt,
            999,
            {"kind": "flow-htp", "fingerprint": "not-this-run", "n": 1},
        )
        result = flow_htp(
            hypergraph, spec, config, checkpoint_dir=ckpt, resume_from=ckpt
        )
        _assert_identical(result, reference)
        assert result.perf.checkpoints_discarded >= 1
        del counters_before

    def test_resumes_from_an_old_format_checkpoint(
        self, tmp_path, instance, reference, total_polls
    ):
        """A frame whose finished outcomes still carry base64 ``lengths``
        and ``flows`` (the format before results dropped the arrays)
        resumes through the same decoder to the same result."""
        hypergraph, spec, config = instance
        fingerprint = run_fingerprint(hypergraph, spec, config)
        ckpt = tmp_path / "old-format"
        polls = {"n": 0}

        def killer():
            polls["n"] += 1
            return "crash" if polls["n"] > int(total_polls * 0.75) else False

        with pytest.raises(SolverAborted):
            flow_htp(
                hypergraph, spec, config, checkpoint_dir=ckpt,
                abort_check=killer,
            )
        scalars = ["injections", "objective", "rounds", "satisfied"]
        seq, payload = load_latest_checkpoint(ckpt, fingerprint=fingerprint)
        assert payload["completed"], "kill landed before iteration 1 ended"
        in_progress = payload["metric"]
        for outcome in payload["completed"]:
            assert sorted(outcome["metric"]) == scalars
            outcome["metric"]["lengths"] = in_progress["lengths"]
            outcome["metric"]["flows"] = in_progress["flows"]
        write_checkpoint_file(ckpt, seq + 1, payload)
        result = flow_htp(
            hypergraph, spec, config, checkpoint_dir=ckpt, resume_from=ckpt
        )
        _assert_identical(result, reference)
        assert result.perf.checkpoints_discarded == 0
        _seq, final = load_latest_checkpoint(ckpt, fingerprint=fingerprint)
        assert len(final["completed"]) == config.iterations
        for outcome in final["completed"]:
            assert sorted(outcome["metric"]) == scalars

    @pytest.mark.parametrize(
        "broken",
        [{"partition": {"vertices": []}}, {"counters": "x"}],
    )
    def test_undecodable_outcome_starts_cold(
        self, tmp_path, instance, reference, broken
    ):
        """A CRC-valid frame whose finished outcome does not decode (say,
        one replicated by a faulty peer) is stale: the run starts cold."""
        hypergraph, spec, config = instance
        ckpt = tmp_path / "undecodable"
        outcome = {
            "cost": 1.0,
            "partition": reference.partition.to_dict(),
            "metric": reference.metric_results[0].to_dict(),
            "counters": {},
        }
        outcome.update(broken)
        write_checkpoint_file(ckpt, 1, {
            "kind": "flow-htp",
            "fingerprint": run_fingerprint(hypergraph, spec, config),
            "iteration": 1,
            "completed": [outcome],
            "metric": None,
        })
        result = flow_htp(hypergraph, spec, config, resume_from=ckpt)
        _assert_identical(result, reference)
        assert result.perf.checkpoints_discarded == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"completed": 5},
            {"iteration": "x"},
            {"iteration": 99, "completed": []},
            {"iteration": 0},
            {"metric": "x"},
        ],
        ids=[
            "completed-not-a-list",
            "iteration-not-an-int",
            "iteration-past-the-run",
            "iteration-behind-completed",
            "metric-not-an-object",
        ],
    )
    def test_inconsistent_frame_starts_cold(
        self, tmp_path, instance, reference, change
    ):
        """A CRC-valid, right-fingerprint frame whose top level the
        checkpointer could not have written (say, one pushed by a faulty
        peer over ``PUT /ckpt``) is stale: counted once, and the run
        starts cold instead of raising or resuming into a wrong result."""
        hypergraph, spec, config = instance
        finished = tmp_path / "finished"
        flow_htp(hypergraph, spec, config, checkpoint_dir=finished)
        fingerprint = run_fingerprint(hypergraph, spec, config)
        _seq, payload = load_latest_checkpoint(finished, fingerprint=fingerprint)
        assert payload["iteration"] == len(payload["completed"]) == 2
        payload.update(change)
        ckpt = tmp_path / "inconsistent"
        write_checkpoint_file(ckpt, 1, payload)
        result = flow_htp(hypergraph, spec, config, resume_from=ckpt)
        _assert_identical(result, reference)
        assert len(result.iteration_costs) == config.iterations
        assert result.perf.checkpoints_discarded == 1
        assert result.perf.checkpoint_resumes == 0

    def test_completed_run_resume_skips_solver(self, tmp_path, instance):
        hypergraph, spec, config = instance
        ckpt = tmp_path / "completed"
        first = flow_htp(hypergraph, spec, config, checkpoint_dir=ckpt)
        second = flow_htp(
            hypergraph, spec, config, checkpoint_dir=ckpt, resume_from=ckpt
        )
        _assert_identical(second, first)
        # Everything was replayed from the final checkpoint: no fresh
        # metric work was needed for already-completed iterations.
        assert second.perf.checkpoint_resumes >= 1


class TestMetricResume:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_resumed_metric_is_byte_identical(self, engine):
        if engine == "native" and not native_kernel.available():
            pytest.skip("native kernel not built")
        # 8 rounds, so a mid-run state has visit-order shuffles ahead.
        hypergraph = planted_hierarchy_hypergraph(48, height=3, seed=3)
        spec = binary_hierarchy(hypergraph.total_size(), height=3)
        graph = to_graph(hypergraph, rng=random.Random(11))
        config = SpreadingMetricConfig(
            alpha=0.3, delta=0.05, max_rounds=24, seed=11, engine=engine
        )
        frames = []

        def capture(state, final):
            # The hook hands over live arrays: serialize them now, as
            # the checkpointer does.
            if not final:
                frames.append(json.dumps(state.to_payload()))

        uninterrupted = compute_spreading_metric(
            graph, spec, config, rng=random.Random(config.seed),
            on_round=capture,
        )
        assert len(frames) >= 4, "too few rounds to resume mid-run"
        state = MetricCheckpoint.from_payload(
            json.loads(frames[len(frames) // 2])
        )
        resumed = compute_spreading_metric(
            graph, spec, config, rng=random.Random(config.seed),
            resume=state,
        )
        assert resumed.lengths.tobytes() == uninterrupted.lengths.tobytes()
        assert resumed.flows.tobytes() == uninterrupted.flows.tobytes()
        assert resumed.summary() == uninterrupted.summary()


class TestAbortSemantics:
    def test_abort_leaves_final_checkpoint(self, tmp_path, instance):
        hypergraph, spec, config = instance
        ckpt = tmp_path / "final"
        polls = {"n": 0}

        def killer():
            polls["n"] += 1
            return "stop" if polls["n"] > 3 else False

        with pytest.raises(SolverAborted):
            flow_htp(
                hypergraph,
                spec,
                config,
                checkpoint_dir=ckpt,
                abort_check=killer,
            )
        loaded = load_flow_resume(
            ckpt, run_fingerprint(hypergraph, spec, config), config.iterations
        )
        assert loaded is not None
        metric_doc = loaded.get("metric")
        if metric_doc is not None:
            restored = MetricCheckpoint.from_payload(metric_doc)
            assert restored.flows.shape[0] > 0

    def test_abort_without_checkpoint_dir_still_raises(self, instance):
        hypergraph, spec, config = instance
        with pytest.raises(SolverAborted, match="immediately"):
            flow_htp(
                hypergraph, spec, config, abort_check=lambda: "immediately"
            )


class TestFlowCheckpointerPruning:
    def test_keeps_only_newest_files(self, tmp_path):
        checkpointer = FlowCheckpointer(
            tmp_path, fingerprint="f", every=1, keep=3
        )
        for index in range(8):
            checkpointer._write({"n": index})
        remaining = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert len(remaining) == 3
        seq, payload = load_latest_checkpoint(tmp_path, fingerprint="f")
        assert payload["metric"] == {"n": 7}
