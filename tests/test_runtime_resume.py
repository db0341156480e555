"""Crash → resume: the runtime's fault-tolerance acceptance suite.

The fast tests stage in-process faults (``raise`` actions) against
:func:`repro.runtime.run_experiment` and assert the core contract: a run
killed at any stage boundary, resumed with the same spec, produces final
artifacts byte-identical to an uninterrupted run — without recomputing
the stages whose checkpoints survived.

The ``slow`` tests drive the real ``repro experiment`` CLI in
subprocesses with ``exit`` faults (genuine ``os._exit`` mid-run, exactly
like a power loss) and pin the end-to-end byte-identity guarantee the CI
robustness job enforces.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mining.generation import mine_class_patterns
from repro.obs import core as _obs
from repro.runtime import (
    ArtifactCache,
    CorruptArtifactError,
    ExperimentSpec,
    ResumeMismatchError,
    ResumeMissingError,
    run_experiment,
)
from repro.testing.faults import (
    FAULT_EXIT_CODE,
    Fault,
    InjectedFault,
    corrupt_artifact,
    faults_env,
    injected_faults,
)

FINAL_ARTIFACTS = ("patterns.json", "selection.json", "report.json")

SPEC = ExperimentSpec(
    dataset="planted",
    min_support=0.3,
    folds=2,
    max_length=3,
)


def _artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in FINAL_ARTIFACTS}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory, planted_transactions):
    """One uninterrupted reference run; its artifacts are the oracle."""
    out = tmp_path_factory.mktemp("baseline")
    result = run_experiment(planted_transactions, SPEC, out)
    return result, _artifact_bytes(out)


class TestResumeEquivalence:
    def test_resume_of_complete_run_is_byte_identical(
        self, tmp_path, planted_transactions, baseline
    ):
        _, expected = baseline
        out = tmp_path / "run"
        run_experiment(planted_transactions, SPEC, out)
        resumed = run_experiment(planted_transactions, SPEC, out, resume=True)
        assert _artifact_bytes(out) == expected
        assert resumed.mean_accuracy == baseline[0].mean_accuracy

    @pytest.mark.parametrize("stage", ["mine", "select", "fold:0", "report"])
    def test_crash_at_any_stage_then_resume_is_byte_identical(
        self, tmp_path, planted_transactions, baseline, stage
    ):
        out = tmp_path / "run"
        with injected_faults(
            [Fault(f"stage:{stage}", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_experiment(planted_transactions, SPEC, out)
        resumed = run_experiment(planted_transactions, SPEC, out, resume=True)
        assert _artifact_bytes(out) == baseline[1]
        assert resumed.run_fingerprint == baseline[0].run_fingerprint

    def test_resume_restores_completed_stages_from_cache(
        self, tmp_path, planted_transactions
    ):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stage:select", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_experiment(planted_transactions, SPEC, out)
        with _obs.session() as sess:
            run_experiment(planted_transactions, SPEC, out, resume=True)
        skipped = {
            e["attrs"]["stage"]
            for e in sess.events
            if e["kind"] == "stage_skipped"
        }
        # every class partition and the selection stage were replayed, not
        # recomputed
        assert "mine_partition" in skipped
        assert "select" in skipped

    def test_crashed_partition_checkpoints_are_reused_verbatim(
        self, tmp_path, planted_transactions
    ):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stage:mine", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_experiment(planted_transactions, SPEC, out)
        partition_dir = out / "cache" / "mine_partition"
        before = {p.name: p.read_bytes() for p in partition_dir.iterdir()}
        assert before  # mining finished before the stage fault fired
        run_experiment(planted_transactions, SPEC, out, resume=True)
        after = {p.name: p.read_bytes() for p in partition_dir.iterdir()}
        assert after == before


class TestResumeValidation:
    def test_resume_without_manifest_fails(self, tmp_path, planted_transactions):
        with pytest.raises(ResumeMissingError, match="no run manifest"):
            run_experiment(
                planted_transactions, SPEC, tmp_path / "nothing", resume=True
            )

    def test_resume_with_different_spec_fails(
        self, tmp_path, planted_transactions
    ):
        out = tmp_path / "run"
        run_experiment(planted_transactions, SPEC, out)
        other = ExperimentSpec(
            dataset="planted", min_support=0.4, folds=2, max_length=3
        )
        with pytest.raises(ResumeMismatchError, match="different"):
            run_experiment(planted_transactions, other, out, resume=True)

    def test_resume_with_corrupt_checkpoint_fails(
        self, tmp_path, planted_transactions
    ):
        out = tmp_path / "run"
        run_experiment(planted_transactions, SPEC, out)
        victim = sorted((out / "cache" / "fold").iterdir())[0]
        corrupt_artifact(victim, seed=2)
        with pytest.raises(CorruptArtifactError):
            run_experiment(planted_transactions, SPEC, out, resume=True)

    def test_fresh_run_clears_stale_artifacts(
        self, tmp_path, planted_transactions, baseline
    ):
        out = tmp_path / "run"
        run_experiment(planted_transactions, SPEC, out)
        victim = sorted((out / "cache" / "fold").iterdir())[0]
        corrupt_artifact(victim, seed=2)
        # a non-resume run must not trust (or trip over) old state
        run_experiment(planted_transactions, SPEC, out)
        assert _artifact_bytes(out) == baseline[1]


class TestGracefulDegradation:
    def test_budget_trip_degrades_partition_to_items_only(
        self, planted_transactions
    ):
        strict = mine_class_patterns(planted_transactions, min_support=0.2)
        with _obs.session() as sess:
            with pytest.warns(RuntimeWarning, match="items-only"):
                degraded = mine_class_patterns(
                    planted_transactions,
                    min_support=0.2,
                    max_patterns=max(1, len(strict) // 4),
                    on_guard="items_only",
                )
        # the run completed despite the guard trip, with fewer patterns
        assert len(degraded) < len(strict)
        counters = sess.export()["counters"]
        assert counters["mining.generation.degraded_partitions"] >= 1

    def test_degraded_run_still_resumes_byte_identically(
        self, tmp_path, planted_transactions
    ):
        spec = ExperimentSpec(
            dataset="planted", min_support=0.3, folds=2, max_length=3,
            max_patterns=5,
        )
        a, b = tmp_path / "a", tmp_path / "b"
        with pytest.warns(RuntimeWarning):
            run_experiment(planted_transactions, spec, a)
        with injected_faults(
            [Fault("stage:mine", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault), pytest.warns(RuntimeWarning):
                run_experiment(planted_transactions, spec, b)
        run_experiment(planted_transactions, spec, b, resume=True)
        assert _artifact_bytes(a) == _artifact_bytes(b)

    def test_every_fold_budget_trip_reaches_stderr(self, tmp_path):
        """Under Python's default warning filter, each (fit, partition) trip
        prints its own line, although every fold degrades the same partition
        with the same message."""
        script = (
            "import sys\n"
            "from repro.datasets import TransactionDataset, load_uci\n"
            "from repro.obs.core import session\n"
            "from repro.runtime import ExperimentSpec, run_experiment\n"
            "data = TransactionDataset.from_dataset(load_uci('iris'))\n"
            "spec = ExperimentSpec(dataset='iris', folds=3, max_patterns=1)\n"
            "with session() as sess:\n"
            "    run_experiment(data, spec, sys.argv[1])\n"
            "print(sum(1 for s in sess.spans if s['name'] == 'mining.partition'\n"
            "          and s['attrs'].get('degraded') == 'budget'))\n"
        )
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("REPRO_FAULTS", "PYTHONWARNINGS")
        }
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "run")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        tripped = int(proc.stdout.split()[-1])
        # 3 folds + the final fit, each tripping on all 3 iris classes
        assert tripped == 4 * 3
        lines = [
            line for line in proc.stderr.splitlines()
            if "RuntimeWarning" in line and "tripped the budget guard" in line
        ]
        assert len(lines) == tripped

    def test_default_guard_still_raises(self, planted_transactions):
        from repro.mining.itemsets import PatternBudgetExceeded

        with pytest.raises(PatternBudgetExceeded):
            mine_class_patterns(
                planted_transactions, min_support=0.2, max_patterns=1
            )


# ----------------------------------------------------------------------
# End-to-end CLI crash/resume (real os._exit, real subprocesses)
# ----------------------------------------------------------------------
CLI_ARGS = (
    "experiment", "austral", "--scale", "0.2", "--min-support", "0.25",
    "--folds", "2",
)


def _run_cli(*args: str, env_overlay: dict | None = None):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    env["PYTHONPATH"] = "src"
    env.update(env_overlay or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        cwd="/root/repo",
    )


@pytest.mark.slow
class TestCliCrashResume:
    def test_kill_mid_mining_then_resume_matches_uninterrupted(self, tmp_path):
        """The headline acceptance criterion, end to end."""
        crashed = tmp_path / "crashed"
        fresh = tmp_path / "fresh"

        overlay = faults_env(
            [Fault("mine:1", "exit")], tmp_path / "state"
        )
        proc = _run_cli(*CLI_ARGS, "--out", str(crashed), env_overlay=overlay)
        assert proc.returncode == FAULT_EXIT_CODE

        # the partition mined before the kill survived as a checkpoint
        partition_dir = crashed / "cache" / "mine_partition"
        survivors = {p.name: p.read_bytes() for p in partition_dir.iterdir()}
        assert survivors
        assert not (crashed / "report.json").exists()

        proc = _run_cli(*CLI_ARGS, "--out", str(crashed), "--resume")
        assert proc.returncode == 0, proc.stderr

        proc = _run_cli(*CLI_ARGS, "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr

        assert _artifact_bytes(crashed) == _artifact_bytes(fresh)
        # the pre-crash checkpoints were reused, not rewritten
        for name, payload in survivors.items():
            assert (partition_dir / name).read_bytes() == payload

    def test_kill_after_first_fold_then_resume(self, tmp_path):
        crashed = tmp_path / "crashed"
        fresh = tmp_path / "fresh"

        overlay = faults_env(
            [Fault("stage:fold:0", "exit")], tmp_path / "state"
        )
        proc = _run_cli(*CLI_ARGS, "--out", str(crashed), env_overlay=overlay)
        assert proc.returncode == FAULT_EXIT_CODE
        assert (crashed / "cache" / "fold").exists()

        proc = _run_cli(*CLI_ARGS, "--out", str(crashed), "--resume")
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(*CLI_ARGS, "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert _artifact_bytes(crashed) == _artifact_bytes(fresh)

    def test_killed_worker_is_retried_transparently(self, tmp_path):
        """A one-shot worker kill under --jobs is absorbed by the retry
        layer: the run still exits 0 with intact artifacts."""
        out = tmp_path / "run"
        overlay = faults_env(
            [Fault("worker:0", "exit", times=1)], tmp_path / "state"
        )
        proc = _run_cli(
            *CLI_ARGS, "--jobs", "2", "--out", str(out), env_overlay=overlay
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        # the kill actually happened: its one firing marker was claimed
        assert (tmp_path / "state" / "worker_0.hit0").exists()
