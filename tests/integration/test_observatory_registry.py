"""The observatory registry (``repro.telemetry.observatory``).

Two pins:

* the exact key sets every consumer produces from the four built-in
  observatories — ``state.json``, each bus record kind's payload, each
  artifact observatory section, the OpenMetrics family names — so a
  registry change cannot silently drop or rename a field;
* a fake fifth observatory, added to the registry and nowhere else,
  shows up in artifact validation, the history row, a trajectory flag,
  the report, the bus, ``state.json``, ``service status`` and the
  metrics.
"""

import json

import pytest

from repro.bench import (
    ArtifactError,
    artifact_row,
    render_artifact_markdown,
    render_artifact_text,
    render_history_table,
    run_suite,
    trajectory,
    validate_artifact,
)
from repro.service import Supervisor
from repro.service.cli import _status_line
from repro.service.consumers import read_archive
from repro.service.jobs import JobSpec
from repro.telemetry import artifact_metrics, job_metrics
from repro.telemetry.observatory import OBSERVATORIES, Flag, Observatory

PARALLEL_PARAMS = {
    "model": "plummer", "n": 24, "seed": 17, "t_end": 0.0625,
    "eta": 0.02, "backend": "direct", "algorithm": "copy", "ranks": 3,
}


def run_job(root, name, params, **spec):
    doc = {"schema": "repro.job/1", "kind": "run", "name": name,
           "params": params, "checkpoint_every": 8, "sample_every": 8,
           **spec}
    sup = Supervisor.submit(JobSpec.from_dict(doc), root / name,
                            threaded_bus=False)
    status = sup.execute()
    return sup, status


def payload_keys(sup):
    keys = {}
    for rec in read_archive(sup.paths.archive):
        keys.setdefault(rec.kind, set()).update(rec.payload)
    return keys


def families(samples):
    return {name for name, _, _ in samples}


# -- parity pins -------------------------------------------------------------

STATE_COMPLETED = {
    "schema", "status", "updated_unix", "pid", "name", "kind", "t",
    "blocksteps", "wall_s", "last_checkpoint", "final_snapshot",
    # signatures
    "regime", "n_regimes", "dominant_regime", "dominant_share",
    "regime_lane",
    # efficiency
    "fraction_of_peak", "real_gflops",
    # rank
    "rank",
}
STATE_RANK = {"n_ranks", "real_skew_us_mean", "utilisation",
              "publish_bytes_per_step"}

PAYLOADS = {
    "job": {"status", "detail"},
    "state": {"blocksteps", "particle_steps", "interactions",
              "mean_block_size", "last_block_size", "energy", "kinetic",
              "potential"},
    "checkpoint": {"path", "blockstep", "reason"},
    "phases": {"n_events", "wall_us"},
    "signature": {"regime", "n_regimes", "dominant_regime",
                  "dominant_share", "blocksteps", "changes", "lane",
                  "summary"},
    "efficiency": {"fraction_of_peak", "real_gflops", "blocksteps",
                   "clock", "top_loss", "summary"},
    "rank": {"blocksteps", "tasks", "n_ranks", "utilisation",
             "real_skew_us_mean", "real_skew_us_max",
             "publish_bytes_per_step", "summary"},
    "discontinuity": {"path", "blockstep", "checkpoint_provenance",
                      "resume_provenance"},
}

SECTIONS = {
    "comm": {"schema", "networks", "messages", "bytes", "barriers",
             "barrier_rounds", "barrier_sync_us", "barrier_wait_us"},
    "signatures": {"schema", "kind", "count", "n_regimes",
                   "dominant_regime", "dominant_share", "changes", "lane",
                   "regimes"},
    "efficiency": {"schema", "kind", "blocksteps", "clock", "hardware",
                   "span_us", "peak_flops", "real_flops",
                   "fraction_of_peak", "real_gflops", "buckets", "regimes"},
    "rank": {"schema", "kind", "backends", "blocksteps", "dispatches",
             "tasks", "n_ranks", "span_wall_us", "rank_span_us", "busy_us",
             "idle_us", "cpu_us", "utilisation", "publish_bytes",
             "attach_bytes", "publish_bytes_per_step", "maxrss_kb",
             "ctx_switches", "page_faults", "real_skew_us",
             "straggler_ranks", "ranks", "backend_task_us", "placement"},
}

JOB_FAMILIES = {
    "repro_job_t", "repro_job_blocksteps", "repro_job_wall_seconds",
    "repro_job_checkpoints", "repro_job_fraction_of_peak",
    "repro_job_real_skew_us_mean", "repro_job_rank_utilisation",
}
ARTIFACT_FAMILIES = {
    "repro_bench_wall_seconds_median", "repro_bench_fraction_of_peak",
    "repro_bench_real_gflops", "repro_rank_blocksteps", "repro_rank_tasks",
    "repro_rank_busy_us", "repro_rank_idle_us", "repro_rank_utilisation",
    "repro_rank_publish_bytes", "repro_rank_publish_bytes_per_step",
    "repro_rank_real_skew_us_mean", "repro_rank_placement_gap_us_mean",
    "repro_rank_busy_us_by_rank",
}


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry_jobs")
    done, status = run_job(root, "done", dict(PARALLEL_PARAMS))
    assert status == "completed"
    cut, status = run_job(root, "cut", dict(PARALLEL_PARAMS),
                          max_blocksteps=12)
    assert status == "interrupted"
    assert Supervisor(cut.paths.root, threaded_bus=False).execute(
        resume=True) == "interrupted"
    return done, cut


@pytest.fixture(scope="module")
def micro():
    return run_suite("micro", repeats=1, warmup=0,
                     names=["exec_observatory"])


class TestParityPins:
    def test_state_json_keys(self, jobs):
        done, cut = jobs
        state = json.loads(done.paths.state.read_text())
        assert set(state) == STATE_COMPLETED
        assert set(state["rank"]) == STATE_RANK
        state = json.loads(cut.paths.state.read_text())
        assert set(state) == (STATE_COMPLETED - {"final_snapshot"}) | {"reason"}

    def test_bus_payload_keys_per_kind(self, jobs):
        done, cut = jobs
        keys = payload_keys(done)
        for kind, found in payload_keys(cut).items():
            keys.setdefault(kind, set()).update(found)
        assert keys == PAYLOADS

    def test_artifact_sections(self, micro):
        entry = micro["benchmarks"][0]
        for name, keys in SECTIONS.items():
            assert set(entry[name]) == keys, name

    def test_metric_families(self, jobs, micro):
        done, _ = jobs
        assert families(job_metrics("done", done.status())) == JOB_FAMILIES
        assert families(artifact_metrics(micro)) == ARTIFACT_FAMILIES


# -- a fifth observatory -----------------------------------------------------


class Counter:
    """The fake observatory's live account: checkpoints seen."""

    def __init__(self):
        self.n = 0


class FakeObservatory(Observatory):
    """Counts harvested span events per trial and checkpoints per job."""

    name = "fake"
    kind = "fake"
    flag = Flag("FAKE", 0.5, "fake_jump")
    columns = (("fake", "fake_events", str),)

    def validate(self, section, source):
        if not isinstance(section, dict) or section.get("schema") != "fake/1":
            raise ValueError(f"{source}: not a fake/1 section")
        return section

    def harvest(self, trial):
        return {"schema": "fake/1", "events": len(trial.events)}

    def distil(self, section):
        return {"fake": {"events": section["events"]}} if section else {}

    def trend(self, row, prev):
        events = (row.get("fake") or {}).get("events")
        jump = None
        if events is not None and prev is not None:
            jump = events - prev
        return {"fake_events": events, "fake_jump": jump}, events

    def report(self, section, table):
        if not section:
            return []
        return ["", table(("fake", "events"), [("fake", section["events"])])]

    def metrics(self, section, labels):
        if not section:
            return []
        return [("repro_fake_events", labels, float(section["events"]))]

    def live(self, backend, algorithm):
        return Counter()

    def payload(self, counter):
        counter.n += 1
        return {"checkpoints_seen": counter.n}

    def state(self, counter):
        return {"fake": {"checkpoints": counter.n}}

    def status(self, state):
        return f" fake={state['fake']['checkpoints']}" if "fake" in state else ""

    def job_metrics(self, state, labels):
        if "fake" not in state:
            return []
        return [("repro_job_fake_checkpoints", labels,
                 float(state["fake"]["checkpoints"]))]


FAKE = FakeObservatory()


@pytest.fixture
def fake_registered():
    OBSERVATORIES.append(FAKE)
    try:
        yield FAKE
    finally:
        OBSERVATORIES.remove(FAKE)


class TestFifthObservatory:
    def test_bench_side(self, fake_registered):
        artifact = run_suite("micro", repeats=1, warmup=0,
                             names=["single_host_speed"])
        entry = artifact["benchmarks"][0]
        events = entry["fake"]["events"]
        assert events > 0

        # artifact validation runs the fake validator
        bad = json.loads(json.dumps(artifact))
        bad["benchmarks"][0]["fake"] = {"schema": "nope"}
        with pytest.raises(ArtifactError, match="fake"):
            validate_artifact(bad)

        # history row and a trajectory flag
        row = artifact_row(artifact)
        assert row["benchmarks"]["single_host_speed"]["fake"] == {
            "events": events}
        later = json.loads(json.dumps(artifact))
        later["benchmarks"][0]["fake"]["events"] = events + 10
        rows = [row, artifact_row(later)]
        points = trajectory(rows)["single_host_speed"]
        assert points[1].extra["fake_jump"] == 10
        header, _, first, second = render_history_table(rows).splitlines()[2:6]
        assert "fake" in header.split()
        assert second.split()[-1] == "FAKE"
        assert "FAKE" not in first

        # report and metrics
        text = render_artifact_text(artifact).splitlines()
        assert ["fake", str(events)] in [line.split() for line in text]
        assert f"| fake | {events} |" in render_artifact_markdown(artifact)
        assert ("repro_fake_events", {"suite": "micro",
                "benchmark": "single_host_speed"}, float(events)) in (
            artifact_metrics(artifact))

    def test_service_side(self, fake_registered, tmp_path):
        params = {"model": "plummer", "n": 16, "seed": 3, "t_end": 0.0625,
                  "eta": 0.02, "backend": "direct"}
        sup, status = run_job(tmp_path, "fakejob", params)
        assert status == "completed"
        seen = [r.payload["checkpoints_seen"]
                for r in read_archive(sup.paths.archive) if r.kind == "fake"]
        assert seen == list(range(1, len(seen) + 1)) and seen
        state = json.loads(sup.paths.state.read_text())
        assert state["fake"] == {"checkpoints": seen[-1]}
        status_doc = sup.status()
        assert f" fake={seen[-1]}" in _status_line(status_doc)
        assert "repro_job_fake_checkpoints" in families(
            job_metrics("fakejob", status_doc))

    def test_registry_restored(self):
        assert [o.name for o in OBSERVATORIES] == [
            "comm", "signatures", "efficiency", "rank"]
