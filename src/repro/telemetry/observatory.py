"""One registry of the observatories — comm, phase signatures, efficiency
and ranks, the paper's eq. 10 split measured four ways — that the bench
runner, artifact validator, history, report, service supervisor and
CLI, and the OpenMetrics projections loop over instead of wiring each
observatory by hand.  Each is backed by a ledger module owning its
feed, summary and validator (:mod:`repro.parallel.ledger`,
:mod:`.signatures`, :mod:`.efficiency`, :mod:`.ranks`).

The feed side is deliberately not here: tracer sinks, the dispatch
observer and the network ledger are fed directly, because one shared
``feed`` signature would put an adapter on per-span and per-message
hot paths.  The registry is read when a checkpoint is written, when a
bench trial ends, at history ingest and at render time — never per
blockstep or per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..io.documents import finite
from ..io.tables import share_bar
from ..parallel.ledger import merge_comm_summaries, validate_comm_section
from .efficiency import (
    BUCKETS,
    FlopsLedger,
    efficiency_from_events,
    per_regime_efficiency,
    validate_efficiency,
)
from .ranks import RankLedger, rank_summary_metrics, validate_rank_section
from .signatures import (
    RegimeTracker,
    SignatureRecorder,
    signatures_from_events,
    validate_signature_summary,
)

#: Bus record kinds of the live observatory views (the service's
#: :mod:`repro.service.records` re-exports them).
KIND_SIGNATURE = "signature"
KIND_EFFICIENCY = "efficiency"
KIND_RANK = "rank"

#: Total-variation distance between consecutive regime mixes (the
#: share of blocksteps each regime claims) that raises the SHIFT flag.
#: 0.25 means a quarter of the run's blocksteps moved to a different
#: regime — the workload changed character, not just speed.
DEFAULT_SHIFT_THRESHOLD = 0.25

#: Absolute drop of fraction-of-peak between consecutive rows that
#: raises the EFF flag: the run got a tenth of the machine *less*
#: efficient — real Tflops regressed even if wall medians look fine.
DEFAULT_EFF_DROP_THRESHOLD = 0.10

#: Absolute jump of the real-skew fraction (total real straggler skew
#: over total dispatch span, from the rank observatory) between
#: consecutive rows that raises the SKEW flag: the real machine's
#: load balance got materially worse since the previous ingest even if
#: the virtual model says nothing changed.
DEFAULT_SKEW_JUMP_THRESHOLD = 0.15


def point_value(point: Any, attr: str) -> Any:
    """A trajectory point's ``attr``: a declared field, or one an
    observatory's ``trend`` added under ``point.extra``."""
    if hasattr(point, attr):
        return getattr(point, attr)
    return point.extra.get(attr)


@dataclass(frozen=True)
class Flag:
    """A trajectory flag, raised when a point's ``delta`` attribute
    (its change since the previous ingest) exceeds ``threshold``."""

    name: str
    threshold: float
    delta: str

    def raised(self, point: Any, threshold: float | None = None) -> bool:
        value = point_value(point, self.delta)
        limit = self.threshold if threshold is None else threshold
        return value is not None and value > limit


@dataclass
class Harvest:
    """A finished bench trial's context and span events, plus the
    sections (and ledgers behind them) harvested so far, so a later
    observatory can join against an earlier one."""

    ctx: Any
    events: list
    sections: dict[str, Any] = field(default_factory=dict)
    accounts: dict[str, Any] = field(default_factory=dict)


class Observatory:
    """Everything consumers read of one observatory.

    A subclass must define ``harvest(trial)``, building the artifact
    section called ``name`` from a finished bench trial (or ``None``),
    and ``validate(section, source)``, raising a ``ValueError``; every
    other face defaults to offering nothing.  ``report`` renders a
    section with a ``(headers, rows) -> str`` table, ``metrics`` as
    OpenMetrics samples, ``distil`` as history-row fields.  ``trend``
    turns a history row and the value carried from the previous row
    into trajectory-point fields and the value to carry on, shown by
    ``columns`` (``(header, point attribute, render)``), ``flag`` and a
    ``block`` (``(title, headers)``) filled by ``block_cells``.  In a
    service job ``live`` builds the account, ``sink``/``attach`` wire
    its feed, ``payload`` publishes it as bus records of ``kind`` and
    ``state`` into ``state.json``, which ``status`` and
    ``job_metrics`` project.
    """

    name = ""
    kind: str | None = None
    flag: Flag | None = None
    columns: tuple[tuple[str, str, Callable[[Any], str]], ...] = ()
    block: tuple[str, tuple[str, ...]] | None = None

    def distil(self, section: Any) -> dict[str, Any]:
        return {}

    def trend(self, row: dict[str, Any], prev: Any) -> tuple[dict[str, Any], Any]:
        return {}, None

    def block_cells(self, point: Any) -> tuple | None:
        return None

    def report(self, section: Any, table: Callable[..., str]) -> list[str]:
        return []

    def metrics(self, section: Any, labels: dict[str, str]) -> list:
        return []

    def live(self, backend: Any, algorithm: Any) -> Any:
        return None

    def sink(self, account: Any) -> Any:
        return None

    def attach(self, account: Any, integrator: Any) -> None:
        pass

    def payload(self, account: Any) -> dict[str, Any] | None:
        return None

    def state(self, account: Any) -> dict[str, Any]:
        return {}

    def status(self, state: dict[str, Any]) -> str:
        return ""

    def job_metrics(self, state: dict[str, Any], labels: dict[str, str]) -> list:
        return []


class CommObservatory(Observatory):
    """The simulated networks' message and barrier ledgers."""

    name = "comm"

    validate = staticmethod(validate_comm_section)

    def harvest(self, trial):
        # deterministic per trial (virtual time)
        networks = trial.ctx.networks
        if not networks:
            return None
        return merge_comm_summaries(net.ledger.summary() for net in networks)


def regime_mix_shift(
    prev: dict[str, int], current: dict[str, int]
) -> float:
    """Total-variation distance between two regime mixes in [0, 1].

    Mixes are blockstep counts per log2 block-size bucket (the
    label-stable regime fingerprint the history row keeps); 0.0 means
    identical share distributions, 1.0 means disjoint bucket sets.
    """
    p_total = sum(prev.values()) or 1
    c_total = sum(current.values()) or 1
    return 0.5 * sum(
        abs(prev.get(r, 0) / p_total - current.get(r, 0) / c_total)
        for r in set(prev) | set(current)
    )


class SignaturesObservatory(Observatory):
    """Per-blockstep phase signatures clustered into regimes."""

    name = "signatures"
    kind = KIND_SIGNATURE
    flag = Flag("SHIFT", DEFAULT_SHIFT_THRESHOLD, "regime_shift")
    columns = (
        ("regimes", "regime_count", str),
        ("dom", "dominant_share", lambda share: f"{share * 100.0:.0f}%"),
    )

    validate = staticmethod(validate_signature_summary)

    def harvest(self, trial):
        # fold the retained span events back into per-blockstep
        # signatures; only benchmarks that step an integrator have any
        sigs = signatures_from_events(trial.events)
        if not sigs:
            return None
        regimes = RegimeTracker()
        for sig in sigs:
            regimes.update(sig)
        trial.accounts[self.name] = regimes
        return regimes.summary()

    def distil(self, section):
        # enough to render the per-regime columns and compare the mix
        # across ingests.  The mix is keyed by the regime's log2
        # block-size bucket, not its id — ids are assigned in discovery
        # order, so a reordered schedule would relabel identical
        # regimes and read as a spurious shift.
        if not isinstance(section, dict) or not section.get("regimes"):
            return {}
        mix: dict[str, int] = {}
        for reg in section["regimes"]:
            mean = float(reg.get("mean_block_size", 0.0))
            bucket = int(mean).bit_length() - 1 if mean >= 1.0 else -1
            key = f"b{bucket}"
            mix[key] = mix.get(key, 0) + int(reg["count"])
        return {"regimes": {
            "n": int(section.get("n_regimes", len(section["regimes"]))),
            "dominant": section.get("dominant_regime"),
            "dominant_share": float(section.get("dominant_share", 0.0)),
            "mix": mix,
        }}

    def trend(self, row, prev_mix):
        regimes = row.get("regimes") or {}
        mix = regimes.get("mix") or None
        shift = None
        if mix and prev_mix:
            shift = regime_mix_shift(prev_mix, mix)
        return {
            "regime_count": int(regimes["n"]) if "n" in regimes else None,
            "dominant_share": regimes.get("dominant_share"),
            "regime_shift": shift,
        }, mix

    def report(self, section, table):
        # one row per regime, dominant first
        if not section or not section.get("regimes"):
            return []
        rows = []
        for reg in sorted(section["regimes"], key=lambda r: -r.get("count", 0)):
            share = reg.get("share", 0.0)
            rows.append(
                (
                    reg.get("regime"),
                    reg.get("count", 0),
                    f"{share:.1%}",
                    share_bar(share),
                    f"{reg.get('mean_block_size', 0.0):.1f}",
                    f"{reg.get('mean_wall_us', 0.0):.0f}",
                )
            )
        return [
            "",
            f"regimes: {section.get('n_regimes', 0)} over "
            f"{section.get('count', 0)} blocksteps, "
            f"{section.get('changes', 0)} change(s); "
            f"lane {section.get('lane', '')}",
            "",
            table(("regime", "blocksteps", "share", "bar", "mean block",
                   "us/blockstep"), rows),
        ]

    def live(self, backend, algorithm):
        return RegimeTracker()

    def sink(self, regimes):
        # O(1)-per-blockstep capture (keep=False — a week-long run must
        # not accumulate per-blockstep state)
        return SignatureRecorder(callback=regimes.update, keep=False)

    @staticmethod
    def _headline(regimes):
        dominant, share = regimes.dominant_regime()
        return {
            "regime": regimes.current,
            "n_regimes": regimes.n_regimes,
            "dominant_regime": dominant,
            "dominant_share": share,
        }

    def payload(self, regimes):
        # flat scalars (so ``tail``'s text mode shows them) plus the
        # nested ``repro.phase_signature/1`` summary document
        if not regimes.count:
            return None
        return {
            **self._headline(regimes),
            "blocksteps": regimes.count,
            "changes": len(regimes.changes),
            "lane": regimes.lane(),
            "summary": regimes.summary(),
        }

    def state(self, regimes):
        if not regimes.count:
            return {}
        return {**self._headline(regimes),
                "regime_lane": regimes.lane(max_runs=8)}

    def status(self, state):
        if "regime" not in state:
            return ""
        return (
            f" regime={state['regime']}"
            f" ({state.get('n_regimes', 0)} seen,"
            f" dominant {state.get('dominant_regime')}"
            f" at {state.get('dominant_share', 0.0):.0%})"
        )


class EfficiencyObservatory(Observatory):
    """The "real Tflops" waterfall from peak to achieved flops."""

    name = "efficiency"
    kind = KIND_EFFICIENCY
    flag = Flag("EFF", DEFAULT_EFF_DROP_THRESHOLD, "eff_drop")
    columns = (("eff", "fraction_of_peak", "{:.2%}".format),)
    block = ("efficiency buckets", ("eff", *BUCKETS))

    validate = staticmethod(validate_efficiency)

    def harvest(self, trial):
        # replay the span stream through the flops ledger, priced
        # against the hardware the trial declared (ctx.hardware,
        # default single host), refined by the comm section, split per
        # regime run where signatures were harvested
        ledger = efficiency_from_events(trial.events, hardware=trial.ctx.hardware)
        if not ledger.count:
            return None
        section = ledger.summary(comm=trial.sections.get("comm"))
        regimes = trial.accounts.get("signatures")
        if regimes is not None:
            regime_rows = per_regime_efficiency(ledger.records, regimes)
            if regime_rows:
                section["regimes"] = regime_rows
        return section

    def distil(self, section):
        # the achieved fraction of peak and the per-bucket loss
        # fractions (of peak): where the flops went, per ingest
        if not isinstance(section, dict) or "fraction_of_peak" not in section:
            return {}
        return {self.name: {
            "fraction_of_peak": float(section["fraction_of_peak"]),
            "real_gflops": float(section.get("real_gflops", 0.0)),
            "buckets": {
                b: float((section.get("buckets") or {})
                         .get(b, {}).get("fraction", 0.0))
                for b in BUCKETS
            },
        }}

    def trend(self, row, prev_frac):
        efficiency = row.get(self.name) or {}
        frac = efficiency.get("fraction_of_peak")
        frac = float(frac) if frac is not None else None
        eff_drop = None
        if frac is not None and prev_frac is not None:
            eff_drop = prev_frac - frac
        return {
            "fraction_of_peak": frac,
            "bucket_fractions": efficiency.get("buckets") or None,
            "eff_drop": eff_drop,
        }, frac

    def block_cells(self, point):
        # the per-bucket loss fractions of a point that carried a
        # flops waterfall
        if point.bucket_fractions is None:
            return None
        return (
            f"{point.fraction_of_peak:.2%}"
            if point.fraction_of_peak is not None
            else "-",
            *(f"{point.bucket_fractions.get(b, 0.0):.2%}" for b in BUCKETS),
        )

    def report(self, section, table):
        # the waterfall, fig. 13-style as fractions of peak: peak at
        # the top, one row per loss bucket, achieved ("real") flops at
        # the bottom — the §6 "real Tflops" account
        if not section:
            return []
        peak = section.get("peak_flops", 0.0)
        rows: list[tuple] = [("peak", f"{peak:.4g}", "100.0%", share_bar(1.0))]
        for bucket in BUCKETS:
            info = section.get("buckets", {}).get(bucket, {})
            flops, frac = info.get("flops", 0.0), info.get("fraction", 0.0)
            if flops <= 0.0:
                continue
            rows.append(
                (f"- {bucket}", f"{flops:.4g}", f"{frac:.2%}", share_bar(frac))
            )
        frac = section.get("fraction_of_peak", 0.0)
        rows.append(
            ("= real", f"{section.get('real_flops', 0.0):.4g}", f"{frac:.2%}",
             share_bar(frac))
        )
        return [
            "",
            f"efficiency: {frac:.2%} of peak "
            f"({section.get('real_gflops', 0.0):.4g} real Gflops) over "
            f"{section.get('blocksteps', 0)} blocksteps, "
            f"{section.get('clock')} clock",
            "",
            table(("waterfall", "flops", "of peak", "bar"), rows),
        ]

    def metrics(self, section, labels):
        if not isinstance(section, dict):
            return []
        return [(f"repro_bench_{key}", labels, finite(section.get(key)))
                for key in ("fraction_of_peak", "real_gflops")]

    def live(self, backend, algorithm):
        # always-on, priced against the emulator backend's introspected
        # peak (or the paper's single host on direct summation);
        # keep=False — running totals only, O(1) for unbounded runs
        return FlopsLedger(
            hardware=backend if hasattr(backend, "peak_flops") else None,
            keep=False,
        )

    def sink(self, eff):
        return eff

    def payload(self, eff):
        # flat scalars plus the nested ``repro.efficiency/1`` waterfall
        if not eff.count:
            return None
        summary = eff.summary()
        return {
            **{key: summary[key] for key in ("fraction_of_peak", "real_gflops",
                                             "blocksteps", "clock")},
            "top_loss": max(
                summary["buckets"],
                key=lambda b: summary["buckets"][b]["fraction"],
            ),
            "summary": summary,
        }

    def state(self, eff):
        if not eff.count:
            return {}
        return {
            "fraction_of_peak": eff.fraction_of_peak,
            "real_gflops": (
                eff.real_flops / eff.span_us * 1.0e6 / 1.0e9
                if eff.span_us > 0 else 0.0
            ),
        }

    def status(self, state):
        if "fraction_of_peak" not in state:
            return ""
        return (
            f" eff={state['fraction_of_peak']:.2%}"
            f" ({state.get('real_gflops', 0.0):.3g} Gflops)"
        )

    def job_metrics(self, state, labels):
        if state.get("fraction_of_peak") is None:
            return []
        return [("repro_job_fraction_of_peak", labels,
                 finite(state.get("fraction_of_peak")))]


class RankObservatory(Observatory):
    """Real-execution telemetry of the simulated ranks."""

    name = "rank"
    kind = KIND_RANK
    flag = Flag("SKEW", DEFAULT_SKEW_JUMP_THRESHOLD, "skew_jump")
    columns = (("skew", "skew_fraction", "{:.1%}".format),)

    validate = staticmethod(validate_rank_section)

    def harvest(self, trial):
        # the telemetry the trial attached, cross-attributed against
        # the primary network's virtual barriers
        ctx = trial.ctx
        if not ctx.rank_ledgers:
            return None
        comm = ctx.networks[0].ledger if ctx.networks else trial.sections.get("comm")
        return ctx.rank_ledgers[0].summary(comm=comm)

    def distil(self, section):
        # enough to render the real-execution columns and flag skew
        # jumps across ingests.  The fraction normalises total
        # straggler skew by the total dispatch span so runs of
        # different lengths compare.
        if not isinstance(section, dict) or "real_skew_us" not in section:
            return {}
        skew = section.get("real_skew_us") or {}
        span = float(section.get("span_wall_us", 0.0))
        distilled: dict[str, Any] = {
            "real_skew_us_mean": float(skew.get("mean", 0.0)),
            "skew_fraction": (
                float(skew.get("total", 0.0)) / span if span > 0 else 0.0
            ),
            "utilisation": float(section.get("utilisation", 0.0)),
            "publish_bytes_per_step": float(
                section.get("publish_bytes_per_step", 0.0)
            ),
        }
        placement = section.get("placement")
        if isinstance(placement, dict):
            distilled["placement_gap_us_mean"] = float(
                (placement.get("gap_us") or {}).get("mean", 0.0)
            )
        return {self.name: distilled}

    def trend(self, row, prev_skew):
        rank = row.get(self.name) or {}
        skew_fraction = rank.get("skew_fraction")
        if skew_fraction is not None:
            skew_fraction = float(skew_fraction)
        skew_jump = None
        if skew_fraction is not None and prev_skew is not None:
            skew_jump = skew_fraction - prev_skew
        return {
            "skew_fraction": skew_fraction,
            "rank_utilisation": rank.get("utilisation"),
            "skew_jump": skew_jump,
        }, skew_fraction

    def report(self, section, table):
        # the headline, the placement gap, then one row per rank: real
        # busy time and task distribution, the per-host table the
        # paper's §4 tuning reads
        if not section:
            return []
        skew = section.get("real_skew_us", {})
        lines = [
            "",
            f"ranks: {section.get('n_ranks', 0)} on "
            f"{'/'.join(section.get('backends', []) or ['?'])} — "
            f"utilisation {section.get('utilisation', 0.0):.1%}, "
            f"real skew mean {skew.get('mean', 0.0):.0f} us "
            f"(max {skew.get('max', 0.0):.0f}), "
            f"publish {section.get('publish_bytes_per_step', 0.0):.0f} B/step",
        ]
        placement = section.get("placement")
        if placement:
            gap = placement.get("gap_us", {}).get("mean", 0.0)
            buckets = placement.get("buckets", {})
            lines.append(
                f"placement gap (real - virtual skew): {gap:+.0f} us/blockstep; "
                "idle split "
                f"imbalance {buckets.get('imbalance', {}).get('fraction', 0.0):.1%} / "
                f"overhead {buckets.get('overhead', {}).get('fraction', 0.0):.1%}"
            )
        busy_total = max(section.get("busy_us", 0.0), 1e-12)
        rows = []
        for row in section.get("ranks", []):
            share = row.get("busy_us", 0.0) / busy_total
            rows.append(
                (
                    row.get("rank"),
                    row.get("tasks", 0),
                    f"{row.get('busy_us', 0.0) / 1.0e3:.2f}",
                    f"{share:.1%}",
                    share_bar(share),
                    f"{row.get('mean_task_us', 0.0):.0f}",
                    f"{row.get('max_task_us', 0.0):.0f}",
                )
            )
        if rows:
            lines += ["", table(("rank", "tasks", "busy [ms]", "share", "bar",
                                 "mean task [us]", "max [us]"), rows)]
        return lines

    def metrics(self, section, labels):
        if not isinstance(section, dict):
            return []
        return rank_summary_metrics(section, labels)

    def live(self, backend, algorithm):
        # the dispatch observer of a parallel run; keep=False — running
        # totals only, O(1) for unbounded runs (no per-blockstep
        # records, so no placement cross-attribution here — the bench
        # harness does that)
        return RankLedger(keep=False) if algorithm is not None else None

    def attach(self, ranks, integrator):
        integrator.observe_ranks(ranks)

    def payload(self, ranks):
        # flat scalars plus the nested ``repro.rank_sample/1`` summary
        if not ranks.count:
            return None
        summary = ranks.summary()
        return {
            **{key: summary[key] for key in ("blocksteps", "tasks", "n_ranks",
                                             "utilisation")},
            "real_skew_us_mean": summary["real_skew_us"]["mean"],
            "real_skew_us_max": summary["real_skew_us"]["max"],
            "publish_bytes_per_step": summary["publish_bytes_per_step"],
            "summary": summary,
        }

    def state(self, ranks):
        # ``service metrics`` projects this face into gauges
        if not ranks.count:
            return {}
        return {
            self.name: {
                "n_ranks": ranks.n_ranks,
                "real_skew_us_mean": ranks.mean_real_skew_us(),
                "utilisation": (
                    ranks.busy_total_us / ranks.rank_span_us
                    if ranks.rank_span_us > 0 else 0.0
                ),
                "publish_bytes_per_step": (
                    ranks.publish_bytes / ranks.count if ranks.count else 0.0
                ),
            },
        }

    def status(self, state):
        rank = state.get(self.name)
        if not isinstance(rank, dict):
            return ""
        return (
            f" ranks={rank.get('n_ranks', 0)}"
            f" util={rank.get('utilisation', 0.0):.0%}"
            f" skew={rank.get('real_skew_us_mean', 0.0):.0f}us"
        )

    def job_metrics(self, state, labels):
        rank = state.get(self.name)
        if not isinstance(rank, dict):
            return []
        return [
            ("repro_job_real_skew_us_mean", labels,
             finite(rank.get("real_skew_us_mean"))),
            ("repro_job_rank_utilisation", labels,
             finite(rank.get("utilisation"))),
        ]


#: The observatories, in harvest, report and status order (a later
#: one may join against an earlier one's harvest).
OBSERVATORIES: list[Observatory] = [
    CommObservatory(),
    SignaturesObservatory(),
    EfficiencyObservatory(),
    RankObservatory(),
]
