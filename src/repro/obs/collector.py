"""The telemetry collector: hook events -> metrics registry + trace spans.

One :class:`TelemetryCollector` owns a :class:`~repro.obs.registry.MetricsRegistry`
and a :class:`~repro.obs.tracer.Tracer` and implements the
:class:`~repro.obs.hooks.TrainerHooks` protocol, translating the event
stream into the stable ``repro.*`` metric names (documented in
``docs/OBSERVABILITY.md`` — treat them as an API):

========================================  =========  =================================
name                                      kind       meaning
========================================  =========  =================================
repro.train.epoch_seconds                 histogram  executor wall time per epoch
repro.train.updates                       counter    SGD updates applied
repro.train.updates_per_sec               gauge      Eq. 7 host rate (last epoch)
repro.train.effective_bandwidth_gbs      gauge      footnote-2 bytes/s at that rate
repro.train.rmse                          series     per-epoch RMSE (label split=)
repro.train.lr                            series     Eq. 9 learning-rate per epoch
repro.sched.lock.attempts|waits|aborts    counter    column-lock contention
repro.sched.rounds                        counter    wavefront scheduling rounds
repro.kernel.waves                        counter    kernel-equivalent launches
repro.kernel.updates                      counter    updates via kernel events (exact)
repro.kernel.wave_collision_fraction      histogram  Eq. 6 fraction, sampled waves
repro.transfer.h2d_bytes|d2h_bytes        counter    modelled interconnect traffic
repro.perf.updates_per_sec                gauge      modelled Eq. 7 rate (labels)
repro.perf.effective_bandwidth_gbs        gauge      modelled bandwidth (labels)
repro.sim.stream.overlap_fraction         gauge      compute-busy / makespan
repro.sim.occupancy.fraction              gauge      resident workers / hardware cap
repro.sim.sched.wait_seconds              counter    event-sim scheduling waits
========================================  =========  =================================
"""

from __future__ import annotations

from repro.metrics.throughput import effective_bandwidth
from repro.obs.hooks import BatchEvent, EpochEvent, KernelEvent, TransferEvent
from repro.obs.registry import M, MetricsRegistry
from repro.obs.tracer import WALL_PID, Tracer
from repro.sched.conflict import collision_fraction

__all__ = ["TelemetryCollector", "EPOCH_SECONDS_BUCKETS", "FRACTION_BUCKETS"]

#: Fixed bucket edges (seconds) for per-epoch wall time.
EPOCH_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)
#: Fixed bucket edges for quantities living in [0, 1].
FRACTION_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)


class TelemetryCollector:
    """Aggregates hook events into metrics and (optionally) trace spans.

    Parameters
    ----------
    registry, tracer:
        Bring-your-own sinks; fresh ones are created by default.
    run_label:
        Stamped on trace spans ("run" arg) so multi-run traces stay legible.
    kernel_sample_every:
        Advertised to producers as the ``kernel_stride`` hint: they emit one
        kernel event per N waves (with exact ``n_waves`` accounting), so the
        Eq. 6 collision fraction is a 1-in-N sample. A quick epoch launches
        thousands of waves and the fraction is a statistical quantity anyway
        — sampling keeps collector overhead under the 5%% budget enforced by
        ``benchmarks/bench_obs_overhead.py`` (1 = every wave, for exact
        accounting on short runs).
    """

    active = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        run_label: str = "",
        kernel_sample_every: int = 128,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.run_label = run_label
        if kernel_sample_every < 1:
            raise ValueError(
                f"kernel_sample_every must be >= 1, got {kernel_sample_every}"
            )
        #: emit_plan_events reads this hint
        self.kernel_stride = kernel_sample_every
        reg = self.registry
        # hot-path metric handles, resolved once
        self._epoch_seconds = reg.histogram(
            M.TRAIN_EPOCH_SECONDS, EPOCH_SECONDS_BUCKETS
        )
        self._updates = reg.counter(M.TRAIN_UPDATES)
        self._eval_seconds = reg.counter(M.TRAIN_EVAL_SECONDS)
        self._waves = reg.counter(M.KERNEL_WAVES)
        self._kernel_updates = reg.counter(M.KERNEL_UPDATES)
        self._wave_collisions = reg.histogram(
            M.KERNEL_WAVE_COLLISION_FRACTION, FRACTION_BUCKETS
        )
        self._lock_attempts = reg.counter(M.SCHED_LOCK_ATTEMPTS)
        self._lock_waits = reg.counter(M.SCHED_LOCK_WAITS)
        self._lock_aborts = reg.counter(M.SCHED_LOCK_ABORTS)
        self._rounds = reg.counter(M.SCHED_ROUNDS)
        self._h2d = reg.counter(M.TRANSFER_H2D_BYTES)
        self._d2h = reg.counter(M.TRANSFER_D2H_BYTES)
        self._batches = reg.counter(M.SCHED_BATCHES)

    # ------------------------------------------------------------------
    # TrainerHooks protocol
    # ------------------------------------------------------------------
    def on_epoch(self, event: EpochEvent) -> None:
        reg = self.registry
        self._epoch_seconds.observe(event.seconds)
        self._updates.inc(event.n_updates)
        self._eval_seconds.inc(event.eval_seconds)
        reg.series(M.TRAIN_LR).append(event.epoch, event.lr)
        if event.train_rmse is not None:
            reg.series(M.TRAIN_RMSE, {"split": "train"}).append(
                event.epoch, event.train_rmse
            )
        if event.test_rmse is not None:
            reg.series(M.TRAIN_RMSE, {"split": "test"}).append(
                event.epoch, event.test_rmse
            )
        ups = event.updates_per_sec
        if ups > 0:
            reg.gauge(M.TRAIN_UPDATES_PER_SEC).set(ups)
            reg.series(M.TRAIN_UPDATES_PER_SEC_BY_EPOCH).append(
                event.epoch, ups
            )
            if event.k:
                reg.gauge(M.TRAIN_EFFECTIVE_BANDWIDTH_GBS).set(
                    effective_bandwidth(ups, event.k, event.feature_bytes) / 1e9
                )
        for key, value in event.extra.items():
            if isinstance(value, (int, float)):
                reg.series(f"repro.train.extra.{key}").append(event.epoch, value)
        if "lock_attempts" in event.extra:
            self._lock_attempts.inc(event.extra["lock_attempts"])
        if "sched_rounds" in event.extra:
            self._rounds.inc(event.extra["sched_rounds"])
        end = self.tracer.now()
        start = max(0.0, end - event.seconds - event.eval_seconds)
        self.tracer.name_thread(WALL_PID, 0, f"trainer:{event.scheme or 'epoch'}")
        self.tracer.add_span(
            f"epoch {event.epoch}",
            start,
            event.seconds,
            pid=WALL_PID,
            tid=0,
            cat="train",
            args={
                "lr": event.lr,
                "updates": event.n_updates,
                "test_rmse": event.test_rmse,
                "updates_per_sec": ups,
                "run": self.run_label,
                "scheme": event.scheme,
                **{k: v for k, v in event.extra.items()},
            },
        )
        if event.eval_seconds:
            self.tracer.add_span(
                f"eval {event.epoch}",
                end - event.eval_seconds,
                event.eval_seconds,
                pid=WALL_PID,
                tid=0,
                cat="eval",
            )
        self.tracer.counter(
            M.TRAIN_UPDATES, {"updates": self._updates.value}, end,
            pid=WALL_PID,
        )

    def on_batch(self, event: BatchEvent) -> None:
        self._batches.inc()
        if event.waits:
            self._lock_waits.inc(event.waits)
        if event.scheme:
            self.registry.counter(
                M.SCHED_BATCH_UPDATES, {"scheme": event.scheme}
            ).inc(event.n_updates)

    def on_kernel(self, event: KernelEvent) -> None:
        self._waves.inc(event.n_waves)
        # exact for any stride: producers accumulate the true update total
        # over the waves each event stands for, so per-epoch this sums to nnz
        self._kernel_updates.inc(event.n_updates)
        if event.rows is not None and event.cols is not None and event.n_updates:
            frac = collision_fraction(event.rows, event.cols)
            self._wave_collisions.observe(frac)

    def on_transfer(self, event: TransferEvent) -> None:
        (self._h2d if event.direction == "h2d" else self._d2h).inc(event.n_bytes)
        self.registry.counter(
            M.TRANSFER_DISPATCHES, {"device": event.device}
        ).inc()

    # ------------------------------------------------------------------
    # convenience accessors for the headline quantities
    # ------------------------------------------------------------------
    def _scalar(self, name: str, labels=None) -> float | None:
        metric = self.registry.get(name, labels)
        return None if metric is None else metric.value

    @property
    def conflict_rate(self) -> float | None:
        """Mean Eq. 6 collision fraction over the sampled waves (every
        wave at ``kernel_sample_every=1``); None before any."""
        hist = self.registry.get(M.KERNEL_WAVE_COLLISION_FRACTION)
        if hist is not None and hist.total:
            return hist.mean
        return None

    def summary(self) -> dict:
        """Headline metrics for CLI output and artifact sidecars."""
        out: dict[str, object] = {}
        for key, name in (
            ("updates_per_sec", M.TRAIN_UPDATES_PER_SEC),
            ("effective_bandwidth_gbs", M.TRAIN_EFFECTIVE_BANDWIDTH_GBS),
        ):
            value = self._scalar(name)
            if value is not None:
                out[key] = value
        rate = self.conflict_rate
        if rate is not None:
            out["conflict_rate"] = rate
        out["lock_waits"] = self._lock_waits.value
        out["lock_attempts"] = self._lock_attempts.value
        out["transfer_bytes"] = self._h2d.value + self._d2h.value
        overlap = self.registry.family(M.SIM_STREAM_OVERLAP_FRACTION)
        if overlap:
            out["stream_overlap_fraction"] = {
                dict(g.labels).get("device", "0"): g.value for g in overlap
            }
        modelled = self.registry.family(M.PERF_UPDATES_PER_SEC)
        if modelled:
            out["modelled_updates_per_sec"] = {
                "/".join(v for _, v in g.labels): g.value for g in modelled
            }
        return out
