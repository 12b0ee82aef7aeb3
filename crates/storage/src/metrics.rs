//! Structured observability on **simulated** time.
//!
//! The recorder captures phase spans and per-partition events whose
//! timestamps are positions on the cost-model clock (DiskModel seconds for
//! I/O plus scaled CPU seconds), *not* wall time. Because every simulated
//! quantity in this workspace is deterministic for a fixed seed and
//! thread-count-invariant by construction (fault identity excludes workers,
//! CPU phases merge max-over-workers), a trace taken at `--threads 4` tells
//! the same story as one taken at `--threads 1` — which is what makes traces
//! diffable in CI.
//!
//! The second half of this module is the reconciled metrics report: a
//! versioned, machine-readable summary whose exporter *refuses to emit*
//! numbers that do not sum back to the run's own totals. This is a standing
//! guard against the accounting bug class found in PR 4 (per-phase I/O
//! buckets double-counting the checkpoint writes).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::{DiskModel, IoStats};
use crate::json::Json;

/// Version stamped into every exported trace and metrics document. Bump on
/// any backwards-incompatible change to the JSON shape.
///
/// Version 2: multi-channel I/O model — reports carry `channels`, the
/// shared-lane/per-channel I/O decomposition, and the channel-parallel time
/// identities (`io_parallel_seconds`, `prefetch_hidden_seconds`).
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Default cap on buffered trace events; beyond it events are counted but
/// dropped (the drop count is exported, so truncation is never silent).
pub const DEFAULT_MAX_EVENTS: usize = 65_536;

/// A named interval on the simulated clock (e.g. one algorithm phase).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    pub name: &'static str,
    /// Simulated seconds at phase entry.
    pub start_s: f64,
    /// Simulated seconds at phase exit.
    pub end_s: f64,
}

/// A point event on the simulated clock with integer counter attributes
/// (partition index, candidates, pages read, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Simulated seconds at which the event was recorded.
    pub t_s: f64,
    pub attrs: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    spans: Vec<TraceSpan>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
}

/// Thread-safe span/event sink. Cheap enough to leave attached in release
/// runs: one short mutex hold per phase or per partition, no allocation on
/// the drop path.
#[derive(Debug)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
    max_events: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_max_events(DEFAULT_MAX_EVENTS)
    }

    pub fn with_max_events(max_events: usize) -> Self {
        Recorder {
            inner: Mutex::new(RecorderInner::default()),
            max_events,
        }
    }

    /// Convenience for the common `Arc<Recorder>` handoff into `RunControl`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Record a completed phase interval `[start_s, end_s]` in simulated
    /// seconds. Spans are few (one per phase) and never dropped.
    pub fn span(&self, name: &'static str, start_s: f64, end_s: f64) {
        self.inner.lock().spans.push(TraceSpan {
            name,
            start_s,
            end_s,
        });
    }

    /// Record a point event with counter attributes at simulated time `t_s`.
    pub fn event(&self, name: &'static str, t_s: f64, attrs: &[(&'static str, u64)]) {
        let mut g = self.inner.lock();
        if g.events.len() >= self.max_events {
            g.dropped_events += 1;
            return;
        }
        g.events.push(TraceEvent {
            name,
            t_s,
            attrs: attrs.to_vec(),
        });
    }

    pub fn spans(&self) -> Vec<TraceSpan> {
        self.inner.lock().spans.clone()
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.clone()
    }

    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().dropped_events
    }

    /// Serialize the whole trace as a single JSON document. Events keep
    /// their recording order, which for coordinator-side emission is the
    /// canonical partition order.
    pub fn to_json(&self) -> String {
        let g = self.inner.lock();
        let spans = g.spans.iter().map(|s| {
            Json::obj([
                ("name", s.name.into()),
                ("start_s", s.start_s.into()),
                ("end_s", s.end_s.into()),
            ])
        });
        let events = g.events.iter().map(|e| {
            let attrs = e.attrs.iter().map(|&(k, v)| (k, v.into()));
            Json::obj([("name", e.name.into()), ("t_s", e.t_s.into())].into_iter().chain(attrs))
        });
        Json::obj([
            ("schema_version", METRICS_SCHEMA_VERSION.into()),
            ("kind", "sjoin-trace".into()),
            ("clock", "simulated-seconds".into()),
            ("spans", Json::arr(spans)),
            ("events", Json::arr(events)),
            ("dropped_events", g.dropped_events.into()),
        ])
        .pretty()
    }
}

/// One phase row of a [`MetricsReport`]: disjoint I/O bucket + raw (unscaled)
/// CPU seconds attributed to the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMetric {
    pub name: &'static str,
    pub io: IoStats,
    pub cpu_seconds: f64,
}

/// Extra whole-run counters carried by a [`MetricsReport`]. All optional in
/// the sense that algorithms without the concept report zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Candidate pairs tested by the refinement-free filter step, when the
    /// algorithm tracks them (`results + duplicates` must equal this).
    pub candidates: Option<u64>,
    pub results: u64,
    pub duplicates: u64,
    pub partitions: u64,
    pub requeued_partitions: u64,
    pub degraded_partitions: u64,
    pub checkpoint_commits: u64,
    /// Partition phases skipped because the service reused cached partition
    /// files for the same config+input fingerprint (PR 7). Zero for one-shot
    /// runs. Additive to schema v2: absent readers ignore it.
    pub partition_cache_hits: u64,
}

/// Reconciled, versioned summary of one join run.
///
/// Build it with the per-phase buckets and the *independently computed*
/// totals from the run's stats struct; [`MetricsReport::reconcile`] then
/// proves the two agree before anything is exported.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    pub schema_version: u32,
    pub algo: String,
    pub threads: usize,
    pub model: DiskModel,
    pub phases: Vec<PhaseMetric>,
    pub counters: RunCounters,
    /// Total I/O as reported by the stats struct (`io_total()`).
    pub io_total: IoStats,
    /// Data channels of the run's disk (`model.data_channels()`).
    pub channels: usize,
    /// I/O on the serial shared lane (manifest, journal, results, dedup
    /// scratch). Together with `io_channels` this must sum field-for-field
    /// to `io_total`.
    pub io_shared: IoStats,
    /// Per-data-channel I/O, one bucket per channel.
    pub io_channels: Vec<IoStats>,
    /// Total raw CPU seconds as reported by the stats struct.
    pub cpu_seconds: f64,
    pub scaled_cpu_seconds: f64,
    /// Serial-equivalent disk time: `model.seconds(io_total)`, i.e. every
    /// unit on one spindle. Kept for cross-version comparability.
    pub io_seconds: f64,
    /// Channel-parallel disk time: shared lane + busiest data channel.
    pub io_parallel_seconds: f64,
    /// Disk time hidden behind computation by double-buffered prefetch
    /// (zero with one channel).
    pub prefetch_hidden_seconds: f64,
    pub total_seconds: f64,
    /// Pipelined first-result position (§3.1/§5). Its CPU leg is measured
    /// on the host's compute clock, so the combined value is reproducible
    /// only in aggregate; the deterministic part is
    /// [`first_result_io_seconds`](Self::first_result_io_seconds).
    pub first_result_seconds: Option<f64>,
    /// The I/O-only leg of the first-result position — pure simulated
    /// time, never past `io_seconds`. Under `cpu_slowdown = 0` the whole
    /// position is I/O-derived and bit-identical at every thread count;
    /// with live CPU costing the minimizing task can shift with the host
    /// measurement, moving this leg slightly.
    pub first_result_io_seconds: Option<f64>,
}

/// A reconciliation failure: which invariant broke and the two sides.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileError {
    pub what: String,
}

impl std::fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metrics reconciliation failed: {}", self.what)
    }
}

impl std::error::Error for ReconcileError {}

impl MetricsReport {
    /// Check every exported number against the run totals. The phase I/O
    /// buckets must sum **field-for-field exactly** to `io_total`; CPU and
    /// seconds identities are checked bit-exactly too, because both sides
    /// are computed by summing the same f64s in the same order.
    pub fn reconcile(&self) -> Result<(), ReconcileError> {
        let mut io_sum = IoStats::default();
        let mut cpu_sum = 0.0f64;
        for p in &self.phases {
            io_sum = io_sum.plus(&p.io);
            cpu_sum += p.cpu_seconds;
        }
        if io_sum != self.io_total {
            return Err(ReconcileError {
                what: format!(
                    "phase IoStats sum != io_total (sum {:?}, total {:?})",
                    io_sum, self.io_total
                ),
            });
        }
        // The channel decomposition is a second, independent partition of
        // the same total: shared lane + every data channel must also sum
        // field-for-field to io_total.
        if self.channels != self.model.data_channels() {
            return Err(ReconcileError {
                what: format!(
                    "channels {} != model.data_channels() {}",
                    self.channels,
                    self.model.data_channels()
                ),
            });
        }
        if self.io_channels.len() != self.channels {
            return Err(ReconcileError {
                what: format!(
                    "io_channels has {} buckets, expected {}",
                    self.io_channels.len(),
                    self.channels
                ),
            });
        }
        let mut chan_sum = self.io_shared;
        for c in &self.io_channels {
            chan_sum = chan_sum.plus(c);
        }
        if chan_sum != self.io_total {
            return Err(ReconcileError {
                what: format!(
                    "io_shared + channel IoStats sum != io_total (sum {:?}, total {:?})",
                    chan_sum, self.io_total
                ),
            });
        }
        if cpu_sum != self.cpu_seconds {
            return Err(ReconcileError {
                what: format!(
                    "phase cpu sum {} != cpu_seconds {}",
                    cpu_sum,
                    self.cpu_seconds
                ),
            });
        }
        let scaled = self.model.scaled_cpu(self.cpu_seconds);
        if scaled != self.scaled_cpu_seconds {
            return Err(ReconcileError {
                what: format!(
                    "scaled_cpu_seconds {} != model.scaled_cpu(cpu) {}",
                    self.scaled_cpu_seconds,
                    scaled
                ),
            });
        }
        let io_secs = self.model.seconds(&self.io_total);
        if io_secs != self.io_seconds {
            return Err(ReconcileError {
                what: format!(
                    "io_seconds {} != model.seconds(io_total) {}",
                    self.io_seconds,
                    io_secs
                ),
            });
        }
        let io_par = self
            .model
            .parallel_io_seconds(&self.io_shared, &self.io_channels);
        if io_par != self.io_parallel_seconds {
            return Err(ReconcileError {
                what: format!(
                    "io_parallel_seconds {} != shared + busiest channel {}",
                    self.io_parallel_seconds,
                    io_par
                ),
            });
        }
        let hidden = self
            .model
            .prefetch_hidden_seconds(self.scaled_cpu_seconds, &self.io_channels);
        if hidden != self.prefetch_hidden_seconds {
            return Err(ReconcileError {
                what: format!(
                    "prefetch_hidden_seconds {} != min(scaled_cpu, busiest channel) {}",
                    self.prefetch_hidden_seconds,
                    hidden
                ),
            });
        }
        let total = self.scaled_cpu_seconds + self.io_parallel_seconds - self.prefetch_hidden_seconds;
        if total != self.total_seconds {
            return Err(ReconcileError {
                what: format!(
                    "total_seconds {} != scaled_cpu + parallel io - hidden {}",
                    self.total_seconds,
                    total
                ),
            });
        }
        if let Some(c) = self.counters.candidates {
            let rd = self.counters.results + self.counters.duplicates;
            if c != rd {
                return Err(ReconcileError {
                    what: format!("candidates {c} != results + duplicates {rd}"),
                });
            }
        }
        // The combined first-result position mixes in a wall-derived CPU
        // leg whose measurement windows differ from the phase timers, so it
        // cannot be soundly bounded against `total_seconds` on a loaded
        // host. The I/O leg is pure simulated time and *is* bounded: the
        // first pair cannot land after the run's last I/O.
        if let Some(fio) = self.first_result_io_seconds {
            let slack = 1e-9 * self.io_seconds.abs().max(1.0);
            if fio > self.io_seconds + slack {
                return Err(ReconcileError {
                    what: format!(
                        "first_result_io_seconds {} > io_seconds {}",
                        fio,
                        self.io_seconds
                    ),
                });
            }
            if let Some(first) = self.first_result_seconds {
                if first < fio - slack {
                    return Err(ReconcileError {
                        what: format!(
                            "first_result_seconds {} < its own io leg {}",
                            first,
                            fio
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The report as a JSON document. Call [`reconcile`](Self::reconcile)
    /// first; the exporters in this workspace refuse to write an
    /// unreconciled report.
    pub fn json(&self) -> Json {
        let (m, c) = (&self.model, &self.counters);
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("name", p.name.into()),
                ("cpu_seconds", p.cpu_seconds.into()),
                ("io", io_json(&p.io)),
            ])
        });
        Json::obj([
            ("schema_version", self.schema_version.into()),
            ("kind", "sjoin-metrics".into()),
            ("algo", self.algo.as_str().into()),
            ("threads", self.threads.into()),
            (
                "model",
                Json::obj([
                    ("page_size", m.page_size.into()),
                    ("positioning_ratio", m.positioning_ratio.into()),
                    ("transfer_secs_per_page", m.transfer_secs_per_page.into()),
                    ("cpu_slowdown", m.cpu_slowdown.into()),
                    ("channels", m.channels.into()),
                ]),
            ),
            ("phases", Json::arr(phases)),
            ("candidates", c.candidates.into()),
            ("results", c.results.into()),
            ("duplicates", c.duplicates.into()),
            ("partitions", c.partitions.into()),
            ("requeued_partitions", c.requeued_partitions.into()),
            ("degraded_partitions", c.degraded_partitions.into()),
            ("checkpoint_commits", c.checkpoint_commits.into()),
            ("partition_cache_hits", c.partition_cache_hits.into()),
            ("io_total", io_json(&self.io_total)),
            ("channels", self.channels.into()),
            ("io_shared", io_json(&self.io_shared)),
            ("io_channels", Json::arr(self.io_channels.iter().map(io_json))),
            ("cpu_seconds", self.cpu_seconds.into()),
            ("scaled_cpu_seconds", self.scaled_cpu_seconds.into()),
            ("io_seconds", self.io_seconds.into()),
            ("io_parallel_seconds", self.io_parallel_seconds.into()),
            ("prefetch_hidden_seconds", self.prefetch_hidden_seconds.into()),
            ("total_seconds", self.total_seconds.into()),
            ("first_result_seconds", self.first_result_seconds.into()),
            ("first_result_io_seconds", self.first_result_io_seconds.into()),
        ])
    }

    /// [`json`](Self::json) in the indented form, for a file.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }
}

fn io_json(s: &IoStats) -> Json {
    Json::obj([
        ("read_requests", s.read_requests.into()),
        ("write_requests", s.write_requests.into()),
        ("pages_read", s.pages_read.into()),
        ("pages_written", s.pages_written.into()),
        ("bytes_read", s.bytes_read.into()),
        ("bytes_written", s.bytes_written.into()),
        ("faults_injected", s.faults_injected.into()),
        ("read_retries", s.read_retries.into()),
        ("write_retries", s.write_retries.into()),
        ("backoff_units", s.backoff_units.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MetricsReport {
        let model = DiskModel::default();
        let io_a = IoStats {
            read_requests: 2,
            pages_read: 10,
            bytes_read: 10 * model.page_size as u64,
            ..IoStats::default()
        };
        let io_b = IoStats {
            write_requests: 1,
            pages_written: 4,
            bytes_written: 4 * model.page_size as u64,
            ..IoStats::default()
        };
        let phases = vec![
            PhaseMetric {
                name: "partition",
                io: io_a,
                cpu_seconds: 0.25,
            },
            PhaseMetric {
                name: "join",
                io: io_b,
                cpu_seconds: 0.5,
            },
        ];
        let io_total = io_a.plus(&io_b);
        let cpu = 0.25 + 0.5;
        // Channel decomposition: reads on the single data channel, writes
        // on the shared lane.
        let io_shared = io_b;
        let io_channels = vec![io_a];
        let scaled = model.scaled_cpu(cpu);
        let io_par = model.parallel_io_seconds(&io_shared, &io_channels);
        let hidden = model.prefetch_hidden_seconds(scaled, &io_channels);
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            algo: "pbsm".to_string(),
            threads: 1,
            model,
            phases,
            counters: RunCounters {
                candidates: Some(12),
                results: 10,
                duplicates: 2,
                ..RunCounters::default()
            },
            io_total,
            channels: model.data_channels(),
            io_shared,
            io_channels,
            cpu_seconds: cpu,
            scaled_cpu_seconds: scaled,
            io_seconds: model.seconds(&io_total),
            io_parallel_seconds: io_par,
            prefetch_hidden_seconds: hidden,
            total_seconds: scaled + io_par - hidden,
            first_result_seconds: None,
            first_result_io_seconds: None,
        }
    }

    #[test]
    fn reconcile_accepts_consistent_report() {
        report().reconcile().expect("consistent report reconciles");
    }

    #[test]
    fn reconcile_rejects_io_drift() {
        let mut r = report();
        r.io_total.pages_read += 1;
        let err = r.reconcile().expect_err("drifted io must fail");
        assert!(err.what.contains("io_total"), "{err}");
    }

    #[test]
    fn reconcile_rejects_first_result_io_past_the_run() {
        let mut r = report();
        r.first_result_seconds = Some(r.total_seconds);
        r.first_result_io_seconds = Some(r.io_seconds * 2.0);
        let err = r.reconcile().expect_err("io leg past io_seconds must fail");
        assert!(err.what.contains("first_result_io_seconds"), "{err}");
        r.first_result_io_seconds = Some(r.io_seconds);
        r.reconcile().expect("io leg at the boundary reconciles");
    }

    #[test]
    fn reconcile_rejects_corrupted_channel_bucket() {
        // A channel bucket that drifts from the decomposition must be
        // refused even though io_total and the phase sum still agree.
        let mut r = report();
        r.io_channels[0].pages_read += 1;
        let err = r.reconcile().expect_err("corrupted channel bucket must fail");
        assert!(err.what.contains("io_shared + channel"), "{err}");
    }

    fn two_channel_report() -> MetricsReport {
        let mut r = report();
        r.model.channels = 2;
        r.channels = 2;
        r.io_channels.push(IoStats::default());
        r.io_parallel_seconds = r.model.parallel_io_seconds(&r.io_shared, &r.io_channels);
        r.prefetch_hidden_seconds = r
            .model
            .prefetch_hidden_seconds(r.scaled_cpu_seconds, &r.io_channels);
        r.total_seconds = r.scaled_cpu_seconds + r.io_parallel_seconds - r.prefetch_hidden_seconds;
        r
    }

    #[test]
    fn two_channel_report_checks_parallel_time_identities() {
        let r = two_channel_report();
        assert!(r.prefetch_hidden_seconds > 0.0, "two channels hide io");
        assert!(r.io_parallel_seconds < r.io_seconds + 1e-12);
        r.reconcile().expect("two-channel report reconciles");
        // Shifting load between buckets keeps the field-for-field sum but
        // breaks the shared + busiest-channel time — also refused.
        let mut r = two_channel_report();
        r.io_shared.pages_written -= 2;
        r.io_channels[1].pages_written += 2;
        let err = r.reconcile().expect_err("shifted decomposition must fail");
        assert!(err.what.contains("io_parallel_seconds"), "{err}");
    }

    #[test]
    fn reconcile_rejects_channel_count_mismatch() {
        let mut r = report();
        r.io_channels.push(IoStats::default());
        let err = r.reconcile().expect_err("extra bucket must fail");
        assert!(err.what.contains("io_channels"), "{err}");
    }

    #[test]
    fn reconcile_rejects_candidate_mismatch() {
        let mut r = report();
        r.counters.candidates = Some(11);
        let err = r.reconcile().expect_err("candidate identity must fail");
        assert!(err.what.contains("candidates"), "{err}");
    }

    #[test]
    fn recorder_caps_events_and_counts_drops() {
        let rec = Recorder::with_max_events(2);
        for i in 0..5 {
            rec.event("partition-commit", i as f64, &[("partition", i)]);
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped_events(), 3);
        let doc = Json::parse(&rec.to_json()).expect("trace parses");
        assert_eq!(doc.get("dropped_events").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn trace_json_is_well_formed_enough() {
        let rec = Recorder::new();
        rec.span("partition", 0.0, 1.5);
        rec.event("partition-commit", 1.5, &[("partition", 0), ("results", 7)]);
        let doc = Json::parse(&rec.to_json()).expect("trace parses");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(2));
        let span = &doc.get("spans").and_then(Json::as_arr).expect("spans")[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("partition"));
        assert_eq!(span.get("end_s").and_then(Json::as_f64), Some(1.5));
        let event = &doc.get("events").and_then(Json::as_arr).expect("events")[0];
        assert_eq!(event.get("t_s").and_then(Json::as_f64), Some(1.5));
        assert_eq!(event.get("results").and_then(Json::as_u64), Some(7));
    }
}
