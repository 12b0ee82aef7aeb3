//! Structured observability on **simulated** time.
//!
//! The recorder captures phase spans and per-partition events whose
//! timestamps are positions on the cost-model clock (DiskModel seconds for
//! I/O plus priced CPU work), *not* wall time. Every simulated quantity in
//! this workspace is a function of a run's counters: deterministic for a
//! fixed seed, and for a pooled phase a replay of the pool's claim rule at
//! the run's thread count ([`crate::Schedule`]). Two runs of one
//! configuration write the same trace byte for byte, which is what makes
//! traces diffable in CI.
//!
//! The second half of this module is the reconciled metrics report: a
//! versioned, machine-readable summary whose exporter *refuses to emit*
//! numbers that do not sum back to the run's own totals. This is a standing
//! guard against the accounting bug class found in PR 4 (per-phase I/O
//! buckets double-counting the checkpoint writes).

use std::sync::{Arc, Mutex};


use crate::disk::{DiskModel, IoStats};
use crate::json::Json;
use crate::lock;

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
        lock(&self.inner).spans.push(TraceSpan {
            name,
            start_s,
            end_s,
        });
    }

    /// Record a point event with counter attributes at simulated time `t_s`.
    pub fn event(&self, name: &'static str, t_s: f64, attrs: &[(&'static str, u64)]) {
        let mut g = lock(&self.inner);
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
        lock(&self.inner).spans.clone()
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.inner).events.clone()
    }

    pub fn dropped_events(&self) -> u64 {
        lock(&self.inner).dropped_events
    }

    /// Serialize the whole trace as a single JSON document. Events keep
    /// their recording order, which for coordinator-side emission is the
    /// canonical partition order.
    pub fn to_json(&self) -> String {
        let g = lock(&self.inner);
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

/// One phase row of a [`MetricsReport`]: disjoint I/O bucket + the host CPU
/// seconds the coordinator timed for the phase.
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
    /// Total host CPU seconds as reported by the stats struct: the host
    /// clock, the one field of the report that differs run to run.
    pub cpu_seconds: f64,
    /// The run's priced CPU work on the emulated machine
    /// ([`DiskModel::priced_cpu`]) — the CPU leg of every simulated time.
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
    /// Pipelined first-result position (§3.1/§5).
    pub first_result_seconds: Option<f64>,
    /// The I/O-only leg of the first-result position — never past
    /// `io_seconds`.
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
    /// buckets must sum **field-for-field exactly** to `io_total`; host CPU
    /// and seconds identities are checked bit-exactly too, because both
    /// sides are computed by summing the same f64s in the same order.
    pub fn reconcile(&self) -> Result<(), ReconcileError> {
        let check = |holds: bool, what: &dyn Fn() -> String| {
            if holds {
                Ok(())
            } else {
                Err(ReconcileError { what: what() })
            }
        };
        let (m, total) = (&self.model, self.io_total);
        let io_sum = self.phases.iter().fold(IoStats::default(), |sum, p| sum.plus(&p.io));
        check(io_sum == total, &|| {
            format!("phase IoStats sum != io_total (sum {io_sum:?}, total {total:?})")
        })?;
        // The channel decomposition is a second, independent partition of
        // the same total: shared lane + every data channel must also sum
        // field-for-field to io_total.
        let channels = m.data_channels();
        check(self.channels == channels, &|| {
            format!("channels {} != model.data_channels() {channels}", self.channels)
        })?;
        check(self.io_channels.len() == channels, &|| {
            format!("io_channels has {} buckets, expected {channels}", self.io_channels.len())
        })?;
        let chan_sum = self.io_channels.iter().fold(self.io_shared, |sum, c| sum.plus(c));
        check(chan_sum == total, &|| {
            format!("io_shared + channel IoStats sum != io_total (sum {chan_sum:?}, total {total:?})")
        })?;
        let cpu_sum = self.phases.iter().fold(0.0, |sum, p| sum + p.cpu_seconds);
        check(cpu_sum == self.cpu_seconds, &|| {
            format!("phase cpu sum {cpu_sum} != cpu_seconds {}", self.cpu_seconds)
        })?;
        let io_secs = m.seconds(&total);
        check(io_secs == self.io_seconds, &|| {
            format!("io_seconds {} != model.seconds(io_total) {io_secs}", self.io_seconds)
        })?;
        let io_par = m.parallel_io_seconds(&self.io_shared, &self.io_channels);
        check(io_par == self.io_parallel_seconds, &|| {
            format!(
                "io_parallel_seconds {} != shared + busiest channel {io_par}",
                self.io_parallel_seconds
            )
        })?;
        let hidden = m.prefetch_hidden_seconds(self.scaled_cpu_seconds, &self.io_channels);
        check(hidden == self.prefetch_hidden_seconds, &|| {
            format!(
                "prefetch_hidden_seconds {} != min(priced cpu, busiest channel) {hidden}",
                self.prefetch_hidden_seconds
            )
        })?;
        let secs = self.scaled_cpu_seconds + self.io_parallel_seconds - self.prefetch_hidden_seconds;
        check(secs == self.total_seconds, &|| {
            format!("total_seconds {} != priced cpu + parallel io - hidden {secs}", self.total_seconds)
        })?;
        if let Some(c) = self.counters.candidates {
            let rd = self.counters.results + self.counters.duplicates;
            check(c == rd, &|| format!("candidates {c} != results + duplicates {rd}"))?;
        }
        // The I/O leg of the first-result position is bounded by the run's
        // serial I/O: the first pair cannot land after the run's last
        // request. (The combined position is not bounded by `total_seconds`:
        // with several channels the total overlaps I/O the position counts
        // serially.)
        if let Some(fio) = self.first_result_io_seconds {
            let slack = 1e-9 * self.io_seconds.abs().max(1.0);
            check(fio <= self.io_seconds + slack, &|| {
                format!("first_result_io_seconds {fio} > io_seconds {}", self.io_seconds)
            })?;
            if let Some(first) = self.first_result_seconds {
                check(first >= fio - slack, &|| {
                    format!("first_result_seconds {first} < its own io leg {fio}")
                })?;
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
        let work = crate::Work {
            tests: 1_000_000,
            ..crate::Work::default()
        };
        let scaled = model.priced_cpu(&work);
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
