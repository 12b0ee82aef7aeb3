//! The run lifecycle every partitioned join shares.
//!
//! The Reference Point Method lets each partition report its pairs
//! independently, exactly once — so everything *around* "join one unit" is
//! the same for every algorithm, and lives here once:
//!
//! * [`UnitRun`] owns the checkpoint guard and all that touches it. A unit
//!   (a PBSM partition, an S³J discovered partition) is **skipped** when its
//!   journal record is durable, otherwise **joined** by the algorithm's
//!   body, **committed** (results flushed, then journaled) when the run is
//!   checkpointed, **emitted**, folded into the first-result probe and
//!   logged as one `partition-done` event. Sequential executors go through
//!   [`UnitRun::stream`], pool sinks through [`UnitRun::poll`] +
//!   [`UnitRun::deliver`]. What the algorithm supplies is the unit's body and
//!   its positions on the simulated clock; every fault path (degrade,
//!   quarantine, requeue) stays inside that body.
//! * [`RunClock`] carries the run-level clock state (model, channel
//!   decomposition, first-result position) and the formulae over it, so the
//!   per-algorithm stats structs keep only their phase buckets.

use std::sync::MutexGuard;

use geom::RecordId;

use crate::disk::{DiskModel, FileId, IoStats, SimDisk};
use crate::fault::JoinError;
use crate::lock;
use crate::manifest::{RunCheckpoint, RunControl, RunPhase};
use crate::record::{FixedRecord, IdPair};
use crate::work::Work;

/// `(candidates, results, duplicates)` of one unit — its journal record.
pub type Counts = (u64, u64, u64);

/// A position on the pipelined clock: counted CPU work and the run-relative
/// I/O meter. Ordered by [`DiskModel::at`].
pub type ClockPos = (Work, IoStats);

/// Run-level clock state of a finished join and the one copy of the clock
/// formulae. CPU arguments are counted [`Work`] (the sum of the caller's
/// phase buckets); pricing it happens here.
#[derive(Debug, Clone, Default)]
pub struct RunClock {
    pub model: DiskModel,
    /// Shared-lane I/O: untagged files (manifest, journal, results, scratch)
    /// whose requests serialize on the multi-channel clock. With
    /// `io_channels` an exact field-for-field decomposition of the run's
    /// total I/O.
    pub io_shared: IoStats,
    /// Per-data-channel I/O, always `model.data_channels()` entries. With
    /// one channel the split is trivial and every time below is
    /// bit-identical to the serial model.
    pub io_channels: Vec<IoStats>,
    /// The earliest result on the pipelined clock, minimized over units: the
    /// emitting unit's start on the priced clock (on a pool, its worker's
    /// load on the replayed claim rule, [`crate::Schedule`]) and its own I/O
    /// up to its first pair, which is the same at every thread count.
    pub first_result: Option<ClockPos>,
}

impl RunClock {
    /// A zeroed clock: nothing on any lane, no result yet.
    pub fn new(model: DiskModel) -> RunClock {
        RunClock {
            model,
            io_shared: IoStats::default(),
            io_channels: vec![IoStats::default(); model.data_channels()],
            first_result: None,
        }
    }

    /// Simulated I/O wall time under the multi-channel clock: the shared
    /// lane serializes, data channels overlap (`shared + max over channels`).
    pub fn io_parallel_seconds(&self) -> f64 {
        self.model
            .parallel_io_seconds(&self.io_shared, &self.io_channels)
    }

    /// I/O time hidden behind computation: the channel model's prefetch
    /// credit ([`DiskModel::prefetch_hidden_seconds`]) — zero with a single
    /// channel: nowhere to overlap.
    pub fn prefetch_hidden_seconds(&self, cpu: &Work) -> f64 {
        self.model
            .prefetch_hidden_seconds(self.model.priced_cpu(cpu), &self.io_channels)
    }

    /// The paper's "total runtime": priced CPU plus channel-parallel disk
    /// time, minus the overlap. With one channel this reduces bit-exactly to
    /// `priced_cpu + io_seconds` — the position [`DiskModel::at`] gives the
    /// run's last instant, which is what a deadline is last charged with.
    pub fn total_seconds(&self, cpu: &Work) -> f64 {
        self.model.total_seconds(
            self.model.priced_cpu(cpu),
            &self.io_shared,
            &self.io_channels,
        )
    }

    /// Simulated time at which the first result appeared (`None` if empty).
    pub fn first_result_seconds(&self) -> Option<f64> {
        let (cpu, io) = self.first_result.as_ref()?;
        Some(self.model.at(cpu, io))
    }

    /// The I/O-only leg of the first-result position.
    pub fn first_result_io_seconds(&self) -> Option<f64> {
        Some(self.model.seconds(&self.first_result.as_ref()?.1))
    }
}

/// A unit a pool worker finished, as its sink hands it to
/// [`UnitRun::deliver`].
pub struct FinishedUnit {
    pub pairs: Vec<(RecordId, RecordId)>,
    pub counts: Counts,
    /// Pages the unit itself moved; its commit's are added for the event.
    pub io: IoStats,
    /// Where the unit's first pair sits on the pipelined clock when pairs
    /// stream out as found (no checkpoint).
    pub first: Option<ClockPos>,
    /// Where the unit's own work ends. Under a checkpoint nothing leaves
    /// before the commit, so the first pair sits here plus the commit I/O
    /// that precedes its delivery.
    pub done: ClockPos,
}

/// Driver of one run's join units; see the module docs.
pub struct UnitRun<'a> {
    ctl: &'a RunControl,
    disk: &'a SimDisk,
    cp: Option<MutexGuard<'a, RunCheckpoint>>,
    /// Per-channel meters at run start: the disk may carry charges from
    /// earlier runs, only this run's deltas count.
    ch0: Vec<IoStats>,
    io_checkpoint: IoStats,
    commits: u64,
    first: Option<ClockPos>,
    /// First terminal error seen by a pool sink.
    err: Option<JoinError>,
}

impl<'a> UnitRun<'a> {
    /// Takes the run's checkpoint (if any) for the whole join and notes the
    /// channel meters the closing decomposition is relative to.
    pub fn begin(ctl: &'a RunControl, disk: &'a SimDisk) -> UnitRun<'a> {
        UnitRun {
            ctl,
            disk,
            cp: ctl.checkpoint.as_ref().map(lock),
            ch0: disk.channel_stats(),
            io_checkpoint: IoStats::default(),
            commits: 0,
            first: None,
            err: None,
        }
    }

    pub fn checkpointing(&self) -> bool {
        self.cp.is_some()
    }

    /// The recovered (or freshly started) manifest's phase.
    pub fn phase(&self) -> Option<RunPhase> {
        self.cp.as_deref().map(RunCheckpoint::phase)
    }

    /// Unit count recorded in the manifest (zero without a checkpoint).
    pub fn partitions(&self) -> u32 {
        self.cp.as_deref().map_or(0, RunCheckpoint::partitions)
    }

    /// Input files recorded in the manifest — what a resumed run reads
    /// instead of redoing the phase that wrote them.
    pub fn files(&self) -> (&[FileId], &[FileId]) {
        match self.cp.as_deref() {
            Some(cp) => cp.files(),
            None => (&[], &[]),
        }
    }

    /// `true` iff `unit`'s journal record is durable: the interrupted
    /// process emitted its pairs after the commit, so a resume must skip it
    /// — which is what makes resume exactly-once.
    pub fn is_committed(&self, unit: u32) -> bool {
        self.cp.as_deref().is_some_and(|c| c.is_committed(unit))
    }

    /// Totals of the journal-committed units. A resumed run folds them into
    /// its stats so its reported totals equal an uninterrupted run's.
    pub fn journaled(&self) -> Counts {
        let entries = self.cp.iter().flat_map(|c| c.committed());
        entries.fold((0, 0, 0), |(c, r, d), e| {
            (c + e.candidates, r + e.results, d + e.duplicates)
        })
    }

    /// `Some(journaled totals)` when the recovered run already published
    /// `Done`: everything was emitted before the original process exited, so
    /// the caller reports these and emits nothing (re-emitting would break
    /// exactly-once).
    pub fn finished(&self) -> Option<Counts> {
        (self.phase() == Some(RunPhase::Done)).then(|| self.journaled())
    }

    /// The one checkpoint-I/O bracket: runs `f` on the checkpoint and books
    /// what it cost — success or not — under `io_checkpoint`, never under
    /// the phase it interrupts. A no-op without a checkpoint.
    pub fn publish(
        &mut self,
        f: impl FnOnce(&mut RunCheckpoint) -> Result<(), JoinError>,
    ) -> Result<(), JoinError> {
        let Some(cp) = self.cp.as_deref_mut() else {
            return Ok(());
        };
        let io0 = self.disk.stats();
        let res = f(cp);
        self.io_checkpoint = self.io_checkpoint.plus(&self.disk.stats().delta(&io0));
        res
    }

    /// Checkpoint-layer I/O so far (manifest publishes, result flushes,
    /// journal appends).
    pub fn io_checkpoint(&self) -> IoStats {
        self.io_checkpoint
    }

    /// Commit-protocol steps 2–4 for one finished unit: durably flush its
    /// [`IdPair`]-`encoded` pairs to the results file, append its journal
    /// record (the commit point — crash injection fires here), then emit.
    fn commit_emit(
        &mut self,
        unit: u32,
        encoded: &[u8],
        (candidates, results, duplicates): Counts,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<(), JoinError> {
        let res = self.publish(|cp| {
            cp.append_results(encoded)?;
            cp.commit_partition(unit, candidates, results, duplicates)
        });
        // The durable journal record — not the process's last instruction —
        // is the delivery boundary: a resume skips every committed unit, so
        // a committed unit's pairs must reach the consumer even when the
        // injected crash fires between the commit and this loop (otherwise
        // they would be emitted by neither leg). An uncommitted unit's pairs
        // stay unemitted; the resume recomputes and emits them.
        if res.is_ok() || self.is_committed(unit) {
            self.commits += 1;
            for rec in encoded.chunks_exact(IdPair::SIZE) {
                let p = IdPair::decode(rec);
                out(RecordId(p.r), RecordId(p.s));
            }
        }
        res
    }

    /// `true` once some unit has emitted. Later units of one sequential
    /// pass can only sit later on the clock, so such a caller stops passing
    /// a `position` to [`UnitRun::stream`].
    pub fn probed(&self) -> bool {
        self.first.is_some()
    }

    /// Folds one emitting unit's first-pair position into the first-result
    /// probe: the earliest on the pipelined clock wins.
    pub fn probe(&mut self, at: ClockPos) {
        let model = self.disk.model();
        let secs = |p: &ClockPos| model.at(&p.0, &p.1);
        if self.first.as_ref().is_none_or(|cur| secs(&at) < secs(cur)) {
            self.first = Some(at);
        }
    }

    /// The one `partition-done` event, always after the unit's delivery.
    fn unit_done(&self, unit: u32, counts: Counts, io: &IoStats, t: f64) {
        let (candidates, results, duplicates) = counts;
        self.ctl.event(
            "partition-done",
            t,
            &[
                ("partition", u64::from(unit)),
                ("candidates", candidates),
                ("results", results),
                ("duplicates", duplicates),
                ("pages_read", io.pages_read),
                ("pages_written", io.pages_written),
                ("committed", u64::from(self.cp.is_some())),
            ],
        );
    }

    /// Streaming form, for sequential executors: runs `body` for `unit` and
    /// delivers its pairs. Without a checkpoint `body`'s sink *is* the
    /// consumer (one hop through the probe), so pairs leave as they are
    /// found; with one they are buffered, committed and then emitted.
    /// `position` is read at the unit's first delivered pair, `now` (the
    /// run's simulated seconds so far) after its delivery. The caller polls
    /// the deadline itself and latches its own first error: a sequential
    /// loop never touches the caller's cancel token.
    pub fn stream(
        &mut self,
        unit: u32,
        position: Option<&dyn Fn() -> ClockPos>,
        now: &dyn Fn() -> f64,
        body: impl FnOnce(&mut dyn FnMut(RecordId, RecordId)) -> Result<Counts, JoinError>,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<(), JoinError> {
        let watch = self.ctl.observed().then(|| self.disk.stats());
        let mut first: Option<ClockPos> = None;
        let mut track = |a: RecordId, b: RecordId| {
            if let (None, Some(at)) = (&first, position) {
                first = Some(at());
            }
            out(a, b);
        };
        let res = if self.cp.is_some() {
            let mut encoded = Vec::new();
            body(&mut |a, b| encoded.extend_from_slice(&encode_pair(a, b))).and_then(|counts| {
                self.commit_emit(unit, &encoded, counts, &mut track)?;
                Ok(counts)
            })
        } else {
            body(&mut track)
        };
        if let Some(at) = first {
            self.probe(at);
        }
        let counts = res?;
        if let Some(io0) = watch {
            self.unit_done(unit, counts, &self.disk.stats().delta(&io0), now());
        }
        Ok(())
    }

    /// Charges the deadline at unit granularity from a pool sink, latching
    /// the first interruption.
    pub fn poll(&mut self, phase: &'static str, elapsed: impl Fn() -> f64) {
        if self.err.is_none() {
            self.err = self.ctl.charge(phase, elapsed);
        }
    }

    /// Buffered form, for pool sinks (which see units in canonical order):
    /// delivers one finished unit — committing first under a checkpoint —
    /// or latches its terminal error. After the first error nothing more is
    /// delivered. `now` is the simulated time a sequential run would show
    /// after this delivery.
    pub fn deliver(
        &mut self,
        unit: u32,
        done: Result<FinishedUnit, JoinError>,
        now: &dyn Fn() -> f64,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) {
        match done {
            Ok(f) if self.err.is_none() => {
                let ckpt0 = self.io_checkpoint;
                let (res, first) = if self.cp.is_some() {
                    let (disk, io0) = (self.disk, self.disk.stats());
                    let mut first = None;
                    let mut track = |a: RecordId, b: RecordId| {
                        if first.is_none() {
                            first = Some((f.done.0, f.done.1.plus(&disk.stats().delta(&io0))));
                        }
                        out(a, b);
                    };
                    let mut encoded = Vec::with_capacity(f.pairs.len() * IdPair::SIZE);
                    f.pairs.iter().for_each(|&(a, b)| encoded.extend_from_slice(&encode_pair(a, b)));
                    (
                        self.commit_emit(unit, &encoded, f.counts, &mut track),
                        first,
                    )
                } else {
                    for &(a, b) in &f.pairs {
                        out(a, b);
                    }
                    (Ok(()), f.first)
                };
                if let Some(at) = first {
                    self.probe(at);
                }
                match res {
                    Ok(()) if self.ctl.observed() => {
                        let io = f.io.plus(&self.io_checkpoint.delta(&ckpt0));
                        self.unit_done(unit, f.counts, &io, now());
                    }
                    Ok(()) => {}
                    Err(e) => self.err = Some(e),
                }
            }
            Ok(_) => {}
            Err(e) => self.fail(e),
        }
        if self.err.is_some() && self.cp.is_some() {
            // A checkpointed run that hit a terminal error (crash injection,
            // commit failure, deadline) is dead: stop the workers from
            // claiming further units, like the process exit they simulate
            // would. Committed state stays.
            self.ctl.cancel.cancel();
        }
    }

    /// Latches a terminal error a pool sink met outside [`UnitRun::deliver`].
    pub fn fail(&mut self, e: JoinError) {
        self.err.get_or_insert(e);
    }

    pub fn failed(&self) -> bool {
        self.err.is_some()
    }

    /// What a pooled phase returns once its workers have drained: the latched
    /// error, if any — else the interruption of a token tripped from outside
    /// the run (say by the output consumer, mid-delivery). The pool stops
    /// claiming units at the trip and a sink that is handed nothing more
    /// never polls again, so without this look a partial result would pass
    /// for a complete one. The peek is non-counting and charges no deadline:
    /// `cancel_after_checks` and deadline runs end where they always did.
    pub fn settle(
        &mut self,
        phase: &'static str,
        now: impl FnOnce() -> f64,
    ) -> Result<(), JoinError> {
        let tripped = || {
            let cause = self.ctl.cancel.cause()?;
            Some(self.ctl.interruption(cause, phase, now))
        };
        self.err.take().or_else(tripped).map_or(Ok(()), Err)
    }

    /// Publishes `Done` (dropping the manifest's input files; the journal,
    /// results and manifest remain as the run's durable record), hands the
    /// checkpoint meters to the caller's stats and closes the clock: the
    /// channel decomposition is the run-relative delta of the disk's
    /// per-channel meters, so every worker fork must have folded back.
    pub fn close(
        mut self,
        io_checkpoint: &mut IoStats,
        commits: &mut u64,
    ) -> Result<RunClock, JoinError> {
        self.publish(RunCheckpoint::finish)?;
        *io_checkpoint = self.io_checkpoint;
        *commits = self.commits;
        // Index 0 is the shared lane, `1..=D` the data channels.
        let end = self.disk.channel_stats();
        let lanes: Vec<IoStats> = end.iter().zip(&self.ch0).map(|(e, s)| e.delta(s)).collect();
        Ok(RunClock {
            model: self.disk.model(),
            io_shared: lanes[0],
            io_channels: lanes[1..].to_vec(),
            first_result: self.first,
        })
    }
}

/// One pair as the results file holds it, for a commit buffer.
fn encode_pair(a: RecordId, b: RecordId) -> [u8; IdPair::SIZE] {
    let mut rec = [0u8; IdPair::SIZE];
    IdPair { r: a.0, s: b.0 }.encode(&mut rec);
    rec
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{recover, CrashPoint, FaultPlan, IoError, JoinErrorKind, Recovered, RetryPolicy};

    const FINGERPRINT: u64 = 0xF00D;

    fn disk(crash: Option<CrashPoint>) -> SimDisk {
        let d = SimDisk::new(DiskModel {
            cpu_slowdown: 0.0,
            ..DiskModel::default()
        });
        match crash {
            Some(point) => d.with_faults(FaultPlan::crash_only(1, point), RetryPolicy::default()),
            None => d,
        }
    }

    /// A fresh durable run on `d`, its `Join` manifest not yet published.
    fn durable(d: &SimDisk) -> RunControl {
        let cp = RunCheckpoint::start(d, d.create(), 7, FINGERPRINT, 1);
        RunControl::none().with_checkpoint(cp)
    }

    /// The run `d` holds after its process died, as a resume would see it.
    fn recovered(d: &SimDisk) -> RunControl {
        match recover(d, FileId::from_raw(0), FINGERPRINT).unwrap() {
            Recovered::Resumed(cp) => RunControl::none().with_checkpoint(cp),
            Recovered::Fresh => panic!("a manifest was published"),
        }
    }

    /// Unit `u`'s fake join: three pairs, one suppressed duplicate.
    fn pairs(u: u32) -> Vec<(RecordId, RecordId)> {
        (0..3)
            .map(|i| (RecordId(u64::from(u)), RecordId(i)))
            .collect()
    }

    fn body(
        u: u32,
    ) -> impl FnOnce(&mut dyn FnMut(RecordId, RecordId)) -> Result<Counts, JoinError> {
        move |emit| {
            for (a, b) in pairs(u) {
                emit(a, b);
            }
            Ok((4, 3, 1))
        }
    }

    /// Streams units `0..n` until the first error, collecting what came out.
    fn stream_units(
        run: &mut UnitRun<'_>,
        n: u32,
    ) -> (Vec<(RecordId, RecordId)>, Option<JoinError>) {
        let mut got = Vec::new();
        for u in 0..n {
            let res = run.stream(u, None, &|| 0.0, body(u), &mut |a, b| got.push((a, b)));
            if let Err(e) = res {
                return (got, Some(e));
            }
        }
        (got, None)
    }

    #[test]
    fn a_crash_between_commit_and_emission_still_delivers_and_a_resume_skips_the_unit() {
        let d = disk(Some(CrashPoint::AfterCommit(2)));
        let ctl = durable(&d);
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|cp| cp.commit_join_phase(3, &[], &[])).unwrap();
        let (got, err) = stream_units(&mut run, 3);
        let err = err.expect("the crash point fires at the second commit");
        assert!(matches!(
            err.kind,
            JoinErrorKind::Crashed(CrashPoint::AfterCommit(2))
        ));
        // Unit 1's record is durable, so its pairs went out although the
        // "process" died before the emission loop.
        assert_eq!(got, [pairs(0), pairs(1)].concat());
        drop(run);

        let ctl = recovered(&d);
        let run = UnitRun::begin(&ctl, &d);
        assert_eq!(run.phase(), Some(RunPhase::Join));
        assert_eq!(run.finished(), None);
        assert!(run.is_committed(0) && run.is_committed(1) && !run.is_committed(2));
        assert_eq!(run.journaled(), (8, 6, 2));
    }

    #[test]
    fn an_uncommitted_unit_emits_nothing() {
        let d = disk(Some(CrashPoint::MidPartition(1)));
        let ctl = durable(&d);
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|cp| cp.commit_join_phase(3, &[], &[])).unwrap();
        let (got, err) = stream_units(&mut run, 3);
        assert!(matches!(err.unwrap().kind, JoinErrorKind::Crashed(_)));
        assert_eq!(
            got,
            pairs(0),
            "unit 1's journal record tore: its pairs stay in"
        );
        drop(run);
        let ctl = recovered(&d);
        let run = UnitRun::begin(&ctl, &d);
        assert!(run.is_committed(0) && !run.is_committed(1));
        assert_eq!(run.journaled(), (4, 3, 1));
    }

    #[test]
    fn a_done_run_emits_nothing_and_reports_the_journaled_totals() {
        let d = disk(None);
        let ctl = durable(&d);
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|cp| cp.commit_join_phase(2, &[], &[])).unwrap();
        assert_eq!(stream_units(&mut run, 2).0.len(), 6);
        let (mut io, mut commits) = (IoStats::default(), 0);
        run.close(&mut io, &mut commits).unwrap();
        assert_eq!(commits, 2);

        let ctl = recovered(&d);
        let run = UnitRun::begin(&ctl, &d);
        assert_eq!(run.finished(), Some((8, 6, 2)));
        assert_eq!(run.partitions(), 2);
    }

    #[test]
    fn the_probe_keeps_the_earliest_position_whatever_the_delivery_order() {
        let at = |pages: u64| {
            (
                Work::default(),
                IoStats {
                    pages_read: pages,
                    ..IoStats::default()
                },
            )
        };
        for order in [[5u64, 2, 9], [9, 5, 2], [2, 9, 5]] {
            let d = disk(None);
            let ctl = RunControl::none();
            let mut run = UnitRun::begin(&ctl, &d);
            for (u, pages) in order.into_iter().enumerate() {
                let unit = FinishedUnit {
                    pairs: pairs(u as u32),
                    counts: (4, 3, 1),
                    io: IoStats::default(),
                    first: Some(at(pages)),
                    done: at(100),
                };
                run.deliver(u as u32, Ok(unit), &|| 0.0, &mut |_, _| {});
            }
            // A unit without pairs has no position to offer.
            let empty = FinishedUnit {
                pairs: Vec::new(),
                counts: (0, 0, 0),
                io: IoStats::default(),
                first: None,
                done: at(0),
            };
            run.deliver(3, Ok(empty), &|| 0.0, &mut |_, _| {});
            let clock = run.close(&mut IoStats::default(), &mut 0).unwrap();
            assert_eq!(clock.first_result, Some(at(2)), "order {order:?}");
        }
    }

    #[test]
    fn checkpoint_io_lands_only_in_io_checkpoint() {
        let d = disk(None);
        let ctl = durable(&d);
        let io0 = d.stats();
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|cp| cp.commit_join_phase(1, &[], &[])).unwrap();
        // The unit's own I/O: one page written by its body.
        let own = IoStats {
            write_requests: 1,
            pages_written: 1,
            bytes_written: 64,
            ..IoStats::default()
        };
        let scratch = d.create();
        let (ckpt0, unit0) = (run.io_checkpoint(), d.stats());
        let join = |emit: &mut dyn FnMut(RecordId, RecordId)| {
            d.append(scratch, &[7u8; 64]);
            body(0)(emit)
        };
        run.stream(0, None, &|| 0.0, join, &mut |_, _| {}).unwrap();
        let commit = run.io_checkpoint().delta(&ckpt0);
        assert_eq!(
            commit.plus(&own),
            d.stats().delta(&unit0),
            "the commit is booked apart"
        );
        let (mut io, mut commits) = (IoStats::default(), 0);
        let clock = run.close(&mut io, &mut commits).unwrap();
        let total = d.stats().delta(&io0);
        assert_eq!(
            io.plus(&own),
            total,
            "every other request is the checkpoint layer's"
        );
        assert!(io.pages_written > commit.pages_written && io.bytes_read == 0);
        // All of it — manifest, journal, results, the untagged scratch file
        // — rode the shared lane.
        assert_eq!(clock.io_shared, total);
        assert!(clock.io_channels.iter().all(|c| *c == IoStats::default()));

        // Without a checkpoint `publish` is a no-op and nothing is booked.
        let ctl = RunControl::none();
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|_| panic!("no checkpoint to publish to"))
            .unwrap();
        assert_eq!(stream_units(&mut run, 2).0.len(), 6);
        assert_eq!(run.io_checkpoint(), IoStats::default());
    }

    #[test]
    fn only_the_buffered_form_under_a_checkpoint_trips_the_cancel_token() {
        let failure = || JoinError::new("join", IoError::unsupported());
        let failed_body = |_: &mut dyn FnMut(RecordId, RecordId)| {
            Err(JoinError::new("join", IoError::unsupported()))
        };

        // Streaming form, checkpointed: the error comes back, the token stays.
        let d = disk(None);
        let ctl = durable(&d);
        let mut run = UnitRun::begin(&ctl, &d);
        run.publish(|cp| cp.commit_join_phase(2, &[], &[])).unwrap();
        assert!(run
            .stream(0, None, &|| 0.0, failed_body, &mut |_, _| {})
            .is_err());
        assert!(!ctl.cancel.is_cancelled() && !run.failed());

        // Buffered form, same run: latched, and the workers are told to stop.
        run.deliver(0, Err(failure()), &|| 0.0, &mut |_, _| {});
        assert!(run.failed() && ctl.cancel.is_cancelled());
        // Nothing is delivered past the first error.
        let mut got = 0;
        let unit = FinishedUnit {
            pairs: pairs(1),
            counts: (4, 3, 1),
            io: IoStats::default(),
            first: None,
            done: (Work::default(), IoStats::default()),
        };
        run.deliver(1, Ok(unit), &|| 0.0, &mut |_, _| got += 1);
        assert_eq!(got, 0);
        assert!(!run.is_committed(1));
        // The latched failure wins over the trip it caused.
        assert_eq!(run.settle("join", || 0.0), Err(failure()));
        drop(run);

        // Buffered form without a checkpoint: latched, token untouched.
        let ctl = RunControl::none();
        let mut run = UnitRun::begin(&ctl, &d);
        run.deliver(0, Err(failure()), &|| 0.0, &mut |_, _| {});
        assert!(run.failed() && !ctl.cancel.is_cancelled());
        // A deadline met in `poll` is latched the same way.
        let ctl = RunControl::none().with_deadline(1.0);
        let mut run = UnitRun::begin(&ctl, &d);
        run.poll("join", || 2.0);
        assert!(matches!(
            run.settle("join", || 2.0).unwrap_err().kind,
            JoinErrorKind::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn a_token_tripped_from_outside_settles_as_interrupted() {
        let d = disk(None);
        let unit = |u: u32| FinishedUnit {
            pairs: pairs(u),
            counts: (4, 3, 1),
            io: IoStats::default(),
            first: None,
            done: (Work::default(), IoStats::default()),
        };
        // The consumer cancels mid-delivery: nothing is latched (no poll
        // follows — the pool hands the sink nothing more), yet the phase
        // must not pass for complete.
        let ctl = RunControl::none();
        let mut run = UnitRun::begin(&ctl, &d);
        run.deliver(0, Ok(unit(0)), &|| 0.0, &mut |_, _| ctl.cancel.cancel());
        assert!(!run.failed());
        assert_eq!(run.settle("join", || 0.0), Err(JoinError::of("join", JoinErrorKind::Cancelled)));

        // A deadline trip by another holder of the token reports the run's
        // own clock; an untripped token settles clean and counts no check.
        let ctl = RunControl::none().with_deadline(1.0);
        let mut run = UnitRun::begin(&ctl, &d);
        ctl.cancel.cancel_after_checks(1);
        run.deliver(0, Ok(unit(0)), &|| 0.0, &mut |_, _| {});
        assert_eq!(run.settle("join", || 3.0), Ok(()));
        assert!(!ctl.cancel.is_cancelled(), "settle must not count as a check");
        ctl.cancel.cancel_deadline();
        assert_eq!(
            run.settle("scan", || 3.0),
            Err(JoinError::of("scan", JoinErrorKind::DeadlineExceeded { elapsed: 3.0, deadline: 1.0 }))
        );
    }
}
