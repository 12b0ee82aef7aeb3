//! Durable run manifests, a per-partition completion journal, and crash /
//! cancellation plumbing — the exactly-once resume layer.
//!
//! PBSM and S³J materialize intermediate state (partition files, level
//! files) before the join phase, so a crash mid-run would otherwise lose all
//! completed work, and a naive restart would re-emit every result already
//! produced — the paper's duplicate-generation problem (§4) reappearing at
//! the *run* level instead of the tile level. This module applies the same
//! medicine at run granularity: a result pair is attributed to exactly one
//! journal commit, so a resumed run emits each pair exactly once.
//!
//! ## Durability protocol
//!
//! Three on-disk structures, all carrying FNV-1a-64 record checksums:
//!
//! * **Superblock** — an append-only file of fixed-size pointer records,
//!   each naming a manifest file. The *last valid* record wins; a torn or
//!   corrupt tail is ignored. Appending a pointer after the manifest bytes
//!   are durable is this simulation's equivalent of an atomic
//!   write-to-temp-then-rename publish: readers either see the old manifest
//!   or the new one, never a half-written one.
//! * **Manifest** — one immutable file per published run state: run id,
//!   config fingerprint, phase ([`RunPhase`]), the partition files of both
//!   relations, and the journal/results file ids.
//! * **Journal** — an append-only file of fixed-size completion records,
//!   one per finished partition: `(partition, results_end, candidates,
//!   results, duplicates)`. A record is appended only *after* the
//!   partition's result pairs are durably flushed to the results file, so
//!   `results_end` is a watermark the recovery scan can roll back to.
//!
//! ## Commit protocol (per partition)
//!
//! 1. join the partition pair into an in-memory buffer,
//! 2. append the buffered pairs to the results file (durable flush),
//! 3. append the journal record (the *commit point*),
//! 4. emit the buffered pairs downstream.
//!
//! A crash before step 3 loses the partition's work but emits nothing; a
//! crash after step 3 but before step 4 is the interesting case — the
//! partition is committed but its pairs never reached the consumer of
//! *this* process. They are in the results file, so a host that lost its
//! output can re-read the committed prefix; an in-process consumer that
//! kept the crash leg's emissions gets only the *uncommitted* partitions
//! from the resume leg. Either way no pair is emitted twice.
//!
//! ## Recovery scan
//!
//! [`recover`] reads the superblock, decodes the current manifest, verifies
//! the config fingerprint, truncates a torn journal tail, rolls the results
//! file back to the last committed watermark, and deletes every file the
//! current manifest does not reference (orphans of the crashed run:
//! partially-written partitions, an unpublished manifest, …).
//!
//! ## Why partition-granular resume is duplicate-free
//!
//! Both joins use the Reference Point Method: a pair found in several
//! tiles/cells is *emitted* only in the one tile containing its reference
//! point, which lives in exactly one top-level partition. Emissions are
//! therefore already partitioned — no pair is produced by two different
//! journal units — so skipping committed partitions skips exactly their
//! pairs and nothing else. The original sort-phase dedup has no such
//! property (a pair may sit in many partitions' candidate files until the
//! global sort), which is why checkpointing requires RPM.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use parallel::{CancelCause, CancelToken};

use crate::checksum::fnv1a;
use crate::fault::{CrashPoint, JoinError, JoinErrorKind, ResumeRefusal};
use crate::metrics::Recorder;
use crate::record::{FixedRecord, IdPair};
use crate::{FileId, IoError, SimDisk};

/// How far a durable run has progressed (recorded in its manifest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Input partitioned / level files built; the join phase has not
    /// committed yet. `files_r`/`files_s` are valid, no journal exists.
    Partition,
    /// The join phase is underway: journal + results files exist, committed
    /// partitions are listed in the journal.
    Join,
    /// The run completed; the results file holds the full output.
    Done,
}

impl RunPhase {
    fn tag(self) -> u8 {
        match self {
            RunPhase::Partition => 0,
            RunPhase::Join => 1,
            RunPhase::Done => 2,
        }
    }

    fn from_tag(t: u8) -> Option<RunPhase> {
        match t {
            0 => Some(RunPhase::Partition),
            1 => Some(RunPhase::Join),
            2 => Some(RunPhase::Done),
            _ => None,
        }
    }
}

/// A decoded manifest: one published state of a durable run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub run_id: u64,
    /// [`crate::fingerprint`] of the run's configuration and inputs (what
    /// `SpatialJoin::fingerprint` computes); resume refuses a manifest whose
    /// fingerprint does not match the caller's with
    /// [`ResumeRefusal::OtherRun`].
    pub fingerprint: u64,
    pub phase: RunPhase,
    /// Algorithm tag (opaque to this layer; the caller validates it via the
    /// fingerprint, this field just aids debugging).
    pub algo: u8,
    /// Number of join-phase work units (partitions / discovered pairs).
    pub partitions: u32,
    pub journal: Option<FileId>,
    pub results: Option<FileId>,
    pub files_r: Vec<FileId>,
    pub files_s: Vec<FileId>,
}

const MANIFEST_MAGIC: &[u8; 4] = b"SJRM";
/// Version 2: the fingerprint is the word hash [`crate::fingerprint`];
/// version 1 stored a byte-wise FNV-1a over the same fields.
pub(crate) const MANIFEST_VERSION: u32 = 2;
const NO_FILE: u32 = u32::MAX;

fn put_file(out: &mut Vec<u8>, f: Option<FileId>) {
    out.extend_from_slice(&f.map_or(NO_FILE, FileId::raw).to_le_bytes());
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Some(u64::from_le_bytes(a))
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.run_id.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.push(self.phase.tag());
        out.push(self.algo);
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&self.partitions.to_le_bytes());
        put_file(&mut out, self.journal);
        put_file(&mut out, self.results);
        out.extend_from_slice(&(self.files_r.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.files_s.len() as u32).to_le_bytes());
        for f in self.files_r.iter().chain(self.files_s.iter()) {
            out.extend_from_slice(&f.raw().to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// A manifest of this build's format; a checksum or layout failure is
    /// [`ResumeRefusal::Unreadable`], another version
    /// [`ResumeRefusal::Format`].
    fn decode(buf: &[u8]) -> Result<Manifest, ResumeRefusal> {
        let unreadable = ResumeRefusal::Unreadable;
        if buf.len() < 8 || !buf.starts_with(MANIFEST_MAGIC) {
            return Err(unreadable);
        }
        let body = &buf[..buf.len() - 8];
        let mut pos = body.len();
        if get_u64(buf, &mut pos) != Some(fnv1a(body)) {
            return Err(unreadable);
        }
        let mut pos = 4usize;
        match get_u32(body, &mut pos).ok_or(unreadable)? {
            MANIFEST_VERSION => Manifest::parse(body, pos).ok_or(unreadable),
            found => Err(ResumeRefusal::Format { found }),
        }
    }

    /// The fields after the version word; `None` unless they fill `body`.
    fn parse(body: &[u8], mut pos: usize) -> Option<Manifest> {
        let run_id = get_u64(body, &mut pos)?;
        let fingerprint = get_u64(body, &mut pos)?;
        let tags = body.get(pos..pos + 4)?;
        let phase = RunPhase::from_tag(tags[0])?;
        let algo = tags[1];
        pos += 4;
        let partitions = get_u32(body, &mut pos)?;
        let file = |raw: u32| (raw != NO_FILE).then(|| FileId::from_raw(raw));
        let journal = file(get_u32(body, &mut pos)?);
        let results = file(get_u32(body, &mut pos)?);
        let nr = get_u32(body, &mut pos)? as usize;
        let ns = get_u32(body, &mut pos)? as usize;
        let mut files_r = Vec::with_capacity(nr);
        for _ in 0..nr {
            files_r.push(FileId::from_raw(get_u32(body, &mut pos)?));
        }
        let mut files_s = Vec::with_capacity(ns);
        for _ in 0..ns {
            files_s.push(FileId::from_raw(get_u32(body, &mut pos)?));
        }
        if pos != body.len() {
            return None;
        }
        Some(Manifest {
            run_id,
            fingerprint,
            phase,
            algo,
            partitions,
            journal,
            results,
            files_r,
            files_s,
        })
    }
}

/// One committed join-phase work unit, as recorded in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    pub partition: u32,
    /// Results-file length (bytes) after this partition's pairs were
    /// flushed — the rollback watermark.
    pub results_end: u64,
    pub candidates: u64,
    pub results: u64,
    pub duplicates: u64,
}

/// Journal record: 40 payload bytes + 8 checksum bytes.
const JOURNAL_RECORD: usize = 48;

impl JournalEntry {
    fn encode(&self) -> [u8; JOURNAL_RECORD] {
        let mut out = [0u8; JOURNAL_RECORD];
        out[0..4].copy_from_slice(&self.partition.to_le_bytes());
        out[8..16].copy_from_slice(&self.results_end.to_le_bytes());
        out[16..24].copy_from_slice(&self.candidates.to_le_bytes());
        out[24..32].copy_from_slice(&self.results.to_le_bytes());
        out[32..40].copy_from_slice(&self.duplicates.to_le_bytes());
        let sum = fnv1a(&out[..40]);
        out[40..48].copy_from_slice(&sum.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<JournalEntry> {
        if buf.len() < JOURNAL_RECORD {
            return None;
        }
        let mut pos = 40usize;
        let stored = get_u64(buf, &mut pos)?;
        if fnv1a(&buf[..40]) != stored {
            return None;
        }
        let mut pos = 0usize;
        let partition = get_u32(buf, &mut pos)?;
        pos += 4;
        let results_end = get_u64(buf, &mut pos)?;
        let candidates = get_u64(buf, &mut pos)?;
        let results = get_u64(buf, &mut pos)?;
        let duplicates = get_u64(buf, &mut pos)?;
        Some(JournalEntry {
            partition,
            results_end,
            candidates,
            results,
            duplicates,
        })
    }
}

/// Superblock pointer record: manifest file id + checksum, 16 bytes.
const POINTER_RECORD: usize = 16;

fn encode_pointer(manifest_file: FileId) -> [u8; POINTER_RECORD] {
    let mut out = [0u8; POINTER_RECORD];
    out[0..4].copy_from_slice(&manifest_file.raw().to_le_bytes());
    let sum = fnv1a(&out[..8]);
    out[8..16].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Reads the superblock and returns the manifest file the *last valid*
/// pointer record names; `None` when no valid pointer was ever published.
/// Torn or corrupt trailing records are skipped, not errors — they are the
/// expected residue of a crash during publish.
fn current_manifest_file(disk: &SimDisk, superblock: FileId) -> Result<Option<FileId>, IoError> {
    let len = disk.try_len(superblock)?;
    if len < POINTER_RECORD as u64 {
        return Ok(None);
    }
    let mut buf = vec![0u8; len as usize];
    disk.try_read(superblock, 0, &mut buf)?;
    // A torn or corrupt record ends the list: it and all after it are ignored.
    let sums = |rec: &&[u8]| rec[8..] == fnv1a(&rec[..8]).to_le_bytes();
    let valid = buf.chunks_exact(POINTER_RECORD).take_while(sums).last();
    Ok(valid.and_then(|rec| get_u32(rec, &mut 0)).map(FileId::from_raw))
}

/// A commit before [`RunCheckpoint::commit_join_phase`] created the files.
fn no_join_phase() -> JoinError {
    JoinError::new("checkpoint", IoError::unsupported())
}

/// Counts journal commits and fires the plan's [`CrashPoint`] at the right
/// boundary. Disabled (`point = None`) on resumed runs, so a resume
/// completes even when the original plan still names a crash.
struct CrashInjector {
    point: Option<CrashPoint>,
    commits: u32,
}

impl CrashInjector {
    /// Fires `MidPartition(n)` when the `n+1`-th record is about to be
    /// appended (i.e. after `n` completed commits).
    fn before_commit(&mut self) -> Option<CrashPoint> {
        match self.point {
            Some(p @ CrashPoint::MidPartition(n)) if self.commits == n => Some(p),
            _ => None,
        }
    }

    /// Fires `AfterCommit(n)` right after the `n`-th commit is durable.
    fn after_commit(&mut self) -> Option<CrashPoint> {
        self.commits += 1;
        match self.point {
            Some(p @ CrashPoint::AfterCommit(n)) if self.commits == n => Some(p),
            _ => None,
        }
    }

    /// Fires `MidRename` during the final manifest publish.
    fn at_rename(&mut self) -> Option<CrashPoint> {
        match self.point {
            Some(p @ CrashPoint::MidRename) => Some(p),
            _ => None,
        }
    }
}

/// Driver of one durable run: owns the superblock, manifest, journal and
/// results files, enforces the commit protocol, and injects crashes.
///
/// A `JoinError` with [`JoinErrorKind::Crashed`] returned from any
/// method means the simulated process died: the caller must propagate it
/// *without cleanup*, leaving the run directory exactly as the crash did.
pub struct RunCheckpoint {
    disk: SimDisk,
    superblock: FileId,
    manifest: Manifest,
    /// The currently-published manifest file, if any.
    manifest_file: Option<FileId>,
    committed: BTreeMap<u32, JournalEntry>,
    results_end: u64,
    injector: CrashInjector,
}

impl RunCheckpoint {
    /// Begins a fresh durable run. The superblock must already exist
    /// (callers create it as the disk's *first* file, so its id is a fixed
    /// convention a resuming process can reconstruct).
    pub fn start(
        disk: &SimDisk,
        superblock: FileId,
        run_id: u64,
        fingerprint: u64,
        algo: u8,
    ) -> RunCheckpoint {
        let crash = disk.fault_plan().and_then(|p| p.crash);
        RunCheckpoint {
            disk: disk.clone(),
            superblock,
            manifest: Manifest {
                run_id,
                fingerprint,
                phase: RunPhase::Partition,
                algo,
                partitions: 0,
                journal: None,
                results: None,
                files_r: Vec::new(),
                files_s: Vec::new(),
            },
            manifest_file: None,
            committed: BTreeMap::new(),
            results_end: 0,
            injector: CrashInjector {
                point: crash,
                commits: 0,
            },
        }
    }

    pub fn run_id(&self) -> u64 {
        self.manifest.run_id
    }

    pub fn phase(&self) -> RunPhase {
        self.manifest.phase
    }

    pub fn partitions(&self) -> u32 {
        self.manifest.partitions
    }

    /// Partition files recorded in the manifest (what a resumed join phase
    /// reads instead of re-partitioning).
    pub fn files(&self) -> (&[FileId], &[FileId]) {
        (&self.manifest.files_r, &self.manifest.files_s)
    }

    /// `true` iff `partition`'s journal record is durable — resume skips it.
    pub fn is_committed(&self, partition: u32) -> bool {
        self.committed.contains_key(&partition)
    }

    /// Committed entries in partition order.
    pub fn committed(&self) -> impl Iterator<Item = &JournalEntry> {
        self.committed.values()
    }

    /// Writes `manifest` to a fresh file and publishes it via the
    /// superblock. The pointer append is the atomic publish point.
    fn publish(&mut self) -> Result<(), JoinError> {
        let file = self.disk.create();
        let to_err = |io: IoError| JoinError::new("checkpoint", io);
        self.disk.try_append(file, &self.manifest.encode()).map_err(to_err)?;
        if self.manifest.phase == RunPhase::Done {
            if let Some(p) = self.injector.at_rename() {
                // Manifest bytes are durable but the pointer is not: the
                // previous manifest stays current. The unpublished file is
                // an orphan the recovery scan removes.
                return Err(JoinError::of("checkpoint", JoinErrorKind::Crashed(p)));
            }
        }
        self.disk
            .try_append(self.superblock, &encode_pointer(file))
            .map_err(to_err)?;
        // The superseded manifest file is garbage once the new pointer is
        // durable; a crash landing between the append and this delete just
        // leaves an orphan for the recovery scan.
        if let Some(old) = self.manifest_file.replace(file) {
            self.disk.delete(old);
        }
        Ok(())
    }

    /// Publishes a [`RunPhase::Partition`] manifest listing the materialized
    /// input files — after this, a crash resumes without redoing the
    /// build/partition work (used by S³J between build and sort).
    pub fn commit_partition_phase(
        &mut self,
        files_r: &[FileId],
        files_s: &[FileId],
    ) -> Result<(), JoinError> {
        self.manifest.phase = RunPhase::Partition;
        self.manifest.files_r = files_r.to_vec();
        self.manifest.files_s = files_s.to_vec();
        self.publish()
    }

    /// Creates the journal and results files and publishes a
    /// [`RunPhase::Join`] manifest: from here on, per-partition commits are
    /// durable and resume skips them.
    pub fn commit_join_phase(
        &mut self,
        partitions: u32,
        files_r: &[FileId],
        files_s: &[FileId],
    ) -> Result<(), JoinError> {
        if self.manifest.journal.is_none() {
            self.manifest.journal = Some(self.disk.create());
            self.manifest.results = Some(self.disk.create());
        }
        self.manifest.phase = RunPhase::Join;
        self.manifest.partitions = partitions;
        self.manifest.files_r = files_r.to_vec();
        self.manifest.files_s = files_s.to_vec();
        self.publish()
    }

    /// Durably flushes one partition's result pairs (commit-protocol step
    /// 2), `encoded` as the results file holds them: [`IdPair`] records.
    pub fn append_results(&mut self, encoded: &[u8]) -> Result<(), JoinError> {
        if encoded.is_empty() {
            return Ok(());
        }
        let file = self.manifest.results.ok_or_else(no_join_phase)?;
        self.disk
            .try_append(file, encoded)
            .map_err(|io| JoinError::new("checkpoint", io))?;
        self.results_end += encoded.len() as u64;
        Ok(())
    }

    /// Appends the journal record for `partition` (commit-protocol step 3)
    /// and fires `MidPartition` / `AfterCommit` crash points.
    pub fn commit_partition(
        &mut self,
        partition: u32,
        candidates: u64,
        results: u64,
        duplicates: u64,
    ) -> Result<(), JoinError> {
        let journal = self.manifest.journal.ok_or_else(no_join_phase)?;
        let entry = JournalEntry {
            partition,
            results_end: self.results_end,
            candidates,
            results,
            duplicates,
        };
        let record = entry.encode();
        let to_err = |io: IoError| JoinError::in_partition("checkpoint", partition, io);
        if let Some(p) = self.injector.before_commit() {
            // Torn journal append: half the record reaches the platter.
            self.disk
                .try_append(journal, &record[..JOURNAL_RECORD / 2])
                .map_err(to_err)?;
            return Err(JoinError::of("checkpoint", JoinErrorKind::Crashed(p)));
        }
        self.disk.try_append(journal, &record).map_err(to_err)?;
        self.committed.insert(partition, entry);
        if let Some(p) = self.injector.after_commit() {
            return Err(JoinError::of("checkpoint", JoinErrorKind::Crashed(p)));
        }
        Ok(())
    }

    /// Publishes the [`RunPhase::Done`] manifest and deletes the partition
    /// files (the journal, results and manifest files are kept — they *are*
    /// the run's durable record).
    pub fn finish(&mut self) -> Result<(), JoinError> {
        let keep_r = std::mem::take(&mut self.manifest.files_r);
        let keep_s = std::mem::take(&mut self.manifest.files_s);
        self.manifest.phase = RunPhase::Done;
        if let Err(e) = self.publish() {
            // Crash (or I/O failure) during publish: restore the file lists
            // so the in-memory state still matches the current manifest.
            self.manifest.files_r = keep_r;
            self.manifest.files_s = keep_s;
            self.manifest.phase = RunPhase::Join;
            return Err(e);
        }
        for f in keep_r.iter().chain(keep_s.iter()) {
            self.disk.delete(*f);
        }
        Ok(())
    }

    /// Reads the committed result pairs back from the results file (the
    /// bytes up to the recovered watermark). Charged like any other read.
    pub fn read_results(&self) -> Result<Vec<IdPair>, JoinError> {
        let file = self.manifest.results.ok_or_else(no_join_phase)?;
        let mut buf = vec![0u8; self.results_end as usize];
        self.disk
            .try_read(file, 0, &mut buf)
            .map_err(|io| JoinError::new("checkpoint", io))?;
        Ok(buf.chunks(IdPair::SIZE).map(IdPair::decode).collect())
    }
}

/// Outcome of [`recover`].
// One short-lived value per recovery, destructured immediately — the size
// gap vs `Fresh` (the checkpoint grew per-channel meters) never amortizes.
#[allow(clippy::large_enum_variant)]
pub enum Recovered {
    /// No manifest was ever published: the recovery scan removed every
    /// orphan file; the caller starts a fresh run (same superblock).
    Fresh,
    /// A manifest was recovered; its [`RunCheckpoint::phase`] says how much
    /// work survives. Crash injection is disabled on the resumed run.
    Resumed(RunCheckpoint),
}

/// Recovery scan: loads the current manifest, verifies `fingerprint`,
/// truncates a torn journal tail, rolls the results file back to the last
/// committed watermark, and deletes all unreferenced files. A manifest that
/// is unreadable, of another format, or of another run is a
/// [`JoinErrorKind::ResumeRefused`], touching nothing: the directory
/// is never silently restarted.
pub fn recover(
    disk: &SimDisk,
    superblock: FileId,
    fingerprint: u64,
) -> Result<Recovered, JoinError> {
    let to_err = |io: IoError| JoinError::new("resume", io);
    let manifest_file = current_manifest_file(disk, superblock).map_err(to_err)?;

    let Some(manifest_file) = manifest_file else {
        // Nothing was ever published: every file except the superblock is
        // an orphan of the dead run.
        for f in disk.file_ids() {
            if f != superblock {
                disk.delete(f);
            }
        }
        return Ok(Recovered::Fresh);
    };

    let len = disk.try_len(manifest_file).map_err(to_err)?;
    let mut buf = vec![0u8; len as usize];
    disk.try_read(manifest_file, 0, &mut buf).map_err(to_err)?;
    let refused = |why| JoinError::of("resume", JoinErrorKind::ResumeRefused(why));
    let manifest = Manifest::decode(&buf).map_err(refused)?;
    if manifest.fingerprint != fingerprint {
        return Err(refused(ResumeRefusal::OtherRun { run_id: manifest.run_id }));
    }

    // Orphan scan: drop everything the current manifest does not reference.
    let mut keep = vec![superblock, manifest_file];
    keep.extend(manifest.journal);
    keep.extend(manifest.results);
    keep.extend_from_slice(&manifest.files_r);
    keep.extend_from_slice(&manifest.files_s);
    for f in disk.file_ids() {
        if !keep.contains(&f) {
            disk.delete(f);
        }
    }

    // Journal recovery: valid prefix wins, torn/corrupt tail is truncated.
    let mut committed = BTreeMap::new();
    let mut results_end = 0u64;
    if let Some(journal) = manifest.journal {
        let len = disk.try_len(journal).map_err(to_err)?;
        let mut buf = vec![0u8; len as usize];
        disk.try_read(journal, 0, &mut buf).map_err(to_err)?;
        let mut valid = 0usize;
        for e in buf.chunks(JOURNAL_RECORD).map_while(JournalEntry::decode) {
            results_end = results_end.max(e.results_end);
            committed.insert(e.partition, e);
            valid += JOURNAL_RECORD;
        }
        if (valid as u64) < len {
            disk.try_truncate(journal, valid as u64).map_err(to_err)?;
        }
    }
    if let Some(results) = manifest.results {
        // Roll back pairs flushed by partitions that never committed.
        disk.try_truncate(results, results_end).map_err(to_err)?;
    }

    Ok(Recovered::Resumed(RunCheckpoint {
        disk: disk.clone(),
        superblock,
        manifest,
        manifest_file: Some(manifest_file),
        committed,
        results_end,
        injector: CrashInjector {
            point: None, // a resumed run must complete
            commits: 0,
        },
    }))
}

/// Per-run control plumbing threaded through the join entry points:
/// cooperative cancellation, a simulated-time deadline, and the optional
/// checkpoint. [`RunControl::none`] is the default and changes nothing about
/// a join's behaviour.
#[derive(Default)]
pub struct RunControl {
    pub cancel: CancelToken,
    /// Simulated-seconds budget; `None` = unbounded.
    pub deadline: Option<f64>,
    /// When present, the join commits per-partition progress through it.
    pub checkpoint: Option<Mutex<RunCheckpoint>>,
    /// When present, the join records phase spans and per-partition events
    /// on the simulated clock (see [`crate::metrics`]).
    pub recorder: Option<Arc<Recorder>>,
}

impl RunControl {
    /// No cancellation, no deadline, no checkpointing.
    pub fn none() -> RunControl {
        RunControl::default()
    }

    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline = Some(seconds);
        self
    }

    pub fn with_checkpoint(mut self, cp: RunCheckpoint) -> Self {
        self.checkpoint = Some(Mutex::new(cp));
        self
    }

    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Record a completed phase span, if a recorder is attached.
    pub fn span(&self, name: &'static str, start_s: f64, end_s: f64) {
        if let Some(r) = &self.recorder {
            r.span(name, start_s, end_s);
        }
    }

    /// Record a point event, if a recorder is attached. `attrs` are integer
    /// counters; build them only when a recorder is present to keep the
    /// unobserved path free — use [`RunControl::observed`] to guard.
    pub fn event(&self, name: &'static str, t_s: f64, attrs: &[(&'static str, u64)]) {
        if let Some(r) = &self.recorder {
            r.event(name, t_s, attrs);
        }
    }

    pub fn observed(&self) -> bool {
        self.recorder.is_some()
    }

    /// Charges the run's simulated seconds so far against the deadline and
    /// polls the cancel token (counting toward the deterministic
    /// `cancel_after_checks` hook). Returns the typed interruption error if
    /// the run should stop: once its clock is *past* the deadline. Called
    /// at partition granularity — thousands of times per run — so
    /// `elapsed`, which prices the run's work and I/O so far, is evaluated
    /// only when there is a deadline to compare it with (or an expiry to
    /// report); the token is polled on every call.
    pub fn charge(&self, phase: &'static str, elapsed: impl Fn() -> f64) -> Option<JoinError> {
        let at = self.deadline.map(|d| {
            let at = elapsed();
            if at > d {
                self.cancel.cancel_deadline();
            }
            at
        });
        let cause = self.cancel.check()?;
        Some(self.interruption(cause, phase, || at.unwrap_or_else(elapsed)))
    }

    /// The run's last deadline check, at its `total` simulated seconds: a
    /// run that ends past its deadline fails. Without a deadline it prices
    /// nothing and polls no token (`cancel_after_checks` counts as before).
    pub fn charge_total(&self, phase: &'static str, total: impl Fn() -> f64) -> Result<(), JoinError> {
        self.deadline.and_then(|_| self.charge(phase, total)).map_or(Ok(()), Err)
    }

    /// The typed error of a token tripped with `cause`; `at` (the run's
    /// simulated seconds so far) is read only to report an expired deadline.
    pub(crate) fn interruption(
        &self,
        cause: CancelCause,
        phase: &'static str,
        at: impl FnOnce() -> f64,
    ) -> JoinError {
        match cause {
            CancelCause::Cancelled => JoinError::of(phase, JoinErrorKind::Cancelled),
            CancelCause::Deadline => {
                let (elapsed, deadline) = (at(), self.deadline.unwrap_or(0.0));
                JoinError::of(phase, JoinErrorKind::DeadlineExceeded { elapsed, deadline })
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{DiskModel, FaultPlan, RetryPolicy};

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 64,
            positioning_ratio: 2.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    fn pairs(range: std::ops::Range<u64>) -> Vec<IdPair> {
        range.map(|i| IdPair { r: i, s: i * 10 }).collect()
    }

    /// [`pairs`] as [`RunCheckpoint::append_results`] takes them.
    fn ids(range: std::ops::Range<u64>) -> Vec<u8> {
        let mut out = vec![0u8; range.end.saturating_sub(range.start) as usize * IdPair::SIZE];
        for (p, rec) in pairs(range).iter().zip(out.chunks_exact_mut(IdPair::SIZE)) {
            p.encode(rec);
        }
        out
    }

    /// Runs a 3-partition join to completion under the commit protocol.
    fn run_to_done(d: &SimDisk) -> (FileId, RunCheckpoint) {
        let sb = d.create();
        let mut cp = RunCheckpoint::start(d, sb, 7, 0xF00D, 1);
        let fr: Vec<FileId> = (0..3).map(|_| d.create()).collect();
        let fs: Vec<FileId> = (0..3).map(|_| d.create()).collect();
        for f in fr.iter().chain(fs.iter()) {
            d.append(*f, &[1u8; 32]);
        }
        cp.commit_join_phase(3, &fr, &fs).unwrap();
        for p in 0..3u32 {
            let out = ids(p as u64 * 5..p as u64 * 5 + 5);
            cp.append_results(&out).unwrap();
            cp.commit_partition(p, 8, 5, 3).unwrap();
        }
        cp.finish().unwrap();
        (sb, cp)
    }

    #[test]
    fn manifest_encode_decode_round_trip() {
        let m = Manifest {
            run_id: 42,
            fingerprint: 0xDEAD_BEEF,
            phase: RunPhase::Join,
            algo: 2,
            partitions: 9,
            journal: Some(FileId::from_raw(3)),
            results: None,
            files_r: vec![FileId::from_raw(4), FileId::from_raw(5)],
            files_s: vec![FileId::from_raw(6)],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes), Ok(m));
        // Any corrupted byte fails the checksum.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(Manifest::decode(&bad), Err(ResumeRefusal::Unreadable), "byte {i}");
        }
        assert_eq!(Manifest::decode(&bytes[..bytes.len() - 1]), Err(ResumeRefusal::Unreadable));
    }


    /// The record sums are on disk: a run directory written by an earlier
    /// build must still recover. These are the bytes byte-wise FNV-1a
    /// produced when it moved to `crate::checksum::fnv1a`; the manifest's
    /// moved with its format version (1 → 2), and the same body with the
    /// old version word still sums to the old value.
    #[test]
    fn record_checksums_are_pinned_to_their_persisted_values() {
        let m = Manifest {
            run_id: 42,
            fingerprint: 0xDEAD_BEEF,
            phase: RunPhase::Join,
            algo: 2,
            partitions: 9,
            journal: Some(FileId::from_raw(3)),
            results: None,
            files_r: vec![FileId::from_raw(4), FileId::from_raw(5)],
            files_s: vec![FileId::from_raw(6)],
        };
        let mut bytes = m.encode();
        let n = bytes.len() - 8;
        assert_eq!(bytes[n..], [98, 66, 172, 30, 107, 106, 130, 227]);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(fnv1a(&bytes[..n]).to_le_bytes(), [101, 207, 123, 44, 124, 165, 111, 13]);
        let e = JournalEntry {
            partition: 3,
            results_end: 480,
            candidates: 100,
            results: 60,
            duplicates: 40,
        };
        assert_eq!(e.encode()[40..], [113, 214, 166, 159, 223, 38, 133, 202]);
        assert_eq!(
            encode_pointer(FileId::from_raw(7))[8..],
            [98, 91, 76, 7, 23, 163, 215, 75]
        );
    }

    #[test]
    fn journal_entry_round_trip_rejects_corruption() {
        let e = JournalEntry {
            partition: 3,
            results_end: 480,
            candidates: 100,
            results: 60,
            duplicates: 40,
        };
        let rec = e.encode();
        assert_eq!(JournalEntry::decode(&rec), Some(e));
        let mut bad = rec;
        bad[16] ^= 1;
        assert_eq!(JournalEntry::decode(&bad), None);
        assert_eq!(JournalEntry::decode(&rec[..24]), None);
    }

    #[test]
    fn completed_run_recovers_as_done_with_full_results() {
        let d = disk();
        let (sb, _) = run_to_done(&d);
        let got = recover(&d, sb, 0xF00D).unwrap();
        let Recovered::Resumed(cp) = got else {
            panic!("expected a resumed checkpoint")
        };
        assert_eq!(cp.phase(), RunPhase::Done);
        assert_eq!(cp.committed().count(), 3);
        assert_eq!(cp.read_results().unwrap(), pairs(0..15));
        // Partition files were deleted at finish; journal/results remain.
        let total: u64 = cp.committed().map(|e| e.results).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn fingerprint_mismatch_refuses_resume() {
        let d = disk();
        let (sb, _) = run_to_done(&d);
        let files = d.file_ids();
        let err = recover(&d, sb, 0xBAD).err().unwrap();
        let why = ResumeRefusal::OtherRun { run_id: 7 };
        assert_eq!(err.kind, JoinErrorKind::ResumeRefused(why), "{err}");
        assert!(err.to_string().contains("run 7 was started with other inputs"), "{err}");
        assert_eq!(d.file_ids(), files, "a refused resume touches nothing");
    }

    /// A run directory from a build whose manifests were format 1 (the
    /// byte-wise fingerprint) is refused as such, never restarted fresh.
    #[test]
    fn a_version_1_manifest_is_refused_not_restarted() {
        let d = disk();
        let (sb, cp) = run_to_done(&d);
        let mut old = cp.manifest.encode();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        let n = old.len() - 8;
        let sum = fnv1a(&old[..n]);
        old[n..].copy_from_slice(&sum.to_le_bytes());
        let file = d.create();
        d.append(file, &old);
        d.append(sb, &encode_pointer(file));
        let err = recover(&d, sb, 0xF00D).err().unwrap();
        let why = ResumeRefusal::Format { found: 1 };
        assert_eq!(err.kind, JoinErrorKind::ResumeRefused(why), "{err}");
        assert!(err.to_string().contains("manifest format 1 predates this build's 2"), "{err}");
    }

    #[test]
    fn unpublished_run_recovers_fresh_and_removes_orphans() {
        let d = disk();
        let sb = d.create();
        let _cp = RunCheckpoint::start(&d, sb, 1, 9, 0);
        // Simulate a crash during the partition phase: files exist, nothing
        // was published.
        for _ in 0..4 {
            let f = d.create();
            d.append(f, &[0u8; 100]);
        }
        let got = recover(&d, sb, 9).unwrap();
        assert!(matches!(got, Recovered::Fresh));
        assert_eq!(d.file_ids(), vec![sb], "orphans must be gone");
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_results_rolled_back() {
        let d = disk();
        let sb = d.create();
        let mut cp = RunCheckpoint::start(&d, sb, 1, 77, 1);
        let fr = vec![d.create()];
        let fs = vec![d.create()];
        cp.commit_join_phase(2, &fr, &fs).unwrap();
        cp.append_results(&ids(0..4)).unwrap();
        cp.commit_partition(0, 4, 4, 0).unwrap();
        // Partition 1 flushed pairs and tore its journal record: simulate
        // by appending results then garbage where the record would go.
        cp.append_results(&ids(4..9)).unwrap();
        let journal = cp.manifest.journal.unwrap();
        d.append(journal, &[0xABu8; JOURNAL_RECORD / 2]);

        let got = recover(&d, sb, 77).unwrap();
        let Recovered::Resumed(rcp) = got else {
            panic!("expected resume")
        };
        assert_eq!(rcp.phase(), RunPhase::Join);
        assert_eq!(rcp.committed().count(), 1);
        assert!(rcp.is_committed(0) && !rcp.is_committed(1));
        // The torn tail is gone and the journal re-parses cleanly.
        assert_eq!(d.len(journal) as usize, JOURNAL_RECORD);
        // Partition 1's uncommitted pairs were rolled back.
        assert_eq!(rcp.read_results().unwrap(), pairs(0..4));
        assert_eq!(d.len(rcp.manifest.results.unwrap()), 4 * 16);
    }

    #[test]
    fn crash_after_commit_fires_at_the_exact_commit() {
        let d = disk().with_faults(
            FaultPlan::crash_only(1, CrashPoint::AfterCommit(2)),
            RetryPolicy::default(),
        );
        let sb = d.create();
        let mut cp = RunCheckpoint::start(&d, sb, 1, 5, 1);
        cp.commit_join_phase(3, &[], &[]).unwrap();
        cp.append_results(&ids(0..2)).unwrap();
        cp.commit_partition(0, 2, 2, 0).unwrap();
        cp.append_results(&ids(2..4)).unwrap();
        let err = cp.commit_partition(1, 2, 2, 0).unwrap_err();
        assert!(
            matches!(
                err.kind,
                JoinErrorKind::Crashed(CrashPoint::AfterCommit(2))
            ),
            "{err}"
        );
        // Both commits are durable — the crash struck after the append.
        let got = recover(&d, sb, 5).unwrap();
        let Recovered::Resumed(rcp) = got else {
            panic!("expected resume")
        };
        assert_eq!(rcp.committed().count(), 2);
        assert_eq!(rcp.read_results().unwrap(), pairs(0..4));
    }

    #[test]
    fn crash_mid_partition_leaves_a_torn_record_recovery_truncates() {
        let d = disk().with_faults(
            FaultPlan::crash_only(1, CrashPoint::MidPartition(1)),
            RetryPolicy::default(),
        );
        let sb = d.create();
        let mut cp = RunCheckpoint::start(&d, sb, 1, 5, 1);
        cp.commit_join_phase(3, &[], &[]).unwrap();
        cp.append_results(&ids(0..2)).unwrap();
        cp.commit_partition(0, 2, 2, 0).unwrap();
        cp.append_results(&ids(2..4)).unwrap();
        let err = cp.commit_partition(1, 2, 2, 0).unwrap_err();
        assert!(matches!(
            err.kind,
            JoinErrorKind::Crashed(CrashPoint::MidPartition(1))
        ));
        let journal = cp.manifest.journal.unwrap();
        assert_eq!(d.len(journal) as usize, JOURNAL_RECORD + JOURNAL_RECORD / 2);

        let got = recover(&d, sb, 5).unwrap();
        let Recovered::Resumed(rcp) = got else {
            panic!("expected resume")
        };
        assert_eq!(rcp.committed().count(), 1);
        assert_eq!(d.len(journal) as usize, JOURNAL_RECORD);
        // Partition 1's flushed-but-uncommitted pairs rolled back.
        assert_eq!(rcp.read_results().unwrap(), pairs(0..2));
    }

    #[test]
    fn crash_mid_rename_keeps_previous_manifest_current() {
        let d = disk().with_faults(
            FaultPlan::crash_only(1, CrashPoint::MidRename),
            RetryPolicy::default(),
        );
        let sb = d.create();
        let mut cp = RunCheckpoint::start(&d, sb, 1, 5, 1);
        let fr = vec![d.create()];
        let fs = vec![d.create()];
        cp.commit_join_phase(1, &fr, &fs).unwrap();
        cp.append_results(&ids(0..3)).unwrap();
        cp.commit_partition(0, 3, 3, 0).unwrap();
        let err = cp.finish().unwrap_err();
        assert!(matches!(
            err.kind,
            JoinErrorKind::Crashed(CrashPoint::MidRename)
        ));
        // Partition files must NOT have been deleted (the publish failed).
        assert!(d.exists(fr[0]) && d.exists(fs[0]));

        let files_before = d.file_ids().len();
        let got = recover(&d, sb, 5).unwrap();
        let Recovered::Resumed(mut rcp) = got else {
            panic!("expected resume")
        };
        // The unpublished Done manifest was an orphan; the Join manifest
        // with its fully-committed journal is current.
        assert_eq!(rcp.phase(), RunPhase::Join);
        assert_eq!(rcp.committed().count(), 1);
        assert!(d.file_ids().len() < files_before);
        // Resume completes: crash injection is disabled on recovery.
        rcp.finish().unwrap();
        assert!(!d.exists(fr[0]) && !d.exists(fs[0]));
        let Recovered::Resumed(done) = recover(&d, sb, 5).unwrap() else {
            panic!("expected resume")
        };
        assert_eq!(done.phase(), RunPhase::Done);
        assert_eq!(done.read_results().unwrap(), pairs(0..3));
    }

    #[test]
    fn run_control_charges_deadline_and_latches_cause() {
        let ctl = RunControl::none().with_deadline(10.0);
        assert!(ctl.charge("join", || 9.9).is_none());
        assert!(ctl.charge("join", || 10.0).is_none(), "a run may end on its deadline");
        let err = ctl.charge("join", || 10.5).unwrap();
        assert!(matches!(
            err.kind,
            JoinErrorKind::DeadlineExceeded { .. }
        ));
        // Once tripped, even an under-budget charge reports the expiry.
        assert!(ctl.charge("join", || 0.0).is_some());

        let ctl = RunControl::none();
        assert!(ctl.charge("partition", || 1e9).is_none(), "no deadline set");
        ctl.cancel.cancel();
        let err = ctl.charge("partition", || 0.0).unwrap();
        assert!(matches!(err.kind, JoinErrorKind::Cancelled));
    }

    #[test]
    fn charge_prices_the_run_only_under_a_deadline_but_always_polls_the_token() {
        use std::cell::Cell;
        let reads = Cell::new(0u32);
        let clock = || {
            reads.set(reads.get() + 1);
            1.0
        };

        // No deadline: no position is computed, yet every call counts as a
        // cancel check — the armed hook trips on exactly the third one.
        let ctl = RunControl::none();
        ctl.cancel.cancel_after_checks(3);
        assert!(ctl.charge("scan", clock).is_none());
        assert!(ctl.charge("scan", clock).is_none());
        let err = ctl.charge("scan", clock).unwrap();
        assert!(matches!(err.kind, JoinErrorKind::Cancelled));
        assert_eq!(reads.get(), 0, "no deadline, no position");

        // With a deadline: one read per call, and the same check counting.
        let ctl = RunControl::none().with_deadline(5.0);
        ctl.cancel.cancel_after_checks(2);
        assert!(ctl.charge("scan", clock).is_none());
        assert_eq!(reads.get(), 1);
        let err = ctl.charge("scan", clock).unwrap();
        assert!(matches!(err.kind, JoinErrorKind::Cancelled));
        assert_eq!(reads.get(), 2);
    }

    #[test]
    fn partition_phase_manifest_survives_for_resume() {
        let d = disk();
        let sb = d.create();
        let mut cp = RunCheckpoint::start(&d, sb, 3, 11, 2);
        let fr = vec![d.create(), d.create()];
        let fs = vec![d.create()];
        cp.commit_partition_phase(&fr, &fs).unwrap();
        // Orphan from a later, never-published stage.
        let orphan = d.create();
        d.append(orphan, &[9u8; 16]);

        let Recovered::Resumed(rcp) = recover(&d, sb, 11).unwrap() else {
            panic!("expected resume")
        };
        assert_eq!(rcp.phase(), RunPhase::Partition);
        let (r, s) = rcp.files();
        assert_eq!((r, s), (&fr[..], &fs[..]));
        assert!(!d.exists(orphan), "orphan swept");
        assert!(d.exists(fr[0]) && d.exists(fr[1]) && d.exists(fs[0]));
    }
}
