use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::checksum::checksum64;
use crate::fault::{FaultPlan, IoError, IoErrorKind, IoOp, PERMANENT};
use crate::lock;
use crate::retry::RetryPolicy;
use crate::work::Work;

/// Disk parameters of the cost model.
///
/// A request for `n` contiguous pages costs `positioning_ratio + n`
/// page-transfer units (the paper's `PT + n`), and one unit corresponds to
/// `transfer_secs_per_page` seconds of simulated disk time.
///
/// The defaults emulate the paper's testbed (1999 2 GB Seagate behind direct
/// I/O): 8 KiB pages, ~1.6 ms transfer per page (≈5 MB/s sustained) and an
/// average positioning time of ~10 ms, i.e. `PT ≈ 6`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Page size in bytes.
    pub page_size: usize,
    /// `PT`: positioning time expressed in page-transfer units.
    pub positioning_ratio: f64,
    /// Seconds of simulated time per page-transfer unit.
    pub transfer_secs_per_page: f64,
    /// Factor by which priced CPU work ([`Work`]) is stretched to the
    /// emulated machine. The paper's testbed is a ~75 MHz SuperSPARC-II; a
    /// modern core is two to three orders of magnitude faster, and without
    /// this factor every CPU-side effect the paper reports (trie vs list
    /// sweeps, replication CPU savings) would vanish behind 1999-era disk
    /// time. `0` leaves the clock I/O only.
    pub cpu_slowdown: f64,
    /// Number of independent I/O channels (`D`). Files carry an optional
    /// channel tag set at creation; a tagged file's requests are metered on
    /// data channel `tag mod D`, untagged files (manifest, journal, results)
    /// on the serial *shared* lane. Channels advance the simulated clock
    /// independently, so a run's I/O time is the max over the data channels
    /// plus the shared lane — with `channels = 1` this degenerates to the
    /// historic single-meter model, bit for bit.
    pub channels: usize,
    /// Degraded data channel `(index, factor)`: every page-transfer unit on
    /// that channel takes `factor` (≥ 1) times as long, stressing deadlines
    /// without changing a single counter. Stamped from
    /// [`FaultPlan::degraded_channel`] by [`SimDisk::with_faults`]; `None`
    /// (the default) keeps the clock bit-identical to the healthy model.
    pub degraded_channel: Option<(usize, f64)>,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            page_size: 8 * 1024,
            positioning_ratio: 6.0,
            transfer_secs_per_page: 0.0016,
            cpu_slowdown: 250.0,
            channels: 1,
            degraded_channel: None,
        }
    }
}

impl DiskModel {
    /// Total cost of the recorded requests in page-transfer units. Every
    /// attempt of a retried request pays the full `PT + n` (the arm
    /// repositions and the transfer restarts), and backoff pauses are
    /// charged on top in the same units.
    pub fn units(&self, s: &IoStats) -> f64 {
        self.positioning_ratio * (s.read_requests + s.write_requests) as f64
            + (s.pages_read + s.pages_written) as f64
            + s.backoff_units as f64
    }

    /// Total simulated disk time in seconds.
    pub fn seconds(&self, s: &IoStats) -> f64 {
        self.units(s) * self.transfer_secs_per_page
    }

    /// The CPU leg of the simulated clock: `work` at the price table's host
    /// nanoseconds, stretched by `cpu_slowdown` to the emulated machine.
    pub fn priced_cpu(&self, work: &Work) -> f64 {
        work.host_nanos() * 1e-9 * self.cpu_slowdown
    }

    /// Position on the simulated timeline of a point `cpu` of counted work
    /// and `io` of metered requests into a run. Spans, events, deadlines and
    /// the first-result probe are all stamped with this, never wall time.
    pub fn at(&self, cpu: &Work, io: &IoStats) -> f64 {
        self.priced_cpu(cpu) + self.seconds(io)
    }

    /// The number of data channels, clamped to at least one.
    pub fn data_channels(&self) -> usize {
        self.channels.max(1)
    }

    /// Simulated I/O time with channel parallelism: the shared lane
    /// serializes, the data channels overlap, so the wall clock is
    /// `shared + max over channels`.
    ///
    /// Computed in page-transfer *units* first and converted to seconds with
    /// a single multiply: every counter is an exact integer-valued `f64`, so
    /// `units` sums are exact and a one-channel decomposition reproduces the
    /// serial [`DiskModel::seconds`] of the summed counters bit for bit
    /// (per-bucket `seconds` would not — float distributivity fails).
    pub fn parallel_io_seconds(&self, shared: &IoStats, data: &[IoStats]) -> f64 {
        (self.units(shared) + self.max_channel_units(data)) * self.transfer_secs_per_page
    }

    /// Simulated seconds hidden by double-buffered prefetch: with more than
    /// one channel, loading partition `k+1` could overlap the join
    /// computation on partition `k`, so up to `min(priced CPU, busiest data
    /// channel)` of I/O time disappears behind the CPU. A credit of the
    /// model, granted to every executor alike: no stage of the code reads
    /// ahead. A single channel has no idle lane to prefetch on, and hides
    /// nothing.
    pub fn prefetch_hidden_seconds(&self, cpu_secs: f64, data: &[IoStats]) -> f64 {
        if self.data_channels() <= 1 {
            return 0.0;
        }
        let busiest = self.max_channel_units(data) * self.transfer_secs_per_page;
        cpu_secs.min(busiest)
    }

    /// Wall-clock simulated seconds of a run under the channel model:
    /// `priced_cpu + parallel_io − prefetch_hidden`, with `cpu_secs` the
    /// priced CPU. With `channels = 1` this is exactly
    /// `priced_cpu + seconds(io_total)`.
    pub fn total_seconds(&self, cpu_secs: f64, shared: &IoStats, data: &[IoStats]) -> f64 {
        cpu_secs + self.parallel_io_seconds(shared, data)
            - self.prefetch_hidden_seconds(cpu_secs, data)
    }

    /// Transfer-time multiplier of data channel `c`: 1.0 for healthy
    /// channels, the degradation factor for the one the plan degraded.
    /// Multiplying by the literal 1.0 is exact, so a `None` spec keeps every
    /// derived time bit-identical to the healthy model.
    pub fn channel_factor(&self, c: usize) -> f64 {
        match self.degraded_channel {
            Some((dc, f)) if dc == c => f.max(1.0),
            _ => 1.0,
        }
    }

    fn max_channel_units(&self, data: &[IoStats]) -> f64 {
        data.iter()
            .enumerate()
            .map(|(i, c)| self.units(c) * self.channel_factor(i))
            .fold(0.0, f64::max)
    }
}

/// Cumulative I/O counters of a [`SimDisk`].
///
/// Retry accounting: `read_requests`/`write_requests` (and the page/byte
/// counters) include **every** attempt, failed ones too. `faults_injected`
/// counts injected failures, `read_retries`/`write_retries` count the
/// re-issued attempts those failures triggered, and `backoff_units` is the
/// total simulated backoff charged between attempts. A fault-free run keeps
/// all four at zero, so equality comparisons against historical counters
/// still hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    pub read_requests: u64,
    pub write_requests: u64,
    pub pages_read: u64,
    pub pages_written: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Injected failures observed (reads and writes).
    pub faults_injected: u64,
    /// Read attempts re-issued after a failure.
    pub read_retries: u64,
    /// Write attempts re-issued after a failure.
    pub write_retries: u64,
    /// Simulated backoff charged between attempts, in page-transfer units.
    pub backoff_units: u64,
}

impl IoStats {
    /// Combines these counters with `other`, field by field.
    fn zip(&self, other: &IoStats, f: impl Fn(u64, u64) -> u64) -> IoStats {
        IoStats {
            read_requests: f(self.read_requests, other.read_requests),
            write_requests: f(self.write_requests, other.write_requests),
            pages_read: f(self.pages_read, other.pages_read),
            pages_written: f(self.pages_written, other.pages_written),
            bytes_read: f(self.bytes_read, other.bytes_read),
            bytes_written: f(self.bytes_written, other.bytes_written),
            faults_injected: f(self.faults_injected, other.faults_injected),
            read_retries: f(self.read_retries, other.read_retries),
            write_retries: f(self.write_retries, other.write_retries),
            backoff_units: f(self.backoff_units, other.backoff_units),
        }
    }

    /// Counters accumulated since the snapshot `since`.
    pub fn delta(&self, since: &IoStats) -> IoStats {
        self.zip(since, |a, b| a - b)
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &IoStats) -> IoStats {
        self.zip(other, |a, b| a + b)
    }

    /// In-place element-wise sum: folds another counter (e.g. a worker's
    /// forked meter, see [`SimDisk::fork_counters`]) into this one.
    pub fn merge(&mut self, other: &IoStats) {
        *self = self.plus(other);
    }
}

/// Handle to a file on a [`SimDisk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u32);

impl FileId {
    /// Placeholder id for errors that do not refer to a concrete file
    /// (see [`crate::IoError::unsupported`]).
    pub(crate) fn sentinel() -> FileId {
        FileId(u32::MAX)
    }

    /// The raw slot index, for serializing a file reference into a durable
    /// manifest. Ids are stable for the lifetime of the disk (deletion
    /// leaves a hole; slots are never reused).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a handle from a serialized [`FileId::raw`] value. The
    /// id is *not* validated here — a stale id surfaces as a typed
    /// [`IoErrorKind::FileDeleted`] on first use, exactly like a deleted
    /// file would.
    pub fn from_raw(raw: u32) -> FileId {
        FileId(raw)
    }
}

/// Largest block a file's bytes are kept in. A block holds
/// `max(1, BLOCK_BYTES / page_size)` whole pages, so no page straddles two
/// blocks and each page's checksum covers one contiguous slice.
const BLOCK_BYTES: usize = 64 * 1024;

/// Most blocks [`FREE_BLOCKS`] keeps: 16 MiB.
const FREE_BLOCKS_CAP: usize = 256;

/// Emptied whole blocks of deleted and truncated files, handed to the next
/// file that grows past its first block. Process-wide because every join
/// builds a fresh [`SimDisk`]: a per-store list would never reuse the
/// memory the previous join's level files and sort runs already touched.
/// Only blocks that hold exactly [`BLOCK_BYTES`] are kept.
static FREE_BLOCKS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Bytes per block of a store with pages of `page_size` bytes.
fn block_size(page_size: usize) -> usize {
    page_size * (BLOCK_BYTES / page_size).max(1)
}

/// An empty block with room for `cap` bytes.
fn take_block(cap: usize) -> Vec<u8> {
    let recycled = if cap == BLOCK_BYTES {
        lock(&FREE_BLOCKS).pop()
    } else {
        None
    };
    recycled.unwrap_or_else(|| Vec::with_capacity(cap))
}

/// Returns blocks to [`FREE_BLOCKS`] up to its cap; the rest are freed.
fn give_back(blocks: impl Iterator<Item = Vec<u8>>) {
    let mut free = lock(&FREE_BLOCKS);
    for mut block in blocks.filter(|b| b.capacity() == BLOCK_BYTES) {
        if free.len() == FREE_BLOCKS_CAP {
            break;
        }
        block.clear();
        free.push(block);
    }
}

/// A file's bytes plus the per-page checksums the simulated page format
/// carries. Checksums are recomputed for the pages an append touches and
/// verified for the pages a read touches — injected bit-rot is *detected* by
/// this machinery, not merely reported.
///
/// The bytes live in blocks of [`block_size`] bytes: byte `i` is at
/// `blocks[i / bs][i % bs]`, and every block but the last is full. A file's
/// first block starts at the size of its first append, rounded up to whole
/// pages, and doubles up to a whole block, so a small file holds about its
/// length; later blocks are whole from the start.
struct StoredFile {
    blocks: Vec<Vec<u8>>,
    len: usize,
    sums: Vec<u64>,
    /// I/O channel tag: `None` routes requests to the serial shared lane,
    /// `Some(t)` to data channel `t mod D`. Set at creation, immutable — a
    /// property of the file's placement, independent of the channel count,
    /// so changing `D` merely rebins the same requests.
    channel: Option<u64>,
    /// Spare-sector file: exempt from the plan's persistent bad-page map,
    /// the simulated analogue of a drive remapping a damaged sector onto a
    /// spare. Quarantine-recompute paths write rebuilt data through spares
    /// so the replacement cannot land on the same bad sector.
    spare: bool,
}

impl StoredFile {
    fn new(channel: Option<u64>) -> Self {
        StoredFile {
            blocks: Vec::new(),
            len: 0,
            sums: Vec::new(),
            channel,
            spare: false,
        }
    }

    /// The bytes of page `p` (short if it is the last, partial page).
    fn page(&self, p: usize, page_size: usize) -> &[u8] {
        let bs = block_size(page_size);
        let start = p * page_size;
        let n = page_size.min(self.len - start);
        &self.blocks[start / bs][start % bs..][..n]
    }

    fn append(&mut self, bytes: &[u8], page_size: usize) {
        let bs = block_size(page_size);
        let first_touched = self.len / page_size;
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.len == self.blocks.len() * bs {
                let cap = if self.blocks.is_empty() {
                    rest.len().next_multiple_of(page_size).min(bs)
                } else {
                    bs
                };
                self.blocks.push(take_block(cap));
            }
            let block = &mut self.blocks[self.len / bs];
            let n = rest.len().min(bs - block.len());
            if block.capacity() < block.len() + n {
                let cap = (2 * block.capacity()).clamp(block.len() + n, bs);
                block.reserve_exact(cap - block.len());
            }
            block.extend_from_slice(&rest[..n]);
            self.len += n;
            rest = &rest[n..];
        }
        let n_pages = self.len.div_ceil(page_size);
        self.sums.resize(n_pages, 0);
        for p in first_touched..n_pages {
            self.sums[p] = checksum64(self.page(p, page_size));
        }
    }

    /// Copies bytes `[offset, offset + out.len())` into `out`; the caller
    /// has checked the range against `len`.
    fn copy_out(&self, offset: usize, out: &mut [u8], page_size: usize) {
        let bs = block_size(page_size);
        let mut done = 0;
        while done < out.len() {
            let pos = offset + done;
            let at = pos % bs;
            let n = (out.len() - done).min(bs - at);
            out[done..done + n].copy_from_slice(&self.blocks[pos / bs][at..at + n]);
            done += n;
        }
    }

    /// Shrinks the file to `len < self.len` bytes and gives its tail blocks
    /// back.
    fn truncate(&mut self, len: usize, page_size: usize) {
        let bs = block_size(page_size);
        self.len = len;
        let keep = len.div_ceil(bs);
        give_back(self.blocks.drain(keep..));
        if let Some(last) = self.blocks.last_mut() {
            last.truncate(len - (keep - 1) * bs);
        }
        let n_pages = len.div_ceil(page_size);
        self.sums.truncate(n_pages);
        if n_pages > 0 {
            // The last page may now be partial: recompute its checksum.
            self.sums[n_pages - 1] = checksum64(self.page(n_pages - 1, page_size));
        }
    }

    /// Verifies the checksums of pages `[first, last]`. `corrupt_page`
    /// simulates bit-rot on that page: its on-the-wire checksum is perturbed
    /// before the compare, so detection flows through the same path a real
    /// mismatch would.
    fn verify(&self, first: u64, last: u64, page_size: usize, corrupt_page: Option<u64>) -> Result<(), u64> {
        for p in first..=last {
            let mut sum = checksum64(self.page(p as usize, page_size));
            if corrupt_page == Some(p) {
                sum ^= 0x1; // a single flipped bit on the wire
            }
            if sum != self.sums[p as usize] {
                return Err(p);
            }
        }
        Ok(())
    }
}

impl Drop for StoredFile {
    fn drop(&mut self) {
        give_back(self.blocks.drain(..));
    }
}

/// Shared fault configuration + per-identity attempt counters. One instance
/// is shared by a disk, all its [`SimDisk::fork_counters`] forks and
/// [`SimDisk::scratch_disk`] siblings, so concurrent handles draw failures
/// from a single deterministic pool (see `fault.rs` module docs).
struct FaultState {
    plan: Option<FaultPlan>,
    policy: RetryPolicy,
    attempts: Mutex<HashMap<(u8, u64, u64), u32>>,
}

impl FaultState {
    fn clean() -> Self {
        FaultState {
            plan: None,
            policy: RetryPolicy::default(),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Consumes one attempt of `(op, offset, len)`. Returns the injected
    /// failure, if this attempt is fated to fail: `(kind, global_attempt
    /// index, identity salt)`.
    fn next_fault(&self, op: IoOp, offset: u64, len: u64) -> Option<(IoErrorKind, u32, u64)> {
        let plan = self.plan.as_ref()?;
        let (fail_count, kind) = plan.fate(op, offset, len)?;
        let tag = match op {
            IoOp::Read => 0u8,
            IoOp::Write => 1u8,
        };
        let mut g = lock(&self.attempts);
        let e = g.entry((tag, offset, len)).or_insert(0);
        let idx = *e;
        if fail_count != PERMANENT {
            // Permanent identities fail forever; no need to advance (and
            // saturating keeps the counter meaningful either way).
            *e = e.saturating_add(1);
        }
        drop(g);
        if idx < fail_count {
            Some((kind, idx, plan.identity_salt(op, offset, len)))
        } else {
            None
        }
    }
}

/// The file table: a slot per file ever created, `None` once deleted.
/// The table's lock only finds a file; each file has its own lock, so
/// requests to different files — two S³J lanes, two PBSM workers — copy
/// and checksum their pages at once. Creating or deleting a file, and an
/// append under a disk budget, take the table exclusively.
type FileTable = RwLock<Vec<Option<Mutex<StoredFile>>>>;

fn read(t: &FileTable) -> RwLockReadGuard<'_, Vec<Option<Mutex<StoredFile>>>> {
    t.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(t: &FileTable) -> RwLockWriteGuard<'_, Vec<Option<Mutex<StoredFile>>>> {
    t.write().unwrap_or_else(PoisonError::into_inner)
}

/// The live file `f` of `table`, if any.
fn slot(table: &[Option<Mutex<StoredFile>>], f: FileId) -> Option<&Mutex<StoredFile>> {
    table.get(f.0 as usize).and_then(Option::as_ref)
}

/// Pages the live files of `table` occupy, on pages of `ps` bytes.
fn pages_in_use(table: &[Option<Mutex<StoredFile>>], ps: usize) -> u64 {
    table.iter().flatten().map(|file| lock(file).len.div_ceil(ps) as u64).sum()
}

/// The simulated disk. Cheap to clone (shared handle): clones share both the
/// file store and the I/O meter. [`SimDisk::fork_counters`] instead shares
/// only the file store and gives the fork a fresh meter — parallel join
/// workers each run on a fork, so their per-worker counters can be merged
/// back deterministically (via [`SimDisk::add_channel_stats`]) regardless of how the
/// scheduler interleaved their requests.
///
/// Fault injection: [`SimDisk::with_faults`] attaches a seeded [`FaultPlan`]
/// and a [`RetryPolicy`]. The fallible entry points ([`SimDisk::try_read`],
/// [`SimDisk::try_append`], [`SimDisk::try_len`]) retry injected failures
/// per the policy, charging every attempt plus backoff to the meter, and
/// surface a typed [`IoError`] only once the budget is exhausted. The
/// infallible `read`/`append`/`len` wrappers keep their historic signatures:
/// they still succeed under recoverable plans (retries happen inside) and
/// panic with the typed error's message otherwise — legacy callers that
/// never attach a plan are unaffected.
#[derive(Clone)]
pub struct SimDisk {
    files: Arc<FileTable>,
    /// Per-bucket meter: index 0 is the serial shared lane, indexes
    /// `1..=D` the data channels. [`SimDisk::stats`] sums the buckets, so
    /// single-meter callers observe the historic counters unchanged.
    stats: Arc<Mutex<Vec<IoStats>>>,
    model: DiskModel,
    faults: Arc<FaultState>,
}

impl SimDisk {
    pub fn new(model: DiskModel) -> Self {
        SimDisk {
            files: Arc::new(RwLock::new(Vec::new())),
            stats: Arc::new(Mutex::new(vec![
                IoStats::default();
                1 + model.data_channels()
            ])),
            model,
            faults: Arc::new(FaultState::clean()),
        }
    }

    /// Attaches a fault plan and retry policy. Call before handing out forks
    /// or siblings — fault state is shared through them. A plan with a
    /// degraded channel stamps the slowdown into this handle's
    /// [`DiskModel`], so every clock derived from [`SimDisk::model`]
    /// (deadline charging, per-phase stats) feels it automatically.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        if let Some((c, factor)) = plan.degraded_channel {
            self.model.degraded_channel = Some((c, factor.max(1.0)));
        }
        self.faults = Arc::new(FaultState {
            plan: Some(plan),
            policy,
            attempts: Mutex::new(HashMap::new()),
        });
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.plan
    }

    /// A handle onto the **same** file store with a **fresh, private** I/O
    /// meter. Work done through the fork is invisible to this handle's
    /// counters until the caller folds the fork's [`SimDisk::stats`] back in
    /// with [`SimDisk::add_channel_stats`] — the per-worker counter protocol of the
    /// parallel join executors. The fault state (plan, policy, attempt
    /// counters) is shared, so forks draw failures from one pool.
    pub fn fork_counters(&self) -> SimDisk {
        SimDisk {
            files: Arc::clone(&self.files),
            stats: Arc::new(Mutex::new(vec![
                IoStats::default();
                1 + self.model.data_channels()
            ])),
            model: self.model,
            faults: Arc::clone(&self.faults),
        }
    }

    /// A fresh disk (empty file store, zeroed meter) inheriting this disk's
    /// model, fault plan and retry policy, with **independent** attempt
    /// counters. Used by phases that stage intermediate data on a separate
    /// volume (PBSM's sort-phase dedup) so that fault injection covers them
    /// too.
    pub fn scratch_disk(&self) -> SimDisk {
        SimDisk {
            files: Arc::new(RwLock::new(Vec::new())),
            stats: Arc::new(Mutex::new(vec![
                IoStats::default();
                1 + self.model.data_channels()
            ])),
            model: self.model,
            faults: Arc::new(FaultState {
                plan: self.faults.plan,
                policy: self.faults.policy,
                attempts: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Folds a fork's full per-bucket meter (from
    /// [`SimDisk::channel_stats`]) into this handle's, bucket by bucket, so
    /// the channel decomposition survives the merge. Buckets past this
    /// disk's own (a fork built under a different model) fold into the
    /// shared lane rather than vanish.
    pub fn add_channel_stats(&self, buckets: &[IoStats]) {
        let mut g = lock(&self.stats);
        for (i, b) in buckets.iter().enumerate() {
            if i < g.len() {
                g[i].merge(b);
            } else {
                g[0].merge(b);
            }
        }
    }

    pub fn with_default_model() -> Self {
        Self::new(DiskModel::default())
    }

    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Creates an empty file on the serial shared lane.
    pub fn create(&self) -> FileId {
        self.add(StoredFile::new(None))
    }

    fn add(&self, file: StoredFile) -> FileId {
        let mut g = write(&self.files);
        g.push(Some(Mutex::new(file)));
        FileId((g.len() - 1) as u32)
    }

    /// Creates an empty file whose requests are metered on data channel
    /// `tag mod D`. The tag is a stable placement key (partition id, level
    /// index) — *not* a channel index — so the same file lands on the same
    /// channel however many channels the model has.
    pub fn create_on(&self, tag: u64) -> FileId {
        self.add(StoredFile::new(Some(tag)))
    }

    /// The channel tag a file was created with (`None` for shared-lane
    /// files, deleted files and stale ids). Derived files (sort runs, merge
    /// outputs) inherit their input's tag through this.
    pub fn file_channel(&self, f: FileId) -> Option<u64> {
        slot(&read(&self.files), f).and_then(|file| lock(file).channel)
    }

    /// Creates an empty file on the same channel as `other` (shared lane if
    /// `other` is untagged or gone) — how derived files stay on their
    /// input's channel.
    pub fn create_like(&self, other: FileId) -> FileId {
        match self.file_channel(other) {
            Some(t) => self.create_on(t),
            None => self.create(),
        }
    }

    /// Creates an empty file on data channel `tag mod D` whose pages are
    /// **exempt** from the plan's persistent bad-sector map — the simulated
    /// analogue of remapping a damaged sector onto a spare. The
    /// quarantine-recompute paths write rebuilt partition data through
    /// spares so a rebuilt file cannot land on the very sectors that
    /// poisoned the original.
    pub fn create_spare_on(&self, tag: u64) -> FileId {
        let mut file = StoredFile::new(Some(tag));
        file.spare = true;
        self.add(file)
    }

    /// `true` iff the file was created through a spare-sector constructor.
    pub fn is_spare(&self, f: FileId) -> bool {
        slot(&read(&self.files), f).is_some_and(|file| lock(file).spare)
    }

    /// Pages occupied by live files on this handle's store — the quantity
    /// [`FaultPlan::disk_budget_pages`] caps. Scratch disks are separate
    /// volumes with their own (identical) budget.
    pub fn pages_in_use(&self) -> u64 {
        pages_in_use(&read(&self.files), self.model.page_size)
    }

    /// Deletes a file, releasing its space. Idempotent.
    pub fn delete(&self, f: FileId) {
        let mut g = write(&self.files);
        let gone = g.get_mut(f.0 as usize).and_then(Option::take);
        drop(g);
        drop(gone); // hands its blocks back outside the table's lock
    }

    /// `true` iff the file exists (was created and not deleted).
    pub fn exists(&self, f: FileId) -> bool {
        slot(&read(&self.files), f).is_some()
    }

    /// Ids of all live (non-deleted) files, in creation order. Used by the
    /// recovery scan to find orphans — files a crashed run created that no
    /// committed manifest references.
    pub fn file_ids(&self) -> Vec<FileId> {
        let g = read(&self.files);
        g.iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(i, _)| FileId(i as u32))
            .collect()
    }

    /// Shrinks a file to `len` bytes (a no-op if it is already shorter).
    /// A metadata operation — free and fault-exempt, like [`SimDisk::try_len`].
    /// Recovery uses this to drop a torn journal tail and to roll the
    /// results file back to the last committed watermark.
    pub fn try_truncate(&self, f: FileId, len: u64) -> Result<(), IoError> {
        let g = read(&self.files);
        let Some(mut file) = slot(&g, f).map(lock) else {
            return Err(IoError {
                kind: IoErrorKind::FileDeleted,
                file: f,
                offset: len,
                len: 0,
                attempts: 1,
            });
        };
        let len = len as usize;
        if len < file.len {
            file.truncate(len, self.model.page_size);
        }
        Ok(())
    }

    /// Serializes the entire file table (contents and deleted-slot holes) so
    /// a host process can persist it across a real process boundary and
    /// [`SimDisk::restore_files`] it on `--resume`. This models the host
    /// filesystem surviving the crash; it is not a disk request and charges
    /// nothing to the meter.
    pub fn export_files(&self) -> Vec<u8> {
        let g = read(&self.files);
        let mut out = Vec::new();
        out.extend_from_slice(b"SJDK");
        // Version 2 added the per-file channel tag so a resumed run bins its
        // re-reads onto the same channels the crashed run wrote on; version
        // 3 adds the spare-sector flag so quarantine state survives resume.
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&(g.len() as u32).to_le_bytes());
        for slot in g.iter() {
            match slot.as_ref().map(lock) {
                None => out.push(0),
                Some(file) => {
                    out.push(1);
                    match file.channel {
                        None => out.push(0),
                        Some(t) => {
                            out.push(1);
                            out.extend_from_slice(&t.to_le_bytes());
                        }
                    }
                    out.push(u8::from(file.spare));
                    out.extend_from_slice(&(file.len as u64).to_le_bytes());
                    for block in &file.blocks {
                        out.extend_from_slice(block);
                    }
                }
            }
        }
        out
    }

    /// Replaces this disk's file table with a snapshot produced by
    /// [`SimDisk::export_files`]. Per-page checksums are recomputed on
    /// import. A malformed snapshot surfaces as a typed
    /// [`IoErrorKind::Unsupported`] error.
    pub fn restore_files(&self, snapshot: &[u8]) -> Result<(), IoError> {
        let bad = || IoError::unsupported();
        let mut rest = snapshot.strip_prefix(b"SJDK").ok_or_else(bad)?;
        // The next `n` bytes of the snapshot, borrowed, not copied.
        fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], IoError> {
            if rest.len() < n {
                return Err(IoError::unsupported());
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Ok(head)
        }
        fn take_u64(rest: &mut &[u8]) -> Result<u64, IoError> {
            let mut b = [0u8; 8];
            b.copy_from_slice(take(rest, 8)?);
            Ok(u64::from_le_bytes(b))
        }
        let ver = take(&mut rest, 4)?;
        let version = if ver == 1u32.to_le_bytes() {
            1
        } else if ver == 2u32.to_le_bytes() {
            2
        } else if ver == 3u32.to_le_bytes() {
            3
        } else {
            return Err(bad());
        };
        let cnt = take(&mut rest, 4)?;
        let count = u32::from_le_bytes([cnt[0], cnt[1], cnt[2], cnt[3]]) as usize;
        let ps = self.model.page_size;
        // Every slot takes at least one byte, so a corrupt count cannot
        // reserve more slots than the snapshot could hold.
        let mut table: Vec<Option<Mutex<StoredFile>>> = Vec::with_capacity(count.min(rest.len()));
        for _ in 0..count {
            match take(&mut rest, 1)?[0] {
                0 => table.push(None),
                1 => {
                    // Version-1 snapshots predate channel tags: their files
                    // restore onto the shared lane.
                    let channel = if version >= 2 {
                        match take(&mut rest, 1)?[0] {
                            0 => None,
                            1 => Some(take_u64(&mut rest)?),
                            _ => return Err(bad()),
                        }
                    } else {
                        None
                    };
                    // Pre-version-3 snapshots predate spare-sector files:
                    // everything restores as a regular file.
                    let spare = if version >= 3 {
                        match take(&mut rest, 1)?[0] {
                            0 => false,
                            1 => true,
                            _ => return Err(bad()),
                        }
                    } else {
                        false
                    };
                    let len = usize::try_from(take_u64(&mut rest)?).map_err(|_| bad())?;
                    let mut file = StoredFile::new(channel);
                    file.spare = spare;
                    file.append(take(&mut rest, len)?, ps);
                    table.push(Some(Mutex::new(file)));
                }
                _ => return Err(bad()),
            }
        }
        if !rest.is_empty() {
            return Err(bad());
        }
        *write(&self.files) = table;
        Ok(())
    }

    /// Meter bucket for a file's channel tag: untagged files serialize on
    /// bucket 0, tagged ones bin onto data channel `tag mod D` (buckets
    /// `1..=D`). Binning happens here, at metering time, so the file layout
    /// is identical whatever `D` is.
    fn bucket_of(&self, channel: Option<u64>) -> usize {
        match channel {
            None => 0,
            Some(t) => 1 + (t % self.model.data_channels() as u64) as usize,
        }
    }

    /// Length of a file in bytes. A metadata lookup — free and fault-exempt.
    pub fn try_len(&self, f: FileId) -> Result<u64, IoError> {
        match slot(&read(&self.files), f) {
            Some(file) => Ok(lock(file).len as u64),
            None => Err(IoError {
                kind: IoErrorKind::FileDeleted,
                file: f,
                offset: 0,
                len: 0,
                attempts: 1,
            }),
        }
    }

    /// Length of a file in bytes. Panics if the file was deleted — use
    /// [`SimDisk::try_len`] to handle that as a typed error.
    pub fn len(&self, f: FileId) -> u64 {
        self.try_len(f)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// `true` iff the file holds no bytes.
    pub fn is_empty(&self, f: FileId) -> bool {
        self.len(f) == 0
    }

    /// Appends `data` as **one** request: cost `PT + ceil(len / page_size)`
    /// per attempt. Injected write faults (transient, torn) persist nothing
    /// — the write is atomic — and are retried per the [`RetryPolicy`],
    /// each attempt re-charged in full plus backoff.
    ///
    /// Writers should batch bytes into multi-page buffers before calling this
    /// — that is exactly the contiguous-write optimisation the cost model
    /// rewards.
    pub fn try_append(&self, f: FileId, data: &[u8]) -> Result<(), IoError> {
        if data.is_empty() {
            return Ok(());
        }
        let ps = self.model.page_size;
        let pages = data.len().div_ceil(ps) as u64;
        let max_attempts = self.faults.policy.max_attempts.max(1);
        let budget = self.faults.plan.as_ref().and_then(|p| p.disk_budget_pages);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Under a budget the append holds the whole table, so its check
            // and its write are one step across files; otherwise it holds
            // only its own file.
            let (shared, exclusive);
            let table: &[Option<Mutex<StoredFile>>] = if budget.is_some() {
                exclusive = write(&self.files);
                &exclusive
            } else {
                shared = read(&self.files);
                &shared
            };
            let Some(slot) = slot(table, f) else {
                return Err(IoError {
                    kind: IoErrorKind::FileDeleted,
                    file: f,
                    offset: 0,
                    len: data.len() as u64,
                    attempts: attempt,
                });
            };
            // ENOSPC: the allocator rejects the append before any transfer
            // when the store's live pages would exceed the plan's capacity.
            // Retrying cannot free space, so the error surfaces immediately
            // (the policy classifies DiskFull as not-retryable) and nothing
            // is charged beyond the fault counter.
            if let Some(budget) = budget {
                let (len_now, channel) = {
                    let file = lock(slot);
                    (file.len, file.channel)
                };
                let new_pages = ((len_now + data.len()).div_ceil(ps) - len_now.div_ceil(ps)) as u64;
                if new_pages > 0 && pages_in_use(table, ps) + new_pages > budget {
                    let kind = IoErrorKind::DiskFull;
                    debug_assert!(!self.faults.policy.should_retry(kind));
                    lock(&self.stats)[self.bucket_of(channel)].faults_injected += 1;
                    return Err(IoError {
                        kind,
                        file: f,
                        offset: len_now as u64,
                        len: data.len() as u64,
                        attempts: attempt,
                    });
                }
            }
            let mut file = lock(slot);
            let offset = file.len as u64;
            let bucket = self.bucket_of(file.channel);
            {
                let s = &mut lock(&self.stats)[bucket];
                s.write_requests += 1;
                s.pages_written += pages;
                s.bytes_written += data.len() as u64;
            }
            match self.faults.next_fault(IoOp::Write, offset, data.len() as u64) {
                None => {
                    file.append(data, ps);
                    return Ok(());
                }
                Some((kind, global_idx, salt)) => {
                    drop(file); // nothing persisted: atomic rollback
                    let s = &mut lock(&self.stats)[bucket];
                    s.faults_injected += 1;
                    if attempt < max_attempts {
                        s.write_retries += 1;
                        s.backoff_units = s
                            .backoff_units
                            .saturating_add(self.faults.policy.backoff_units(global_idx, salt));
                    } else {
                        return Err(IoError {
                            kind,
                            file: f,
                            offset,
                            len: data.len() as u64,
                            attempts: attempt,
                        });
                    }
                }
            }
        }
    }

    /// Infallible wrapper over [`SimDisk::try_append`]; panics with the
    /// typed error's message if the request cannot be satisfied.
    pub fn append(&self, f: FileId, data: &[u8]) {
        self.try_append(f, data)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Reads `out.len()` bytes starting at byte `offset` as **one** request:
    /// cost `PT + (number of pages the byte range touches)` per attempt.
    /// Every touched page's checksum is verified; injected bit-rot fails the
    /// verification and transient read faults fail in transit — both are
    /// retried per the [`RetryPolicy`], each attempt re-charged in full plus
    /// backoff. Out-of-range requests and deleted files surface immediately.
    pub fn try_read(&self, f: FileId, offset: u64, out: &mut [u8]) -> Result<(), IoError> {
        if out.is_empty() {
            return Ok(());
        }
        let ps = self.model.page_size as u64;
        let first_page = offset / ps;
        let last_page = (offset + out.len() as u64 - 1) / ps;
        let pages = last_page - first_page + 1;
        let max_attempts = self.faults.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let table = read(&self.files);
            let Some(file) = slot(&table, f).map(lock) else {
                return Err(IoError {
                    kind: IoErrorKind::FileDeleted,
                    file: f,
                    offset,
                    len: out.len() as u64,
                    attempts: attempt,
                });
            };
            if offset + out.len() as u64 > file.len as u64 {
                return Err(IoError {
                    kind: IoErrorKind::OutOfBounds,
                    file: f,
                    offset,
                    len: out.len() as u64,
                    attempts: attempt,
                });
            }
            let bucket = self.bucket_of(file.channel);
            {
                let s = &mut lock(&self.stats)[bucket];
                s.read_requests += 1;
                s.pages_read += pages;
                s.bytes_read += out.len() as u64;
            }
            // Persistent bad sectors: damage is a property of the platter
            // location (channel tag × page index), not of the request, so
            // any read overlapping a damaged page fails identically at
            // every buffer size and on every attempt. The policy classifies
            // the kind as not-retryable — one charged attempt, no backoff.
            // Untagged files model a protected system volume (manifest,
            // journal, results); spare files model remapped sectors.
            if let (Some(plan), Some(t)) = (self.faults.plan.as_ref(), file.channel) {
                if !file.spare && (first_page..=last_page).any(|p| plan.bad_page(t, p)) {
                    let kind = IoErrorKind::PersistentCorruption;
                    debug_assert!(!self.faults.policy.should_retry(kind));
                    drop(file);
                    lock(&self.stats)[bucket].faults_injected += 1;
                    return Err(IoError {
                        kind,
                        file: f,
                        offset,
                        len: out.len() as u64,
                        attempts: attempt,
                    });
                }
            }
            let fault = self.faults.next_fault(IoOp::Read, offset, out.len() as u64);
            // Bit-rot corrupts a page on the wire; the per-page checksum
            // machinery is what detects it. Other read faults fail in
            // transit before verification.
            let (failed, salt_and_idx) = match fault {
                None => {
                    // Genuine verification: a mismatch here (without
                    // injection) would expose real bookkeeping corruption.
                    match file.verify(first_page, last_page, ps as usize, None) {
                        Ok(()) => {
                            file.copy_out(offset as usize, out, ps as usize);
                            return Ok(());
                        }
                        Err(_page) => (IoErrorKind::ChecksumMismatch, None),
                    }
                }
                Some((IoErrorKind::ChecksumMismatch, idx, salt)) => {
                    let v = file.verify(first_page, last_page, ps as usize, Some(first_page));
                    debug_assert!(v.is_err(), "injected bit-rot must fail verification");
                    (IoErrorKind::ChecksumMismatch, Some((idx, salt)))
                }
                Some((kind, idx, salt)) => (kind, Some((idx, salt))),
            };
            drop(file);
            let s = &mut lock(&self.stats)[bucket];
            match salt_and_idx {
                Some((global_idx, salt)) => {
                    s.faults_injected += 1;
                    if attempt < max_attempts {
                        s.read_retries += 1;
                        s.backoff_units = s
                            .backoff_units
                            .saturating_add(self.faults.policy.backoff_units(global_idx, salt));
                    } else {
                        return Err(IoError {
                            kind: failed,
                            file: f,
                            offset,
                            len: out.len() as u64,
                            attempts: attempt,
                        });
                    }
                }
                // Real (non-injected) checksum corruption: retrying cannot
                // help, the stored state itself is inconsistent.
                None => {
                    return Err(IoError {
                        kind: failed,
                        file: f,
                        offset,
                        len: out.len() as u64,
                        attempts: attempt,
                    })
                }
            }
        }
    }

    /// Infallible wrapper over [`SimDisk::try_read`]; panics with the typed
    /// error's message if the request cannot be satisfied.
    pub fn read(&self, f: FileId, offset: u64, out: &mut [u8]) {
        self.try_read(f, offset, out)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Snapshot of the cumulative counters: the sum over every meter
    /// bucket, i.e. the historic single-meter view.
    pub fn stats(&self) -> IoStats {
        let g = lock(&self.stats);
        let mut total = IoStats::default();
        for b in g.iter() {
            total.merge(b);
        }
        total
    }

    /// Snapshot of the per-bucket counters: index 0 is the serial shared
    /// lane, indexes `1..=D` the data channels. The buckets sum to
    /// [`SimDisk::stats`] by construction.
    pub fn channel_stats(&self) -> Vec<IoStats> {
        lock(&self.stats).clone()
    }

    /// Resets all counters to zero (file contents are kept).
    pub fn reset_stats(&self) {
        let mut g = lock(&self.stats);
        for b in g.iter_mut() {
            *b = IoStats::default();
        }
    }

    /// Simulated disk seconds for counters accumulated so far. With a
    /// degraded channel the slow channel's units are stretched by its
    /// factor — this is the clock deadline charging reads, so a degraded
    /// channel genuinely eats into a run's deadline budget.
    pub fn io_seconds(&self) -> f64 {
        if self.model.degraded_channel.is_none() {
            return self.model.seconds(&self.stats());
        }
        let buckets = self.channel_stats();
        let mut units = self.model.units(&buckets[0]);
        for (i, b) in buckets[1..].iter().enumerate() {
            units += self.model.units(b) * self.model.channel_factor(i);
        }
        units * self.model.transfer_secs_per_page
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn small_disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 10.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    #[test]
    fn append_and_read_roundtrip() {
        let d = small_disk();
        let f = d.create();
        d.append(f, b"hello world, this spans pages!");
        assert_eq!(d.len(f), 30);
        let mut buf = vec![0u8; 11];
        d.read(f, 6, &mut buf);
        assert_eq!(&buf, b"world, this");
    }

    #[test]
    fn cost_model_pt_plus_n() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &[0u8; 40]); // 3 pages, 1 request
        let s = d.stats();
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.pages_written, 3);
        // units = PT*1 + 3 = 13
        assert!((d.model().units(&s) - 13.0).abs() < 1e-12);
        assert!((d.io_seconds() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn read_counts_pages_touched_not_bytes() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &[7u8; 64]);
        d.reset_stats();
        // 2 bytes straddling a page boundary touch 2 pages.
        let mut b = [0u8; 2];
        d.read(f, 15, &mut b);
        let s = d.stats();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.pages_read, 2);
        // Within one page: 1 page.
        d.read(f, 0, &mut b);
        assert_eq!(d.stats().pages_read, 3);
    }

    #[test]
    fn one_big_request_cheaper_than_many_small() {
        let d = small_disk();
        let f1 = d.create();
        d.append(f1, &[0u8; 160]); // 10 pages in one request: PT + 10 = 20
        let one = d.model().units(&d.stats());
        d.reset_stats();
        let f2 = d.create();
        for _ in 0..10 {
            d.append(f2, &[0u8; 16]); // 10 requests: 10*(PT + 1) = 110
        }
        let many = d.model().units(&d.stats());
        assert!(one < many);
        assert!((many - 110.0).abs() < 1e-12);
    }

    #[test]
    fn delete_then_recreate_is_independent() {
        let d = small_disk();
        let f = d.create();
        d.append(f, b"abc");
        d.delete(f);
        let g = d.create();
        assert_ne!(f, g);
        assert_eq!(d.len(g), 0);
    }

    #[test]
    fn stats_delta_and_plus() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &[0u8; 16]);
        let snap = d.stats();
        d.append(f, &[0u8; 32]);
        let delta = d.stats().delta(&snap);
        assert_eq!(delta.write_requests, 1);
        assert_eq!(delta.pages_written, 2);
        let sum = snap.plus(&delta);
        assert_eq!(sum, d.stats());
    }

    #[test]
    fn fork_shares_files_but_not_counters() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &[0u8; 16]);
        let fork = d.fork_counters();
        // Fork starts with a clean meter but sees the shared file.
        assert_eq!(fork.stats(), IoStats::default());
        assert_eq!(fork.len(f), 16);
        // Work through the fork is metered on the fork only...
        fork.append(f, &[0u8; 32]);
        assert_eq!(fork.stats().pages_written, 2);
        assert_eq!(d.stats().pages_written, 1);
        // ...but the bytes land in the shared store.
        assert_eq!(d.len(f), 48);
        // Merging the fork back restores the single-meter view.
        d.add_channel_stats(&fork.channel_stats());
        assert_eq!(d.stats().pages_written, 3);
        assert_eq!(d.stats().write_requests, 2);
        // Deletion through either handle is visible to both.
        let g = fork.create();
        d.delete(g);
        assert_eq!(fork.stats().read_requests, 0);
    }

    #[test]
    fn empty_operations_are_free() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &[]);
        let mut empty: [u8; 0] = [];
        d.read(f, 0, &mut empty);
        assert_eq!(d.stats(), IoStats::default());
    }

    #[test]
    fn truncate_shrinks_and_keeps_checksums_consistent() {
        let d = small_disk();
        let f = d.create();
        d.append(f, &(0..40u8).collect::<Vec<u8>>()); // 2.5 pages
        d.try_truncate(f, 20).unwrap();
        assert_eq!(d.len(f), 20);
        // The now-partial last page must still verify on read.
        let mut out = vec![0u8; 20];
        d.try_read(f, 0, &mut out).unwrap();
        assert_eq!(out, (0..20u8).collect::<Vec<u8>>());
        // Growing truncate is a no-op; appending after truncate works.
        d.try_truncate(f, 100).unwrap();
        assert_eq!(d.len(f), 20);
        d.append(f, &[99u8; 4]);
        let mut tail = [0u8; 4];
        d.read(f, 20, &mut tail);
        assert_eq!(tail, [99u8; 4]);
        d.delete(f);
        assert_eq!(
            d.try_truncate(f, 0).unwrap_err().kind,
            IoErrorKind::FileDeleted
        );
    }

    #[test]
    fn file_ids_lists_live_files_and_raw_round_trips() {
        let d = small_disk();
        let a = d.create();
        let b = d.create();
        let c = d.create();
        d.delete(b);
        assert_eq!(d.file_ids(), vec![a, c]);
        assert!(d.exists(a) && !d.exists(b));
        assert_eq!(FileId::from_raw(a.raw()), a);
    }

    #[test]
    fn export_restore_round_trips_contents_and_holes() {
        let d = small_disk();
        let a = d.create();
        let b = d.create();
        let c = d.create();
        d.append(a, b"alpha");
        d.append(c, &[3u8; 40]);
        d.delete(b);
        let snap = d.export_files();

        let e = SimDisk::new(d.model());
        e.restore_files(&snap).unwrap();
        assert_eq!(e.file_ids(), vec![a, c]);
        let mut out = vec![0u8; 5];
        e.try_read(a, 0, &mut out).unwrap();
        assert_eq!(&out, b"alpha");
        let mut out = vec![0u8; 40];
        e.try_read(c, 0, &mut out).unwrap();
        assert_eq!(out, [3u8; 40]);
        // Ids allocated after restore continue past the snapshot's slots.
        assert_eq!(e.create().raw(), 3);
        // Malformed snapshots surface typed errors.
        assert!(e.restore_files(b"JUNK").is_err());
        assert!(e.restore_files(&snap[..snap.len() - 1]).is_err());
    }

    fn channelled_disk(channels: usize) -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 10.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels,
            degraded_channel: None,
        })
    }

    #[test]
    fn tagged_files_bin_onto_data_channels() {
        let d = channelled_disk(2);
        let shared = d.create();
        let a = d.create_on(0); // channel 0 → bucket 1
        let b = d.create_on(5); // 5 mod 2 = 1 → bucket 2
        assert_eq!(d.file_channel(shared), None);
        assert_eq!(d.file_channel(a), Some(0));
        assert_eq!(d.file_channel(b), Some(5));
        d.append(shared, &[0u8; 16]);
        d.append(a, &[0u8; 32]);
        d.append(b, &[0u8; 48]);
        let buckets = d.channel_stats();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].pages_written, 1);
        assert_eq!(buckets[1].pages_written, 2);
        assert_eq!(buckets[2].pages_written, 3);
        // The buckets sum to the historic single-meter view.
        let sum = buckets.iter().fold(IoStats::default(), |acc, b| acc.plus(b));
        assert_eq!(sum, d.stats());
        assert_eq!(d.stats().pages_written, 6);
    }

    #[test]
    fn channel_count_rebins_without_changing_totals() {
        // The same workload on 1 vs 4 channels: identical files, identical
        // summed counters — only the decomposition differs.
        let run = |channels: usize| -> (IoStats, Vec<IoStats>) {
            let d = channelled_disk(channels);
            for pid in 0..6u64 {
                let f = d.create_on(pid);
                d.append(f, &[pid as u8; 40]);
                let mut out = [0u8; 40];
                d.read(f, 0, &mut out);
            }
            (d.stats(), d.channel_stats())
        };
        let (one, one_buckets) = run(1);
        let (four, four_buckets) = run(4);
        assert_eq!(one, four);
        assert_eq!(one_buckets.len(), 2);
        assert_eq!(four_buckets.len(), 5);
        // With one channel everything tagged lands in the single data bucket.
        assert_eq!(one_buckets[1], one);
        // With four, at least two data buckets carry load.
        assert!(four_buckets[1..].iter().filter(|b| b.pages_written > 0).count() >= 2);
    }

    #[test]
    fn parallel_io_seconds_is_shared_plus_busiest_channel() {
        let d = channelled_disk(2);
        let shared = d.create();
        let a = d.create_on(0);
        let b = d.create_on(1);
        d.append(shared, &[0u8; 16]); // PT + 1 = 11 units
        d.append(a, &[0u8; 32]); // 12 units
        d.append(b, &[0u8; 64]); // 14 units (busiest)
        let m = d.model();
        let buckets = d.channel_stats();
        let par = m.parallel_io_seconds(&buckets[0], &buckets[1..]);
        assert!((par - (11.0 + 14.0)).abs() < 1e-12);
        // Serial time counts every unit.
        assert!((m.seconds(&d.stats()) - (11.0 + 12.0 + 14.0)).abs() < 1e-12);
    }

    #[test]
    fn one_channel_parallel_time_is_bitwise_serial_time() {
        // Default-model counters: the decomposition must reproduce the
        // serial seconds bit for bit, not within an epsilon.
        let d = SimDisk::with_default_model();
        let f = d.create_on(3);
        let g = d.create();
        d.append(f, &[1u8; 100_000]);
        d.append(g, &[2u8; 30_000]);
        let mut out = vec![0u8; 50_000];
        d.read(f, 0, &mut out);
        let m = d.model();
        let buckets = d.channel_stats();
        let par = m.parallel_io_seconds(&buckets[0], &buckets[1..]);
        assert_eq!(par, m.seconds(&d.stats()));
    }

    #[test]
    fn prefetch_hides_io_only_with_spare_channels() {
        let data = [IoStats {
            read_requests: 1,
            pages_read: 4,
            ..IoStats::default()
        }];
        let single = DiskModel {
            channels: 1,
            degraded_channel: None,
            ..channelled_disk(1).model()
        };
        let multi = DiskModel {
            channels: 2,
            ..single
        };
        // Busiest channel: 10 + 4 = 14 simulated seconds.
        assert_eq!(single.prefetch_hidden_seconds(5.0, &data), 0.0);
        assert_eq!(multi.prefetch_hidden_seconds(5.0, &data), 5.0); // CPU-bound
        assert_eq!(multi.prefetch_hidden_seconds(99.0, &data), 14.0); // IO-bound
        let shared = IoStats::default();
        // total = priced cpu + (shared + max) − hidden
        assert_eq!(multi.total_seconds(5.0, &shared, &data), 14.0);
        assert_eq!(multi.total_seconds(99.0, &shared, &data), 99.0);
        assert_eq!(single.total_seconds(5.0, &shared, &data), 19.0);
    }

    #[test]
    fn export_restore_round_trips_channel_tags() {
        let d = channelled_disk(4);
        let a = d.create_on(7);
        let b = d.create();
        d.append(a, b"tagged");
        d.append(b, b"shared");
        let snap = d.export_files();
        let e = channelled_disk(4);
        e.restore_files(&snap).unwrap();
        assert_eq!(e.file_channel(a), Some(7));
        assert_eq!(e.file_channel(b), None);
        // Reads through the restored disk bin like the original's.
        let mut out = vec![0u8; 6];
        e.try_read(a, 0, &mut out).unwrap();
        assert_eq!(&out, b"tagged");
        let buckets = e.channel_stats();
        assert_eq!(buckets[1 + (7 % 4)].read_requests, 1);
        assert_eq!(buckets[0].read_requests, 0);
    }

    #[test]
    fn version_one_snapshots_restore_onto_the_shared_lane() {
        // A hand-built v1 snapshot (no channel tags): one live 3-byte file.
        let mut snap = Vec::new();
        snap.extend_from_slice(b"SJDK");
        snap.extend_from_slice(&1u32.to_le_bytes());
        snap.extend_from_slice(&1u32.to_le_bytes());
        snap.push(1);
        snap.extend_from_slice(&3u64.to_le_bytes());
        snap.extend_from_slice(b"abc");
        let d = channelled_disk(2);
        d.restore_files(&snap).unwrap();
        let f = FileId::from_raw(0);
        assert_eq!(d.len(f), 3);
        assert_eq!(d.file_channel(f), None);
    }

    #[test]
    fn add_channel_stats_preserves_the_decomposition() {
        let d = channelled_disk(2);
        let fork = d.fork_counters();
        let f = fork.create_on(1);
        fork.append(f, &[0u8; 32]);
        let g = fork.create();
        fork.append(g, &[0u8; 16]);
        d.add_channel_stats(&fork.channel_stats());
        let buckets = d.channel_stats();
        assert_eq!(buckets[0].pages_written, 1);
        assert_eq!(buckets[2].pages_written, 2);
        assert_eq!(d.stats().pages_written, 3);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod failure_tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 1.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    #[test]
    #[should_panic(expected = "past end of file")]
    fn read_past_end_of_file_panics() {
        let d = disk();
        let f = d.create();
        d.append(f, &[1u8; 8]);
        let mut out = [0u8; 16];
        d.read(f, 0, &mut out); // only 8 bytes exist
    }

    #[test]
    #[should_panic(expected = "file was deleted")]
    fn read_from_deleted_file_panics() {
        let d = disk();
        let f = d.create();
        d.append(f, &[1u8; 16]);
        d.delete(f);
        let mut out = [0u8; 4];
        d.read(f, 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "file was deleted")]
    fn append_to_deleted_file_panics() {
        let d = disk();
        let f = d.create();
        d.delete(f);
        d.append(f, &[0u8; 4]);
    }

    #[test]
    fn double_delete_is_idempotent() {
        let d = disk();
        let f = d.create();
        d.delete(f);
        d.delete(f); // no panic
    }

    #[test]
    fn typed_errors_from_try_apis() {
        let d = disk();
        let f = d.create();
        d.append(f, &[1u8; 8]);
        let mut out = [0u8; 16];
        let e = d.try_read(f, 0, &mut out).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::OutOfBounds);
        d.delete(f);
        assert_eq!(d.try_len(f).unwrap_err().kind, IoErrorKind::FileDeleted);
        assert_eq!(d.try_append(f, &[0u8; 4]).unwrap_err().kind, IoErrorKind::FileDeleted);
        let e = d.try_read(f, 0, &mut out[..4]).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::FileDeleted);
        assert!(!e.kind.is_transient());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod fault_tests {
    use super::*;

    fn disk_with(plan: FaultPlan, policy: RetryPolicy) -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 4.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
        .with_faults(plan, policy)
    }

    /// A plan that faults every identity exactly once (fate() draws the
    /// fail count uniformly in `1..=max_consecutive`, so 1 pins it).
    fn always_fail_once() -> FaultPlan {
        FaultPlan {
            fault_rate: 1.0,
            max_consecutive: 1,
            ..FaultPlan::none(1)
        }
    }

    #[test]
    fn recoverable_fault_retries_and_succeeds_with_visible_cost() {
        let plan = always_fail_once();
        let d = disk_with(plan, RetryPolicy::default());
        let f = d.create();
        d.try_append(f, &[42u8; 32]).expect("retry must succeed");
        let s = d.stats();
        assert!(s.faults_injected >= 1, "{s:?}");
        assert_eq!(s.write_retries, s.faults_injected);
        assert!(s.backoff_units > 0);
        // Every attempt is charged: requests > 1 for a single logical write.
        assert_eq!(s.write_requests, 1 + s.write_retries);
        let mut out = [0u8; 32];
        d.try_read(f, 0, &mut out).expect("read retries too");
        assert_eq!(out, [42u8; 32]);
        let s = d.stats();
        assert_eq!(s.read_requests, 1 + s.read_retries);
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let plan = FaultPlan::unrecoverable(9);
        let d = disk_with(plan, RetryPolicy::with_max_attempts(3));
        let f = d.create();
        let e = d.try_append(f, &[0u8; 8]).unwrap_err();
        assert_eq!(e.attempts, 3);
        assert!(e.kind.is_transient());
        // All three attempts were charged.
        assert_eq!(d.stats().write_requests, 3);
        assert_eq!(d.stats().faults_injected, 3);
        assert_eq!(d.stats().write_retries, 2); // last failure is not retried
    }

    #[test]
    fn bit_rot_is_detected_by_page_checksums_and_cured_by_retry() {
        // Find a seed whose fate for this identity is a checksum fault.
        let mut chosen = None;
        for seed in 0..5000u64 {
            let p = FaultPlan {
                fault_rate: 1.0,
                max_consecutive: 1,
                ..FaultPlan::none(seed)
            };
            if let Some((1, IoErrorKind::ChecksumMismatch)) = p.fate(IoOp::Read, 0, 32) {
                chosen = Some(p);
                break;
            }
        }
        let plan = chosen.expect("some seed yields bit-rot for this identity");
        let d = SimDisk::new(DiskModel {
            page_size: 16,
            positioning_ratio: 4.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        });
        let f = d.create();
        d.append(f, &[7u8; 32]);
        let d = d.with_faults(plan, RetryPolicy::default());
        let mut out = [0u8; 32];
        d.try_read(f, 0, &mut out).expect("re-read is clean");
        assert_eq!(out, [7u8; 32]);
        assert!(d.stats().read_retries >= 1);
    }

    #[test]
    fn fault_totals_are_deterministic_across_interleavings() {
        // Two forks hammer the same identities concurrently; the merged
        // totals must match a single-handle run of the same multiset.
        let plan = FaultPlan::recoverable(1234);
        let run = |threads: usize| -> IoStats {
            let d = disk_with(plan, RetryPolicy::default());
            let files: Vec<FileId> = (0..threads).map(|_| d.create()).collect();
            let handles: Vec<std::thread::JoinHandle<Vec<IoStats>>> = files
                .iter()
                .map(|&f| {
                    let fork = d.fork_counters();
                    std::thread::spawn(move || {
                        for i in 0..50u64 {
                            fork.try_append(f, &[i as u8; 24]).unwrap();
                        }
                        let mut out = vec![0u8; 24];
                        for i in 0..50u64 {
                            fork.try_read(f, i * 24, &mut out).unwrap();
                        }
                        fork.channel_stats()
                    })
                })
                .collect();
            for h in handles {
                d.add_channel_stats(&h.join().unwrap());
            }
            d.stats()
        };
        // Same multiset of identities issued once per file: totals scale
        // linearly with the file count and are identical across runs.
        let a = run(4);
        let b = run(4);
        assert_eq!(a, b);
        assert!(a.faults_injected > 0, "plan should inject something: {a:?}");
    }

    #[test]
    fn backoff_units_flow_into_simulated_seconds() {
        let plan = always_fail_once();
        let d = disk_with(plan, RetryPolicy::default());
        let f = d.create();
        d.try_append(f, &[0u8; 16]).unwrap();
        let s = d.stats();
        let m = d.model();
        let expected = m.positioning_ratio * s.write_requests as f64
            + s.pages_written as f64
            + s.backoff_units as f64;
        assert!((m.units(&s) - expected).abs() < 1e-12);
        assert!(s.backoff_units > 0);
    }

    #[test]
    fn scratch_disk_inherits_plan_with_fresh_state() {
        let plan = always_fail_once();
        let d = disk_with(plan, RetryPolicy::default());
        let scratch = d.scratch_disk();
        assert_eq!(scratch.fault_plan(), Some(plan));
        let f = scratch.create();
        scratch.try_append(f, &[1u8; 16]).unwrap();
        assert!(scratch.stats().faults_injected > 0);
        assert_eq!(d.stats(), IoStats::default(), "scratch meter is private");
    }

    #[test]
    fn persistent_corruption_surfaces_immediately_without_backoff() {
        // Every (tag, page) sector is bad: the first read of a tagged file
        // must fail PersistentCorruption after exactly one charged attempt —
        // no retries, no simulated backoff wasted on an incurable fault.
        let plan = FaultPlan::none(3).with_persistent_rate(1.0);
        let d = disk_with(plan, RetryPolicy::default());
        let f = d.create_on(0);
        d.try_append(f, &[9u8; 48]).expect("writes are unaffected");
        let mut out = [0u8; 48];
        let e = d.try_read(f, 0, &mut out).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::PersistentCorruption);
        assert!(e.kind.is_persistent() && !e.kind.is_transient());
        assert_eq!(e.attempts, 1);
        let s = d.stats();
        assert_eq!(s.read_requests, 1, "one charged attempt");
        assert_eq!(s.read_retries, 0);
        assert_eq!(s.backoff_units, 0);
        assert_eq!(s.faults_injected, 1);
        // Re-reads fail identically: the damage never goes away.
        let e2 = d.try_read(f, 0, &mut out).unwrap_err();
        assert_eq!(e2.kind, IoErrorKind::PersistentCorruption);
    }

    #[test]
    fn untagged_and_spare_files_are_exempt_from_bad_sectors() {
        let plan = FaultPlan::none(3).with_persistent_rate(1.0);
        let d = disk_with(plan, RetryPolicy::default());
        // Untagged: the protected system volume.
        let sys = d.create();
        d.try_append(sys, &[1u8; 32]).unwrap();
        let mut out = [0u8; 32];
        d.try_read(sys, 0, &mut out).expect("untagged files never rot");
        // Spare: a remapped replacement sector on the same channel.
        let spare = d.create_spare_on(5);
        assert!(d.is_spare(spare));
        assert_eq!(d.file_channel(spare), Some(5));
        d.try_append(spare, &[2u8; 32]).unwrap();
        d.try_read(spare, 0, &mut out).expect("spares never rot");
    }

    #[test]
    fn disk_full_surfaces_enospc_and_delete_frees_space() {
        // page_size 16, budget 4 pages.
        let plan = FaultPlan::none(7).with_disk_budget(4);
        let d = disk_with(plan, RetryPolicy::default());
        let f = d.create_on(0);
        d.try_append(f, &[1u8; 64]).expect("fits exactly");
        assert_eq!(d.pages_in_use(), 4);
        let before = d.stats();
        let e = d.try_append(f, &[2u8; 1]).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::DiskFull);
        assert_eq!(e.attempts, 1);
        let s = d.stats();
        // Nothing was transferred: only the fault counter moved.
        assert_eq!(s.write_requests, before.write_requests);
        assert_eq!(s.pages_written, before.pages_written);
        assert_eq!(s.backoff_units, before.backoff_units);
        assert_eq!(s.faults_injected, before.faults_injected + 1);
        assert_eq!(d.len(f), 64, "failed append persisted nothing");
        // Freeing space makes writes succeed again.
        d.delete(f);
        assert_eq!(d.pages_in_use(), 0);
        let g = d.create_on(1);
        d.try_append(g, &[3u8; 16]).expect("space was freed");
        // Filling a partial page costs no new pages and is always allowed.
        let h = d.create_on(2);
        d.try_append(h, &[4u8; 40]).unwrap(); // 3 pages, 4 total in use
        d.try_append(h, &[5u8; 8]).expect("stays within the last page");
    }

    #[test]
    fn degraded_channel_stretches_clock_without_touching_counters() {
        let run = |plan: Option<FaultPlan>| -> (IoStats, f64, f64) {
            let mut d = SimDisk::new(DiskModel {
                page_size: 16,
                positioning_ratio: 4.0,
                transfer_secs_per_page: 1.0,
                cpu_slowdown: 1.0,
                channels: 2,
                degraded_channel: None,
            });
            if let Some(p) = plan {
                d = d.with_faults(p, RetryPolicy::default());
            }
            let a = d.create_on(0);
            let b = d.create_on(1);
            d.append(a, &[0u8; 32]);
            d.append(b, &[0u8; 32]);
            let m = d.model();
            let buckets = d.channel_stats();
            let par = m.parallel_io_seconds(&buckets[0], &buckets[1..]);
            (d.stats(), d.io_seconds(), par)
        };
        let (clean, clean_serial, clean_par) = run(None);
        let plan = FaultPlan::none(1).with_degraded_channel(0, 4.0);
        let (slow, slow_serial, slow_par) = run(Some(plan));
        // Counters are bit-identical; only the clock changed.
        assert_eq!(clean, slow);
        assert!(slow_serial > clean_serial, "{slow_serial} vs {clean_serial}");
        assert!(slow_par > clean_par);
        // Channel 0: one request of 2 pages = PT + 2 = 6 units, ×4 = 24.
        // Channel 1 healthy: 6 units. Serial = 24 + 6 = 30; clean = 12.
        assert!((slow_serial - 30.0).abs() < 1e-12, "{slow_serial}");
        assert!((clean_serial - 12.0).abs() < 1e-12, "{clean_serial}");
        // The degraded channel dominates the parallel clock.
        assert!((slow_par - 24.0).abs() < 1e-12, "{slow_par}");
        // A factor on a channel nothing touches changes nothing.
        let idle = FaultPlan::none(1).with_degraded_channel(1, 100.0);
        let m = DiskModel {
            channels: 2,
            degraded_channel: idle.degraded_channel,
            ..DiskModel::default()
        };
        assert_eq!(m.channel_factor(0), 1.0);
        assert_eq!(m.channel_factor(1), 100.0);
    }

    #[test]
    fn export_restore_round_trips_spare_flags() {
        let d = SimDisk::with_default_model();
        let a = d.create_spare_on(2);
        let b = d.create_on(2);
        d.append(a, b"spare");
        d.append(b, b"plain");
        let snap = d.export_files();
        let e = SimDisk::with_default_model();
        e.restore_files(&snap).unwrap();
        assert!(e.is_spare(a));
        assert!(!e.is_spare(b));
        assert_eq!(e.file_channel(a), Some(2));
        let mut out = vec![0u8; 5];
        e.try_read(a, 0, &mut out).unwrap();
        assert_eq!(&out, b"spare");
    }

    #[test]
    fn fault_free_disk_keeps_retry_counters_zero() {
        let d = SimDisk::with_default_model();
        let f = d.create();
        d.append(f, &[0u8; 1024]);
        let mut out = [0u8; 1024];
        d.read(f, 0, &mut out);
        let s = d.stats();
        assert_eq!(s.faults_injected, 0);
        assert_eq!(s.read_retries, 0);
        assert_eq!(s.write_retries, 0);
        assert_eq!(s.backoff_units, 0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod block_tests {
    use super::*;
    use crate::checksum::fnv1a;
    use proptest::prelude::*;

    fn disk(page_size: usize) -> SimDisk {
        SimDisk::new(DiskModel {
            page_size,
            ..DiskModel::default()
        })
    }

    fn pattern(n: usize, salt: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + salt) % 251) as u8).collect()
    }

    /// One thread's requests on its own file: appends of 1 byte to three
    /// blocks, each read back at once, then the whole file.
    fn busy_file(d: &SimDisk, f: FileId, salt: usize) -> Vec<u8> {
        for i in 0..120 {
            let at = d.len(f);
            let bytes = pattern(1 + i * 1663 % (3 * BLOCK_BYTES), salt + i);
            d.append(f, &bytes);
            let mut back = vec![0; bytes.len()];
            d.read(f, at, &mut back);
            assert_eq!(back, bytes);
        }
        let mut all = vec![0; d.len(f) as usize];
        d.read(f, 0, &mut all);
        all
    }

    /// Two threads append to and read their own files on one disk at once,
    /// one through the disk and one through a fork: the files hold what the
    /// same requests issued in turn wrote, and the two meters sum to the
    /// serial one, bucket by bucket.
    #[test]
    fn two_threads_on_their_own_files_match_the_requests_in_turn() {
        let model = DiskModel { page_size: 1000, channels: 2, ..DiskModel::default() };
        let serial = SimDisk::new(model);
        let want = [serial.create_on(0), serial.create_on(1)].map(|f| busy_file(&serial, f, f.0 as usize));
        let d = SimDisk::new(model);
        let (f0, f1) = (d.create_on(0), d.create_on(1));
        let fork = d.fork_counters();
        let got = std::thread::scope(|scope| {
            let other = scope.spawn(|| busy_file(&fork, f1, 1));
            [busy_file(&d, f0, 0), other.join().unwrap()]
        });
        assert!(got == want, "the files differ from the serial run's");
        assert_ne!(fork.stats(), IoStats::default());
        d.add_channel_stats(&fork.channel_stats());
        assert_eq!(d.channel_stats(), serial.channel_stats());
        assert_eq!(d.export_files(), serial.export_files());
    }

    /// Under a disk budget, two threads appending to their own files (one
    /// through a fork) never take the store past it while a third watches:
    /// a budgeted append checks and writes in one step.
    #[test]
    fn concurrent_appends_never_overrun_the_disk_budget() {
        let budget = 400;
        let d = disk(64).with_faults(FaultPlan::none(3).with_disk_budget(budget), RetryPolicy::default());
        let fork = d.fork_counters();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let fill = |d: &SimDisk, salt: usize| {
            let f = d.create();
            let mut i = 0;
            while d.try_append(f, &pattern(1 + (i * 37 + salt) % 200, i)).is_ok() {
                assert!(d.pages_in_use() <= budget);
                i += 1;
            }
            done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            scope.spawn(|| fill(&d, 0));
            scope.spawn(|| fill(&fork, 1));
            while done.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                assert!(d.pages_in_use() <= budget);
            }
        });
        // Each thread stopped at an append of at most four pages that did
        // not fit.
        assert!((budget - 3..=budget).contains(&d.pages_in_use()), "{}", d.pages_in_use());
    }

    #[test]
    fn recycled_blocks_never_show_their_old_bytes() {
        let d = disk(8192);
        let old = d.create();
        d.append(old, &vec![0xFF; 4 * BLOCK_BYTES + 100]);
        d.delete(old);
        let f = d.create();
        d.append(f, b"0123456789");
        let mut want = b"SJDK".to_vec();
        want.extend_from_slice(&3u32.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&[0, 1, 0, 0]); // the hole; live, untagged, not spare
        want.extend_from_slice(&10u64.to_le_bytes());
        want.extend_from_slice(b"0123456789");
        assert_eq!(d.export_files(), want);
        let mut out = [0u8; 11];
        assert_eq!(d.try_read(f, 0, &mut out).unwrap_err().kind, IoErrorKind::OutOfBounds);
        assert_eq!(d.try_read(f, 10, &mut out[..1]).unwrap_err().kind, IoErrorKind::OutOfBounds);
    }

    #[test]
    fn a_snapshot_claiming_u32_max_files_is_refused_without_reserving_them() {
        let mut snap = b"SJDK".to_vec();
        snap.extend_from_slice(&3u32.to_le_bytes());
        snap.extend_from_slice(&u32::MAX.to_le_bytes());
        let d = SimDisk::with_default_model();
        assert_eq!(d.restore_files(&snap).unwrap_err().kind, IoErrorKind::Unsupported);
        snap.extend_from_slice(&[0, 0, 0]); // three holes, then nothing
        assert_eq!(d.restore_files(&snap).unwrap_err().kind, IoErrorKind::Unsupported);
    }

    /// A file's first block holds its first append rounded up to whole
    /// pages and doubles from there, so a small file costs about its
    /// length; blocks after the first are whole.
    #[test]
    fn a_small_file_holds_about_its_length() {
        let d = disk(8192);
        let manifest = d.create();
        d.append(manifest, b"manifest v1");
        let big = d.create();
        for _ in 0..9 {
            d.append(big, &[7; 8192]);
        }
        let g = read(&d.files);
        let caps = |f: FileId| -> Vec<usize> {
            let file = lock(slot(&g, f).unwrap());
            file.blocks.iter().map(Vec::capacity).collect()
        };
        assert_eq!(caps(manifest), [8192]);
        assert_eq!(caps(big), [BLOCK_BYTES, BLOCK_BYTES]);
    }

    /// The `SJDK` v3 bytes of a fixed scenario (tags, a spare, a hole, an
    /// empty file, a file over three blocks, one truncated past a block
    /// boundary, partial last pages), pinned to what the single-buffer
    /// file layout wrote.
    #[test]
    fn export_bytes_are_pinned() {
        let d = SimDisk::with_default_model();
        let manifest = d.create();
        d.append(manifest, b"manifest v1");
        let level = d.create_on(3);
        d.append(level, &pattern(70_000, 1));
        d.append(level, &pattern(80_000, 2));
        let hole = d.create_on(4);
        d.append(hole, &pattern(20_000, 3));
        d.delete(hole);
        let spare = d.create_spare_on(5);
        d.append(spare, &pattern(9_000, 4));
        let _empty = d.create_on(7);
        let cut = d.create_on(2);
        d.append(cut, &pattern(100_000, 5));
        d.try_truncate(cut, 65_537).unwrap();
        let snap = d.export_files();
        assert_eq!((snap.len(), fnv1a(&snap)), (224_648, 0xbd49_da06_d53d_5d80));
    }

    /// The model: each file's bytes and tag, `None` once deleted.
    type Model = Vec<Option<(Vec<u8>, Option<u64>)>>;

    fn snapshot_of(model: &Model) -> Vec<u8> {
        let mut out = b"SJDK".to_vec();
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&(model.len() as u32).to_le_bytes());
        for slot in model {
            let Some((bytes, tag)) = slot else {
                out.push(0);
                continue;
            };
            out.push(1);
            match tag {
                None => out.push(0),
                Some(t) => {
                    out.push(1);
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
            out.push(0);
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random create/append/read/truncate/delete/export sequences agree
        /// with a `Vec<u8>` per file: bytes, lengths, pages in use, typed
        /// errors and the snapshot. Page sizes 24 and 1000 do not divide
        /// 64 KiB; appends of up to 40 KB and reads aimed at block edges
        /// cross block boundaries.
        #[test]
        fn prop_disk_matches_a_vec_per_file(
            page in 0usize..4,
            ops in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..60),
        ) {
            let ps = [16, 24, 1000, 8192][page];
            let bs = block_size(ps);
            let d = disk(ps);
            let mut model: Model = Vec::new();
            let mut out = Vec::new();
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                if model.is_empty() || op == 0 {
                    let tag = (a % 3 != 0).then_some(a % 5);
                    let f = match tag {
                        None => d.create(),
                        Some(t) => d.create_on(t),
                    };
                    prop_assert_eq!(f.raw() as usize, model.len());
                    model.push(Some((Vec::new(), tag)));
                    continue;
                }
                let i = (a % model.len() as u64) as usize;
                let f = FileId::from_raw(i as u32);
                let len = model[i].as_ref().map_or(0, |(v, _)| v.len());
                let (a, b) = ((a >> 8) as usize, b as usize);
                match op {
                    // Append: small, large, or up to just past a block edge.
                    1..=3 => {
                        let n = match op {
                            1 => a % 50,
                            2 => a % 40_000,
                            _ => bs - len % bs + a % 100,
                        };
                        let bytes = pattern(n, b);
                        let got = d.try_append(f, &bytes);
                        match &mut model[i] {
                            Some((v, _)) => {
                                prop_assert!(got.is_ok(), "step {}: {:?}", step, got);
                                v.extend_from_slice(&bytes);
                            }
                            None if n == 0 => prop_assert!(got.is_ok()),
                            None => prop_assert_eq!(got.unwrap_err().kind, IoErrorKind::FileDeleted),
                        }
                    }
                    // Read: anywhere (possibly one byte past the end), or
                    // across a block edge.
                    4 | 5 => {
                        let (offset, n) = if op == 4 || len <= bs {
                            let offset = a % (len + 2);
                            (offset, b % (len + 2 - offset))
                        } else {
                            let edge = bs * (1 + a % (len / bs));
                            let offset = edge - 1 - b % edge.min(3 * ps);
                            (offset, 1 + b % (len - offset))
                        };
                        out.resize(n, 0);
                        let got = d.try_read(f, offset as u64, &mut out);
                        match &model[i] {
                            _ if n == 0 => prop_assert!(got.is_ok()),
                            None => prop_assert_eq!(got.unwrap_err().kind, IoErrorKind::FileDeleted),
                            Some(_) if offset + n > len => {
                                prop_assert_eq!(got.unwrap_err().kind, IoErrorKind::OutOfBounds)
                            }
                            Some((v, _)) => {
                                prop_assert!(got.is_ok(), "step {}: {:?}", step, got);
                                prop_assert!(out == v[offset..offset + n], "step {}: bytes differ", step);
                            }
                        }
                    }
                    6 => {
                        let to = a % (len + 100);
                        let got = d.try_truncate(f, to as u64);
                        match &mut model[i] {
                            Some((v, _)) => {
                                prop_assert!(got.is_ok());
                                v.truncate(to);
                            }
                            None => prop_assert_eq!(got.unwrap_err().kind, IoErrorKind::FileDeleted),
                        }
                    }
                    _ if b % 4 == 0 => {
                        d.delete(f);
                        model[i] = None;
                    }
                    _ => prop_assert!(d.export_files() == snapshot_of(&model), "step {}: snapshot", step),
                }
                let live = model.iter().flatten();
                let pages: u64 = live.map(|(v, _)| v.len().div_ceil(ps) as u64).sum();
                prop_assert_eq!(d.pages_in_use(), pages);
                let want = model[i].as_ref().map(|(v, _)| v.len() as u64);
                prop_assert_eq!(d.try_len(f).ok(), want);
            }
            let snap = d.export_files();
            prop_assert!(snap == snapshot_of(&model), "final snapshot");
            let restored = disk(ps);
            restored.restore_files(&snap).unwrap();
            prop_assert_eq!(restored.pages_in_use(), d.pages_in_use());
            prop_assert!(restored.export_files() == snap, "restored snapshot");
        }
    }
}
