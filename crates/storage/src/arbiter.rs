//! Global memory arbitration for concurrent joins.
//!
//! Every join in this workspace sizes itself from a memory budget `M`
//! (PBSM's partition count, SHJ's bucket count, the sort algorithms' run
//! length all follow from it). A one-shot process owns the whole machine, so
//! `M` is a config knob; a *join service* runs many joins at once and must
//! divide one physical budget between them without over-committing and
//! without thrashing. The [`MemoryArbiter`] is that division: in-flight
//! joins hold byte-denominated [`MemoryLease`]s carved out of a single
//! budget, joins whose grant does not fit yet wait in a bounded FIFO queue,
//! and joins that would overflow the queue are *shed* with a typed
//! [`AdmissionError::Overloaded`] carrying a retry hint — never an unbounded
//! queue, never an over-commit.
//!
//! Design rules:
//!
//! * **Grants are all-or-nothing.** A lease is for exactly the bytes asked
//!   for; the arbiter never hands back a smaller grant. Shrinking a join's
//!   memory mid-admission would change its partition count and therefore its
//!   duplicate accounting, and the service's headline invariant is that a
//!   co-tenant run is bit-identical to a solo run of the same request.
//! * **FIFO, head-of-line.** Waiters are granted strictly in arrival order.
//!   A large request at the head blocks smaller ones behind it — deliberate:
//!   skipping ahead would starve large joins forever on a busy server.
//! * **The ledger is asserted, not trusted.** Every mutation of the lease
//!   ledger re-checks `leased <= budget` (and release underflow) with a real
//!   `assert!`, in release builds too. An over-commit here means joins
//!   sharing buffer memory they each believe they own exclusively — the one
//!   bug class a memory arbiter exists to rule out, so it fails loudly.
//! * **Leases release themselves.** [`MemoryLease`] returns its bytes on
//!   `Drop`, so a panicking or crashing join cannot leak budget: whichever
//!   thread owns the lease unwinds, the lease drops, the waiters wake.
//!
//! Wall-clock time appears only in the *advisory* retry hint (an EWMA of
//! observed lease hold times); admission order and grant decisions are pure
//! functions of the request sequence, so a single-threaded caller sees fully
//! deterministic behaviour.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use parallel::CancelToken;

use crate::lock;

/// Why a lease request was refused. All variants are *typed shedding*: the
/// caller is expected to surface them to its client rather than retry
/// blindly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The admission queue is full: the server is overloaded and this
    /// request was shed. `retry_after` is an advisory wait in (real)
    /// seconds, estimated from the observed lease hold times and the demand
    /// ahead of this request.
    Overloaded { retry_after: f64 },
    /// The request can *never* be admitted: it wants more bytes than the
    /// whole budget. Queueing it would block the queue head forever.
    TooLarge { requested: u64, budget: u64 },
    /// The caller's cancel token tripped while the request was queued.
    Cancelled,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overloaded { retry_after } => write!(
                f,
                "admission queue full (overloaded); retry after {retry_after:.3}s"
            ),
            AdmissionError::TooLarge { requested, budget } => write!(
                f,
                "request of {requested} bytes exceeds the whole memory budget ({budget} bytes)"
            ),
            AdmissionError::Cancelled => write!(f, "admission wait cancelled"),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug)]
struct Waiter {
    ticket: u64,
    bytes: u64,
}

#[derive(Debug)]
struct ArbState {
    /// Bytes currently leased out. Invariant: `leased <= budget`, asserted
    /// on every mutation.
    leased: u64,
    /// Live leases (for observability and drain checks).
    active: u64,
    /// FIFO admission queue; `queue[0]` is the only candidate for the next
    /// grant.
    queue: VecDeque<Waiter>,
    next_ticket: u64,
    /// EWMA of lease hold times in seconds, for the `retry_after` hint.
    avg_hold_secs: f64,
    // Cumulative counters for the service's metrics endpoint.
    admitted: u64,
    rejected_overloaded: u64,
    rejected_too_large: u64,
    peak_leased: u64,
}

#[derive(Debug)]
struct ArbInner {
    budget: u64,
    max_queue: usize,
    state: Mutex<ArbState>,
    cv: Condvar,
}

impl ArbInner {
    /// The one place the ledger invariant lives. Called after every
    /// mutation; panics (release builds included) on over-commit.
    fn check(&self, s: &ArbState) {
        assert!(
            s.leased <= self.budget,
            "memory arbiter over-committed: {} bytes leased of a {} byte budget",
            s.leased,
            self.budget
        );
    }

    fn release(&self, bytes: u64, held_secs: f64) {
        let mut s = lock(&self.state);
        assert!(
            s.leased >= bytes && s.active >= 1,
            "memory arbiter release underflow: releasing {} of {} leased bytes ({} active)",
            bytes,
            s.leased,
            s.active
        );
        s.leased -= bytes;
        s.active -= 1;
        // EWMA with a 1/4 step: responsive to load shifts, stable enough to
        // make the retry hint meaningful.
        s.avg_hold_secs = if s.avg_hold_secs == 0.0 {
            held_secs
        } else {
            0.75 * s.avg_hold_secs + 0.25 * held_secs
        };
        self.check(&s);
        drop(s);
        self.cv.notify_all();
    }
}

/// A byte-denominated grant out of a [`MemoryArbiter`]'s budget. Returned to
/// the budget on drop — including panic unwinds, which is what makes a
/// crashing join unable to leak memory.
#[derive(Debug)]
pub struct MemoryLease {
    inner: Arc<ArbInner>,
    bytes: u64,
    granted_at: Instant,
}

impl MemoryLease {
    /// The granted size (always exactly what was requested).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemoryLease {
    fn drop(&mut self) {
        self.inner
            .release(self.bytes, self.granted_at.elapsed().as_secs_f64());
    }
}

/// Point-in-time view of the arbiter's ledger, for metrics endpoints and
/// drain checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbiterSnapshot {
    pub budget_bytes: u64,
    pub leased_bytes: u64,
    pub active_leases: u64,
    pub queued: u64,
    pub admitted: u64,
    pub rejected_overloaded: u64,
    pub rejected_too_large: u64,
    pub peak_leased_bytes: u64,
}

/// The global memory arbiter: one budget, many concurrent joins. Cloning
/// shares the budget (the clone is a handle, not a second budget).
#[derive(Debug, Clone)]
pub struct MemoryArbiter {
    inner: Arc<ArbInner>,
}

impl MemoryArbiter {
    /// An arbiter over `budget` bytes with a bounded admission queue of
    /// `max_queue` waiting requests (0 = shed immediately when the budget
    /// does not fit the request right now).
    pub fn new(budget: u64, max_queue: usize) -> MemoryArbiter {
        MemoryArbiter {
            inner: Arc::new(ArbInner {
                budget: budget.max(1),
                max_queue,
                state: Mutex::new(ArbState {
                    leased: 0,
                    active: 0,
                    queue: VecDeque::new(),
                    next_ticket: 0,
                    avg_hold_secs: 0.0,
                    admitted: 0,
                    rejected_overloaded: 0,
                    rejected_too_large: 0,
                    peak_leased: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget
    }

    /// Advisory retry hint for a shed request: the demand ahead of it,
    /// expressed in "budget drains" and scaled by the observed average hold
    /// time. Never zero, so a client honouring it always backs off.
    fn retry_after(&self, s: &ArbState, requested: u64) -> f64 {
        let queued_demand: u64 = s.queue.iter().map(|w| w.bytes).sum();
        let demand = s.leased + queued_demand + requested;
        let drains = (demand as f64 / self.inner.budget as f64).ceil();
        let hold = if s.avg_hold_secs > 0.0 {
            s.avg_hold_secs
        } else {
            0.05
        };
        (drains * hold).max(0.001)
    }

    /// Non-blocking admission: a lease if the request fits *right now* (and
    /// no earlier request is queued — FIFO order is never violated), `None`
    /// if it would have to wait, an error if it must be shed.
    pub fn try_lease(&self, bytes: u64) -> Result<Option<MemoryLease>, AdmissionError> {
        let bytes = bytes.max(1);
        let mut s = lock(&self.inner.state);
        if bytes > self.inner.budget {
            s.rejected_too_large += 1;
            return Err(AdmissionError::TooLarge {
                requested: bytes,
                budget: self.inner.budget,
            });
        }
        if s.queue.is_empty() && s.leased + bytes <= self.inner.budget {
            return Ok(Some(self.grant(&mut s, bytes)));
        }
        Ok(None)
    }

    /// Blocking admission with shedding: joins the FIFO queue (bounded by
    /// `max_queue`) and waits until the grant fits. A full queue sheds the
    /// request with [`AdmissionError::Overloaded`] instead of queueing it;
    /// tripping `cancel` while queued abandons the wait.
    pub fn lease(
        &self,
        bytes: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<MemoryLease, AdmissionError> {
        let bytes = bytes.max(1);
        let mut s = lock(&self.inner.state);
        if bytes > self.inner.budget {
            s.rejected_too_large += 1;
            return Err(AdmissionError::TooLarge {
                requested: bytes,
                budget: self.inner.budget,
            });
        }
        // Fast path: nothing ahead of us and the bytes are free.
        if s.queue.is_empty() && s.leased + bytes <= self.inner.budget {
            return Ok(self.grant(&mut s, bytes));
        }
        // Admission control: bounded queue depth, typed shedding beyond it.
        if s.queue.len() >= self.inner.max_queue {
            s.rejected_overloaded += 1;
            let retry_after = self.retry_after(&s, bytes);
            return Err(AdmissionError::Overloaded { retry_after });
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(Waiter { ticket, bytes });
        loop {
            // Granted strictly in FIFO order: only the queue head may take
            // bytes, so a release can never leapfrog a waiter.
            let is_head = s.queue.front().is_some_and(|w| w.ticket == ticket);
            if is_head && s.leased + bytes <= self.inner.budget {
                s.queue.pop_front();
                let lease = self.grant(&mut s, bytes);
                drop(s);
                // A grant may have unblocked the new head too (we were in
                // front of it); wake the pack so it re-checks.
                self.inner.cv.notify_all();
                return Ok(lease);
            }
            if cancel.is_some_and(|t| t.is_cancelled()) {
                s.queue.retain(|w| w.ticket != ticket);
                drop(s);
                self.inner.cv.notify_all();
                return Err(AdmissionError::Cancelled);
            }
            // Short timed waits so a tripped cancel token is noticed even
            // when no lease is released for a while.
            let (guard, _timeout) = self
                .inner
                .cv
                .wait_timeout(s, std::time::Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }

    fn grant(&self, s: &mut ArbState, bytes: u64) -> MemoryLease {
        s.leased += bytes;
        s.active += 1;
        s.admitted += 1;
        s.peak_leased = s.peak_leased.max(s.leased);
        self.inner.check(s);
        MemoryLease {
            inner: Arc::clone(&self.inner),
            bytes,
            granted_at: Instant::now(),
        }
    }

    /// Current ledger state (consistent snapshot under the arbiter lock).
    pub fn snapshot(&self) -> ArbiterSnapshot {
        let s = lock(&self.inner.state);
        ArbiterSnapshot {
            budget_bytes: self.inner.budget,
            leased_bytes: s.leased,
            active_leases: s.active,
            queued: s.queue.len() as u64,
            admitted: s.admitted,
            rejected_overloaded: s.rejected_overloaded,
            rejected_too_large: s.rejected_too_large,
            peak_leased_bytes: s.peak_leased,
        }
    }

    /// `true` once every lease has been returned and the queue is empty —
    /// the drain condition a graceful shutdown waits for.
    pub fn is_idle(&self) -> bool {
        let snap = self.snapshot();
        snap.leased_bytes == 0 && snap.active_leases == 0 && snap.queued == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn grants_within_budget_and_releases_on_drop() {
        let arb = MemoryArbiter::new(100, 4);
        let a = arb.lease(40, None).unwrap();
        let b = arb.lease(60, None).unwrap();
        assert_eq!(arb.snapshot().leased_bytes, 100);
        assert_eq!(arb.snapshot().active_leases, 2);
        drop(a);
        assert_eq!(arb.snapshot().leased_bytes, 60);
        drop(b);
        assert!(arb.is_idle());
        assert_eq!(arb.snapshot().peak_leased_bytes, 100);
    }

    #[test]
    fn too_large_is_refused_up_front() {
        let arb = MemoryArbiter::new(100, 4);
        let err = arb.lease(101, None).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::TooLarge {
                requested: 101,
                budget: 100
            }
        );
        assert_eq!(arb.snapshot().rejected_too_large, 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let arb = MemoryArbiter::new(100, 0);
        let _hold = arb.lease(80, None).unwrap();
        // 40 does not fit and the queue depth is zero: shed immediately.
        match arb.lease(40, None) {
            Err(AdmissionError::Overloaded { retry_after }) => assert!(retry_after > 0.0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(arb.snapshot().rejected_overloaded, 1);
    }

    #[test]
    fn try_lease_never_blocks_and_respects_fifo() {
        let arb = MemoryArbiter::new(100, 4);
        let hold = arb.lease(90, None).unwrap();
        assert!(arb.try_lease(20).unwrap().is_none(), "must not fit yet");
        // Queue a blocking waiter on another thread, then release: the
        // waiter (FIFO head) must win over a later try_lease.
        let arb2 = arb.clone();
        let waiter = std::thread::spawn(move || arb2.lease(50, None).unwrap());
        while arb.snapshot().queued == 0 {
            std::thread::yield_now();
        }
        drop(hold);
        let lease = waiter.join().unwrap();
        assert_eq!(lease.bytes(), 50);
        drop(lease);
        assert!(arb.is_idle());
    }

    #[test]
    fn queued_request_is_granted_after_release() {
        let arb = MemoryArbiter::new(100, 4);
        let hold = arb.lease(100, None).unwrap();
        let arb2 = arb.clone();
        let t = std::thread::spawn(move || {
            let lease = arb2.lease(100, None).unwrap();
            lease.bytes()
        });
        while arb.snapshot().queued == 0 {
            std::thread::yield_now();
        }
        drop(hold);
        assert_eq!(t.join().unwrap(), 100);
        assert!(arb.is_idle());
    }

    #[test]
    fn cancel_token_abandons_a_queued_wait() {
        let arb = MemoryArbiter::new(100, 4);
        let _hold = arb.lease(100, None).unwrap();
        let token = CancelToken::new();
        let arb2 = arb.clone();
        let t2 = token.clone();
        let t = std::thread::spawn(move || arb2.lease(50, Some(&t2)));
        while arb.snapshot().queued == 0 {
            std::thread::yield_now();
        }
        token.cancel();
        assert_eq!(t.join().unwrap().unwrap_err(), AdmissionError::Cancelled);
        assert_eq!(arb.snapshot().queued, 0, "cancelled waiter must dequeue");
    }

    #[test]
    fn panicking_holder_still_releases_its_lease() {
        let arb = MemoryArbiter::new(100, 4);
        let arb2 = arb.clone();
        let t = std::thread::spawn(move || {
            let _lease = arb2.lease(70, None).unwrap();
            panic!("join worker died");
        });
        assert!(t.join().is_err());
        assert!(arb.is_idle(), "unwind must return the lease");
    }

    #[test]
    fn concurrent_storm_never_overcommits() {
        // The ledger assert runs on every mutation; this hammers it from
        // many threads and additionally tracks an external high-water mark.
        let arb = MemoryArbiter::new(1000, 64);
        let peak = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let arb = arb.clone();
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                for j in 0..50u64 {
                    let bytes = 1 + (i * 131 + j * 17) % 400;
                    let lease = arb.lease(bytes, None).unwrap();
                    let snap = arb.snapshot();
                    assert!(snap.leased_bytes <= snap.budget_bytes);
                    peak.fetch_max(snap.leased_bytes, Ordering::Relaxed);
                    drop(lease);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(arb.is_idle());
        assert!(peak.load(Ordering::Relaxed) <= 1000);
        assert_eq!(arb.snapshot().admitted, 8 * 50);
    }

    #[test]
    fn retry_after_survives_zero_length_holds() {
        // Pathological hold pattern: a burst of leases dropped the instant
        // they are granted drives the hold EWMA toward zero. The hint must
        // keep its floors — `hold` falls back to 0.05 s while the average
        // is exactly zero, and the product is clamped to >= 1 ms — so a
        // client honouring the hint always backs off a nonzero amount.
        let arb = MemoryArbiter::new(100, 0);
        for _ in 0..64 {
            drop(arb.lease(10, None).unwrap());
        }
        let _hold = arb.lease(100, None).unwrap();
        for _ in 0..8 {
            match arb.lease(50, None) {
                Err(AdmissionError::Overloaded { retry_after }) => {
                    assert!(
                        retry_after >= 0.001,
                        "hint collapsed to {retry_after}s after zero-length holds"
                    );
                    assert!(retry_after.is_finite());
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
    }

    #[test]
    fn retry_after_stays_bounded_after_one_pathological_outlier() {
        // Many near-instant holds, then one outlier orders of magnitude
        // longer. The 1/4-step EWMA folds the outlier in instead of
        // replacing the average wholesale, so the advisory hint stays a
        // small multiple of the *blended* hold time and never explodes to
        // the raw outlier scaled by queued demand.
        let arb = MemoryArbiter::new(100, 0);
        for _ in 0..16 {
            drop(arb.lease(10, None).unwrap());
        }
        let outlier = arb.lease(10, None).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        drop(outlier);
        let _hold = arb.lease(100, None).unwrap();
        let retry = match arb.lease(60, None) {
            Err(AdmissionError::Overloaded { retry_after }) => retry_after,
            other => panic!("expected Overloaded, got {other:?}"),
        };
        // demand = 100 held + 60 requested = 2 budget drains; the blended
        // hold is ~0.25 x the outlier, so even with generous host-timing
        // slack the hint stays far below an unblended outlier estimate.
        assert!(retry >= 0.001, "floor lost: {retry}");
        assert!(retry < 2.0, "hint exploded after one outlier: {retry}s");
    }

    #[test]
    fn fifo_order_is_strict_even_when_later_requests_fit() {
        // A small request behind a large queued one must wait its turn:
        // granting it early would starve the large request forever.
        let arb = MemoryArbiter::new(100, 4);
        let hold = arb.lease(60, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let big = {
            let (arb, order) = (arb.clone(), Arc::clone(&order));
            std::thread::spawn(move || {
                let l = arb.lease(100, None).unwrap();
                order.lock().unwrap().push("big");
                l
            })
        };
        while arb.snapshot().queued < 1 {
            std::thread::yield_now();
        }
        let small = {
            let (arb, order) = (arb.clone(), Arc::clone(&order));
            std::thread::spawn(move || {
                // 30 bytes *would* fit beside the 60 held, but "big" is
                // ahead in the queue.
                let l = arb.lease(30, None).unwrap();
                order.lock().unwrap().push("small");
                l
            })
        };
        while arb.snapshot().queued < 2 {
            std::thread::yield_now();
        }
        assert!(order.lock().unwrap().is_empty());
        drop(hold);
        let big = big.join().unwrap();
        drop(big);
        let small = small.join().unwrap();
        drop(small);
        assert_eq!(*order.lock().unwrap(), vec!["big", "small"]);
        assert!(arb.is_idle());
    }
}
