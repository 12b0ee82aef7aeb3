//! A minimal ordered fan-out pool for partition-level join parallelism.
//!
//! PBSM reduces the external join to a sequence of *independent* in-memory
//! joins on pairs of partitions. This crate runs those pairs across worker
//! threads while preserving two properties the rest of the workspace
//! depends on:
//!
//! 1. **Deterministic output order.** Every task is tagged with its index
//!    and the collector re-assembles completions into canonical order
//!    (task 0, 1, 2, …) before handing them to the caller's sink — so the
//!    emitted result stream is byte-identical across thread counts and
//!    scheduling interleavings.
//! 2. **Per-worker state.** Each worker owns private state (forked I/O
//!    counters, its own internal-join instance, a partial stats struct)
//!    created on the worker thread and returned to the caller for a
//!    deterministic merge once all tasks finish.
//!
//! Scheduling is dynamic: a free worker claims the next unclaimed task index
//! from one shared queue, so a straggler partition does not idle the rest of
//! the pool (the work-stealing effect without per-worker deques — there is a
//! single global queue of indices and stealing is the common case). There
//! is one pool body, [`run_ordered_fallible`]; [`run_ordered`] is its
//! plain-task shim.
//!
//! S³J runs its build and sort phases on the pool as two tasks, one per
//! relation. Its synchronized scan does not use the pool: one of its cells
//! holds a couple of records, less work than handing the cell to a worker
//! costs.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// Explicit cooperative cancellation (the output sink stopped reading —
    /// a closed socket or pipe, a `LIMIT` met — the user hit ^C, …).
    Cancelled,
    /// A simulated-time deadline expired. The join layer owns the clock; it
    /// trips the shared token with this cause when the budget runs out.
    Deadline,
}

const TOKEN_LIVE: u8 = 0;
const TOKEN_CANCELLED: u8 = 1;
const TOKEN_DEADLINE: u8 = 2;

struct TokenInner {
    state: AtomicU8,
    /// Deterministic test hook: trip (with `Cancelled`) on the `n`-th
    /// [`CancelToken::check`]. `0` = disabled.
    trip_after: AtomicU64,
    checks: AtomicU64,
}

/// A shared cooperative-cancellation flag, checked at partition granularity.
///
/// Cloning shares the flag. Workers poll [`CancelToken::check`] between
/// partitions; whoever trips the token first (an explicit
/// [`CancelToken::cancel`], a deadline owner calling
/// [`CancelToken::cancel_deadline`], or the deterministic
/// [`CancelToken::cancel_after_checks`] test hook) wins, and the cause is
/// latched — later trips do not overwrite it.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cause", &self.cause())
            .finish()
    }
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(TOKEN_LIVE),
                trip_after: AtomicU64::new(0),
                checks: AtomicU64::new(0),
            }),
        }
    }

    /// Trips the token with [`CancelCause::Cancelled`] (first trip wins).
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_CANCELLED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Trips the token with [`CancelCause::Deadline`] (first trip wins).
    pub fn cancel_deadline(&self) {
        let _ = self.inner.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_DEADLINE,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Arms the deterministic test hook: the `n`-th subsequent
    /// [`CancelToken::check`] (1-based) trips the token with
    /// [`CancelCause::Cancelled`]. Lets tests cancel at an exact,
    /// reproducible point of the partition phase.
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.checks.store(0, Ordering::Release);
        self.inner.trip_after.store(n, Ordering::Release);
    }

    /// Polls the token, counting this call toward
    /// [`CancelToken::cancel_after_checks`]. Returns the latched cause once
    /// tripped.
    pub fn check(&self) -> Option<CancelCause> {
        let armed = self.inner.trip_after.load(Ordering::Acquire);
        if armed > 0 {
            let seen = self.inner.checks.fetch_add(1, Ordering::AcqRel) + 1;
            if seen >= armed {
                self.cancel();
            }
        }
        self.cause()
    }

    /// Non-counting peek at the latched cause.
    pub fn cause(&self) -> Option<CancelCause> {
        match self.inner.state.load(Ordering::Acquire) {
            TOKEN_CANCELLED => Some(CancelCause::Cancelled),
            TOKEN_DEADLINE => Some(CancelCause::Deadline),
            _ => None,
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }
}

/// Number of worker threads the machine supports.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `threads` config knob: `0` means "use all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Runs `n_tasks` independent tasks over `threads` workers, delivering each
/// task's output to `sink` **in canonical task order** on the calling
/// thread, streaming (a completed task is emitted as soon as every earlier
/// task has been emitted — the collector never waits for the whole batch).
///
/// * `init(worker_idx)` builds one worker's private state on its thread.
/// * `task(&mut state, task_idx)` runs one task; tasks are claimed from a
///   shared queue, so assignment to workers is dynamic and non-
///   deterministic — outputs must not depend on which worker ran them.
/// * `sink(task_idx, output)` observes outputs in order 0, 1, 2, ….
///
/// Returns every worker's final state (indexed by worker), for the caller
/// to merge deterministically. Panics in `task` propagate. The one pool,
/// [`run_ordered_fallible`], with nothing to cancel and tasks that cannot
/// fail.
pub fn run_ordered<S, T, FInit, FTask, FSink>(
    threads: usize,
    n_tasks: usize,
    init: FInit,
    task: FTask,
    mut sink: FSink,
) -> Vec<S>
where
    S: Send,
    T: Send,
    FInit: Fn(usize) -> S + Sync,
    FTask: Fn(&mut S, usize) -> T + Sync,
    FSink: FnMut(usize, T),
{
    run_ordered_fallible(
        threads,
        n_tasks,
        0,
        None,
        init,
        |state, i, _| Ok::<T, Infallible>(task(state, i)),
        |i, out| {
            let Ok(out) = out;
            sink(i, out)
        },
    )
    .0
}

/// Scheduling state of [`run_ordered_fallible`]: fresh task indices come
/// from `next`, failed tasks wait in `retries` for any worker to pick up.
struct Requeue {
    next: usize,
    retries: Vec<(usize, u32)>, // (task index, round = prior failures)
    in_flight: usize,
    requeues: u64,
}

/// Scheduler-level counters from one [`run_ordered_fallible`] run, counted
/// by the shared queue itself — independent of whatever the per-worker
/// states accumulate, so callers can cross-check their own accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh task indices claimed (≤ `n_tasks` under cancellation).
    pub tasks_claimed: u64,
    /// Failed tasks pushed back onto the queue for another round.
    pub requeues: u64,
}

/// Decrements `in_flight` and wakes waiters even if the task panicked —
/// without this a panicking task would leave idle workers blocked on the
/// condvar forever.
struct InFlightGuard<'a> {
    queue: &'a Mutex<Requeue>,
    cvar: &'a Condvar,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut q = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        q.in_flight -= 1;
        self.cvar.notify_all();
    }
}

/// Claims the next job: a queued retry (preferred — it is oldest work) or a
/// fresh index. Waits while in-flight tasks might still spawn retries and
/// returns `None` only when nothing can arrive (or the token tripped).
fn claim_job(
    queue: &Mutex<Requeue>,
    cvar: &Condvar,
    n_tasks: usize,
    cancel: Option<&CancelToken>,
) -> Option<(usize, u32)> {
    let mut q = queue.lock().expect("requeue lock");
    loop {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        if let Some(job) = q.retries.pop() {
            q.in_flight += 1;
            return Some(job);
        }
        if q.next < n_tasks {
            let i = q.next;
            q.next += 1;
            q.in_flight += 1;
            return Some((i, 0));
        }
        if q.in_flight == 0 {
            return None;
        }
        q = cvar.wait(q).expect("requeue lock");
    }
}

/// The ordered pool: fallible tasks with bounded requeueing and cooperative
/// cancellation.
///
/// A task that returns `Err` goes back into the shared queue up to
/// `max_requeues` times before its final `Err` is delivered to the sink.
/// Each retry runs on whichever worker claims it (round-robin recovery: a
/// partition whose worker exhausted its I/O retry budget gets a fresh
/// chance, and the storage layer's shared per-identity fault counters have
/// advanced in the meantime, so deterministic transient faults are
/// eventually consumed). The sink observes exactly one final `Result` per
/// task, in canonical order; worker states are returned as in
/// [`run_ordered`].
///
/// * `task(&mut state, task_idx, round)` runs one task; `round = 0` on the
///   first run and `k` on the `k`-th requeue.
///
/// A worker claims a task only when it is free: the next task goes to the
/// first idle worker, the rule PBSM's priced clock replays
/// (`storage::Schedule`), and a long task never holds another behind it.
///
/// Cancellation: each worker polls `cancel` before claiming and stops
/// claiming (fresh indices *and* queued retries) once the token trips.
/// Fresh indices are claimed in order, so the sink observes exactly the
/// contiguous prefix of tasks claimed before the trip — a cancelled run's
/// partial output is a clean prefix of final results, never a gapped
/// subset.
pub fn run_ordered_fallible<S, T, E, FInit, FTask, FSink>(
    threads: usize,
    n_tasks: usize,
    max_requeues: u32,
    cancel: Option<&CancelToken>,
    init: FInit,
    task: FTask,
    mut sink: FSink,
) -> (Vec<S>, PoolStats)
where
    S: Send,
    T: Send,
    E: Send,
    FInit: Fn(usize) -> S + Sync,
    FTask: Fn(&mut S, usize, u32) -> Result<T, E> + Sync,
    FSink: FnMut(usize, Result<T, E>),
{
    let threads = threads.max(1).min(n_tasks.max(1));
    let queue = Mutex::new(Requeue {
        next: 0,
        retries: Vec::new(),
        in_flight: 0,
        requeues: 0,
    });
    let cvar = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, E>)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let tx = tx.clone();
                let queue = &queue;
                let cvar = &cvar;
                let init = &init;
                let task = &task;
                scope.spawn(move || {
                    let mut state = init(w);
                    while let Some((i, round)) = claim_job(queue, cvar, n_tasks, cancel) {
                        // Keeps `in_flight` honest if the task panics.
                        let guard = InFlightGuard { queue, cvar };
                        match task(&mut state, i, round) {
                            Err(e) if round < max_requeues => {
                                let mut q = queue.lock().expect("requeue lock");
                                q.retries.push((i, round + 1));
                                q.requeues += 1;
                                drop(q);
                                drop(e);
                            }
                            final_res => {
                                let _ = tx.send((i, final_res));
                            }
                        }
                        drop(guard); // decrement + notify after requeue push
                    }
                    state
                })
            })
            .collect();
        drop(tx);

        // Canonical-order reassembly: buffer out-of-order completions,
        // flush the contiguous prefix as it forms.
        let mut pending: BTreeMap<usize, Result<T, E>> = BTreeMap::new();
        let mut emit_next = 0usize;
        for (i, out) in rx {
            pending.insert(i, out);
            while let Some(out) = pending.remove(&emit_next) {
                sink(emit_next, out);
                emit_next += 1;
            }
        }

        let states: Vec<S> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
        let q = match queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let stats = PoolStats {
            tasks_claimed: q.next as u64,
            requeues: q.requeues,
        };
        drop(q);
        (states, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_canonical_order() {
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let states = run_ordered(
                threads,
                100,
                |_w| 0usize,
                |count, i| {
                    *count += 1;
                    // Uneven task costs to force out-of-order completion.
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * 3
                },
                |i, out| seen.push((i, out)),
            );
            assert_eq!(seen, (0..100).map(|i| (i, i * 3)).collect::<Vec<_>>());
            assert_eq!(states.iter().sum::<usize>(), 100, "every task ran once");
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let states = run_ordered(4, 0, |_| (), |_, _i: usize| (), |_, _| panic!("no tasks"));
        assert_eq!(states.len(), 1, "pool clamps to one idle worker");
    }

    #[test]
    fn worker_states_are_returned_per_worker() {
        let states = run_ordered(
            3,
            30,
            |w| (w, 0u32),
            |(_, n), _i| {
                *n += 1;
            },
            |_, _| {},
        );
        assert_eq!(states.len(), 3);
        for (w, (id, _)) in states.iter().enumerate() {
            assert_eq!(*id, w);
        }
        assert_eq!(states.iter().map(|(_, n)| n).sum::<u32>(), 30);
    }

    #[test]
    fn thread_knob_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn sink_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        run_ordered(
            4,
            16,
            |_| (),
            |_, i| i,
            |_, _| assert_eq!(std::thread::current().id(), caller),
        );
    }

    #[test]
    fn fallible_pool_requeues_up_to_cap() {
        use std::collections::HashMap;
        use std::sync::Mutex as StdMutex;
        // Task i fails its first `i % 3` runs; with cap 2 every task
        // eventually succeeds and reports the round it succeeded on.
        let attempts: StdMutex<HashMap<usize, u32>> = StdMutex::new(HashMap::new());
        for threads in [1, 4] {
            attempts.lock().unwrap().clear();
            let mut seen = Vec::new();
            let (_, pool) = run_ordered_fallible(
                threads,
                30,
                2,
                None,
                |_| (),
                |_, i, round| {
                    *attempts.lock().unwrap().entry(i).or_insert(0) += 1;
                    if round < (i % 3) as u32 {
                        Err(format!("task {i} round {round}"))
                    } else {
                        Ok((i, round))
                    }
                },
                |i, out| seen.push((i, out)),
            );
            assert_eq!(seen.len(), 30);
            for (idx, (i, out)) in seen.iter().enumerate() {
                assert_eq!(idx, *i, "canonical order");
                let (task, round) = out.as_ref().expect("all tasks recover within cap");
                assert_eq!(*task, idx);
                assert_eq!(*round, (idx % 3) as u32);
            }
            let att = attempts.lock().unwrap();
            for i in 0..30usize {
                assert_eq!(att[&i], (i % 3) as u32 + 1, "task {i} total runs");
            }
            // Scheduler-side counters agree with the task-side bookkeeping:
            // every task was claimed once fresh, and each requeue is one
            // failed round, i.e. sum over i of (i % 3).
            assert_eq!(pool.tasks_claimed, 30);
            assert_eq!(pool.requeues, (0..30).map(|i| (i % 3) as u64).sum::<u64>());
        }
    }

    #[test]
    fn pool_matches_a_sequential_loop() {
        use std::collections::HashMap;
        use std::sync::Mutex as StdMutex;
        // What a plain loop with the same retry cap delivers: each task's
        // final result, in task order.
        let attempt = |i: usize, round: u32| {
            if round < (i % 3) as u32 {
                Err(format!("task {i} round {round}"))
            } else {
                Ok((i, round))
            }
        };
        let want: Vec<_> = (0..30usize)
            .map(|i| {
                let last = (0..=2).map(|round| attempt(i, round)).find(Result::is_ok);
                (i, last.expect("every task recovers within the cap"))
            })
            .collect();
        // The pool must deliver identical final results in identical order,
        // running each (task, round) exactly once.
        for threads in [1, 2, 4] {
            let runs: StdMutex<HashMap<(usize, u32), u32>> = StdMutex::new(HashMap::new());
            let mut seen = Vec::new();
            let (_, pool) = run_ordered_fallible(
                threads,
                30,
                2,
                None,
                |_| (),
                |_, i, round| {
                    *runs.lock().unwrap().entry((i, round)).or_insert(0) += 1;
                    attempt(i, round)
                },
                |i, out| seen.push((i, out)),
            );
            assert_eq!(seen, want);
            let l = runs.lock().unwrap();
            for i in 0..30usize {
                for round in 0..=(i % 3) as u32 {
                    assert_eq!(l.get(&(i, round)), Some(&1), "task {i} round {round}");
                }
            }
            assert_eq!(pool.tasks_claimed, 30);
            assert_eq!(pool.requeues, (0..30).map(|i| (i % 3) as u64).sum::<u64>());
        }
    }

    #[test]
    fn pool_surfaces_final_error_after_cap() {
        for threads in [1, 3] {
            let mut results = Vec::new();
            let (_, pool) = run_ordered_fallible(
                threads,
                10,
                1,
                None,
                |_| (),
                |_, i, _round| {
                    if i == 4 {
                        Err("always fails")
                    } else {
                        Ok(i)
                    }
                },
                |i, out| results.push((i, out)),
            );
            assert_eq!(results.len(), 10);
            for (i, out) in &results {
                if *i == 4 {
                    assert_eq!(*out, Err("always fails"));
                } else {
                    assert_eq!(*out, Ok(*i));
                }
            }
            assert_eq!(pool.requeues, 1, "task 4 requeued once before the cap");
        }
    }

    #[test]
    fn cancelled_pool_emits_a_clean_prefix() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let mut seen = Vec::new();
            run_ordered_fallible(
                threads,
                100,
                0,
                Some(&token),
                |_| (),
                |_, i, _round| {
                    if i == 10 {
                        token.cancel();
                    }
                    Ok::<usize, ()>(i)
                },
                |i, out| seen.push((i, out)),
            );
            assert!(seen.len() < 100, "pool ran to completion despite cancel");
            for (idx, (i, out)) in seen.iter().enumerate() {
                assert_eq!((idx, Ok(idx)), (*i, *out));
            }
            assert!(seen.len() >= 11, "claimed tasks complete");
        }
    }

    #[test]
    fn pool_zero_tasks_is_fine() {
        let (states, pool) = run_ordered_fallible(
            4,
            0,
            3,
            None,
            |_| (),
            |_, _i, _r| Ok::<(), ()>(()),
            |_, _| panic!("no tasks"),
        );
        assert_eq!(states.len(), 1);
        assert_eq!(pool, PoolStats::default());
    }

    /// A worker claims a task only when it is free: while task 0 holds its
    /// worker, the other worker runs every other task. A worker that claimed
    /// a task ahead of its current one would hold it behind task 0, which
    /// would then wait out its timeout.
    #[test]
    fn a_busy_worker_holds_no_claimed_task() {
        use std::time::Duration;
        let ran = Mutex::new(0usize);
        let done = Condvar::new();
        let mut seen_by_task_0 = None;
        run_ordered(
            2,
            8,
            |_| (),
            |_, i| {
                let mut n = ran.lock().unwrap();
                if i == 0 {
                    let timeout = Duration::from_secs(5);
                    n = done.wait_timeout_while(n, timeout, |n| *n < 7).unwrap().0;
                    return Some(*n);
                }
                *n += 1;
                done.notify_all();
                None
            },
            |i, out| {
                if i == 0 {
                    seen_by_task_0 = out;
                }
            },
        );
        assert_eq!(seen_by_task_0, Some(7), "tasks 1–7 ran while task 0 waited");
    }

    #[test]
    fn cancel_token_latches_first_cause() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), None);
        t.cancel_deadline();
        t.cancel(); // later trip must not overwrite the cause
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        assert_eq!(t.check(), Some(CancelCause::Deadline));
        let shared = t.clone();
        assert!(shared.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn cancel_after_checks_trips_on_the_exact_check() {
        let t = CancelToken::new();
        t.cancel_after_checks(3);
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
    }

    /// The pool as a plain ordered pool: tasks that cannot fail, no
    /// requeues, only the token to stop it.
    #[test]
    fn cancelled_ordered_pool_emits_a_clean_prefix() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let mut seen = Vec::new();
            run_ordered_fallible(
                threads,
                100,
                0,
                Some(&token),
                |_| (),
                |_, i, _round| {
                    if i == 10 {
                        token.cancel();
                    }
                    Ok::<usize, Infallible>(i)
                },
                |i, out| {
                    let Ok(out) = out;
                    seen.push((i, out))
                },
            );
            // Everything emitted is the contiguous prefix 0..k, and the trip
            // stopped the pool well short of the full run.
            assert!(seen.len() < 100, "pool ran to completion despite cancel");
            for (idx, (i, out)) in seen.iter().enumerate() {
                assert_eq!((idx, idx), (*i, *out));
            }
            assert!(seen.len() >= 11, "tasks claimed before the trip complete");
        }
    }

    #[test]
    fn cancelled_fallible_pool_stops_claiming_retries() {
        let token = CancelToken::new();
        let mut seen = Vec::new();
        let (_, pool) = run_ordered_fallible(
            2,
            50,
            3,
            Some(&token),
            |_| (),
            |_, i, round| {
                if i == 5 && round == 0 {
                    token.cancel();
                    return Err("tripped mid-task");
                }
                Ok::<usize, &str>(i)
            },
            |i, out| seen.push((i, out)),
        );
        assert!(seen.len() < 50);
        // Task 5's retry was queued but never claimed: nothing after the
        // first gap is emitted, and everything emitted is ordered.
        for w in seen.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(!seen.iter().any(|(i, _)| *i == 5));
        assert_eq!(pool.requeues, 1, "the tripped task was queued for retry");
        assert!(pool.tasks_claimed < 50);
    }
}
