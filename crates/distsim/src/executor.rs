//! A small vendored executor that every [`ExecutionMode`] runs station
//! tasks on (no registry is reachable, so no tokio — this is the whole
//! runtime).
//!
//! Two variants share one scheduler core:
//!
//! * **Deterministic single-worker** (`workers <= 1`): a FIFO task queue run
//!   on the calling thread. Same task set ⇒ identical poll sequence,
//!   completion order, wake counts and virtual-clock readings on every run —
//!   the property the `executor_props` suite pins down.
//! * **Work-stealing multi-worker** (`workers > 1`): scoped OS threads, one
//!   run queue per worker plus a shared injector; an idle worker steals from
//!   the injector first, then from its peers. Completion *order* may vary,
//!   but deadline arithmetic does not: the clock only advances when every
//!   worker is idle, so a [`VirtualClock::sleep_until`] chain built from a
//!   task-local tick counter fires at identical ticks whatever the
//!   interleaving. (Mid-task [`VirtualClock::now`] reads are the one thing
//!   the pool *can* perturb — the clock may move while a woken task waits
//!   in a queue — which is why the pipeline stamps envelopes from each
//!   station's own timeline.)
//!
//! Tasks are woken through real [`std::task::Waker`]s; a per-task state
//! machine (idle → scheduled → running → notified) guarantees a task is
//! never queued twice and no wakeup is ever lost, which is what makes the
//! meter claims ("every station polled, every report sent exactly once")
//! hold under stealing.
//!
//! [`ExecutionMode`]: crate::ExecutionMode

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::clock::VirtualClock;

/// Nothing queued, nothing running, waiting on a wake.
const IDLE: u8 = 0;
/// In a run queue, waiting for a worker.
const SCHEDULED: u8 = 1;
/// Currently being polled by a worker.
const RUNNING: u8 = 2;
/// Woken *while* being polled; must be re-queued when the poll returns.
const NOTIFIED: u8 = 3;
/// Completed; all further wakes are no-ops.
const DONE: u8 = 4;

thread_local! {
    /// The worker index of the current thread, if it is an executor worker.
    static CURRENT_WORKER: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Scheduler state shared with wakers; holds only ids and counters (never
/// the futures themselves), so it satisfies [`Waker`]'s `'static` bound
/// while the futures borrow the caller's stack.
struct Scheduler {
    /// One local queue per worker thread; empty in single-worker mode.
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// Wakes arriving from outside any worker (timer fire, initial seeding).
    injector: Mutex<VecDeque<usize>>,
    states: Vec<AtomicU8>,
    wake_counts: Vec<AtomicU64>,
    polls: AtomicU64,
    unfinished: AtomicUsize,
    idle_workers: AtomicUsize,
    /// Set when any worker panics (task panic or deadlock verdict) so its
    /// peers exit instead of looping forever waiting for work that will
    /// never come — the scope join then propagates the original panic.
    failed: AtomicBool,
    /// Generation counter + condvar so idle workers park instead of spin.
    signal: Mutex<u64>,
    parked: Condvar,
}

impl Scheduler {
    fn new(workers: usize, tasks: usize) -> Scheduler {
        Scheduler {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            states: (0..tasks).map(|_| AtomicU8::new(SCHEDULED)).collect(),
            wake_counts: (0..tasks).map(|_| AtomicU64::new(0)).collect(),
            polls: AtomicU64::new(0),
            unfinished: AtomicUsize::new(tasks),
            idle_workers: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            signal: Mutex::new(0),
            parked: Condvar::new(),
        }
    }

    /// Pushes a runnable task: onto the waking worker's own queue when the
    /// wake happens on a worker thread, onto the injector otherwise.
    fn enqueue(&self, id: usize) {
        let worker = CURRENT_WORKER.with(std::cell::Cell::get);
        match self.locals.get(worker) {
            Some(local) => local.lock().expect("local queue").push_back(id),
            None => self.injector.lock().expect("injector").push_back(id),
        }
        self.notify();
    }

    fn notify(&self) {
        let mut generation = self.signal.lock().expect("signal");
        *generation += 1;
        self.parked.notify_all();
    }

    /// Wake path: mark runnable and queue unless already queued/running/done.
    fn wake_task(&self, id: usize) {
        self.wake_counts[id].fetch_add(1, Ordering::Relaxed);
        loop {
            match self.states[id].load(Ordering::Acquire) {
                IDLE => {
                    if self.states[id]
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(id);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[id]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued (SCHEDULED/NOTIFIED) or finished (DONE).
                _ => return,
            }
        }
    }

    /// Pops the next runnable task for `worker`: own queue first, then the
    /// injector, then steal from peers (all FIFO, oldest first).
    fn next_task(&self, worker: usize) -> Option<usize> {
        if let Some(local) = self.locals.get(worker) {
            if let Some(id) = local.lock().expect("local queue").pop_front() {
                return Some(id);
            }
        }
        if let Some(id) = self.injector.lock().expect("injector").pop_front() {
            return Some(id);
        }
        for (peer, local) in self.locals.iter().enumerate() {
            if peer == worker {
                continue;
            }
            if let Some(id) = local.lock().expect("peer queue").pop_front() {
                return Some(id);
            }
        }
        None
    }

    fn has_queued_work(&self) -> bool {
        if !self.injector.lock().expect("injector").is_empty() {
            return true;
        }
        self.locals
            .iter()
            .any(|q| !q.lock().expect("local queue").is_empty())
    }

    /// Whether any task is queued, being polled, or mid-wake — i.e. some
    /// agent other than the clock can still produce progress.
    fn any_task_in_flight(&self) -> bool {
        self.states
            .iter()
            .any(|s| matches!(s.load(Ordering::Acquire), SCHEDULED | RUNNING | NOTIFIED))
    }
}

struct TaskWaker {
    id: usize,
    scheduler: Arc<Scheduler>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.scheduler.wake_task(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.scheduler.wake_task(self.id);
    }
}

/// Scheduling statistics of one [`block_on_all`] run.
///
/// `completion_order`, `wake_counts` and `final_tick` are the three readings
/// the determinism property pins: with one worker they are identical across
/// repeated runs of the same task set; with many workers `final_tick` (and
/// every task's output) still is, because virtual-time arithmetic is
/// interleaving-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncRunReport {
    /// Task indices in the order they completed.
    pub completion_order: Vec<usize>,
    /// Per-task waker invocations (including no-op wakes), task order.
    pub wake_counts: Vec<u64>,
    /// Total future polls across all tasks.
    pub polls: u64,
    /// The virtual clock's reading after the last task finished.
    pub final_tick: u64,
}

type TaskSlot<'env, T> = Mutex<Option<Pin<Box<dyn Future<Output = T> + Send + 'env>>>>;

/// Drives `futures` to completion on the mini-executor and returns their
/// outputs in task order plus an [`AsyncRunReport`].
///
/// `workers` is clamped to `1..=futures.len()`; one worker runs the
/// deterministic inline loop, more run the work-stealing scoped-thread pool.
/// When every task is blocked the executor advances `clock` to the earliest
/// pending deadline (discrete-event style).
///
/// # Panics
///
/// Panics if a task deadlocks (pending with no timer registered and no wake
/// in flight) or if a task itself panics.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dipm_distsim::{block_on_all, VirtualClock};
///
/// let clock = Arc::new(VirtualClock::new());
/// let futures: Vec<_> = (0..4u64)
///     .map(|i| {
///         let clock = Arc::clone(&clock);
///         async move {
///             clock.sleep(10 * (i + 1)).await;
///             i * 2
///         }
///     })
///     .collect();
/// let (outputs, report) = block_on_all(2, &clock, futures);
/// assert_eq!(outputs, vec![0, 2, 4, 6]);
/// assert_eq!(report.final_tick, 40);
/// ```
pub fn block_on_all<'env, T, F>(
    workers: usize,
    clock: &Arc<VirtualClock>,
    futures: Vec<F>,
) -> (Vec<T>, AsyncRunReport)
where
    T: Send + 'env,
    F: Future<Output = T> + Send + 'env,
{
    let tasks = futures.len();
    let workers = workers.clamp(1, tasks.max(1));
    let single = workers == 1;
    let scheduler = Arc::new(Scheduler::new(if single { 0 } else { workers }, tasks));
    let slots: Vec<TaskSlot<'env, T>> = futures
        .into_iter()
        .map(|f| {
            Mutex::new(Some(
                Box::pin(f) as Pin<Box<dyn Future<Output = T> + Send + 'env>>
            ))
        })
        .collect();
    let outputs: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let completions: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(tasks));

    // Seed every task in index order: the injector for the inline loop,
    // round-robin over the workers' local queues for the pool.
    if single {
        scheduler
            .injector
            .lock()
            .expect("injector")
            .extend(0..tasks);
        worker_loop(
            0,
            workers,
            &scheduler,
            clock,
            &slots,
            &outputs,
            &completions,
        );
    } else {
        for id in 0..tasks {
            scheduler.locals[id % workers]
                .lock()
                .expect("local queue")
                .push_back(id);
        }
        crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let scheduler = &scheduler;
                let slots = &slots;
                let outputs = &outputs;
                let completions = &completions;
                scope.spawn(move |_| {
                    worker_loop(
                        worker,
                        workers,
                        scheduler,
                        clock,
                        slots,
                        outputs,
                        completions,
                    );
                });
            }
        })
        .expect("executor worker panicked");
    }

    let report = AsyncRunReport {
        completion_order: completions.into_inner().expect("completions"),
        wake_counts: scheduler
            .wake_counts
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect(),
        polls: scheduler.polls.load(Ordering::Relaxed),
        final_tick: clock.now(),
    };
    let outputs = outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot")
                .expect("every task ran to completion")
        })
        .collect();
    (outputs, report)
}

fn worker_loop<'env, T: Send + 'env>(
    worker: usize,
    workers: usize,
    scheduler: &Arc<Scheduler>,
    clock: &Arc<VirtualClock>,
    slots: &[TaskSlot<'env, T>],
    outputs: &[Mutex<Option<T>>],
    completions: &Mutex<Vec<usize>>,
) {
    let single = workers == 1;
    CURRENT_WORKER.with(|w| w.set(worker));
    // If this worker unwinds (a task panicked, or the deadlock verdict
    // below fired), flag the scheduler so peers exit instead of waiting
    // forever for work — the scope join then propagates the panic.
    struct FailGuard<'a>(&'a Scheduler);
    impl Drop for FailGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.failed.store(true, Ordering::Release);
                // Poison-tolerant notify: never double-panic in a Drop.
                if let Ok(mut generation) = self.0.signal.lock() {
                    *generation += 1;
                }
                self.0.parked.notify_all();
            }
        }
    }
    let _fail_guard = FailGuard(scheduler);
    loop {
        if scheduler.failed.load(Ordering::Acquire) {
            break;
        }
        if scheduler.unfinished.load(Ordering::Acquire) == 0 {
            scheduler.notify();
            break;
        }
        if let Some(id) = scheduler.next_task(worker) {
            poll_task(id, scheduler, slots, outputs, completions);
            continue;
        }
        if single {
            // Inline loop: nothing runnable means everything is parked on
            // the clock — advance it or we are done/deadlocked.
            if clock.fire_next() {
                continue;
            }
            if scheduler.unfinished.load(Ordering::Acquire) == 0 {
                break;
            }
            panic!("executor deadlock: tasks pending but no timers scheduled");
        }
        // Pool: the last worker to go idle owns the clock advance; everyone
        // else parks until new work is signalled.
        let generation = *scheduler.signal.lock().expect("signal");
        let idlers = scheduler.idle_workers.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(
            idlers <= workers,
            "idle counter drifted: {idlers} > {workers}"
        );
        if idlers == workers {
            if !scheduler.has_queued_work()
                && scheduler.unfinished.load(Ordering::Acquire) > 0
                && !clock.fire_next()
                // `fire_next` is pop-and-wake-atomic, so after a failed fire
                // a racing fire by another momentary last-idler has already
                // made its wakes visible — re-check the queues before
                // suspecting deadlock.
                && !scheduler.has_queued_work()
                && scheduler.unfinished.load(Ordering::Acquire) > 0
                // The idlers reading is a snapshot that may be stale: a peer
                // can have left idle, consumed a freshly-fired task and be
                // polling it right now, leaving queues and heap empty while
                // work is very much in flight. Every in-flight window
                // (wake→enqueue, dequeue→poll, poll→requeue) passes through
                // a visible SCHEDULED/RUNNING/NOTIFIED state, so only an
                // all-IDLE task set — awaiting wakes no live agent can ever
                // produce — is a genuine deadlock.
                && !scheduler.any_task_in_flight()
            {
                scheduler.idle_workers.fetch_sub(1, Ordering::AcqRel);
                panic!("executor deadlock: tasks pending but no timers scheduled");
            }
            scheduler.idle_workers.fetch_sub(1, Ordering::AcqRel);
            scheduler.notify();
        } else {
            let guard = scheduler.signal.lock().expect("signal");
            if *guard == generation {
                // Timeout only as a missed-wakeup backstop; wakes notify.
                let _ = scheduler
                    .parked
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("signal");
            }
            scheduler.idle_workers.fetch_sub(1, Ordering::AcqRel);
        }
    }
    CURRENT_WORKER.with(|w| w.set(usize::MAX));
}

fn poll_task<'env, T: Send + 'env>(
    id: usize,
    scheduler: &Arc<Scheduler>,
    slots: &[TaskSlot<'env, T>],
    outputs: &[Mutex<Option<T>>],
    completions: &Mutex<Vec<usize>>,
) {
    // Only the worker that dequeued the id may transition SCHEDULED→RUNNING.
    scheduler.states[id].store(RUNNING, Ordering::Release);
    let Some(mut future) = slots[id].lock().expect("task slot").take() else {
        // Completed by an earlier poll; stale queue entry.
        scheduler.states[id].store(DONE, Ordering::Release);
        return;
    };
    let waker = Waker::from(Arc::new(TaskWaker {
        id,
        scheduler: Arc::clone(scheduler),
    }));
    let mut cx = Context::from_waker(&waker);
    scheduler.polls.fetch_add(1, Ordering::Relaxed);
    match future.as_mut().poll(&mut cx) {
        Poll::Ready(value) => {
            *outputs[id].lock().expect("output slot") = Some(value);
            scheduler.states[id].store(DONE, Ordering::Release);
            completions.lock().expect("completions").push(id);
            if scheduler.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                scheduler.notify();
            }
        }
        Poll::Pending => {
            // Restore the future *before* leaving RUNNING so a concurrent
            // wake that wins the race finds something to poll.
            *slots[id].lock().expect("task slot") = Some(future);
            match scheduler.states[id].compare_exchange(
                RUNNING,
                IDLE,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {}
                // Woken mid-poll: requeue ourselves. (Further wakes see
                // NOTIFIED and no-op, so the state cannot change again
                // until we store SCHEDULED — one CAS attempt suffices.)
                Err(NOTIFIED) => {
                    scheduler.states[id].store(SCHEDULED, Ordering::Release);
                    scheduler.enqueue(id);
                }
                Err(_) => unreachable!("only the polling worker leaves RUNNING"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::yield_now;

    fn staircase(clock: &Arc<VirtualClock>, tasks: u64) -> Vec<impl Future<Output = u64> + Send> {
        (0..tasks)
            .map(|i| {
                let clock = Arc::clone(clock);
                // Deadlines derive from the task's own timeline (`local`),
                // not from global `clock.now()` reads — the latter are
                // interleaving-dependent under the work-stealing pool.
                async move {
                    let mut local = 0;
                    for _ in 0..3 {
                        local += i + 1;
                        clock.sleep_until(local).await;
                        yield_now().await;
                    }
                    local
                }
            })
            .collect()
    }

    #[test]
    fn single_worker_is_deterministic() {
        let runs: Vec<(Vec<u64>, AsyncRunReport)> = (0..3)
            .map(|_| {
                let clock = Arc::new(VirtualClock::new());
                block_on_all(1, &clock, staircase(&clock, 6))
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.0, runs[0].0);
            assert_eq!(run.1, runs[0].1);
        }
        // Each task finishes at 3·(i+1): its sleeps stack on its own chain.
        assert_eq!(runs[0].0, vec![3, 6, 9, 12, 15, 18]);
        assert_eq!(runs[0].1.final_tick, 18);
    }

    #[test]
    fn pool_matches_single_worker_outputs_and_ticks() {
        let clock = Arc::new(VirtualClock::new());
        let (reference, single) = block_on_all(1, &clock, staircase(&clock, 8));
        for workers in [2, 3, 8] {
            let clock = Arc::new(VirtualClock::new());
            let (outputs, report) = block_on_all(workers, &clock, staircase(&clock, 8));
            assert_eq!(outputs, reference, "workers = {workers}");
            assert_eq!(report.final_tick, single.final_tick, "workers = {workers}");
            let mut order = report.completion_order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn immediate_futures_complete_in_seed_order() {
        let clock = Arc::new(VirtualClock::new());
        let futures: Vec<_> = (0..5u32).map(|i| async move { i * 10 }).collect();
        let (outputs, report) = block_on_all(1, &clock, futures);
        assert_eq!(outputs, vec![0, 10, 20, 30, 40]);
        assert_eq!(report.completion_order, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.final_tick, 0);
        assert_eq!(report.polls, 5);
    }

    #[test]
    fn empty_task_set() {
        let clock = Arc::new(VirtualClock::new());
        let (outputs, report) = block_on_all(4, &clock, Vec::<YieldOnce>::new());
        assert!(outputs.is_empty());
        assert_eq!(report.polls, 0);
    }

    // A nameable future type for the empty-set test.
    struct YieldOnce;
    impl Future for YieldOnce {
        type Output = ();
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            Poll::Ready(())
        }
    }

    #[test]
    fn yields_interleave_tasks() {
        // With yields, a single worker round-robins the run queue.
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let clock = Arc::new(VirtualClock::new());
        let futures: Vec<_> = (0..3usize)
            .map(|i| {
                let log = Arc::clone(&log);
                async move {
                    for _ in 0..2 {
                        log.lock().unwrap().push(i);
                        yield_now().await;
                    }
                }
            })
            .collect();
        block_on_all(1, &clock, futures);
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 0, 1, 2]);
    }

    struct Stuck;
    impl Future for Stuck {
        type Output = ();
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            Poll::Pending
        }
    }

    #[test]
    #[should_panic(expected = "executor deadlock")]
    fn forever_pending_without_timer_panics() {
        let clock = Arc::new(VirtualClock::new());
        block_on_all(1, &clock, vec![Stuck]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn pool_deadlock_panic_propagates_instead_of_hanging() {
        // The deadlock verdict fires on one worker; the failed flag must
        // release its peers so the scope join can propagate the panic
        // rather than blocking forever on workers that never exit.
        let clock = Arc::new(VirtualClock::new());
        block_on_all(2, &clock, vec![Stuck, Stuck]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn pool_task_panic_propagates_instead_of_hanging() {
        let clock = Arc::new(VirtualClock::new());
        let futures: Vec<_> = (0..3)
            .map(|i| {
                let clock = Arc::clone(&clock);
                async move {
                    clock.sleep(1).await;
                    assert!(i != 1, "boom");
                }
            })
            .collect();
        block_on_all(2, &clock, futures);
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let clock = Arc::new(VirtualClock::new());
        let futures: Vec<_> = (0..64)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let clock = Arc::clone(&clock);
                async move {
                    clock.sleep(1).await;
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        block_on_all(4, &clock, futures);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
