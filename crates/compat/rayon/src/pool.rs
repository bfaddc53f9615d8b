//! The worker pool behind `join` and the parallel iterators.
//!
//! A fixed set of detached worker threads executes *jobs* — boxed closures —
//! scheduled through per-worker work-stealing deques plus a shared injector
//! queue for jobs submitted from threads outside the pool:
//!
//! * a worker pushes and pops its **own deque LIFO** (newest job first, the
//!   cache-friendly fork–join order),
//! * an idle worker pops the **injector FIFO**, then **steals FIFO** from the
//!   other workers' deques (oldest job first, the classic work-stealing
//!   discipline that steals the biggest remaining subproblems),
//! * threads that are not pool workers (e.g. the program's main thread
//!   driving a parallel iterator) submit to the injector and then *help*:
//!   while waiting for their batch to finish they execute queued jobs
//!   themselves instead of blocking, so the submitting thread always counts
//!   as one worker and a 1-thread "pool" degrades to inline execution.
//!
//! # Idle threads
//!
//! A thread that runs out of jobs first *spins*: for at most [`SPIN_BOUND`]
//! it polls [`Shared::queued`], the count of jobs pushed and not yet popped,
//! yielding its core between polls after the first [`YIELD_AFTER`]; a
//! thread waiting on a latch polls the latch too.  A fork then hands its
//! job to a thread that is already running instead of waking one through
//! the OS.  When the bound runs out the thread sleeps exactly as it would
//! without the spin: a worker registers in [`Shared::sleepers`], re-checks
//! the queues and waits on the pool's condvar, and a waiter waits on its
//! latch's condvar.  Those two waits are the only ways to sleep.
//!
//! Only threads the hardware can run at once spin: an idle thread spins only
//! while the live workers plus one forking caller number at most
//! `available_parallelism()`.  On a 2-core machine that is a pool of one
//! worker, which serves every 1- and 2-thread pool.  `with_threads(8)` grows
//! the worker set to seven, and from then on every idle thread parks as soon
//! as it runs out of jobs: a spinning thread would hold a core that a woken
//! worker needs, and a push wakes a parked worker whenever one exists.
//!
//! The pool is lazily created on first use.  Its size comes from
//! `RAYON_NUM_THREADS` when set, otherwise from
//! [`std::thread::available_parallelism`]; `ThreadPool::install` (used by
//! `pardp_parutils::with_threads`) overrides the *effective* thread count for
//! the duration of a closure via a thread-local, growing the worker set on
//! demand so `with_threads(8)` exercises real cross-thread execution even on
//! smaller machines.
//!
//! # Safety
//!
//! This module's one `unsafe` operation is in [`Batch::spawn`]: jobs borrow
//! the submitting stack frame, so their `'scope` lifetime is erased to
//! `'static` before they are queued (the same trick rayon-core uses).  The
//! erasure is sound because every submission path goes through a [`Batch`]
//! whose completion latch is waited on — including on panic, via a drop
//! guard — before the borrowed frame is left, so a job can never outlive the
//! data it borrows.  Worker threads wrap every job in `catch_unwind` and
//! forward the payload to the batch owner, which re-raises it on the
//! submitting thread.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A queued unit of work whose borrowed lifetime has been erased (see the
/// module-level safety discussion).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hard cap on pool size; far above any sensible `RAYON_NUM_THREADS`.
const MAX_WORKERS: usize = 64;

/// How long a parked worker sleeps before re-polling the queues.  Parked
/// workers are registered in [`Shared::sleepers`] and woken explicitly by
/// submissions, so the timeout is only a belt-and-braces bound on a lost
/// notification, not the primary wake mechanism — it can therefore be long
/// enough that an idle pool generates essentially no lock traffic.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// How long an idle thread spins on [`Shared::queued`] before it parks (see
/// the module docs).  It has to outlast the gap between two forks of a
/// round-based solve: the caller's share of a round after the worker
/// finished its own, and the driver's sequential work between rounds.  On
/// perfbench's `lcs_wide` (100 rounds of about 25 µs, 2 threads on 2 cores)
/// 5 µs still let 70 of 210 pushes per solve wake the worker and 10 µs 8–9,
/// while 20, 50 and 100 µs all leave the 6–7 wakeups that follow sequential
/// phases longer than any of them.  20 µs is the smallest bound at that
/// floor, and a small bound keeps an idle spin short where it buys nothing.
const SPIN_BOUND: Duration = Duration::from_micros(20);

/// How long a spinning thread polls without yielding its core.  Past it
/// every poll yields, which costs a system call (about 0.3 µs) but lets a
/// thread that shares the core run.  Measured on `lcs_wide` on a 2-core VM:
/// yielding from the first poll cost 0.3–0.4 ms per 4 ms solve on two free
/// cores, and never yielding made a solve about a third slower than parking
/// at once when the OS kept both threads on one core.  With this split the
/// spin matched the never-yielding one on free cores and was no slower than
/// parking on a shared one.
const YIELD_AFTER: Duration = Duration::from_micros(2);

struct Shared {
    /// FIFO for jobs submitted by non-pool threads.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker deques: owner pushes/pops the back, thieves pop the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Number of worker threads actually spawned so far.
    live_workers: AtomicUsize,
    /// Workers currently parked (or about to park) on the condvar.  A
    /// submission skips the wake mutex + condvar entirely when this is zero —
    /// during a fork-heavy round every worker is busy helping, so pushes
    /// become a single deque lock instead of a notify-all storm.
    sleepers: AtomicUsize,
    /// Wake generation counter; bumped on every submission that saw sleepers.
    wake_gen: Mutex<u64>,
    wake: Condvar,
    /// Diagnostic: jobs pushed to the shared injector (not per-worker deques).
    injector_pushes: AtomicU64,
    /// Diagnostic: condvar notifications actually sent to wake a worker.
    wakeups: AtomicU64,
    /// Jobs pushed and not yet popped: the hint idle threads spin on.
    queued: AtomicUsize,
}

impl Shared {
    /// An empty pool with `deques` worker slots and no live worker.
    fn new(deques: usize) -> Self {
        Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..deques).map(|_| Mutex::new(VecDeque::new())).collect(),
            live_workers: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            wake_gen: Mutex::new(0),
            wake: Condvar::new(),
            injector_pushes: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
        }
    }

    /// Grab one job: own deque (LIFO) for workers, then the injector (FIFO),
    /// then steal from other workers' deques (FIFO).
    fn find_job(&self, own: Option<usize>) -> Option<Job> {
        let job = self.pop_job(own)?;
        // ordering: Relaxed — `queued` is only a hint.  The job came out
        // under its queue lock, after the push raised the count under that
        // same lock, so the count never wraps below zero.
        self.queued.fetch_sub(1, Ordering::Relaxed);
        Some(job)
    }

    /// [`Shared::find_job`] without the `queued` accounting.
    fn pop_job(&self, own: Option<usize>) -> Option<Job> {
        if let Some(idx) = own {
            if let Some(job) = self.deques[idx].lock().expect("deque poisoned").pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(job);
        }
        // ordering: Acquire pairs with the Release store in `ensure_workers`
        // so the deques of every observed-live worker are initialized.
        let live = self.live_workers.load(Ordering::Acquire);
        let start = own.map_or(0, |i| i + 1);
        for off in 0..live {
            let victim = (start + off) % live.max(1);
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                return Some(job);
            }
        }
        None
    }

    /// Queue `job` and wake one sleeper if any worker is parked: worker `own`
    /// pushes to its own deque, any other thread (`None`) to the injector.
    ///
    /// The sleeper check is sound against the park protocol in
    /// [`worker_loop`]: a worker registers in [`Shared::sleepers`] *before*
    /// its final queue re-check, so if this load observes zero sleepers the
    /// parking worker's re-check is ordered after the push above (both sides
    /// synchronize through the queue mutex and seq-cst counter) and will find
    /// the job itself.  When the load observes a sleeper we bump the wake
    /// generation under the lock, which closes the check-then-wait race on
    /// the worker side.
    fn push_job(&self, own: Option<usize>, job: Job) {
        let queue = match own {
            Some(idx) => &self.deques[idx],
            None => {
                // ordering: Relaxed — diagnostic counter, not synchronization.
                self.injector_pushes.fetch_add(1, Ordering::Relaxed);
                &self.injector
            }
        };
        let mut queue = queue.lock().expect("queue poisoned");
        queue.push_back(job);
        // ordering: Relaxed — a hint for spinning threads, which take the job
        // itself under the queue lock.  Raising it under that lock orders it
        // before the pop that lowers it (see `find_job`).
        self.queued.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        // ordering: SeqCst keeps this load in a single total order with the
        // parking worker's SeqCst `sleepers` increment: either we observe the
        // sleeper (and notify under the wake-gen lock), or the worker's
        // register-then-recheck is ordered after our push and finds the job.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let mut gen = self.wake_gen.lock().expect("wake gen poisoned");
            *gen += 1;
            drop(gen);
            // ordering: Relaxed — diagnostic counter, not synchronization.
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.wake.notify_one();
        }
    }

    /// Spin until a job is queued or `done()` holds, for at most
    /// [`SPIN_BOUND`]; `false` when the bound ran out first.  Polls after
    /// [`YIELD_AFTER`] yield the core, so a thread that shares it with the
    /// spinner, such as the other side of a fork when the OS has put both on
    /// one CPU, runs in the meantime instead of waiting the spin out.
    fn spin(&self, done: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        loop {
            // ordering: Relaxed — a hint; the spinner then takes the job
            // through `find_job`, under the queue lock.
            if self.queued.load(Ordering::Relaxed) > 0 || done() {
                return true;
            }
            let spun = start.elapsed();
            if spun >= SPIN_BOUND {
                return false;
            }
            if spun < YIELD_AFTER {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Snapshot of the pool's cumulative dispatch diagnostics: `(injector pushes,
/// worker wakeups)`.  Tests assert *deltas* across a region that must bypass
/// the pool (e.g. a sub-grain cordon round).
pub(crate) fn dispatch_counters() -> (u64, u64) {
    let sh = shared();
    (
        // ordering: Relaxed — diagnostics; tests assert deltas across quiesced
        // regions, so no ordering with the counted events is needed.
        sh.injector_pushes.load(Ordering::Relaxed),
        // ordering: Relaxed — same as above.
        sh.wakeups.load(Ordering::Relaxed),
    )
}

thread_local! {
    /// Index of the current thread inside the pool, if it is a worker.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Effective-thread override installed by `ThreadPool::install`.
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| Arc::new(Shared::new(MAX_WORKERS)))
}

/// Threads the machine can run at once.  Cached: `available_parallelism()`
/// reads cgroup files on Linux, which allocates.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether an idle thread may spin before it parks: only while every worker
/// and one forking caller fit on the hardware (see the module docs).
fn may_spin(sh: &Shared) -> bool {
    // ordering: Relaxed — a heuristic read; a stale count only decides
    // whether this one idle spell spins or parks at once.
    sh.live_workers.load(Ordering::Relaxed) < hardware_threads()
}

/// Thread count configured for the global pool: `RAYON_NUM_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
pub(crate) fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(hardware_threads)
            .min(MAX_WORKERS)
    })
}

/// Effective thread count for parallelism decisions on this thread: the
/// innermost `ThreadPool::install` override, else the configured pool size.
pub(crate) fn effective_threads() -> usize {
    INSTALLED_THREADS
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
}

/// Make sure at least `target` workers exist (capped at [`MAX_WORKERS`]).
/// The submitting thread always participates, so `target` is the *pool* size
/// minus one for the caller.
fn ensure_workers(target: usize) {
    let target = target.min(MAX_WORKERS);
    let sh = shared();
    // ordering: Acquire pairs with the Release store below — observing a
    // count also makes those workers' startup visible on the fast path.
    if sh.live_workers.load(Ordering::Acquire) >= target {
        return;
    }
    static SPAWN_LOCK: Mutex<()> = Mutex::new(());
    let _guard = SPAWN_LOCK.lock().expect("spawn lock poisoned");
    // ordering: Acquire — re-read under the spawn lock; the lock serializes
    // writers, the Acquire keeps the read consistent with lock-free readers.
    let live = sh.live_workers.load(Ordering::Acquire);
    for idx in live..target {
        let sh = Arc::clone(sh);
        std::thread::Builder::new()
            .name(format!("pardp-rayon-{idx}"))
            .spawn(move || worker_loop(&sh, idx))
            .expect("failed to spawn pool worker");
        // ordering: Release publishes the spawned worker (and its deque slot)
        // to the Acquire loads in `find_job` and the fast path above.
        shared().live_workers.store(idx + 1, Ordering::Release);
    }
}

fn worker_loop(sh: &Shared, idx: usize) {
    WORKER_INDEX.with(|c| c.set(Some(idx)));
    loop {
        if let Some(job) = sh.find_job(Some(idx)) {
            job();
            continue;
        }
        if may_spin(sh) && sh.spin(|| false) {
            continue;
        }
        // Park.  Register as a sleeper *first* so submissions know someone
        // needs a notification, then re-check the queues: a job pushed before
        // the registration is found by the re-check; a job pushed after it
        // sees `sleepers > 0`, bumps the generation and notifies.  The
        // generation counter closes the remaining race between the re-check
        // and the wait — if a submission slipped in between, the generation
        // no longer matches and we retry instead of sleeping.
        // ordering: SeqCst — the register-then-recheck must not be reordered
        // after the queue re-check, and must sit in one total order with the
        // submitter's SeqCst `sleepers` load in `push_job` (see there).
        sh.sleepers.fetch_add(1, Ordering::SeqCst);
        let gen = *sh.wake_gen.lock().expect("wake gen poisoned");
        if let Some(job) = sh.find_job(Some(idx)) {
            // ordering: SeqCst — symmetric with the increment above; a stale
            // deregistration must not linger ahead of the next park attempt.
            sh.sleepers.fetch_sub(1, Ordering::SeqCst);
            job();
            continue;
        }
        let guard = sh.wake_gen.lock().expect("wake gen poisoned");
        if *guard == gen {
            let _ = sh.wake.wait_timeout(guard, PARK_TIMEOUT);
        }
        // ordering: SeqCst — symmetric with the increment above.
        sh.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Completion latch with a helping wait: the waiter executes queued jobs
/// while the count is non-zero instead of blocking.
struct Latch {
    pending: AtomicUsize,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            pending: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn increment(&self) {
        // ordering: AcqRel — increments join the same release sequence as the
        // decrements so `done` observes a consistent count.
        self.pending.fetch_add(1, Ordering::AcqRel);
    }

    fn count_down(&self) {
        // ordering: AcqRel — the Release publishes the finished job's writes;
        // the Acquire on the final decrement makes every earlier job's writes
        // visible to the thread that sees the latch reach zero.
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.mutex.lock().expect("latch poisoned");
            self.cond.notify_all();
        }
    }

    fn done(&self) -> bool {
        // ordering: Acquire pairs with the AcqRel decrements — once zero is
        // observed, all completed jobs' side effects are visible.
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Wait for the count to reach zero, executing queued jobs meanwhile.
    fn wait_helping(&self) {
        let sh = shared();
        let own = WORKER_INDEX.with(Cell::get);
        let spins = may_spin(sh);
        let mut spin = spins;
        while !self.done() {
            if let Some(job) = sh.find_job(own) {
                job();
                spin = spins;
                continue;
            }
            // A spin that ran out is not repeated until this thread runs a
            // job again: the stolen job is a long one, and its `count_down`
            // notifies the condvar below.
            if spin && sh.spin(|| self.done()) {
                continue;
            }
            spin = false;
            let guard = self.mutex.lock().expect("latch poisoned");
            if !self.done() {
                let _ = self.cond.wait_timeout(guard, Duration::from_micros(200));
            }
        }
    }
}

/// A set of borrowed jobs submitted to the pool as one unit.
///
/// `wait()` (or, on an unwind, the drop guard) blocks — helping — until every
/// spawned job has finished, which is what makes the `'scope` → `'static`
/// erasure sound, and re-raises the first panic observed in any job.
pub(crate) struct Batch<'scope> {
    latch: Arc<Latch>,
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    waited: bool,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Batch<'scope> {
    pub(crate) fn new() -> Self {
        // The caller participates via the helping wait, so the pool only
        // needs `effective - 1` workers.
        ensure_workers(effective_threads().saturating_sub(1));
        Batch {
            latch: Arc::new(Latch::new()),
            panic: Arc::new(Mutex::new(None)),
            waited: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Queue `job` on the pool.
    pub(crate) fn spawn(&self, job: Box<dyn FnOnce() + Send + 'scope>) {
        self.latch.increment();
        let latch = Arc::clone(&self.latch);
        let panic_slot = Arc::clone(&self.panic);
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = result {
                let mut slot = panic_slot.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            latch.count_down();
        });
        // SAFETY: `wrapped` borrows data that lives at least for `'scope`.
        // The batch's latch is decremented only after the job has fully run,
        // and `wait()`/`Drop` block on that latch before control can leave
        // `'scope`, so the job never runs after its borrows expire.  The two
        // trait-object types differ only in lifetime and share one layout.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        shared().push_job(WORKER_INDEX.with(Cell::get), erased);
    }

    /// Help until every spawned job completed; re-raise the first panic.
    pub(crate) fn wait(mut self) {
        self.latch.wait_helping();
        self.waited = true;
        let payload = self.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        // Unwind path: `wait()` was never reached, but the jobs still borrow
        // the scope — block until they are done (panics are swallowed; one
        // is already propagating).
        if !self.waited {
            self.latch.wait_helping();
        }
    }
}

/// Threaded `join`: queue `b` on the pool, run `a` inline, then either claim
/// `b` back (if no other thread picked it up yet) or help until it finishes.
pub(crate) fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // The claim slot doubles as the retraction mechanism: whoever `take`s
    // the closure runs it; the queued job becomes a no-op if the caller won.
    let b_task: Mutex<Option<B>> = Mutex::new(Some(b));
    let b_result: Mutex<Option<RB>> = Mutex::new(None);
    let batch = Batch::new();
    batch.spawn(Box::new(|| {
        let claimed = b_task.lock().expect("join task poisoned").take();
        if let Some(b) = claimed {
            let rb = b();
            *b_result.lock().expect("join result poisoned") = Some(rb);
        }
    }));
    let ra = a();
    // Fast path: retract `b` and run it inline if it was not stolen.
    let claimed = b_task.lock().expect("join task poisoned").take();
    let rb_local = claimed.map(|b| b());
    batch.wait();
    let rb = rb_local.or_else(|| b_result.lock().expect("join result poisoned").take());
    (
        ra,
        rb.expect("join: closure b neither claimed nor executed"),
    )
}

/// RAII override of the effective thread count (see `ThreadPool::install`).
pub(crate) struct InstallGuard {
    previous: Option<usize>,
}

pub(crate) fn install_threads(threads: usize) -> InstallGuard {
    let threads = threads.clamp(1, MAX_WORKERS);
    ensure_workers(threads.saturating_sub(1));
    let previous = INSTALLED_THREADS.with(|c| c.replace(Some(threads)));
    InstallGuard { previous }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A pool with `workers` live workers, outside the global one.
    fn fresh_shared(workers: usize) -> Shared {
        let sh = Shared::new(workers);
        sh.live_workers.store(workers, Ordering::Relaxed);
        sh
    }

    #[test]
    fn batch_runs_all_jobs_and_waits() {
        let counter = AtomicU64::new(0);
        let batch = Batch::new();
        for _ in 0..64 {
            batch.spawn(Box::new(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        batch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    /// Bounded-interleaving model check of the work-stealing deque protocol.
    ///
    /// Two logical workers share a fresh [`Shared`]: worker 0 owns deque 0
    /// (pushes and LIFO-pops it), worker 1 is a pure thief (FIFO-steals).
    /// Every interleaving of a fixed owner schedule (3 pushes, 3 pops) with a
    /// fixed thief schedule (3 steals) is executed serially at operation
    /// granularity, and each schedule is checked against a reference deque
    /// model: no job may be lost, duplicated, or run twice, owner pops must
    /// see the newest remaining job and steals the oldest.
    #[test]
    fn deque_schedules_never_lose_or_duplicate_jobs() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Op {
            Push,
            Pop,
            Steal,
        }

        // All C(6+3, 3) = 84 merges of the two per-worker schedules.
        fn schedules(owner: &[Op], thief: &[Op]) -> Vec<Vec<Op>> {
            fn go(owner: &[Op], thief: &[Op], acc: &mut Vec<Op>, out: &mut Vec<Vec<Op>>) {
                match (owner.split_first(), thief.split_first()) {
                    (None, None) => out.push(acc.clone()),
                    (o, t) => {
                        if let Some((&op, rest)) = o {
                            acc.push(op);
                            go(rest, thief, acc, out);
                            acc.pop();
                        }
                        if let Some((&op, rest)) = t {
                            acc.push(op);
                            go(owner, rest, acc, out);
                            acc.pop();
                        }
                    }
                }
            }
            let mut out = Vec::new();
            go(owner, thief, &mut Vec::new(), &mut out);
            out
        }

        let owner = [Op::Push, Op::Push, Op::Push, Op::Pop, Op::Pop, Op::Pop];
        let thief = [Op::Steal, Op::Steal, Op::Steal];
        let all = schedules(&owner, &thief);
        assert_eq!(all.len(), 84);

        for schedule in all {
            let sh = fresh_shared(2);
            let executed: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let mut model: VecDeque<usize> = VecDeque::new();
            let mut next_id = 0usize;
            let mut pushed = 0usize;

            for &op in &schedule {
                match op {
                    Op::Push => {
                        let id = next_id;
                        next_id += 1;
                        pushed += 1;
                        let executed = Arc::clone(&executed);
                        sh.push_job(Some(0), Box::new(move || executed.lock().unwrap().push(id)));
                        model.push_back(id);
                    }
                    Op::Pop => {
                        let got = sh.find_job(Some(0));
                        let want = model.pop_back();
                        match (got, want) {
                            (Some(job), Some(id)) => {
                                job();
                                assert_eq!(
                                    executed.lock().unwrap().last(),
                                    Some(&id),
                                    "owner pop must be LIFO in {schedule:?}"
                                );
                            }
                            (None, None) => {}
                            (got, want) => panic!(
                                "pop mismatch in {schedule:?}: got {} want {want:?}",
                                got.is_some()
                            ),
                        }
                    }
                    Op::Steal => {
                        let got = sh.find_job(Some(1));
                        let want = model.pop_front();
                        match (got, want) {
                            (Some(job), Some(id)) => {
                                job();
                                assert_eq!(
                                    executed.lock().unwrap().last(),
                                    Some(&id),
                                    "steal must be FIFO in {schedule:?}"
                                );
                            }
                            (None, None) => {}
                            (got, want) => panic!(
                                "steal mismatch in {schedule:?}: got {} want {want:?}",
                                got.is_some()
                            ),
                        }
                    }
                }
            }

            // Drain the leftovers; executed plus remaining must cover every
            // pushed job exactly once.
            while let Some(job) = sh.find_job(Some(0)) {
                let id = model.pop_back().expect("pool has a job the model lacks");
                job();
                assert_eq!(executed.lock().unwrap().last(), Some(&id));
            }
            assert!(model.is_empty(), "model has jobs the pool lost: {model:?}");
            let mut done = executed.lock().unwrap().clone();
            assert_eq!(done.len(), pushed, "every pushed job ran in {schedule:?}");
            done.sort_unstable();
            done.dedup();
            assert_eq!(done.len(), pushed, "a job ran twice in {schedule:?}");
            assert_eq!(sh.queued.load(Ordering::Relaxed), 0, "{schedule:?}");
        }
    }

    /// `queued` rises with every push and falls with every pop, whichever
    /// queue the job went through, so it reads 0 once the pool is drained.
    #[test]
    fn queued_hint_returns_to_zero_once_every_job_is_popped() {
        let sh = fresh_shared(3);
        let ran = Arc::new(AtomicU64::new(0));
        for burst in 1..=5 {
            // Through the injector and two workers' deques.
            for own in [None, Some(0), Some(2)].into_iter().cycle().take(burst * 4) {
                let ran = Arc::clone(&ran);
                sh.push_job(
                    own,
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
            assert_eq!(sh.queued.load(Ordering::Relaxed), burst * 4);
            // Worker 1 owns nothing: it drains the injector, then steals.
            for _ in 0..burst * 2 {
                sh.find_job(Some(1)).expect("a queued job")();
            }
            assert_eq!(sh.queued.load(Ordering::Relaxed), burst * 2);
            for own in [Some(0), Some(2)] {
                while let Some(job) = sh.find_job(own) {
                    job();
                }
            }
            assert_eq!(sh.queued.load(Ordering::Relaxed), 0, "burst {burst}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn batch_propagates_panics() {
        let result = panic::catch_unwind(|| {
            let batch = Batch::new();
            batch.spawn(Box::new(|| panic!("boom in job")));
            batch.wait();
        });
        assert!(result.is_err());
    }

    #[test]
    fn threaded_join_returns_both() {
        let _pool = install_threads(4);
        let (a, b) = join(|| 1 + 1, || "b".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "b");
    }

    #[test]
    fn nested_joins_do_not_deadlock() {
        let _pool = install_threads(4);
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(16), 987);
    }
}
