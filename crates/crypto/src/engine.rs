//! The multi-threaded crypto engine: a persistent pool of CPU workers
//! servicing seal, open, and deferred-open jobs.
//!
//! The paper's CPU encryption engine sustains its Figure 2 throughput by
//! running AES-GCM across multiple threads (§7.2: encryption "scales
//! near-linearly" with thread count until it saturates PCIe). This module
//! is the real-bytes counterpart of the simulator's k-server
//! `WorkerPool` timeline (`pipellm_sim::resource::WorkerPool`): one
//! [`CryptoEngine`] owns `k` OS threads
//! (spawned once, parked on a condvar) and serves two kinds of work:
//!
//! - **Scoped chunk gangs** ([`CryptoEngine::run_scoped`]): the chunked
//!   AES-GCM path in [`crate::gcm`] splits one payload into block-aligned
//!   segments and seals them concurrently — CTR is seekable, so each
//!   worker generates its keystream from the segment's counter offset and
//!   folds a partial GHASH over its own block range; the caller combines
//!   the partials into the standard tag. The submitting thread runs one
//!   segment itself and *helps* drain the gang queue while it waits, so a
//!   gang never deadlocks behind slower background work.
//! - **Background jobs** ([`CryptoEngine::submit`]): deferred opens (the
//!   paper's §5.4 decoupled decryption workers) and other whole-buffer
//!   seals/opens run asynchronously; the caller holds a [`JobHandle`] and
//!   joins it when the plaintext is actually needed.
//!
//! Gang tasks are higher priority than background jobs: a blocking
//! on-demand seal on the critical path never queues behind a backlog of
//! speculative decrypts.
//!
//! Worker threads never start a nested gang (a thread-local marks them),
//! so a background job that seals or opens through an engine-attached
//! [`crate::gcm::AesGcm`] simply runs the sequential path — background
//! work pipelines *across* workers instead of ganging *within* one, which
//! is also how the GPU context accounts it on the simulated timeline.

// Lifetime erasure for the scoped gang dispatch is the one unsafe
// construct outside `hw`: see the SAFETY discussion on `run_scoped`.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

#[cfg(doc)]
use crate::gcm::AesGcm;

/// Sim-layer twin of this pool (doc link only).
///
/// [`WorkerPool`]: ../../pipellm_sim/resource/struct.WorkerPool.html
const _DOC: () = ();

/// An erased, queueable unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The two-priority job queue shared by all workers.
struct State {
    /// Scoped gang segments (chunked seal/open): drained first.
    gang: VecDeque<Job>,
    /// Background seal/open/deferred-open jobs.
    background: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
}

impl Shared {
    fn push_gang(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut st = self.state.lock().expect("engine mutex");
        let mut n = 0usize;
        for job in jobs {
            st.gang.push_back(job);
            n += 1;
        }
        drop(st);
        for _ in 0..n {
            self.work.notify_one();
        }
    }

    fn push_background(&self, job: Job) {
        let mut st = self.state.lock().expect("engine mutex");
        st.background.push_back(job);
        drop(st);
        self.work.notify_one();
    }

    /// Pops a gang task if one is queued (the submitter's help path).
    fn try_pop_gang(&self) -> Option<Job> {
        self.state.lock().expect("engine mutex").gang.pop_front()
    }

    /// Blocks until a job is available or shutdown; `None` means exit.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("engine mutex");
        loop {
            if let Some(job) = st.gang.pop_front() {
                return Some(job);
            }
            if let Some(job) = st.background.pop_front() {
                return Some(job);
            }
            if st.shutdown {
                return None;
            }
            st = self.work.wait(st).expect("engine mutex");
        }
    }
}

thread_local! {
    /// Set on engine worker threads: a worker never starts a nested gang,
    /// which is what makes gang dispatch deadlock-free (the threads a gang
    /// waits on never themselves wait on the pool).
    static ON_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Completion latch of one scoped gang.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(tasks: usize) -> Self {
        Latch {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut left = self.remaining.lock().expect("latch mutex");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch mutex") == 0
    }

    fn wait_done(&self) {
        let mut left = self.remaining.lock().expect("latch mutex");
        while *left > 0 {
            left = self.done.wait(left).expect("latch mutex");
        }
    }
}

/// Result slot of one background job.
struct JobSlot<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    done: Condvar,
}

/// Handle to a background job submitted with [`CryptoEngine::submit`].
///
/// Dropping the handle detaches the job: it still runs, its result is
/// discarded — the semantics a cancelled deferred open wants.
pub struct JobHandle<T> {
    slot: Arc<JobSlot<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Whether the job has finished (its result is ready to take).
    pub fn is_done(&self) -> bool {
        self.slot.result.lock().expect("job mutex").is_some()
    }

    /// Blocks until the job finishes and returns its result. If the job
    /// panicked on the worker, the panic resumes here.
    pub fn wait(self) -> T {
        let mut result = self.slot.result.lock().expect("job mutex");
        while result.is_none() {
            result = self.slot.done.wait(result).expect("job mutex");
        }
        match result.take().expect("checked above") {
            Ok(value) => value,
            Err(panic) => resume_unwind(panic),
        }
    }
}

/// A persistent pool of crypto worker threads (see the module docs).
pub struct CryptoEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    gang_width: usize,
}

impl std::fmt::Debug for CryptoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoEngine")
            .field("workers", &self.workers)
            .field("gang_width", &self.gang_width)
            .finish()
    }
}

impl CryptoEngine {
    /// Spawns a pool of `workers` threads (clamped to `1..=64`). The
    /// threads live until the engine is dropped. The gang width adapts to
    /// the host: one gang never spans more tasks than
    /// [`CryptoEngine::host_parallelism`] cores, regardless of the
    /// configured pool size (oversubscribed gangs context-switch instead
    /// of progressing — see [`CryptoEngine::gang_width`]).
    pub fn new(workers: usize) -> Self {
        let workers = workers.clamp(1, 64);
        Self::with_gang_width(workers, workers.min(Self::host_parallelism()))
    }

    /// Spawns a pool with an explicit gang width (clamped to
    /// `1..=workers`), overriding the adaptive
    /// `workers.min(host_parallelism)` default. Test and bench support:
    /// forces the chunked paths to gang even on hosts with fewer cores
    /// than workers (or to stay sequential on many-core hosts).
    pub fn with_gang_width(workers: usize, gang_width: usize) -> Self {
        let workers = workers.clamp(1, 64);
        let gang_width = gang_width.clamp(1, workers);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                gang: VecDeque::new(),
                background: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crypto-worker-{i}"))
                    .spawn(move || {
                        ON_WORKER.with(|w| w.set(true));
                        while let Some(job) = shared.next_job() {
                            // Panics are contained per job; scoped tasks
                            // record them in their latch, background jobs
                            // in their slot.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn crypto worker")
            })
            .collect();
        CryptoEngine {
            shared,
            handles,
            workers,
            gang_width,
        }
    }

    /// An engine sized to this machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(Self::host_parallelism())
    }

    /// The host's available parallelism, sampled once per process.
    pub fn host_parallelism() -> usize {
        static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of tasks one gang submission fans out to: the configured
    /// pool size capped at the host's available parallelism. Extra pool
    /// threads still serve background jobs, but a gang wider than the
    /// core count only adds scheduling churn, so the chunked GCM paths
    /// size (and gate) themselves on this instead of [`workers`].
    ///
    /// [`workers`]: CryptoEngine::workers
    pub fn gang_width(&self) -> usize {
        self.gang_width
    }

    /// Whether the calling thread is one of this (or any) engine's
    /// workers. The chunked GCM paths consult this to avoid nested gangs.
    pub fn on_worker_thread() -> bool {
        ON_WORKER.with(std::cell::Cell::get)
    }

    /// Runs a set of tasks that may borrow from the caller's stack,
    /// returning when every task has completed. Tasks are dispatched to
    /// the worker pool at gang priority; the calling thread executes the
    /// first task itself and helps drain the gang queue while waiting, so
    /// the gang makes progress even when every worker is busy.
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is re-raised here — after all tasks
    /// have finished, so borrows are never outlived.
    pub fn run_scoped<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let mut tasks = tasks;
        match tasks.len() {
            0 => return,
            1 => {
                let task = tasks.pop().expect("len checked");
                (task)();
                return;
            }
            _ => {}
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        let mut wrapped: Vec<Job> = Vec::with_capacity(tasks.len());
        for task in tasks {
            let latch = Arc::clone(&latch);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    latch.panicked.store(true, Ordering::Release);
                }
                latch.complete_one();
            });
            // SAFETY: the erased task is queued on the pool, executed at
            // most once, and `run_scoped` does not return (or unwind —
            // every path below is panic-free) until the latch counts all
            // tasks complete. Every borrow inside the closure therefore
            // strictly outlives its execution. The latch itself is owned
            // via `Arc`, not borrowed.
            let job: Job = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'scope>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(job)
            };
            wrapped.push(job);
        }
        let first = wrapped.remove(0);
        self.shared.push_gang(wrapped);
        (first)();
        // Help: drain gang tasks (ours or another caller's leaf segments)
        // instead of sleeping while workers are busy.
        while !latch.is_done() {
            match self.shared.try_pop_gang() {
                Some(job) => (job)(),
                None => latch.wait_done(),
            }
        }
        if latch.panicked.load(Ordering::Acquire) {
            panic!("crypto engine gang task panicked");
        }
    }

    /// Submits a background job and returns a handle to its result. Jobs
    /// run at lower priority than scoped gangs, in submission order.
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(JobSlot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let out = Arc::clone(&slot);
        self.shared.push_background(Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            *out.result.lock().expect("job mutex") = Some(result);
            out.done.notify_all();
        }));
        JobHandle { slot }
    }
}

impl Drop for CryptoEngine {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("engine mutex");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        // A background job can own the last reference to the engine (e.g.
        // a deferred open capturing an engine-attached `AesGcm`), in which
        // case this drop runs *on a worker thread*. Joining that thread
        // from itself would deadlock; skip it — it exits on its own right
        // after the current job, having already observed `shutdown`.
        let me = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_tasks_all_run_and_borrow_the_stack() {
        let engine = CryptoEngine::new(4);
        let mut slots = [0u64; 16];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let task: Box<dyn FnOnce() + Send + '_> =
                        Box::new(move || *slot = (i as u64 + 1) * 3);
                    task
                })
                .collect();
            engine.run_scoped(tasks);
        }
        for (i, v) in slots.iter().enumerate() {
            assert_eq!(*v, (i as u64 + 1) * 3);
        }
    }

    #[test]
    fn empty_and_singleton_gangs_run_inline() {
        let engine = CryptoEngine::new(2);
        engine.run_scoped(Vec::new());
        let mut hit = false;
        engine.run_scoped(vec![Box::new(|| hit = true)]);
        assert!(hit);
    }

    #[test]
    fn background_jobs_complete_and_return_values() {
        let engine = CryptoEngine::new(2);
        let handles: Vec<JobHandle<usize>> = (0..8).map(|i| engine.submit(move || i * i)).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), i * i);
        }
    }

    #[test]
    fn dropped_handles_detach_but_jobs_still_run() {
        let engine = CryptoEngine::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let counter = Arc::clone(&counter);
            drop(engine.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Synchronize on a final job: the queue is FIFO per priority.
        engine.submit(|| ()).wait();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn gangs_preempt_background_backlog() {
        // A gang submitted behind a pile of background jobs still
        // completes promptly (priority + submitter help); this is a
        // liveness test, not a timing assertion.
        let engine = CryptoEngine::new(1);
        for _ in 0..16 {
            drop(engine.submit(std::thread::yield_now));
        }
        let mut done = [false; 4];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = done
            .iter_mut()
            .map(|d| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || *d = true);
                task
            })
            .collect();
        engine.run_scoped(tasks);
        assert!(done.iter().all(|&d| d));
    }

    #[test]
    fn worker_threads_are_marked() {
        let engine = CryptoEngine::new(1);
        assert!(!CryptoEngine::on_worker_thread());
        assert!(engine.submit(CryptoEngine::on_worker_thread).wait());
    }

    #[test]
    fn gang_task_panic_is_propagated_after_the_gang_finishes() {
        let engine = CryptoEngine::new(2);
        let mut survivor = 0u32;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| panic!("boom")), Box::new(|| survivor = 7)];
            engine.run_scoped(tasks);
        }));
        assert!(result.is_err(), "gang panic must propagate");
        assert_eq!(survivor, 7, "sibling task still ran to completion");
        // The engine survives the panic and serves further work.
        assert_eq!(engine.submit(|| 41 + 1).wait(), 42);
    }

    #[test]
    fn background_panic_resumes_on_wait() {
        let engine = CryptoEngine::new(1);
        let handle: JobHandle<()> = engine.submit(|| panic!("job went bad"));
        assert!(catch_unwind(AssertUnwindSafe(|| handle.wait())).is_err());
        assert_eq!(engine.submit(|| 5).wait(), 5);
    }

    #[test]
    fn last_engine_reference_can_drop_inside_a_worker_job() {
        // A background job owning the final Arc<CryptoEngine> runs the
        // engine's Drop on the worker thread itself; the self-join skip
        // keeps that from deadlocking.
        let engine = Arc::new(CryptoEngine::new(2));
        let held = Arc::clone(&engine);
        let handle = engine.submit(move || {
            // Park long enough for main to drop its reference first, so
            // this closure's drop releases the last one.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            11
        });
        drop(engine);
        assert_eq!(handle.wait(), 11);
    }

    #[test]
    fn workers_clamp_to_at_least_one() {
        let engine = CryptoEngine::new(0);
        assert_eq!(engine.workers(), 1);
        assert_eq!(engine.submit(|| 1).wait(), 1);
    }
}
