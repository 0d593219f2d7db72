//! A threaded front door over the scheduler: callers submit requests from
//! any thread; one worker thread owns the [`Scheduler`] and its
//! [`WorkStealingPool`] and continuously batches decode steps.
//!
//! The split keeps all engine state single-owner (no locks on the decode
//! hot path): the shared mutex guards only the admission queue and the
//! completion list, both touched once per scheduler step. Admission
//! control is enforced here — a full queue rejects the submission
//! immediately with [`SubmitError::QueueFull`] rather than blocking the
//! caller, so backpressure is visible to the submitter.
//!
//! Shutdown is a *graceful drain*: in-flight requests finish normally,
//! every queued request is returned as a typed
//! [`Outcome::Rejected`]`(`[`RejectReason::Shutdown`]`)` completion
//! (never silently dropped), new submissions are refused with
//! [`SubmitError::ShuttingDown`], and the worker thread — plus the decode
//! pool it owns — is joined, so repeated start/stop cycles leak no
//! threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::scheduler::{
    Completion, Outcome, RejectReason, Request, Scheduler, ServeConfig, SubmitError,
};
use ft2_model::hooks::LayerTap;
use ft2_model::Model;
use ft2_parallel::{lock_clean, wait_clean, WorkStealingPool};

struct State {
    pending: VecDeque<Request>,
    done: Vec<Completion>,
    shutdown: bool,
    submitted: u64,
    completed: u64,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    queue_depth: usize,
}

/// A typed shutdown rejection for a request that never reached the
/// scheduler.
fn rejection(req: Request) -> Completion {
    Completion {
        id: req.id,
        outcome: Outcome::Rejected(RejectReason::Shutdown),
        tokens: Vec::new(),
        rollbacks: 0,
        storms: 0,
        kv_repairs: 0,
        repair_retries: 0,
    }
}

/// Handle to a running serving worker. Dropping the server performs the
/// same graceful drain as [`Server::shutdown`] (minus returning the
/// completions).
pub struct Server {
    shared: Arc<Shared>,
    model: Arc<Model>,
    next_id: AtomicU64,
    worker: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the worker thread: it owns a [`Scheduler`] over `model` and a
    /// decode pool of `threads` workers.
    pub fn spawn(model: Arc<Model>, config: ServeConfig, threads: usize) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                done: Vec::new(),
                shutdown: false,
                submitted: 0,
                completed: 0,
            }),
            cv: Condvar::new(),
            queue_depth: config.queue_depth,
        });
        let worker_shared = Arc::clone(&shared);
        let worker_model = Arc::clone(&model);
        let worker = std::thread::spawn(move || {
            // The server's mutex is the admission bound; the inner queue
            // only ever holds what one drain admitted.
            let inner = ServeConfig {
                queue_depth: usize::MAX,
                ..config
            };
            let pool = WorkStealingPool::new(threads);
            let mut sched = Scheduler::new(worker_model, inner);
            loop {
                let mut rejected: Vec<Completion> = Vec::new();
                let draining;
                {
                    let mut st = lock_clean(&worker_shared.state);
                    while st.pending.is_empty() && !st.shutdown && sched.is_idle() {
                        st = wait_clean(&worker_shared.cv, st);
                    }
                    draining = st.shutdown;
                    if draining {
                        // Graceful drain: stop admitting; everything still
                        // pending gets a typed rejection.
                        for req in st.pending.drain(..) {
                            rejected.push(rejection(req));
                        }
                    } else {
                        for req in st.pending.drain(..) {
                            // Submissions were validated on the caller's
                            // side and the inner queue is unbounded.
                            let admitted = sched.try_submit(req);
                            debug_assert!(admitted.is_ok(), "pre-validated request rejected");
                        }
                    }
                }
                if draining {
                    // Admitted-but-not-active requests are rejected too;
                    // active lanes keep decoding until they finish.
                    sched.drain_queue_rejected(RejectReason::Shutdown);
                }
                sched.step(&pool);
                let mut done = sched.drain_completions();
                done.append(&mut rejected);
                if !done.is_empty() {
                    let mut st = lock_clean(&worker_shared.state);
                    st.completed += done.len() as u64;
                    st.done.extend(done);
                    worker_shared.cv.notify_all();
                }
                if draining && sched.is_idle() {
                    break;
                }
            }
        });
        Server {
            shared,
            model,
            next_id: AtomicU64::new(0),
            worker: Some(worker),
        }
    }

    /// Submit a request; returns its id, or the admission error when the
    /// prompt is invalid, the queue is full (backpressure — resubmit
    /// later), or the server is draining.
    pub fn submit(
        &self,
        prompt: Vec<u32>,
        gen_tokens: usize,
        tap: Option<Box<dyn LayerTap + Send>>,
    ) -> Result<u64, SubmitError> {
        if prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let requested = prompt.len() + gen_tokens;
        let max_seq = self.model.config().max_seq;
        if requested > max_seq {
            return Err(SubmitError::TooLong { requested, max_seq });
        }
        let mut st = lock_clean(&self.shared.state);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if st.pending.len() >= self.shared.queue_depth {
            return Err(SubmitError::QueueFull);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.pending.push_back(Request {
            id,
            prompt,
            gen_tokens,
            tap,
        });
        st.submitted += 1;
        drop(st);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Block until every submitted request has completed, been evicted,
    /// or been rejected, then drain and return the completions.
    pub fn wait_all(&self) -> Vec<Completion> {
        let mut st = lock_clean(&self.shared.state);
        while st.completed < st.submitted {
            st = wait_clean(&self.shared.cv, st);
        }
        std::mem::take(&mut st.done)
    }

    /// Gracefully drain and join the worker, returning every completion
    /// not yet collected with [`Server::wait_all`] — typed shutdown
    /// rejections included, so callers can account for every submitted
    /// request.
    pub fn shutdown(mut self) -> Vec<Completion> {
        self.stop();
        let mut st = lock_clean(&self.shared.state);
        std::mem::take(&mut st.done)
    }

    fn stop(&mut self) {
        {
            let mut st = lock_clean(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
