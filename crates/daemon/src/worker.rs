//! A shard's one background worker: the thread that runs the engine
//! actor's detachable work (reclusters, quality evaluations, and
//! snapshot writes), so the actor never waits on it.
//!
//! ```text
//! engine actor ──try_send Job──► seer-worker ──Done──► engine actor
//!   (freezes input)               (computes)          (drains at loop top)
//! ```
//!
//! The actor freezes an input into a [`Job`] and goes back to its inbox;
//! the worker computes and answers with a [`Done`] on its own channel,
//! which the actor drains without blocking at the top of its loop.
//! Results do not travel the inbox: a worker holding a sender to its own
//! shard's inbox would keep it connected, and the graceful-shutdown
//! cascade (the actor exits once every inbox sender is gone) would never
//! fire.

use crate::pipeline::Tenant;
use crate::quality::{self, EvalJob};
use crate::snapshot;
use crossbeam::channel::{bounded, Receiver, Sender};
use seer_core::{ClusterRun, PairCountCache, PersistError, ReclusterInput, TableDirty};
use seer_telemetry::{tlog, Level};
use seer_trace::wire::QualityReport;
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Jobs queued behind the running one. Each tenant keeps at most one
/// recluster, one evaluation, and one snapshot outstanding, so with many
/// tenants on a shard the queue can fill; the actor then retries on a
/// later batch or idle tick.
const QUEUE: usize = 8;

/// Work handed to the worker, frozen so it runs while the actor goes on.
pub(crate) enum Job {
    /// A periodic recluster. It carries the tenant's pair-count cache
    /// and the dirty delta drained at the moment `input` was frozen, so
    /// the run is incremental; the cache comes home with the result.
    Recluster {
        tenant: Tenant,
        input: ReclusterInput,
        dirty: TableDirty,
        cache: Option<PairCountCache>,
        /// `events_applied` at freeze time: the clustering's generation.
        generation: u64,
    },
    /// A background quality evaluation.
    Eval { tenant: Tenant, job: EvalJob },
    /// A snapshot the actor froze into a file's bytes, to be written to
    /// `path` atomically.
    Snapshot {
        tenant: Tenant,
        /// `events_applied` at freeze time: the snapshot's generation.
        generation: u64,
        path: PathBuf,
        bytes: Vec<u8>,
    },
}

/// Finished work coming back to the actor.
pub(crate) enum Done {
    Recluster {
        tenant: Tenant,
        generation: u64,
        run: ClusterRun,
        cache: Option<PairCountCache>,
        /// When the computation started, and its wall time; the actor
        /// records the spans when it folds the result in.
        started: Instant,
        wall: Duration,
    },
    Eval {
        tenant: Tenant,
        report: QualityReport,
        wall: Duration,
    },
    Snapshot {
        tenant: Tenant,
        generation: u64,
        result: Result<(), PersistError>,
        wall: Duration,
    },
}

/// The actor's handle on its shard's worker thread.
pub(crate) struct Worker {
    jobs: Sender<Job>,
    done: Receiver<Done>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Starts a `seer-worker` thread whose reclusters shard their
    /// counting phase across `threads`.
    pub(crate) fn spawn(threads: usize) -> std::io::Result<Worker> {
        let (jobs, job_rx) = bounded(QUEUE);
        let (done_tx, done) = bounded(QUEUE);
        let thread = thread::Builder::new()
            .name("seer-worker".into())
            .spawn(move || run(&job_rx, &done_tx, threads.max(1)))?;
        Ok(Worker { jobs, done, thread })
    }

    /// Whether a job handed over now would be accepted. Only the actor
    /// submits, so room seen here is still there at [`Worker::submit`];
    /// checking first spares freezing an input nobody will run.
    pub(crate) fn has_room(&self) -> bool {
        !self.thread.is_finished() && !self.jobs.is_full()
    }

    /// Queues `job`; `false` when the worker is gone or its queue full.
    pub(crate) fn submit(&self, job: Job) -> bool {
        self.jobs.try_send(job).is_ok()
    }

    /// The next finished result, without blocking.
    pub(crate) fn try_done(&self) -> Option<Done> {
        self.done.try_recv().ok()
    }

    /// The next finished result, waiting for it; `None` once the worker
    /// is gone.
    pub(crate) fn recv_done(&self) -> Option<Done> {
        self.done.recv().ok()
    }

    /// Stops the worker: queued work is abandoned, the running job
    /// finishes, and the thread is joined.
    pub(crate) fn shutdown(self) {
        let Worker { jobs, done, thread } = self;
        drop(done);
        drop(jobs);
        if thread.join().is_err() {
            tlog!(
                Level::Warn,
                "seer_daemon::worker",
                "background worker panicked"
            );
        }
    }
}

/// The worker loop: compute each job and send the result back. Exits
/// when the actor drops either end.
fn run(jobs: &Receiver<Job>, done: &Sender<Done>, threads: usize) {
    while let Ok(job) = jobs.recv() {
        let started = Instant::now();
        let result = match job {
            Job::Recluster {
                tenant,
                input,
                dirty,
                mut cache,
                generation,
            } => {
                let run = input.compute_incremental(threads, Some(&dirty), &mut cache);
                Done::Recluster {
                    tenant,
                    generation,
                    run,
                    cache,
                    started,
                    wall: started.elapsed(),
                }
            }
            Job::Eval { tenant, job } => Done::Eval {
                tenant,
                report: quality::evaluate(&job),
                wall: started.elapsed(),
            },
            Job::Snapshot {
                tenant,
                generation,
                path,
                bytes,
            } => Done::Snapshot {
                tenant,
                generation,
                result: snapshot::write_file_atomic(&path, &bytes),
                wall: started.elapsed(),
            },
        };
        if done.send(result).is_err() {
            return;
        }
    }
}
