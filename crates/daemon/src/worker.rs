//! A shard's one background worker: the thread that writes the engine
//! actor's snapshots, so the file I/O stays off the ack path.
//!
//! ```text
//! engine actor ──try_send Job──► seer-worker ──Done──► engine actor
//!   (freezes bytes)               (writes file)       (drains at loop top)
//! ```
//!
//! The actor freezes a tenant into a snapshot file's bytes, hands them
//! over as a [`Job`], and goes back to its inbox; the worker writes the
//! file and answers with a [`Done`] on its own channel, which the actor
//! drains without blocking at the top of its loop. Every computation on
//! a tenant's engine (reclusters and quality evaluations included) runs
//! on the actor itself. Results do not travel the inbox: a worker
//! holding a sender to its own shard's inbox would keep it connected,
//! and the graceful-shutdown cascade (the actor exits once every inbox
//! sender is gone) would never fire.

use crate::snapshot;
use crate::tenant::Tenant;
use crossbeam::channel::{bounded, Receiver, Sender};
use seer_core::PersistError;
use seer_telemetry::{tlog, Level};
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Jobs queued behind the running one. Each tenant keeps at most one
/// snapshot outstanding, so with many tenants on a shard the queue can
/// fill; the actor then retries on a later batch or idle tick.
const QUEUE: usize = 8;

/// A snapshot the actor froze into a file's bytes, to be written to
/// `path` atomically.
pub(crate) struct Job {
    pub(crate) tenant: Tenant,
    /// `events_applied` at freeze time: the snapshot's generation.
    pub(crate) generation: u64,
    pub(crate) path: PathBuf,
    pub(crate) bytes: Vec<u8>,
}

/// A finished snapshot write coming back to the actor.
pub(crate) struct Done {
    pub(crate) tenant: Tenant,
    pub(crate) generation: u64,
    pub(crate) result: Result<(), PersistError>,
    pub(crate) wall: Duration,
}

impl Job {
    /// Writes the snapshot file; the worker's one job, also run inline
    /// by the shutdown epilogue.
    pub(crate) fn run(self) -> Done {
        let started = Instant::now();
        let result = snapshot::write_file_atomic(&self.path, &self.bytes);
        Done {
            tenant: self.tenant,
            generation: self.generation,
            result,
            wall: started.elapsed(),
        }
    }
}

/// The actor's handle on its shard's worker thread.
pub(crate) struct Worker {
    jobs: Sender<Job>,
    done: Receiver<Done>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Starts a `seer-worker` thread.
    pub(crate) fn spawn() -> std::io::Result<Worker> {
        let (jobs, job_rx) = bounded::<Job>(QUEUE);
        let (done_tx, done) = bounded(QUEUE);
        let thread = thread::Builder::new()
            .name("seer-worker".into())
            .spawn(move || {
                // Exits when the actor drops either end.
                while let Ok(job) = job_rx.recv() {
                    if done_tx.send(job.run()).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Worker { jobs, done, thread })
    }

    /// Whether a job handed over now would be accepted. Only the actor
    /// submits, so room seen here is still there at [`Worker::submit`];
    /// checking first spares freezing a snapshot nobody will write.
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
