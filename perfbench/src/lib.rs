//! End-to-end and per-layer benchmark of the SEER daemon.
//!
//! SEER is usable only if observing every file reference stays
//! invisible (§5.3) and the hoard handed over before a disconnection is
//! small and miss-free (§5.1.2). One command measures both, against the
//! `seer daemon` running as a child process of its own, with one client
//! thread on one Unix connection driving it closed-loop with one burst
//! outstanding (the host has two vCPUs: one for the client, the rest for
//! the daemon's threads).
//!
//! # Workloads
//!
//! - `stream`: machine F in v6 binary frames, WAL and periodic snapshots
//!   off. It loads socket read, decode, batcher, remap, observer,
//!   distance table, activity, shadow LRU, tenant metrics, and ack, and
//!   bypasses persistence: hot-path, codec, and pipeline-handoff changes
//!   show here; WAL and snapshot changes must not move it.
//! - `durable`: the same stream with the WAL on (the default
//!   `interval:50` fsync) and periodic snapshots, ending in `SIGKILL` and
//!   restarts. It loads WAL append (JSON records today), snapshot writes
//!   on the actor thread, snapshot load, and WAL replay; a binary WAL
//!   record format must show here.
//! - `hoard`: machine G (another project structure, the paper's 98 MB
//!   hoard) in small chunks, each flushed and followed by a fresh hoard
//!   query at a budget below the working set — the periodic hoard fill
//!   before a disconnection (§2). It loads incremental recluster, choose,
//!   the query path, and the actor's idle tick; its ingest volume is
//!   small, so hot-path changes barely move it.
//!
//! Every workload runs every phase (see [`run`]), so every end-to-end
//! metric exists on every workload. Workloads set only the daemon
//! options they name (WAL directory, fsync policy, snapshot path) and the
//! query budget; every other `DaemonConfig` value is `seer daemon`'s
//! shipped default, including the 50 ms idle `tick` and the 20k-event
//! snapshot cadence.
//!
//! # Traps measured on a 2-vCPU host without a PMU
//!
//! - *Idle-tick race.* A query first waits for its own flush; the flush
//!   wakes the engine actor, which polls its control channel once and
//!   goes back into `recv_timeout(tick)`. A fresh hoard query therefore
//!   takes either ~3 ms or ~53 ms, and the share of slow queries swings
//!   from run to run, so the median flips between the two while p90 sits
//!   on the tick. Queries inside an ingest window swung throughput from
//!   120k to 228k events/s, so no timed window contains a query.
//! - *Crash.* An in-process kill can still take the graceful path and
//!   write a final snapshot, making recovery anything from 0.17 s to a
//!   full WAL replay. The daemon is a child process killed with
//!   `SIGKILL`. The idle tick also snapshots, and recovery decodes the
//!   whole active WAL segment (up to 8 MiB, at a seed-dependent fill), so
//!   the replayed amount is pinned: stream until the segment rotates,
//!   wait for the idle snapshot, stream a fixed tail, kill right after
//!   its ack. Recovery is timed to `Welcome`, not to a query, which
//!   would wait on the tick.
//! - *Accept poll.* The listener polls `accept` every 5 ms, so cold
//!   restarts cluster around 2, 5, and 7 ms; the lower quartile of many
//!   restarts stays inside the fastest cluster.
//! - *Memory.* The load generator's trace dominates an in-process RSS;
//!   `peak_rss_mb` is the daemon process's own `VmHWM`.
//! - *Load shape.* Sleep-paced loops leave an idle vCPU slow to wake and
//!   spread ack percentiles 12–85%; closed loops spread far less, and
//!   frames of the daemon's batch size inside larger bursts keep its
//!   pipeline threads awake between hand-offs.
//! - *Host.* The shared host's memory-system contention changes every few
//!   seconds and moved the daemon's CPU per event between 0.95 and
//!   1.65 µs on identical input; a hash-map kernel timed between windows
//!   tracks it and a pure-ALU loop does not. Time metrics are restated
//!   at a nominal kernel speed (see [`host`]); `host.ref_ms` and
//!   `host.ref_end_ms` time the kernel at the start and end of each run,
//!   and every run prints its unscaled numbers too.
//! - *Seeds.* One generated user's project structure moves per-event
//!   cost and miss-free size by 10–40%, so a run pools several daemons,
//!   each fed a stream joined from several generated users.
//! - *Exact counts.* `wire.bytes_per_event`, `wal.bytes_per_event`, and
//!   the hoard contents repeat exactly for a seed.

pub mod daemon_proc;
pub mod host;
pub mod input;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
