//! The connection hub: listeners, transports, and tenant routing.
//!
//! ```text
//!  Unix listener ──┐                        ┌─► shard 0: inbox ─► engine actor (tenants A, D, …)
//!                  ├─► accept ─► serve_conn ┼─► shard 1: inbox ─► engine actor (tenants B, E, …)
//!  TCP listener ───┘      (route by tenant) └─► shard 2: inbox ─► engine actor (tenants C, F, …)
//! ```
//!
//! Both listeners feed the same accept path; every connection gets a
//! reader thread that routes its frames to one shard chosen by hashing
//! the tenant id from its `Hello` (the default tenant when it names
//! none). Queries flow to the same shard — except `Fleet`, which fans out
//! to every shard and merges the per-shard answers.
//!
//! A connection is a blast-radius boundary: protocol violations (a
//! missing or repeated handshake, a tenant name outside the rule of
//! `pipeline::check_tenant_name`, out-of-order or undeclared path ids,
//! oversized frames) and mid-frame disconnects kill only the offending
//! connection (counted in `seer_daemon_connection_errors_total`), never
//! the daemon.

use crate::pipeline::{self, Msg, Tenant};
use crate::server::Shared;
use crate::stats::PipelineMetrics;
use crossbeam::channel::{bounded, Sender};
use seer_telemetry::{tlog, Level, SpanContext, TraceId, Tracer};
use seer_trace::wire::{
    self, ClientFrame, DaemonFrame, QueryRequest, QueryResponse, TenantFleetStat, WireError,
    WIRE_VERSION,
};
use seer_trace::TraceEvent;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Longest accepted JSON line. Lines carry only control frames (events
/// travel as binary frames), so a hostile client's endless line is cut
/// off early instead of buffered.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Capacity of each connection's socket read buffer: large enough that
/// an events frame arrives in one kernel read. A smaller buffer forces
/// mid-frame refills, which show as a `socket_read` p99 outlier.
const READ_BUFFER: usize = 256 * 1024;

/// A client connection over either transport. Reading and writing
/// dispatch to the underlying socket; everything above this enum is
/// transport-agnostic.
pub(crate) enum HubStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl HubStream {
    pub(crate) fn try_clone(&self) -> std::io::Result<HubStream> {
        match self {
            HubStream::Unix(s) => s.try_clone().map(HubStream::Unix),
            HubStream::Tcp(s) => s.try_clone().map(HubStream::Tcp),
        }
    }

    /// Closes both directions so a reader parked in `read` unblocks.
    pub(crate) fn shutdown_both(&self) {
        match self {
            HubStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            HubStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for HubStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            HubStream::Unix(s) => s.read(buf),
            HubStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for HubStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            HubStream::Unix(s) => s.write(buf),
            HubStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            HubStream::Unix(s) => s.flush(),
            HubStream::Tcp(s) => s.flush(),
        }
    }
}

/// A listening socket of either transport, parked in a blocking
/// `accept` by its listener thread.
pub(crate) enum HubListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl HubListener {
    fn accept(&self) -> std::io::Result<HubStream> {
        match self {
            HubListener::Unix(l) => l.accept().map(|(s, _)| HubStream::Unix(s)),
            HubListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The wire protocol is request/response with explicit
                // flushes; Nagle only adds latency here.
                let _ = s.set_nodelay(true);
                Ok(HubStream::Tcp(s))
            }
        }
    }
}

/// What a pre-bind probe of the Unix socket path found.
pub(crate) enum SocketProbe {
    /// A live daemon owns the socket — `version` is what its handshake
    /// answered (None if it accepted the connection but never replied).
    Live { version: Option<u32> },
    /// The file exists but nobody is listening: a stale leftover from a
    /// dead daemon, safe to reap.
    Stale,
    /// No socket file at all.
    Absent,
}

/// Probes a Unix socket path before reaping it: connect, and if a
/// listener answers, attempt a wire handshake. Only a refused
/// connection (or a missing file) licenses deleting the path — a
/// successful connect means a live process owns it, handshake or not.
pub(crate) fn probe_unix_socket(path: &Path) -> SocketProbe {
    match UnixStream::connect(path) {
        Ok(stream) => SocketProbe::Live {
            version: probe_handshake(stream),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => SocketProbe::Absent,
        Err(_) => SocketProbe::Stale,
    }
}

/// Sends a Hello on an already-connected probe stream and reads the
/// reply, under short timeouts so a wedged listener cannot stall
/// startup. Returns the daemon's wire version if a handshake answered.
fn probe_handshake(stream: UnixStream) -> Option<u32> {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    let reader = stream.try_clone().ok()?;
    let mut w = BufWriter::new(stream);
    wire::write_frame(
        &mut w,
        &ClientFrame::Hello {
            client: "socket-probe".into(),
            version: WIRE_VERSION,
            tenant: None,
        },
    )
    .ok()?;
    w.flush().ok()?;
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    r.read_line(&mut line).ok()?;
    match serde_json::from_str::<DaemonFrame>(line.trim_end()).ok()? {
        DaemonFrame::Welcome { version } => Some(version),
        _ => None,
    }
}

/// The routing table: tenant id → shard inbox, by stable hash. A
/// tenant's whole life (ingest, queries, WAL, snapshots) happens on one
/// shard, so per-tenant ordering needs no cross-shard coordination.
pub(crate) struct Shards {
    pub inboxes: Vec<Sender<Msg>>,
}

impl Shards {
    pub(crate) fn index_for(&self, tenant: &str) -> usize {
        let mut h = DefaultHasher::new();
        tenant.hash(&mut h);
        (h.finish() % self.inboxes.len() as u64) as usize
    }

    fn inbox_for(&self, tenant: &str) -> &Sender<Msg> {
        &self.inboxes[self.index_for(tenant)]
    }
}

/// Accept loop for one listener: blocks in `accept`, spawning one reader
/// thread per connection, until shutdown or kill is raised
/// ([`Shared::begin_shutdown`] wakes it by connecting). Exiting drops
/// this thread's clone of the shard inboxes, which is part of the
/// disconnect cascade (conn readers hold the rest).
pub(crate) fn run_listener(listener: &HubListener, shared: &Arc<Shared>, shards: &Arc<Shards>) {
    while let Ok(stream) = listener.accept() {
        let dup = stream.try_clone();
        {
            // Checked under the lock `begin_shutdown` drains, so a
            // connection is either closed here or shut down there: none
            // accepted after shutdown began is served.
            let mut conns = shared.conns.lock();
            if shared.shutdown.load(Ordering::SeqCst) || shared.kill.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(dup) = dup {
                conns.push(dup);
            }
        }
        let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connections.inc();
        tlog!(
            Level::Debug,
            "seer_daemon::hub",
            "connection accepted",
            conn = conn
        );
        let shared = Arc::clone(shared);
        let shards = Arc::clone(shards);
        thread::spawn(move || serve_conn(stream, conn, &shards, &shared));
    }
}

/// Posts a flush marker to the shard and waits for the engine actor to
/// reach it, returning the connection's applied count.
fn flush(conn: u64, tenant: &Tenant, inbox: &Sender<Msg>) -> Result<u64, ()> {
    let (ack, ack_rx) = bounded(1);
    let tenant = tenant.clone();
    inbox
        .send(Msg::Flush { conn, tenant, ack })
        .map_err(|_| ())?;
    ack_rx.recv().map_err(|_| ())
}

/// Posts a query to a shard and waits for its answer. The actor drains
/// its inbox in order, so the answer reflects everything this
/// connection sent before the query.
fn ask(
    inbox: &Sender<Msg>,
    tenant: &Tenant,
    query: QueryRequest,
    ctx: Option<SpanContext>,
) -> Result<QueryResponse, ()> {
    let (reply, reply_rx) = bounded(1);
    let tenant = tenant.clone();
    inbox
        .send(Msg::Query {
            query,
            tenant,
            ctx,
            reply,
        })
        .map_err(|_| ())?;
    reply_rx.recv().map_err(|_| ())
}

/// When reading and decoding a frame started and how long each took —
/// measured before the frame's trace membership is known, so the spans
/// are recorded retroactively once the trace id is in hand.
#[derive(Clone, Copy)]
struct FrameTiming {
    read_start: Instant,
    read_time: Duration,
    decode_start: Instant,
    decode_time: Duration,
    bytes: usize,
}

/// One frame off a connection: a JSON control line or a binary events
/// frame.
enum Frame {
    Control(ClientFrame),
    Events {
        events: Vec<TraceEvent>,
        trace_id: Option<u64>,
    },
}

/// Reads one newline-terminated line into `line`, refusing to buffer
/// more than `cap` bytes — the bound a hostile client's endless line
/// runs into. Returns the bytes consumed; `0` means clean EOF.
fn read_bounded_line(
    r: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, WireError> {
    line.clear();
    let mut total = 0usize;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            // EOF. A partial unterminated line is handed back as-is; the
            // caller's decode turns a half frame into a Format error.
            return Ok(total);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |p| p + 1);
        if total + take > cap {
            return Err(WireError::Format(format!(
                "JSON line exceeds {cap}-byte cap"
            )));
        }
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        total += take;
        if newline.is_some() {
            return Ok(total);
        }
    }
}

/// Reads one client frame, timing the socket read and the decode as
/// separate pipeline stages. The read timing includes waiting for the
/// client, so its tail shows client pauses, not daemon slowness; the
/// decode timing is pure CPU. `Ok(None)` signals a clean end of stream.
///
/// The framing is sniffed from the first byte: [`wire::BINARY_EVENTS_MAGIC`]
/// introduces a binary events frame (read into `scratch`, reused across
/// calls, and decoded without serde); anything else is a JSON control
/// line. Both paths are length-capped, so no client input can balloon
/// the daemon's memory.
fn read_timed_frame(
    r: &mut impl BufRead,
    metrics: &PipelineMetrics,
    scratch: &mut Vec<u8>,
    line: &mut Vec<u8>,
) -> Result<Option<(Frame, FrameTiming)>, WireError> {
    loop {
        let read_start = Instant::now();
        let read_timer = metrics.stage_socket_read.start_timer();
        let first = match r.fill_buf()?.first() {
            Some(&b) => b,
            None => {
                read_timer.stop();
                return Ok(None);
            }
        };
        if first == wire::BINARY_EVENTS_MAGIC {
            let mut header = [0u8; 5];
            r.read_exact(&mut header)?;
            let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
            if len > wire::BINARY_MAX_PAYLOAD {
                return Err(WireError::Format(format!(
                    "binary frame length {len} exceeds cap {}",
                    wire::BINARY_MAX_PAYLOAD
                )));
            }
            scratch.clear();
            scratch.resize(len, 0);
            r.read_exact(scratch)?;
            read_timer.stop();
            let read_time = read_start.elapsed();
            let decode_start = Instant::now();
            let decode_timer = metrics.stage_decode.start_timer();
            let (events, trace_id) = wire::decode_events_binary(scratch)?;
            decode_timer.stop();
            return Ok(Some((
                Frame::Events { events, trace_id },
                FrameTiming {
                    read_start,
                    read_time,
                    decode_start,
                    decode_time: decode_start.elapsed(),
                    bytes: header.len() + len,
                },
            )));
        }
        let n = read_bounded_line(r, line, MAX_LINE_BYTES)?;
        read_timer.stop();
        let read_time = read_start.elapsed();
        if n == 0 {
            return Ok(None);
        }
        let text = std::str::from_utf8(line)
            .map_err(|e| WireError::Format(format!("frame is not valid UTF-8: {e}")))?;
        if !text.trim().is_empty() {
            let decode_start = Instant::now();
            let decode_timer = metrics.stage_decode.start_timer();
            let frame = serde_json::from_str(text.trim_end())?;
            decode_timer.stop();
            return Ok(Some((
                Frame::Control(frame),
                FrameTiming {
                    read_start,
                    read_time,
                    decode_start,
                    decode_time: decode_start.elapsed(),
                    bytes: n,
                },
            )));
        }
    }
}

/// Records the retroactive `socket_read` → `decode` chain for a traced
/// events frame, returning the decode span's context for the engine
/// actor's `engine_apply` span to continue the chain.
fn record_frame_spans(tracer: &Tracer, trace: TraceId, timing: FrameTiming) -> SpanContext {
    let read_ctx = tracer.record_complete(
        "socket_read",
        trace,
        None,
        timing.read_start,
        timing.read_time,
        &[("bytes", timing.bytes.to_string())],
    );
    tracer.record_complete(
        "decode",
        trace,
        Some(read_ctx.span_id),
        timing.decode_start,
        timing.decode_time,
        &[],
    )
}

/// The first raw-path id in `events` at or above `declared`, if any.
fn undeclared_id(events: &[TraceEvent], declared: u64) -> Option<u32> {
    let mut found = None;
    for ev in events {
        let _ = ev.kind.map_paths(&mut |p| {
            if u64::from(p.0) >= declared {
                found.get_or_insert(p.0);
            }
            p
        });
    }
    found
}

/// Writes one reply and flushes it; `false` when the peer is gone.
fn send_reply(w: &mut impl Write, frame: &DaemonFrame) -> bool {
    wire::write_frame(w, frame).is_ok() && w.flush().is_ok()
}

/// One connection's reader state.
struct Conn<'a> {
    id: u64,
    shards: &'a Shards,
    shared: &'a Shared,
    /// The tenant the handshake named (the default until then), and
    /// its shard's inbox.
    tenant: Tenant,
    inbox: &'a Sender<Msg>,
    /// Paths declared so far on this connection: the next `Intern` must
    /// carry exactly this id, and no event may name one at or above it.
    declared: u64,
    /// Paths declared since the previous batch; they ride with the next.
    interns: Vec<String>,
}

impl Conn<'_> {
    /// Serves the connection until it ends. `Err` is a protocol
    /// violation ([`WireError::Format`]) or a mid-frame disconnect
    /// ([`WireError::Io`]); `Ok` is any other end — a clean EOF, a
    /// shutdown request, a peer that stopped reading its replies, or a
    /// pipeline that went away.
    fn serve(&mut self, r: &mut impl BufRead, w: &mut impl Write) -> Result<(), WireError> {
        let shared = self.shared;
        let metrics = &shared.metrics;
        let (mut scratch, mut line) = (Vec::new(), Vec::new());
        // The handshake: one `Hello` at this exact version, first.
        match read_timed_frame(r, metrics, &mut scratch, &mut line)? {
            None => return Ok(()),
            Some((
                Frame::Control(ClientFrame::Hello {
                    version: WIRE_VERSION,
                    tenant,
                    ..
                }),
                _,
            )) => {
                if let Some(name) = tenant {
                    // Refused before it becomes this connection's tenant,
                    // so its error is charged to the default tenant.
                    pipeline::check_tenant_name(&name).map_err(WireError::Format)?;
                    self.tenant = Arc::from(name);
                    self.inbox = self.shards.inbox_for(&self.tenant);
                }
                let welcome = DaemonFrame::Welcome {
                    version: WIRE_VERSION,
                };
                if !send_reply(w, &welcome) {
                    return Ok(());
                }
            }
            Some((Frame::Control(ClientFrame::Hello { version, .. }), _)) => {
                return Err(WireError::Format(format!(
                    "wire version mismatch: daemon speaks {WIRE_VERSION}, client sent {version}"
                )));
            }
            Some(_) => {
                return Err(WireError::Format(
                    "the first frame on a connection must be Hello".into(),
                ));
            }
        }
        while let Some((frame, timing)) = read_timed_frame(r, metrics, &mut scratch, &mut line)? {
            let reply = match frame {
                Frame::Events { events, trace_id } => {
                    if let Some(id) = undeclared_id(&events, self.declared) {
                        return Err(WireError::Format(format!(
                            "events frame names path id {id}, but only {} are declared",
                            self.declared
                        )));
                    }
                    // Depth *before* this send: the bounded send below
                    // blocks rather than exceed capacity, so this
                    // observation can never exceed the configured bound.
                    metrics.observe_queue_depth(self.inbox.len());
                    metrics.events_received.add(events.len() as u64);
                    let ctx =
                        trace_id.map(|t| record_frame_spans(&metrics.tracer, TraceId(t), timing));
                    let batch = Msg::Batch {
                        conn: self.id,
                        tenant: self.tenant.clone(),
                        interns: std::mem::take(&mut self.interns),
                        events,
                        ctx,
                    };
                    if self.inbox.send(batch).is_err() {
                        return Ok(());
                    }
                    continue;
                }
                Frame::Control(ClientFrame::Hello { .. }) => {
                    return Err(WireError::Format(
                        "a connection may send only one Hello".into(),
                    ));
                }
                Frame::Control(ClientFrame::Intern { id, path }) => {
                    if u64::from(id) != self.declared {
                        return Err(WireError::Format(format!(
                            "Intern id {id} out of order: the next id is {}",
                            self.declared
                        )));
                    }
                    self.declared += 1;
                    self.interns.push(path);
                    continue;
                }
                Frame::Control(ClientFrame::Flush) => flush(self.id, &self.tenant, self.inbox)
                    .map(|events| DaemonFrame::Flushed { events }),
                Frame::Control(ClientFrame::Query { query, trace_id }) => {
                    let answer = match query {
                        QueryRequest::Fleet { top_k } => {
                            run_fleet_query(&self.tenant, top_k, self.shards)
                        }
                        query => {
                            // A traced query's root span covers the whole
                            // exchange; the actor's `engine_answer` span
                            // hangs off it via the forwarded context.
                            let root =
                                trace_id.map(|t| metrics.tracer.span_in("query", TraceId(t), None));
                            let ctx = root.as_ref().map(seer_telemetry::Span::context);
                            ask(self.inbox, &self.tenant, query, ctx)
                        }
                    };
                    answer.map(|response| match response {
                        // An in-band error (e.g. an unanswerable History
                        // query) is an answer about *this query*, not a
                        // connection failure: report it and keep serving.
                        QueryResponse::Error { message } => DaemonFrame::Error { message },
                        response => DaemonFrame::Answer { response },
                    })
                }
                Frame::Control(ClientFrame::Shutdown) => {
                    tlog!(
                        Level::Info,
                        "seer_daemon",
                        "shutdown requested by client",
                        conn = self.id
                    );
                    // Apply everything this connection sent, acknowledge,
                    // then start the global cascade.
                    let _ = flush(self.id, &self.tenant, self.inbox);
                    let _ = send_reply(w, &DaemonFrame::ShuttingDown);
                    shared.begin_shutdown();
                    return Ok(());
                }
            };
            let Ok(reply) = reply else {
                let message = "pipeline unavailable".into();
                let _ = send_reply(w, &DaemonFrame::Error { message });
                return Ok(());
            };
            if !send_reply(w, &reply) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// One connection's reader thread: serves its frames, then accounts for
/// how it ended and tells the tenant's shard it is gone.
fn serve_conn(stream: HubStream, conn: u64, shards: &Shards, shared: &Shared) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::with_capacity(READ_BUFFER, reader);
    let mut w = BufWriter::new(stream);
    let tenant = pipeline::default_tenant();
    let mut c = Conn {
        id: conn,
        shards,
        shared,
        inbox: shards.inbox_for(&tenant),
        tenant,
        declared: 0,
        interns: Vec::new(),
    };
    if let Err(e) = c.serve(&mut r, &mut w) {
        // A protocol violation or a mid-frame disconnect (not a clean
        // EOF) kills this connection and nothing else — the counter is
        // the blast-radius witness, charged to the tenant its handshake
        // named (the default before one).
        shared.metrics.tenant_connection_errors(&c.tenant).inc();
        if let WireError::Format(message) = e {
            tlog!(
                Level::Warn,
                "seer_daemon::hub",
                "protocol error on connection",
                conn = conn,
                error = message.as_str(),
            );
            let _ = send_reply(&mut w, &DaemonFrame::Error { message });
        }
    }
    tlog!(
        Level::Debug,
        "seer_daemon::hub",
        "connection closed",
        conn = conn
    );
    // Shut the socket down explicitly: the accept loop parked a
    // duplicate handle in `shared.conns` (for the shutdown cascade), so
    // dropping our halves alone would leave the connection half-open —
    // and a peer mid-write (e.g. the hostile client whose oversized
    // frame got it evicted) would block forever instead of seeing EPIPE.
    w.get_ref().shutdown_both();
    let _ = c.inbox.send(Msg::ConnClosed {
        conn,
        tenant: c.tenant,
    });
}

/// A `Fleet` query fans out to every shard (each answers for its local
/// tenants) and merges: totals sum, rows concatenate, and the merged
/// list is re-ranked by miss rate and cut to `top_k`. The query reaches
/// the connection's own shard behind its events, so the aggregate
/// includes everything this connection already sent.
fn run_fleet_query(
    tenant: &Tenant,
    top_k: Option<usize>,
    shards: &Shards,
) -> Result<QueryResponse, ()> {
    let mut tenants = 0usize;
    let mut total_events = 0u64;
    let mut per_tenant: Vec<TenantFleetStat> = Vec::new();
    for inbox in &shards.inboxes {
        match ask(inbox, tenant, QueryRequest::Fleet { top_k }, None)? {
            QueryResponse::Fleet {
                tenants: t,
                total_events: e,
                per_tenant: rows,
            } => {
                tenants += t;
                total_events += e;
                per_tenant.extend(rows);
            }
            other => return Ok(other),
        }
    }
    per_tenant.sort_by(|a, b| {
        b.miss_rate
            .total_cmp(&a.miss_rate)
            .then_with(|| a.tenant.cmp(&b.tenant))
    });
    if let Some(k) = top_k {
        per_tenant.truncate(k);
    }
    Ok(QueryResponse::Fleet {
        tenants,
        total_events,
        per_tenant,
    })
}
