//! A synchronous client for the daemon's wire protocol.

use seer_trace::wire::{
    self, ClientFrame, DaemonFrame, QueryRequest, QueryResponse, WireError, WIRE_VERSION,
};
use seer_trace::{RawPathId, StringTable, Trace, TraceEvent};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The client side of either transport the daemon's hub listens on.
enum ClientStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ClientStream {
    fn try_clone(&self) -> std::io::Result<ClientStream> {
        match self {
            ClientStream::Unix(s) => s.try_clone().map(ClientStream::Unix),
            ClientStream::Tcp(s) => s.try_clone().map(ClientStream::Tcp),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// The client's write half, counting every byte that reaches the socket
/// so callers can report wire throughput without re-serializing frames.
struct CountingStream {
    inner: ClientStream,
    bytes: Arc<AtomicU64>,
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A connection to a running daemon.
///
/// The client keeps its own [`StringTable`] mirroring what it has
/// declared on the wire: events handed to [`DaemonClient::send_events`]
/// are translated from the caller's id space into the connection's, and
/// any paths the daemon has not seen yet are declared with
/// [`ClientFrame::Intern`] frames first. Each call sends one binary
/// events frame, which the daemon applies as one engine batch. Frames
/// are buffered and only flushed to the socket when a reply is needed,
/// so streaming many batches stays cheap.
pub struct DaemonClient {
    r: BufReader<ClientStream>,
    w: BufWriter<CountingStream>,
    bytes: Arc<AtomicU64>,
    strings: StringTable,
    /// Ids below this are already declared on the wire.
    declared: usize,
    /// Stamped on every outgoing events/query frame when set, tying the
    /// daemon-side pipeline spans into one causal trace.
    trace_id: Option<u64>,
    /// The events frame being written, reused across frames.
    frame: Vec<u8>,
}

impl DaemonClient {
    /// Connects over the Unix socket and performs the hello/welcome
    /// handshake, landing on the daemon's default tenant.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the socket cannot be reached and
    /// [`WireError::Format`] on a version mismatch or malformed reply.
    pub fn connect(socket_path: &Path, client: &str) -> Result<DaemonClient, WireError> {
        let stream = UnixStream::connect(socket_path)?;
        DaemonClient::handshake(ClientStream::Unix(stream), client, None)
    }

    /// Connects over the Unix socket as a named tenant: the handshake
    /// carries the tenant id, and everything this connection sends or
    /// asks lands on that tenant's engine.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the socket cannot be reached and
    /// [`WireError::Format`] on a version mismatch or malformed reply.
    pub fn connect_tenant(
        socket_path: &Path,
        client: &str,
        tenant: &str,
    ) -> Result<DaemonClient, WireError> {
        let stream = UnixStream::connect(socket_path)?;
        DaemonClient::handshake(ClientStream::Unix(stream), client, Some(tenant))
    }

    /// Connects over TCP (`tenant: None` lands on the default tenant).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the address cannot be reached and
    /// [`WireError::Format`] on a version mismatch or malformed reply.
    pub fn connect_tcp(
        addr: impl ToSocketAddrs,
        client: &str,
        tenant: Option<&str>,
    ) -> Result<DaemonClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response with explicit flushes; Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        DaemonClient::handshake(ClientStream::Tcp(stream), client, tenant)
    }

    fn handshake(
        stream: ClientStream,
        client: &str,
        tenant: Option<&str>,
    ) -> Result<DaemonClient, WireError> {
        let reader = stream.try_clone()?;
        let bytes = Arc::new(AtomicU64::new(0));
        let mut c = DaemonClient {
            r: BufReader::new(reader),
            w: BufWriter::new(CountingStream {
                inner: stream,
                bytes: Arc::clone(&bytes),
            }),
            bytes,
            strings: StringTable::new(),
            declared: 0,
            trace_id: None,
            frame: Vec::new(),
        };
        wire::write_frame(
            &mut c.w,
            &ClientFrame::Hello {
                client: client.to_owned(),
                version: WIRE_VERSION,
                tenant: tenant.map(str::to_owned),
            },
        )?;
        c.w.flush()?;
        match c.read_reply()? {
            DaemonFrame::Welcome { .. } => Ok(c),
            other => Err(WireError::Format(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// Bytes written to the socket so far (frames that reached the
    /// kernel; data still sitting in the client's buffer is not counted).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Stamps every subsequent events and query frame with `trace_id`,
    /// so the daemon records its pipeline spans under that trace.
    /// `None` stops stamping.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// The trace id currently stamped on outgoing frames, if any.
    #[must_use]
    pub fn trace_id(&self) -> Option<u64> {
        self.trace_id
    }

    /// Streams a batch of events whose raw-path ids are relative to
    /// `strings` (the caller's table) as one binary events frame. New
    /// paths are declared first.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the socket write fails.
    pub fn send_events(
        &mut self,
        events: &[TraceEvent],
        strings: &StringTable,
    ) -> Result<(), WireError> {
        let local = &mut self.strings;
        let translated: Vec<TraceEvent> = events
            .iter()
            .map(|ev| TraceEvent {
                kind: ev.kind.map_paths(&mut |p| {
                    let raw = strings.resolve(p).unwrap_or("");
                    local.intern(raw)
                }),
                ..*ev
            })
            .collect();
        for idx in self.declared..self.strings.len() {
            let id = idx as u32;
            let path = self
                .strings
                .resolve(RawPathId(id))
                .expect("freshly interned")
                .to_owned();
            wire::write_frame(&mut self.w, &ClientFrame::Intern { id, path })?;
        }
        self.declared = self.strings.len();
        self.frame.clear();
        wire::put_events_frame(&mut self.frame, &translated, self.trace_id);
        self.w.write_all(&self.frame)?;
        Ok(())
    }

    /// Streams a whole trace in frames of `chunk` events.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the socket write fails.
    pub fn send_trace(&mut self, trace: &Trace, chunk: usize) -> Result<(), WireError> {
        for c in trace.events.chunks(chunk.max(1)) {
            self.send_events(c, &trace.strings)?;
        }
        Ok(())
    }

    /// Asks the daemon to apply everything sent so far; returns the
    /// connection's applied-event count.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an error.
    pub fn flush(&mut self) -> Result<u64, WireError> {
        wire::write_frame(&mut self.w, &ClientFrame::Flush)?;
        self.w.flush()?;
        match self.read_reply()? {
            DaemonFrame::Flushed { events } => Ok(events),
            other => Err(WireError::Format(format!(
                "expected Flushed, got {other:?}"
            ))),
        }
    }

    /// Poses a query; the daemon answers it after applying everything
    /// this connection sent before it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an error.
    pub fn query(&mut self, query: QueryRequest) -> Result<QueryResponse, WireError> {
        wire::write_frame(
            &mut self.w,
            &ClientFrame::Query {
                query,
                trace_id: self.trace_id,
            },
        )?;
        self.w.flush()?;
        match self.read_reply()? {
            DaemonFrame::Answer { response } => Ok(response),
            other => Err(WireError::Format(format!("expected Answer, got {other:?}"))),
        }
    }

    /// Fetches the daemon's flight-recorder contents: every retained
    /// span plus the count of spans dropped under contention.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an error.
    pub fn dump_spans(&mut self) -> Result<(Vec<seer_telemetry::SpanRecord>, u64), WireError> {
        match self.query(QueryRequest::Dump)? {
            QueryResponse::Dump { spans, dropped } => Ok((spans, dropped)),
            other => Err(WireError::Format(format!("expected Dump, got {other:?}"))),
        }
    }

    /// Fetches decision provenance for one canonical path: hoard rank,
    /// cluster memberships, and strongest semantic-distance neighbors.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an error
    /// (e.g. the path was never observed).
    pub fn explain(&mut self, path: &str) -> Result<QueryResponse, WireError> {
        match self.query(QueryRequest::Explain {
            path: path.to_owned(),
        })? {
            r @ QueryResponse::Explain { .. } => Ok(r),
            other => Err(WireError::Format(format!(
                "expected Explain, got {other:?}"
            ))),
        }
    }

    /// Fetches the live quality report (SEER vs shadow-LRU miss-free
    /// hoard size) plus the time-series history behind it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an
    /// error.
    pub fn quality(
        &mut self,
    ) -> Result<(wire::QualityReport, seer_telemetry::SeriesSnapshot), WireError> {
        match self.query(QueryRequest::Quality)? {
            QueryResponse::Quality { report, series } => Ok((report, series)),
            other => Err(WireError::Format(format!(
                "expected Quality, got {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's alert ring: SLO burn, WAL fault, and
    /// watchdog alerts with firing/resolved transitions. `tenant`
    /// filters to one tenant (the watchdog's alerts live under
    /// `_self`); `None` returns the whole fleet's. Also returns the
    /// daemon's alert clock (seconds since start) so callers can render
    /// relative ages.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an
    /// error.
    pub fn alerts(
        &mut self,
        tenant: Option<&str>,
    ) -> Result<(Vec<seer_telemetry::AlertRecord>, f64), WireError> {
        match self.query(QueryRequest::Alerts {
            tenant: tenant.map(str::to_owned),
        })? {
            QueryResponse::Alerts { alerts, now_secs } => Ok((alerts, now_secs)),
            other => Err(WireError::Format(format!("expected Alerts, got {other:?}"))),
        }
    }

    /// Fetches miss postmortems: all retained ones (`id: None`) or one
    /// by id.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] if the daemon replies with an error
    /// (an unknown id).
    pub fn misses(&mut self, id: Option<u64>) -> Result<Vec<wire::MissPostmortem>, WireError> {
        match self.query(QueryRequest::Miss { id })? {
            QueryResponse::Misses { postmortems } => Ok(postmortems),
            other => Err(WireError::Format(format!("expected Misses, got {other:?}"))),
        }
    }

    /// Asks the daemon to flush, snapshot, and exit; consumes the client.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Format`] on an unexpected reply.
    pub fn shutdown(mut self) -> Result<(), WireError> {
        wire::write_frame(&mut self.w, &ClientFrame::Shutdown)?;
        self.w.flush()?;
        match self.read_reply()? {
            DaemonFrame::ShuttingDown => Ok(()),
            other => Err(WireError::Format(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }

    fn read_reply(&mut self) -> Result<DaemonFrame, WireError> {
        match wire::read_frame::<_, DaemonFrame>(&mut self.r)? {
            Some(DaemonFrame::Error { message }) => {
                Err(WireError::Format(format!("daemon error: {message}")))
            }
            Some(frame) => Ok(frame),
            None => Err(WireError::Format("connection closed by daemon".into())),
        }
    }
}
