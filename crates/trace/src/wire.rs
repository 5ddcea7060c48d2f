//! Wire protocol for streaming trace events to a running SEER daemon.
//!
//! A connection carries two framings over one byte stream (in practice a
//! Unix-domain or TCP socket). Control frames — every [`ClientFrame`] and
//! every [`DaemonFrame`] — are newline-delimited JSON, one frame per line.
//! Events travel only as length-prefixed binary frames (see
//! [`encode_events_binary`]), introduced by [`BINARY_EVENTS_MAGIC`], which
//! no JSON line can start with, so one peeked byte picks the decoder. A
//! frame's events are [`crate::codec`]'s: the write-ahead log stores the
//! same payload, and both decode through one bounds-checked [`Reader`].
//!
//! A connection opens with exactly one [`ClientFrame::Hello`] at
//! [`WIRE_VERSION`]; the daemon answers [`DaemonFrame::Welcome`]. Any other
//! first frame, any other version, or a second `Hello` is a protocol error
//! that closes the connection.
//!
//! Raw paths are interned *incrementally* with [`ClientFrame::Intern`]
//! frames, so a connection can stream indefinitely without knowing its
//! path vocabulary up front. Interning is connection-local: `Intern { id,
//! path }` declares that, on this connection,
//! [`RawPathId`](crate::RawPathId)`(id)` means `path` in every later
//! events frame. Ids are issued densely from zero (the order a
//! [`crate::StringTable`] produces naturally): each `Intern` must carry
//! the number of ids declared before it, and an events frame may name
//! only declared ids. The daemon closes a connection that breaks either
//! rule and remaps valid ids into its own global table on arrival.

use crate::codec::{Codec, DecodeError, Reader};
use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Read, Write};

/// Protocol revision. Every client lives in this repository and is
/// built against the same revision, so the daemon accepts exactly this
/// version in a `Hello` and refuses any other.
pub const WIRE_VERSION: u32 = 8;

/// A frame sent from a client to the daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Introduces the connection; must be its first and only `Hello`.
    Hello {
        /// Client-chosen label, echoed in daemon logs and stats.
        client: String,
        /// The client's [`WIRE_VERSION`]; any other value is refused.
        version: u32,
        /// The tenant (observed machine) this connection streams for.
        /// `None` (also a missing key) selects the daemon's default
        /// tenant.
        tenant: Option<String>,
    },
    /// Declares a connection-local raw-path id (see module docs).
    Intern {
        /// The connection-local id being declared.
        id: u32,
        /// The raw path string it denotes.
        path: String,
    },
    /// Asks the daemon to apply everything received so far on this
    /// connection and acknowledge with [`DaemonFrame::Flushed`].
    Flush,
    /// A query about current daemon state; answered with
    /// [`DaemonFrame::Answer`] once everything this connection sent
    /// before it has been applied.
    Query {
        /// The question.
        query: QueryRequest,
        /// Optional causal-trace id: when set, the daemon records the
        /// query's span tree (engine answer, any recluster it triggers)
        /// under it, retrievable via [`QueryRequest::Dump`].
        trace_id: Option<u64>,
    },
    /// Asks the daemon to flush, snapshot, and exit; acknowledged with
    /// [`DaemonFrame::ShuttingDown`] before the socket closes.
    Shutdown,
}

/// A query a client can pose to the daemon.
///
/// The daemon tags every clustering with the *generation* (total events
/// applied) it was computed from. A query that reads the project
/// clustering (`Hoard`, `Clusters`, `Explain`, `Quality`) is answered
/// from a clustering at the current generation: the daemon reclusters
/// first when the installed one lags, so the answer reflects everything
/// applied so far. The `fresh` flag of `Hoard` and `Clusters` is
/// ignored; it stays in the protocol until the next `WIRE_VERSION`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Select hoard contents for a disconnection within `budget` bytes.
    Hoard {
        /// Byte budget for the hoard.
        budget: u64,
        /// Ignored: every answer reclusters to the current generation.
        fresh: bool,
    },
    /// Summarize the current project clustering.
    Clusters {
        /// Ignored: every answer reclusters to the current generation.
        fresh: bool,
    },
    /// Report ingestion-pipeline counters.
    Stats,
    /// Report the full telemetry registry (counters, gauges, and latency
    /// histograms) as a structured snapshot.
    Metrics,
    /// Liveness / readiness probe.
    Health,
    /// Dump the daemon's flight recorder: every span currently retained
    /// in the tracing ring, oldest first.
    Dump,
    /// Answer a hoard query *as of a past generation*: the daemon
    /// replays its write-ahead log up to the last batch at or below
    /// `generation` into a fresh engine and reports the hoard and
    /// clustering that engine produces. Requires the daemon to run with
    /// a WAL whose history still reaches back that far.
    History {
        /// Target generation (total applied events); the answer reports
        /// the generation actually reached (batch-boundary granularity).
        generation: u64,
        /// Byte budget for the as-of hoard selection.
        budget: u64,
    },
    /// Explain why SEER ranked one file where it did: its hoard rank,
    /// cluster memberships, and strongest semantic-distance neighbors
    /// with their evidence counts.
    Explain {
        /// Canonical path of the file to explain.
        path: String,
    },
    /// Report the live quality evaluator's latest [`QualityReport`]
    /// (SEER vs shadow-LRU) together with its time-series history.
    Quality,
    /// Fetch recorded miss postmortems: all of them (`id: None`) or one
    /// by id.
    Miss {
        /// Postmortem id to fetch, or `None` for every retained one.
        id: Option<u64>,
    },
    /// Summarize every tenant the hub is serving: aggregate applied
    /// events plus a per-tenant table (event counts, hoard-miss rates,
    /// WAL health), sorted by miss rate so the worst-served machines
    /// lead. Answered fleet-wide, regardless of the connection's tenant.
    Fleet {
        /// Keep only the `top_k` tenants with the highest miss rate in
        /// the per-tenant table (`None`: all tenants).
        top_k: Option<usize>,
    },
    /// Fetch the daemon's alert ring: SLO burn-rate, WAL-fault, and
    /// watchdog alerts with their firing/resolved transitions, oldest
    /// first. Answered daemon-wide regardless of the connection's
    /// tenant; the self-watchdog's alerts appear under pseudo-tenant
    /// `_self`.
    Alerts {
        /// Restrict to one tenant's alerts (`None`: every tenant).
        tenant: Option<String>,
    },
}

impl QueryRequest {
    /// Canonical lowercase names of every query, in declaration order.
    /// The CLI derives its help text and its "unknown query" message
    /// from this table so neither can go stale as queries are added.
    pub const NAMES: [&'static str; 12] = [
        "hoard", "clusters", "stats", "metrics", "health", "dump", "history", "explain", "quality",
        "miss", "fleet", "alerts",
    ];

    /// The canonical name of this query (an entry of [`Self::NAMES`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            QueryRequest::Hoard { .. } => "hoard",
            QueryRequest::Clusters { .. } => "clusters",
            QueryRequest::Stats => "stats",
            QueryRequest::Metrics => "metrics",
            QueryRequest::Health => "health",
            QueryRequest::Dump => "dump",
            QueryRequest::History { .. } => "history",
            QueryRequest::Explain { .. } => "explain",
            QueryRequest::Quality => "quality",
            QueryRequest::Miss { .. } => "miss",
            QueryRequest::Fleet { .. } => "fleet",
            QueryRequest::Alerts { .. } => "alerts",
        }
    }
}

/// One scored semantic-distance neighbor in an explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainNeighbor {
    /// Canonical path of the neighbor.
    pub path: String,
    /// Semantic distance under the engine's configured reduction
    /// (smaller = more related).
    pub distance: f64,
    /// Evidence count: how many reference observations contributed to
    /// the pair's streaming summary.
    pub evidence: u32,
}

/// The live quality evaluator's answer: how good is the hoard right
/// now, measured exactly as the paper measures it offline — miss-free
/// hoard size (§5.1.2) against a trailing simulated-disconnection
/// window — for SEER's ranking and for the shadow LRU baseline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Events applied when the evaluated snapshot was frozen.
    pub generation: u64,
    /// Generation of the clustering the SEER ranking used; always
    /// `generation`, since the daemon reclusters before it evaluates.
    pub clustering_generation: u64,
    /// Simulated-disconnection window length, in trace seconds.
    pub window_secs: u64,
    /// Hoard byte budget used for coverage-at-budget.
    pub budget: u64,
    /// Files referenced inside the trailing window (the needed set).
    pub needed_files: usize,
    /// Total bytes of the needed set (the lower bound on any miss-free
    /// hoard).
    pub working_set_bytes: u64,
    /// Smallest hoard, following SEER's ranking, with zero misses over
    /// the window.
    pub seer_missfree_bytes: u64,
    /// Needed files SEER's ranking does not rank at all.
    pub seer_uncovered: usize,
    /// Smallest miss-free hoard following the shadow LRU's ranking.
    pub lru_missfree_bytes: u64,
    /// Needed files the shadow LRU has no recency record for.
    pub lru_uncovered: usize,
    /// Fraction of needed files inside SEER's budget-limited hoard.
    pub seer_coverage: f64,
    /// Fraction of needed files inside the LRU budget-limited hoard.
    pub lru_coverage: f64,
    /// Had a disconnection started a window ago with SEER's
    /// budget-limited hoard, trace seconds until its first miss
    /// (`None`: the hoard would have survived the whole window).
    pub seer_first_miss_secs: Option<u64>,
    /// Time to first miss for the LRU budget-limited hoard.
    pub lru_first_miss_secs: Option<u64>,
    /// Recorded hoard misses by severity code 0..=4 (§4.4's five-point
    /// scale; index = code).
    pub misses_by_severity: Vec<u64>,
    /// Misses recorded automatically (implied severity).
    pub auto_misses: u64,
    /// Evaluator passes completed since the daemon started.
    pub evals: u64,
}

/// Provenance captured at the moment a hoard miss was recorded: enough
/// to reconstruct *why* the file was outside the hoard after the engine
/// has moved on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissPostmortem {
    /// Stable id (monotonic per daemon lifetime), for `query miss <id>`.
    pub id: u64,
    /// Canonical path of the missed file.
    pub path: String,
    /// WAL generation (events applied) when the miss was recorded —
    /// feed it to a `History` query to replay the hoard as of the miss.
    pub generation: u64,
    /// Generation of the clustering in force at the miss; always
    /// `generation`, since the daemon reclusters before it captures.
    pub clustering_generation: u64,
    /// Trace time of the miss, in seconds.
    pub time_secs: u64,
    /// Severity code 0..=4 when graded, `None` for ungraded misses.
    pub severity: Option<u8>,
    /// Whether the miss was detected automatically (implied severity)
    /// rather than reported by the user.
    pub auto: bool,
    /// The file's position in SEER's ranking at capture time, 0-based
    /// (`None`: not ranked at all).
    pub rank: Option<usize>,
    /// Total ranked files at capture time, for context.
    pub ranked: usize,
    /// Cluster memberships at capture: `(cluster id, member count)`.
    pub clusters: Vec<(u32, usize)>,
    /// Strongest semantic neighbors at capture.
    pub neighbors: Vec<ExplainNeighbor>,
}

/// One tenant's row in a [`QueryResponse::Fleet`] answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantFleetStat {
    /// The tenant's label (the default tenant reports as `"default"`).
    pub tenant: String,
    /// Events applied to this tenant's engine.
    pub events_applied: u64,
    /// Canonical paths this tenant's engine knows.
    pub files_known: usize,
    /// Hoard misses recorded for this tenant (auto-detected plus
    /// severity-classified), since startup.
    pub misses: u64,
    /// `misses / events_applied` — the fleet ranking key. Zero when the
    /// tenant has applied nothing.
    pub miss_rate: f64,
    /// Description of the tenant's WAL fault, if its log has failed.
    pub wal_fault: Option<String>,
    /// Folded 0–100 health score (100 = fully healthy; see the daemon's
    /// health scorer for the formula). 100.0 before the first sample or
    /// with the observability plane disabled.
    pub health_score: f64,
    /// Alerts currently firing for this tenant.
    pub alerts_firing: u64,
    /// Recent health-score samples, oldest first, for sparkline rows.
    pub score_spark: Vec<f64>,
}

/// A frame sent from the daemon to a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DaemonFrame {
    /// Answers [`ClientFrame::Hello`].
    Welcome {
        /// The daemon's [`WIRE_VERSION`].
        version: u32,
    },
    /// Acknowledges a [`ClientFrame::Flush`]: every event previously sent
    /// on this connection has been applied to the engine.
    Flushed {
        /// Total events this connection has streamed.
        events: u64,
    },
    /// Answers a [`ClientFrame::Query`].
    Answer {
        /// The response payload.
        response: QueryResponse,
    },
    /// Acknowledges [`ClientFrame::Shutdown`].
    ShuttingDown,
    /// The daemon could not honor the previous frame.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// Payload of a [`DaemonFrame::Answer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResponse {
    /// Hoard selection for [`QueryRequest::Hoard`].
    Hoard {
        /// Canonical paths chosen for the hoard, most important first.
        files: Vec<String>,
        /// Bytes those files occupy under the daemon's size model.
        bytes: u64,
        /// Whole projects included.
        clusters_taken: usize,
        /// Projects that did not fit the budget.
        clusters_skipped: usize,
        /// Events applied when the served clustering was computed: the
        /// applied count at answer time.
        generation: u64,
        /// Always `false`: the daemon reclusters before it answers.
        stale: bool,
    },
    /// Clustering summary for [`QueryRequest::Clusters`].
    Clusters {
        /// Total clusters in the current assignment.
        count: usize,
        /// Member counts of the largest clusters, descending (capped).
        largest: Vec<usize>,
        /// Canonical paths known to the engine.
        files_known: usize,
        /// Events applied when the served clustering was computed: the
        /// applied count at answer time.
        generation: u64,
        /// Always `false`: the daemon reclusters before it answers.
        stale: bool,
    },
    /// Pipeline counters for [`QueryRequest::Stats`].
    Stats {
        /// Events accepted off sockets.
        events_received: u64,
        /// Events applied to the engine.
        events_applied: u64,
        /// Batches applied to the engine.
        batches_applied: u64,
        /// Highest ingest-queue depth observed (bounded by the channel
        /// capacity — the backpressure guarantee).
        max_queue_depth: usize,
        /// Reclusterings performed.
        reclusters: u64,
        /// Snapshots written.
        snapshots: u64,
        /// Connections accepted over the daemon's lifetime.
        connections: u64,
    },
    /// Telemetry registry snapshot for [`QueryRequest::Metrics`]: every
    /// counter, gauge, and latency histogram the daemon maintains,
    /// ready for [`seer_telemetry::render_prometheus`] or JSON dumping.
    Metrics {
        /// The registry contents at query time.
        snapshot: seer_telemetry::RegistrySnapshot,
    },
    /// Flight-recorder contents for [`QueryRequest::Dump`].
    Dump {
        /// Retained spans, ordered by start time. Filter by `trace_id`
        /// to reconstruct one request's causal tree.
        spans: Vec<seer_telemetry::SpanRecord>,
        /// Spans lost to ring-slot contention since startup (overwritten
        /// spans are not counted — aging out is the ring working).
        dropped: u64,
    },
    /// Probe result for [`QueryRequest::Health`].
    Health {
        /// Whether the pipeline is accepting and applying events. A
        /// tenant whose WAL has faulted reports `false`: its batches are
        /// no longer acknowledged.
        healthy: bool,
        /// Events applied so far (for the connection's tenant).
        events_applied: u64,
        /// Current ingest-queue depth.
        queue_depth: usize,
        /// Description of this tenant's write-ahead-log fault, when its
        /// log has failed (e.g. a full disk). `None`: the log is healthy
        /// or the daemon runs without one.
        wal_fault: Option<String>,
    },
    /// As-of-generation answer for [`QueryRequest::History`].
    History {
        /// Generation the replay actually reached: the last logged batch
        /// at or below the requested target.
        generation: u64,
        /// Hoard selection at that generation, most important first.
        files: Vec<String>,
        /// Bytes those files occupy under the daemon's size model.
        bytes: u64,
        /// Whole projects included.
        clusters_taken: usize,
        /// Projects that did not fit the budget.
        clusters_skipped: usize,
        /// Total clusters at that generation.
        clusters: usize,
        /// Canonical paths known to the engine at that generation.
        files_known: usize,
    },
    /// Decision provenance for [`QueryRequest::Explain`].
    Explain {
        /// The canonical path explained.
        path: String,
        /// Position in SEER's hoard ranking, 0-based (`None`: unranked).
        rank: Option<usize>,
        /// Total files in the ranking.
        ranked: usize,
        /// Whether the file is pinned by the always-hoard set.
        always_hoard: bool,
        /// Trace time of the file's most recent reference, in seconds.
        last_ref_secs: Option<u64>,
        /// Total references observed for the file.
        ref_count: u64,
        /// Cluster memberships: `(cluster id, member count)`.
        clusters: Vec<(u32, usize)>,
        /// Strongest semantic neighbors, closest first.
        neighbors: Vec<ExplainNeighbor>,
        /// Events applied when the served clustering was computed: the
        /// applied count at answer time.
        generation: u64,
        /// Always `false`: the daemon reclusters before it answers.
        stale: bool,
    },
    /// Live quality report for [`QueryRequest::Quality`].
    Quality {
        /// The evaluator's most recent report.
        report: QualityReport,
        /// Windowed history of the quality series, for sparklines and
        /// dashboard export.
        series: seer_telemetry::SeriesSnapshot,
    },
    /// Retained postmortems for [`QueryRequest::Miss`], oldest first.
    Misses {
        /// The matching postmortems (all retained, or the requested id).
        postmortems: Vec<MissPostmortem>,
    },
    /// Fleet-wide summary for [`QueryRequest::Fleet`].
    Fleet {
        /// Tenants the hub has engine state for (before any `top_k`
        /// truncation of the table below).
        tenants: usize,
        /// Events applied across every tenant.
        total_events: u64,
        /// Per-tenant summaries, highest miss rate first (truncated to
        /// `top_k` when the query asked for one).
        per_tenant: Vec<TenantFleetStat>,
    },
    /// Alert-ring contents for [`QueryRequest::Alerts`], oldest first.
    Alerts {
        /// The retained alert records (firing and resolved).
        alerts: Vec<seer_telemetry::AlertRecord>,
        /// Seconds since daemon start at answer time — the clock the
        /// records' `fired_secs`/`resolved_secs` are measured on, so
        /// clients can render ages without wall-clock agreement.
        now_secs: f64,
    },
    /// The query could not be answered (e.g. `History` without a WAL, or
    /// a generation compaction has discarded). In-band so one failed
    /// query does not tear down the connection.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Errors arising while reading or writing frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line was not a valid frame.
    Format(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Format(m) => write!(f, "wire format error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<serde_json::Error> for WireError {
    fn from(e: serde_json::Error) -> WireError {
        WireError::Format(e.to_string())
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError::Format(format!("binary events frame: {e}"))
    }
}

/// Writes one control frame as a JSON line. The caller flushes when
/// ordering matters (sending many frames unflushed is how batching pays
/// off).
///
/// # Errors
///
/// Returns [`WireError::Io`] on write failure.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, frame: &T) -> Result<(), WireError> {
    serde_json::to_writer(&mut *w, frame)?;
    w.write_all(b"\n")?;
    Ok(())
}

/// Reads one frame; `Ok(None)` signals a clean end of stream.
///
/// # Errors
///
/// Returns [`WireError::Format`] for an unparsable line and
/// [`WireError::Io`] on read failure.
pub fn read_frame<R: BufRead, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if !line.trim().is_empty() {
            return Ok(Some(serde_json::from_str(line.trim_end())?));
        }
    }
}

// ---------------------------------------------------------------------------
// Binary events frames
// ---------------------------------------------------------------------------

/// First byte of a binary events frame. JSON frames are lines starting
/// with `{`, so one peeked byte tells the daemon which decoder to use;
/// `0xB6` is also never a valid first byte of UTF-8 text, so the two
/// framings cannot be confused even by a buggy client.
pub const BINARY_EVENTS_MAGIC: u8 = 0xB6;

/// Upper bound on a binary frame's payload. A length prefix beyond this
/// is treated as corruption rather than an allocation request.
pub const BINARY_MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Flag bit: the payload opens with an 8-byte little-endian trace id.
const BIN_FLAG_TRACE_ID: u8 = 0x01;

/// Encodes an event batch as one self-delimiting binary frame:
///
/// ```text
/// magic (0xB6) | payload_len: u32 LE | payload
/// payload = flags: u8
///           [trace_id: u64 LE]      when flags bit 0 is set
///           events: [TraceEvent]    a varint count, then each event
/// ```
///
/// The events are `seer_trace::codec`'s, which defines varints and the
/// event encoding (see [`TraceEvent`]'s `Codec` impl); the write-ahead
/// log's batch record carries the same payload. Raw-path ids refer to
/// the connection's `Intern` declarations.
#[must_use]
pub fn encode_events_binary(events: &[TraceEvent], trace_id: Option<u64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + events.len() * 12);
    put_events_frame(&mut buf, events, trace_id);
    buf
}

/// Appends the frame [`encode_events_binary`] returns to `buf`, so a
/// writer can reuse one buffer across frames.
pub fn put_events_frame(buf: &mut Vec<u8>, events: &[TraceEvent], trace_id: Option<u64>) {
    buf.push(BINARY_EVENTS_MAGIC);
    let len_at = buf.len();
    buf.extend_from_slice(&[0; 4]); // Length backpatched below.
    put_events_payload(buf, events, trace_id);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends a binary events payload — the frame without its magic and
/// length prefix, as [`decode_events_binary`] reads it — to `buf`.
pub fn put_events_payload(buf: &mut Vec<u8>, events: &[TraceEvent], trace_id: Option<u64>) {
    match trace_id {
        Some(t) => {
            buf.push(BIN_FLAG_TRACE_ID);
            buf.extend_from_slice(&t.to_le_bytes());
        }
        None => buf.push(0),
    }
    events.encode(buf);
}

/// Reads the payload [`put_events_payload`] appends off `r`: the
/// events, and the trace id when the flags carry one.
///
/// # Errors
///
/// For unknown flags, or events that do not decode.
pub fn decode_events_payload(
    r: &mut Reader<'_>,
) -> Result<(Vec<TraceEvent>, Option<u64>), DecodeError> {
    let trace_id = match r.byte()? {
        0 => None,
        BIN_FLAG_TRACE_ID => Some(u64::from_le_bytes(
            r.bytes(8)?.try_into().expect("eight bytes"),
        )),
        _ => return Err(DecodeError("unknown binary frame flags")),
    };
    Ok((Vec::decode(r)?, trace_id))
}

/// Decodes the payload of a binary events frame (everything after the
/// magic and length prefix) straight from the borrowed slice.
///
/// # Errors
///
/// Returns [`WireError::Format`] for truncation, trailing garbage, or any
/// out-of-range tag — corrupt input never panics.
pub fn decode_events_binary(payload: &[u8]) -> Result<(Vec<TraceEvent>, Option<u64>), WireError> {
    let mut r = Reader::new(payload);
    let decoded = decode_events_payload(&mut r)?;
    r.finish()?;
    Ok(decoded)
}

/// Reads one binary events frame — magic byte, length prefix, payload —
/// leaving the payload in `scratch` (reused across calls to keep the
/// read loop allocation-free) for [`decode_events_binary`]. Returns the
/// frame's size on the wire. The daemon's connection reader calls the
/// two separately, to time the read and the decode as stages of their
/// own.
///
/// Call after peeking [`BINARY_EVENTS_MAGIC`] on the stream.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the stream ends mid-frame and
/// [`WireError::Format`] for a bad magic byte or a length past
/// [`BINARY_MAX_PAYLOAD`], refused before anything is allocated.
pub fn read_binary_payload<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> Result<usize, WireError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    if header[0] != BINARY_EVENTS_MAGIC {
        return Err(WireError::Format(format!(
            "expected binary frame magic, got {:#04x}",
            header[0]
        )));
    }
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > BINARY_MAX_PAYLOAD {
        return Err(WireError::Format(format!(
            "binary frame length {len} exceeds cap {BINARY_MAX_PAYLOAD}"
        )));
    }
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    Ok(header.len() + len)
}

/// Reads and decodes one binary events frame: [`read_binary_payload`],
/// then [`decode_events_binary`], as the daemon's reader runs them.
///
/// # Errors
///
/// As [`read_binary_payload`] and [`decode_events_binary`].
pub fn read_binary_events<R: Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
) -> Result<(Vec<TraceEvent>, Option<u64>), WireError> {
    read_binary_payload(r, scratch)?;
    decode_events_binary(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_varint;
    use crate::event::{ErrorKind, EventKind, OpenMode};
    use crate::ids::{Fd, Pid, RawPathId, Seq};
    use crate::time::Timestamp;

    #[test]
    fn client_frames_round_trip() {
        let frames = vec![
            ClientFrame::Hello {
                client: "test".into(),
                version: WIRE_VERSION,
                tenant: Some("machine-a".into()),
            },
            ClientFrame::Intern {
                id: 3,
                path: "/home/u/proj/main.c".into(),
            },
            ClientFrame::Flush,
            ClientFrame::Query {
                query: QueryRequest::Hoard {
                    budget: 1 << 20,
                    fresh: true,
                },
                trace_id: Some(7),
            },
            ClientFrame::Query {
                query: QueryRequest::Clusters { fresh: false },
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Metrics,
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Health,
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Dump,
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::History {
                    generation: 5_000,
                    budget: 1 << 20,
                },
                trace_id: Some(9),
            },
            ClientFrame::Query {
                query: QueryRequest::Explain {
                    path: "/home/u/proj/main.c".into(),
                },
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Quality,
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Miss { id: Some(3) },
                trace_id: None,
            },
            ClientFrame::Query {
                query: QueryRequest::Fleet { top_k: Some(5) },
                trace_id: None,
            },
            ClientFrame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("write");
        }
        let mut r = buf.as_slice();
        for f in &frames {
            let got: ClientFrame = read_frame(&mut r).expect("read").expect("frame");
            assert_eq!(&got, f);
        }
        assert!(read_frame::<_, ClientFrame>(&mut r).expect("eof").is_none());
    }

    #[test]
    fn daemon_frames_round_trip() {
        let frames = vec![
            DaemonFrame::Welcome {
                version: WIRE_VERSION,
            },
            DaemonFrame::Flushed { events: 999 },
            DaemonFrame::Answer {
                response: QueryResponse::Hoard {
                    files: vec!["/a".into(), "/b".into()],
                    bytes: 2048,
                    clusters_taken: 1,
                    clusters_skipped: 0,
                    generation: 321,
                    stale: true,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Clusters {
                    count: 3,
                    largest: vec![5, 2],
                    files_known: 9,
                    generation: 321,
                    stale: false,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Stats {
                    events_received: 10,
                    events_applied: 10,
                    batches_applied: 2,
                    max_queue_depth: 4,
                    reclusters: 1,
                    snapshots: 1,
                    connections: 1,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Metrics {
                    snapshot: {
                        let r = seer_telemetry::Registry::new();
                        r.counter("seer_daemon_events_received_total", "Events.")
                            .add(10);
                        r.gauge("seer_daemon_queue_depth", "Depth.").set(4);
                        r.histogram("seer_daemon_stage_seconds", "Stage.")
                            .observe_nanos(1_000);
                        r.snapshot()
                    },
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Dump {
                    spans: vec![seer_telemetry::SpanRecord {
                        trace_id: 0xdead_beef,
                        span_id: 1,
                        parent_id: None,
                        name: "engine_apply".into(),
                        start_unix_nanos: 123,
                        duration_nanos: 456,
                        attrs: vec![("events".into(), "64".into())],
                    }],
                    dropped: 0,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::History {
                    generation: 4_992,
                    files: vec!["/a".into()],
                    bytes: 1024,
                    clusters_taken: 1,
                    clusters_skipped: 2,
                    clusters: 3,
                    files_known: 9,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Explain {
                    path: "/home/u/proj/main.c".into(),
                    rank: Some(2),
                    ranked: 40,
                    always_hoard: false,
                    last_ref_secs: Some(86_400),
                    ref_count: 17,
                    clusters: vec![(0, 5), (3, 2)],
                    neighbors: vec![ExplainNeighbor {
                        path: "/home/u/proj/main.h".into(),
                        distance: 1.5,
                        evidence: 12,
                    }],
                    generation: 321,
                    stale: false,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Quality {
                    report: QualityReport {
                        generation: 321,
                        clustering_generation: 300,
                        window_secs: 86_400,
                        budget: 1 << 20,
                        needed_files: 12,
                        working_set_bytes: 12_288,
                        seer_missfree_bytes: 13_312,
                        seer_uncovered: 0,
                        lru_missfree_bytes: 20_480,
                        lru_uncovered: 1,
                        seer_coverage: 1.0,
                        lru_coverage: 0.75,
                        seer_first_miss_secs: None,
                        lru_first_miss_secs: Some(3_600),
                        misses_by_severity: vec![0, 1, 0, 2, 0],
                        auto_misses: 3,
                        evals: 7,
                    },
                    series: {
                        let ring = seer_telemetry::SeriesRing::new(4);
                        ring.record("seer_quality_seer_coverage", 0.5);
                        ring.record("seer_quality_seer_coverage", 1.0);
                        ring.snapshot()
                    },
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Misses {
                    postmortems: vec![MissPostmortem {
                        id: 1,
                        path: "/home/u/proj/notes.txt".into(),
                        generation: 200,
                        clustering_generation: 150,
                        time_secs: 7_200,
                        severity: Some(3),
                        auto: true,
                        rank: Some(38),
                        ranked: 40,
                        clusters: vec![(2, 4)],
                        neighbors: vec![],
                    }],
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Health {
                    healthy: false,
                    events_applied: 512,
                    queue_depth: 3,
                    wal_fault: Some("wal append failed: disk full".into()),
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Fleet {
                    tenants: 2,
                    total_events: 1024,
                    per_tenant: vec![TenantFleetStat {
                        tenant: "machine-a".into(),
                        events_applied: 512,
                        files_known: 40,
                        misses: 3,
                        miss_rate: 3.0 / 512.0,
                        wal_fault: None,
                        health_score: 72.5,
                        alerts_firing: 1,
                        score_spark: vec![100.0, 88.0, 72.5],
                    }],
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Alerts {
                    alerts: vec![seer_telemetry::AlertRecord {
                        id: 0,
                        tenant: "machine-a".into(),
                        kind: "slo-burn".into(),
                        message: "fast 12.0x / slow 6.1x over budget".into(),
                        fired_secs: 4.25,
                        resolved_secs: Some(9.5),
                    }],
                    now_secs: 11.0,
                },
            },
            DaemonFrame::Answer {
                response: QueryResponse::Error {
                    message: "history unavailable: daemon is running without a WAL".into(),
                },
            },
            DaemonFrame::ShuttingDown,
            DaemonFrame::Error {
                message: "nope".into(),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("write");
        }
        let mut r = buf.as_slice();
        for f in &frames {
            let got: DaemonFrame = read_frame(&mut r).expect("read").expect("frame");
            assert_eq!(&got, f);
        }
    }

    /// A `Query` without a `trace_id` key decodes as untraced rather
    /// than failing.
    #[test]
    fn v2_frames_without_trace_id_still_decode() {
        let mut r = &br#"{"Query":{"query":{"Clusters":{"fresh":true}}}}
"#[..];
        let query: ClientFrame = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(
            query,
            ClientFrame::Query {
                query: QueryRequest::Clusters { fresh: true },
                trace_id: None,
            }
        );
    }

    /// A `Hello` without a `tenant` key decodes as `None` (the default
    /// tenant); refusing its old version is the daemon's handshake
    /// check, not the decoder's.
    #[test]
    fn pre_v7_hello_without_tenant_still_decodes() {
        let mut r = &br#"{"Hello":{"client":"legacy","version":6}}
"#[..];
        let hello: ClientFrame = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(
            hello,
            ClientFrame::Hello {
                client: "legacy".into(),
                version: 6,
                tenant: None,
            }
        );
    }

    /// The shared name table must stay in lockstep with the enum: every
    /// variant's name appears in [`QueryRequest::NAMES`], and the table
    /// holds nothing else.
    #[test]
    fn query_name_table_covers_every_variant() {
        let all = [
            QueryRequest::Hoard {
                budget: 0,
                fresh: false,
            },
            QueryRequest::Clusters { fresh: false },
            QueryRequest::Stats,
            QueryRequest::Metrics,
            QueryRequest::Health,
            QueryRequest::Dump,
            QueryRequest::History {
                generation: 0,
                budget: 0,
            },
            QueryRequest::Explain {
                path: String::new(),
            },
            QueryRequest::Quality,
            QueryRequest::Miss { id: None },
            QueryRequest::Fleet { top_k: None },
            QueryRequest::Alerts { tenant: None },
        ];
        assert_eq!(all.len(), QueryRequest::NAMES.len());
        for (q, &name) in all.iter().zip(QueryRequest::NAMES.iter()) {
            assert_eq!(q.name(), name, "table order matches declaration order");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"\n\n");
        write_frame(&mut buf, &ClientFrame::Flush).expect("write");
        let mut r = buf.as_slice();
        let got: ClientFrame = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(got, ClientFrame::Flush);
    }

    #[test]
    fn garbage_is_a_format_error() {
        let mut r = &b"not json\n"[..];
        assert!(matches!(
            read_frame::<_, ClientFrame>(&mut r),
            Err(WireError::Format(_))
        ));
    }

    /// One event of every kind, with every error/root/mode combination
    /// represented somewhere.
    fn all_kinds() -> Vec<TraceEvent> {
        let kinds = vec![
            EventKind::Open {
                path: RawPathId(3),
                mode: OpenMode::Read,
                fd: Fd(5),
            },
            EventKind::Open {
                path: RawPathId(0),
                mode: OpenMode::Write,
                fd: Fd(0),
            },
            EventKind::Open {
                path: RawPathId(u32::MAX - 1),
                mode: OpenMode::ReadWrite,
                fd: Fd(u32::MAX),
            },
            EventKind::Close { fd: Fd(5) },
            EventKind::OpenDir {
                path: RawPathId(9),
                fd: Fd(7),
            },
            EventKind::ReadDir {
                fd: Fd(7),
                entries: 300,
            },
            EventKind::Exec { path: RawPathId(2) },
            EventKind::Exit,
            EventKind::Fork { child: Pid(4242) },
            EventKind::Unlink { path: RawPathId(8) },
            EventKind::Create { path: RawPathId(1) },
            EventKind::Rename {
                from: RawPathId(1),
                to: RawPathId(2),
            },
            EventKind::Stat { path: RawPathId(6) },
            EventKind::SetAttr { path: RawPathId(6) },
            EventKind::Chdir { path: RawPathId(4) },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: Seq(i as u64 * 1_000_003),
                time: Timestamp(i as u64 * 777_777_777),
                pid: Pid(42 + i as u32),
                root: i % 3 == 0,
                kind,
                error: match i % 4 {
                    0 => None,
                    1 => Some(ErrorKind::NotFound),
                    2 => Some(ErrorKind::NotHoarded),
                    _ => Some(ErrorKind::Other),
                },
            })
            .collect()
    }

    #[test]
    fn binary_events_round_trip() {
        let events = all_kinds();
        for trace_id in [None, Some(0u64), Some(u64::MAX)] {
            let frame = encode_events_binary(&events, trace_id);
            assert_eq!(frame[0], BINARY_EVENTS_MAGIC);
            let mut r = frame.as_slice();
            let mut scratch = Vec::new();
            let (got, got_trace) = read_binary_events(&mut r, &mut scratch).expect("decode");
            assert_eq!(got, events);
            assert_eq!(got_trace, trace_id);
            assert!(r.is_empty(), "frame is self-delimiting");
        }
    }

    /// Lowercase hex, two digits a byte.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The frame of `all_kinds()` under trace id `0x0123_4567_89ab_cdef`,
    /// captured when the socket and the log switched to one codec: the
    /// bytes every client writes must not move.
    const ALL_KINDS_FRAME: &str = concat!(
        "b6c700000001efcdab89674523010f4000002a03000510c3843df1e4eff2022b",
        "0001002086897ae2c9dfe5052cfeffffff0f02ffffffff0f71c98db701d3aecf",
        "d8082d05028c92f401c493bfcb0b2e090713cf96b102b5f8aebe0e2f07ac0264",
        "929bee02a6dd9eb111300235d59fab0397c28ea414310698a4e80388a7fe9617",
        "32922157dba8a504f98bee891a3308289eade204eaf0ddfc1c340139e1b19f05",
        "dbd5cdef1f3501024aa4b6dc05ccbabde22236061be7ba9906bd9fadd5253706",
        "2caabfd606ae849dc8283804",
    );

    #[test]
    fn binary_frame_matches_golden_bytes() {
        let events = all_kinds();
        let frame = encode_events_binary(&events, Some(0x0123_4567_89ab_cdef));
        assert_eq!(hex(&frame), ALL_KINDS_FRAME);
        let mut scratch = Vec::new();
        let decoded = read_binary_events(&mut frame.as_slice(), &mut scratch).expect("decode");
        assert_eq!(decoded, (events, Some(0x0123_4567_89ab_cdef)));
    }

    #[test]
    fn binary_empty_batch_round_trips() {
        let frame = encode_events_binary(&[], None);
        let mut scratch = Vec::new();
        let (got, trace) = read_binary_events(&mut frame.as_slice(), &mut scratch).expect("decode");
        assert!(got.is_empty());
        assert_eq!(trace, None);
    }

    #[test]
    fn binary_torn_frames_error_cleanly() {
        let events = all_kinds();
        let frame = encode_events_binary(&events, Some(7));
        // Every possible truncation point: an I/O error (stream ended
        // mid-frame) or a format error, never a panic or a bogus decode.
        for cut in 0..frame.len() {
            let mut scratch = Vec::new();
            let err = read_binary_events(&mut &frame[..cut], &mut scratch)
                .expect_err("truncated frame must not decode");
            assert!(matches!(err, WireError::Io(_) | WireError::Format(_)));
        }
    }

    #[test]
    fn binary_corrupt_payloads_error_cleanly() {
        let events = all_kinds();
        let clean = encode_events_binary(&events, None);
        // Flipping any payload byte must never panic (most flips also
        // fail to decode, but e.g. a path-id bit flip legitimately
        // decodes to different events).
        for i in 5..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0xff;
            let mut scratch = Vec::new();
            let _ = read_binary_events(&mut bad.as_slice(), &mut scratch);
        }
        // A length prefix beyond the cap is rejected before allocating.
        let mut bad = clean;
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut scratch = Vec::new();
        assert!(matches!(
            read_binary_events(&mut bad.as_slice(), &mut scratch),
            Err(WireError::Format(_))
        ));
        // An absurd event count inside a tiny payload is rejected
        // before allocating.
        let mut tiny = vec![BINARY_EVENTS_MAGIC, 0, 0, 0, 0, 0];
        put_varint(&mut tiny, u64::MAX);
        let len = (tiny.len() - 5) as u32;
        tiny[1..5].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            read_binary_events(&mut tiny.as_slice(), &mut scratch),
            Err(WireError::Format(_))
        ));
    }

    #[test]
    fn binary_rejects_unknown_flags_and_tags() {
        let mut frame = encode_events_binary(&all_kinds(), None);
        frame[5] = 0x80; // Unknown flag bit.
        let mut scratch = Vec::new();
        assert!(matches!(
            read_binary_events(&mut frame.as_slice(), &mut scratch),
            Err(WireError::Format(_))
        ));
        // Kind nibble 13–15 are unassigned.
        assert!(matches!(
            decode_events_binary(&[0, 1, 13, 0, 0, 0]),
            Err(WireError::Format(_))
        ));
    }
}
