//! The EXMA wire format: length-prefixed binary frames over TCP.
//!
//! The workspace builds fully offline, so the protocol is hand-rolled
//! over `std::net` — no serde, no protobuf. Every frame is a fixed
//! 16-byte header followed by `payload_len` payload bytes, all integers
//! little-endian:
//!
//! ```text
//! offset  size  field
//!      0     1  magic        (0xE5)
//!      1     1  version      (2)
//!      2     1  opcode       (request 0x01-0x02, response 0x81-0x86)
//!      3     1  reserved     (0 on send, ignored on receive)
//!      4     8  request_id   (echoed verbatim on every response)
//!     12     4  payload_len  (bytes following the header + extension)
//! ```
//!
//! A QUERY header is followed by a 4-byte extension carrying
//! `deadline_us` (`u32`, `0` = no deadline) before the payload proper;
//! no other opcode has one. `payload_len` does *not* include the
//! extension. The deadline is the client's end-to-end latency budget in
//! microseconds, measured by the server from the instant the frame
//! finished arriving: a submission whose budget has already elapsed
//! when the batcher would execute it is answered with a typed LATE
//! frame (payload: `u32 elapsed_us`, `u32 budget_us`) instead of
//! burning an engine run. A header of any other version is refused as
//! unframeable.
//!
//! A QUERY payload is a [`QueryBatch`]: `u32` query count, then per
//! query a `u8` operation (`0` count, `1` locate, `2` interval,
//! `3` search-both), for locates and search-both a `u32` hit cap
//! (`0xFFFF_FFFF` = uncapped), then a `u32` pattern length and one byte
//! per base (2-bit codes `0..=3`). A RESULTS payload mirrors
//! [`QueryResults`]: `u32` query count, then per query a `u8` tag
//! (`0` count: `u32`; `1` interval: `u32` lo, `u32` hi; `2` located:
//! `u8` truncated flag, `u32` position count, that many `u32`
//! positions; `3` both-located: the located layout, each `u32` an
//! [`exma_index::bidir::encode_hit`] strand-hit —
//! `(position << 1) | strand`, `1` = reverse). The search-both kind is
//! a *payload-kind extension*, not a protocol version: the header
//! version stays 2, and clients that never send kind 3 see
//! byte-identical traffic to before. Positions arrive sorted ascending
//! (strand-hits by `(position, strand)`), so a
//! client can byte-compare a response against a locally encoded oracle
//! run — which is exactly how the loopback tests and the load
//! generator verify the server. GOAWAY frames (empty payload) answer
//! QUERYs that arrive while the server is draining for shutdown: the
//! request was *not* executed and the client should reconnect
//! elsewhere (or later).
//!
//! Decoding never panics: every malformed input surfaces as a typed
//! [`WireError`], mirroring the engine's [`exma_engine::EngineError`]
//! discipline — a bad frame becomes an ERROR response, not a dead
//! worker thread.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use exma_engine::{QueryBatch, QueryOutput, QueryRequest, QueryResults};
use exma_genome::Base;

/// First byte of every frame.
pub const MAGIC: u8 = 0xE5;
/// The one protocol version this build speaks and accepts.
pub const VERSION: u8 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Size of the deadline extension following a QUERY header.
pub const QUERY_EXT_LEN: usize = 4;
/// Default cap on `payload_len`; anything larger is rejected before
/// the payload is read, so a hostile length prefix cannot OOM the
/// server.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;
/// Wire encoding of "no hit cap" on a locate request.
pub const UNCAPPED_WIRE: u32 = u32::MAX;

/// Frame opcodes. Requests keep the high bit clear, responses set it.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Client → server: execute the enclosed [`QueryBatch`].
    Query = 0x01,
    /// Client → server: snapshot the server's cumulative counters.
    Stats = 0x02,
    /// Server → client: the batch's encoded [`QueryResults`].
    Results = 0x81,
    /// Server → client: the admission queue was full; retry later.
    /// Carries no payload — the request was *not* executed.
    Busy = 0x82,
    /// Server → client: the request could not be decoded or executed.
    /// Payload is a UTF-8 message.
    Error = 0x83,
    /// Server → client: an encoded [`StatsSnapshot`].
    StatsReply = 0x84,
    /// Server → client: the submission's deadline elapsed before the
    /// batcher could execute it. Payload is an encoded [`LateInfo`];
    /// the request was *not* executed.
    Late = 0x85,
    /// Server → client: the server is draining for shutdown and admits
    /// no new work. Carries no payload — the request was *not*
    /// executed, and no further requests on this connection will be.
    Goaway = 0x86,
}

impl Opcode {
    /// Decodes a header's opcode byte.
    pub fn from_byte(byte: u8) -> Result<Opcode, WireError> {
        match byte {
            0x01 => Ok(Opcode::Query),
            0x02 => Ok(Opcode::Stats),
            0x81 => Ok(Opcode::Results),
            0x82 => Ok(Opcode::Busy),
            0x83 => Ok(Opcode::Error),
            0x84 => Ok(Opcode::StatsReply),
            0x85 => Ok(Opcode::Late),
            0x86 => Ok(Opcode::Goaway),
            other => Err(WireError::BadOpcode { opcode: other }),
        }
    }
}

/// Why a frame or payload failed to decode.
///
/// `#[non_exhaustive]` like [`exma_engine::EngineError`]: protocol
/// evolution adds failure shapes, and out-of-crate matches must keep a
/// wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first header byte was not [`MAGIC`] — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic {
        /// The byte received.
        byte: u8,
    },
    /// The peer speaks a protocol version this build does not.
    BadVersion {
        /// The version received.
        version: u8,
    },
    /// An opcode byte outside the defined set.
    BadOpcode {
        /// The byte received.
        opcode: u8,
    },
    /// `payload_len` exceeded the configured frame cap.
    Oversized {
        /// The announced payload length.
        len: u32,
        /// The configured cap.
        max: usize,
    },
    /// The payload ended before a field it announced.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes left in the payload.
        got: usize,
    },
    /// The payload continued past its last announced field.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A batch announced more queries than the server admits per frame.
    TooManyQueries {
        /// The announced count.
        queries: u32,
        /// The configured per-frame cap.
        max: usize,
    },
    /// An operation byte outside `0..=3` in a QUERY payload.
    BadRequestKind {
        /// The byte received.
        kind: u8,
    },
    /// A pattern byte outside the 2-bit base codes `0..=3`.
    BadBase {
        /// The byte received.
        byte: u8,
    },
    /// A [`QueryRequest`] shape this protocol version cannot encode —
    /// the wildcard arm the engine's `#[non_exhaustive]` request enum
    /// demands.
    UnsupportedRequest,
    /// A both-strand query (kind 3) reached a server whose index only
    /// covers the forward strand. Answering it would return
    /// deterministic nonsense — the coordinate mapping classifies
    /// against a half boundary a forward-only index does not have —
    /// so the server refuses at the payload level and keeps the
    /// connection.
    NotBidirectional,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::BadMagic { byte } => {
                write!(f, "bad magic byte {byte:#04x}, expected {MAGIC:#04x}")
            }
            WireError::BadVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version}, this build speaks {VERSION}"
                )
            }
            WireError::BadOpcode { opcode } => write!(f, "unknown opcode {opcode:#04x}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte frame cap")
            }
            WireError::Truncated { needed, got } => {
                write!(
                    f,
                    "payload truncated: next field needs {needed} bytes, {got} left"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes left over after the payload's last field")
            }
            WireError::TooManyQueries { queries, max } => {
                write!(
                    f,
                    "batch of {queries} queries exceeds the {max}-query frame cap"
                )
            }
            WireError::BadRequestKind { kind } => {
                write!(f, "unknown request kind {kind}, expected 0..=3")
            }
            WireError::BadBase { byte } => {
                write!(f, "pattern byte {byte} is not a 2-bit base code")
            }
            WireError::UnsupportedRequest => {
                write!(
                    f,
                    "request shape not encodable at protocol version {VERSION}"
                )
            }
            WireError::NotBidirectional => {
                write!(
                    f,
                    "both-strand query (kind 3) needs a bidirectional server; \
                     this index covers the forward strand only"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame header. The opcode stays a raw byte so a receiver
/// can skip the payload of an unknown opcode (its length is still
/// trustworthy) and answer with an ERROR frame instead of losing
/// stream sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The raw opcode byte; validate with [`Opcode::from_byte`].
    pub opcode: u8,
    /// Client-chosen id, echoed on the matching response.
    pub request_id: u64,
    /// Payload bytes following the header (and extension, if any).
    pub payload_len: u32,
}

impl FrameHeader {
    /// `true` iff a [`QUERY_EXT_LEN`]-byte deadline extension follows
    /// this header before the payload — QUERY frames only.
    pub fn has_deadline_ext(&self) -> bool {
        self.opcode == Opcode::Query as u8
    }
}

/// Serializes a header into `HEADER_LEN` bytes. The caller of a QUERY
/// frame must append the deadline extension itself (or use
/// [`query_frame`], which does).
pub fn encode_header(opcode: Opcode, request_id: u64, payload_len: u32) -> [u8; HEADER_LEN] {
    let mut bytes = [0u8; HEADER_LEN];
    bytes[0] = MAGIC;
    bytes[1] = VERSION;
    bytes[2] = opcode as u8;
    bytes[4..12].copy_from_slice(&request_id.to_le_bytes());
    bytes[12..16].copy_from_slice(&payload_len.to_le_bytes());
    bytes
}

/// Deserializes and validates a header (magic, version, frame cap).
pub fn decode_header(
    bytes: &[u8; HEADER_LEN],
    max_frame_len: usize,
) -> Result<FrameHeader, WireError> {
    if bytes[0] != MAGIC {
        return Err(WireError::BadMagic { byte: bytes[0] });
    }
    if bytes[1] != VERSION {
        return Err(WireError::BadVersion { version: bytes[1] });
    }
    let payload_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if payload_len as usize > max_frame_len {
        return Err(WireError::Oversized {
            len: payload_len,
            max: max_frame_len,
        });
    }
    Ok(FrameHeader {
        opcode: bytes[2],
        request_id: u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")),
        payload_len,
    })
}

/// A whole frame — header, then payload — ready for a single
/// `write_all`. QUERY frames get a zeroed (no-deadline) extension; use
/// [`query_frame`] to set one.
pub fn frame(opcode: Opcode, request_id: u64, payload: &[u8]) -> Vec<u8> {
    if opcode == Opcode::Query {
        return query_frame(request_id, 0, payload);
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&encode_header(opcode, request_id, payload.len() as u32));
    out.extend_from_slice(payload);
    out
}

/// A QUERY frame carrying `deadline_us` (`0` = no deadline) in the
/// header's extension bytes.
pub fn query_frame(request_id: u64, deadline_us: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + QUERY_EXT_LEN + payload.len());
    out.extend_from_slice(&encode_header(
        Opcode::Query,
        request_id,
        payload.len() as u32,
    ));
    out.extend_from_slice(&deadline_us.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The LATE response payload: how far past its budget a submission was
/// when the batcher triaged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LateInfo {
    /// Microseconds between the frame's arrival and the triage that
    /// dropped it (saturating).
    pub elapsed_us: u32,
    /// The effective budget that was exceeded: the client's
    /// `deadline_us` clamped to the server's `--default-deadline-us`
    /// ceiling, whichever is tighter.
    pub budget_us: u32,
}

/// Appends a LATE payload to `buf`.
pub fn encode_late(info: LateInfo, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&info.elapsed_us.to_le_bytes());
    buf.extend_from_slice(&info.budget_us.to_le_bytes());
}

/// Decodes a LATE payload.
pub fn decode_late(payload: &[u8]) -> Result<LateInfo, WireError> {
    let mut cursor = Cursor::new(payload);
    let info = LateInfo {
        elapsed_us: cursor.u32()?,
        budget_us: cursor.u32()?,
    };
    cursor.finish()?;
    Ok(info)
}

/// Little-endian payload reader that turns every overrun into a typed
/// [`WireError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let got = self.bytes.len() - self.pos;
        if got < n {
            return Err(WireError::Truncated { needed: n, got });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn finish(self) -> Result<(), WireError> {
        let extra = self.bytes.len() - self.pos;
        if extra > 0 {
            return Err(WireError::TrailingBytes { extra });
        }
        Ok(())
    }
}

/// Request-kind bytes of a QUERY payload.
const KIND_COUNT: u8 = 0;
const KIND_LOCATE: u8 = 1;
const KIND_INTERVAL: u8 = 2;
const KIND_SEARCH_BOTH: u8 = 3;

/// Result-tag bytes of a RESULTS payload.
const TAG_COUNT: u8 = 0;
const TAG_INTERVAL: u8 = 1;
const TAG_LOCATED: u8 = 2;
const TAG_BOTH_LOCATED: u8 = 3;

/// Appends a QUERY payload encoding `batch` to `buf`.
///
/// # Errors
///
/// [`WireError::UnsupportedRequest`] for request shapes newer than
/// this protocol version.
pub fn encode_query_batch(batch: &QueryBatch, buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for i in 0..batch.len() {
        match batch.request(i) {
            QueryRequest::Count => buf.push(KIND_COUNT),
            QueryRequest::Locate { max_hits } => {
                buf.push(KIND_LOCATE);
                buf.extend_from_slice(&max_hits.unwrap_or(UNCAPPED_WIRE).to_le_bytes());
            }
            QueryRequest::Interval => buf.push(KIND_INTERVAL),
            QueryRequest::SearchBoth { max_hits } => {
                buf.push(KIND_SEARCH_BOTH);
                buf.extend_from_slice(&max_hits.unwrap_or(UNCAPPED_WIRE).to_le_bytes());
            }
            _ => return Err(WireError::UnsupportedRequest),
        }
        let pattern = batch.pattern(i);
        buf.extend_from_slice(&(pattern.len() as u32).to_le_bytes());
        buf.extend(pattern.iter().map(|b| b.code()));
    }
    Ok(())
}

/// Decodes a QUERY payload into a [`QueryBatch`].
///
/// `max_queries` bounds the per-frame batch size (checked before any
/// allocation sized by the announced count), and `max_hits_ceiling`
/// clamps every locate's hit cap — the server's resolution-budget
/// knob: a deadline-conscious deployment caps how much resolver work
/// any one query can demand, and uncapped locates inherit the ceiling.
pub fn decode_query_batch(
    payload: &[u8],
    max_queries: usize,
    max_hits_ceiling: Option<u32>,
) -> Result<QueryBatch, WireError> {
    let mut cursor = Cursor::new(payload);
    let n = cursor.u32()?;
    if n as usize > max_queries {
        return Err(WireError::TooManyQueries {
            queries: n,
            max: max_queries,
        });
    }
    let mut batch = QueryBatch::new();
    let mut pattern = Vec::new();
    for _ in 0..n {
        let request = match cursor.u8()? {
            KIND_COUNT => QueryRequest::Count,
            KIND_LOCATE => QueryRequest::Locate {
                max_hits: clamp_hits(cursor.u32()?, max_hits_ceiling),
            },
            KIND_INTERVAL => QueryRequest::Interval,
            // Strand-agnostic hits cost the same resolver budget as
            // locates, so the ceiling clamps them identically.
            KIND_SEARCH_BOTH => QueryRequest::SearchBoth {
                max_hits: clamp_hits(cursor.u32()?, max_hits_ceiling),
            },
            kind => return Err(WireError::BadRequestKind { kind }),
        };
        let len = cursor.u32()? as usize;
        pattern.clear();
        for &byte in cursor.take(len)? {
            if byte > 3 {
                return Err(WireError::BadBase { byte });
            }
            pattern.push(Base::from_code(byte));
        }
        batch.push(request, &pattern);
    }
    cursor.finish()?;
    Ok(batch)
}

/// A wire hit cap clamped to the server's ceiling: an uncapped request
/// inherits the ceiling, a tighter cap survives.
fn clamp_hits(cap: u32, ceiling: Option<u32>) -> Option<u32> {
    match ((cap != UNCAPPED_WIRE).then_some(cap), ceiling) {
        (Some(c), Some(ceiling)) => Some(c.min(ceiling)),
        (requested, ceiling) => requested.or(ceiling),
    }
}

/// Appends a RESULTS payload for queries `lo..hi` of pooled `results`
/// to `buf` — the split half of continuous batching: the batcher
/// encodes each client's slice of the merged run straight out of the
/// shared pool, no per-client result copies.
pub fn encode_results_range(results: &QueryResults, lo: usize, hi: usize, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&((hi - lo) as u32).to_le_bytes());
    for i in lo..hi {
        match results.output(i) {
            QueryOutput::Count(n) => {
                buf.push(TAG_COUNT);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            QueryOutput::Interval { lo: start, hi: end } => {
                buf.push(TAG_INTERVAL);
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&end.to_le_bytes());
            }
            QueryOutput::Located { truncated } => {
                buf.push(TAG_LOCATED);
                buf.push(u8::from(truncated));
                let positions = results.positions(i);
                buf.extend_from_slice(&(positions.len() as u32).to_le_bytes());
                for &p in positions {
                    buf.extend_from_slice(&p.to_le_bytes());
                }
            }
            QueryOutput::BothLocated { truncated } => {
                buf.push(TAG_BOTH_LOCATED);
                buf.push(u8::from(truncated));
                let hits = results.positions(i);
                buf.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                for &h in hits {
                    buf.extend_from_slice(&h.to_le_bytes());
                }
            }
        }
    }
}

/// One client-visible answer of a decoded RESULTS payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutput {
    /// A count query's occurrence count.
    Count(u32),
    /// An interval query's suffix-array interval.
    Interval {
        /// First row.
        lo: u32,
        /// One past the last row.
        hi: u32,
    },
    /// A locate query's positions (sorted ascending) and whether a hit
    /// cap truncated them.
    Located {
        /// The kept positions.
        positions: Vec<u32>,
        /// `true` iff `max_hits` cut the list short.
        truncated: bool,
    },
    /// A search-both query's encoded strand-hits
    /// (`(position << 1) | strand`, sorted by `(position, strand)`) and
    /// whether a hit cap truncated them. Decode each with
    /// [`exma_index::bidir::decode_hit`].
    BothLocated {
        /// The kept encoded strand-hits.
        hits: Vec<u32>,
        /// `true` iff `max_hits` cut the list short.
        truncated: bool,
    },
}

/// Decodes a RESULTS payload.
pub fn decode_results(payload: &[u8]) -> Result<Vec<WireOutput>, WireError> {
    let mut cursor = Cursor::new(payload);
    let n = cursor.u32()?;
    let mut outputs = Vec::new();
    for _ in 0..n {
        outputs.push(match cursor.u8()? {
            TAG_COUNT => WireOutput::Count(cursor.u32()?),
            TAG_INTERVAL => WireOutput::Interval {
                lo: cursor.u32()?,
                hi: cursor.u32()?,
            },
            TAG_LOCATED => {
                let truncated = cursor.u8()? != 0;
                let count = cursor.u32()? as usize;
                let mut positions = Vec::with_capacity(count.min(payload.len() / 4));
                for _ in 0..count {
                    positions.push(cursor.u32()?);
                }
                WireOutput::Located {
                    positions,
                    truncated,
                }
            }
            TAG_BOTH_LOCATED => {
                let truncated = cursor.u8()? != 0;
                let count = cursor.u32()? as usize;
                let mut hits = Vec::with_capacity(count.min(payload.len() / 4));
                for _ in 0..count {
                    hits.push(cursor.u32()?);
                }
                WireOutput::BothLocated { hits, truncated }
            }
            kind => return Err(WireError::BadRequestKind { kind }),
        });
    }
    cursor.finish()?;
    Ok(outputs)
}

/// Declares the STATS counters: [`StatsSnapshot`] (`u64` fields),
/// [`ServerStats`] (the same fields as `AtomicU64`s), the copy from one
/// to the other, and the wire order both `encode_stats` and
/// `decode_stats` use, all from one list. List order *is* wire order.
macro_rules! stats_counters {
    ($($(#[$doc:meta])+ $name:ident,)+) => {
        /// A point-in-time copy of the server's cumulative counters, as
        /// carried by a STATS_REPLY payload. Clients sample twice and
        /// diff — the benchmark's `serve_small` workload derives its
        /// coalescing metrics from exactly such deltas.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])+ pub $name: u64,)+
        }

        /// Cumulative server counters, shared across connection
        /// threads; the live side of [`StatsSnapshot`]. Relaxed
        /// ordering throughout: monitoring, not synchronization.
        #[derive(Debug, Default)]
        pub struct ServerStats {
            $($(#[$doc])+ pub $name: AtomicU64,)+
        }

        impl ServerStats {
            /// A point-in-time copy, as sent in a STATS_REPLY frame.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        /// How many counters a STATS_REPLY carries.
        const STATS_FIELDS: usize = [$(stringify!($name)),+].len();

        impl StatsSnapshot {
            /// The snapshot's fields in wire order.
            fn fields(&self) -> [u64; STATS_FIELDS] {
                [$(self.$name),+]
            }

            /// The inverse of [`Self::fields`].
            fn from_fields(fields: [u64; STATS_FIELDS]) -> StatsSnapshot {
                let [$($name),+] = fields;
                StatsSnapshot { $($name),+ }
            }
        }
    };
}

// Every STATS counter, in wire order. A new counter appends at the end:
// the count-prefixed encoding lets older clients keep reading the prefix
// they know.
stats_counters! {
    /// Connections accepted since startup.
    connections,
    /// QUERY submissions admitted to the batching queue.
    submissions_admitted,
    /// QUERY submissions bounced with BUSY (queue full).
    submissions_busy,
    /// Frames rejected with ERROR (malformed payloads included).
    errors,
    /// Merged engine runs the batcher executed.
    batches_run,
    /// Client submissions coalesced across all merged runs
    /// (`/ batches_run` = the mean coalescing factor).
    submissions_coalesced,
    /// Most submissions ever merged into one engine run.
    max_coalesced,
    /// Queries executed across all merged runs.
    queries_executed,
    /// Located positions returned across all merged runs.
    positions_returned,
    /// Lockstep search rounds across all merged runs.
    search_rounds,
    /// Lockstep resolver rounds across all merged runs.
    resolve_rounds,
    /// Submissions sitting in the admission queue right now.
    queue_depth,
    /// Total heap bytes of the served index (set once at startup; the
    /// seven fields below are its exact per-component attribution and
    /// always sum to this total).
    heap_total,
    /// k-mer checkpoint rows: the sparse absolute superblock rows.
    heap_k_occ_checkpoints,
    /// Per-block `u16` k-mer delta rows.
    heap_k_occ_deltas,
    /// Per-row k-mer code lanes and totals.
    heap_k_occ_codes,
    /// The 1-step occurrence table, checkpoints and symbols.
    heap_one_step_occ,
    /// Sampled suffix-array positions.
    heap_sa_samples,
    /// Always 0 (the sampled rows are marked in the occurrence lines);
    /// kept so every field offset behind it stays as clients read it.
    heap_rank_bits,
    /// Everything else: k-mer interval starts, the marker rows, and — all
    /// but a few kilobytes of it — the 2-bit copy of the text (a quarter
    /// of a byte a base) and the K-mer lookup table (4.19 MB at K = 10).
    heap_other,
    /// Submissions dropped with a LATE response: their deadline
    /// elapsed before the batcher could execute them.
    late_dropped,
    /// Response frames shed because a connection's bounded writer
    /// queue overflowed (the connection is disconnected alongside).
    writer_shed,
    /// Connections reaped by the read/idle timeout.
    conns_reaped,
    /// QUERY submissions answered GOAWAY during shutdown drain.
    goaway_sent,
    /// 1 when this process warm-started from a verified snapshot
    /// (the index was loaded, not rebuilt).
    snapshot_loaded,
    /// Snapshot files rejected at startup (corruption, truncation,
    /// stale version, layout or reference mismatch), each followed by
    /// a cold rebuild.
    snapshot_rejected,
    /// 1 when the served index is bidirectional (doubled-text,
    /// strand-agnostic search enabled), 0 for forward-only.
    bidir_enabled,
    /// Length in symbols of the text the index actually holds —
    /// `2n + 1` for a bidirectional index over an `n`-base reference,
    /// the reference's sentinel-terminated length otherwise. Paired
    /// with `bidir_enabled` so a client can report the doubled-text
    /// cost without knowing the genome.
    bidir_text_len,
    /// Nanoseconds between a QUERY frame being fully read and its
    /// engine run starting (queueing and the linger window), summed
    /// over `replies_timed`.
    queue_wait_ns,
    /// Nanoseconds inside the engine, summed the same way; a merged
    /// run counts once for each submission it answered.
    engine_ns,
    /// Nanoseconds between the engine run ending and the RESULTS
    /// frame's socket write returning, summed the same way.
    reply_ns,
    /// RESULTS frames written: divide the three sums above by this
    /// for the mean server-side share of a request's latency.
    replies_timed,
    /// Bytes of the server process's anonymous memory the kernel backed
    /// with transparent huge pages when the index became ready
    /// (`AnonHugePages` of `/proc/self/smaps_rollup`, read once; 0 where
    /// it cannot be read). Against `heap_total` it says whether the
    /// occurrence tables' huge-page hint was granted.
    heap_huge_bytes,
}

/// Appends a STATS_REPLY payload to `buf`: a `u32` field count, then
/// that many `u64` counters. The explicit count lets a newer server
/// append counters without breaking older clients, which read the
/// prefix they know.
pub fn encode_stats(stats: &StatsSnapshot, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(STATS_FIELDS as u32).to_le_bytes());
    for field in stats.fields() {
        buf.extend_from_slice(&field.to_le_bytes());
    }
}

/// Decodes a STATS_REPLY payload, tolerating counters appended by
/// newer servers.
pub fn decode_stats(payload: &[u8]) -> Result<StatsSnapshot, WireError> {
    let mut cursor = Cursor::new(payload);
    let announced = cursor.u32()? as usize;
    if announced < STATS_FIELDS {
        return Err(WireError::Truncated {
            needed: STATS_FIELDS * 8,
            got: announced * 8,
        });
    }
    let mut fields = [0; STATS_FIELDS];
    for field in &mut fields {
        *field = u64::from_le_bytes(cursor.take(8)?.try_into().expect("8 bytes"));
    }
    for _ in STATS_FIELDS..announced {
        cursor.take(8)?;
    }
    cursor.finish()?;
    Ok(StatsSnapshot::from_fields(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::alphabet::parse_bases;

    fn sample_batch() -> QueryBatch {
        let base = |s: &str| parse_bases(s).unwrap();
        QueryBatch::new()
            .count(base("ACGT"))
            .locate(base("GG"))
            .locate_capped(base("T"), 7)
            .interval(base(""))
    }

    fn sample_both_batch() -> QueryBatch {
        let base = |s: &str| parse_bases(s).unwrap();
        QueryBatch::new()
            .search_both(base("CATA"))
            .search_both_capped(base("A"), 7)
            .locate(base("GA"))
            .count(base("TAG"))
    }

    #[test]
    fn search_both_requests_round_trip_and_clamp_like_locates() {
        let batch = sample_both_batch();
        let mut payload = Vec::new();
        encode_query_batch(&batch, &mut payload).unwrap();
        assert_eq!(decode_query_batch(&payload, 4096, None).unwrap(), batch);

        let clamped = decode_query_batch(&payload, 4096, Some(5)).unwrap();
        assert_eq!(clamped.request(0), QueryRequest::search_both_capped(5));
        assert_eq!(clamped.request(1), QueryRequest::search_both_capped(5));
        let loose = decode_query_batch(&payload, 4096, Some(1000)).unwrap();
        assert_eq!(loose.request(0), QueryRequest::search_both_capped(1000));
        assert_eq!(loose.request(1), QueryRequest::search_both_capped(7));
    }

    #[test]
    fn search_both_results_round_trip_with_strand_bits() {
        use exma_engine::EngineBuilder;
        use exma_genome::genome::text_from_str;
        use exma_index::bidir::{decode_hit, Strand};

        let text = text_from_str("CATAGACATAGA").unwrap();
        let builder = EngineBuilder::new().k(2).bidirectional(true);
        let index = builder.build_index(&text).unwrap();
        let engine = builder.attach(&index).unwrap();
        let batch = sample_both_batch();
        let (results, _) = engine.run(&batch);

        let mut payload = Vec::new();
        encode_results_range(&results, 0, results.len(), &mut payload);
        let outputs = decode_results(&payload).unwrap();
        match &outputs[0] {
            WireOutput::BothLocated { hits, truncated } => {
                assert!(!truncated);
                assert_eq!(&hits[..], results.positions(0));
                // "CATA" occurs forward at 0 and 6; its revcomp "TATG"
                // does not occur — forward tags only here.
                let decoded: Vec<(u32, Strand)> = hits.iter().map(|&h| decode_hit(h)).collect();
                assert_eq!(decoded, vec![(0, Strand::Forward), (6, Strand::Forward)]);
            }
            other => panic!("expected BothLocated, got {other:?}"),
        }
        assert!(matches!(
            &outputs[1],
            WireOutput::BothLocated { hits, .. } if !hits.is_empty()
        ));
        // Plain requests on the same wire keep their plain tags.
        assert!(matches!(&outputs[2], WireOutput::Located { .. }));
        assert!(matches!(&outputs[3], WireOutput::Count(_)));
    }

    #[test]
    fn header_round_trips() {
        let bytes = encode_header(Opcode::Query, 0xDEAD_BEEF_0042, 96);
        let header = decode_header(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(header.opcode, Opcode::Query as u8);
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Query));
        assert_eq!(header.request_id, 0xDEAD_BEEF_0042);
        assert_eq!(header.payload_len, 96);
        assert!(header.has_deadline_ext());
        // Responses never carry the extension.
        let bytes = encode_header(Opcode::Results, 7, 12);
        let header = decode_header(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(!header.has_deadline_ext());
    }

    #[test]
    fn query_frame_places_the_deadline_in_the_extension_bytes() {
        let built = query_frame(9, 1500, b"pp");
        assert_eq!(built.len(), HEADER_LEN + QUERY_EXT_LEN + 2);
        let header = decode_header(
            built[..HEADER_LEN].try_into().unwrap(),
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        assert!(header.has_deadline_ext());
        assert_eq!(header.payload_len, 2, "extension is not payload");
        let ext: [u8; QUERY_EXT_LEN] = built[HEADER_LEN..HEADER_LEN + QUERY_EXT_LEN]
            .try_into()
            .unwrap();
        assert_eq!(u32::from_le_bytes(ext), 1500);
        assert_eq!(&built[HEADER_LEN + QUERY_EXT_LEN..], b"pp");
        // The generic builder zeroes the extension (no deadline).
        assert_eq!(frame(Opcode::Query, 9, b"pp")[HEADER_LEN..][..4], [0; 4]);
    }

    #[test]
    fn late_info_round_trips_and_rejects_short_payloads() {
        let info = LateInfo {
            elapsed_us: 2_000_000,
            budget_us: 1_000,
        };
        let mut payload = Vec::new();
        encode_late(info, &mut payload);
        assert_eq!(decode_late(&payload).unwrap(), info);
        assert_eq!(
            decode_late(&payload[..5]),
            Err(WireError::Truncated { needed: 4, got: 1 })
        );
        payload.push(0);
        assert_eq!(
            decode_late(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn header_rejects_magic_version_and_oversize() {
        let good = encode_header(Opcode::Query, 1, 64);
        let mut bad = good;
        bad[0] = 0x00;
        assert_eq!(
            decode_header(&bad, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::BadMagic { byte: 0 })
        );
        for version in [0, 1, 9] {
            let mut bad = good;
            bad[1] = version;
            assert_eq!(
                decode_header(&bad, DEFAULT_MAX_FRAME_LEN),
                Err(WireError::BadVersion { version })
            );
        }
        assert_eq!(
            decode_header(&good, 10),
            Err(WireError::Oversized { len: 64, max: 10 })
        );
        // Unknown opcodes survive header decode (the receiver must be
        // able to skip the payload) but fail opcode validation.
        let mut unknown = good;
        unknown[2] = 0x7F;
        let header = decode_header(&unknown, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(
            Opcode::from_byte(header.opcode),
            Err(WireError::BadOpcode { opcode: 0x7F })
        );
    }

    #[test]
    fn query_batch_round_trips() {
        let batch = sample_batch();
        let mut payload = Vec::new();
        encode_query_batch(&batch, &mut payload).unwrap();
        let decoded = decode_query_batch(&payload, 4096, None).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn decode_clamps_locate_caps_to_the_ceiling() {
        let mut payload = Vec::new();
        encode_query_batch(&sample_batch(), &mut payload).unwrap();
        let decoded = decode_query_batch(&payload, 4096, Some(5)).unwrap();
        // Uncapped locates inherit the ceiling; tighter caps survive.
        assert_eq!(decoded.request(1), QueryRequest::locate_capped(5));
        assert_eq!(decoded.request(2), QueryRequest::locate_capped(5));
        let loose = decode_query_batch(&payload, 4096, Some(1000)).unwrap();
        assert_eq!(loose.request(2), QueryRequest::locate_capped(7));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let mut payload = Vec::new();
        encode_query_batch(&sample_batch(), &mut payload).unwrap();

        assert_eq!(
            decode_query_batch(&payload, 2, None),
            Err(WireError::TooManyQueries { queries: 4, max: 2 })
        );
        // Dropping the final byte cuts the last query's length field.
        assert_eq!(
            decode_query_batch(&payload[..payload.len() - 1], 4096, None),
            Err(WireError::Truncated { needed: 4, got: 3 })
        );
        let mut trailing = payload.clone();
        trailing.push(0);
        assert_eq!(
            decode_query_batch(&trailing, 4096, None),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        let mut bad_kind = payload.clone();
        bad_kind[4] = 9; // first query's kind byte
        assert_eq!(
            decode_query_batch(&bad_kind, 4096, None),
            Err(WireError::BadRequestKind { kind: 9 })
        );
        let mut bad_base = payload.clone();
        bad_base[9] = 200; // first base of the first pattern
        assert_eq!(
            decode_query_batch(&bad_base, 4096, None),
            Err(WireError::BadBase { byte: 200 })
        );
        // A count that promises more queries than the bytes deliver.
        let mut short = Vec::new();
        short.extend_from_slice(&100u32.to_le_bytes());
        short.push(KIND_COUNT);
        assert!(matches!(
            decode_query_batch(&short, 4096, None),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn results_round_trip_through_the_pool() {
        use exma_engine::EngineBuilder;
        use exma_genome::genome::text_from_str;

        let text = text_from_str("CATAGACATAGA").unwrap();
        let builder = EngineBuilder::new().k(2);
        let index = builder.build_index(&text).unwrap();
        let engine = builder.attach(&index).unwrap();
        let batch = sample_batch();
        let (results, _) = engine.run(&batch);

        let mut full = Vec::new();
        encode_results_range(&results, 0, results.len(), &mut full);
        let outputs = decode_results(&full).unwrap();
        assert_eq!(outputs.len(), results.len());
        for (i, output) in outputs.iter().enumerate() {
            match output {
                WireOutput::Count(n) => assert_eq!(*n as usize, results.count(i)),
                WireOutput::Interval { lo, hi } => {
                    assert_eq!(results.interval(i), Some(*lo as usize..*hi as usize))
                }
                WireOutput::Located { positions, .. }
                | WireOutput::BothLocated {
                    hits: positions, ..
                } => {
                    assert_eq!(&positions[..], results.positions(i))
                }
            }
        }

        // Range encoding splits the pool exactly where the offsets say.
        let mut head = Vec::new();
        let mut tail = Vec::new();
        encode_results_range(&results, 0, 2, &mut head);
        encode_results_range(&results, 2, results.len(), &mut tail);
        assert_eq!(decode_results(&head).unwrap(), outputs[..2].to_vec());
        assert_eq!(decode_results(&tail).unwrap(), outputs[2..].to_vec());
    }

    #[test]
    fn stats_round_trip_and_tolerate_future_fields() {
        let stats = StatsSnapshot {
            connections: 3,
            submissions_admitted: 100,
            submissions_busy: 7,
            errors: 5,
            batches_run: 20,
            submissions_coalesced: 98,
            max_coalesced: 12,
            queries_executed: 800,
            positions_returned: 5000,
            search_rounds: 90,
            resolve_rounds: 40,
            queue_depth: 14,
            heap_total: 382,
            heap_k_occ_checkpoints: 80,
            heap_k_occ_deltas: 41,
            heap_k_occ_codes: 93,
            heap_one_step_occ: 61,
            heap_sa_samples: 57,
            heap_rank_bits: 33,
            heap_other: 17,
            late_dropped: 11,
            writer_shed: 21,
            conns_reaped: 4,
            goaway_sent: 6,
            snapshot_loaded: 0,
            snapshot_rejected: 2,
            bidir_enabled: 1,
            bidir_text_len: 20_001,
            queue_wait_ns: 70_000,
            engine_ns: 340_000,
            reply_ns: 60_000,
            replies_timed: 10,
            heap_huge_bytes: 32 << 20,
        };
        // The wire order, written out independently of the declaring
        // list: reordering that list must fail here, not round-trip.
        let wire_order = [
            stats.connections,
            stats.submissions_admitted,
            stats.submissions_busy,
            stats.errors,
            stats.batches_run,
            stats.submissions_coalesced,
            stats.max_coalesced,
            stats.queries_executed,
            stats.positions_returned,
            stats.search_rounds,
            stats.resolve_rounds,
            stats.queue_depth,
            stats.heap_total,
            stats.heap_k_occ_checkpoints,
            stats.heap_k_occ_deltas,
            stats.heap_k_occ_codes,
            stats.heap_one_step_occ,
            stats.heap_sa_samples,
            stats.heap_rank_bits,
            stats.heap_other,
            stats.late_dropped,
            stats.writer_shed,
            stats.conns_reaped,
            stats.goaway_sent,
            stats.snapshot_loaded,
            stats.snapshot_rejected,
            stats.bidir_enabled,
            stats.bidir_text_len,
            stats.queue_wait_ns,
            stats.engine_ns,
            stats.reply_ns,
            stats.replies_timed,
            stats.heap_huge_bytes,
        ];
        let mut distinct = wire_order.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            STATS_FIELDS,
            "values must tell fields apart"
        );

        let mut payload = Vec::new();
        encode_stats(&stats, &mut payload);
        assert_eq!(payload.len(), 4 + STATS_FIELDS * 8);
        assert_eq!(payload[..4], (STATS_FIELDS as u32).to_le_bytes());
        for (i, value) in wire_order.into_iter().enumerate() {
            let at = 4 + 8 * i;
            assert_eq!(
                payload[at..at + 8],
                value.to_le_bytes(),
                "field {i} out of wire order"
            );
        }
        assert_eq!(decode_stats(&payload).unwrap(), stats);

        // A newer server appending a counter still decodes.
        let mut extended = payload.clone();
        extended[0..4].copy_from_slice(&(STATS_FIELDS as u32 + 1).to_le_bytes());
        extended.extend_from_slice(&999u64.to_le_bytes());
        assert_eq!(decode_stats(&extended).unwrap(), stats);
        assert!(decode_stats(&payload[..8]).is_err());
    }

    #[test]
    fn frame_concatenates_header_and_payload() {
        let built = frame(Opcode::Error, 42, b"boom");
        assert_eq!(built.len(), HEADER_LEN + 4);
        let header = decode_header(
            built[..HEADER_LEN].try_into().unwrap(),
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        assert_eq!(header.request_id, 42);
        assert_eq!(&built[HEADER_LEN..], b"boom");
    }
}
