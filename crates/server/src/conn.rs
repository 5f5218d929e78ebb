//! Per-connection frame handling: read → decode → admit → maybe lead,
//! plus a dedicated writer thread.
//!
//! Each accepted connection gets two threads. The *reader* owns the
//! request half. One wake of it is one `read` into the connection's
//! buffer; it decodes **every complete frame already received**,
//! stamps their arrival time and effective deadline budget, and admits
//! the QUERYs to the shared `Dispatcher` — a full queue answers BUSY
//! immediately instead of blocking the socket. Only then does it try
//! for the leader token: a pipelined burst is admitted whole before
//! anyone runs the engine, so it executes as one batch (or overflows
//! the queue and is told so), not as one engine pass per frame. The
//! *writer* owns the response half: it drains a **bounded** channel of
//! pre-encoded frames into the socket, so a leader never blocks on a
//! slow client's TCP window. When that channel overflows — a client
//! reading slower than it asks — the frame is counted as shed and the
//! connection is torn down: a slow reader costs one bounded buffer,
//! never unbounded memory.
//!
//! Nothing polls. The socket's read timeout *is* the idle timeout, so
//! a peer silent for that long (mid-frame counts) is *reaped*; the
//! writer blocks in `recv` until the last sender of its channel drops;
//! and whoever declares the connection dead — a shed, a failed or
//! timed-out write — shuts the socket down both ways, which wakes the
//! reader in `read` and the writer in `write_all` at once. A draining
//! server wakes readers the same way, with `Shutdown::Read`.
//!
//! Because responses are produced by two parties (the reader answers
//! BUSY/ERROR/GOAWAY/STATS_REPLY itself; a leader produces RESULTS
//! and LATE), responses are *not* globally ordered: a BUSY for a later
//! request can overtake the RESULTS of an earlier one. Every response
//! echoes its request id, and clients match by id, never by arrival
//! order.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{Executor, QueryRequest};

use crate::batcher::{Dispatcher, Submission};
use crate::wire::{self, Opcode, ServerStats, WireError, HEADER_LEN, QUERY_EXT_LEN};
use crate::{ServerConfig, MAX_BATCH_QUERIES};

/// How long one `write_all` may stall on a clogged client socket
/// before the writer declares the connection dead: the bound on what a
/// peer that stops draining its receive window can pin.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The reader's buffer: the most one `read` takes, short of a larger frame.
const READ_BUFFER: usize = 64 << 10;

/// The instants a RESULTS frame carries to the writer — its request
/// fully read, its engine run begun and ended — which become the stage
/// durations STATS reports once the frame is on the socket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamps {
    pub arrival: Instant,
    pub engine_start: Instant,
    pub engine_end: Instant,
}

/// What a connection's two threads and its reply handles share.
struct ConnState {
    /// Set once a frame was shed or a write failed.
    dead: AtomicBool,
    /// A handle on the socket, for shutting it down from any thread.
    socket: TcpStream,
}

impl ConnState {
    /// Declares the connection dead and wakes both of its threads.
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

/// The sending half of a connection's writer queue: a bounded
/// `try_send` that converts overflow into a counted shed plus a dead
/// connection, never into blocking or unbounded buffering.
#[derive(Clone)]
pub(crate) struct ReplyHandle {
    tx: SyncSender<(Vec<u8>, Option<Stamps>)>,
    conn: Arc<ConnState>,
}

impl ReplyHandle {
    /// Enqueues one pre-encoded frame — a RESULTS frame with the
    /// `stamps` the writer reports once it is written. On overflow the
    /// frame is dropped, the shed is counted, and the connection is
    /// shut down. Sends to an already-dead or hung-up connection are
    /// ignored: the work is done, the client just stopped listening.
    pub fn send(&self, frame: Vec<u8>, stamps: Option<Stamps>, stats: &ServerStats) {
        if self.is_dead() {
            return;
        }
        if let Err(TrySendError::Full(_)) = self.tx.try_send((frame, stamps)) {
            stats.writer_shed.fetch_add(1, Ordering::Relaxed);
            self.conn.kill();
        }
    }

    /// `true` once the connection shed a frame or its socket failed;
    /// a leader skips executing submissions whose reply can no longer
    /// be delivered.
    pub fn is_dead(&self) -> bool {
        self.conn.dead.load(Ordering::Relaxed)
    }
}

/// The accept-time socket set-up: replies leave as they are written
/// (no Nagle delay behind an un-ACKed predecessor), a read blocks for
/// at most the idle timeout, a write for at most `WRITE_TIMEOUT`.
pub fn configure(stream: &TcpStream, idle_timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(idle_timeout)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// Services one connection until the peer hangs up, a framing error
/// makes the stream untrustworthy, the idle timeout reaps it, or the
/// server shuts its read half at drain (`draining` set: new QUERYs
/// answer GOAWAY). Runs on the connection's reader thread, leading
/// engine runs with `exec` whenever it wins the token; spawns (and
/// joins) the paired writer thread. `bidirectional` says whether the
/// served index covers both strands: when it does not, a both-strand
/// query (kind 3) answers a payload-level ERROR and keeps the
/// connection — a forward-only index would return deterministic
/// nonsense for it.
pub(crate) fn handle_conn(
    stream: TcpStream,
    dispatcher: &Dispatcher,
    exec: &dyn Executor,
    config: &ServerConfig,
    bidirectional: bool,
    draining: &AtomicBool,
) {
    let (Ok(()), Ok(socket)) = (configure(&stream, config.idle_timeout), stream.try_clone()) else {
        return;
    };
    let (tx, frames) = mpsc::sync_channel(config.writer_queue_depth.max(1));
    let dead = AtomicBool::new(false);
    let conn = Arc::new(ConnState { dead, socket });
    let reply = ReplyHandle {
        tx,
        conn: Arc::clone(&conn),
    };
    thread::scope(|scope| {
        scope.spawn(|| write_loop(frames, &conn, &dispatcher.stats));
        Reader {
            dispatcher,
            exec,
            config,
            bidirectional,
            draining,
            reply: &reply,
        }
        .run(stream);
        // Dropping the reader's sender ends the writer once the
        // submissions still in flight have been answered.
        drop(reply);
    });
}

/// The writer loop: writes frames as they come, blocking in `recv` until
/// every sender — the reader's and each in-flight submission's — is gone.
fn write_loop(frames: Receiver<(Vec<u8>, Option<Stamps>)>, conn: &ConnState, stats: &ServerStats) {
    while let Ok((frame, stamps)) = frames.recv() {
        if conn.dead.load(Ordering::Relaxed) || (&conn.socket).write_all(&frame).is_err() {
            break; // a dead connection stops flushing immediately
        }
        if let Some(stamps) = stamps {
            stats.note_reply(&stamps);
        }
    }
    // The reader saw EOF or gave up, or this half found the connection
    // dead; either way close both halves so the other thread wakes too.
    conn.kill();
}

/// The request half of one connection.
struct Reader<'a> {
    dispatcher: &'a Dispatcher,
    exec: &'a dyn Executor,
    config: &'a ServerConfig,
    bidirectional: bool,
    draining: &'a AtomicBool,
    reply: &'a ReplyHandle,
}

impl Reader<'_> {
    /// The reader loop proper; returns when the connection is done.
    fn run(&self, mut stream: TcpStream) {
        let stats = &*self.dispatcher.stats;
        // `buf[..end]` is what has been received and not yet consumed;
        // it starts on a frame boundary and `buf` always has room for
        // the rest of the frame that starts there.
        let mut buf = vec![0u8; READ_BUFFER];
        let mut end = 0;
        loop {
            match stream.read(&mut buf[end..]) {
                // A clean close between frames, a cut mid-frame, or the
                // shutdown of a drain or of a dead connection.
                Ok(0) => return,
                Ok(n) => end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Silent past the idle timeout, wherever in a frame.
                    stats.conns_reaped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(_) => return,
            }
            // Every frame this read completed finished arriving now; a
            // leader measures deadlines and the queue wait from here.
            let arrival = Instant::now();
            let mut start = 0;
            let mut admitted = false;
            // Split off every whole frame — header, then the QUERY
            // deadline extension, then the payload — and leave with the
            // length of the frame the remaining bytes are part of.
            let frame_len = loop {
                let bytes = &buf[start..end];
                let Some(header) = bytes.get(..HEADER_LEN) else {
                    break HEADER_LEN;
                };
                let header = header.try_into().expect("sliced to HEADER_LEN");
                let header = match wire::decode_header(header, self.config.max_frame_len) {
                    Ok(header) => header,
                    Err(e) => {
                        // Bad magic/version/length: the stream can no
                        // longer be framed. Answer once and hang up below.
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        let frame = error_frame(0, &e);
                        self.reply.send(frame, None, stats);
                        break 0; // no frame is this short: "unframeable"
                    }
                };
                let ext = if header.has_deadline_ext() {
                    QUERY_EXT_LEN
                } else {
                    0
                };
                let len = HEADER_LEN + ext + header.payload_len as usize;
                if bytes.len() < len {
                    break len;
                }
                let (ext, payload) = bytes[HEADER_LEN..len].split_at(ext);
                let deadline_us = ext.try_into().map_or(0, u32::from_le_bytes);
                admitted |= self.handle(header, deadline_us, payload, arrival);
                start += len;
            };
            // Only now, with the whole burst admitted (or told BUSY).
            if admitted {
                self.dispatcher.lead(self.exec);
            }
            if frame_len == 0 || self.reply.is_dead() {
                // Unframeable, or the writer queue overflowed (or the
                // socket failed) while answering: stop reading so the
                // teardown completes.
                return;
            }
            buf.copy_within(start..end, 0);
            end -= start;
            if buf.len() < frame_len {
                buf.resize(frame_len, 0);
            }
        }
    }

    /// Answers or admits one request whose frame boundary is sound —
    /// so protocol errors in it are answerable without losing sync.
    /// `true` iff it was admitted to the dispatcher.
    fn handle(
        &self,
        header: wire::FrameHeader,
        deadline_us: u32,
        payload: &[u8],
        arrival: Instant,
    ) -> bool {
        let stats = &*self.dispatcher.stats;
        let answer = |opcode: Opcode, payload: &[u8]| {
            let frame = wire::frame(opcode, header.request_id, payload);
            self.reply.send(frame, None, stats);
        };
        let refuse = |error: &WireError| {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            let frame = error_frame(header.request_id, error);
            self.reply.send(frame, None, stats);
        };
        match Opcode::from_byte(header.opcode) {
            Ok(Opcode::Query) if self.draining.load(Ordering::Relaxed) => {
                stats.goaway_sent.fetch_add(1, Ordering::Relaxed);
                answer(Opcode::Goaway, &[]);
            }
            Ok(Opcode::Query) => {
                let batch = match wire::decode_query_batch(
                    payload,
                    MAX_BATCH_QUERIES,
                    self.config.max_hits_ceiling,
                ) {
                    Ok(batch) => batch,
                    Err(e) => {
                        refuse(&e);
                        return false;
                    }
                };
                if !self.bidirectional
                    && batch
                        .requests()
                        .iter()
                        .any(|r| matches!(r, QueryRequest::SearchBoth { .. }))
                {
                    refuse(&WireError::NotBidirectional);
                    return false;
                }
                let admitted = self.dispatcher.admit(Submission {
                    request_id: header.request_id,
                    batch,
                    arrival,
                    budget: effective_budget(deadline_us, self.config.default_deadline),
                    reply: self.reply.clone(),
                });
                if admitted.is_err() {
                    stats.submissions_busy.fetch_add(1, Ordering::Relaxed);
                    answer(Opcode::Busy, &[]);
                }
                return admitted.is_ok();
            }
            Ok(Opcode::Stats) => {
                let mut buf = Vec::new();
                wire::encode_stats(&stats.snapshot(), &mut buf);
                answer(Opcode::StatsReply, &buf);
            }
            // A client sending response opcodes is confused; tell it so.
            Ok(_) => refuse(&WireError::BadOpcode {
                opcode: header.opcode,
            }),
            Err(e) => refuse(&e),
        }
        false
    }
}

/// The effective deadline budget of a submission: the tighter of the
/// client's wire deadline (`0` = none) and the server's ceiling.
fn effective_budget(deadline_us: u32, default_deadline: Option<Duration>) -> Option<Duration> {
    let client = (deadline_us != 0).then(|| Duration::from_micros(u64::from(deadline_us)));
    match (client, default_deadline) {
        (Some(c), Some(d)) => Some(c.min(d)),
        (c, d) => c.or(d),
    }
}

/// An ERROR frame carrying the error's display string.
fn error_frame(request_id: u64, error: &WireError) -> Vec<u8> {
    wire::frame(Opcode::Error, request_id, error.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_budget_takes_the_tighter_bound() {
        let ms = |n| Duration::from_millis(n);
        assert_eq!(effective_budget(0, None), None);
        assert_eq!(effective_budget(5_000, None), Some(ms(5)));
        assert_eq!(effective_budget(0, Some(ms(7))), Some(ms(7)));
        assert_eq!(effective_budget(5_000, Some(ms(7))), Some(ms(5)));
        assert_eq!(effective_budget(9_000, Some(ms(7))), Some(ms(7)));
    }
}
