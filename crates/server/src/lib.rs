//! # exma-server
//!
//! The network front-end of the EXMA reproduction: a dependency-free
//! binary protocol over TCP ([`wire`]) feeding the batched query
//! engine through a continuous-batching admission queue.
//!
//! The serving pipeline is decode → admit → execute → encode:
//! connection reader threads decode QUERY frames into
//! [`exma_engine::QueryBatch`]es and admit them to one bounded queue
//! ([`conn`]); whichever reader finds the engine idle then takes the
//! leader token, merges whatever has accumulated into one batch, runs
//! the lockstep engine once on its own thread, and routes each
//! submission's slice of the pooled results back to its connection,
//! while the readers that lost the token keep admitting what becomes
//! the next batch. There is no batcher thread, no timer and no polling
//! loop: a request on an idle server costs the two wake-ups nobody can
//! remove (socket → reader, reply → client), and under load small
//! client submissions still execute at engine-friendly batch sizes —
//! the lockstep scheduler's locality wins need hundreds of in-flight
//! queries, and no single network client supplies that — while a full
//! queue answers BUSY instead of buffering unboundedly.
//!
//! The pipeline is deadline-aware and drains cleanly: QUERY frames
//! carry a latency budget the leader enforces (expired submissions
//! answer LATE, never an engine run), writer queues are bounded
//! (overflow sheds and disconnects, never OOMs), idle connections are
//! reaped, and [`ServerHandle::shutdown`] performs a graceful drain —
//! stop accepting, GOAWAY new queries, finish everything queued, join
//! every thread.
//!
//! ```no_run
//! use std::sync::Arc;
//! use exma_engine::EngineBuilder;
//! use exma_genome::{Genome, GenomeProfile};
//! use exma_server::{Server, ServerConfig};
//!
//! let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
//! let builder = EngineBuilder::new().k(4);
//! let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
//! let server = Server::bind("127.0.0.1:0", index, builder, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

mod batcher;
pub mod conn;
pub mod fault;
pub mod wire;

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use exma_engine::EngineBuilder;
use exma_index::KStepFmIndex;

use batcher::Dispatcher;

pub use fault::{Fault, FaultPlan};
pub use wire::{Opcode, ServerStats, StatsSnapshot, WireError, WireOutput};

/// The most queries one QUERY frame may carry, and the size at which a
/// leader stops merging submissions into one engine run (bounding
/// per-batch latency and arena growth).
pub(crate) const MAX_BATCH_QUERIES: usize = 4096;

/// Every serving knob in one place, fixed at [`Server::bind`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission-queue capacity in submissions; a full queue answers
    /// BUSY (the backpressure bound).
    pub queue_depth: usize,
    /// How long a leader keeps coalescing after a batch's first
    /// submission arrives; zero runs what is already queued.
    pub linger: Duration,
    /// Largest accepted frame payload, in bytes.
    pub max_frame_len: usize,
    /// Hit-cap ceiling clamped onto every locate (the resolution
    /// budget; `None` honors client caps verbatim).
    pub max_hits_ceiling: Option<u32>,
    /// Per-connection bounded writer-queue capacity, in frames;
    /// overflow sheds the frame and disconnects the slow reader.
    pub writer_queue_depth: usize,
    /// Reap a connection after this much read silence (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Server-side deadline ceiling on every submission; the effective
    /// budget is the tighter of this and the client's `deadline_us`
    /// (`None` = only client deadlines apply).
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 1024,
            linger: Duration::ZERO,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            max_hits_ceiling: None,
            writer_queue_depth: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            default_deadline: None,
        }
    }
}

/// A bound, not-yet-running server: the listener, the index, and the
/// engine recipe that will answer queries.
pub struct Server {
    listener: TcpListener,
    index: Arc<KStepFmIndex>,
    builder: EngineBuilder,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    /// Set by shutdown: the accept loop ends, new QUERYs answer GOAWAY,
    /// admitted work still executes.
    draining: Arc<AtomicBool>,
}

/// A remote control for a running [`Server`]: lets tests and signal
/// handlers stop the accept loop from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Begins a graceful drain: connections answer new QUERYs with
    /// GOAWAY immediately, the accept loop is flagged down and woken
    /// with a throwaway connection, and [`Server::run`] returns once
    /// in-flight batches drain and every connection thread is joined.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between accepts.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `addr` and validates that `builder` can attach to
    /// `index` — a mismatched recipe fails here, not on a connection
    /// thread after the first client connects.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: Arc<KStepFmIndex>,
        builder: EngineBuilder,
        config: ServerConfig,
    ) -> io::Result<Server> {
        builder
            .attach(&index)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(addr)?;
        let stats = Arc::new(ServerStats::default());
        // The served index is fixed for the server's lifetime, so its
        // heap attribution and strandedness are published once and
        // snapshots just read them.
        stats.record_heap(&index.heap_breakdown());
        stats.record_strandedness(index.is_bidirectional(), index.text_len());
        stats.heap_huge_bytes.store(
            exma_index::interleave::huge_page_bytes().unwrap_or(0),
            Ordering::Relaxed,
        );
        Ok(Server {
            listener,
            index,
            builder,
            config,
            stats,
            draining: Arc::default(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle; clone freely across threads.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            draining: Arc::clone(&self.draining),
            stats: Arc::clone(&self.stats),
        })
    }

    /// Serves until [`ServerHandle::shutdown`]: accepts connections,
    /// two threads each and no others. On shutdown it drains —
    /// everything already admitted is executed, then every
    /// connection's read half is shut and its threads joined, so
    /// returning means no thread of this server is still running.
    pub fn run(self) -> io::Result<()> {
        let dispatcher = Dispatcher::new(
            self.config.queue_depth,
            self.config.linger,
            Arc::clone(&self.stats),
        );
        let (index, builder, draining) = (&*self.index, self.builder, &*self.draining);
        let (config, bidirectional) = (&self.config, builder.is_bidirectional());
        let dispatcher = &dispatcher;
        // Every thread that may lead attaches its own executor: a
        // validation and a two-word struct over the shared index.
        let attach = move || builder.attach(index).expect("recipe validated at bind");

        thread::scope(|scope| {
            // Every live connection: a socket clone (to wake its
            // blocked reader at drain time) and the reader thread's
            // handle (joined at drain time — no thread outlives `run`).
            let mut conns: Vec<(Option<TcpStream>, thread::ScopedJoinHandle<'_, ()>)> = Vec::new();
            for stream in self.listener.incoming() {
                if draining.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(_) => continue,
                };
                // Reap registry entries whose threads already finished so
                // connection churn doesn't grow the registry unboundedly.
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].1.is_finished() {
                        let (_, done) = conns.swap_remove(i);
                        let _ = done.join();
                    } else {
                        i += 1;
                    }
                }
                self.stats.connections.fetch_add(1, Ordering::Relaxed);
                let peer = stream.try_clone().ok();
                let reader = scope.spawn(move || {
                    conn::handle_conn(
                        stream,
                        dispatcher,
                        attach().as_ref(),
                        config,
                        bidirectional,
                        draining,
                    )
                });
                conns.push((peer, reader));
            }

            // Graceful drain. The flag that ended the accept loop already
            // has readers answering new QUERYs with GOAWAY; wait out the
            // engine run in flight and execute whatever else was
            // admitted, then wake every reader with end-of-stream: each
            // answers the frames it had already received, and its
            // writer flushes before closing.
            dispatcher.drain(attach().as_ref());
            for (peer, reader) in conns {
                if let Some(peer) = peer {
                    let _ = peer.shutdown(Shutdown::Read);
                }
                let _ = reader.join();
            }
        });
        Ok(())
    }
}
