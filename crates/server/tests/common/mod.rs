//! What the server suites share: an in-process server on its own
//! thread, a blocking one-frame-at-a-time client, the toy reference,
//! the mixed-op batch and the byte-exact payload a direct executor run
//! produces.

#![allow(dead_code)] // each suite uses its own part of the fixture

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;

use exma_engine::{EngineBuilder, QueryBatch, QueryRequest};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::KStepFmIndex;
use exma_server::wire::{self, FrameHeader, Opcode, HEADER_LEN};
use exma_server::{Server, ServerConfig, ServerHandle};

/// A bound server on its own thread. `stop()` performs the graceful
/// drain and joins — it must complete even with clients still
/// connected, which is itself the no-deadlock assertion.
pub struct TestServer {
    pub handle: ServerHandle,
    pub thread: thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    pub fn start(
        index: Arc<KStepFmIndex>,
        builder: EngineBuilder,
        config: ServerConfig,
    ) -> TestServer {
        let server = Server::bind("127.0.0.1:0", index, builder, config).expect("bind loopback");
        let handle = server.handle().expect("local addr");
        let thread = thread::spawn(move || server.run());
        TestServer { handle, thread }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread").expect("serve");
    }
}

/// A blocking test client speaking one frame at a time.
pub struct Client {
    pub stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client { stream }
    }

    /// A QUERY frame carrying `deadline_us` (0 = none).
    pub fn send_query(&mut self, request_id: u64, deadline_us: u32, batch: &QueryBatch) {
        let mut payload = Vec::new();
        wire::encode_query_batch(batch, &mut payload).expect("encodable batch");
        self.send_raw(&wire::query_frame(request_id, deadline_us, &payload));
    }

    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write frame");
    }

    /// Reads one frame; `None` on a server-side close.
    pub fn read_frame(&mut self) -> Option<(FrameHeader, Vec<u8>)> {
        let mut header_bytes = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match self.stream.read(&mut header_bytes[filled..]) {
                Ok(0) => return None,
                Ok(n) => filled += n,
                Err(_) => return None,
            }
        }
        let header =
            wire::decode_header(&header_bytes, usize::MAX).expect("server frames well-formed");
        let mut payload = vec![0u8; header.payload_len as usize];
        self.stream.read_exact(&mut payload).ok()?;
        Some((header, payload))
    }

    pub fn stats_snapshot(&mut self, request_id: u64) -> wire::StatsSnapshot {
        self.send_raw(&wire::frame(Opcode::Stats, request_id, &[]));
        let (header, payload) = self.read_frame().expect("stats reply");
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::StatsReply));
        assert_eq!(header.request_id, request_id);
        wire::decode_stats(&payload).expect("stats payload")
    }

    /// Runs `batch` and returns the raw RESULTS payload bytes.
    pub fn results_payload(&mut self, request_id: u64, batch: &QueryBatch) -> Vec<u8> {
        self.send_query(request_id, 0, batch);
        let (header, payload) = self.read_frame().expect("results");
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
        assert_eq!(header.request_id, request_id);
        payload
    }
}

pub fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// A mixed-op batch in the property suites' style: counts, capped and
/// uncapped locates, intervals, hit and miss and empty patterns.
pub fn mixed_batch(genome: &Genome, total: usize, seed: u64) -> QueryBatch {
    let mut rng = SeededRng::new(seed);
    let mut batch = QueryBatch::new();
    for i in 0..total {
        let pattern: Vec<Base> = if i % 17 == 0 {
            Vec::new()
        } else {
            let len = rng.range(1, 30);
            if i % 2 == 0 {
                let start = rng.range(0, genome.len() - len + 1);
                genome.seq().slice(start, len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        };
        match i % 4 {
            0 => batch.push(QueryRequest::Count, pattern),
            1 => batch.push(QueryRequest::locate(), pattern),
            2 => batch.push(QueryRequest::locate_capped(rng.range(0, 8) as u32), pattern),
            _ => batch.push(QueryRequest::Interval, pattern),
        }
    }
    batch
}

/// The byte-exact RESULTS payload a direct executor run produces.
pub fn expected_payload(
    builder: &EngineBuilder,
    index: &KStepFmIndex,
    batch: &QueryBatch,
) -> Vec<u8> {
    let engine = builder.attach(index).expect("attach oracle");
    let (results, _) = engine.run(batch);
    let mut payload = Vec::new();
    wire::encode_results_range(&results, 0, results.len(), &mut payload);
    payload
}
