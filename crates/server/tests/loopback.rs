//! Loopback acceptance tests of the serving pipeline: every byte a
//! client gets back over TCP must equal what a direct [`Executor`]
//! call would have produced — across concurrent clients, mixed-op
//! batches, continuous batching, backpressure, and every rejection
//! path (malformed, truncated, oversized frames).

mod common;

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, QueryBatch, QueryRequest};
use exma_genome::Base;
use exma_server::wire::{self, Opcode};
use exma_server::ServerConfig;

use common::{expected_payload, mixed_batch, toy_genome, Client, TestServer};

#[test]
fn concurrent_clients_get_byte_exact_executor_results() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = TestServer::start(Arc::clone(&index), builder, ServerConfig::default());

    thread::scope(|scope| {
        for client_id in 0..4u64 {
            let server = &server;
            let genome = &genome;
            let index = &index;
            scope.spawn(move || {
                let mut client = Client::connect(server.addr());
                for round in 0..5u64 {
                    let seed = client_id * 100 + round;
                    let batch = mixed_batch(genome, 40, seed);
                    let request_id = (client_id << 32) | round;
                    client.send_query(request_id, 0, &batch);
                    let (header, payload) = client.read_frame().expect("response");
                    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
                    assert_eq!(header.request_id, request_id);
                    assert_eq!(
                        payload,
                        expected_payload(&builder, index, &batch),
                        "client {client_id} round {round} diverged from direct execution"
                    );
                }
            });
        }
    });

    // Everything the clients sent was admitted and executed; the
    // coalescing counters stay consistent with the run count.
    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(999);
    assert_eq!(stats.submissions_admitted, 20);
    assert_eq!(stats.queries_executed, 20 * 40);
    assert_eq!(stats.submissions_coalesced, 20);
    assert!(stats.batches_run >= 1 && stats.batches_run <= 20);
    assert_eq!(stats.submissions_busy, 0);
    assert_eq!(stats.queue_depth, 0);
    // The heap fields published at bind describe the served index
    // exactly: non-zero, and components summing to the total.
    assert!(stats.heap_total > 0);
    assert_eq!(
        stats.heap_total,
        stats.heap_k_occ_checkpoints
            + stats.heap_k_occ_deltas
            + stats.heap_k_occ_codes
            + stats.heap_one_step_occ
            + stats.heap_sa_samples
            + stats.heap_rank_bits
            + stats.heap_other
    );
    drop(probe);
    server.stop();
}

#[test]
fn malformed_payloads_answer_error_and_keep_the_connection() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(2);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = TestServer::start(Arc::clone(&index), builder, ServerConfig::default());
    let mut client = Client::connect(server.addr());

    // A pattern byte outside the 2-bit alphabet: typed rejection, id
    // echoed, stream still in sync.
    let mut bad = Vec::new();
    bad.extend_from_slice(&1u32.to_le_bytes()); // one query
    bad.push(0); // count
    bad.extend_from_slice(&2u32.to_le_bytes()); // two bases
    bad.extend_from_slice(&[1, 77]); // second is garbage
    client.send_raw(&wire::frame(Opcode::Query, 7, &bad));
    let (header, payload) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    assert_eq!(header.request_id, 7);
    let message = String::from_utf8(payload).expect("utf-8 error message");
    assert!(message.contains("77"), "unhelpful error: {message}");

    // An unknown request kind: same contract.
    let mut bad_kind = Vec::new();
    bad_kind.extend_from_slice(&1u32.to_le_bytes());
    bad_kind.push(9);
    client.send_raw(&wire::frame(Opcode::Query, 8, &bad_kind));
    let (header, _) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    assert_eq!(header.request_id, 8);

    // A response opcode sent as a request: rejected, connection lives.
    client.send_raw(&wire::frame(Opcode::Results, 9, &[]));
    let (header, _) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));

    // The same connection still answers real queries byte-exactly.
    let batch = mixed_batch(&genome, 10, 5);
    client.send_query(10, 0, &batch);
    let (header, payload) = client.read_frame().expect("results after errors");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));

    let stats = client.stats_snapshot(11);
    assert_eq!(stats.errors, 3);
    drop(client);
    server.stop();
}

#[test]
fn bad_magic_and_oversized_frames_close_the_connection() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(2);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        max_frame_len: 256,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    // Garbage magic: one ERROR frame, then EOF — the stream cannot be
    // re-synchronized, so the server hangs up.
    let mut client = Client::connect(server.addr());
    let mut frame = wire::frame(Opcode::Query, 1, &[0, 0, 0, 0]);
    frame[0] = 0xAA;
    client.send_raw(&frame);
    let (header, payload) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    let message = String::from_utf8(payload).unwrap();
    assert!(message.contains("magic"), "{message}");
    assert!(
        client.read_frame().is_none(),
        "expected close after bad magic"
    );

    // A length prefix over the frame cap is refused before any payload
    // is read — no 4 GiB allocation on a hostile header.
    let mut client = Client::connect(server.addr());
    client.send_raw(&wire::encode_header(Opcode::Query, 2, 1 << 30));
    let (header, payload) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    let message = String::from_utf8(payload).unwrap();
    assert!(message.contains("frame cap"), "{message}");
    assert!(
        client.read_frame().is_none(),
        "expected close after oversize"
    );

    // A truncated frame (header promises more than the peer sends)
    // must not wedge the server: the victim connection dies quietly
    // and fresh connections still work.
    let mut client = Client::connect(server.addr());
    client.send_raw(&wire::encode_header(Opcode::Query, 3, 100));
    client.send_raw(&[0u8; 10]); // then hang up mid-payload
    drop(client);

    let mut healthy = Client::connect(server.addr());
    let batch = mixed_batch(&genome, 8, 3);
    healthy.send_query(4, 0, &batch);
    let (header, payload) = healthy.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));
    drop(healthy);
    server.stop();
}

#[test]
fn full_admission_queue_answers_busy_not_buffering() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        queue_depth: 1,
        linger: Duration::ZERO,
        // Uncapped empty-pattern locates resolve the entire text; 60
        // of them keep the batcher busy for long enough that the
        // burst below observably overflows the 1-slot queue.
        max_frame_len: 16 << 20,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    let slow = QueryBatch::uniform(QueryRequest::locate(), vec![Vec::<Base>::new(); 60]);
    client.send_query(0, 0, &slow);
    let quick = QueryBatch::new().count(genome.seq().slice(0, 8));
    for id in 1..=9u64 {
        client.send_query(id, 0, &quick);
    }

    let mut outcomes: HashMap<u64, Opcode> = HashMap::new();
    while outcomes.len() < 10 {
        let (header, payload) = client.read_frame().expect("response for every request");
        let opcode = Opcode::from_byte(header.opcode).unwrap();
        if opcode == Opcode::Results && header.request_id == 0 {
            // The slow batch's answers are still oracle-exact.
            assert_eq!(payload, expected_payload(&builder, &index, &slow));
        }
        outcomes.insert(header.request_id, opcode);
    }
    let busy = outcomes.values().filter(|&&op| op == Opcode::Busy).count();
    let answered = outcomes
        .values()
        .filter(|&&op| op == Opcode::Results)
        .count();
    assert_eq!(busy + answered, 10);
    assert_eq!(outcomes[&0], Opcode::Results, "the slow batch was admitted");
    assert!(
        busy >= 1,
        "a 1-slot queue under a 10-request burst never filled"
    );

    let stats = client.stats_snapshot(100);
    assert_eq!(stats.submissions_busy, busy as u64);
    assert_eq!(stats.submissions_admitted, answered as u64);
    drop(client);
    server.stop();
}

#[test]
fn linger_window_coalesces_concurrent_submissions() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        linger: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    thread::scope(|scope| {
        for client_id in 0..6u64 {
            let server = &server;
            let genome = &genome;
            let index = &index;
            scope.spawn(move || {
                let mut client = Client::connect(server.addr());
                let batch = mixed_batch(genome, 10, client_id);
                client.send_query(client_id, 0, &batch);
                let (header, payload) = client.read_frame().expect("response");
                assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
                assert_eq!(payload, expected_payload(&builder, index, &batch));
            });
        }
    });

    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(999);
    assert_eq!(stats.submissions_admitted, 6);
    // Six near-simultaneous one-batch clients against a 150 ms linger
    // window: the batcher must have merged at least once — that is
    // the continuous-batching contract this server exists for.
    assert!(
        stats.batches_run < 6,
        "no coalescing: {} submissions ran as {} batches",
        stats.submissions_admitted,
        stats.batches_run
    );
    assert!(stats.max_coalesced >= 2);
    drop(probe);
    server.stop();
}

#[test]
fn bidirectional_server_answers_search_both_byte_exactly() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4).bidirectional(true);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = TestServer::start(Arc::clone(&index), builder, ServerConfig::default());
    let mut client = Client::connect(server.addr());

    // SearchBoth interleaved with the plain operations: forward
    // windows, reverse-complement windows (a client that never
    // reverse-complements), palindromes, and a tight cap.
    let window = genome.seq().slice(100, 24);
    let reverse = genome.revcomp_window(300, 24);
    let palindrome = exma_genome::alphabet::parse_bases("ACGT").unwrap();
    let frequent = genome.seq().slice(0, 2);
    let batch = QueryBatch::new()
        .search_both(&window)
        .search_both(&reverse)
        .search_both(&palindrome)
        .search_both_capped(&frequent, 5)
        .count(&window)
        .locate_capped(&window, 8);
    client.send_query(21, 0, &batch);
    let (header, payload) = client.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(header.request_id, 21);
    assert_eq!(payload, expected_payload(&builder, &index, &batch));

    // The strand tags survive the wire: the forward window comes back
    // Forward at its origin, the reverse window Reverse at its origin.
    let outputs = wire::decode_results(&payload).unwrap();
    let decoded = |i: usize| -> Vec<(u32, exma_index::bidir::Strand)> {
        match &outputs[i] {
            wire::WireOutput::BothLocated { hits, .. } => hits
                .iter()
                .map(|&h| exma_index::bidir::decode_hit(h))
                .collect(),
            other => panic!("expected both-located, got {other:?}"),
        }
    };
    assert!(decoded(0).contains(&(100, exma_index::bidir::Strand::Forward)));
    assert!(decoded(1).contains(&(300, exma_index::bidir::Strand::Reverse)));
    assert!(decoded(2)
        .iter()
        .all(|&(_, s)| s == exma_index::bidir::Strand::Forward));
    match &outputs[3] {
        wire::WireOutput::BothLocated { hits, truncated } => {
            assert_eq!(hits.len(), 5);
            assert!(*truncated);
        }
        other => panic!("expected both-located, got {other:?}"),
    }

    // The stats snapshot publishes the served index's strandedness.
    let stats = client.stats_snapshot(22);
    assert_eq!(stats.bidir_enabled, 1);
    assert_eq!(stats.bidir_text_len, index.text_len() as u64);
    drop(client);
    server.stop();
}

#[test]
fn forward_only_server_refuses_search_both_and_keeps_the_connection() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = TestServer::start(Arc::clone(&index), builder, ServerConfig::default());
    let mut client = Client::connect(server.addr());

    // A kind-3 query against a forward-only index would return
    // deterministic nonsense — the server must refuse it at the
    // payload level instead, like a bad kind byte.
    let window = genome.seq().slice(100, 24);
    client.send_query(31, 0, &QueryBatch::new().search_both(&window));
    let (header, payload) = client.read_frame().expect("error reply");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    assert_eq!(header.request_id, 31);
    let message = String::from_utf8(payload).expect("utf-8 error message");
    assert!(message.contains("bidirectional"), "{message}");

    // Payload-level rejection: the connection survives and plain
    // queries on it still answer byte-exactly.
    let batch = mixed_batch(&genome, 12, 7);
    client.send_query(32, 0, &batch);
    let (header, payload) = client.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(header.request_id, 32);
    assert_eq!(payload, expected_payload(&builder, &index, &batch));

    // The refusal is an error, not an executed query.
    let stats = client.stats_snapshot(33);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.bidir_enabled, 0);
    drop(client);
    server.stop();
}

#[test]
fn max_hits_ceiling_caps_every_locate() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(2);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        max_hits_ceiling: Some(3),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    // An uncapped locate of a 1-base pattern has thousands of hits;
    // under the ceiling the server must answer as if the client had
    // asked for locate_capped(3) — deterministic truncation, not a
    // deadline-dependent prefix.
    let frequent = genome.seq().slice(0, 1);
    let sent = QueryBatch::new()
        .locate(&frequent)
        .locate_capped(&frequent, 2)
        .count(&frequent);
    let clamped = QueryBatch::new()
        .locate_capped(&frequent, 3)
        .locate_capped(&frequent, 2)
        .count(&frequent);
    client.send_query(1, 0, &sent);
    let (header, payload) = client.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &clamped));

    let outputs = wire::decode_results(&payload).unwrap();
    match &outputs[0] {
        wire::WireOutput::Located {
            positions,
            truncated,
        } => {
            assert_eq!(positions.len(), 3);
            assert!(*truncated);
        }
        other => panic!("expected a located output, got {other:?}"),
    }
    drop(client);
    server.stop();
}

#[test]
fn accepted_sockets_are_configured_with_nagle_off() {
    // The set-up `Server::run` applies to every accepted stream, on a
    // socket accepted here: replies must not wait in the kernel for
    // the ACK of the previous one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect loopback");
    let (accepted, _) = listener.accept().expect("accept");
    assert!(!accepted.nodelay().expect("read TCP_NODELAY"));
    let idle_timeout = ServerConfig::default().idle_timeout;
    exma_server::conn::configure(&accepted, idle_timeout).expect("configure the accepted socket");
    assert!(accepted.nodelay().expect("read TCP_NODELAY"));
    // The read timeout is the idle timeout: nothing polls.
    assert_eq!(accepted.read_timeout().unwrap(), idle_timeout);
}

#[test]
fn a_pipelined_burst_on_one_connection_is_one_engine_run() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        linger: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());
    let before = client.stats_snapshot(1000);

    // Sixteen small frames in a single write: the reader admits every
    // frame it has received before it leads, so with no window at all
    // the burst still executes merged.
    let batches: Vec<QueryBatch> = (0..16).map(|i| mixed_batch(&genome, 6, 300 + i)).collect();
    let mut burst = Vec::new();
    for (id, batch) in batches.iter().enumerate() {
        let mut payload = Vec::new();
        wire::encode_query_batch(batch, &mut payload).expect("encodable batch");
        burst.extend_from_slice(&wire::frame(Opcode::Query, id as u64, &payload));
    }
    client.send_raw(&burst);
    let mut answered = HashMap::new();
    for _ in 0..16 {
        let (header, payload) = client.read_frame().expect("an answer per frame");
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
        assert!(answered.insert(header.request_id, payload).is_none());
    }
    for (id, batch) in batches.iter().enumerate() {
        assert_eq!(
            answered[&(id as u64)],
            expected_payload(&builder, &index, batch),
            "frame {id} of the burst diverged from direct execution"
        );
    }
    // The writer adds a frame's stage durations as its write returns,
    // which may be a moment after the client has read the frame.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = client.stats_snapshot(1001);
    while after.replies_timed - before.replies_timed < 16 {
        assert!(Instant::now() < deadline, "16 RESULTS, not 16 timed");
        after = client.stats_snapshot(1001);
    }
    assert_eq!(after.replies_timed - before.replies_timed, 16);
    assert!(after.engine_ns > before.engine_ns);
    assert!(after.max_coalesced >= 8, "burst ran unmerged: {after:?}");
    assert!(after.batches_run - before.batches_run < 16);

    // A frame of zero queries, alone in its batch, is still answered.
    client.send_query(2000, 0, &QueryBatch::new());
    let (header, payload) = client.read_frame().expect("empty results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(header.request_id, 2000);
    assert_eq!(wire::decode_results(&payload).unwrap(), Vec::new());
    drop(client);
    server.stop();
}
