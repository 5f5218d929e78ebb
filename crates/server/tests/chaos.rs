//! Chaos loopback suite: the robustness acceptance tests of ISSUE 8.
//!
//! Every test here hurts the server on purpose — expired deadlines,
//! mid-drain submissions, torn headers, truncated payloads, stalled
//! reads, flipped bytes, unread response floods — and asserts the
//! contract that matters: expired work answers LATE without an engine
//! run, shutdown drains without deadlock, healthy clients stay
//! byte-verified against direct execution throughout, v1 frames are
//! refused as unframeable, and `Server::run` returning means every thread the
//! server spawned has been joined (a leak would hang `stop()` and fail
//! the suite by timeout).

mod common;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, QueryBatch, QueryRequest};
use exma_genome::Base;
use exma_server::wire::{self, Opcode};
use exma_server::{FaultPlan, Server, ServerConfig};

use common::{expected_payload, mixed_batch, toy_genome, Client, TestServer};

#[test]
fn expired_submissions_answer_late_without_an_engine_run() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    // A long linger guarantees a 1 ms budget expires inside the
    // coalescing window — the post-linger recheck must catch it.
    let config = ServerConfig {
        linger: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    let batch = mixed_batch(&genome, 12, 1);
    client.send_query(1, 1_000, &batch);
    let (header, payload) = client.read_frame().expect("late frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Late));
    assert_eq!(header.request_id, 1);
    let info = wire::decode_late(&payload).expect("late payload");
    assert_eq!(info.budget_us, 1_000);
    assert!(
        info.elapsed_us > info.budget_us,
        "LATE must report elapsed ({}) past budget ({})",
        info.elapsed_us,
        info.budget_us
    );

    // The expired submission must never have reached the engine.
    let stats = client.stats_snapshot(2);
    assert_eq!(stats.late_dropped, 1);
    assert_eq!(stats.batches_run, 0, "LATE work still ran the engine");
    assert_eq!(stats.queries_executed, 0);

    // A deadline-free query on the same connection still answers
    // byte-exactly — deadlines shed work, not connections.
    client.send_query(3, 0, &batch);
    let (header, payload) = client.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));
    drop(client);
    server.stop();
}

#[test]
fn server_deadline_ceiling_applies_to_deadline_free_clients() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        linger: Duration::from_millis(120),
        default_deadline: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    // The client asked for no deadline at all; the server's ceiling
    // still sheds it once the linger window outlives 1 ms.
    client.send_query(1, 0, &mixed_batch(&genome, 8, 2));
    let (header, payload) = client.read_frame().expect("late frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Late));
    let info = wire::decode_late(&payload).expect("late payload");
    assert_eq!(info.budget_us, 1_000);
    drop(client);
    server.stop();
}

#[test]
fn v1_frames_are_refused_by_version_and_the_stream_closes() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = TestServer::start(Arc::clone(&index), builder, ServerConfig::default());
    let mut client = Client::connect(server.addr());

    // A well-formed QUERY frame stamped version 1: the server speaks
    // only version 2, so the header cannot be trusted to frame what
    // follows — one ERROR naming the version, then end-of-stream.
    let mut payload = Vec::new();
    wire::encode_query_batch(&mixed_batch(&genome, 10, 3), &mut payload).expect("encodable batch");
    let mut frame = wire::frame(Opcode::Query, 7, &payload);
    frame[1] = 1;
    client.send_raw(&frame);

    let (header, payload) = client.read_frame().expect("error frame");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Error));
    let message = String::from_utf8(payload).expect("UTF-8 error message");
    assert!(message.contains("version 1"), "{message}");
    assert!(client.read_frame().is_none(), "stream stayed open");
    let stats = Client::connect(server.addr()).stats_snapshot(8);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.queries_executed, 0);
    drop(client);
    server.stop();
}

#[test]
fn shutdown_drains_in_flight_work_and_goaways_new_queries() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    // A long linger holds the admitted batch in flight while shutdown
    // lands, so the drain provably finishes queued work.
    let config = ServerConfig {
        linger: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    let batch = mixed_batch(&genome, 25, 4);
    client.send_query(1, 0, &batch);
    // Let the reader admit it before the drain flag flips.
    thread::sleep(Duration::from_millis(30));
    server.handle.shutdown();
    thread::sleep(Duration::from_millis(10));
    // Anything submitted after the drain began answers GOAWAY.
    client.send_query(2, 0, &batch);

    let mut saw_results = false;
    let mut saw_goaway = false;
    while let Some((header, payload)) = client.read_frame() {
        match Opcode::from_byte(header.opcode).expect("known opcode") {
            Opcode::Results => {
                assert_eq!(header.request_id, 1);
                assert_eq!(
                    payload,
                    expected_payload(&builder, &index, &batch),
                    "drained work diverged from direct execution"
                );
                saw_results = true;
            }
            Opcode::Goaway => {
                assert_eq!(header.request_id, 2);
                saw_goaway = true;
            }
            other => panic!("unexpected {other:?} during drain"),
        }
    }
    assert!(saw_results, "in-flight batch was dropped by shutdown");
    assert!(saw_goaway, "post-drain query was not told to go away");

    // The client is still connected: run() must return anyway. This
    // join hangs (and the test fails by timeout) if any server thread
    // leaks — the PR 6 retained-sender deadlock regression.
    let started = Instant::now();
    server.thread.join().expect("server thread").expect("serve");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took implausibly long"
    );
}

#[test]
fn slow_readers_are_shed_and_disconnected_not_buffered() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        linger: Duration::ZERO,
        // One-frame writer queue: a client that doesn't read overflows
        // it as soon as the socket's own buffer is full.
        writer_queue_depth: 1,
        max_frame_len: 16 << 20,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    // Each submission draws one ~800 KB RESULTS frame (twenty uncapped
    // empty-pattern locates each resolve the whole 10 kb toy
    // reference); forty of them total ~32 MB — far past what the
    // kernel's socket buffers can absorb. The victim never reads: the
    // buffers fill, the writer blocks, the one-slot queue fills, and
    // the next route send sheds.
    let mut victim = Client::connect(server.addr());
    let heavy = QueryBatch::uniform(QueryRequest::locate(), vec![Vec::<Base>::new(); 20]);
    for id in 0..40u64 {
        victim.send_query(id, 0, &heavy);
    }

    // Healthy clients keep verifying byte-exactly while the victim rots.
    let mut healthy = Client::connect(server.addr());
    let batch = mixed_batch(&genome, 15, 5);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        healthy.send_query(100, 0, &batch);
        let (header, payload) = healthy.read_frame().expect("results");
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
        assert_eq!(payload, expected_payload(&builder, &index, &batch));
        if healthy.stats_snapshot(101).writer_shed >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "writer queue never overflowed: shed path untested"
        );
        thread::sleep(Duration::from_millis(25));
    }
    drop(victim); // unblocks the victim's writer thread immediately
    drop(healthy);
    server.stop();
}

#[test]
fn injected_faults_never_disturb_healthy_clients() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        // Short idle timeout so stalled chaos connections are reaped
        // within the test's lifetime.
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    thread::scope(|scope| {
        // The control group: two healthy clients byte-verify every
        // response while the storm rages.
        for client_id in 0..2u64 {
            let server = &server;
            let genome = &genome;
            let index = &index;
            scope.spawn(move || {
                let mut client = Client::connect(server.addr());
                for round in 0..12u64 {
                    let batch = mixed_batch(genome, 20, client_id * 100 + round);
                    let id = (client_id << 32) | round;
                    client.send_query(id, 0, &batch);
                    let (header, payload) = client.read_frame().expect("response");
                    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
                    assert_eq!(header.request_id, id);
                    assert_eq!(
                        payload,
                        expected_payload(&builder, index, &batch),
                        "healthy client {client_id} diverged during the fault storm"
                    );
                }
            });
        }

        // The storm: every frame sabotaged per a seeded plan, each on
        // its own sacrificial connection. Chaos clients assert nothing
        // about their own answers — only that the server outlives them.
        let server_ref = &server;
        let genome_ref = &genome;
        scope.spawn(move || {
            let mut plan = FaultPlan::new(1234, 1.0);
            let mut stalled = Vec::new();
            for i in 0..40u64 {
                let batch = mixed_batch(genome_ref, 6, 9000 + i);
                let mut payload = Vec::new();
                wire::encode_query_batch(&batch, &mut payload).expect("encodable");
                let frame = wire::query_frame(i, 0, &payload);
                let fault = plan.decide(frame.len());
                let mut chaos = Client::connect(server_ref.addr());
                let _ = chaos.stream.write_all(&fault.wire_bytes(&frame));
                if fault.stalls() {
                    stalled.push(chaos); // park it for the reaper
                } else if !fault.disconnects() {
                    // Corrupt frames may draw ERROR, RESULTS to a
                    // different question, or a hangup; just drain one
                    // response bounded in time, never asserting.
                    let _ = chaos
                        .stream
                        .set_read_timeout(Some(Duration::from_millis(300)));
                    let _ = chaos.read_frame();
                }
                // Truncate faults drop the connection here.
            }
            // Outlive the idle timeout so every parked connection is
            // reaped by the server, not by this drop.
            thread::sleep(Duration::from_millis(500));
            for mut conn in stalled {
                // A reaped connection reads EOF, not an answer.
                let _ = conn
                    .stream
                    .set_read_timeout(Some(Duration::from_millis(300)));
                let mut byte = [0u8; 1];
                assert!(
                    matches!(conn.stream.read(&mut byte), Ok(0)) || {
                        // Allow a late RST instead of clean EOF.
                        matches!(conn.stream.read(&mut byte), Ok(0) | Err(_))
                    },
                    "stalled connection was never reaped"
                );
            }
        });
    });

    // The storm reaped stalls and the server is still fully coherent.
    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(999);
    assert!(
        stats.conns_reaped >= 1,
        "no stalled connection was reaped: {stats:?}"
    );
    let batch = mixed_batch(&genome, 10, 77);
    probe.send_query(1000, 0, &batch);
    let (header, payload) = probe.read_frame().expect("post-storm results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));
    drop(probe);
    // stop() joins every thread: a leaked connection thread from any
    // injected fault would hang the drain and fail the suite.
    server.stop();
}

#[test]
fn partial_writes_and_short_reads_hit_typed_wire_errors() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(250)),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    // A header split across three TCP segments with pauses between
    // them must reassemble into a normal byte-exact response — the
    // poll-read path cannot mistake a slow segment for a torn frame.
    let mut client = Client::connect(server.addr());
    let batch = mixed_batch(&genome, 10, 6);
    let mut payload = Vec::new();
    wire::encode_query_batch(&batch, &mut payload).expect("encodable");
    let frame = wire::query_frame(5, 0, &payload);
    for chunk in [&frame[..4], &frame[4..9], &frame[9..]] {
        client.send_raw(chunk);
        client.stream.flush().expect("flush");
        thread::sleep(Duration::from_millis(40));
    }
    let (header, got) = client.read_frame().expect("reassembled results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(got, expected_payload(&builder, &index, &batch));
    drop(client);

    // payload_len larger than the stream ever delivers: the reader
    // waits, the idle timeout reaps, the client sees EOF — and the
    // reap is counted.
    let mut short = Client::connect(server.addr());
    short.send_raw(&wire::encode_header(Opcode::Stats, 8, 64));
    short.send_raw(&[0u8; 10]); // 54 promised bytes never arrive
    let mut byte = [0u8; 1];
    let _ = short.stream.set_read_timeout(Some(Duration::from_secs(5)));
    assert!(
        matches!(short.stream.read(&mut byte), Ok(0) | Err(_)),
        "short-read connection was answered instead of reaped"
    );
    drop(short);

    // A header truncated by a hangup (partial write then close) kills
    // only that connection.
    let mut torn = Client::connect(server.addr());
    torn.send_raw(&wire::encode_header(Opcode::Query, 9, 4)[..7]);
    drop(torn);

    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(999);
    assert!(stats.conns_reaped >= 1, "short read was not reaped");
    probe.send_query(10, 0, &batch);
    let (header, got) = probe.read_frame().expect("results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(got, expected_payload(&builder, &index, &batch));
    drop(probe);
    server.stop();
}

#[test]
fn busy_storm_answers_every_frame_and_recovers() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        queue_depth: 1,
        linger: Duration::ZERO,
        max_frame_len: 16 << 20,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());

    // A burst far past the 1-slot queue: every frame must draw either
    // RESULTS or BUSY — nothing dropped silently, no disconnect.
    let slow = QueryBatch::uniform(QueryRequest::locate(), vec![Vec::<Base>::new(); 40]);
    let quick = QueryBatch::new().count(genome.seq().slice(0, 8));
    client.send_query(0, 0, &slow);
    for id in 1..=20u64 {
        client.send_query(id, 0, &quick);
    }
    let mut answered = 0;
    let mut busy = 0;
    for _ in 0..21 {
        let (header, _) = client.read_frame().expect("an answer per frame");
        match Opcode::from_byte(header.opcode).expect("known opcode") {
            Opcode::Results => answered += 1,
            Opcode::Busy => busy += 1,
            other => panic!("unexpected {other:?} in a BUSY storm"),
        }
    }
    assert!(busy >= 1, "the storm never tripped backpressure");
    assert_eq!(answered + busy, 21);

    // After the storm the same connection serves normally.
    let batch = mixed_batch(&genome, 10, 8);
    client.send_query(100, 0, &batch);
    let (header, payload) = client.read_frame().expect("post-storm results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));
    drop(client);
    server.stop();
}

#[test]
fn stats_opcode_survives_the_fault_storm() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        // Short idle timeout so stalled chaos connections are reaped
        // within the test's lifetime.
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    thread::scope(|scope| {
        // The control group: a healthy monitor polls STATS throughout
        // the storm. Every reply must decode, counters must stay
        // monotone, and the heap attribution published at bind must
        // keep summing exactly — a torn STATS frame on another
        // connection can never bleed into this one.
        let server_ref = &server;
        scope.spawn(move || {
            let mut monitor = Client::connect(server_ref.addr());
            let mut last = monitor.stats_snapshot(0);
            for round in 1..=12u64 {
                thread::sleep(Duration::from_millis(25));
                let stats = monitor.stats_snapshot(round);
                assert!(
                    stats.connections >= last.connections
                        && stats.errors >= last.errors
                        && stats.conns_reaped >= last.conns_reaped,
                    "counters went backwards during the storm: {last:?} -> {stats:?}"
                );
                assert_eq!(
                    stats.heap_total,
                    stats.heap_k_occ_checkpoints
                        + stats.heap_k_occ_deltas
                        + stats.heap_k_occ_codes
                        + stats.heap_one_step_occ
                        + stats.heap_sa_samples
                        + stats.heap_rank_bits
                        + stats.heap_other,
                    "heap attribution stopped summing mid-storm"
                );
                // The snapshot counters are process-startup facts set
                // by the binary; an in-process bind reports zero.
                assert_eq!(stats.snapshot_loaded, 0);
                assert_eq!(stats.snapshot_rejected, 0);
                last = stats;
            }
        });

        // The storm: STATS frames sabotaged per a seeded plan — torn
        // headers, truncated frames, flipped bytes, stalls — each on a
        // sacrificial connection that asserts nothing about its own
        // answer.
        scope.spawn(move || {
            let mut plan = FaultPlan::new(4321, 1.0);
            let mut stalled = Vec::new();
            for i in 0..40u64 {
                let frame = wire::frame(Opcode::Stats, i, &[]);
                let fault = plan.decide(frame.len());
                let mut chaos = Client::connect(server_ref.addr());
                let _ = chaos.stream.write_all(&fault.wire_bytes(&frame));
                if fault.stalls() {
                    stalled.push(chaos); // park it for the reaper
                } else if !fault.disconnects() {
                    let _ = chaos
                        .stream
                        .set_read_timeout(Some(Duration::from_millis(300)));
                    let _ = chaos.read_frame();
                }
            }
            // A STATS frame towing an unexpected payload still answers
            // (the payload is ignored), rather than wedging the reader.
            let mut junk = Client::connect(server_ref.addr());
            junk.send_raw(&wire::frame(Opcode::Stats, 999, b"junk payload"));
            let (header, payload) = junk.read_frame().expect("stats reply to junk");
            assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::StatsReply));
            wire::decode_stats(&payload).expect("decodable under storm");
            // Outlive the idle timeout so parked connections are
            // reaped by the server, not by this drop.
            thread::sleep(Duration::from_millis(500));
            drop(stalled);
        });
    });

    // Post-storm coherence: STATS still serves, and so do queries,
    // byte-verified.
    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(5000);
    assert!(stats.connections >= 40, "storm connections unaccounted");
    let batch = mixed_batch(&genome, 10, 91);
    probe.send_query(5001, 0, &batch);
    let (header, payload) = probe.read_frame().expect("post-storm results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));
    drop(probe);
    server.stop();
}

#[test]
fn concurrent_shutdowns_are_idempotent_and_join_cleanly() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(2);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&index),
        builder,
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let handle_a = server.handle().expect("handle");
    let handle_b = server.handle().expect("handle");
    let addr = handle_a.addr();
    let server_thread = thread::spawn(move || server.run());

    // Traffic before the race, so the drain has a live connection and
    // verified in-flight state to finish.
    let mut client = Client::connect(addr);
    let batch = mixed_batch(&genome, 20, 17);
    client.send_query(1, 0, &batch);
    let (header, payload) = client.read_frame().expect("pre-drain results");
    assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::Results));
    assert_eq!(payload, expected_payload(&builder, &index, &batch));

    // The race: two handles shut down at the same instant. Both calls
    // must return (no deadlock, no panic) and the drain must happen
    // exactly once — `run()` returning Ok is the join-cleanly claim.
    let barrier = std::sync::Barrier::new(2);
    thread::scope(|scope| {
        for handle in [&handle_a, &handle_b] {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                handle.shutdown();
            });
        }
    });
    server_thread
        .join()
        .expect("server thread")
        .expect("drain exits clean");

    // Late shutdowns after the drain completed are no-ops, mirroring a
    // second SIGTERM landing on an already-draining process.
    handle_a.shutdown();
    handle_b.shutdown();
}

#[test]
fn pipelining_connections_get_one_terminal_frame_per_request() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        queue_depth: 2,
        linger: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);

    // Four connections each write 64 frames at once against a 2-slot
    // queue: readers admit, overflow and lead concurrently. Whoever
    // holds the leader token, every request id must draw exactly one
    // RESULTS (byte-exact) or BUSY — none stranded behind a leader
    // that had just looked, none answered twice.
    const CONNS: u64 = 4;
    const FRAMES: u64 = 64;
    let barrier = Barrier::new(CONNS as usize);
    let (results, busy): (u64, u64) = thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                let (server, genome, index, barrier) = (&server, &genome, &index, &barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(server.addr());
                    let batches: Vec<QueryBatch> = (0..FRAMES)
                        .map(|i| mixed_batch(genome, 5, c * 1000 + i))
                        .collect();
                    let mut burst = Vec::new();
                    for (i, batch) in batches.iter().enumerate() {
                        let mut payload = Vec::new();
                        wire::encode_query_batch(batch, &mut payload).expect("encodable");
                        let id = (c << 32) | i as u64;
                        burst.extend_from_slice(&wire::query_frame(id, 0, &payload));
                    }
                    barrier.wait();
                    client.send_raw(&burst);
                    let mut outcomes = HashMap::new();
                    for _ in 0..FRAMES {
                        let (header, payload) = client.read_frame().expect("an answer per frame");
                        assert_eq!(header.request_id >> 32, c, "misrouted reply");
                        let i = (header.request_id & 0xffff_ffff) as usize;
                        let opcode = Opcode::from_byte(header.opcode).expect("known opcode");
                        match opcode {
                            Opcode::Results => assert_eq!(
                                payload,
                                expected_payload(&builder, index, &batches[i]),
                                "connection {c} frame {i} diverged"
                            ),
                            Opcode::Busy => {}
                            other => panic!("unexpected {other:?} for a pipelined frame"),
                        }
                        let twice = outcomes.insert(i, opcode);
                        assert!(twice.is_none(), "frame {i} answered twice");
                    }
                    let results = outcomes.values().filter(|&&op| op == Opcode::Results);
                    let results = results.count() as u64;
                    (results, FRAMES - results)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .fold((0, 0), |sum, each| (sum.0 + each.0, sum.1 + each.1))
    });
    assert!(results >= 1, "nothing was admitted");
    assert!(busy >= 1, "a 2-slot queue never filled");

    let mut probe = Client::connect(server.addr());
    let stats = probe.stats_snapshot(999);
    assert_eq!(stats.submissions_admitted, results);
    assert_eq!(stats.submissions_busy, busy);
    assert_eq!(stats.submissions_coalesced, stats.submissions_admitted);
    assert_eq!(stats.queue_depth, 0, "a submission was left queued");
    drop(probe);
    server.stop();
}

#[test]
fn shutdown_waits_for_the_run_a_leader_is_inside() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    let config = ServerConfig {
        linger: Duration::ZERO,
        max_frame_len: 16 << 20,
        ..ServerConfig::default()
    };
    let server = TestServer::start(Arc::clone(&index), builder, config);
    let mut client = Client::connect(server.addr());
    let mut probe = Client::connect(server.addr());

    // Forty uncapped empty-pattern locates resolve the whole text forty
    // times over: a run long enough for the drain to land inside it.
    // `batches_run` is counted as the run starts, so once it reads 1
    // the client's own reader thread is the leader, inside the engine.
    let slow = QueryBatch::uniform(QueryRequest::locate(), vec![Vec::<Base>::new(); 40]);
    client.send_query(1, 0, &slow);
    while probe.stats_snapshot(0).batches_run == 0 {
        thread::yield_now();
    }
    server.handle.shutdown();
    client.send_query(2, 0, &mixed_batch(&genome, 10, 9));

    // No batcher thread is left to finish the work: the drain must let
    // the leading reader finish, deliver its RESULTS, and only then
    // close the connection — having told the later query to go away.
    let mut opcodes = Vec::new();
    while let Some((header, payload)) = client.read_frame() {
        let opcode = Opcode::from_byte(header.opcode).expect("known opcode");
        match opcode {
            Opcode::Results => {
                assert_eq!(header.request_id, 1);
                assert_eq!(payload, expected_payload(&builder, &index, &slow));
            }
            Opcode::Goaway => assert_eq!(header.request_id, 2),
            other => panic!("unexpected {other:?} during drain"),
        }
        opcodes.push(opcode);
    }
    assert_eq!(opcodes, [Opcode::Results, Opcode::Goaway]);

    let started = Instant::now();
    server.thread.join().expect("server thread").expect("serve");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took implausibly long"
    );
}
