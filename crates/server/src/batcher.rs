//! The continuous-batching dispatcher.
//!
//! The engine's whole design bets on batch size: lockstep rounds only
//! amortize occurrence-table locality when many queries advance
//! together (PR 2's sweep measured the knee around a few hundred
//! queries). A network client, though, submits whatever its own
//! request stream carries — often a handful of queries per frame. The
//! `Dispatcher` closes that gap the way LLM serving systems do, and
//! without a thread of its own: every connection reader admits its
//! decoded submissions to one bounded queue (full ⇒ BUSY: backpressure
//! with an explicit signal, not an unbounded buffer), then tries to
//! take the *leader token*. The winner merges whatever has accumulated
//! into one `QueryBatch` (up to `MAX_BATCH_QUERIES` queries), runs the
//! engine once on its own thread, and splits the pooled results back
//! out by each submission's query range; a loser goes straight back to its socket, and what it admits
//! while the engine runs *is* the next batch — coalescing without
//! sleeping, and no hand-off or timer on an idle server.
//!
//! A leader cannot strand a follower's submission: every admit is
//! followed by a try at the token, and a leader that found the queue
//! empty looks at it once more *after* releasing the token. A
//! follower's failed try means the token was still held after its
//! submission was queued, so that last look sees it (or the token's
//! next holder does).
//!
//! A `linger` window (Kafka's `linger.ms`, by another name) lets the
//! leader wait on the queue's condvar after a batch's first submission
//! so concurrent clients coalesce even when the engine is faster than
//! the arrival process. It defaults to zero — run what is there — and
//! pays only when many connections keep an engine-bound server busy.
//!
//! Deadlines are enforced *here*, not at admission: a submission's
//! budget is checked when the leader takes it off the queue and
//! re-checked after the linger window, because queueing and lingering
//! are exactly where a request's budget silently drains away. An
//! expired submission answers a typed LATE frame and never reaches the
//! engine — load shedding that saves the whole engine run a dead client
//! would otherwise burn. Submissions whose connection died (writer
//! overflow, socket failure) are skipped the same way.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use exma_engine::{Executor, QueryArena, QueryBatch};

use crate::conn::{ReplyHandle, Stamps};
use crate::wire::{self, LateInfo, Opcode, ServerStats};
use crate::MAX_BATCH_QUERIES;

/// One decoded QUERY frame, queued for a leader.
pub(crate) struct Submission {
    /// The client's request id, echoed on the response frame.
    pub request_id: u64,
    /// The decoded batch (caps already clamped to the server ceiling).
    pub batch: QueryBatch,
    /// When the frame finished arriving — the deadline clock's zero.
    pub arrival: Instant,
    /// The effective latency budget (client deadline clamped to the
    /// server ceiling); `None` never expires.
    pub budget: Option<Duration>,
    /// The connection's bounded writer queue; the leader sends the
    /// encoded RESULTS (or LATE) frame here.
    pub reply: ReplyHandle,
}

impl Submission {
    /// Whether the submission is still worth an engine run. An elapsed
    /// budget answers LATE (elapsed vs budget) here; a connection
    /// already torn down gets nothing: nothing could deliver it.
    fn still_wanted(&self, stats: &ServerStats) -> bool {
        let late = self.budget.and_then(|budget| {
            let elapsed = self.arrival.elapsed();
            (elapsed > budget).then(|| LateInfo {
                elapsed_us: saturating_us(elapsed),
                budget_us: saturating_us(budget),
            })
        });
        if let Some(late) = late {
            stats.late_dropped.fetch_add(1, Ordering::Relaxed);
            let mut payload = Vec::with_capacity(8);
            wire::encode_late(late, &mut payload);
            let frame = wire::frame(Opcode::Late, self.request_id, &payload);
            self.reply.send(frame, None, stats);
            return false;
        }
        !self.reply.is_dead()
    }
}

/// A duration in whole microseconds, saturating at `u32::MAX`.
fn saturating_us(d: Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

impl ServerStats {
    /// Publishes the served index's heap attribution — called once at
    /// [`crate::Server::bind`]; the fields are static thereafter.
    pub fn record_heap(&self, heap: &exma_engine::HeapBreakdown) {
        self.heap_total
            .store(heap.total() as u64, Ordering::Relaxed);
        self.heap_k_occ_checkpoints
            .store(heap.k_occ_checkpoints as u64, Ordering::Relaxed);
        self.heap_k_occ_deltas
            .store(heap.k_occ_deltas as u64, Ordering::Relaxed);
        self.heap_k_occ_codes
            .store(heap.k_occ_codes as u64, Ordering::Relaxed);
        self.heap_one_step_occ
            .store(heap.one_step_occ as u64, Ordering::Relaxed);
        self.heap_sa_samples
            .store(heap.sa_samples as u64, Ordering::Relaxed);
        self.heap_rank_bits
            .store(heap.rank_bits as u64, Ordering::Relaxed);
        self.heap_other.store(heap.other as u64, Ordering::Relaxed);
    }

    /// Publishes the served index's strandedness — called once at
    /// [`crate::Server::bind`] alongside [`ServerStats::record_heap`].
    pub fn record_strandedness(&self, bidirectional: bool, text_len: usize) {
        self.bidir_enabled
            .store(u64::from(bidirectional), Ordering::Relaxed);
        self.bidir_text_len
            .store(text_len as u64, Ordering::Relaxed);
    }

    /// Adds one written RESULTS frame's stage durations; the writer
    /// calls this as its `write_all` returns.
    pub(crate) fn note_reply(&self, stamps: &Stamps) {
        let ns = |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos() as u64;
        self.queue_wait_ns
            .fetch_add(ns(stamps.arrival, stamps.engine_start), Ordering::Relaxed);
        self.engine_ns.fetch_add(
            ns(stamps.engine_start, stamps.engine_end),
            Ordering::Relaxed,
        );
        self.reply_ns
            .fetch_add(ns(stamps.engine_end, Instant::now()), Ordering::Relaxed);
        self.replies_timed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_coalesced(&self, submissions: usize) {
        self.submissions_coalesced
            .fetch_add(submissions as u64, Ordering::Relaxed);
        self.max_coalesced
            .fetch_max(submissions as u64, Ordering::Relaxed);
    }
}

/// What the leader token guards: the buffers of an engine run, reused
/// so steady-state batches execute allocation-free like an embedded caller's.
#[derive(Default)]
struct Leader {
    pending: Vec<Submission>,
    merged: QueryBatch,
    arena: QueryArena,
    payload: Vec<u8>,
}

/// The admission queue and the leader token; see the module docs.
pub(crate) struct Dispatcher {
    queue: Mutex<VecDeque<Submission>>,
    /// Only a leader inside its linger window ever waits on it.
    arrived: Condvar,
    leader: Mutex<Leader>,
    queue_depth: usize,
    /// How long to keep coalescing after the first submission of a
    /// batch arrives. Zero drains only what is already queued.
    linger: Duration,
    pub(crate) stats: Arc<ServerStats>,
}

impl Dispatcher {
    /// A dispatcher whose queue holds at most `queue_depth` submissions
    /// and whose leaders coalesce for `linger`.
    pub fn new(queue_depth: usize, linger: Duration, stats: Arc<ServerStats>) -> Dispatcher {
        Dispatcher {
            queue: Mutex::default(),
            arrived: Condvar::new(),
            leader: Mutex::default(),
            queue_depth,
            linger,
            stats,
        }
    }

    // Neither lock is held across code that leaves its data half
    // updated (the leader's buffers are cleared before every use), so
    // a holder that panicked must not wedge every other connection.
    fn queue(&self) -> MutexGuard<'_, VecDeque<Submission>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `sub`, or hands it back when the queue is full — the
    /// caller answers BUSY. Follow a run of admits with [`Self::lead`].
    pub fn admit(&self, sub: Submission) -> Result<(), Submission> {
        let mut queue = self.queue();
        if queue.len() >= self.queue_depth {
            return Err(sub);
        }
        queue.push_back(sub);
        // Counted before the lock is released: a leader may take the
        // submission off (and count it down) the moment it is.
        self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        if !self.linger.is_zero() {
            self.arrived.notify_one(); // a syscall, and no window means no waiter
        }
        self.stats
            .submissions_admitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Tries to take the leader token and, holding it, runs the queue
    /// dry on the calling thread. Returns at once when another thread
    /// leads: that thread executes what the caller admitted.
    pub fn lead(&self, exec: &dyn Executor) {
        loop {
            let mut leader = match self.leader.try_lock() {
                Ok(leader) => leader,
                Err(TryLockError::Poisoned(dead)) => dead.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            self.serve(&mut leader, exec);
            drop(leader);
            // An admit between the leader's last look and the unlock
            // found the token taken; this look is for it.
            if self.queue().is_empty() {
                return;
            }
        }
    }

    /// [`Self::lead`], but waits for the token: returns once nothing
    /// admitted before the call is still queued or executing.
    pub fn drain(&self, exec: &dyn Executor) {
        let mut leader = self.leader.lock().unwrap_or_else(PoisonError::into_inner);
        self.serve(&mut leader, exec);
        drop(leader);
        self.lead(exec);
    }

    /// The leader loop: gather → merge → run → split, until the queue
    /// is empty.
    fn serve(&self, leader: &mut Leader, exec: &dyn Executor) {
        loop {
            leader.pending.clear();
            self.gather(&mut leader.pending);
            // Deadline re-check *after* linger: the window itself
            // consumes budget, and a submission that expired waiting
            // answers LATE instead of dragging the whole batch through
            // the engine.
            leader.pending.retain(|sub| sub.still_wanted(&self.stats));
            if leader.pending.is_empty() {
                return; // the queue is empty, or held only shed work
            }
            leader.run(exec, &self.stats);
        }
    }

    /// Moves whatever is queued into `pending`, plus anything that
    /// arrives within the linger window of the first live submission,
    /// up to the batch-size cap. The deadline check *before* linger
    /// happens here, as a submission leaves the queue.
    fn gather(&self, pending: &mut Vec<Submission>) {
        let mut queue = self.queue();
        let mut total_queries = 0;
        let mut window_ends = None;
        loop {
            while total_queries < MAX_BATCH_QUERIES {
                let Some(sub) = queue.pop_front() else { break };
                self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                if sub.still_wanted(&self.stats) {
                    total_queries += sub.batch.len();
                    pending.push(sub);
                }
            }
            if pending.is_empty() || self.linger.is_zero() || total_queries >= MAX_BATCH_QUERIES {
                return;
            }
            let ends = *window_ends.get_or_insert_with(|| Instant::now() + self.linger);
            let left = ends.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            (queue, _) = self
                .arrived
                .wait_timeout(queue, left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Leader {
    /// One engine run for everything in `pending`, then one RESULTS
    /// frame per submission, in admission order.
    fn run(&mut self, exec: &dyn Executor, stats: &ServerStats) {
        self.merged.clear();
        for sub in &self.pending {
            self.merged.extend_from(&sub.batch);
        }
        stats.batches_run.fetch_add(1, Ordering::Relaxed);
        stats.note_coalesced(self.pending.len());
        stats
            .queries_executed
            .fetch_add(self.merged.len() as u64, Ordering::Relaxed);

        let engine_start = Instant::now();
        let batch_stats = exec.run_into(&self.merged, &mut self.arena);
        let engine_end = Instant::now();
        let results = self.arena.results();
        stats
            .positions_returned
            .fetch_add(results.total_positions() as u64, Ordering::Relaxed);
        stats
            .search_rounds
            .fetch_add(batch_stats.rounds as u64, Ordering::Relaxed);
        stats
            .resolve_rounds
            .fetch_add(batch_stats.resolve_rounds as u64, Ordering::Relaxed);

        // Draining (not iterating) drops each reply sender as its
        // frame goes out: a connection's writer ends when its last
        // sender does.
        let mut start = 0;
        for sub in self.pending.drain(..) {
            let end = start + sub.batch.len();
            self.payload.clear();
            wire::encode_results_range(results, start, end, &mut self.payload);
            let frame = wire::frame(Opcode::Results, sub.request_id, &self.payload);
            let stamps = Stamps {
                arrival: sub.arrival,
                engine_start,
                engine_end,
            };
            sub.reply.send(frame, Some(stamps), stats);
            start = end;
        }
    }
}
