//! Deterministic fault injection for chaos testing the wire protocol.
//!
//! A [`FaultPlan`] is a seeded stream of sabotage decisions: given the
//! length of a frame a client is about to send, it picks what actually
//! goes on the wire — the frame intact, a torn prefix followed by a
//! hangup, a silently stalled prefix, or the frame with one byte
//! flipped. Both the chaos loopback suite and `exma-loadgen --chaos`
//! drive their misbehaving connections from this one module, so a
//! failure reproduces from its seed alone.
//!
//! The faults deliberately map one-to-one onto the failure modes the
//! server must survive: [`Fault::Truncate`] inside the header is a
//! torn header, past it a truncated payload; [`Fault::Stall`] parks a
//! half-sent frame until the idle reaper fires; [`Fault::Corrupt`]
//! exercises the decode-error paths (and, when it lands in the magic
//! byte, the unframeable-stream hangup). What every fault has in
//! common: the server must answer or drop *that* connection without
//! panicking, leaking its threads, or disturbing any other client.

use exma_genome::SeededRng;

use crate::wire::HEADER_LEN;

/// What a chaos client does to one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Put the frame on the wire untouched.
    Deliver,
    /// Send only the first `keep` bytes, then hang up. `keep` inside
    /// the header tears the header; past it, the payload (the header's
    /// `payload_len` then promises bytes that never come).
    Truncate { keep: usize },
    /// Send the first `keep` bytes, then go silent with the socket
    /// open — the stalled-read case only an idle timeout resolves.
    Stall { keep: usize },
    /// XOR one byte at `offset` with `mask`, deliver the whole frame.
    Corrupt { offset: usize, mask: u8 },
}

impl Fault {
    /// The bytes this fault actually puts on the wire for `frame`.
    pub fn wire_bytes(&self, frame: &[u8]) -> Vec<u8> {
        match *self {
            Fault::Deliver => frame.to_vec(),
            Fault::Truncate { keep } | Fault::Stall { keep } => {
                frame[..keep.min(frame.len())].to_vec()
            }
            Fault::Corrupt { offset, mask } => {
                let mut bytes = frame.to_vec();
                if let Some(byte) = bytes.get_mut(offset) {
                    *byte ^= mask;
                }
                bytes
            }
        }
    }

    /// Whether the client hangs up right after writing.
    pub fn disconnects(&self) -> bool {
        matches!(self, Fault::Truncate { .. })
    }

    /// Whether the client parks the connection open-but-silent.
    pub fn stalls(&self) -> bool {
        matches!(self, Fault::Stall { .. })
    }
}

/// A seeded stream of [`Fault`] decisions. Identical `(seed, rate)`
/// pairs replay the identical sabotage sequence.
#[derive(Debug)]
pub struct FaultPlan {
    rng: SeededRng,
    rate: f64,
}

impl FaultPlan {
    /// `rate` is the probability (clamped to `[0, 1]`) that any given
    /// frame is sabotaged rather than delivered.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            // Domain-separate from every other consumer of the seed so
            // chaos decisions don't correlate with workload synthesis.
            rng: SeededRng::new(seed ^ 0xFA17_FA17_FA17_FA17),
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The fault for the next frame of `frame_len` bytes (header
    /// included). Frames too short to meaningfully sabotage are
    /// delivered.
    pub fn decide(&mut self, frame_len: usize) -> Fault {
        if frame_len < 2 || !self.rng.chance(self.rate) {
            return Fault::Deliver;
        }
        match self.rng.below(4) {
            // Torn header: the cut lands strictly inside the header.
            0 => Fault::Truncate {
                keep: self.rng.range(1, HEADER_LEN.min(frame_len)),
            },
            // Truncated payload (degrades to a torn header for
            // header-only frames): the cut lands before the end.
            1 => Fault::Truncate {
                keep: self.rng.range(1, frame_len),
            },
            2 => Fault::Stall {
                keep: self.rng.range(1, frame_len),
            },
            _ => Fault::Corrupt {
                offset: self.rng.range(0, frame_len),
                mask: 1 << self.rng.below(8),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_always_delivers() {
        let mut plan = FaultPlan::new(7, 0.0);
        for len in [2, 16, 1000] {
            assert_eq!(plan.decide(len), Fault::Deliver);
        }
    }

    #[test]
    fn full_rate_never_delivers_and_stays_in_bounds() {
        let mut plan = FaultPlan::new(7, 1.0);
        for _ in 0..500 {
            let len = 16 + 40;
            match plan.decide(len) {
                Fault::Deliver => panic!("rate 1.0 delivered a frame"),
                Fault::Truncate { keep } | Fault::Stall { keep } => {
                    assert!((1..len).contains(&keep));
                }
                Fault::Corrupt { offset, mask } => {
                    assert!(offset < len);
                    assert!(mask != 0);
                }
            }
        }
    }

    #[test]
    fn plans_replay_deterministically() {
        let mut a = FaultPlan::new(42, 0.5);
        let mut b = FaultPlan::new(42, 0.5);
        for _ in 0..200 {
            assert_eq!(a.decide(64), b.decide(64));
        }
    }

    #[test]
    fn wire_bytes_apply_the_fault() {
        let frame: Vec<u8> = (0..32).collect();
        assert_eq!(Fault::Deliver.wire_bytes(&frame), frame);
        assert_eq!(Fault::Truncate { keep: 5 }.wire_bytes(&frame), &frame[..5]);
        assert_eq!(Fault::Stall { keep: 40 }.wire_bytes(&frame), frame);
        let corrupted = Fault::Corrupt {
            offset: 3,
            mask: 0x80,
        }
        .wire_bytes(&frame);
        assert_eq!(corrupted[3], frame[3] ^ 0x80);
        assert_eq!(corrupted[..3], frame[..3]);
        assert_eq!(corrupted[4..], frame[4..]);
    }

    #[test]
    fn fault_predicates_partition_behaviors() {
        assert!(Fault::Truncate { keep: 3 }.disconnects());
        assert!(Fault::Stall { keep: 3 }.stalls());
        assert!(!Fault::Corrupt { offset: 0, mask: 1 }.disconnects());
    }
}
