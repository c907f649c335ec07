//! CONGEST-style message accounting.
//!
//! The CONGEST model restricts messages to `O(log n)` bits (footnote 3 of
//! the paper); a recent result the paper discusses (\[BCMOS21\] in its
//! bibliography) shows that on *trees* every LCL has the same asymptotic
//! complexity in LOCAL and CONGEST. This module makes the bandwidth of a
//! [`SyncAlgorithm`] measurable, so the suite's algorithms can certify
//! themselves CONGEST-compatible: the executor reports the maximum message
//! size actually sent.

use std::cell::Cell;

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{Degraded, RunOptions};
use lcl_graph::Graph;

use crate::sync::{simulate_sync_with, NodeInit, SyncAlgorithm, SyncRun};

/// Bit-size measurement for message types.
pub trait MessageBits {
    /// An upper bound on the bits needed to encode `self`.
    fn message_bits(&self) -> usize;
}

impl MessageBits for u64 {
    fn message_bits(&self) -> usize {
        64 - self.leading_zeros() as usize
    }
}

impl MessageBits for bool {
    fn message_bits(&self) -> usize {
        1
    }
}

impl<T: MessageBits> MessageBits for Vec<T> {
    fn message_bits(&self) -> usize {
        self.iter().map(MessageBits::message_bits).sum()
    }
}

impl<A: MessageBits, B: MessageBits> MessageBits for (A, B) {
    fn message_bits(&self) -> usize {
        self.0.message_bits() + self.1.message_bits()
    }
}

impl<A: MessageBits, B: MessageBits, C: MessageBits> MessageBits for (A, B, C) {
    fn message_bits(&self) -> usize {
        self.0.message_bits() + self.1.message_bits() + self.2.message_bits()
    }
}

impl MessageBits for u8 {
    fn message_bits(&self) -> usize {
        8
    }
}

impl MessageBits for u32 {
    fn message_bits(&self) -> usize {
        32 - self.leading_zeros() as usize
    }
}

/// A [`SyncRun`] plus bandwidth statistics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CongestRun {
    /// The underlying run; a run that exhausts `max_rounds` carries one
    /// `"no-halt"` fault per unfinished node.
    pub run: Degraded<SyncRun>,
    /// The largest single message, in bits.
    pub max_message_bits: usize,
    /// Total bits sent over the whole execution.
    pub total_bits: u64,
}

impl CongestRun {
    /// Whether every message fit in `c · ⌈log₂ n⌉` bits.
    pub fn is_congest(&self, n: usize, c: usize) -> bool {
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        self.max_message_bits <= c * log_n
    }
}

/// Runs a [`SyncAlgorithm`] through [`simulate_sync_with`] while
/// measuring message sizes. A run that does not halt within `max_rounds`
/// degrades to typed `"no-halt"` faults, with the bits of every round it
/// ran counted.
pub fn run_congest<A>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
) -> CongestRun
where
    A: SyncAlgorithm,
    A::Msg: MessageBits,
{
    /// Forwards to the wrapped algorithm, metering every message sent.
    struct Metered<'a, A> {
        alg: &'a A,
        max_bits: Cell<usize>,
        total_bits: Cell<u64>,
    }
    impl<A: SyncAlgorithm> SyncAlgorithm for Metered<'_, A>
    where
        A::Msg: MessageBits,
    {
        type State = A::State;
        type Msg = A::Msg;
        fn init(&self, init: &NodeInit) -> A::State {
            self.alg.init(init)
        }
        fn send(&self, state: &A::State, round: u32) -> Vec<A::Msg> {
            let out = self.alg.send(state, round);
            for msg in &out {
                let bits = msg.message_bits();
                self.max_bits.set(self.max_bits.get().max(bits));
                self.total_bits.set(self.total_bits.get() + bits as u64);
            }
            out
        }
        fn receive(&self, state: &mut A::State, inbox: &[A::Msg], round: u32) {
            self.alg.receive(state, inbox, round);
        }
        fn is_done(&self, state: &A::State) -> bool {
            self.alg.is_done(state)
        }
        fn output(&self, state: &A::State) -> Vec<OutLabel> {
            self.alg.output(state)
        }
        fn name(&self) -> &str {
            self.alg.name()
        }
    }
    let metered = Metered {
        alg,
        max_bits: Cell::new(0),
        total_bits: Cell::new(0),
    };
    let report = simulate_sync_with(
        &metered,
        graph,
        input,
        ids,
        n_announced,
        max_rounds,
        RunOptions::new(),
    );
    CongestRun {
        run: report.outcome,
        max_message_bits: metered.max_bits.get(),
        total_bits: metered.total_bits.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    /// Flood the maximum id for `k` rounds (messages are ids: log n bits).
    struct Flood {
        k: u32,
    }

    #[derive(Clone)]
    struct St {
        best: u64,
        degree: usize,
        round: u32,
        k: u32,
    }

    impl SyncAlgorithm for Flood {
        type State = St;
        type Msg = u64;
        fn init(&self, init: &NodeInit) -> St {
            St {
                best: init.id,
                degree: init.degree as usize,
                round: 0,
                k: self.k,
            }
        }
        fn send(&self, s: &St, _r: u32) -> Vec<u64> {
            vec![s.best; s.degree]
        }
        fn receive(&self, s: &mut St, inbox: &[u64], _r: u32) {
            for &m in inbox {
                s.best = s.best.max(m);
            }
            s.round += 1;
        }
        fn is_done(&self, s: &St) -> bool {
            s.round >= s.k
        }
        fn output(&self, s: &St) -> Vec<OutLabel> {
            vec![OutLabel(0); s.degree]
        }
    }

    #[test]
    fn id_flooding_is_congest() {
        let g = gen::cycle(16);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..16).collect();
        let run = run_congest(&Flood { k: 3 }, &g, &input, &ids, None, 100);
        assert!(run.max_message_bits <= 4); // ids < 16
        assert!(run.is_congest(16, 1));
        assert!(run.run.faults.is_empty());
        assert_eq!(run.run.outcome.rounds, 3);
        assert!(run.total_bits > 0);
    }

    /// A flood that outlasts `max_rounds` degrades to one typed
    /// `"no-halt"` fault per node instead of aborting, and its bits are
    /// still metered for the rounds it ran.
    #[test]
    fn runaway_flood_degrades_to_no_halt_faults() {
        let g = gen::cycle(8);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..8).collect();
        let run = run_congest(&Flood { k: 1000 }, &g, &input, &ids, None, 5);
        assert_eq!(run.run.outcome.rounds, 5);
        assert_eq!(run.run.faults.len(), 8);
        assert!(run
            .run
            .faults
            .iter()
            .all(|f| f.payload == "did not halt within 5 rounds" && f.round == 5));
        assert!(run.max_message_bits <= 3); // ids < 8
        assert!(run.total_bits > 0);
    }

    #[test]
    fn message_bits_instances() {
        assert_eq!(0u64.message_bits(), 0);
        assert_eq!(255u64.message_bits(), 8);
        assert_eq!(true.message_bits(), 1);
        assert_eq!(vec![1u64, 255].message_bits(), 9);
        assert_eq!((3u64, true).message_bits(), 3);
        assert_eq!((1u64, 2u8, false).message_bits(), 10);
    }
}
