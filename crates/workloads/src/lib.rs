//! Synthetic interaction-stream generators ("workloads") for the DODA
//! reproduction.
//!
//! The paper evaluates nothing on real traces — its results are stated
//! against the uniform randomized adversary and against explicit
//! adversarial constructions. The workloads here serve two purposes:
//!
//! 1. provide the *uniform* process of Section 4 and controlled departures
//!    from it (Zipf popularity, community mixing) for the non-uniform
//!    adversary question raised in the conclusion;
//! 2. stand in for the contact traces of the scenarios that motivate the
//!    paper's introduction (body-area sensor networks, vehicular ad-hoc
//!    encounters), so the examples exercise the same code paths a real
//!    deployment would; the repository ships no recorded traces.
//!
//! Every generator is **streaming-first**: [`Workload::source`] yields a
//! seeded, infinite [`doda_core::InteractionSource`] that the engine pulls
//! one interaction at a time, so sweeps run in `O(n)` memory at any
//! horizon. [`Workload::generate`] and [`Workload::fill`] are thin
//! defaults that drain the same source, which makes the streamed and
//! materialised views of a workload identical **by construction**: element
//! `t` of the stream is exactly `generate(len, seed).get(t)`.
//!
//! # Example
//!
//! ```
//! use doda_core::InteractionSequence;
//! use doda_workloads::{UniformWorkload, Workload};
//!
//! let workload = UniformWorkload::new(10);
//! // Streaming view: no buffer, pull-based.
//! let mut source = workload.source(42);
//! // Materialised view: identical interactions, now in a buffer.
//! let seq = workload.generate(500, 42);
//! assert_eq!(seq, InteractionSequence::materialize(source.as_mut(), 500));
//! assert_eq!(seq.len(), 500);
//! assert_eq!(seq.node_count(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod body_area;
pub mod community;
pub mod round_robin;
pub mod rounds;
pub mod tree_restricted;
pub mod uniform;
pub mod vehicular;
pub mod zipf;

pub use body_area::BodyAreaWorkload;
pub use community::CommunityWorkload;
pub use round_robin::RoundRobinWorkload;
pub use rounds::{
    IntervalConnectedWorkload, RandomMatchingWorkload, RoundWorkload, TorusContactWorkload,
    TournamentWorkload,
};
pub use tree_restricted::TreeRestrictedWorkload;
pub use uniform::UniformWorkload;
pub use vehicular::VehicularWorkload;
pub use zipf::ZipfWorkload;

use doda_core::{InteractionSequence, InteractionSource};

/// A generator of interaction streams.
///
/// Implementations are deterministic: the same seed always yields the same
/// stream, and the materialised views derived from it ([`generate`],
/// [`fill`]) are prefixes of that stream.
///
/// [`generate`]: Workload::generate
/// [`fill`]: Workload::fill
pub trait Workload {
    /// Number of nodes in the generated dynamic graphs.
    fn node_count(&self) -> usize;

    /// A short, human-readable name used in reports and benchmark labels.
    fn name(&self) -> &str;

    /// A seeded, infinite streaming source over this workload's
    /// interaction stream. This is the primary generation API: the engine
    /// pulls one interaction per step and nothing is buffered, so a trial
    /// at horizon 10⁷ costs the same memory as one at horizon 10³.
    ///
    /// Determinism contract: for every `len > t`, the `t`-th interaction
    /// produced by this source equals `generate(len, seed).get(t)`.
    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send>;

    /// Materialises a sequence of exactly `len` interactions — the prefix
    /// of [`source`]`(seed)` of that length. Only needed by the knowledge
    /// oracles (meetTime, futures, underlying graph), which must see the
    /// future; everything else should stream.
    ///
    /// [`source`]: Workload::source
    fn generate(&self, len: usize, seed: u64) -> InteractionSequence {
        let mut seq = InteractionSequence::new(self.node_count());
        self.fill(&mut seq, len, seed);
        seq
    }

    /// Fills `seq` with exactly the sequence `generate(len, seed)` would
    /// return, reusing its allocation. Sweep workers that must materialise
    /// (knowledge-based algorithms) refill one scratch buffer across many
    /// trials through this.
    fn fill(&self, seq: &mut InteractionSequence, len: usize, seed: u64) {
        seq.fill_from(self.source(seed).as_mut(), len);
    }
}

// References delegate everything (including the provided methods, in case
// an implementor overrides them), so generic consumers can hand any
// `&W: Workload` to an API that stores `&dyn Workload`.
impl<W: Workload + ?Sized> Workload for &W {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        (**self).source(seed)
    }

    fn generate(&self, len: usize, seed: u64) -> InteractionSequence {
        (**self).generate(len, seed)
    }

    fn fill(&self, seq: &mut InteractionSequence, len: usize, seed: u64) {
        (**self).fill(seq, len, seed)
    }
}

/// FNV-1a over the `(a, b)` pairs of the first `len` interactions of
/// `workload` at `seed`: a compact pin for golden-stream tests.
#[cfg(test)]
pub(crate) fn stream_fingerprint(workload: &dyn Workload, len: usize, seed: u64) -> u64 {
    let n = workload.node_count() as u64;
    workload
        .generate(len, seed)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, ti| {
            let (a, b) = ti.interaction.pair();
            (hash ^ (a.index() as u64 * n + b.index() as u64)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::sequence::AdversaryView;
    use doda_graph::NodeId;

    fn all_workloads(n: usize) -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(UniformWorkload::new(n)),
            Box::new(ZipfWorkload::new(n, 1.2)),
            Box::new(CommunityWorkload::new(n, 2, 0.9)),
            Box::new(BodyAreaWorkload::new(n)),
            Box::new(VehicularWorkload::new(n, 3)),
            Box::new(RoundRobinWorkload::all_pairs(n)),
            Box::new(TreeRestrictedWorkload::random_tree(n)),
        ]
    }

    /// All workloads must produce valid, deterministic sequences of the
    /// requested length.
    #[test]
    fn all_workloads_produce_valid_deterministic_sequences() {
        for w in &all_workloads(8) {
            assert_eq!(w.node_count(), 8, "{}", w.name());
            let a = w.generate(300, 7);
            let b = w.generate(300, 7);
            let c = w.generate(300, 8);
            assert_eq!(a.len(), 300, "{}", w.name());
            assert_eq!(a.node_count(), 8, "{}", w.name());
            assert_eq!(a, b, "{} must be deterministic", w.name());
            // Different seeds should (essentially always) differ, except for
            // the fully deterministic round-robin workload.
            if w.name() != "round-robin" {
                assert_ne!(a, c, "{} should vary with the seed", w.name());
            }
            assert!(!w.name().is_empty());
        }
    }

    /// `fill` must be observationally identical to `generate`, including
    /// when the target buffer held a stale sequence of a different shape.
    #[test]
    fn fill_matches_generate_for_all_workloads() {
        for w in &all_workloads(8) {
            // Stale scratch over a different node count and length.
            let mut scratch = UniformWorkload::new(5).generate(40, 0);
            w.fill(&mut scratch, 200, 11);
            assert_eq!(scratch, w.generate(200, 11), "{}", w.name());
        }
    }

    /// The streaming contract: the source's stream and the materialised
    /// sequence are the same object viewed two ways. This is what makes
    /// streamed and materialised trial execution byte-identical.
    #[test]
    fn source_streams_exactly_what_generate_materializes() {
        for w in &all_workloads(9) {
            for seed in [0u64, 7, 0xD0DA] {
                let seq = w.generate(400, seed);
                let mut source = w.source(seed);
                assert_eq!(source.node_count(), w.node_count(), "{}", w.name());
                let owns = vec![true; w.node_count()];
                let view = AdversaryView {
                    owns_data: &owns,
                    sink: NodeId(0),
                };
                for t in 0..400u64 {
                    assert_eq!(
                        source.next_interaction(t, &view),
                        seq.get(t),
                        "{} diverged at t={t}, seed={seed}",
                        w.name()
                    );
                }
            }
        }
    }

    /// Workload sources never run dry: every generator models an endless
    /// contact process.
    #[test]
    fn sources_are_infinite() {
        for w in &all_workloads(6) {
            let mut source = w.source(3);
            let owns = vec![true; 6];
            let view = AdversaryView {
                owns_data: &owns,
                sink: NodeId(0),
            };
            for t in 0..2_000u64 {
                assert!(
                    source.next_interaction(t, &view).is_some(),
                    "{} ran dry at t={t}",
                    w.name()
                );
            }
        }
    }
}
