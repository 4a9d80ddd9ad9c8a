//! Uniform random contacts — the paper's randomized adversary as a workload.

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::RngCore;

use crate::Workload;

/// Uniformly random pairwise contacts over `n` nodes: every pair occurs
/// with probability `2 / (n(n−1))` at every time step, exactly the
/// randomized adversary of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformWorkload {
    n: usize,
}

impl UniformWorkload {
    /// Creates the workload over `n ≥ 2` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        UniformWorkload { n }
    }
}

impl Workload for UniformWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "uniform"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        Box::new(UniformSource {
            n: self.n,
            first: Remainder::new(self.n as u64),
            second: Remainder::new(self.n as u64 - 1),
            rng: seeded_rng(seed),
        })
    }
}

/// Exact `x % d` by multiplication (Lemire, Kaser and Kurz, "Faster
/// Remainder by Direct Computation", 2019): with the 128-bit magic
/// `c = ⌈2¹²⁸ / d⌉`, the remainder is the high 64 bits of
/// `(c·x mod 2¹²⁸)·d`. Four 64-bit multiplies replace a 64-bit division,
/// and the result equals `x % d` for every `x` and every `d ≥ 1`
/// (for `d = 1` the magic wraps to 0 and so does the remainder).
#[derive(Debug, Clone, Copy)]
struct Remainder {
    divisor: u64,
    magic: u128,
}

impl Remainder {
    fn new(divisor: u64) -> Self {
        Remainder {
            divisor,
            magic: (u128::MAX / u128::from(divisor)).wrapping_add(1),
        }
    }

    #[inline]
    fn of(self, x: u64) -> u64 {
        let fraction = self.magic.wrapping_mul(u128::from(x));
        let d = u128::from(self.divisor);
        let low = (fraction as u64 as u128) * d;
        let high = (fraction >> 64) * d;
        ((high + (low >> 64)) >> 64) as u64
    }
}

/// Streaming source behind [`UniformWorkload`]: one uniform pair per step.
///
/// The endpoints are `a = x % n` and `b = y % (n − 1)`, skipping `a`, for
/// two consecutive 64-bit draws `x`, `y`; the remainders are computed by
/// multiplication with constants fixed when the source is built.
#[derive(Debug, Clone)]
pub struct UniformSource {
    n: usize,
    first: Remainder,
    second: Remainder,
    rng: DodaRng,
}

impl UniformSource {
    /// The next pair, ordered `(min, max)`. Ordering the endpoints with
    /// `min`/`max` before `Interaction::new` turns its normalisation branch
    /// (50/50 on random pairs, so mispredicted half the time) into
    /// branch-free moves plus an always-taken compare.
    #[inline]
    fn next_pair(&mut self) -> Interaction {
        let a = self.first.of(self.rng.next_u64());
        let raw = self.second.of(self.rng.next_u64());
        let b = raw + u64::from(raw >= a);
        let lo = a.min(b) as usize;
        let hi = a.max(b) as usize;
        Interaction::new(NodeId(lo), NodeId(hi))
    }
}

impl InteractionSource for UniformSource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        Some(self.next_pair())
    }

    // The sized `extend` reserves once instead of growth-checking every
    // push. `tests/lane_equivalence.rs` pins the per-step/batched match.
    fn next_interaction_batch(
        &mut self,
        _t0: Time,
        _view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        out.extend((0..max).map(|_| self.next_pair()));
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::stream_fingerprint;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn remainder_equals_the_modulo(x in 0u64..u64::MAX, d in 1u64..(1 << 32) + 1) {
            // Node counts are mostly small: test a small divisor beside each
            // draw from the whole range.
            for d in [d, d % 1024 + 1] {
                let rem = Remainder::new(d);
                for x in [x, 0, u64::MAX, d - 1, d, x / d * d] {
                    prop_assert_eq!(rem.of(x), x % d, "x = {}, d = {}", x, d);
                }
            }
        }
    }

    #[test]
    fn remainder_is_exact_at_the_divisor_extremes() {
        for d in [
            1,
            2,
            3,
            7,
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let rem = Remainder::new(d);
            for x in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                assert_eq!(rem.of(x), x % d, "x = {x}, d = {d}");
            }
        }
    }

    /// Fingerprints of the first 20,000 interactions at seeds 0, 7 and
    /// `0xD0DA`, recorded when both endpoints were mapped with `%`.
    #[test]
    fn streams_match_recorded_fingerprints() {
        let golden: [(usize, [u64; 3]); 6] = [
            (
                2,
                [
                    0x475e_a216_048c_d7c5,
                    0x475e_a216_048c_d7c5,
                    0x475e_a216_048c_d7c5,
                ],
            ),
            (
                3,
                [
                    0x59a4_b98b_a355_0551,
                    0xa342_4fdf_870e_cb58,
                    0xd38e_d085_a982_c94a,
                ],
            ),
            (
                10,
                [
                    0xa404_dfee_b36d_73ba,
                    0x4d99_849c_2321_0e09,
                    0x68a0_e3a7_6a78_6f34,
                ],
            ),
            (
                96,
                [
                    0x479d_7057_9db8_338a,
                    0x24f2_9e82_7d7b_bd50,
                    0x3183_69cb_9032_3eb3,
                ],
            ),
            (
                256,
                [
                    0xd35d_ab64_a2fc_b01d,
                    0xf095_c396_517a_61cc,
                    0xec23_8f77_e94b_3929,
                ],
            ),
            (
                1000,
                [
                    0x3486_d72d_626e_4119,
                    0x735d_9d44_3f54_2213,
                    0x850f_8e6c_bf79_537d,
                ],
            ),
        ];
        for (n, expected) in golden {
            let workload = UniformWorkload::new(n);
            for (seed, want) in [0u64, 7, 0xD0DA].into_iter().zip(expected) {
                assert_eq!(
                    stream_fingerprint(&workload, 20_000, seed),
                    want,
                    "n = {n}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn generates_requested_length_and_valid_pairs() {
        let w = UniformWorkload::new(6);
        let seq = w.generate(1000, 3);
        assert_eq!(seq.len(), 1000);
        for ti in seq.iter() {
            assert!(ti.interaction.max().index() < 6);
        }
    }

    #[test]
    fn underlying_graph_becomes_complete_quickly() {
        let w = UniformWorkload::new(6);
        let seq = w.generate(500, 9);
        assert!(seq.underlying_graph().is_complete());
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_single_node() {
        let _ = UniformWorkload::new(1);
    }
}
