//! Vehicular ad-hoc contacts.
//!
//! The paper's introduction also motivates the problem with "cars evolving
//! in a city that communicate with each other in an ad hoc manner". This
//! workload is the synthetic stand-in: vehicles perform independent random
//! walks over a grid of road cells and two vehicles can interact only when
//! they occupy the same cell — producing the bursty, spatially correlated
//! contact pattern characteristic of vehicular traces (repeated contacts
//! while driving alongside, long silences otherwise).

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

use crate::Workload;

/// Random-waypoint-style contacts on a `grid_side × grid_side` cell grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VehicularWorkload {
    n: usize,
    grid_side: usize,
}

impl VehicularWorkload {
    /// Creates the workload: `n ≥ 2` vehicles on a `grid_side ≥ 1` grid.
    ///
    /// Small grids produce dense contact graphs (many co-located vehicles);
    /// large grids produce sparse, bursty contacts.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `grid_side == 0`.
    pub fn new(n: usize, grid_side: usize) -> Self {
        assert!(n >= 2, "need at least 2 vehicles, got {n}");
        assert!(grid_side >= 1, "the grid needs at least one cell");
        VehicularWorkload { n, grid_side }
    }

    fn step_position(&self, pos: (usize, usize), rng: &mut DodaRng) -> (usize, usize) {
        let (mut x, mut y) = pos;
        match rng.gen_range(0..4) {
            0 => x = (x + 1).min(self.grid_side - 1),
            1 => x = x.saturating_sub(1),
            2 => y = (y + 1).min(self.grid_side - 1),
            _ => y = y.saturating_sub(1),
        }
        (x, y)
    }

    fn vehicular_source(&self, seed: u64) -> VehicularSource {
        let mut rng = seeded_rng(seed);
        let index_bits = usize::BITS - (self.n - 1).leading_zeros();
        let positions: Vec<(usize, usize)> = (0..self.n)
            .map(|_| {
                (
                    rng.gen_range(0..self.grid_side),
                    rng.gen_range(0..self.grid_side),
                )
            })
            .collect();
        VehicularSource {
            workload: *self,
            positions,
            index_bits,
            by_cell: Vec::with_capacity(self.n),
            next_in_cell: vec![NO_VEHICLE; self.n],
            burst: Vec::new(),
            cursor: 0,
            rng,
        }
    }
}

impl Workload for VehicularWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "vehicular"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        Box::new(self.vehicular_source(seed))
    }
}

/// `next_in_cell` marker: no later vehicle shares the cell.
const NO_VEHICLE: usize = usize::MAX;

/// Streaming source behind [`VehicularWorkload`].
///
/// Each mobility round produces a *burst* of co-located pairs; the source
/// buffers the current round's burst (at most `n(n−1)/2` pairs, reached
/// when every vehicle shares one cell, and independent of the horizon)
/// and emits it one interaction per step before simulating the next
/// round. Co-location is found by sorting one `(cell, vehicle)` key per
/// vehicle, so a round costs `O(n log n)` plus its burst, and the source
/// holds `O(n)` state besides the burst whatever the grid size.
#[derive(Debug, Clone)]
pub struct VehicularSource {
    workload: VehicularWorkload,
    positions: Vec<(usize, usize)>,
    /// Bits of a sort key that hold the vehicle index.
    index_bits: u32,
    /// One round's sort keys, `cell << index_bits | vehicle`, where `cell`
    /// is `x·side + y` cut to the bits left free: sorted, every cell's
    /// vehicles sit in one run in increasing index order. The cut is exact
    /// whenever `side² · 2^index_bits ≤ 2⁶⁴`; on larger grids distinct
    /// cells may share a run, so links are checked against positions.
    by_cell: Vec<u64>,
    /// The next higher-indexed vehicle in the same cell, or [`NO_VEHICLE`].
    next_in_cell: Vec<usize>,
    /// The current burst; `burst[cursor..]` is still to be emitted.
    burst: Vec<Interaction>,
    cursor: usize,
    rng: DodaRng,
}

impl VehicularSource {
    /// Points every vehicle at its next higher-indexed cell-mate, or at
    /// [`NO_VEHICLE`].
    fn link_cell_mates(&mut self) {
        let (bits, side) = (self.index_bits, self.workload.grid_side as u64);
        let vehicle = |key: u64| (key & ((1 << bits) - 1)) as usize;
        self.by_cell.clear();
        self.by_cell
            .extend(self.positions.iter().enumerate().map(|(v, &(x, y))| {
                (x as u64).wrapping_mul(side).wrapping_add(y as u64) << bits | v as u64
            }));
        self.by_cell.sort_unstable();
        for (i, &key) in self.by_cell.iter().enumerate() {
            let v = vehicle(key);
            self.next_in_cell[v] = self.by_cell[i + 1..]
                .iter()
                .take_while(|&&later| later >> bits == key >> bits)
                .map(|&later| vehicle(later))
                .find(|&w| self.positions[w] == self.positions[v])
                .unwrap_or(NO_VEHICLE);
        }
    }

    /// Moves every vehicle one step and refills `burst` with this round's
    /// co-located pairs, in lexicographic `(a, b)` order, then shuffled.
    fn simulate_round(&mut self) {
        for pos in self.positions.iter_mut() {
            *pos = self.workload.step_position(*pos, &mut self.rng);
        }
        self.link_cell_mates();
        // Each vehicle's later cell-mates, ascending: the pairs come out in
        // the order of an `a < b` scan over all pairs.
        self.burst.clear();
        self.cursor = 0;
        for a in 0..self.positions.len() {
            let mut b = self.next_in_cell[a];
            while b != NO_VEHICLE {
                self.burst.push(Interaction::new(NodeId(a), NodeId(b)));
                b = self.next_in_cell[b];
            }
        }
        // Fisher-Yates shuffle for an unbiased emission order.
        for i in (1..self.burst.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.burst.swap(i, j);
        }
    }
}

impl InteractionSource for VehicularSource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.workload.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if let Some(&i) = self.burst.get(self.cursor) {
            self.cursor += 1;
            return Some(i);
        }
        self.simulate_round();
        match self.burst.first() {
            Some(&i) => {
                self.cursor = 1;
                Some(i)
            }
            None => {
                // Nobody is co-located this round: emit one random "roadside
                // unit" style long-range contact so the stream keeps the
                // one-interaction-per-step structure of the model.
                let n = self.workload.n;
                let a = self.rng.gen_range(0..n);
                let mut b = self.rng.gen_range(0..n - 1);
                if b >= a {
                    b += 1;
                }
                Some(Interaction::new(NodeId(a), NodeId(b)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use doda_core::InteractionSequence;
    use proptest::prelude::*;

    use super::*;
    use crate::stream_fingerprint;

    /// The all-pairs scan the source ran before it sorted cells: every
    /// round compares all `n(n−1)/2` pairs. Kept as the reference stream.
    struct ScanReference {
        workload: VehicularWorkload,
        positions: Vec<(usize, usize)>,
        pending: VecDeque<Interaction>,
        rng: DodaRng,
    }

    impl ScanReference {
        fn new(workload: VehicularWorkload, seed: u64) -> Self {
            let source = workload.vehicular_source(seed);
            ScanReference {
                workload,
                positions: source.positions,
                pending: VecDeque::new(),
                rng: source.rng,
            }
        }

        fn next(&mut self) -> Interaction {
            if let Some(i) = self.pending.pop_front() {
                return i;
            }
            let n = self.workload.n;
            for pos in self.positions.iter_mut() {
                *pos = self.workload.step_position(*pos, &mut self.rng);
            }
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if self.positions[a] == self.positions[b] {
                        pairs.push((a, b));
                    }
                }
            }
            for i in (1..pairs.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                pairs.swap(i, j);
            }
            if pairs.is_empty() {
                let a = self.rng.gen_range(0..n);
                let mut b = self.rng.gen_range(0..n - 1);
                if b >= a {
                    b += 1;
                }
                return Interaction::new(NodeId(a), NodeId(b));
            }
            self.pending.extend(
                pairs
                    .iter()
                    .map(|&(a, b)| Interaction::new(NodeId(a), NodeId(b))),
            );
            self.pending.pop_front().expect("the burst is non-empty")
        }
    }

    /// Fingerprints of the first 20,000 interactions at seeds 0, 7 and
    /// `0xD0DA`, recorded from the all-pairs scan implementation.
    #[test]
    fn streams_match_recorded_fingerprints() {
        let golden: [((usize, usize), [u64; 3]); 5] = [
            (
                (2, 1),
                [
                    0x475e_a216_048c_d7c5,
                    0x475e_a216_048c_d7c5,
                    0x475e_a216_048c_d7c5,
                ],
            ),
            (
                (12, 2),
                [
                    0x640f_4020_1bb6_52f0,
                    0x5544_bb6e_e4f2_be6c,
                    0x0156_b426_44be_a6f1,
                ],
            ),
            (
                (64, 1),
                [
                    0x11d8_08f4_f70c_fdf0,
                    0xf06d_1ff7_8ddc_fd2b,
                    0x8fe1_2211_af55_4845,
                ],
            ),
            (
                (96, 10),
                [
                    0x2e93_2972_d46a_c453,
                    0x84cf_f831_3c9c_9102,
                    0x4587_8a7e_bbba_7cc7,
                ],
            ),
            (
                (8, 1 << 20),
                [
                    0xf559_fef0_6177_0f32,
                    0x0351_6440_f16f_b5b3,
                    0x50ae_c74e_f873_91d9,
                ],
            ),
        ];
        for ((n, side), expected) in golden {
            let workload = VehicularWorkload::new(n, side);
            for (seed, want) in [0u64, 7, 0xD0DA].into_iter().zip(expected) {
                assert_eq!(
                    stream_fingerprint(&workload, 20_000, seed),
                    want,
                    "n = {n}, grid_side = {side}, seed = {seed}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn stream_matches_the_all_pairs_scan(
            n in 2usize..40,
            side in 1usize..12,
            seed in 0u64..u64::MAX,
            len in 0usize..3_000,
        ) {
            let workload = VehicularWorkload::new(n, side);
            let mut source = workload.vehicular_source(seed);
            let mut seq = InteractionSequence::new(n);
            seq.fill_from(&mut source, len);
            let mut reference = ScanReference::new(workload, seed);
            for (t, ti) in seq.iter().enumerate() {
                prop_assert_eq!(ti.interaction, reference.next(), "t = {}", t);
            }
        }
    }

    /// On grids too large for exact cell ids in a key, distinct cells can
    /// share a run of the sorted keys; only true cell-mates are linked.
    #[test]
    fn cut_cell_ids_link_only_cell_mates() {
        let side = 1 << 32;
        let mut source = VehicularWorkload::new(4, side).vehicular_source(1);
        // Vehicle indices take 2 bits; `x·2³² + y` keeps 62, so x = 0 and
        // x = 2³⁰ share every cut id.
        source.positions = vec![(0, 5), (1 << 30, 5), (0, 5), (1 << 30, 5)];
        source.link_cell_mates();
        assert!(source
            .by_cell
            .iter()
            .all(|k| k >> 2 == source.by_cell[0] >> 2));
        assert_eq!(source.next_in_cell, [2, 3, NO_VEHICLE, NO_VEHICLE]);
        for (n, side) in [(4, side), (3, usize::MAX)] {
            let workload = VehicularWorkload::new(n, side);
            let mut seq = InteractionSequence::new(n);
            seq.fill_from(&mut workload.vehicular_source(2), 2_000);
            let mut reference = ScanReference::new(workload, 2);
            assert!(seq.iter().all(|ti| ti.interaction == reference.next()));
        }
    }

    /// The buffers hold `O(n)` entries besides the burst, whatever the
    /// grid size: no per-cell table exists.
    #[test]
    fn state_does_not_grow_with_the_grid() {
        let n = 8;
        let workload = VehicularWorkload::new(n, 1 << 20);
        let mut source = workload.vehicular_source(5);
        let mut seq = InteractionSequence::new(n);
        seq.fill_from(&mut source, 20_000);
        assert_eq!(seq.len(), 20_000);
        assert!(source.by_cell.capacity() <= n);
        assert_eq!(source.next_in_cell.len(), n);
        assert!(source.burst.capacity() <= n * (n - 1) / 2);
    }

    /// On a 1×1 grid every vehicle shares the one cell, so the first burst
    /// is every one of the `n(n−1)/2` pairs, once each.
    #[test]
    fn single_cell_burst_is_every_pair() {
        for n in [2, 5, 64] {
            let mut pairs: Vec<(usize, usize)> = VehicularWorkload::new(n, 1)
                .generate(n * (n - 1) / 2, 3)
                .iter()
                .map(|ti| {
                    let (a, b) = ti.interaction.pair();
                    (a.index(), b.index())
                })
                .collect();
            pairs.sort_unstable();
            let all: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .collect();
            assert_eq!(pairs, all, "n = {n}");
        }
    }

    #[test]
    fn produces_exactly_len_interactions() {
        let w = VehicularWorkload::new(10, 4);
        let seq = w.generate(777, 5);
        assert_eq!(seq.len(), 777);
        for ti in seq.iter() {
            assert!(ti.interaction.max().index() < 10);
        }
    }

    #[test]
    fn dense_grid_gives_bursty_repeated_contacts() {
        // On a 2x2 grid with 12 vehicles, co-location is frequent, so the
        // same pair should appear many times (contact bursts).
        let w = VehicularWorkload::new(12, 2);
        let seq = w.generate(3_000, 1);
        let mut max_repeats = 0usize;
        let g = seq.underlying_graph();
        for e in g.edges() {
            let repeats = seq.meeting_times(e.a, e.b).len();
            max_repeats = max_repeats.max(repeats);
        }
        assert!(
            max_repeats > 10,
            "expected bursty contacts, max repeats = {max_repeats}"
        );
    }

    #[test]
    fn sparse_grid_still_produces_valid_sequences() {
        let w = VehicularWorkload::new(4, 16);
        let seq = w.generate(300, 9);
        assert_eq!(seq.len(), 300);
    }

    #[test]
    #[should_panic(expected = "at least 2 vehicles")]
    fn rejects_single_vehicle() {
        let _ = VehicularWorkload::new(1, 4);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn rejects_empty_grid() {
        let _ = VehicularWorkload::new(4, 0);
    }
}
