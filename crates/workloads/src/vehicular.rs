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

    fn vehicular_source(&self, seed: u64) -> VehicularSource {
        let n = self.n;
        let mut rng = seeded_rng(seed);
        let mut positions: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..self.grid_side),
                    rng.gen_range(0..self.grid_side),
                )
            })
            .collect();
        positions.push((0, 0));
        VehicularSource {
            workload: *self,
            positions,
            heads: vec![n; (2 * n).next_power_of_two()],
            chain: vec![n; n],
            next_in_cell: vec![n; n + 1],
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

/// Streaming source behind [`VehicularWorkload`].
///
/// Each mobility round produces a *burst* of co-located pairs; the source
/// buffers the current round's burst (at most `n(n−1)/2` pairs, reached
/// when every vehicle shares one cell, and independent of the horizon)
/// and emits it one interaction per step before simulating the next
/// round.
///
/// Co-location is found through a table of `2^⌈log2 2n⌉` bucket heads
/// indexed by the cell id `x·side + y`, wrapped and masked to the table.
/// Vehicles go in from the highest index down, each at the head of its
/// bucket's chain, so a chain lists its vehicles in increasing index
/// order. Distinct cells may share a bucket, so every candidate is
/// confirmed against the stored positions, which keeps any grid exact,
/// up to `grid_side = usize::MAX`. A sentinel slot after the last vehicle
/// takes the searched position, so the walk always stops on it and the
/// common empty bucket costs no mispredicted branch. A round costs
/// `O(n + burst)` expected time, and the source holds `O(n)` state
/// besides the burst whatever the grid size.
#[derive(Debug, Clone)]
pub struct VehicularSource {
    workload: VehicularWorkload,
    /// The vehicles' cells, then the sentinel slot at index `n`.
    positions: Vec<(usize, usize)>,
    /// Per bucket, the lowest-indexed vehicle inserted so far, or `n`.
    heads: Vec<usize>,
    /// The next higher-indexed vehicle in the same bucket, or `n`.
    chain: Vec<usize>,
    /// The next higher-indexed vehicle in the same cell, or `n`; slot `n`
    /// holds `n`, so following a link from `n` stays there.
    next_in_cell: Vec<usize>,
    /// The current burst as `(a, b)` pairs, `a < b`; `burst[cursor..]` is
    /// still to be emitted.
    burst: Vec<(usize, usize)>,
    cursor: usize,
    rng: DodaRng,
}

impl VehicularSource {
    /// Moves every vehicle one step, clamped at the grid's edges, from one
    /// draw in `0..4` each: `+x`, `−x`, `+y` or `−y`.
    fn move_vehicles(&mut self) {
        let n = self.workload.n;
        let last = self.workload.grid_side - 1;
        for pos in &mut self.positions[..n] {
            let d = self.rng.gen_range(0..4usize);
            let (x, y) = *pos;
            let x = x + ((d == 0) & (x < last)) as usize - ((d == 1) & (x > 0)) as usize;
            let y = y + ((d == 2) & (y < last)) as usize - ((d == 3) & (y > 0)) as usize;
            *pos = (x, y);
        }
    }

    /// Points every vehicle at its next higher-indexed cell-mate, or at
    /// `n`.
    fn link_cell_mates(&mut self) {
        let n = self.workload.n;
        let side = self.workload.grid_side;
        let mask = self.heads.len() - 1;
        self.heads.fill(n);
        for v in (0..n).rev() {
            let pos = self.positions[v];
            let bucket = pos.0.wrapping_mul(side).wrapping_add(pos.1) & mask;
            self.positions[n] = pos;
            let mut w = self.heads[bucket];
            while self.positions[w] != pos {
                w = self.chain[w];
            }
            self.next_in_cell[v] = w;
            self.chain[v] = self.heads[bucket];
            self.heads[bucket] = v;
        }
    }

    /// Moves every vehicle and refills `burst` with this round's co-located
    /// pairs, in lexicographic `(a, b)` order, then shuffled.
    fn simulate_round(&mut self) {
        let n = self.workload.n;
        self.move_vehicles();
        self.link_cell_mates();
        // Each vehicle's later cell-mates, ascending: the pairs come out in
        // the order of an `a < b` scan over all pairs. The first link is
        // written whether or not it exists and kept only if it does; the
        // loop runs only for vehicles with two or more later cell-mates.
        let next = &self.next_in_cell;
        let burst = &mut self.burst;
        burst.clear();
        self.cursor = 0;
        for a in 0..n {
            let b = next[a];
            burst.push((a, b));
            burst.truncate(burst.len() - (b == n) as usize);
            let mut b = next[b];
            while b != n {
                burst.push((a, b));
                b = next[b];
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
        if self.cursor == self.burst.len() {
            self.simulate_round();
            if self.burst.is_empty() {
                // Nobody is co-located this round: emit one random "roadside
                // unit" style long-range contact so the stream keeps the
                // one-interaction-per-step structure of the model.
                let n = self.workload.n;
                let a = self.rng.gen_range(0..n);
                let mut b = self.rng.gen_range(0..n - 1);
                if b >= a {
                    b += 1;
                }
                return Some(Interaction::new(NodeId(a), NodeId(b)));
            }
        }
        let (a, b) = self.burst[self.cursor];
        self.cursor += 1;
        Some(Interaction::new(NodeId(a), NodeId(b)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use doda_core::InteractionSequence;
    use proptest::prelude::*;

    use super::*;
    use crate::stream_fingerprint;

    /// The all-pairs scan: every round compares all `n(n−1)/2` pairs.
    /// Kept as the reference stream the source must reproduce.
    struct ScanReference {
        workload: VehicularWorkload,
        positions: Vec<(usize, usize)>,
        pending: VecDeque<Interaction>,
        rng: DodaRng,
    }

    impl ScanReference {
        /// Starts from `source`'s positions and RNG state, before its first
        /// round.
        fn from_source(source: &VehicularSource) -> Self {
            let workload = source.workload;
            ScanReference {
                workload,
                positions: source.positions[..workload.n].to_vec(),
                pending: VecDeque::new(),
                rng: source.rng.clone(),
            }
        }

        fn step_position(&mut self, v: usize) {
            let last = self.workload.grid_side - 1;
            let (x, y) = &mut self.positions[v];
            match self.rng.gen_range(0..4) {
                0 => *x = (*x + 1).min(last),
                1 => *x = x.saturating_sub(1),
                2 => *y = (*y + 1).min(last),
                _ => *y = y.saturating_sub(1),
            }
        }

        fn next(&mut self) -> Interaction {
            if let Some(i) = self.pending.pop_front() {
                return i;
            }
            let n = self.workload.n;
            for v in 0..n {
                self.step_position(v);
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

    /// A cell other than `(0, 0)` whose id falls in the same bucket of a
    /// `table`-entry head table: `x·side + y ≡ 0 (mod table)` at `x = 1`.
    fn bucket_mate(side: usize, table: usize) -> (usize, usize) {
        let y = (table - side % table) % table;
        assert!(y < side, "a {side}-cell side has no bucket mate for (0, 0)");
        assert_eq!(side.wrapping_add(y) % table, 0);
        (1, y)
    }

    /// Places the vehicles alternately on `(0, 0)` and on its bucket mate,
    /// so two distinct cells share one bucket from the first round on.
    fn crowd_one_bucket(source: &mut VehicularSource) {
        let n = source.workload.n;
        let mate = bucket_mate(source.workload.grid_side, source.heads.len());
        for (v, pos) in source.positions[..n].iter_mut().enumerate() {
            *pos = if v % 2 == 0 { (0, 0) } else { mate };
        }
    }

    /// Sides whose cells share buckets for `n` vehicles: multiples of the
    /// head table's size, whose rows all wrap onto the same buckets, and the
    /// two widest grids.
    fn colliding_sides(n: usize) -> [usize; 4] {
        let table = VehicularWorkload::new(n, 1).vehicular_source(0).heads.len();
        [table, 3 * table, 1 << 32, usize::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn stream_matches_the_all_pairs_scan(
            n in 2usize..40,
            side in 1usize..12,
            wide in 0usize..6,
            seed in 0u64..u64::MAX,
            len in 0usize..3_000,
        ) {
            // One draw in three keeps a small grid; the rest take a
            // colliding side and start crowded on one shared bucket.
            let side = match wide.checked_sub(2) {
                Some(k) => colliding_sides(n)[k],
                None => side,
            };
            let workload = VehicularWorkload::new(n, side);
            let mut source = workload.vehicular_source(seed);
            if wide >= 2 {
                crowd_one_bucket(&mut source);
            }
            let mut reference = ScanReference::from_source(&source);
            let mut seq = InteractionSequence::new(n);
            seq.fill_from(&mut source, len);
            for (t, ti) in seq.iter().enumerate() {
                prop_assert_eq!(ti.interaction, reference.next(), "t = {}", t);
            }
        }
    }

    /// Distinct cells that share a bucket are walked past: only true
    /// cell-mates are linked, on grids up to `usize::MAX` cells a side.
    #[test]
    fn shared_buckets_link_only_cell_mates() {
        let n = 6;
        for side in colliding_sides(n) {
            let mut source = VehicularWorkload::new(n, side).vehicular_source(1);
            let mate = bucket_mate(side, source.heads.len());
            let cells = [(0, 0), mate, (0, 0), mate, mate, (0, 0)];
            source.positions[..n].copy_from_slice(&cells);
            source.link_cell_mates();
            assert_eq!(
                source.next_in_cell[..n],
                [2, 3, 5, 4, n, n],
                "side = {side}"
            );
        }
        for n in [2, 5, 12] {
            for side in colliding_sides(n) {
                let mut source = VehicularWorkload::new(n, side).vehicular_source(2);
                crowd_one_bucket(&mut source);
                let mut reference = ScanReference::from_source(&source);
                let mut seq = InteractionSequence::new(n);
                seq.fill_from(&mut source, 2_000);
                for (t, ti) in seq.iter().enumerate() {
                    assert_eq!(
                        ti.interaction,
                        reference.next(),
                        "side = {side}, n = {n}, t = {t}"
                    );
                }
            }
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
        assert_eq!(source.positions.len(), n + 1);
        assert!(source.heads.len() < 4 * n);
        assert_eq!(source.chain.len(), n);
        assert_eq!(source.next_in_cell.len(), n + 1);
        // One more slot than the largest burst: a round writes each
        // vehicle's first link before it knows whether the link exists.
        assert!(source.burst.capacity() <= n * (n - 1) / 2 + 1);
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
