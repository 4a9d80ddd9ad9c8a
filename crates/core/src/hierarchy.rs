//! Hierarchical aggregation: seeded aggregator election and cluster plans.
//!
//! Flat aggregation runs one execution over all `n` nodes; with the
//! uniform adversary that takes `Θ(n²)` interactions, which is infeasible
//! at `n = 10^6`. The in-network aggregation literature (Kennedy et al.)
//! and cluster/spanner decompositions of dynamic graphs (Zhu et al.)
//! suggest the classic fix: **elect local aggregators**, aggregate each
//! cluster toward its aggregator, then aggregate the aggregators toward
//! the sink. With `m ≈ n/k` clusters of size `k ≈ √n`, the work drops to
//! `O(m·k² + m²) = O(n^{3/2})` interactions while memory stays `O(n)`.
//!
//! [`ClusterPlan`] is the election: a seeded partition of the non-sink
//! nodes into clusters, each led by the aggregator in its first slot. The
//! plan is pure data — the intra-cluster and aggregator-phase executions
//! run on the ordinary engine paths (the sim crate's hierarchical tier
//! drives them), so every model rule (one transmission per node, sink
//! never transmits) holds within each phase unchanged.
//!
//! ```
//! use doda_core::hierarchy::ClusterPlan;
//! use doda_graph::NodeId;
//!
//! let plan = ClusterPlan::elect(10, NodeId(0), 3, 42);
//! assert_eq!(plan.node_count(), 10);
//! // Every non-sink node is in exactly one cluster.
//! let mut seen: Vec<_> = (0..plan.cluster_count())
//!     .flat_map(|c| plan.cluster(c).iter().copied())
//!     .collect();
//! seen.sort();
//! assert_eq!(seen, (1..10).map(NodeId).collect::<Vec<_>>());
//! ```

use doda_graph::NodeId;
use doda_stats::rng::seeded_rng;
use rand::Rng;

/// A seeded partition of the non-sink nodes into aggregation clusters.
///
/// Clusters are stored as one flat arena (`members` + `offsets`), so a
/// plan over `n` nodes costs exactly two allocations and `O(n)` memory —
/// the same budget as the engine state it feeds. The first member of each
/// cluster is its **aggregator**: the node the cluster aggregates toward
/// in phase one, and the cluster's representative in the final
/// aggregator-only phase. The sink belongs to no cluster; it only joins
/// the final phase, where it plays its usual role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    n: usize,
    sink: NodeId,
    /// Concatenated cluster membership; cluster `c` occupies
    /// `members[offsets[c] .. offsets[c + 1]]`, aggregator first.
    members: Vec<NodeId>,
    offsets: Vec<usize>,
}

impl ClusterPlan {
    /// Elects aggregators and partitions the `n − 1` non-sink nodes into
    /// clusters of roughly `target_cluster_size` nodes each.
    ///
    /// The election is a seeded Fisher–Yates shuffle of the non-sink
    /// nodes, chopped into `max(1, (n − 1) / target_cluster_size)`
    /// clusters of near-equal size (sizes differ by at most one). The
    /// same `(n, sink, target_cluster_size, seed)` always yields the same
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `sink.index() >= n`, or
    /// `target_cluster_size == 0`.
    pub fn elect(n: usize, sink: NodeId, target_cluster_size: usize, seed: u64) -> Self {
        assert!(n >= 2, "a hierarchy needs at least 2 nodes, got {n}");
        assert!(sink.index() < n, "sink {sink} out of range for {n} nodes");
        let (clusters, base) = ClusterPlan::shape(n, target_cluster_size);
        let mut members: Vec<NodeId> = (0..n).map(NodeId).filter(|&v| v != sink).collect();
        let mut rng = seeded_rng(seed);
        for i in (1..members.len()).rev() {
            let j = rng.gen_range(0..=i);
            members.swap(i, j);
        }
        // Near-equal split: the first `pool % clusters` clusters take one
        // extra node, so sizes are ⌈pool/clusters⌉ or ⌊pool/clusters⌋.
        let extra = members.len() % clusters;
        let mut offsets = Vec::with_capacity(clusters + 1);
        let mut cursor = 0;
        offsets.push(0);
        for c in 0..clusters {
            cursor += base + usize::from(c < extra);
            offsets.push(cursor);
        }
        ClusterPlan {
            n,
            sink,
            members,
            offsets,
        }
    }

    /// The shape every plan over `n` nodes at `target_cluster_size` has,
    /// whatever its sink and seed: `(clusters, smallest)`, where the
    /// `n − 1` non-sink nodes split into `max(1, (n − 1) / k)` clusters
    /// whose sizes are `smallest` or `smallest + 1`. [`ClusterPlan::elect`]
    /// splits by this formula, so callers can check a shape before any
    /// election.
    ///
    /// # Panics
    ///
    /// Panics if `target_cluster_size == 0`.
    pub fn shape(n: usize, target_cluster_size: usize) -> (usize, usize) {
        assert!(target_cluster_size > 0, "cluster size must be positive");
        let pool = n.saturating_sub(1);
        let clusters = (pool / target_cluster_size).max(1);
        (clusters, pool / clusters)
    }

    /// Total number of nodes the plan covers (including the sink).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The sink — a member of no cluster, the root of the final phase.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The members of cluster `c`, aggregator first.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cluster_count()`.
    pub fn cluster(&self, c: usize) -> &[NodeId] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// The aggregator of cluster `c` (its first member).
    pub fn aggregator(&self, c: usize) -> NodeId {
        self.cluster(c)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smallest_cluster(plan: &ClusterPlan) -> usize {
        (0..plan.cluster_count())
            .map(|c| plan.cluster(c).len())
            .min()
            .expect("a plan has at least one cluster")
    }

    #[test]
    fn every_non_sink_node_lands_in_exactly_one_cluster() {
        for (n, k, sink) in [(2, 1, 0), (10, 3, 0), (33, 4, 7), (100, 10, 99)] {
            let plan = ClusterPlan::elect(n, NodeId(sink), k, 0xD0DA);
            let mut seen: Vec<NodeId> = (0..plan.cluster_count())
                .flat_map(|c| plan.cluster(c).iter().copied())
                .collect();
            seen.sort();
            let expected: Vec<NodeId> = (0..n).map(NodeId).filter(|v| v.index() != sink).collect();
            assert_eq!(seen, expected, "n={n} k={k} sink={sink}");
        }
    }

    #[test]
    fn cluster_sizes_are_near_equal_and_match_the_target() {
        let plan = ClusterPlan::elect(101, NodeId(0), 10, 1);
        assert_eq!(plan.cluster_count(), 10);
        let sizes: Vec<usize> = (0..10).map(|c| plan.cluster(c).len()).collect();
        assert!(sizes.iter().all(|&s| s == 10));
        assert_eq!(smallest_cluster(&plan), 10);

        // Ragged pool: sizes differ by at most one.
        let plan = ClusterPlan::elect(24, NodeId(0), 5, 1);
        let sizes: Vec<usize> = (0..plan.cluster_count())
            .map(|c| plan.cluster(c).len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 23);
        assert!(sizes
            .iter()
            .all(|&s| s.abs_diff(smallest_cluster(&plan)) <= 1));
    }

    #[test]
    fn the_shape_formula_predicts_every_plan() {
        for (n, k) in [(2, 1), (8, 100), (20, 2), (24, 5), (101, 10), (1_000, 32)] {
            for sink in [0, n - 1] {
                let plan = ClusterPlan::elect(n, NodeId(sink), k, 11);
                assert_eq!(
                    ClusterPlan::shape(n, k),
                    (plan.cluster_count(), smallest_cluster(&plan)),
                    "n={n} k={k} sink={sink}"
                );
            }
        }
    }

    #[test]
    fn election_is_deterministic_and_seed_sensitive() {
        let a = ClusterPlan::elect(50, NodeId(0), 7, 3);
        let b = ClusterPlan::elect(50, NodeId(0), 7, 3);
        assert_eq!(a, b);
        let c = ClusterPlan::elect(50, NodeId(0), 7, 4);
        assert_ne!(a, c, "a different seed should elect differently");
    }

    #[test]
    fn aggregators_lead_their_clusters_and_exclude_the_sink() {
        let plan = ClusterPlan::elect(40, NodeId(5), 6, 9);
        for c in 0..plan.cluster_count() {
            assert_eq!(plan.aggregator(c), plan.cluster(c)[0]);
            assert!(plan.cluster(c).iter().all(|&v| v != NodeId(5)));
        }
    }

    #[test]
    fn oversized_target_degenerates_to_one_cluster() {
        let plan = ClusterPlan::elect(8, NodeId(0), 100, 2);
        assert_eq!(plan.cluster_count(), 1);
        assert_eq!(plan.cluster(0).len(), 7);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn degenerate_plans_are_rejected() {
        let _ = ClusterPlan::elect(1, NodeId(0), 1, 0);
    }
}
