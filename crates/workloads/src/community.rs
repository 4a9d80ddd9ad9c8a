//! Community-structured contacts.

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

use crate::Workload;

/// Contacts with community structure: nodes are split into `k` equal-sized
/// communities; with probability `p_intra` an interaction is drawn inside a
/// (uniformly chosen) community, otherwise between two different
/// communities. Models clustered human/vehicle mobility where most contacts
/// are local and rare "bridge" contacts carry data across clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityWorkload {
    n: usize,
    communities: usize,
    p_intra: f64,
}

impl CommunityWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, if `communities` is 0 or larger than `n / 2`
    /// (every community needs at least two members so intra-community pairs
    /// exist), or if `p_intra` is outside `[0, 1]`.
    pub fn new(n: usize, communities: usize, p_intra: f64) -> Self {
        assert!(n >= 2, "need at least 2 nodes, got {n}");
        assert!(
            communities >= 1 && communities <= n / 2,
            "communities must be in 1..={} for n={n}, got {communities}",
            n / 2
        );
        assert!(
            (0.0..=1.0).contains(&p_intra),
            "p_intra={p_intra} must be in [0, 1]"
        );
        CommunityWorkload {
            n,
            communities,
            p_intra,
        }
    }

    /// Members of community `c`, in increasing id order.
    pub fn members(&self, c: usize) -> Vec<NodeId> {
        (0..self.n)
            .filter(|i| i % self.communities == c)
            .map(NodeId)
            .collect()
    }
}

impl Workload for CommunityWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "community"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        Box::new(CommunitySource {
            n: self.n,
            communities: self.communities,
            p_intra: self.p_intra,
            members: (0..self.communities).map(|c| self.members(c)).collect(),
            rng: seeded_rng(seed),
        })
    }
}

/// Streaming source behind [`CommunityWorkload`]: intra-community contact
/// with probability `p_intra`, bridge contact otherwise.
#[derive(Debug, Clone)]
pub struct CommunitySource {
    n: usize,
    communities: usize,
    p_intra: f64,
    members: Vec<Vec<NodeId>>,
    rng: DodaRng,
}

impl InteractionSource for CommunitySource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        let rng = &mut self.rng;
        let members = &self.members;
        let interaction = if rng.gen_bool(self.p_intra) {
            // Intra-community contact.
            let c = rng.gen_range(0..self.communities);
            let group = &members[c];
            let a = group[rng.gen_range(0..group.len())];
            let b = loop {
                let candidate = group[rng.gen_range(0..group.len())];
                if candidate != a {
                    break candidate;
                }
            };
            Interaction::new(a, b)
        } else {
            // Bridge contact between two distinct communities.
            let c1 = rng.gen_range(0..self.communities);
            let c2 = if self.communities == 1 {
                c1
            } else {
                loop {
                    let candidate = rng.gen_range(0..self.communities);
                    if candidate != c1 {
                        break candidate;
                    }
                }
            };
            let a = members[c1][rng.gen_range(0..members[c1].len())];
            let b = loop {
                let candidate = members[c2][rng.gen_range(0..members[c2].len())];
                if candidate != a {
                    break candidate;
                }
            };
            Interaction::new(a, b)
        };
        Some(interaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_partitions_nodes() {
        let w = CommunityWorkload::new(10, 3, 0.8);
        let mut all: Vec<NodeId> = (0..3).flat_map(|c| w.members(c)).collect();
        all.sort();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn intra_fraction_matches_probability() {
        let w = CommunityWorkload::new(12, 3, 0.9);
        let seq = w.generate(20_000, 5);
        let intra = seq
            .iter()
            .filter(|ti| ti.interaction.min().index() % 3 == ti.interaction.max().index() % 3)
            .count();
        let fraction = intra as f64 / seq.len() as f64;
        assert!((fraction - 0.9).abs() < 0.03, "intra fraction {fraction}");
    }

    #[test]
    fn single_community_is_all_intra() {
        let w = CommunityWorkload::new(6, 1, 0.2);
        let seq = w.generate(1000, 1);
        assert_eq!(seq.len(), 1000);
        // With one community every contact is intra by definition; just check
        // validity of the pairs.
        for ti in seq.iter() {
            assert!(ti.interaction.max().index() < 6);
        }
    }

    #[test]
    #[should_panic(expected = "communities must be in")]
    fn rejects_too_many_communities() {
        let _ = CommunityWorkload::new(6, 4, 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_probability() {
        let _ = CommunityWorkload::new(6, 2, 1.5);
    }
}
