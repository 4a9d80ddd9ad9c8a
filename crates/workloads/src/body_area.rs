//! Body-area sensor network contacts.
//!
//! The paper's introduction motivates the problem with "sensors deployed on
//! a human body" reporting to a hub. This workload is the synthetic
//! stand-in for such a contact trace: node 0 is the hub (the natural sink),
//! each sensor contacts the hub periodically (each with its own period and
//! phase), and occasional sensor-to-sensor contacts occur when body parts
//! come close (e.g. wrist sensor meeting hip sensor).

use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, InteractionSource, Time};
use doda_graph::NodeId;
use doda_stats::rng::{seeded_rng, DodaRng};
use rand::Rng;

use crate::Workload;

/// Periodic hub-centric contacts with occasional peer contacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyAreaWorkload {
    n: usize,
    /// Probability that a time step carries a sensor-to-sensor contact
    /// instead of the next scheduled hub contact.
    peer_contact_probability: f64,
}

impl BodyAreaWorkload {
    /// Creates the workload over `n ≥ 3` nodes (hub + at least two sensors)
    /// with the default 20% peer-contact rate.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize) -> Self {
        Self::with_peer_probability(n, 0.2)
    }

    /// Creates the workload with an explicit peer-contact probability.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or the probability is outside `[0, 1]`.
    fn with_peer_probability(n: usize, peer_contact_probability: f64) -> Self {
        assert!(
            n >= 3,
            "a body-area network needs a hub and at least 2 sensors, got {n}"
        );
        assert!(
            (0.0..=1.0).contains(&peer_contact_probability),
            "probability {peer_contact_probability} must be in [0, 1]"
        );
        BodyAreaWorkload {
            n,
            peer_contact_probability,
        }
    }

    /// The hub node (use it as the sink).
    pub const HUB: NodeId = NodeId(0);
}

impl Workload for BodyAreaWorkload {
    fn node_count(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "body-area"
    }

    fn source(&self, seed: u64) -> Box<dyn InteractionSource + Send> {
        let mut rng = seeded_rng(seed);
        let sensors = self.n - 1;
        // Each sensor reports to the hub with its own period (in "events"):
        // slower sensors (larger period) model low-duty-cycle devices.
        let periods: Vec<u64> = (0..sensors)
            .map(|_| rng.gen_range(2..=(2 * sensors as u64 + 2)))
            .collect();
        // next_due[i] = virtual time of sensor i's next hub contact.
        let next_due: Vec<u64> = periods
            .iter()
            .map(|&p| rng.gen_range(0..p.max(1)))
            .collect();
        Box::new(BodyAreaSource {
            n: self.n,
            peer_contact_probability: self.peer_contact_probability,
            periods,
            next_due,
            rng,
        })
    }
}

/// Streaming source behind [`BodyAreaWorkload`]: periodic hub reports with
/// occasional peer contacts.
#[derive(Debug, Clone)]
pub struct BodyAreaSource {
    n: usize,
    peer_contact_probability: f64,
    periods: Vec<u64>,
    next_due: Vec<u64>,
    rng: DodaRng,
}

impl InteractionSource for BodyAreaSource {
    // The stream never reads the view: the lane engine may pull it in
    // devirtualised batches.
    fn is_oblivious(&self) -> bool {
        true
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        let sensors = self.n - 1;
        let interaction = if self.rng.gen_bool(self.peer_contact_probability) {
            // Two distinct sensors meet.
            let a = self.rng.gen_range(0..sensors);
            let b = loop {
                let candidate = self.rng.gen_range(0..sensors);
                if candidate != a {
                    break candidate;
                }
            };
            Interaction::new(NodeId(a + 1), NodeId(b + 1))
        } else {
            // The sensor whose report is due earliest contacts the hub.
            let (idx, _) = self
                .next_due
                .iter()
                .enumerate()
                .min_by_key(|&(i, &due)| (due, i))
                .expect("at least two sensors");
            self.next_due[idx] += self.periods[idx];
            Interaction::new(BodyAreaWorkload::HUB, NodeId(idx + 1))
        };
        Some(interaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_dominates_contacts() {
        let w = BodyAreaWorkload::new(9);
        let seq = w.generate(5_000, 7);
        let hub_contacts = seq
            .iter()
            .filter(|ti| ti.interaction.involves(BodyAreaWorkload::HUB))
            .count();
        let fraction = hub_contacts as f64 / seq.len() as f64;
        assert!((fraction - 0.8).abs() < 0.05, "hub fraction {fraction}");
    }

    #[test]
    fn every_sensor_eventually_reports() {
        let w = BodyAreaWorkload::new(6);
        let seq = w.generate(2_000, 11);
        for sensor in 1..6 {
            assert!(
                !seq.meeting_times(BodyAreaWorkload::HUB, NodeId(sensor))
                    .is_empty(),
                "sensor {sensor} never meets the hub"
            );
        }
    }

    #[test]
    fn peer_probability_zero_means_pure_star() {
        let w = BodyAreaWorkload::with_peer_probability(5, 0.0);
        let seq = w.generate(1_000, 3);
        assert!(seq
            .iter()
            .all(|ti| ti.interaction.involves(BodyAreaWorkload::HUB)));
    }

    #[test]
    #[should_panic(expected = "at least 2 sensors")]
    fn rejects_tiny_networks() {
        let _ = BodyAreaWorkload::new(2);
    }
}
