//! Pairwise ordering of algorithms across node counts.

use crate::scaling::ScalingResult;

/// Checks that the measured mean interaction counts respect a total order
/// of algorithms at every `n`: `results[0] ≤ results[1] ≤ …`. A node count
/// that only one result of a neighbouring pair measured is skipped.
pub fn ordering_holds_everywhere(results: &[ScalingResult]) -> bool {
    results.windows(2).all(|pair| {
        pair[0].points.iter().all(|pa| {
            pair[1]
                .points
                .iter()
                .find(|pb| pb.n == pa.n)
                .map_or(true, |pb| {
                    pa.mean_interactions / pb.mean_interactions <= 1.0 + 1e-9
                })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::ScalingPoint;

    fn result(label: &str, means: &[(usize, f64)]) -> ScalingResult {
        ScalingResult {
            algorithm: label.to_string(),
            points: means
                .iter()
                .map(|&(n, m)| ScalingPoint {
                    n,
                    mean_interactions: m,
                    median_interactions: m,
                    completion_rate: 1.0,
                })
                .collect(),
            fit: None,
        }
    }

    #[test]
    fn ordering_check() {
        let a = result("a", &[(8, 10.0), (16, 20.0)]);
        let b = result("b", &[(8, 15.0), (16, 40.0)]);
        let c = result("c", &[(8, 30.0), (16, 35.0)]);
        assert!(ordering_holds_everywhere(&[a.clone(), b.clone()]));
        assert!(!ordering_holds_everywhere(&[b, c.clone()]));
        assert!(ordering_holds_everywhere(&[a]));
    }

    #[test]
    fn mismatched_ns_are_skipped() {
        // a's n = 64 point is above every point of b, but b never measured
        // n = 64, so only n = 8 is compared.
        let a = result("a", &[(8, 10.0), (64, 100.0)]);
        let b = result("b", &[(8, 20.0), (32, 50.0)]);
        assert!(ordering_holds_everywhere(&[a, b]));
    }
}
