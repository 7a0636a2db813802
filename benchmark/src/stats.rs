//! Order statistics over lap samples.

/// Laps needed before [`p75`] has ten samples beyond it — the floor
/// under every measured run (choosing-metrics §1: "the highest
/// percentile that has at least ten samples beyond it").
pub const MIN_LAPS: usize = 40;

/// The percentile every `*_p75_s` metric reports.
pub const PERCENTILE: &str = "p75";

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at quantile `q` of `samples` (nearest rank, upper).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "quantile of no samples");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median lap.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 75th-percentile lap: with [`MIN_LAPS`] laps, ten lie beyond it.
pub fn p75(samples: &[f64]) -> f64 {
    quantile(samples, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p75_of_forty() {
        let laps: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(median(&laps), 20.5);
        assert_eq!(p75(&laps), 30.0);
        assert_eq!(laps.iter().filter(|&&x| x > p75(&laps)).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
