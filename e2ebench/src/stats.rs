//! Order statistics over exact client-side samples.

use crate::procfs::StealMonitor;
use std::time::Instant;

/// A percentile is only reported when at least this many samples lie
/// beyond it; below that the tail is not resolved by the data.
pub const MIN_BEYOND: usize = 10;

/// Whether a closed-loop run should take another op: until `seconds`
/// have passed and the median is resolvable (`2 * MIN_BEYOND` samples),
/// but never past three times the budget.
pub fn keep_going(started: std::time::Instant, seconds: f64, samples: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed < seconds || samples < 2 * MIN_BEYOND) && elapsed < 3.0 * seconds
}

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n > 0 && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of any sample (midpoint of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Most consecutive groups (rounds) a run's samples are split into for
/// its median. The host this benchmark was tuned on switches between a
/// fast and a slow regime every second or two (other tenants), so a
/// plain median flips between the two regimes' medians from run to run,
/// and near a queueing knee a few rounds' medians jump far out. The
/// interquartile mean of per-round medians moves smoothly with the share
/// of time spent in each regime and ignores the outlying rounds.
const ROUNDS: usize = 20;

/// Interquartile mean over up to [`ROUNDS`] consecutive rounds of each
/// round's median; every round holds enough samples to resolve its
/// median. With one round this is the plain median.
fn round_median(ms: &[f64]) -> f64 {
    let groups = (ms.len() / (2 * MIN_BEYOND)).clamp(1, ROUNDS);
    let mut medians: Vec<f64> = ms
        .chunks(ms.len().div_ceil(groups).max(1))
        .map(median)
        .collect();
    medians.sort_by(f64::total_cmp);
    let quarter = medians.len() / 4;
    let middle = &medians[quarter..medians.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Latency samples in op order, each with the span it was timed over,
/// summarized the way every workload reports them: median, p90, p99
/// (each only where resolvable) and the sample count.
///
/// The median and the closed-loop throughput are taken over the quiet
/// samples only ([`StealMonitor::quiet`]): other tenants of the host
/// this was tuned on took up to a third of its CPU for minutes at a
/// time, and an op that loses its core for a few milliseconds measures
/// the host, not the program. The tail percentiles keep every sample.
#[derive(Debug, Default)]
pub struct Latencies {
    ms: Vec<f64>,
    spans: Vec<(Instant, Instant)>,
}

impl Latencies {
    /// Records one sample timed from `from` to `to`.
    pub fn push(&mut self, from: Instant, to: Instant) {
        self.ms.push(to.duration_since(from).as_secs_f64() * 1e3);
        self.spans.push((from, to));
    }

    /// The quiet samples, in op order.
    fn quiet_ms(&self) -> Vec<f64> {
        let steal = StealMonitor::global();
        steal.read_now();
        let keep = steal.quiet(&self.spans, 2 * MIN_BEYOND);
        self.ms
            .iter()
            .zip(keep)
            .filter_map(|(&ms, keep)| keep.then_some(ms))
            .collect()
    }

    /// Closed-loop throughput: quiet ops per second of their summed op
    /// time.
    pub fn closed_loop_ops_per_s(&self) -> f64 {
        let quiet = self.quiet_ms();
        quiet.len() as f64 / (quiet.iter().sum::<f64>() / 1e3)
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Sets `latency_p50_ms` (and `latency_p90_ms`/`latency_p99_ms`
    /// where resolvable) on `outcome`, with a note giving the sample
    /// counts behind them. A median without ten samples beyond it is an
    /// error: the run was too short for the workload.
    pub fn report(&self, outcome: &mut crate::Outcome) -> Result<(), String> {
        let sorted = self.sorted();
        let quiet = self.quiet_ms();
        if percentile(&sorted, 0.5).is_none() || quiet.len() < 2 * MIN_BEYOND {
            return Err(format!(
                "only {} latency samples, {} of them quiet: the median needs {MIN_BEYOND} beyond it",
                sorted.len(),
                quiet.len()
            ));
        }
        let p50 = round_median(&quiet);
        outcome.set("latency_p50_ms", p50);
        let mut parts = vec![
            format!("n={} quiet={}", sorted.len(), quiet.len()),
            format!("latency_p50_ms={p50:.4} (quiet samples, interquartile mean of round medians)"),
            format!("all-sample median {:.4}", median(&sorted)),
        ];
        for (name, q) in [("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)] {
            match percentile(&sorted, q) {
                Some(value) => {
                    outcome.set(name, value);
                    parts.push(format!("{name}={value:.4}"));
                }
                None => parts.push(format!("{name}=unresolved")),
            }
        }
        outcome.note(format!("latency {}", parts.join(" ")));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let data: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), Some(10.0));
        assert_eq!(percentile(&data, 0.9), None);
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.99), Some(990.0));
        let data: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn round_medians_ignore_outlying_rounds() {
        let mut ms = Vec::new();
        for round in 0..20 {
            let value = if round == 3 {
                50.0
            } else {
                1.0 + round as f64 / 100.0
            };
            ms.extend([value; 20]);
        }
        let value = round_median(&ms);
        assert!((1.0..1.2).contains(&value), "{value}");
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
