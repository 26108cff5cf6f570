//! The open-loop arrival schedule and its validity checks.
//!
//! Requests arrive as a Poisson process: independent users, each send
//! due at a fixed offset from the start of the phase whatever the server
//! is doing. The schedule is a pure function of `(seed, rate, duration,
//! templates)`, so two commits replay the same arrivals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled send: when it is due and which request it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, in nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Index into the request pool.
    pub template: u32,
}

/// Poisson arrivals at `rate` per second for `seconds`, each carrying a
/// template drawn uniformly from `0..templates`.
pub fn poisson(seed: u64, rate: f64, seconds: f64, templates: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && templates > 0, "an empty schedule has no rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let mean_gap = 1e9 / rate;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * mean_gap;
        if t >= horizon {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            template: rng.gen_range(0..templates as u32),
        });
    }
}

/// Whether a phase kept up with its offered rate. `latencies_us` are
/// the request latencies in send order. The backlog grows when the
/// last quarter of the phase waited clearly longer than the first: a
/// server that keeps up shows the same latency throughout, one that
/// falls behind adds queueing delay with every request.
pub fn sustained(latencies_us: &[f64]) -> bool {
    let n = latencies_us.len();
    if n < 8 {
        return true;
    }
    let q = n / 4;
    let first = crate::stats::median(&latencies_us[..q]);
    let last = crate::stats::median(&latencies_us[n - q..]);
    last <= 2.0 * first + 200.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson(7, 1000.0, 2.0, 10);
        assert_eq!(a, poisson(7, 1000.0, 2.0, 10));
        assert_ne!(a, poisson(8, 1000.0, 2.0, 10));
    }

    #[test]
    fn arrivals_are_ordered_within_the_horizon_at_the_offered_rate() {
        let a = poisson(1, 5000.0, 4.0, 3);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 4_000_000_000);
        // 20 000 expected arrivals; Poisson spread is ~141.
        let n = a.len() as f64;
        assert!((n - 20_000.0).abs() < 1_000.0, "{n} arrivals");
        let mut seen = [0usize; 3];
        for x in &a {
            seen[x.template as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 6_000), "{seen:?}");
    }

    #[test]
    fn a_growing_backlog_is_not_sustained() {
        let flat: Vec<f64> = (0..400).map(|i| 100.0 + (i % 7) as f64).collect();
        assert!(sustained(&flat));
        let growing: Vec<f64> = (0..400).map(|i| 100.0 + 10.0 * i as f64).collect();
        assert!(!sustained(&growing));
        assert!(sustained(&[1e6; 4]), "too few samples to judge");
    }
}
