//! Seeded open-loop arrival schedules.

use std::time::Duration;

use rand::{Rng, SeedableRng};

/// Derive an independent stream seed for one use of the workload seed
/// (SplitMix64 finaliser over `seed` and a per-use tag), so the schedule of
/// one phase does not shift when another phase changes.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrivals at `rate` per second over `span`: due offsets from the
/// phase start, ascending, exponential gaps. The same `(rate, span, seed)`
/// gives the same schedule.
pub fn poisson(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate.is_finite() && rate > 0.0, "arrival rate must be positive");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let end = span.as_secs_f64();
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 8);
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        if at >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(1000.0, Duration::from_secs(1), 42);
        let b = poisson(1000.0, Duration::from_secs(1), 42);
        assert_eq!(a, b);
        let c = poisson(1000.0, Duration::from_secs(1), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ascending_within_span_at_the_rate() {
        let s = poisson(2000.0, Duration::from_secs(2), 7);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().expect("non-empty") < &Duration::from_secs(2));
        // 4000 expected arrivals; Poisson sd is ~63.
        assert!((3700..4300).contains(&s.len()), "{} arrivals", s.len());
    }

    #[test]
    fn stream_seeds_differ_per_tag_and_repeat_per_seed() {
        assert_eq!(stream_seed(5, 1), stream_seed(5, 1));
        assert_ne!(stream_seed(5, 1), stream_seed(5, 2));
        assert_ne!(stream_seed(5, 1), stream_seed(6, 1));
    }
}
