//! Small numeric helpers: nearest-rank percentiles, metric-name checks,
//! and the process's high-water resident set.

/// `q`-th percentile (0 < q ≤ 100) of `values` by the nearest-rank rule:
/// the smallest value with at least `q`% of the sample at or below it.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Nearest-rank median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// A median robust to bursts of host contention: split `values` (in time
/// order) into ten equal windows and take the median of the windows'
/// medians. A burst that slows fewer than half the windows leaves it
/// unchanged, where it would drag the pooled median up.
pub fn windowed_median(values: &[f64]) -> f64 {
    const WINDOWS: usize = 10;
    let n = values.len();
    if n < WINDOWS {
        return median(values);
    }
    let w: Vec<f64> =
        (0..WINDOWS).map(|k| median(&values[k * n / WINDOWS..(k + 1) * n / WINDOWS])).collect();
    median(&w)
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        // Unsorted input, small sample: rank = ceil(q·n).
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_median_ignores_a_burst_in_a_few_windows() {
        // Latencies 1.00..=1.09 ms; a burst adds 1 ms to the first three of
        // ten windows. The pooled median moves up, the windowed one stays.
        let clean: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let mut burst = clean.clone();
        burst[..300].iter_mut().for_each(|v| *v += 1.0);
        assert_eq!(windowed_median(&clean), median(&clean));
        assert_eq!(windowed_median(&burst), median(&clean));
        assert!(median(&burst) > median(&clean));
        assert_eq!(windowed_median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(windowed_median(&[]), 0.0);
    }

    #[test]
    fn metric_names_and_units() {
        for ok in ["setup_s", "lat_p50_ms", "attacks.craft_ms.cw", "net.ping_rtt_us.p50", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "c&w", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MAC/s", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
