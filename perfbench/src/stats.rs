//! Summary statistics over timing samples, and the named-metric table a
//! run fills in.

use std::collections::BTreeMap;
use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks (the "inclusive" method, as numpy's default).
/// Sorts in place. `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive (a ratio or time that reads zero is a bug in
/// the measurement, not a value to average away).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Largest `|a - b|` over the pairs; NaN when any difference is NaN
/// (where `f64::max` would silently drop it).
pub fn max_abs_diff(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    pairs.into_iter().fold(0.0, |worst, (a, b)| {
        let d = (a - b).abs();
        if d.is_nan() || d > worst {
            d
        } else {
            worst
        }
    })
}

/// Milliseconds in `d`, at full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One completed operation of a timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    /// Seconds from the start of the timed region to completion.
    pub at_s: f64,
    pub latency_ms: f64,
    /// Work the operation carried (rows, tokens).
    pub work: f64,
}

/// Medians over fixed windows of a timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of the window's median latency.
    pub p50_ms: f64,
    /// Median over windows of the window's 75th-percentile latency.
    pub p75_ms: f64,
    /// Median over windows of the window's `tail_q` latency quantile.
    pub tail_ms: f64,
    /// Median over windows of work completed per second.
    pub rate_per_s: f64,
    pub windows: usize,
}

/// Split `0..span_s` into whole windows of `window_s` seconds, take the
/// latency quantiles and the work rate of each, and report the median of
/// each over the windows. A slowdown that hits a minority of windows
/// (CPU steal on a shared host, a neighbour's burst) then moves no
/// reported number. Operations completing after the last whole window
/// (the drain) are left out. `None` when no window saw an operation.
pub fn windowed(done: &[Done], window_s: f64, span_s: f64, tail_q: f64) -> Option<Windowed> {
    let n = ((span_s / window_s).floor() as usize).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut work = vec![0.0; n];
    for d in done {
        let w = (d.at_s / window_s).floor();
        if w >= 0.0 && (w as usize) < n {
            lat[w as usize].push(d.latency_ms);
            work[w as usize] += d.work;
        }
    }
    let (mut p50, mut p75, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    for l in &mut lat {
        if let (Some(m), Some(q), Some(t)) = (median(l), quantile(l, 0.75), quantile(l, tail_q)) {
            p50.push(m);
            p75.push(q);
            tail.push(t);
        }
    }
    let mut rates: Vec<f64> = work.iter().map(|w| w / window_s).collect();
    Some(Windowed {
        p50_ms: median(&mut p50)?,
        p75_ms: median(&mut p75)?,
        tail_ms: median(&mut tail)?,
        rate_per_s: median(&mut rates)?,
        windows: n,
    })
}

/// One measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Every metric a run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Record `name` (the last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.map.insert(name.into(), Metric { value, unit });
    }

    /// Record `name` when `value` is present.
    pub fn set_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.set(name, v, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.map.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), Some(1.0));
        assert_eq!(quantile(&mut xs, 1.0), Some(4.0));
        assert_eq!(median(&mut xs), Some(2.5));
        // 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
        let p90 = quantile(&mut xs, 0.9).expect("non-empty");
        assert!((p90 - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn quantile_of_one_sample_is_that_sample() {
        assert_eq!(quantile(&mut [7.5], 0.99), Some(7.5));
    }

    #[test]
    fn p99_of_hundred_ranks() {
        let mut xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.99), Some(100.0));
        assert_eq!(median(&mut xs), Some(51.0));
    }

    #[test]
    fn geomean_basics() {
        let g = geomean(&[2.0, 8.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn windowed_medians_ignore_a_slow_minority_window() {
        let mut done = Vec::new();
        for w in 0..5 {
            // Window 3 is five times slower and does a fifth of the work.
            let (lat, n) = if w == 3 { (5.0, 2) } else { (1.0, 10) };
            for i in 0..n {
                done.push(Done {
                    at_s: f64::from(w) + f64::from(i) / 20.0,
                    latency_ms: lat,
                    work: 2.0,
                });
            }
        }
        // Completed during the drain after the last whole window.
        done.push(Done {
            at_s: 5.5,
            latency_ms: 100.0,
            work: 1.0,
        });
        let w = windowed(&done, 1.0, 5.2, 0.9).expect("windows with samples");
        assert_eq!(w.windows, 5);
        assert_eq!(w.p50_ms, 1.0);
        assert_eq!(w.p75_ms, 1.0);
        assert_eq!(w.tail_ms, 1.0);
        assert_eq!(w.rate_per_s, 20.0);
        assert_eq!(windowed(&[], 1.0, 5.0, 0.9), None);
    }

    #[test]
    fn max_abs_diff_keeps_nan() {
        assert_eq!(max_abs_diff([(1.0, 1.5), (3.0, 1.0)]), 2.0);
        assert!(max_abs_diff([(1.0, f64::NAN), (3.0, 1.0)]).is_nan());
        assert_eq!(max_abs_diff([]), 0.0);
    }

    #[test]
    fn metrics_keep_last_write() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "ms");
        m.set("a", 2.0, "ms");
        m.set_opt("b", None, "s");
        assert_eq!(m.get("a").map(|x| x.value), Some(2.0));
        assert!(m.get("b").is_none());
    }
}
