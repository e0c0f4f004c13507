//! Metric records, order statistics and process memory.

use std::time::Instant;

use serde::json::Value;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of waste).
    Lower,
    /// Larger is better (rates, useful-work ratios).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value (passes, requests or calls).
    pub samples: usize,
}

impl Metric {
    /// A metric where lower is better.
    pub fn lower(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            better: Better::Lower,
            value,
            samples,
        }
    }

    /// A metric where higher is better.
    pub fn higher(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            better: Better::Higher,
            ..Self::lower(name, unit, value, samples)
        }
    }

    /// One aligned table line: name, value, unit, direction, samples.
    pub fn line(&self) -> String {
        format!(
            "{:<30} {:>14.4} {:<6} {:<6} n={}",
            self.name,
            self.value,
            self.unit,
            self.better.as_str(),
            self.samples
        )
    }
}

/// What the calibration kernel takes on the reference machine, in ms.
pub const REFERENCE_CAL_MS: f64 = 1.0;

/// Runs the calibration kernel and returns its wall time in ms. The
/// kernel is a fixed mix of small allocations, integer arithmetic and
/// sorting, close to the program's own mix, and belongs to the benchmark,
/// so no change to the program moves it.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(4000);
    for _ in 0..4000 {
        let mut row = Vec::with_capacity(8 + (x % 24) as usize);
        for _ in 0..row.capacity() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            row.push(x);
        }
        row.sort_unstable();
        rows.push(row);
    }
    std::hint::black_box(
        rows.iter()
            .map(|r| r[r.len() / 2])
            .fold(0, u64::wrapping_add),
    );
    drop(rows);
    started.elapsed().as_secs_f64() * 1e3
}

/// The calibration kernel run on `cores` threads at once; returns their
/// mean time in ms. A call that keeps that many cores busy slows with any
/// of them, and so does this mean.
pub fn calibration_on_ms(cores: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..cores).map(|_| s.spawn(calibration_ms)).collect();
        let own = calibration_ms();
        others
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum::<f64>()
            + own
    }) / cores.max(1) as f64
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Host wall time, in ms.
    pub wall_ms: f64,
    /// The wall time scaled by [`REFERENCE_CAL_MS`] over the calibration
    /// kernel's time measured just before the call: what the call takes
    /// on a machine where the kernel takes the reference time.
    pub ref_ms: f64,
}

/// Times `f`, a call that keeps `cores` cores busy, right after a
/// calibration run on as many cores.
///
/// On a shared host the same code runs up to ~40% slower for seconds to
/// minutes at a time. The calibration kernel slows with it, so `ref_ms`
/// cancels most of that drift while still moving with any change to the
/// program's own speed.
pub fn timed<T>(cores: usize, f: impl FnOnce() -> T) -> (T, Timing) {
    let cal_ms = calibration_on_ms(cores);
    let started = Instant::now();
    let out = f();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let timing = Timing {
        wall_ms,
        ref_ms: wall_ms * REFERENCE_CAL_MS / cal_ms,
    };
    (out, timing)
}

/// The benchmark's final stdout line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .render()
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(3, 0, &[Metric::lower("setup_s", "s", 0.25, 3)]);
        let v = serde::json::parse(&line).unwrap();
        assert!(v.field("correct").unwrap().as_bool().unwrap());
        assert_eq!(v.field("attempted").unwrap().as_u64().unwrap(), 3);
        let m = v.field("metrics").unwrap().field("setup_s").unwrap();
        assert_eq!(m.field("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.field("value").unwrap().as_f64().unwrap(), 0.25);
    }

    #[test]
    fn timing_scales_by_the_calibration() {
        // Warm the allocator so the two kernel runs below are alike.
        calibration_ms();
        let (v, t) = timed(1, calibration_ms);
        assert!(v > 0.0 && t.wall_ms > 0.0);
        // Timing the kernel itself reads about one reference time.
        let reference = REFERENCE_CAL_MS;
        assert!(
            t.ref_ms > 0.1 * reference && t.ref_ms < 10.0 * reference,
            "{t:?}"
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss_peak_mb() > 0.0);
        }
    }
}
