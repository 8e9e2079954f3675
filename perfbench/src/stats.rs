//! Percentiles under the sample-count rule, and `/proc` readings.

use std::fmt::Write as _;

/// Minimum samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, provided at least
/// [`BEYOND`] samples lie above it; `None` otherwise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The median of a non-empty sample; a plain middle value, so small
/// samples (repeated set-ups) are allowed.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile of a latency stream taken per chunk of `chunk`
/// consecutive samples, reported as the median over chunks. Each chunk
/// must satisfy the sample-count rule on its own; a stream shorter than
/// two chunks is treated as one chunk.
pub fn chunked_percentile(samples: &[f64], q: f64, chunk: usize) -> Option<f64> {
    if samples.len() < 2 * chunk {
        return percentile(samples, q);
    }
    let per: Option<Vec<f64>> = samples
        .chunks(chunk)
        .filter(|c| c.len() == chunk)
        .map(|c| percentile(c, q))
        .collect();
    per.map(|p| median(&p))
}

/// One reported metric: value, unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self, with_samples: bool) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                num(m.value),
                m.unit
            );
            if with_samples {
                let _ = write!(s, ", \"samples\": {}", m.samples);
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Memory, CPU and scheduling readings of this process from `/proc`.
pub mod procfs {
    use std::fs;

    fn status_kb(field: &str) -> Option<f64> {
        let s = fs::read_to_string("/proc/self/status").ok()?;
        let line = s.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb() -> f64 {
        status_kb("VmHWM:").unwrap_or(f64::NAN) / 1024.0
    }

    /// Resets the peak-RSS mark to the current RSS. Returns whether the
    /// kernel accepted the reset.
    pub fn reset_peak_rss() -> bool {
        fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    /// Machine-wide `(steal, total)` jiffies from `/proc/stat`: time the
    /// hypervisor ran something else while this machine's CPUs wanted
    /// to run, against all CPU time.
    pub fn steal_and_total() -> (u64, u64) {
        let Ok(s) = fs::read_to_string("/proc/stat") else {
            return (0, 0);
        };
        let Some(line) = s.lines().next() else {
            return (0, 0);
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
    }

    /// CPU time (ms) and context switches summed over every live thread.
    pub fn cpu_and_switches() -> (f64, u64) {
        let ticks_per_s = 100.0; // USER_HZ on Linux
        let mut cpu = 0.0;
        let mut switches = 0;
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return (f64::NAN, 0);
        };
        for task in dir.flatten() {
            let path = task.path();
            if let Ok(stat) = fs::read_to_string(path.join("stat")) {
                // Fields after the parenthesised command name; utime and
                // stime are fields 14 and 15 of the whole line.
                if let Some(rest) = stat.rsplit(')').next() {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let ut: f64 = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
                    let st: f64 = f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0.0);
                    cpu += (ut + st) * 1000.0 / ticks_per_s;
                }
            }
            if let Ok(status) = fs::read_to_string(path.join("status")) {
                for l in status.lines() {
                    if l.starts_with("voluntary_ctxt_switches:")
                        || l.starts_with("nonvoluntary_ctxt_switches:")
                    {
                        switches += l
                            .split_whitespace()
                            .nth(1)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
        }
        (cpu, switches)
    }
}
