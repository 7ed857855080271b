//! Statistics, run metadata and the result line.

use std::fmt::Write as _;
use std::time::Instant;

use crate::Args;

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// A finished run: failure accounting, metrics, and the output checks'
/// verdict. Any problem makes the run incorrect, and an incorrect run
/// reports no numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Extra `key value` metadata (already JSON-encoded values).
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the metadata line and, last, the result line. A metric
    /// that is not a finite number is itself a problem.
    pub fn print(&mut self, args: &Args) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not a number: {}", m.name, m.value));
            }
        }
        for p in &self.problems {
            eprintln!("routebench: check failed: {p}");
        }
        let mut meta = String::from("{");
        let _ = write!(
            meta,
            "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"routing_threads\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \
             \"commit\": {}, \"source_digest\": {}",
            json_string(args.workload.name()),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            json_string(&std::env::var("GCR_THREADS").unwrap_or_default()),
            *crate::NPROC,
            json_string(&cpu_model()),
            json_string(env!("ROUTEBENCH_RUSTC")),
            json_string(env!("ROUTEBENCH_COMMIT")),
            json_string(env!("ROUTEBENCH_SOURCE_DIGEST")),
        );
        for (k, v) in &self.meta {
            let _ = write!(meta, ", {}: {v}", json_string(k));
        }
        meta.push_str(", \"samples\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}{}: {}", json_string(&m.name), m.samples);
        }
        meta.push_str("}}");
        println!("meta {meta}");
        for m in &self.metrics {
            println!(
                "metric {:<28} {:>16} {:<6} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.correct() {
            for (i, m) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    line,
                    "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    format_value(m.value),
                    json_string(m.unit)
                );
            }
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A JSON number with every digit the measurement has.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` (0 < q ≤ 1) of raw samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 198.0);
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
