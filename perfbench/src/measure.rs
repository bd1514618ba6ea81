//! Sample statistics, `/proc` readers, and the result line every
//! subcommand prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank `q`-quantile of raw samples (0 when empty). Sorts a copy,
/// so callers keep their arrival order.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of raw samples (nearest rank, 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds consumed so far by this process's threads whose name
/// starts with one of `prefixes`. Reads the nanosecond run time from
/// `schedstat`, falling back to the clock-tick `stat` fields.
pub fn thread_cpu_s(prefixes: &[&str]) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !prefixes.iter().any(|p| comm.trim_end().starts_with(p)) {
            continue;
        }
        let sched = std::fs::read_to_string(dir.join("schedstat")).ok();
        let ns = sched
            .as_deref()
            .and_then(|s| s.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok());
        total += match ns {
            Some(ns) if ns > 0.0 => ns / 1e9,
            _ => stat_ticks_s(&dir),
        };
    }
    total
}

fn stat_ticks_s(dir: &std::path::Path) -> f64 {
    let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, printed to stderr.
    pub errors: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.errors.push(why.into());
    }

    /// The one-line JSON object. Values print with every digit
    /// (shortest round-trip form); non-finite values become 0.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// One pass of the calibration task, ms: a fixed piece of CPU work in the
/// benchmark's own code (sorting, hashing and heap traffic over a few
/// hundred KB, like the simulator's), which no change to the program can
/// move. Its time tracks the host's speed.
pub fn calibration_pass_ms() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let started = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..1 << 15).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map: HashMap<u64, u64> = HashMap::new();
    for &k in keys.iter().step_by(2) {
        *map.entry(k >> 44).or_insert(0) += k;
    }
    let mut heap = BinaryHeap::new();
    for i in 0..1 << 15 {
        heap.push(Reverse(next() % 1_000_000));
        if i % 3 == 0 {
            heap.pop();
        }
    }
    let sum = map.values().fold(0u64, |a, &b| a.wrapping_add(b))
        ^ heap.into_iter().fold(0u64, |a, r| a.wrapping_add(r.0));
    std::hint::black_box(sum);
    ms(started.elapsed())
}

/// Median of `passes` calibration passes, ms.
pub fn calibration_ms(passes: usize) -> f64 {
    let t: Vec<f64> = (0..passes).map(|_| calibration_pass_ms()).collect();
    median(&t)
}
