//! Small shared helpers: order statistics, the FNV-1a output digest, the
//! metric/work-counter containers and the hand-rolled JSON they print as.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Each unit's fastest repetition within blocks of `block` consecutive
/// passes, then its median over the complete blocks, in unit order.
/// `per_pass` holds one value per unit for every pass; a trailing block
/// with fewer than `block` passes is left out.
///
/// The host slows down in bursts, and a slowed repetition measures the
/// neighbours, not the program, so a unit is taken at its fastest
/// repetition. But the minimum of a sample falls as the sample grows: a
/// minimum over every pass of a run would improve with the pass count, and
/// so with the speed of the code under test. A block has a fixed size, so
/// its minimum does not depend on how many passes fit into the run; more
/// blocks only steady the median.
pub fn blocked_fastest(per_pass: &[Vec<f64>], block: usize) -> Vec<f64> {
    let blocks: Vec<Vec<f64>> = per_pass
        .chunks_exact(block)
        .map(|chunk| {
            let mut best = chunk[0].clone();
            for pass in &chunk[1..] {
                for (b, v) in best.iter_mut().zip(pass) {
                    *b = b.min(*v);
                }
            }
            best
        })
        .collect();
    let units = blocks.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| median(&blocks.iter().map(|b| b[u]).collect::<Vec<_>>()))
        .collect()
}

/// The tail of a latency sample: the value at the highest percentile that
/// still has at least ten samples beyond it. With twenty samples or fewer
/// that percentile would not lie above the median, and the maximum is
/// reported instead.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at (100 for the maximum).
    pub percentile: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    // Below 21 samples the point with ten beyond it is at or under the
    // median, which is no tail at all.
    let (index, beyond) = if n > 20 { (n - 11, 10) } else { (n - 1, 0) };
    Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond,
        samples: n,
    }
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if present, checked against `unit`.
    pub fn get(&self, name: &str, unit: &str) -> Option<f64> {
        let (_, value, have) = self.0.iter().find(|(n, _, _)| n == name)?;
        assert_eq!(*have, unit, "metric {name} reported in the wrong unit");
        Some(*value)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Exact deterministic work counters, keyed by metric name.
pub type Work = BTreeMap<String, u64>;

pub fn work_json(work: &Work) -> String {
    let body: Vec<String> = work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Escapes a string for a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host CPU's model name, or "unknown".
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").map_or_else(
        || "unknown".into(),
        |v| v.trim_start_matches(':').trim().to_string(),
    )
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key).map(|rest| rest.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
        let few = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.beyond, few.percentile), (3.0, 0, 100.0));
    }

    #[test]
    fn blocked_fastest_drops_the_incomplete_block() {
        let passes = vec![
            vec![5.0, 1.0],
            vec![3.0, 2.0],
            vec![4.0, 9.0],
            vec![6.0, 8.0],
            vec![0.0, 0.0],
        ];
        // Blocks {0,1} and {2,3} give [3,1] and [4,8]; pass 4 is left out.
        assert_eq!(blocked_fastest(&passes, 2), vec![3.5, 4.5]);
        assert!(blocked_fastest(&passes[..1], 2).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
