//! The metric catalog, the result line, and small statistics helpers.
//!
//! Every run prints every metric of its mode: the end-to-end metrics
//! untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).
//! A per-layer metric of a layer the workload does not run reads 0 (for
//! example `serve.encode_us` on a figure workload). The names and units
//! here must match `BENCHMARK.json`; the benchmark's tests check that.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "frac"),
    ("sim_accesses_per_s", "1/s"),
    ("batches_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("advise_p50_ms", "ms"),
    ("advise_p90_ms", "ms"),
    ("ir.build_kernel_ms", "ms"),
    ("ir.fmf_build_ms", "ms"),
    ("sim.run_once_p50_ms", "ms"),
    ("sim.run_once_p90_ms", "ms"),
    ("sim.host_ns_per_access", "ns"),
    ("sim.host_ns_per_step", "ns"),
    ("sim.accesses", "count"),
    ("sim.hits", "count"),
    ("sim.upgrade_hits", "count"),
    ("sim.cold_misses", "count"),
    ("sim.capacity_misses", "count"),
    ("sim.true_sharing_misses", "count"),
    ("sim.false_sharing_misses", "count"),
    ("sim.invalidations", "count"),
    ("sim.state_transitions", "count"),
    ("sim.dir_overflow_hits", "count"),
    ("sim.steps", "count"),
    ("sim.makespan_cycles", "cycles"),
    ("workload.analyze_ms", "ms"),
    ("sample.concurrency_map_ms", "ms"),
    ("sample.window_ingest_us", "us"),
    ("sample.window_concurrency_ms", "ms"),
    ("sample.retained", "count"),
    ("sample.evicted", "count"),
    ("sample.late_dropped", "count"),
    ("core.suggest_ms", "ms"),
    ("bench.grid_overhead_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.apply_us", "us"),
    ("serve.advise_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.reopt_runs", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("ir.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("workload.self_ms", "ms"),
    ("sample.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("serve.self_ms", "ms"),
];

/// The layers the self-time rollup reports, one `<layer>.self_ms` each.
pub const LAYERS: &[&str] = &["ir", "sim", "workload", "sample", "core", "bench", "serve"];

/// What one run measured, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (grid items, setups, requests).
    pub attempted: u64,
    /// Operations that failed or were retried.
    pub failed: u64,
    /// Human-readable correctness failures; empty when every check held.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a metric. Panics on a name outside the catalog, which is a
    /// bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        self.metrics.insert(key, value);
    }

    /// Records a failed correctness check.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("[slbench] MISMATCH: {what}");
        self.mismatches.push(what);
    }

    /// The result line: every metric of the mode's catalog, with an
    /// output mismatch failing every operation of the run.
    pub fn json_line(&self, traced: bool) -> String {
        let correct = self.mismatches.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct { self.failed } else { attempted };
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalog {
            let value = if name == "failed_frac" {
                failed as f64 / attempted as f64
            } else {
                self.metrics.get(name).copied().unwrap_or(0.0)
            };
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }
}

/// Share of `--seconds` spent on each of the two set-up bursts, one
/// before and one after the measured passes. Set-up takes milliseconds,
/// so a single set-up samples the host's speed at one instant; repeating
/// it at both ends of the run and taking the median steadies `setup_s`.
pub const SETUP_SHARE: f64 = 0.05;

/// The seconds the measured passes may take: all of `seconds` but the
/// trailing set-up burst.
pub fn pass_seconds(seconds: f64) -> f64 {
    seconds * (1.0 - SETUP_SHARE)
}

/// Whether another pass of `typical` seconds still ends within `seconds`
/// of `start`. Callers run the first pass unconditionally.
pub fn another_pass(start: Instant, seconds: f64, typical: f64) -> bool {
    start.elapsed().as_secs_f64() + typical <= seconds
}

/// Runs `round` until `budget` seconds have passed (at least once) and
/// collects the duration in seconds each round reports for itself.
pub fn timed_rounds(
    budget: f64,
    mut round: impl FnMut() -> std::io::Result<f64>,
) -> std::io::Result<Vec<f64>> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        times.push(round()?);
        if start.elapsed().as_secs_f64() >= budget {
            return Ok(times);
        }
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest-rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Converts nanosecond durations to floating-point milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// FNV-1a over a byte stream, for output digests.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes into the digest.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Resets the process's peak resident set (Linux `clear_refs` value 5),
/// so that [`peak_rss_mb`] reports the peak since this call. Without
/// it the peak would also count the set-up rounds, whose number follows
/// the host's speed.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set size in MB (Linux `VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mismatch_fails_every_operation() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        assert!(o
            .json_line(true)
            .contains("\"failed_frac\": {\"value\": 0,"));
        o.mismatch("x");
        let line = o.json_line(true);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 10"));
        assert!(line.contains("\"failed_frac\": {\"value\": 1,"));
    }
}
