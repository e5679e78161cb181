//! Metric names, the result line, and process-level measurements.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tiles_per_s", "1/s"),
    ("pass_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("modis.synthesize_s", "s"),
    ("modis.encode_s", "s"),
    ("modis.decode_s", "s"),
    ("modis.bytes_per_granule", "count"),
    ("preprocess.extract_s", "s"),
    ("preprocess.extract_1t_s", "s"),
    ("preprocess.accept_ratio", "ratio"),
    ("ncdf.write_s", "s"),
    ("ncdf.read_s", "s"),
    ("ncdf.append_s", "s"),
    ("ncdf.bytes_per_tile", "count"),
    ("ricc.predict_s_per_tile", "s"),
    ("ricc.predict_1t_s_per_tile", "s"),
    ("ricc.flops_per_tile", "count"),
    ("ricc.model_setup_s", "s"),
    ("transfer.digest_mb_per_s", "MB/s"),
    ("transfer.ingest_s", "s"),
    ("journal.append_s", "s"),
    ("journal.events", "count"),
    ("journal.fsyncs", "count"),
    ("journal.recoveries", "count"),
    ("core.stage.download_s", "s"),
    ("core.stage.preprocess_s", "s"),
    ("core.stage.inference_s", "s"),
    ("core.stage.shipment_s", "s"),
    ("core.sim_campaign_s", "s"),
    ("service.register_s", "s"),
    ("service.run_s", "s"),
    ("service.quanta", "count"),
    ("service.ops_events", "count"),
    ("obs.overhead_frac", "ratio"),
    ("obs.spans", "count"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked (granules on real workloads, campaigns on the
    /// service).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Fold another outcome's operation counts and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// Render the metrics listed in `spec`, in order, as a readable table
    /// and as the one-line JSON result. Fails when a listed metric was not
    /// measured, was measured twice, or is not a finite number.
    pub fn render(&self, spec: &[(&str, &str)]) -> Result<(String, String), String> {
        let mut table = String::new();
        let mut json = String::new();
        for (i, &(name, unit)) in spec.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let mut found = self.metrics.iter().filter(|(n, _)| *n == name);
            let value = match (found.next(), found.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} measured twice")),
            };
            let _ = writeln!(table, "{name:<28} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        Ok((table, line))
    }
}

/// Resident-memory high-water mark of this process, MB (Linux `VmHWM`).
fn hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Run `f` and return its result and the peak resident memory of this
/// process while it ran, MB. The high-water mark is reset first by writing
/// `5` to `/proc/self/clear_refs` (Linux 4.0 and later), so the peak is
/// exact and no earlier pass leaks into it.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Result<f64, String>) {
    let reset = std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the memory high-water mark: {e}"));
    let out = f();
    (out, reset.and_then(|()| hwm_mb()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(manifest) = std::fs::read_to_string(&path) else {
            return; // the benchmark directory was copied without its manifest
        };
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json does not list {name} in {unit}"
            );
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_checks_every_metric() {
        let spec = [("a_s", "s"), ("b", "count")];
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("a_s", 0.25);
        assert!(out.render(&spec).is_err(), "missing metric accepted");
        out.set("b", 7.0);
        let (_, line) = out.render(&spec).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        out.set("b", 8.0);
        assert!(out.render(&spec).is_err(), "duplicate metric accepted");
    }

    #[test]
    fn peak_rss_is_the_peak_of_each_call() {
        // Other tests run in this process at the same time and move its
        // resident memory by tens of MB, so the buffer and the margins are
        // large next to that.
        let touch = |mb: usize| {
            let buf = vec![1u8; mb << 20];
            buf.iter().map(|&b| b as u64).sum::<u64>()
        };
        let (_, baseline) = with_peak_rss(|| ());
        let (sum, big) = with_peak_rss(|| touch(256));
        assert_eq!(sum, 256 << 20);
        let (big, baseline) = (big.unwrap(), baseline.unwrap());
        assert!(
            big >= baseline + 200.0,
            "peak {big} MB did not see the 256 MB buffer (baseline {baseline} MB)"
        );
        let (_, small) = with_peak_rss(|| touch(1));
        let small = small.unwrap();
        assert!(
            small < big - 150.0,
            "the previous call's peak {big} MB leaked into this one ({small} MB)"
        );
    }
}
