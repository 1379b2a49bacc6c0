//! The result line every run prints last, and the metric catalogue it
//! must cover (the same names and units as `BENCHMARK.json`).

use std::fmt::Write;

/// End-to-end metrics, reported with tracing off on every workload.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("records_per_s", "records/s"),
    ("identified_share", "fraction"),
    ("cycle_within_10s_share", "fraction"),
    ("red_within_6s_share", "fraction"),
    ("change_within_6s_share", "fraction"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_ok_share", "fraction"),
    ("max_qps", "queries/s"),
];

/// Per-layer metrics, reported by the traced run on every workload; a
/// layer a workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("decode.busy_s", "s"),
    ("decode.bytes", "bytes"),
    ("decode.records", "count"),
    ("decode.bad_lines", "count"),
    ("match.busy_s", "s"),
    ("match.partitioned_share", "fraction"),
    ("match.unmatched", "count"),
    ("match.unsignalized", "count"),
    ("match.implausible", "count"),
    ("realtime.intake_self_s", "s"),
    ("realtime.buffered_obs", "count"),
    ("realtime.deduped", "count"),
    ("realtime.out_of_grace", "count"),
    ("realtime.rounds", "count"),
    ("realtime.round_p50_ms", "ms"),
    ("realtime.round_p90_ms", "ms"),
    ("light.identify_p50_ms", "ms"),
    ("light.identify_p90_ms", "ms"),
    ("engine.run.self_s", "s"),
    ("light.identify.self_s", "s"),
    ("stage.cycle.self_s", "s"),
    ("stage.enhance.self_s", "s"),
    ("stage.red.self_s", "s"),
    ("stage.change.self_s", "s"),
    ("superpose.profile.self_s", "s"),
    ("change_point.search.self_s", "s"),
    ("signal.resample.self_s", "s"),
    ("signal.dft.self_s", "s"),
    ("stage.kernel.self_s", "s"),
    ("engine.lights_attempted", "count"),
    ("engine.lights_identified", "count"),
    ("plan_cache.hit_share", "fraction"),
    ("store.snapshots", "count"),
    ("store.publish_p50_ms", "ms"),
    ("http.requests", "count"),
    ("http.errors", "count"),
    ("http.server_p50_ms", "ms"),
    ("query.p99_ms", "ms"),
    ("query.saturation_qps", "queries/s"),
    ("gen.late_max_ms", "ms"),
    ("feed.wait_p50_ms", "ms"),
    ("feed.ingest_lag_max_s", "s"),
    ("obs.trace_overhead_share", "fraction"),
    ("unattributed_s", "s"),
];

/// Spans whose summed self time is a per-layer metric, with that
/// metric's name.
pub const SELF_TIME_SPANS: [(&str, &str); 11] = [
    ("engine.run", "engine.run.self_s"),
    ("light.identify", "light.identify.self_s"),
    ("stage.cycle", "stage.cycle.self_s"),
    ("stage.enhance", "stage.enhance.self_s"),
    ("stage.red", "stage.red.self_s"),
    ("stage.change", "stage.change.self_s"),
    ("superpose.profile", "superpose.profile.self_s"),
    ("change_point.search", "change_point.search.self_s"),
    ("signal.resample", "signal.resample.self_s"),
    ("signal.dft", "signal.dft.self_s"),
    ("stage.kernel", "stage.kernel.self_s"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (laps or queries, plus output checks).
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Output-check failures, described.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Counts one checked operation, failing it with `error` when `ok`
    /// is false.
    pub fn check(&mut self, ok: bool, error: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(error());
        }
    }

    /// The run passed every output check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line over `catalogue`: every metric of it, in order,
    /// with its unit. A missing or non-finite value is an error.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (k, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_needs_every_metric() {
        let mut r = Report::default();
        r.set("setup_s", 0.25);
        assert!(r.to_json(&END_TO_END[..2]).is_err());
        r.set("peak_rss_mib", 12.5);
        let line = r.to_json(&END_TO_END[..2]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"peak_rss_mib\": {\"value\": 12.5, \"unit\": \"MiB\"}}}"
        );
        r.check(false, || "digest mismatch".into());
        assert!(r.to_json(&END_TO_END[..2]).unwrap().starts_with("{\"correct\": false"));
    }
}
