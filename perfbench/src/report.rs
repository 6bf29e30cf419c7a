//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json`: every untraced run reports every end-to-end metric
//! and every traced run every per-layer metric, on every workload. The
//! self-test (`cargo test`) checks the lists against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`. `perfbench/README.md` gives the
/// meaning of each on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answer_p50_ms", "ms"),
    ("first_estimate_p50_ms", "ms"),
    ("max_rate_qps", "1/s"),
    ("ok_frac", "fraction"),
    ("ingest_sps", "1/s"),
    ("ack_p50_ms", "ms"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Layers a span can be charged to; `self_ms.<layer>` is reported for
/// each. `bench` is the benchmark's own generator and checking code.
pub const LAYERS: &[&str] =
    &["bench", "wire", "service", "propolyne", "storage", "tier", "acquisition", "dsp"];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reports zero work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("propolyne.prepare_us.p50", "us"),
    ("propolyne.prepare_us.p99", "us"),
    ("propolyne.nnz.mean", "count"),
    ("propolyne.transform_work.mean", "count"),
    ("propolyne.plan_blocks.mean", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.latency_ms.p50", "ms"),
    ("service.latency_ms.p99", "ms"),
    ("service.rounds.mean", "count"),
    ("service.shared_frac", "fraction"),
    ("service.rejected", "count"),
    ("service.qos.shed", "count"),
    ("service.backpressure.dropped_progress", "count"),
    ("wire.residual_ms.p50", "ms"),
    ("wire.residual_ms.p99", "ms"),
    ("wire.frames_per_query", "count"),
    ("wire.bytes_per_query", "bytes"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("storage.cache.hit_ratio", "fraction"),
    ("storage.cache.evictions", "count"),
    ("storage.device.reads_per_query", "count"),
    ("storage.read_us.p50", "us"),
    ("storage.wal.appends", "count"),
    ("storage.wal.fsyncs", "count"),
    ("storage.wal.checkpoints", "count"),
    ("storage.device.writes", "count"),
    ("tier.push_us.p50", "us"),
    ("tier.push_us.p99", "us"),
    ("tier.compaction.busy_frac", "fraction"),
    ("tier.compaction.runs", "count"),
    ("tier.segments.compacted", "count"),
    ("tier.backlog_peak", "count"),
    ("tier.drain_ms", "ms"),
    ("tier.snapshot_us", "us"),
    ("tier.query.hot_rows_per_query", "count"),
    ("tier.live_wall_p50_ms", "ms"),
    ("tier.live_wall_p90_ms", "ms"),
    ("acquisition.ingest_us_per_kframe", "us"),
    ("acquisition.dropped_frames", "count"),
    ("ingest.repaired", "count"),
    ("dsp.dwt.forward.count", "count"),
    ("dsp.dwt.forward.p50_ns", "ns"),
    ("exec.pool.tasks", "count"),
    ("exec.pool.idle_ns.p50", "ns"),
    ("client.answer_p90_ms", "ms"),
    ("client.answer_p99_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("gen.late_p99_ms", "ms"),
    ("self_ms.bench", "ms"),
    ("self_ms.wire", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.propolyne", "ms"),
    ("self_ms.storage", "ms"),
    ("self_ms.tier", "ms"),
    ("self_ms.acquisition", "ms"),
    ("self_ms.dsp", "ms"),
];

/// What a workload hands back: its metrics, operation counts, and the
/// spans it recorded.
pub struct Outcome {
    pub report: Report,
    pub tracer: Tracer,
}

/// Measured values by metric name, plus operation counts.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations issued (queries, and ingest sessions on `ingest_live`).
    pub attempted: u64,
    /// Requests at the nominal rate without an exact answer (refused or
    /// degraded), and recorder-dropped frames on `ingest_live`. Refusals
    /// at the ladder's higher rates are its verdicts, not failures; a
    /// wrong answer fails the whole run instead.
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn selected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line. Every selected metric must have been measured
    /// and be finite; per-layer metrics of layers the workload did not
    /// exercise are zero.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (k, &(name, unit)) in Self::selected(trace).iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if k > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }

    /// A human-readable table of the selected metrics, for standard error.
    pub fn table(&self, trace: bool) -> String {
        let mut out = String::new();
        for &(name, unit) in Self::selected(trace) {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            writeln!(out, "{name:>40} {v:>16.6} {unit}").expect("write to String");
        }
        out
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
