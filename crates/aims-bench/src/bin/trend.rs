//! Perf-trajectory regression gate (ROADMAP item 4).
//!
//! Each E-experiment records its key numbers in `target/bench_*.json`.
//! This tool distills those files into a handful of named scalar
//! metrics, compares them against the committed baselines in
//! `BENCH_TRAJECTORY.json`, and exits non-zero when any metric has
//! regressed beyond its tolerance — so a perf regression fails ci.sh
//! the same way a broken test does.
//!
//! Usage:
//!   trend check            compare current numbers against baselines
//!   trend check --record   also ratchet baselines on improvement and
//!                          adopt any metrics not yet tracked
//!
//! Tolerances are per-metric: wall-time-derived numbers (speedups, the
//! tracing overhead) get wide bands because they move with host load;
//! seeded accuracy numbers (worst-case error, recognition F1) are
//! deterministic and get tight ones. `higher` metrics regress by
//! falling below `baseline * (1 - rel) - abs`; `lower` metrics by
//! rising above `baseline * (1 + rel) + abs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use aims_telemetry::json::{self, JsonValue};

const TRAJECTORY_PATH: &str = "BENCH_TRAJECTORY.json";
const HISTORY_CAP: usize = 24;

/// One tracked metric: where it came from, which way is better, and how
/// much slack it gets before a change counts as a regression.
struct MetricSpec {
    name: &'static str,
    direction: Direction,
    rel_tolerance: f64,
    abs_tolerance: f64,
}

impl MetricSpec {
    fn new(
        name: &'static str,
        direction: Direction,
        rel_tolerance: f64,
        abs_tolerance: f64,
    ) -> Self {
        MetricSpec { name, direction, rel_tolerance, abs_tolerance }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Higher,
    Lower,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            _ => None,
        }
    }
}

/// Reads `target/bench_*.json` and distills the tracked metrics.
/// Files that are missing are skipped (their metrics simply don't get
/// checked this run); files that exist but don't parse are an error.
fn collect_current() -> Result<Vec<(MetricSpec, f64)>, String> {
    let mut out = Vec::new();

    // E24 — parallel speedups, one metric per workload. These are
    // ratios of two wall-clock runs on a shared host and swing up to
    // 3x under contention (the 2-D DWT has been observed anywhere
    // between 0.4x and 1.3x), so the band only catches catastrophic
    // regressions; the --record ratchet tightens baselines once the
    // ROADMAP item-4 kernel work makes them stable.
    if let Some(v) = load("target/bench_parallel.json")? {
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("bench_parallel.json: missing workloads[]")?;
        for w in workloads {
            let name = w.str("name").ok_or("bench_parallel.json: workload without name")?;
            let speedup =
                w.num("speedup").ok_or("bench_parallel.json: workload without speedup")?;
            out.push((
                MetricSpec::new(
                    leak(format!("e24.{}.speedup", slug(name))),
                    Direction::Higher,
                    0.75,
                    0.0,
                ),
                speedup,
            ));
        }
    }

    // E29 — serial kernel speedups vs the frozen pre-kernel
    // implementations. Both sides run on the same core in the same
    // process, so the ratio is steadier than E24's parallel numbers —
    // but it is still a wall-clock ratio on a shared host: medium band.
    if let Some(v) = load("target/bench_kernels.json")? {
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("bench_kernels.json: missing workloads[]")?;
        for w in workloads {
            let name = w.str("name").ok_or("bench_kernels.json: workload without name")?;
            let speedup = w.num("speedup").ok_or("bench_kernels.json: workload without speedup")?;
            out.push((
                MetricSpec::new(
                    leak(format!("e29.{}.speedup", slug(name))),
                    Direction::Higher,
                    0.50,
                    0.0,
                ),
                speedup,
            ));
        }
    }

    // E25 — worst relative error across the fault sweep. Seeded and
    // deterministic: tight band.
    if let Some(v) = load("target/bench_faults.json")? {
        let worst = rows_extreme(&v, "worst_rel_error", f64::max, f64::NEG_INFINITY)
            .ok_or("bench_faults.json: no worst_rel_error in rows[]")?;
        out.push((MetricSpec::new("e25.worst_rel_error", Direction::Lower, 0.05, 0.0), worst));
    }

    // E26 — minimum recognition F1 across dropout levels. Seeded: tight.
    if let Some(v) = load("target/bench_ingest_faults.json")? {
        let min_f1 = rows_extreme(&v, "f1", f64::min, f64::INFINITY)
            .ok_or("bench_ingest_faults.json: no f1 in rows[]")?;
        out.push((MetricSpec::new("e26.min_f1", Direction::Higher, 0.05, 0.0), min_f1));
    }

    // E27 — shared-scan read reduction. Deterministic plan math, but
    // admission timing can shift which queries share a scan: medium.
    if let Some(v) = load("target/bench_service.json")? {
        let reduction = v.num("reduction").ok_or("bench_service.json: missing reduction")?;
        out.push((MetricSpec::new("e27.reduction", Direction::Higher, 0.20, 0.0), reduction));
    }

    // E30 — durability-mode write throughput ratios. Each side is a
    // wall-clock run doing real fsyncs, so the ratio moves with the
    // host's storage stack: wide band, ratcheted by --record.
    if let Some(v) = load("target/bench_durability.json")? {
        for (field, name) in [
            ("none_over_always", "e30.none_over_always.speedup"),
            ("periodic_over_always", "e30.periodic_over_always.speedup"),
        ] {
            let ratio =
                v.num(field).ok_or_else(|| format!("bench_durability.json: missing {field}"))?;
            out.push((MetricSpec::new(name, Direction::Higher, 0.75, 0.0), ratio));
        }
    }

    // E31 — adaptive QoS. The scheduling comparison (boost-weighted
    // FIFO/utility bound-area ratio) is deterministic once the cohort
    // is gathered, so it gets a modest band; the drill's shed fraction
    // is a seeded workload property with a little admission-timing
    // slack; recovery time and overload p99 are wall-clock numbers on
    // a flooded service, so they get absolute bands wide enough for a
    // loaded CI host.
    if let Some(v) = load("target/bench_chaos.json")? {
        let ratio = v.num("auc_ratio").ok_or("bench_chaos.json: missing auc_ratio")?;
        out.push((MetricSpec::new("e31.auc_ratio", Direction::Higher, 0.15, 0.0), ratio));
        let shed = v.num("shed_fraction").ok_or("bench_chaos.json: missing shed_fraction")?;
        out.push((MetricSpec::new("e31.shed_fraction", Direction::Lower, 0.25, 0.05), shed));
        let recovery = v.num("recovery_ms").ok_or("bench_chaos.json: missing recovery_ms")?;
        out.push((MetricSpec::new("e31.recovery_ms", Direction::Lower, 0.0, 500.0), recovery));
        let p99 = v.num("p99_overload_ms").ok_or("bench_chaos.json: missing p99_overload_ms")?;
        out.push((MetricSpec::new("e31.p99_overload_ms", Direction::Lower, 2.0, 10.0), p99));
    }

    // E32 — tiered ingest. The absorption rate and query p99 are
    // wall-clock numbers on a host also running the compactor, so they
    // get wide bands (the 1M/s acceptance floor is asserted inside the
    // experiment itself, not here); compaction lag moves with scheduler
    // luck on a saturated box and gets an absolute allowance on top.
    if let Some(v) = load("target/bench_tier.json")? {
        let rate = v
            .num("ingest_samples_per_sec")
            .ok_or("bench_tier.json: missing ingest_samples_per_sec")?;
        out.push((
            MetricSpec::new("e32.ingest_samples_per_sec", Direction::Higher, 0.60, 0.0),
            rate,
        ));
        let lag = v.num("compaction_lag_ms").ok_or("bench_tier.json: missing compaction_lag_ms")?;
        out.push((MetricSpec::new("e32.compaction_lag_ms", Direction::Lower, 1.0, 1000.0), lag));
        let p99 = v.num("query_p99_ms").ok_or("bench_tier.json: missing query_p99_ms")?;
        out.push((MetricSpec::new("e32.query_p99_ms", Direction::Lower, 2.0, 10.0), p99));
    }

    // E28 — tracing overhead ratio. Pure wall-time delta on a ~20 ms
    // run: the absolute band matters more than the relative one.
    if let Some(v) = load("target/bench_trace.json")? {
        let overhead = v.num("overhead").ok_or("bench_trace.json: missing overhead")?;
        out.push((MetricSpec::new("e28.overhead", Direction::Lower, 0.0, 0.04), overhead));
    }

    Ok(out)
}

fn load(path: &str) -> Result<Option<JsonValue>, String> {
    if !Path::new(path).exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map(Some).map_err(|e| format!("{path}: {e:?}"))
}

/// Folds `field` across the object's `rows[]` with the given combiner.
fn rows_extreme(v: &JsonValue, field: &str, fold: fn(f64, f64) -> f64, init: f64) -> Option<f64> {
    let rows = v.get("rows")?.as_array()?;
    let mut acc = init;
    let mut seen = false;
    for r in rows {
        if let Some(x) = r.num(field) {
            acc = fold(acc, x);
            seen = true;
        }
    }
    seen.then_some(acc)
}

/// `"2-D DWT 1024^2 fwd+inv"` -> `"2_d_dwt_1024_2_fwd_inv"` — a stable
/// metric-name fragment from a human workload label.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_sep = true;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    if out.ends_with('_') {
        out.pop();
    }
    out
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The committed state for one metric.
struct Tracked {
    direction: Direction,
    rel_tolerance: f64,
    abs_tolerance: f64,
    baseline: f64,
    history: Vec<f64>,
}

fn load_trajectory(path: &str) -> Result<BTreeMap<String, Tracked>, String> {
    if !Path::new(path).exists() {
        return Ok(BTreeMap::new());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{path}: missing metrics object"))?;
    let mut out = BTreeMap::new();
    for (name, m) in metrics {
        let direction = m
            .str("direction")
            .and_then(Direction::from_str)
            .ok_or_else(|| format!("{path}: metric {name} has bad direction"))?;
        let baseline =
            m.num("baseline").ok_or_else(|| format!("{path}: metric {name} has no baseline"))?;
        let history = m
            .get("history")
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default();
        out.insert(
            name.clone(),
            Tracked {
                direction,
                rel_tolerance: m.num("rel_tolerance").unwrap_or(0.0),
                abs_tolerance: m.num("abs_tolerance").unwrap_or(0.0),
                baseline,
                history,
            },
        );
    }
    Ok(out)
}

fn write_trajectory(path: &str, metrics: &BTreeMap<String, Tracked>) -> Result<(), String> {
    let mut s = String::from("{\n  \"version\": 1,\n  \"metrics\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (name, t)) in metrics.iter().enumerate() {
        let history = t.history.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(", ");
        let _ = write!(
            s,
            "    {}: {{\"direction\": \"{}\", \"rel_tolerance\": {}, \"abs_tolerance\": {}, \
             \"baseline\": {:.6}, \"history\": [{}]}}",
            json_string(name),
            t.direction.as_str(),
            t.rel_tolerance,
            t.abs_tolerance,
            t.baseline,
            history
        );
        s.push_str(if i == last { "\n" } else { ",\n" });
    }
    s.push_str("  }\n}\n");
    fs::write(path, s).map_err(|e| format!("{path}: {e}"))
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let cmd = args.iter().find(|a| !a.starts_with("--")).map(String::as_str);
    match cmd {
        Some("check") | None => {}
        Some(other) => {
            eprintln!("unknown command `{other}`\nusage: trend check [--record]");
            return ExitCode::FAILURE;
        }
    }

    let current = match collect_current() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
    };
    if current.is_empty() {
        eprintln!(
            "trend: no target/bench_*.json files found — run the experiments first\n\
             (cargo run --release -p aims-bench --bin experiments -- e24 e25 e26 e27 e28)"
        );
        return ExitCode::FAILURE;
    }

    let mut trajectory = match load_trajectory(TRAJECTORY_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut changed = false;
    println!("perf trajectory vs {TRAJECTORY_PATH}:");
    for (spec, value) in &current {
        match trajectory.get_mut(spec.name) {
            None => {
                if record {
                    trajectory.insert(
                        spec.name.to_string(),
                        Tracked {
                            direction: spec.direction,
                            rel_tolerance: spec.rel_tolerance,
                            abs_tolerance: spec.abs_tolerance,
                            baseline: *value,
                            history: vec![*value],
                        },
                    );
                    changed = true;
                    println!("  {:32} {value:>10.4}  NEW (baseline recorded)", spec.name);
                } else {
                    println!("  {:32} {value:>10.4}  untracked (run with --record)", spec.name);
                }
            }
            Some(t) => {
                // The committed tolerances govern — editing the file is
                // how a human loosens or tightens a gate.
                let (ok, bound) = match t.direction {
                    Direction::Higher => {
                        let min_ok = t.baseline * (1.0 - t.rel_tolerance) - t.abs_tolerance;
                        (*value >= min_ok, min_ok)
                    }
                    Direction::Lower => {
                        let max_ok = t.baseline * (1.0 + t.rel_tolerance) + t.abs_tolerance;
                        (*value <= max_ok, max_ok)
                    }
                };
                let improved = match t.direction {
                    Direction::Higher => *value > t.baseline,
                    Direction::Lower => *value < t.baseline,
                };
                let verdict = if !ok {
                    regressions += 1;
                    "REGRESSION"
                } else if improved {
                    "ok (improved)"
                } else {
                    "ok"
                };
                println!(
                    "  {:32} {value:>10.4}  baseline {:>10.4}  bound {:>10.4}  {verdict}",
                    spec.name, t.baseline, bound
                );
                if record {
                    t.history.push(*value);
                    if t.history.len() > HISTORY_CAP {
                        let drop = t.history.len() - HISTORY_CAP;
                        t.history.drain(..drop);
                    }
                    if improved {
                        // Ratchet: improvements become the new floor, so
                        // the gate tracks the best the code has done.
                        t.baseline = *value;
                    }
                    changed = true;
                }
            }
        }
    }

    if changed {
        if let Err(e) = write_trajectory(TRAJECTORY_PATH, &trajectory) {
            eprintln!("trend: {e}");
            return ExitCode::FAILURE;
        }
        println!("updated {TRAJECTORY_PATH}");
    }

    if regressions > 0 {
        eprintln!("trend: {regressions} metric(s) regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!("trend: all {} tracked metrics within tolerance", current.len());
        ExitCode::SUCCESS
    }
}
