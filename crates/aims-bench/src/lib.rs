//! Experiment harness for the AIMS reproduction.
//!
//! The CIDR 2003 paper is a system-design paper: its "evaluation" is a set
//! of quantitative claims rather than numbered result tables. Every claim
//! is reproduced by one experiment here (E1–E19, plus extension
//! experiments E20–E30; see `DESIGN.md` for the
//! claim → experiment index). `cargo run --release -p aims-bench --bin
//! experiments` prints the full table set that `EXPERIMENTS.md` records;
//! the Criterion benches under `benches/` cover the performance-shaped
//! claims.

pub mod exp_acquisition;
pub mod exp_adhd;
pub mod exp_chaos;
pub mod exp_durability;
pub mod exp_extensions;
pub mod exp_faults;
pub mod exp_ingest_faults;
pub mod exp_kernels;
pub mod exp_online;
pub mod exp_parallel;
pub mod exp_propolyne;
pub mod exp_service;
pub mod exp_storage;
pub mod exp_system;
pub mod exp_tier;
pub mod exp_trace;
pub mod workloads;

use std::time::{Duration, Instant};

use aims_telemetry::{global, Snapshot};

/// Prints a section header for one experiment.
pub fn header(id: &str, claim: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id}: {claim}");
    println!("{}", "=".repeat(78));
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Prints `(column, JSON value)` rows as an aligned table, headed by the
/// first row's columns, and returns them as a JSON array: an
/// experiment's printed table and its recorded rows are one list.
pub fn print_rows(rows: &[Vec<(&str, String)>]) -> String {
    let Some(first) = rows.first() else { return "[]".into() };
    let widths: Vec<usize> = (0..first.len())
        .map(|c| rows.iter().map(|r| r[c].1.len()).max().unwrap_or(0).max(first[c].0.len()))
        .collect();
    let line = |cells: Vec<&str>| {
        let cells: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", cells.join(" "));
    };
    line(first.iter().map(|(k, _)| *k).collect());
    for r in rows {
        line(r.iter().map(|(_, v)| v.trim_matches('"')).collect());
    }
    let json: Vec<String> = rows.iter().map(|r| aims::drills::json_object(r)).collect();
    format!("[{}]", json.join(","))
}

/// Writes an experiment's JSON record to `target/<file>` for the CI
/// trend gate, reporting where it went.
pub fn record(file: &str, json: &str) {
    let path = std::path::Path::new("target").join(file);
    match std::fs::write(&path, format!("{json}\n")) {
        Ok(()) => println!("\nrecorded {}", path.display()),
        Err(e) => println!("\n(could not write {}: {e})", path.display()),
    }
}

/// Times `f` under a telemetry span, so the elapsed time lands in the
/// `<name>.ns` histogram of the global registry *and* is returned for
/// inline experiment output.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = {
        let _span = aims_telemetry::span!(name);
        f()
    };
    (result, start.elapsed())
}

/// Scoped view of what an experiment recorded into the global telemetry
/// registry: construct with [`TelemetryReport::start`] before the work,
/// call [`TelemetryReport::finish`] after it to print the counters that
/// moved plus every histogram/gauge (cumulative), as an aligned table.
pub struct TelemetryReport {
    before: Snapshot,
}

impl TelemetryReport {
    /// Marks the starting point.
    pub fn start() -> Self {
        TelemetryReport { before: global().snapshot() }
    }

    /// Snapshot of the activity since [`TelemetryReport::start`].
    pub fn delta(&self) -> Snapshot {
        global().snapshot().delta_since(&self.before)
    }

    /// Prints the delta as a table under a `-- telemetry: <title> --`
    /// banner.
    pub fn finish(self, title: &str) {
        let delta = self.delta();
        if delta.is_empty() {
            return;
        }
        println!("\n-- telemetry: {title} --");
        print!("{}", delta.render_table());
    }
}
