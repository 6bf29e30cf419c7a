//! `aims-perfbench`: the end-to-end benchmark of the AIMS reference
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_hot|olap_cold|ingest_live --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed` during set-up, the pipeline is
//! driven from outside through the crates' public APIs, every answer is
//! checked, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics, a traced run
//! (`--trace 1`) the per-layer ones. A failed correctness check prints
//! the reason on standard error and exits with code 1 without a result.
//! `perfbench/README.md` lists what each metric means on each workload
//! and which end-to-end metric each layer metric should move.

mod checks;
mod ingest;
mod olap;
mod report;
#[cfg(test)]
mod selftest;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, Report};

/// Command-line options, validated where they enter.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for this run's stores, inside the current directory;
    /// removed when the run ends.
    pub work_dir: PathBuf,
    /// Scales every input down, for the self-test; the metrics are the
    /// same, only smaller and noisier.
    pub smoke: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OlapHot,
    OlapCold,
    IngestLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::OlapHot, Workload::OlapCold, Workload::IngestLive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapHot => "olap_hot",
            Workload::OlapCold => "olap_cold",
            Workload::IngestLive => "ingest_live",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

const USAGE: &str = "usage: aims-perfbench --workload olap_hot|olap_cold|ingest_live \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));
    Ok(Opts { workload, seed, seconds, trace, work_dir, smoke: false })
}

/// Runs one workload and returns its report, or the first failed
/// correctness check.
pub fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let _cleanup = sys::RemoveOnDrop(opts.work_dir.clone());
    let outcome = match opts.workload {
        Workload::OlapHot | Workload::OlapCold => olap::run(opts),
        Workload::IngestLive => ingest::run(opts),
    }?;
    let Outcome { mut report, tracer } = outcome;
    if opts.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        ));
        tracer.dump_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        for (layer, ms) in tracer.self_time_ms() {
            report.set(&format!("self_ms.{layer}"), ms);
        }
        eprintln!("trace written to {}", path.display());
        if tracer.dropped() > 0 {
            eprintln!("warning: {} spans beyond the buffer were dropped", tracer.dropped());
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aims-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => match report.to_json(opts.trace) {
            Ok(json) => {
                eprint!("{}", report.table(opts.trace));
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("aims-perfbench: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("aims-perfbench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}
