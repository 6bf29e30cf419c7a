//! Seeded robustness drills, each written once.
//!
//! Four drills back AIMS's robustness claims:
//!
//! - [`faults`] — range sums against a blocked wavelet store on a seeded
//!   faulty device under a bounded retry budget;
//! - [`ingest`] — a glove session replayed through a seeded faulty sensor
//!   wire into the supervised ingest stage;
//! - [`durability`] — a seeded write log killed at a seeded crash step of
//!   the file-backed WAL store, then reopened;
//! - [`tiers`] — live ingest, background compaction and progressive
//!   queries over one file-backed tiered store.
//!
//! Each module is a seeded `run(&Config) -> Report`. `aims-cli`, the
//! `aims-bench` experiments (E25, E26, E30, E32) and the integration tests
//! are thin wrappers over it. Every report implements [`Report`]: an
//! empty [`Report::violations`] is a pass, so a drill that checked
//! nothing reports that as a violation rather than passing silently.
//! The composed chaos drill ([`crate::chaos`]) has the same shape.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aims_telemetry::Snapshot;

pub mod durability;
pub mod faults;
pub mod ingest;
pub mod tiers;

/// What every drill run returns.
pub trait Report {
    /// The drill's name, the text table's title.
    const NAME: &'static str;
    /// Every invariant the run broke; empty means the drill passed.
    fn violations(&self) -> Vec<String>;
    /// The run's `(key, JSON value)` fields, in order.
    fn fields(&self) -> Vec<(&'static str, String)>;
    /// Telemetry counters the run moved.
    fn telemetry(&self) -> &[(String, u64)] {
        &[]
    }

    /// The fields, the telemetry and the violation count as one JSON
    /// object.
    fn to_json(&self) -> String {
        let mut fields = self.fields();
        if !self.telemetry().is_empty() {
            fields.push(("telemetry", json_object(self.telemetry())));
        }
        fields.push(("violations", self.violations().len().to_string()));
        json_object(&fields)
    }

    /// The title, one `key value` line per field (long lists cut to one
    /// line) and the telemetry, newline-terminated.
    fn table(&self) -> String {
        let mut out = format!("{}\n", Self::NAME);
        for (key, value) in self.fields() {
            let value = value.trim_matches('"');
            let value =
                if value.len() > 72 { format!("{}...", &value[..69]) } else { value.into() };
            out.push_str(&format!("  {key:<24} {value}\n"));
        }
        if !self.telemetry().is_empty() {
            out.push_str("\n-- telemetry (this drill) --\n");
            for (name, v) in self.telemetry() {
                out.push_str(&format!("  {name:<28} {v}\n"));
            }
        }
        out
    }
}

/// `{"key":value,...}` from `(key, JSON value)` pairs.
pub fn json_object<K: Display, V: Display>(fields: &[(K, V)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// The seed pinned in environment variable `var`, else `default` — how
/// CI pins each drill's seed.
pub fn env_seed(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

/// Seeded xorshift64 stream: the workload generator the drills share.
/// The state must be non-zero (callers seed it with `seed | 1`).
#[derive(Clone, Debug)]
pub struct XorShift(pub u64);

impl XorShift {
    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Nearest-rank percentile `p ∈ [0, 1]` of an ascending slice; 0 when
/// empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// A drill's working directory: the caller's `dir` (kept afterwards) or
/// a fresh unique temp directory (removed on drop). Emptied on creation.
#[derive(Debug)]
pub struct DrillDir {
    path: PathBuf,
    keep: bool,
}

impl DrillDir {
    /// Claims `dir`, or a unique temp directory named after `tag`.
    pub fn new(dir: Option<&Path>, tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let (path, keep) = match dir {
            Some(d) => (d.to_path_buf(), true),
            None => {
                let n = SEQ.fetch_add(1, Ordering::Relaxed);
                (std::env::temp_dir().join(format!("aims-{tag}-{}-{n}", std::process::id())), false)
            }
        };
        std::fs::remove_dir_all(&path).ok();
        DrillDir { path, keep }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DrillDir {
    fn drop(&mut self) {
        if !self.keep {
            std::fs::remove_dir_all(&self.path).ok();
        }
    }
}

/// The global counters under any of `prefixes` that moved since
/// `before`.
fn telemetry_since(before: &Snapshot, prefixes: &[&str]) -> Vec<(String, u64)> {
    let delta = aims_telemetry::global().snapshot().delta_since(before);
    delta.counters.into_iter().filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p))).collect()
}
