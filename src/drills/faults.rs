//! The storage-fault drill: 64 range sums against a blocked wavelet store
//! on a seeded [`FaultyDevice`], read under a bounded retry budget.
//!
//! Contract, checked per query against a fault-free copy of the store:
//! a recovered answer is bit-identical to the fault-free one, and a
//! degraded answer's true error stays within its guaranteed
//! `error_bound`. At rate zero nothing may degrade.

use aims_storage::buffer::BufferPool;
use aims_storage::device::{BlockDevice, RetryPolicy};
use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims_storage::store::{AllocKind, QueryOutcome, WaveletStore};

use super::{json_object, telemetry_since, Report};

/// Signal length.
pub const N: usize = 4096;
/// Coefficients per block.
pub const BLOCK: usize = 32;

/// Fault kinds by their CLI and report names.
pub const KINDS: [(&str, FaultKind); 4] = [
    ("read", FaultKind::ReadError),
    ("flip", FaultKind::BitFlip),
    ("torn", FaultKind::TornWrite),
    ("dead", FaultKind::DeadBlock),
];

/// One drill run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// The injected fault class.
    pub kind: FaultKind,
    /// Fault rate in `[0, 1]`.
    pub rate: f64,
    /// Retries per block read.
    pub budget: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { seed: 41378, kind: FaultKind::ReadError, rate: 0.3, budget: 3 }
    }
}

/// One answered query.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The inclusive range `[a, b]`.
    pub range: (usize, usize),
    /// The fault-free answer.
    pub truth: f64,
    /// What the faulty store answered.
    pub outcome: QueryOutcome,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct FaultsReport {
    /// The run's configuration.
    pub config: Config,
    /// Every query, in workload order.
    pub answers: Vec<Answer>,
    /// Permanently unreadable blocks.
    pub dead_blocks: usize,
    /// Blocks torn at load time.
    pub torn_blocks: usize,
    /// `storage.*` fault counters moved by this run.
    pub telemetry: Vec<(String, u64)>,
    violations: Vec<String>,
}

/// The per-query contract: `None` when `got` is bit-identical to `truth`
/// (recovered) or degraded within its bound.
pub fn check(label: &str, truth: f64, got: &QueryOutcome) -> Option<String> {
    let err = (got.value - truth).abs();
    if got.degraded() {
        (err > got.error_bound + 1e-9)
            .then(|| format!("{label}: degraded answer off by {err} > bound {}", got.error_bound))
    } else {
        (got.value.to_bits() != truth.to_bits())
            .then(|| format!("{label}: recovered answer {} != fault-free {truth}", got.value))
    }
}

/// Runs the drill.
pub fn run(cfg: &Config) -> FaultsReport {
    let before = aims_telemetry::global().snapshot();
    // A sawtooth plus a slow sine.
    let signal: Vec<f64> =
        (0..N).map(|i| ((i * 13 + 5) % 31) as f64 - 15.0 + (i as f64 * 0.003).sin()).collect();
    let plain = WaveletStore::from_signal(&signal, BLOCK, AllocKind::TreeTiling);
    let plan = FaultPlan::uniform(cfg.seed, cfg.kind, cfg.rate);
    let store = WaveletStore::from_signal_on(&signal, BLOCK, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, plan)
    });
    let policy = RetryPolicy::with_retries(cfg.budget);
    let (mut pool, mut plain_pool) = (BufferPool::new(256), BufferPool::new(256));
    let mut violations = Vec::new();
    // 64 ranges spread over the domain at widths 16..2048.
    let answers: Vec<Answer> = (0..64)
        .map(|k| {
            let width = 1usize << (4 + (k % 8));
            let a = (k * 61) % (N - width);
            let b = a + width - 1;
            let truth = plain.range_sum(a, b, &mut plain_pool);
            let outcome = store.range_sum_outcome(a, b, &mut pool, &policy);
            violations.extend(check(&format!("[{a},{b}]"), truth, &outcome));
            if cfg.rate == 0.0 && outcome.degraded() {
                violations.push(format!("[{a},{b}]: degraded with no faults injected"));
            }
            Answer { range: (a, b), truth, outcome }
        })
        .collect();

    let device = store.device();
    FaultsReport {
        config: cfg.clone(),
        answers,
        dead_blocks: (0..device.num_blocks()).filter(|&b| device.is_dead(b)).count(),
        torn_blocks: device.torn_blocks().len(),
        telemetry: telemetry_since(
            &before,
            &["storage.retries", "storage.corrupt", "storage.degraded", "storage.fault."],
        ),
        violations,
    }
}

impl Report for FaultsReport {
    const NAME: &'static str = "storage-fault drill";

    fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let kind = KINDS.iter().find(|(_, k)| *k == c.kind).map_or("?", |(name, _)| name);
        let degraded = self.answers.iter().filter(|a| a.outcome.degraded()).count();
        let worst = self.answers.iter().map(|a| a.outcome.error_bound).fold(0.0, f64::max);
        let queries: Vec<String> = self
            .answers
            .iter()
            .map(|a| {
                json_object(&[
                    ("range", format!("[{},{}]", a.range.0, a.range.1)),
                    ("value", a.outcome.value.to_string()),
                    ("error_bound", a.outcome.error_bound.to_string()),
                    ("lost_blocks", a.outcome.lost_blocks.len().to_string()),
                ])
            })
            .collect();
        vec![
            ("seed", c.seed.to_string()),
            ("kind", format!("\"{kind}\"")),
            ("rate", c.rate.to_string()),
            ("budget", c.budget.to_string()),
            ("recovered", (self.answers.len() - degraded).to_string()),
            ("degraded", degraded.to_string()),
            ("worst_bound", format!("{worst:.3}")),
            ("dead_blocks", self.dead_blocks.to_string()),
            ("torn_blocks", self.torn_blocks.to_string()),
            ("queries", format!("[{}]", queries.join(","))),
        ]
    }

    fn telemetry(&self) -> &[(String, u64)] {
        &self.telemetry
    }
}
