//! Experiment E25: graceful degradation under storage faults —
//! degraded-query error vs. fraction of lost blocks. Each point is one
//! run of the storage-fault drill ([`aims::drills::faults`]), whose
//! contract (the guaranteed bound dominates every degraded query's true
//! error, recovered queries and all zero-fault queries are bit-identical
//! to the plain device) is asserted at every point.

use aims::drills::faults::{self, Answer, Config, BLOCK, N};
use aims::drills::Report;
use aims_storage::faults::FaultKind;

const SEED: u64 = 0xA1B2;

/// E25 — fault-injected storage: mean degraded-query error and guaranteed
/// bound as the fraction of dead blocks grows. Results land in
/// `target/bench_faults.json` for CI trend tracking.
pub fn e25_fault_degradation() {
    crate::header("E25", "fault-injected storage: degraded-query error vs fraction of lost blocks");
    println!("store: n={N}, B={BLOCK}, tree tiling, 64 range queries, seed {SEED:#x}\n");

    let mut rows = Vec::new();
    let ((), wall) = crate::timed("bench.e25.faults", || {
        for dead_fraction in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let cfg =
                Config { seed: SEED, kind: FaultKind::DeadBlock, rate: dead_fraction, budget: 2 };
            let report = faults::run(&cfg);
            let violations = report.violations();
            assert!(violations.is_empty(), "dead fraction {dead_fraction}: {violations:#?}");

            let degraded: Vec<&Answer> =
                report.answers.iter().filter(|a| a.outcome.degraded()).collect();
            let err = |a: &Answer| (a.outcome.value - a.truth).abs();
            let mean = |f: &dyn Fn(&Answer) -> f64| {
                degraded.iter().map(|a| f(a)).sum::<f64>() / degraded.len().max(1) as f64
            };
            let worst =
                degraded.iter().map(|a| err(a) / a.truth.abs().max(1.0)).fold(0.0, f64::max);
            rows.push(vec![
                ("dead_fraction", format!("{dead_fraction:.2}")),
                ("lost_blocks", report.dead_blocks.to_string()),
                ("degraded_queries", degraded.len().to_string()),
                ("mean_abs_error", format!("{:.6}", mean(&err))),
                ("mean_bound", format!("{:.6}", mean(&|a| a.outcome.error_bound))),
                ("worst_rel_error", format!("{worst:.6}")),
            ]);
        }
    });

    let rows = crate::print_rows(&rows);
    println!("\nshape check: zero faults → 0 degraded queries and bit-identical answers");
    println!("(asserted above); the guaranteed bound dominates the true error at every");
    println!("fraction, and both grow with the share of lost blocks. ({wall:.1?})");

    let json =
        format!("{{\"experiment\":\"e25_faults\",\"seed\":{SEED},\"queries\":64,\"rows\":{rows}}}");
    crate::record("bench_faults.json", &json);
}
