//! The library drills as their own CLI wrappers run them: each must
//! check something and pass.
//!
//! - The WAL crash drill crashes and recovers exactly for every seed and
//!   durability mode, and its telemetry covers the write phase.
//! - The tiered-ingest drill runs live queries over a file-backed store,
//!   however fast a small ingest finishes.
//! - The storage- and sensor-fault drills pass at their defaults.

use aims::drills::{durability, faults, ingest, tiers, Report};
use aims::storage::file::DurabilityMode;

#[test]
fn durability_drill_always_crashes_and_recovers_exactly() {
    for mode in [DurabilityMode::Always, DurabilityMode::Periodic(8), DurabilityMode::None] {
        for seed in 0..32 {
            let report = durability::run(&durability::Config { mode, seed, ..Default::default() });
            let label = format!("{} seed {seed}", mode.label());
            assert!(report.crashed, "{label}: step {} of {}", report.crash_step, report.steps);
            assert!(report.matched_prefix.is_some(), "{label}: no committed prefix matched");
            assert_eq!(report.violations(), Vec::<String>::new(), "{label}");
        }
    }
}

#[test]
fn durability_drill_telemetry_covers_the_write_phase() {
    let report = durability::run(&durability::Config::default());
    assert_eq!(report.config.mode, DurabilityMode::Always);
    let telemetry = report.telemetry.iter().find(|(name, _)| name == "storage.wal.fsyncs");
    let fsyncs = telemetry.map_or(0, |(_, n)| *n);
    assert!(report.wal.fsyncs > 0, "always mode must fsync before the crash");
    assert!(
        fsyncs >= report.wal.fsyncs,
        "telemetry shows {fsyncs} fsyncs, the device made {}",
        report.wal.fsyncs
    );
}

#[test]
fn tier_drill_runs_live_queries_on_a_file_backed_store() {
    // Small enough that ingest ends before the query thread gets going:
    // the queries after it still count.
    let cfg = tiers::Config { samples: 3 * 64 + 10, segment: 64, block: 16, ..Default::default() };
    let report = tiers::run(&cfg);
    assert!(
        report.latencies_ms.len() >= tiers::MIN_QUERIES,
        "{} live queries",
        report.latencies_ms.len()
    );
    assert!(report.drained && report.oracle_identical);
    assert_eq!(report.violations(), Vec::<String>::new());
}

#[test]
fn fault_drills_pass_at_their_defaults() {
    assert_eq!(faults::run(&faults::Config::default()).violations(), Vec::<String>::new());
    assert_eq!(ingest::run(&ingest::Config::default()).violations(), Vec::<String>::new());
}
