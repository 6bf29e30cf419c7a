//! Experiment E32: the tiered ingest engine under concurrent load — one
//! multi-million-sample run of the tiered-ingest drill
//! ([`aims::drills::tiers`]): a file-backed store absorbs the stream on
//! one thread while the background compactor swaps sealed segments into
//! wavelet form and a planner runs progressive range sums the whole time.
//! Gates: the drill's contract (monotone in-bound trajectories, a drained
//! backlog, bit-identity to a serial single-store oracle) and sustained
//! ingest ≥ 1M samples/sec.

use aims::drills::tiers::{self, Config};
use aims::drills::Report;

/// E32 — tiered ingest: hot-tier absorption rate, compaction lag, and
/// query latency under concurrency, with a final oracle bit-identity
/// gate. Results land in `target/bench_tier.json` for CI trend tracking.
pub fn e32_tier() {
    crate::header(
        "E32",
        "tiered ingest: >=1M samples/s absorbed while progressive queries stay exact",
    );
    let cfg = Config { seed: 0xE32, samples: 505 * 4096 + 1234, ..Config::default() };
    println!(
        "workload: {} samples, {}-sample segments, {}-item blocks, \
         file-backed (fsync every 64 appends), seed {:#x}\n",
        cfg.samples, cfg.segment, cfg.block, cfg.seed
    );

    let report = tiers::run(&cfg);
    print!("{}", report.table());
    let violations = report.violations();
    assert!(violations.is_empty(), "tier drill: {violations:#?}");
    let rate = report.ingest_rate();
    assert!(rate >= 1.0e6, "ingest rate {rate:.0} samples/s below the 1M/s floor");
    println!("\ngates: ingest >= 1M samples/s, monotone bounds on every live trajectory, and the");
    println!("fully-compacted store answered bit-identically to the serial single-store oracle.");

    let json = report.to_json().replacen('{', "{\"experiment\":\"e32_tier\",", 1);
    crate::record("bench_tier.json", &json);
}
