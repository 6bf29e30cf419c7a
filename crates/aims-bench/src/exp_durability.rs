//! Experiment E30: durability-mode cost and crash recovery — a seeded
//! load + update write log against the file-backed store under each
//! durability mode, plus one WAL crash drill per mode
//! ([`aims::drills::durability`]). Gates: fsync-always never loses an
//! acknowledged write, and the recovered state is bit-identical to the
//! committed write prefix.

use std::time::Instant;

use aims::drills::durability::{self, Config};
use aims::drills::{DrillDir, Report};
use aims_storage::{CrashPlan, DurabilityMode};

/// E30 — durable storage: acknowledged-write throughput per durability
/// mode and seeded crash drills with exact recovery. Results land in
/// `target/bench_durability.json` for CI trend tracking.
pub fn e30_durability() {
    crate::header("E30", "durability modes: write cost vs crash-loss window, with exact recovery");

    let base = Config { seed: 0xE30, blocks: 48, block_size: 32, writes: 304, ..Config::default() };
    let log = durability::write_log(&base);
    let (bs, nb) = (base.block_size, base.blocks);
    println!(
        "workload: {nb} blocks x {bs} items load + updates ({} writes total), seed {:#x}\n",
        log.len(),
        base.seed
    );

    let (mut rows, mut writes_per_sec) = (Vec::new(), Vec::new());
    let ((), wall) = crate::timed("bench.e30.durability", || {
        for mode in [DurabilityMode::Always, DurabilityMode::Periodic(8), DurabilityMode::None] {
            let dir = DrillDir::new(None, "e30");
            let opts = durability::options(mode, CrashPlan::none());
            let t = Instant::now();
            let (mut device, _) = durability::run_log(dir.path(), bs, nb, opts, &log).unwrap();
            device.sync();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let stats = device.wal_stats();
            // Sanity: the surviving state equals the full log on every mode.
            let full = durability::matching_prefix(&device, &log, log.len(), log.len());
            assert_eq!(full, Some(log.len()), "{mode:?} state drift");
            device.close();

            let drill = durability::run(&Config { mode, ..base.clone() });
            let violations = drill.violations();
            assert!(violations.is_empty(), "{mode:?} crash drill: {violations:#?}");
            writes_per_sec.push(log.len() as f64 / (wall_ms / 1e3));
            rows.push(vec![
                ("mode", format!("\"{}\"", mode.label())),
                ("writes", log.len().to_string()),
                ("wall_ms", format!("{wall_ms:.3}")),
                ("writes_per_sec", format!("{:.1}", writes_per_sec.last().unwrap())),
                ("fsyncs", stats.fsyncs.to_string()),
                ("checkpoints", stats.checkpoints.to_string()),
                ("recovery_ms", format!("{:.3}", drill.recovery_ms)),
                ("replayed", drill.recovery.replayed_records.to_string()),
                ("truncated_bytes", drill.recovery.truncated_bytes.to_string()),
            ]);
        }
    });

    let rows = crate::print_rows(&rows);
    let none_over_always = writes_per_sec[2] / writes_per_sec[0];
    let periodic_over_always = writes_per_sec[1] / writes_per_sec[0];
    println!("\nshape check: fsyncs track the mode (every write / every 8th / checkpoint-only),");
    println!(
        "none mode writes {none_over_always:.1}x faster than fsync-always \
         (periodic {periodic_over_always:.1}x); every crash drill recovered a"
    );
    println!("bit-identical committed prefix with no acked write lost. ({wall:.1?})");

    let json = format!(
        "{{\"experiment\":\"e30_durability\",\"seed\":{},\
         \"none_over_always\":{none_over_always:.4},\
         \"periodic_over_always\":{periodic_over_always:.4},\"rows\":{rows}}}",
        base.seed,
    );
    crate::record("bench_durability.json", &json);
}
