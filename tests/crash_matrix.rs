//! The deterministic crash-point matrix harness.
//!
//! Drives the durable [`FileDevice`] through a grid of
//! {durability mode × workload × seeded crash point} and proves recovery
//! *exact*:
//!
//! 1. **Committed-prefix bit-identity** — after every simulated crash,
//!    the reopened device is `to_bits`-identical to some prefix of the
//!    write history applied to fresh media, and that prefix covers at
//!    least every acknowledged (durably synced) write.
//! 2. **fsync-always never loses an acknowledged write** — swept over
//!    *every* crash-eligible step of a workload, not a sample.
//! 3. **Query parity** — a `WaveletStore` reopened over the recovered
//!    device answers range sums bit-identically to a store over the
//!    committed-prefix replica.
//!
//! Every crash point and torn-prefix length derives from a single u64
//! seed (pinned here via `AIMS_CRASH_SEED`, default 52417; ci.sh also
//! runs seeds 17 and 2029), so the whole matrix reproduces bit-for-bit.

use std::path::Path;

use aims::chaos::sub_seed;
use aims::drills::durability::{check_recovery, replica, run_log, WriteLog};
use aims::drills::{env_seed, DrillDir};
use aims::storage::buffer::BufferPool;
use aims::storage::device::{BlockDevice, RawMedia};
use aims::storage::file::{CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions};
use aims::storage::store::{AllocKind, WaveletStore};

const BLOCK: usize = 8;
const NB: usize = 12;

fn seed() -> u64 {
    env_seed("AIMS_CRASH_SEED", 52417)
}

/// SplitMix64 — the step-picking stream, independent of the device's
/// torn-length stream.
fn splitmix(x: u64) -> u64 {
    sub_seed(x, 1)
}

fn test_dir(tag: &str) -> DrillDir {
    DrillDir::new(None, &format!("crash-{tag}"))
}

fn opts(mode: DurabilityMode, crash: CrashPlan) -> FileDeviceOptions {
    // A small checkpoint threshold so checkpoints (and their crash
    // points) happen mid-workload, not only at close.
    FileDeviceOptions { mode, checkpoint_bytes: 400, crash, ..Default::default() }
}

/// The workloads under test, as explicit write histories.
fn workloads(seed: u64) -> Vec<(&'static str, WriteLog)> {
    let payload = |salt: u64| -> Vec<f64> {
        (0..BLOCK).map(|i| ((splitmix(salt ^ i as u64) % 2000) as f64 - 1000.0) / 8.0).collect()
    };
    // Sequential fill, then rewrite the first half.
    let mut sequential = Vec::new();
    for b in 0..NB {
        sequential.push((b, payload(seed ^ (b as u64 + 1))));
    }
    for b in 0..NB / 2 {
        sequential.push((b, payload(seed ^ (b as u64 + 100))));
    }
    // Random rewrites: seeded block choices, repeats included.
    let mut random = Vec::new();
    for i in 0..2 * NB {
        let b = (splitmix(seed ^ (0xABC0 + i as u64)) % NB as u64) as usize;
        random.push((b, payload(seed ^ (0xDEF0 + i as u64))));
    }
    vec![("sequential", sequential), ("random", random)]
}

/// Runs `log` against a fresh device in `dir`, stopping at a crash.
/// Returns `(completed_writes, durable_lsn_at_crash, steps_taken)`.
fn run_workload(dir: &DrillDir, o: FileDeviceOptions, log: &WriteLog) -> (usize, u64, u64) {
    let (dev, completed) = run_log(dir.path(), BLOCK, NB, o, log).unwrap();
    (completed, dev.durable_lsn(), dev.steps_taken())
}

/// The core contract: the reopened device is bit-identical (payloads and
/// stored checksums) to a committed prefix of `log` covering the acked
/// frontier. Returns the matched prefix length.
fn assert_recovers_prefix(dir: &Path, log: &WriteLog, durable_at_crash: u64, label: &str) -> usize {
    let dev = FileDevice::open(dir, FileDeviceOptions::default()).unwrap();
    let (matched, violations) = check_recovery(&dev, log, durable_at_crash, log.len());
    assert_eq!(violations, Vec::<String>::new(), "{label}");
    let k = matched.unwrap();
    assert!(
        k as u64 >= durable_at_crash,
        "{label}: matched prefix {k} below acked frontier {durable_at_crash}"
    );
    k
}

#[test]
fn crash_matrix_recovers_committed_prefix() {
    let seed = seed();
    let modes = [DurabilityMode::Always, DurabilityMode::Periodic(4), DurabilityMode::None];
    for (wname, log) in workloads(seed) {
        for mode in modes {
            // Learn the step budget from a crash-free run.
            let dir = test_dir("probe");
            let (done, durable, steps) = run_workload(&dir, opts(mode, CrashPlan::none()), &log);
            assert_eq!(done, log.len());
            if mode == DurabilityMode::Always {
                assert_eq!(durable, log.len() as u64, "always mode acks every write");
            }
            drop(dir);
            assert!(steps > 0);

            for i in 0..8u64 {
                let step = splitmix(seed ^ (i << 8) ^ steps) % steps;
                let label = format!("{wname}/{}/step {step}", mode.label());
                let dir = test_dir("matrix");
                let plan = CrashPlan::at(seed ^ i, step);
                let (completed, durable_at_crash, _) = run_workload(&dir, opts(mode, plan), &log);
                if mode == DurabilityMode::Always {
                    // Every completed write was individually synced. A
                    // crash inside the post-sync auto-checkpoint can
                    // leave one extra write durable but uncounted.
                    assert!(
                        durable_at_crash >= completed as u64
                            && durable_at_crash <= completed as u64 + 1,
                        "{label}: always mode acked {durable_at_crash} of {completed} completed"
                    );
                }
                let k = assert_recovers_prefix(dir.path(), &log, durable_at_crash, &label);
                assert!(k <= log.len());
            }
        }
    }
}

#[test]
fn fsync_always_never_loses_an_acked_write_at_any_step() {
    let seed = seed();
    let log: WriteLog = workloads(seed).remove(0).1.into_iter().take(8).collect();
    let dir = test_dir("probe-all");
    let (_, _, steps) = run_workload(&dir, opts(DurabilityMode::Always, CrashPlan::none()), &log);
    drop(dir);
    // Exhaustive: every crash-eligible step, not a sample.
    for step in 0..steps {
        let dir = test_dir("sweep");
        let plan = CrashPlan::at(seed.wrapping_add(step), step);
        let (completed, durable_at_crash, _) =
            run_workload(&dir, opts(DurabilityMode::Always, plan), &log);
        assert!(
            durable_at_crash >= completed as u64,
            "step {step}: completed write not acked ({durable_at_crash} < {completed})"
        );
        let label = format!("sweep step {step}");
        assert_recovers_prefix(dir.path(), &log, durable_at_crash, &label);
    }
}

#[test]
fn reopened_store_answers_range_sums_like_the_committed_prefix() {
    let seed = seed();
    const N: usize = 256;
    let signal: Vec<f64> =
        (0..N).map(|i| ((splitmix(seed ^ i as u64) % 1000) as f64) / 10.0 - 50.0).collect();

    // The canonical load history: from_signal_on writes staged blocks in
    // ascending order — read them back from a plain in-memory store.
    let plain = WaveletStore::from_signal(&signal, BLOCK, AllocKind::TreeTiling);
    let nb = plain.device().num_blocks();
    let log: WriteLog = (0..nb).map(|b| (b, plain.device().raw_payload(b))).collect();

    // A durable load of the signal through a Periodic(4) WAL.
    let load = |dir: &DrillDir, crash: CrashPlan| {
        let dir = dir.path().to_path_buf();
        WaveletStore::from_signal_on(&signal, BLOCK, AllocKind::TreeTiling, move |bs, nb| {
            FileDevice::create(dir, bs, nb, opts(DurabilityMode::Periodic(4), crash)).unwrap()
        })
    };
    // Learn the step budget of a full durable load.
    let steps = load(&test_dir("store-probe"), CrashPlan::none()).device_mut().steps_taken();

    for i in 0..6u64 {
        let step = splitmix(seed ^ (0x5170 + i)) % steps;
        let dir = test_dir("store-crash");
        let store = load(&dir, CrashPlan::at(seed ^ i, step));
        let durable_at_crash = store.device().durable_lsn();
        assert!(store.device().is_crashed(), "step {step} must be within the load");
        drop(store);

        // Reopen the recovered device and find the committed prefix it
        // equals; then the two reopened stores must agree bit-for-bit.
        let label = format!("store load, step {step}");
        let k = assert_recovers_prefix(dir.path(), &log, durable_at_crash, &label);
        let recovered = WaveletStore::reopen(
            FileDevice::open(dir.path(), FileDeviceOptions::default()).unwrap(),
            AllocKind::TreeTiling,
            N,
        );
        let reference = WaveletStore::reopen(replica(&log, k, BLOCK, nb), AllocKind::TreeTiling, N);

        let mut p1 = BufferPool::new(16);
        let mut p2 = BufferPool::new(16);
        for (a, b) in [(0usize, N - 1), (7, 200), (64, 130), (31, 32)] {
            let x = recovered.range_sum(a, b, &mut p1);
            let y = reference.range_sum(a, b, &mut p2);
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: range [{a},{b}]");
        }
        for t in [0usize, 100, N - 1] {
            let x = recovered.point_value(t, &mut p1);
            let y = reference.point_value(t, &mut p2);
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: point {t}");
        }
    }
}

#[test]
fn crash_matrix_is_reproducible_per_seed() {
    let seed = seed();
    let log = workloads(seed).remove(1).1;
    let dir = test_dir("probe-rep");
    let (_, _, steps) =
        run_workload(&dir, opts(DurabilityMode::Periodic(3), CrashPlan::none()), &log);
    drop(dir);
    let step = splitmix(seed ^ 0x9999) % steps;

    let run = |tag: &str| -> (u64, Vec<Vec<u64>>, u64, u64) {
        let dir = test_dir(tag);
        let plan = CrashPlan::at(seed, step);
        let (_, durable, _) = run_workload(&dir, opts(DurabilityMode::Periodic(3), plan), &log);
        let dev = FileDevice::open(dir.path(), FileDeviceOptions::default()).unwrap();
        let image: Vec<Vec<u64>> =
            (0..NB).map(|b| dev.raw_payload(b).iter().map(|v| v.to_bits()).collect()).collect();
        let r = dev.recovery();
        (durable, image, r.replayed_records, r.truncated_bytes)
    };
    assert_eq!(run("rep-a"), run("rep-b"), "same seed, same crash, same recovery");
}
