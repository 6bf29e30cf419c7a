//! The WAL crash drill: a seeded write log runs against a file-backed
//! [`FileDevice`] that dies at a seeded crash step, then the device is
//! reopened and recovery checked.
//!
//! The crash step is drawn below the step count of one crash-free pass
//! (learned from [`FileDevice::steps_taken`]), so the drill always
//! crashes. Contract: the recovered image is bit-identical (payloads and
//! stored checksums) to a committed prefix of the log covering the
//! acknowledged frontier, and in `always` mode every completed write was
//! acknowledged.

use std::path::{Path, PathBuf};
use std::time::Instant;

use aims_storage::device::{BlockDevice, MemDevice, RawMedia};
use aims_storage::file::{
    CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions, RecoveryReport, WalStats,
};

use super::{telemetry_since, DrillDir, Report, XorShift};
use crate::chaos::sub_seed;

/// One write per entry: `(block, payload)`; write `k` gets LSN `k + 1`.
pub type WriteLog = Vec<(usize, Vec<f64>)>;

/// One drill run.
#[derive(Clone, Debug)]
pub struct Config {
    /// WAL fsync cadence.
    pub mode: DurabilityMode,
    /// Seed of the write log, the crash step and the torn lengths.
    pub seed: u64,
    /// Blocks on the device.
    pub blocks: usize,
    /// Values per block.
    pub block_size: usize,
    /// Writes in the log (the first `blocks` load every block once).
    pub writes: usize,
    /// Where the device lives (kept afterwards); a temp dir when `None`.
    pub dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: DurabilityMode::Always,
            seed: 52417,
            blocks: 32,
            block_size: 16,
            writes: 96,
            dir: None,
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct DurabilityReport {
    /// The run's configuration.
    pub config: Config,
    /// Crash-eligible steps of a crash-free pass.
    pub steps: u64,
    /// The seeded crash step, below `steps`.
    pub crash_step: u64,
    /// Whether the device died.
    pub crashed: bool,
    /// Writes that returned before the crash.
    pub completed: usize,
    /// The acknowledged frontier at the crash.
    pub durable_lsn: u64,
    /// The crashed device's WAL counters.
    pub wal: WalStats,
    /// What recovery did on reopen.
    pub recovery: RecoveryReport,
    /// Wall time of the reopen, milliseconds.
    pub recovery_ms: f64,
    /// The committed prefix the recovered image equals.
    pub matched_prefix: Option<usize>,
    /// `storage.wal.*` counters moved by the crashed run and recovery.
    pub telemetry: Vec<(String, u64)>,
    violations: Vec<String>,
}

/// The seeded write log: a load pass over every block, then updates to
/// seeded blocks.
pub fn write_log(cfg: &Config) -> WriteLog {
    let mut rng = XorShift(sub_seed(cfg.seed, 1) | 1);
    (0..cfg.writes)
        .map(|k| {
            let b = if k < cfg.blocks { k } else { rng.next_u64() as usize % cfg.blocks };
            let payload = (0..cfg.block_size)
                .map(|i| (rng.next_u64() % 2001) as f64 / 10.0 - 100.0 + i as f64)
                .collect();
            (b, payload)
        })
        .collect()
}

/// Device options: `mode`, `crash`, and a 16 KiB WAL checkpoint
/// threshold so checkpoints land mid-workload.
pub fn options(mode: DurabilityMode, crash: CrashPlan) -> FileDeviceOptions {
    FileDeviceOptions { mode, crash, checkpoint_bytes: 16 * 1024, ..Default::default() }
}

/// Creates a device in `dir` and writes `log` until it completes or the
/// device crashes. Returns the device and the count of completed writes.
pub fn run_log(
    dir: &Path,
    block_size: usize,
    blocks: usize,
    opts: FileDeviceOptions,
    log: &[(usize, Vec<f64>)],
) -> std::io::Result<(FileDevice, usize)> {
    let mut device = FileDevice::create(dir, block_size, blocks, opts)?;
    let mut completed = 0;
    for (b, p) in log {
        device.write_block(*b, p);
        if device.is_crashed() {
            break;
        }
        completed += 1;
    }
    Ok((device, completed))
}

/// The first `k` writes of `log` applied to fresh memory media.
pub fn replica(log: &[(usize, Vec<f64>)], k: usize, block_size: usize, blocks: usize) -> MemDevice {
    let mut mem = MemDevice::new(block_size, blocks);
    for (b, p) in &log[..k] {
        mem.write_block(*b, p);
    }
    mem
}

/// Whether two media hold bit-identical payloads and stored checksums.
fn same_image(a: &impl RawMedia, b: &impl RawMedia) -> bool {
    a.num_blocks() == b.num_blocks()
        && (0..a.num_blocks()).all(|id| {
            let (x, y) = (a.raw_payload(id), b.raw_payload(id));
            x.len() == y.len()
                && x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits())
                && a.stored_checksum(id) == b.stored_checksum(id)
        })
}

/// The shortest prefix length `k ∈ [floor, hi]` of `log` whose replica
/// holds bit-identical payloads and stored checksums to `dev`'s.
pub fn matching_prefix(
    dev: &impl RawMedia,
    log: &[(usize, Vec<f64>)],
    floor: usize,
    hi: usize,
) -> Option<usize> {
    let mut mem = MemDevice::new(dev.block_size(), dev.num_blocks());
    for k in 0..=hi.min(log.len()) {
        if k >= floor && same_image(dev, &mem) {
            return Some(k);
        }
        if let Some((b, p)) = log.get(k) {
            mem.write_block(*b, p);
        }
    }
    None
}

/// The recovery contract for a reopened device: a non-empty WAL replays
/// at least the acknowledged frontier `durable`, and the image equals a
/// committed prefix of `log` no longer than `hi` and no shorter than what
/// was replayed (after a checkpoint emptied the WAL: than `durable`).
/// Returns the matched prefix and any violations.
pub fn check_recovery(
    dev: &FileDevice,
    log: &[(usize, Vec<f64>)],
    durable: u64,
    hi: usize,
) -> (Option<usize>, Vec<String>) {
    let replayed = dev.recovery().recovered_lsn;
    let mut violations = Vec::new();
    if replayed > 0 && replayed < durable {
        violations.push(format!("recovered lsn {replayed} below acked frontier {durable}"));
    }
    let floor = if replayed > 0 { replayed } else { durable } as usize;
    let matched = matching_prefix(dev, log, floor, hi);
    if matched.is_none() {
        violations.push(format!("recovered image matches no committed prefix in [{floor}, {hi}]"));
    }
    (matched, violations)
}

/// Runs the drill.
pub fn run(cfg: &Config) -> DurabilityReport {
    let mut report = DurabilityReport { config: cfg.clone(), ..DurabilityReport::default() };
    if let Err(e) = crash_and_recover(cfg, &mut report) {
        report.violations.push(format!("drill I/O failed: {e}"));
    }
    report
}

fn crash_and_recover(cfg: &Config, report: &mut DurabilityReport) -> std::io::Result<()> {
    let log = write_log(cfg);
    let (mode, bs, nb) = (cfg.mode, cfg.block_size, cfg.blocks);
    // One crash-free pass learns the step count, so the crash step drawn
    // below it always fires.
    let probe = DrillDir::new(None, "durability-probe");
    report.steps =
        run_log(probe.path(), bs, nb, options(mode, CrashPlan::none()), &log)?.0.steps_taken();
    report.crash_step = sub_seed(cfg.seed, 2) % report.steps.max(1);

    let dir = DrillDir::new(cfg.dir.as_deref(), "durability");
    let before = aims_telemetry::global().snapshot();
    let crash = CrashPlan::at(cfg.seed, report.crash_step);
    let (device, completed) = run_log(dir.path(), bs, nb, options(mode, crash), &log)?;
    report.completed = completed;
    report.crashed = device.is_crashed();
    report.durable_lsn = device.durable_lsn();
    report.wal = device.wal_stats();
    drop(device);

    let t = Instant::now();
    let device = FileDevice::open(dir.path(), options(mode, CrashPlan::none()))?;
    report.recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    report.recovery = device.recovery();
    report.telemetry = telemetry_since(&before, &["storage.wal."]);

    let durable = report.durable_lsn;
    if !report.crashed {
        let (step, steps) = (report.crash_step, report.steps);
        report.violations.push(format!("crash step {step} of {steps} never fired"));
    }
    if mode == DurabilityMode::Always && durable < completed as u64 {
        report.violations.push(format!("always mode acked {durable} of {completed} writes"));
    }
    let (matched, violations) = check_recovery(&device, &log, durable, completed + 1);
    report.matched_prefix = matched;
    report.violations.extend(violations);
    Ok(())
}

impl Report for DurabilityReport {
    const NAME: &'static str = "WAL crash drill";

    fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let r = &self.recovery;
        vec![
            ("seed", self.config.seed.to_string()),
            ("mode", format!("\"{}\"", self.config.mode.label())),
            ("writes", self.config.writes.to_string()),
            ("steps", self.steps.to_string()),
            ("crash_step", self.crash_step.to_string()),
            ("crashed", self.crashed.to_string()),
            ("completed_writes", self.completed.to_string()),
            ("durable_lsn", self.durable_lsn.to_string()),
            ("fsyncs", self.wal.fsyncs.to_string()),
            ("checkpoints", self.wal.checkpoints.to_string()),
            ("recovered_lsn", r.recovered_lsn.to_string()),
            ("replayed_records", r.replayed_records.to_string()),
            ("truncated_bytes", r.truncated_bytes.to_string()),
            ("recovery_ms", format!("{:.3}", self.recovery_ms)),
            ("exact", self.matched_prefix.is_some().to_string()),
        ]
    }

    fn telemetry(&self) -> &[(String, u64)] {
        &self.telemetry
    }
}
