//! The tiered-ingest drill: a file-backed [`TieredStore`] absorbs a
//! seeded signal on one thread while the background [`Compactor`] swaps
//! sealed segments into wavelet form and a [`TieredPlanner`] runs
//! progressive range sums against live snapshots.
//!
//! Contract: the query thread runs at least five live queries; every
//! trajectory's bound is monotone non-increasing and every step's
//! estimate lies within its bound of the exact answer; the backlog drains
//! once ingest stops; and the drained store holds every sample, all
//! historical, answering bit-identically to a serial single-store oracle.
//! The planner is pinned to one thread; the compactor's transform pool
//! follows `AIMS_THREADS`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_exec::ThreadPool;
use aims_service::{TieredPlanner, TieredPlannerConfig};
use aims_storage::file::{CrashPlan, DurabilityMode, FileDeviceOptions};
use aims_tier::{compact, range_sum_on, Compactor, CompactorConfig, TierConfig, TieredStore};

use super::{percentile, telemetry_since, DrillDir, Report, XorShift};
use crate::chaos::sub_seed;

/// Live queries the drill runs at minimum, however fast ingest finishes.
pub const MIN_QUERIES: usize = 5;

/// One drill run. `segment` and `block` must be powers of two with
/// `block <= segment`, and `samples > 0`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the ingested signal.
    pub seed: u64,
    /// Samples ingested.
    pub samples: usize,
    /// Samples per hot segment.
    pub segment: usize,
    /// Coefficients per historical block.
    pub block: usize,
    /// Where the store lives (kept afterwards); a temp dir when `None`.
    pub dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config { seed: 7153, samples: 200_000, segment: 4096, block: 256, dir: None }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct TiersReport {
    /// The run's configuration.
    pub config: Config,
    /// The compactor's transform-pool width.
    pub threads: usize,
    /// Wall time of the ingest thread.
    pub ingest_wall: Duration,
    /// Time for the sealed-raw backlog to drain after ingest, ms.
    pub compaction_lag_ms: f64,
    /// Segments the compactor swapped to wavelet form.
    pub compacted: u64,
    /// Live query latencies, ascending, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Raw hot-tier samples the live queries summed exactly.
    pub hot_rows: usize,
    /// Whether the backlog drained before the deadline.
    pub drained: bool,
    /// Whether the drained store matched the serial oracle.
    pub oracle_identical: bool,
    /// `tier.*` counters moved by this run.
    pub telemetry: Vec<(String, u64)>,
    violations: Vec<String>,
}

/// Runs the drill.
pub fn run(cfg: &Config) -> TiersReport {
    let seg = cfg.segment;
    let tier_cfg = TierConfig {
        segment_len: seg,
        block_size: cfg.block,
        max_segments: cfg.samples.div_ceil(seg) + 4,
        filter: FilterKind::Haar,
    };
    let mut rng = XorShift(sub_seed(cfg.seed, 1) | 1);
    let data: Vec<f64> =
        (0..cfg.samples).map(|_| (rng.next_u64() % 4099) as f64 / 11.0 - 180.0).collect();
    let dir = DrillDir::new(cfg.dir.as_deref(), "tiers");
    let before = aims_telemetry::global().snapshot();
    let opts = FileDeviceOptions {
        mode: DurabilityMode::Periodic(64),
        crash: CrashPlan::none(),
        ..Default::default()
    };
    let store = match TieredStore::create_durable(dir.path(), tier_cfg, opts) {
        Ok(store) => store,
        Err(e) => {
            let violations = vec![format!("create {}: {e}", dir.path().display())];
            return TiersReport { config: cfg.clone(), violations, ..TiersReport::default() };
        }
    };
    let mut violations = Vec::new();
    let compactor = Compactor::spawn(store.clone(), CompactorConfig::default());
    let ingesting = AtomicBool::new(true);

    let (ingest_wall, mut latencies_ms, hot_rows) = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let t = Instant::now();
            for chunk in data.chunks(seg) {
                store.push_slice(chunk);
            }
            store.seal_open();
            ingesting.store(false, Ordering::Release);
            t.elapsed()
        });
        let queries = scope.spawn(|| {
            let planner = TieredPlanner::new(
                store.clone(),
                TieredPlannerConfig { blocks_per_round: 8, threads: 1 },
            );
            let (mut lat, mut hot_rows, mut bad) = (Vec::new(), 0usize, Vec::new());
            while ingesting.load(Ordering::Acquire) || lat.len() < MIN_QUERIES {
                let n = planner.store().len();
                if n == 0 {
                    std::thread::yield_now();
                    continue;
                }
                let (a, b) = match lat.len() % 3 {
                    0 => (0, n - 1),
                    1 => (n / 4, 3 * n / 4),
                    _ => (n.saturating_sub(seg), n - 1),
                };
                let t = Instant::now();
                let ans = planner.range_sum(a, b);
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                hot_rows += ans.hot_rows;
                let mut prev = f64::INFINITY;
                for s in &ans.steps {
                    if s.bound > prev {
                        bad.push(format!("[{a},{b}] of {n}: bound grew {prev} -> {}", s.bound));
                    }
                    if (s.estimate - ans.value).abs() > s.bound + 1e-9 * ans.value.abs().max(1.0) {
                        bad.push(format!(
                            "[{a},{b}] of {n}: estimate {} outside bound {} of {}",
                            s.estimate, s.bound, ans.value
                        ));
                    }
                    prev = s.bound;
                }
            }
            (lat, hot_rows, bad)
        });
        let wall = ingest.join().expect("ingest thread");
        let (lat, hot, bad) = queries.join().expect("query thread");
        violations.extend(bad);
        (wall, lat, hot)
    });
    latencies_ms.sort_by(f64::total_cmp);
    if latencies_ms.len() < MIN_QUERIES {
        violations.push(format!("only {} live queries ran", latencies_ms.len()));
    }

    // Compaction lag: the drain time once ingest stops.
    let t = Instant::now();
    while store.stats().sealed_raw > 0 && t.elapsed() < Duration::from_secs(120) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = store.stats().sealed_raw == 0;
    if !drained {
        violations.push("compactor failed to drain the backlog".into());
    }
    let compaction_lag_ms = t.elapsed().as_secs_f64() * 1e3;
    let compacted = compactor.stop();

    // Oracle gate: bit-identical to a serial single-pass store.
    let serial = ThreadPool::new(1);
    let oracle = TieredStore::new_mem(tier_cfg);
    oracle.push_slice(&data);
    oracle.seal_open();
    compact::drain(&oracle, &serial);
    let (snap, osnap) = (store.snapshot(), oracle.snapshot());
    if snap.len() != cfg.samples {
        violations.push(format!("{} of {} samples stored", snap.len(), cfg.samples));
    }
    if !snap.segments().iter().all(|s| s.historical) {
        violations.push("drained store still holds raw segments".into());
    }
    let last = cfg.samples - 1;
    let mut oracle_identical = true;
    for (a, b) in
        [(0, last), (0, 0), (last / 2, last), (last / 3, 2 * last / 3), (seg - 1, 5 * seg)]
    {
        let (a, b) = (a.min(last), b.min(last));
        let (got, want) = (range_sum_on(&snap, a, b, &serial), range_sum_on(&osnap, a, b, &serial));
        if got.to_bits() != want.to_bits() {
            oracle_identical = false;
            violations.push(format!("[{a},{b}]: {got} differs from the oracle's {want}"));
        }
    }
    store.checkpoint();
    drop(store);

    TiersReport {
        config: cfg.clone(),
        threads: aims_exec::configured_threads(),
        ingest_wall,
        compaction_lag_ms,
        compacted,
        latencies_ms,
        hot_rows,
        drained,
        oracle_identical,
        telemetry: telemetry_since(&before, &["tier."]),
        violations,
    }
}

impl TiersReport {
    /// Sustained ingest rate, samples per second.
    pub fn ingest_rate(&self) -> f64 {
        self.config.samples as f64 / self.ingest_wall.as_secs_f64()
    }
}

impl Report for TiersReport {
    const NAME: &'static str = "tiered-ingest drill";

    fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let lat = &self.latencies_ms;
        vec![
            ("seed", c.seed.to_string()),
            ("samples", c.samples.to_string()),
            ("segment", c.segment.to_string()),
            ("block", c.block.to_string()),
            ("threads", self.threads.to_string()),
            ("ingest_samples_per_sec", format!("{:.1}", self.ingest_rate())),
            ("ingest_wall_ms", format!("{:.3}", self.ingest_wall.as_secs_f64() * 1e3)),
            ("compaction_lag_ms", format!("{:.3}", self.compaction_lag_ms)),
            ("segments_compacted", self.compacted.to_string()),
            ("queries", lat.len().to_string()),
            ("query_p50_ms", format!("{:.4}", percentile(lat, 0.50))),
            ("query_p99_ms", format!("{:.4}", percentile(lat, 0.99))),
            ("hot_rows_served", self.hot_rows.to_string()),
            ("drained", self.drained.to_string()),
            ("oracle_identical", self.oracle_identical.to_string()),
        ]
    }

    fn telemetry(&self) -> &[(String, u64)] {
        &self.telemetry
    }
}
