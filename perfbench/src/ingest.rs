//! `ingest_live`: supervised glove ingest into a durable tiered store,
//! with open-loop live range sums beside it.
//!
//! Set-up generates 28-channel CyberGlove sessions with 1 % sensor
//! dropout as wire frames, and builds the oracle: the same sessions
//! through `SupervisedIngest`, fed serially into an in-memory store and
//! compacted on one thread. Each measured round then ingests every
//! session (`SupervisedIngest::ingest`, then `feed_outcome` per channel)
//! at a fixed offered sample rate into a fresh `FileDevice`-backed
//! `TieredStore` with a background `Compactor`, while a second thread
//! issues live `TieredPlanner::range_sum` queries open loop at a fixed
//! rate until the compactor has installed every segment. Rounds repeat
//! until the run's time is spent.
//!
//! Ingest is paced, not closed loop: a closed loop keeps every core of a
//! small host busy, and its wall-clock rate then follows whatever CPU and
//! fsync latency the host has to spare (it drifted by a factor of two
//! within minutes on a shared 2-vCPU VM). The pipeline's capacity is
//! measured instead from CPU time: samples per CPU-second of its busiest
//! thread.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aims_acquisition::ingest::{IngestConfig, SupervisedIngest};
use aims_acquisition::recorder::RecorderConfig;
use aims_exec::ThreadPool;
use aims_sensors::noise::NoiseSource;
use aims_sensors::{CyberGloveRig, FaultySensorRig, SensorFaultPlan, StreamSpec, WireFrame};
use aims_service::{TieredPlanner, TieredPlannerConfig};
use aims_storage::{DurabilityMode, FileDeviceOptions, MemDevice};
use aims_telemetry::{global, Snapshot};
use aims_tier::{
    compact, feed_outcome, range_sum_on, Compactor, CompactorConfig, TierConfig, TierStep,
    TieredStore,
};

use crate::checks::{self, Check};
use crate::olap::Rng;
use crate::report::{mean, median, percentile, Outcome, Report};
use crate::sys::{self, sleep_until};
use crate::trace::Tracer;
use crate::Opts;

const SEGMENT: usize = 65536;
const BLOCK: usize = 256;
const DURABILITY: DurabilityMode = DurabilityMode::Periodic(64);
/// Offered ingest rate, samples per second (about a third of what one
/// ingest thread sustains).
const INGEST_RATE: f64 = 1.0e6;
/// Frames per glove session (41 s at 100 Hz).
const FRAMES: usize = 4096;
/// Sessions per round: 18 × 4096 frames × 28 channels ≈ 2.06M samples.
const SESSIONS: usize = 18;
const DROPOUT: f64 = 0.01;
/// Offered rate of the live range sums.
const LIVE_RATE: f64 = 50.0;
const SETUP_REPS: usize = 9;
/// A drain that takes longer than this fails the run.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

fn tier_config(total: usize) -> TierConfig {
    TierConfig {
        segment_len: SEGMENT,
        block_size: BLOCK,
        max_segments: total.div_ceil(SEGMENT) + 1,
        ..TierConfig::default()
    }
}

/// The recorder buffer holds a whole session, so the recorder never
/// drops a frame and every round ingests exactly what the oracle did.
fn ingest_config(frames: usize) -> IngestConfig {
    IngestConfig {
        recorder: RecorderConfig { buffer_frames: frames, ..RecorderConfig::default() },
        ..IngestConfig::default()
    }
}

/// Everything set-up produces.
struct Inputs {
    spec: StreamSpec,
    wires: Vec<Vec<WireFrame>>,
    frames: usize,
    total: usize,
    /// Samples in store order, and running sums of them and of their
    /// magnitudes, for checking live answers.
    prefix: Vec<f64>,
    prefix_abs: Vec<f64>,
    oracle: TieredStore<MemDevice>,
}

impl Inputs {
    fn exact(&self, a: usize, b: usize) -> (f64, f64) {
        (self.prefix[b + 1] - self.prefix[a], self.prefix_abs[b + 1] - self.prefix_abs[a])
    }
}

fn generate(seed: u64, sessions: usize, frames: usize) -> Result<Inputs, String> {
    let rig = CyberGloveRig::default();
    let spec = rig.spec();
    let mut rng = Rng::new(seed ^ 0x1_6E57);
    let wires: Vec<Vec<WireFrame>> = (0..sessions)
        .map(|_| {
            let mut noise = NoiseSource::seeded(rng.next_u64());
            let activity = 0.2 + 0.8 * rng.below(1000) as f64 / 1000.0;
            let clean = rig.record_session(frames as f64 / rig.sample_rate, activity, &mut noise);
            FaultySensorRig::new(SensorFaultPlan::dropout(rng.next_u64(), DROPOUT)).transmit(&clean)
        })
        .collect();
    let per_session: usize = wires.iter().map(Vec::len).max().unwrap_or(0);
    let cfg = ingest_config(per_session);
    let channels = spec.channels();
    let mut values = Vec::new();
    for wire in &wires {
        let out = SupervisedIngest::new(cfg).ingest(&spec, wire);
        if out.stats.dropped_frames != 0 {
            return Err(format!("oracle ingest dropped {} frames", out.stats.dropped_frames));
        }
        for c in 0..channels {
            values.extend((0..out.stream.len()).map(|t| out.stream.frame(t)[c]));
        }
    }
    let total = values.len();
    let oracle = TieredStore::new_mem(tier_config(total));
    oracle.push_slice(&values);
    oracle.seal_open();
    compact::drain(&oracle, &ThreadPool::new(1));
    let mut prefix = vec![0.0; total + 1];
    let mut prefix_abs = vec![0.0; total + 1];
    for (t, &x) in values.iter().enumerate() {
        prefix[t + 1] = prefix[t] + x;
        prefix_abs[t + 1] = prefix_abs[t] + x.abs();
    }
    Ok(Inputs { spec, wires, frames: per_session, total, prefix, prefix_abs, oracle })
}

/// One live query as the query thread saw it.
struct Live {
    due: Instant,
    start: Instant,
    end: Instant,
    hot_rows: usize,
    snapshot_us: f64,
    /// CPU time the live thread spent on this query.
    cpu_ms: f64,
}

/// What the live query thread returns: its queries, the peak raw
/// backlog it sampled, and its CPU time.
struct LiveThread {
    queries: Vec<Live>,
    backlog_peak: usize,
    cpu_ns: u64,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    ingest_secs: f64,
    /// CPU time of the ingest thread and of the compactor thread.
    ingest_cpu_ns: u64,
    compactor_cpu_ns: u64,
    /// CPU time of the live query thread.
    live_cpu_ns: u64,
    acks_ms: Vec<f64>,
    supervised_secs: f64,
    dropped_frames: usize,
    drain_ms: f64,
    written: f64,
    store_bytes: f64,
    live: Vec<Live>,
    backlog_peak: usize,
    wall_secs: f64,
    delta: Snapshot,
    /// Forward DWTs run during the round (compaction and live weights).
    dwt: u64,
}

fn dwt_count(s: &Snapshot) -> u64 {
    s.histogram("dsp.dwt.forward.ns").map_or(0, |h| h.count)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Live window `k % 3` over a store of `n` samples: the most recent
/// segment, the whole history, or its middle half.
fn window(k: usize, n: usize) -> (usize, usize) {
    match k % 3 {
        0 => (n.saturating_sub(SEGMENT), n - 1),
        1 => (0, n - 1),
        _ => (n / 4, (3 * n / 4).max(n / 4)),
    }
}

fn run_round(inputs: &Inputs, dir: &Path, traced: bool, tracer: &Tracer) -> Result<Round, String> {
    let cfg = tier_config(inputs.total);
    let opts = FileDeviceOptions { mode: DURABILITY, ..Default::default() };
    let snap0 = global().snapshot();
    let written0 = sys::bytes_written();
    let wall = Instant::now();
    let store = TieredStore::create_durable(dir, cfg, opts)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let compactor = Compactor::spawn(
        store.clone(),
        CompactorConfig { threads: 1, ..CompactorConfig::default() },
    );
    let compactor_cpu = || sys::named_thread_cpu_ns("aims-tier-comp").unwrap_or(0);
    let compactor_cpu0 = compactor_cpu();
    let stop = AtomicBool::new(false);
    let icfg = ingest_config(inputs.frames);
    let mut round = Round::default();

    let live = std::thread::scope(|scope| -> Result<Result<LiveThread, String>, String> {
        let live = scope.spawn(|| live_queries(&store, inputs, &stop, traced, tracer));
        let ingest = (|| -> Result<(), String> {
            let cpu0 = sys::this_thread_cpu_ns();
            let mut first_push = None;
            let begin = Instant::now();
            let mut pushed = 0usize;
            for (s, wire) in inputs.wires.iter().enumerate() {
                let root = tracer.start("bench.session", s as u64, 0);
                let span = tracer.start("acquisition.ingest", s as u64, root.id);
                let t = Instant::now();
                let outcome = SupervisedIngest::new(icfg).ingest(&inputs.spec, wire);
                round.supervised_secs += t.elapsed().as_secs_f64();
                tracer.finish(span);
                round.dropped_frames += outcome.stats.dropped_frames;
                for c in 0..inputs.spec.channels() {
                    sleep_until(begin + Duration::from_secs_f64(pushed as f64 / INGEST_RATE));
                    let span = tracer.start("tier.feed", s as u64, root.id);
                    let t = Instant::now();
                    first_push.get_or_insert(t);
                    pushed += feed_outcome(&store, &outcome, c).samples;
                    round.acks_ms.push(ms(t.elapsed()));
                    tracer.finish(span);
                }
                tracer.finish(root);
            }
            store.seal_open();
            let span = tracer.start("tier.drain", 0, 0);
            let t = Instant::now();
            while store.stats().sealed_raw > 0 {
                if t.elapsed() > DRAIN_LIMIT {
                    return Err("compaction backlog did not drain".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            tracer.finish(span);
            let end = Instant::now();
            round.drain_ms = ms(end - t);
            let first = first_push.ok_or("no samples pushed")?;
            round.ingest_secs = (end - first).as_secs_f64();
            round.ingest_cpu_ns = sys::this_thread_cpu_ns() - cpu0;
            round.compactor_cpu_ns = compactor_cpu().saturating_sub(compactor_cpu0);
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let live = live.join().map_err(|_| "live query thread panicked".to_string())?;
        ingest.map(|()| live)
    })??;
    compactor.stop();
    round.wall_secs = wall.elapsed().as_secs_f64();
    round.written = sys::bytes_written() - written0;
    let snap1 = global().snapshot();
    round.dwt = dwt_count(&snap1) - dwt_count(&snap0);
    round.delta = snap1.delta_since(&snap0);
    (round.live, round.backlog_peak, round.live_cpu_ns) =
        (live.queries, live.backlog_peak, live.cpu_ns);

    // Checks: nothing lost, everything compacted, and the store answers
    // bit-identically to the serial in-memory oracle.
    checks::ran(Check::StoreLen);
    if store.len() != inputs.total {
        return Err(format!("store holds {} samples, {} were pushed", store.len(), inputs.total));
    }
    let snap = store.snapshot();
    if !snap.segments().iter().all(|s| s.historical) {
        return Err("drained store still has raw segments".into());
    }
    let osnap = inputs.oracle.snapshot();
    let serial = ThreadPool::new(1);
    let n = inputs.total;
    let mut rng = Rng::new(n as u64);
    let mut ranges = vec![(0, n - 1), (0, 0), (n / 3, 2 * n / 3), (SEGMENT - 1, 5 * SEGMENT)];
    ranges.extend((0..8).map(|_| {
        let (a, b) = (rng.below(n), rng.below(n));
        (a.min(b), a.max(b))
    }));
    for (a, b) in ranges {
        let b = b.min(n - 1);
        checks::ran(Check::Oracle);
        let (got, want) = (range_sum_on(&snap, a, b, &serial), range_sum_on(&osnap, a, b, &serial));
        if got.to_bits() != want.to_bits() {
            return Err(format!("[{a}, {b}]: store {got:e}, oracle {want:e}"));
        }
    }
    round.store_bytes = sys::dir_bytes(dir);
    drop(snap);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
    Ok(round)
}

/// The live query thread: waits for the first sample, then offers
/// `LIVE_RATE` range sums per second until told to stop, checking each
/// trajectory and answer.
fn live_queries(
    store: &TieredStore<aims_storage::FileDevice>,
    inputs: &Inputs,
    stop: &AtomicBool,
    traced: bool,
    tracer: &Tracer,
) -> Result<LiveThread, String> {
    let cpu0 = sys::this_thread_cpu_ns();
    let planner =
        TieredPlanner::new(store.clone(), TieredPlannerConfig { blocks_per_round: 8, threads: 1 });
    while store.is_empty() {
        if stop.load(Ordering::Acquire) {
            return Ok(LiveThread { queries: Vec::new(), backlog_peak: 0, cpu_ns: 0 });
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let start = Instant::now();
    let mut out: Vec<Live> = Vec::new();
    let mut backlog_peak = 0usize;
    // The thread's CPU counter is brought up to date when it sleeps, so
    // reading it on each wake-up charges each query exactly (a query that
    // overran its successor's due time shares the reading with it).
    let mut cpu_prev = sys::this_thread_cpu_ns();
    for k in 0.. {
        let due = start + Duration::from_secs_f64(k as f64 / LIVE_RATE);
        sleep_until(due);
        let cpu = sys::this_thread_cpu_ns();
        if let Some(last) = out.last_mut() {
            last.cpu_ms = (cpu - cpu_prev) as f64 / 1e6;
        }
        cpu_prev = cpu;
        if stop.load(Ordering::Acquire) {
            break;
        }
        let root = tracer.reserve();
        let s = Instant::now();
        let mut snapshot_us = 0.0;
        if traced {
            let t = Instant::now();
            let snap = store.snapshot();
            snapshot_us = t.elapsed().as_secs_f64() * 1e6;
            tracer.record(0, "tier.snapshot", k, root, t, Instant::now());
            drop(snap);
            backlog_peak = backlog_peak.max(store.stats().sealed_raw);
        }
        let n = store.len();
        let (a, b) = window(k as usize, n);
        let q = Instant::now();
        let ans = planner.range_sum(a, b);
        let end = Instant::now();
        tracer.record(0, "tier.query", k, root, q, end);
        tracer.record(0, "bench.late", k, root, due, s);
        tracer.record(root, "bench.live", k, 0, due, end);
        let (want, scale) = inputs.exact(a, b);
        check_live((a, b), &ans.steps, ans.value, want, scale)?;
        out.push(Live { due, start: s, end, hot_rows: ans.hot_rows, snapshot_us, cpu_ms: 0.0 });
    }
    Ok(LiveThread { queries: out, backlog_peak, cpu_ns: sys::this_thread_cpu_ns() - cpu0 })
}

/// A live trajectory's bound never grows and ends at 0, and the answer
/// matches the sum of the samples in range to 1e-9 of their magnitude
/// (the store sums raw and wavelet segments in another order).
pub fn check_live(
    (a, b): (usize, usize),
    steps: &[TierStep],
    value: f64,
    want: f64,
    scale: f64,
) -> Result<(), String> {
    checks::ran(Check::Live);
    let mut prev = f64::INFINITY;
    for step in steps {
        if step.bound.is_nan() || step.bound > prev {
            return Err(format!("live [{a}, {b}]: bound grew {prev} -> {}", step.bound));
        }
        prev = step.bound;
    }
    if prev != 0.0 {
        return Err(format!("live [{a}, {b}]: final bound {prev}, not 0"));
    }
    let err = (value - want).abs();
    if err.is_nan() || err > 1e-9 * scale + 1e-6 {
        return Err(format!("live [{a}, {b}]: answer {value:e}, samples sum to {want:e}"));
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (sessions, frames) = if opts.smoke { (2, 1024) } else { (SESSIONS, FRAMES) };
    let tracer = Tracer::new(opts.trace);
    eprintln!(
        "ingest_live: {sessions} sessions x {frames} frames x 28 channels, {DROPOUT} dropout, \
         {SEGMENT}-sample segments, {BLOCK}-value blocks, {DURABILITY:?}, 1 compactor thread, \
         ingest offered at {INGEST_RATE} samples/s, live range sums at {LIVE_RATE} q/s"
    );
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(generate(opts.seed, sessions, frames)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    eprintln!("  set-up {setup_secs:?} s, {} samples per round", inputs.total);

    // Rounds until the time is spent (at least two). A traced run
    // alternates untraced and traced rounds, for the overhead.
    let untraced = Tracer::new(false);
    let begin = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < 2 || begin.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && rounds.len() % 2 == 1;
        let dir = opts.work_dir.join(format!("round{}", rounds.len()));
        let r = run_round(&inputs, &dir, traced, if traced { &tracer } else { &untraced })?;
        eprintln!(
            "  round {}: {:.0} samples/s wall, {:.0} per ingest-thread CPU-second, {:.0} per \
             compactor CPU-second, drain {:.1} ms, {} live queries, ack p50 {:.3} ms",
            rounds.len(),
            inputs.total as f64 / r.ingest_secs,
            inputs.total as f64 / (r.ingest_cpu_ns as f64 / 1e9),
            inputs.total as f64 / (r.compactor_cpu_ns as f64 / 1e9),
            r.drain_ms,
            r.live.len(),
            median(&r.acks_ms)
        );
        rounds.push((traced, r));
    }

    let mut report = Report::default();
    report.set("setup_s", median(&setup_secs));
    let user_bytes = (inputs.total * 8) as f64;
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&rounds.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    let live_of = |traced: bool| -> Vec<&Live> {
        rounds.iter().filter(|(t, _)| *t == traced).flat_map(|(_, r)| r.live.iter()).collect()
    };
    let plain = live_of(false);
    let frames_offered = (rounds.len() * inputs.wires.iter().map(Vec::len).sum::<usize>()) as f64;
    let dropped: usize = rounds.iter().map(|(_, r)| r.dropped_frames).sum();
    let queries: usize = rounds.iter().map(|(_, r)| r.live.len()).sum();
    report.attempted = (queries + rounds.len() * inputs.wires.len()) as u64;
    report.failed = dropped as u64;

    // Answers are charged their CPU time: their wall latency is set by
    // waits on the store lock while compaction commits fsync, which moved
    // by half across runs on a shared disk. The wall latency is the
    // per-layer `tier.live_wall_*` metric. `range_sum` hands back its
    // whole trajectory at once, so the first estimate costs the answer.
    let cpu: Vec<f64> = plain.iter().map(|l| l.cpu_ms).collect();
    report.set("answer_p50_ms", median(&cpu));
    report.set("first_estimate_p50_ms", median(&cpu));
    report.set("client.answer_p90_ms", percentile(&cpu, 0.90));
    report.set("client.answer_p99_ms", percentile(&cpu, 0.99));
    // Capacities from CPU time, as on the OLAP workloads: live queries per
    // CPU-second of the live thread, and samples per CPU-second of the
    // busier of the ingest and compactor threads.
    let live_cpu: u64 = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r.live_cpu_ns).sum();
    report.set("max_rate_qps", plain.len() as f64 / (live_cpu as f64 / 1e9));
    report.set("ok_frac", 1.0 - dropped as f64 / (frames_offered + queries as f64));
    report.set(
        "ingest_sps",
        per_round(&|r| {
            inputs.total as f64 / (r.ingest_cpu_ns.max(r.compactor_cpu_ns) as f64 / 1e9)
        }),
    );
    let acks: Vec<f64> = rounds.iter().flat_map(|(_, r)| r.acks_ms.iter().copied()).collect();
    report.set("ack_p50_ms", median(&acks));
    report.set("write_amp", per_round(&|r| r.written / user_bytes));
    report.set("space_amp", per_round(&|r| r.store_bytes / user_bytes));
    report.set("rss_peak_mb", sys::peak_rss_mb());

    if opts.trace {
        per_layer(&rounds, &inputs, &tracer, &mut report);
    }
    Ok(Outcome { report, tracer })
}

/// Per-layer metrics from the traced rounds.
fn per_layer(rounds: &[(bool, Round)], inputs: &Inputs, tracer: &Tracer, report: &mut Report) {
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let plain: Vec<&Live> =
        rounds.iter().filter(|(t, _)| !*t).flat_map(|(_, r)| r.live.iter()).collect();
    let live: Vec<&Live> = traced.iter().flat_map(|r| r.live.iter()).collect();
    let lat = |ls: &[&Live]| -> Vec<f64> { ls.iter().map(|l| ms(l.end - l.due)).collect() };
    report.set("trace.overhead_frac", median(&lat(&live)) / median(&lat(&plain)) - 1.0);
    report.set("tier.live_wall_p50_ms", median(&lat(&plain)));
    report.set("tier.live_wall_p90_ms", percentile(&lat(&plain), 0.90));
    report.set("trace.spans", tracer.len() as f64);
    let late: Vec<f64> = live.iter().map(|l| ms(l.start - l.due)).collect();
    report.set("gen.late_p99_ms", percentile(&late, 0.99));

    let sum = |name: &str| traced.iter().map(|r| r.delta.counter(name)).sum::<u64>() as f64;
    let acks_us: Vec<f64> = traced.iter().flat_map(|r| r.acks_ms.iter().map(|a| a * 1e3)).collect();
    report.set("tier.push_us.p50", median(&acks_us));
    report.set("tier.push_us.p99", percentile(&acks_us, 0.99));
    let wall: f64 = traced.iter().map(|r| r.wall_secs).sum();
    report.set("tier.compaction.busy_frac", sum("tier.compaction.ns") / 1e9 / wall);
    report.set("tier.compaction.runs", sum("tier.compaction.runs"));
    report.set("tier.segments.compacted", sum("tier.segments.compacted"));
    report
        .set("tier.backlog_peak", traced.iter().map(|r| r.backlog_peak).max().unwrap_or(0) as f64);
    report.set("tier.drain_ms", median(&traced.iter().map(|r| r.drain_ms).collect::<Vec<_>>()));
    report.set("tier.snapshot_us", median(&live.iter().map(|l| l.snapshot_us).collect::<Vec<_>>()));
    report.set(
        "tier.query.hot_rows_per_query",
        mean(&live.iter().map(|l| l.hot_rows as f64).collect::<Vec<_>>()),
    );

    let frames = (traced.len() * inputs.wires.iter().map(Vec::len).sum::<usize>()) as f64;
    let supervised: f64 = traced.iter().map(|r| r.supervised_secs).sum();
    report.set("acquisition.ingest_us_per_kframe", supervised * 1e6 / (frames / 1e3));
    report.set(
        "acquisition.dropped_frames",
        traced.iter().map(|r| r.dropped_frames).sum::<usize>() as f64,
    );
    report.set("ingest.repaired", sum("ingest.repaired"));
    report.set("storage.wal.appends", sum("storage.wal.appends"));
    report.set("storage.wal.fsyncs", sum("storage.wal.fsyncs"));
    report.set("storage.wal.checkpoints", sum("storage.wal.checkpoints"));
    report.set("storage.device.writes", sum("storage.device.writes"));
    report.set("exec.pool.tasks", sum("exec.pool.tasks"));
    let snap = global().snapshot();
    report.set("dsp.dwt.forward.count", traced.iter().map(|r| r.dwt).sum::<u64>() as f64);
    if let Some(h) = snap.histogram("dsp.dwt.forward.ns") {
        report.set("dsp.dwt.forward.p50_ns", h.p50);
    }
    if let Some(h) = snap.histogram("exec.pool.idle.ns") {
        report.set("exec.pool.idle_ns.p50", h.p50);
    }
}
