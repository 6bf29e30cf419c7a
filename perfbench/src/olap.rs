//! `olap_hot` and `olap_cold`: open-loop range sums over the TCP wire.
//!
//! Set-up bulk-loads a seeded Db4 cube onto a durable `FileDevice`,
//! starts an in-process `QueryService` + `Server` on loopback (the
//! `aims-serve --data` stack), generates the query pool and computes
//! every reference answer with `Propolyne::evaluate_prepared`. The load
//! is then offered open loop on one connection at a time (one sender
//! thread, one reader thread) over a ladder of five rates spaced ×2, with
//! each request timed from the moment it was due.

use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_propolyne::{BlockedCoefficients, DataCube, RangeSumQuery, WaveletCube};
use aims_service::wire::{write_frame, MAX_FRAME};
use aims_service::{Frame, ProgressKind, QueryProfile, QueryService, Server, ServiceConfig};
use aims_storage::{BlockDevice, DurabilityMode, FileDevice, FileDeviceOptions};
use aims_telemetry::global;

use crate::checks::{self, Check};
use crate::report::{mean, median, percentile, Outcome, Report};
use crate::sys::{self, sleep_until};
use crate::trace::Tracer;
use crate::{Opts, Workload};

/// Latency limit of a sustained ladder rate: its p99 answer latency is at
/// most this, nothing is refused, and the backlog does not grow.
const P99_LIMIT_MS: f64 = 50.0;
/// Shares of `--seconds` spent at the nominal rate and on the other four
/// ladder rates together.
const NOMINAL_SHARE: f64 = 0.55;
const LADDER_SHARE: f64 = 0.35;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// How far `olap_hot` query edges wander inside their region, in cells.
const HOT_JITTER: usize = 2;
/// Hot regions of `olap_hot`.
const HOT_REGIONS: usize = 2;
/// Requests per connection (see [`Conn`]).
const CHUNK: usize = 1000;
/// Distinct queries in the pool the schedule cycles through.
const POOL: usize = 1024;

/// Everything the workload fixes about the served store. `README.md`
/// states the same values.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    side: usize,
    block: usize,
    cache_blocks: usize,
    queue: usize,
    pool_threads: usize,
    durability: DurabilityMode,
    /// Lowest rate of the ladder; the ladder is `base × 2^k`, k = 0..=4.
    base_rate: f64,
    /// Index of the ladder rate the latency metrics are reported at.
    nominal: usize,
}

fn geometry(w: Workload, smoke: bool) -> Geometry {
    let g = Geometry {
        side: 256,
        block: 32,
        cache_blocks: 256,
        queue: 64,
        pool_threads: 1,
        durability: DurabilityMode::None,
        base_rate: 100.0,
        nominal: 0,
    };
    match (w, smoke) {
        (Workload::OlapHot, false) => Geometry { base_rate: 400.0, ..g },
        (Workload::OlapCold, false) => Geometry { side: 1024, ..g },
        (_, true) => Geometry { side: 64, base_rate: 50.0, ..g },
        (Workload::IngestLive, false) => unreachable!("not an olap workload"),
    }
}

/// splitmix64: the benchmark's only random source, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `aims-serve` demo cube (an N×N grid of small xorshift counts),
/// seeded from `--seed`.
fn demo_cube(side: usize, seed: u64) -> DataCube {
    let mut cube = DataCube::zeros(&[side, side]);
    let mut state = seed | 1;
    for v in cube.values_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 9) as f64;
    }
    cube
}

/// The query pool. `olap_hot`: small boxes whose edges wander by a cell
/// or two around `HOT_REGIONS` hot regions, picked with weights 2:1, so
/// plans overlap and share blocks (the E27 mix). `olap_cold`: uniform
/// random boxes.
fn query_ranges(w: Workload, side: usize, seed: u64, n: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rng = Rng::new(seed ^ 0x0A1A_0001);
    match w {
        Workload::OlapHot => {
            let extent = side / 16;
            let jitter = HOT_JITTER;
            let regions: Vec<[(usize, usize); 2]> = (0..HOT_REGIONS)
                .map(|_| {
                    let span = side - extent - 2 * jitter;
                    [(rng.below(span), extent), (rng.below(span), extent)]
                })
                .collect();
            (0..n)
                .map(|_| {
                    // Region r is picked with weight 2^-(r+1) (the last
                    // region takes the remainder).
                    let r = (rng.next_u64().trailing_zeros() as usize).min(HOT_REGIONS - 1);
                    regions[r]
                        .iter()
                        .map(|&(base, ext)| {
                            let lo = base + rng.below(jitter);
                            (lo, (lo + ext + rng.below(jitter)).min(side - 1))
                        })
                        .collect()
                })
                .collect()
        }
        _ => (0..n)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let (a, b) = (rng.below(side), rng.below(side));
                        (a.min(b), a.max(b))
                    })
                    .collect()
            })
            .collect(),
    }
}

struct Query {
    ranges: Vec<(usize, usize)>,
    expected: f64,
}

/// The bulk load's measurements (the olap workloads' ingest side).
struct Load {
    acks_ms: Vec<f64>,
    written: f64,
    store_bytes: f64,
    user_bytes: f64,
}

/// Transforms the cube and writes its coefficients block by block onto
/// a fresh durable device, then checkpoints it: the `aims-serve --data`
/// create path. Each `write_block` call is timed: the acknowledged WAL
/// append path.
fn bulk_load(
    cells: &DataCube,
    g: &Geometry,
    dir: &Path,
) -> Result<(WaveletCube, BlockedCoefficients<FileDevice>, Load), String> {
    let cube = cells.transform(&FilterKind::Db4.filter());
    let coeffs = cube.coeffs();
    let nblocks = coeffs.len().div_ceil(g.block);
    let written0 = sys::bytes_written();
    let opts = FileDeviceOptions { mode: g.durability, ..Default::default() };
    let mut device = FileDevice::create(dir, g.block, nblocks, opts)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut acks_ms = Vec::with_capacity(nblocks);
    let mut staged = vec![0.0; g.block];
    for (b, chunk) in coeffs.chunks(g.block).enumerate() {
        staged.fill(0.0);
        staged[..chunk.len()].copy_from_slice(chunk);
        let t = Instant::now();
        device.write_block(b, &staged);
        acks_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    device.checkpoint();
    let written = sys::bytes_written() - written0;
    let blocked = BlockedCoefficients::from_device(device, coeffs.len());
    let load = Load {
        acks_ms,
        written,
        store_bytes: sys::dir_bytes(dir),
        user_bytes: (coeffs.len() * 8) as f64,
    };
    Ok((cube, blocked, load))
}

/// A served store and its reference answers.
struct Served {
    service: Arc<QueryService<FileDevice>>,
    server: Server,
    queries: Vec<Query>,
    load: Load,
}

impl Served {
    fn stop(self) {
        self.server.stop();
        self.server.join();
        self.service.shutdown();
    }
}

fn setup_once(opts: &Opts, g: &Geometry, dir: &Path) -> Result<Served, String> {
    let (cube, blocked, load) = bulk_load(&demo_cube(g.side, opts.seed), g, dir)?;
    let config = ServiceConfig {
        queue_capacity: g.queue,
        cache_blocks: g.cache_blocks,
        threads: Some(g.pool_threads),
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::with_blocked(cube, blocked, config));
    let n = if opts.smoke { 64 } else { POOL };
    let queries = query_ranges(opts.workload, g.side, opts.seed, n)
        .into_iter()
        .map(|ranges| {
            let engine = service.engine();
            let expected =
                engine.evaluate_prepared(&engine.prepare(&RangeSumQuery::count(ranges.clone())));
            Query { ranges, expected }
        })
        .collect();
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    Ok(Served { service, server, queries, load })
}

/// One TCP connection: a sender thread writes SUBMIT frames on a clone
/// of the socket while the step's own thread reads and timestamps the
/// replies. Dropping it closes the socket.
///
/// Every `CHUNK` requests get a fresh connection: the server joins a
/// connection's per-query forwarder threads only when the connection
/// closes, so one connection kept for a whole run would pile up tens of
/// thousands of finished, unjoined threads (and slow down as they pile).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already parsed into frames.
    pos: usize,
}

impl Conn {
    fn open(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), pos: 0 })
    }

    /// The next complete frame and its size on the wire, reading more
    /// bytes when needed; `None` when nothing arrived within the socket's
    /// read timeout. The frame's arrival time is when its last byte was
    /// read.
    fn next(&mut self, arrived: &mut Instant) -> Result<Option<(Frame, u64)>, String> {
        loop {
            let avail = &self.buf[self.pos..];
            if avail.len() >= 4 {
                let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME {
                    return Err(format!("bad frame length {len}"));
                }
                if avail.len() >= 4 + len {
                    let frame = Frame::decode_body(&avail[4..4 + len])
                        .map_err(|e| format!("undecodable frame: {e}"))?;
                    self.pos += 4 + len;
                    return Ok(Some((frame, 4 + len as u64)));
                }
            }
            self.buf.drain(..self.pos);
            self.pos = 0;
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => {
                    *arrived = Instant::now();
                    self.buf.extend_from_slice(&chunk[..k]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.stream.shutdown(Shutdown::Both).ok();
    }
}

/// Per-request record of one step.
#[derive(Clone, Debug, Default)]
struct Req {
    due: Option<Instant>,
    sent: Option<(Instant, Instant)>,
    first: Option<Instant>,
    done: Option<(Instant, ProgressKind)>,
    rejected: bool,
    /// Answered `Done` with a zero bound.
    exact: bool,
    profile: Option<(Instant, QueryProfile)>,
}

/// What one offered rate produced.
#[derive(Debug, Default)]
struct Step {
    rate: f64,
    reqs: Vec<Req>,
    frames: u64,
    bytes: u64,
    /// CPU time of the busiest program thread, summed over the step's
    /// connections, and that thread's name.
    busiest_cpu_ns: u64,
    busiest: String,
}

impl Step {
    fn answered(&self) -> impl Iterator<Item = &Req> {
        self.reqs.iter().filter(|r| r.done.is_some_and(|(_, k)| k != ProgressKind::Cancelled))
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.answered()
            .map(|r| (r.done.expect("answered").0 - r.due.expect("due")).as_secs_f64() * 1e3)
            .collect()
    }

    fn first_ms(&self) -> Vec<f64> {
        self.answered()
            .filter_map(|r| r.first.map(|f| (f - r.due.expect("due")).as_secs_f64() * 1e3))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.reqs.iter().filter_map(|r| Some((r.sent?.0 - r.due?).as_secs_f64() * 1e3)).collect()
    }

    /// Requests without an exact answer: refused, degraded (widened
    /// bound, shed, expired) or cancelled. Wrong answers never get here;
    /// they fail the run.
    fn not_ok(&self) -> usize {
        self.reqs.iter().filter(|r| !r.exact).count()
    }

    /// The backlog grows when the last quarter of the step waits more
    /// than twice as long as the first quarter, plus 5 ms of slack.
    fn backlog_grows(&self) -> bool {
        let lat = |rs: &[Req]| -> f64 {
            let v: Vec<f64> =
                rs.iter().filter_map(|r| Some((r.done?.0 - r.due?).as_secs_f64() * 1e3)).collect();
            median(&v)
        };
        let q = self.reqs.len() / 4;
        q > 0 && lat(&self.reqs[3 * q..]) > 2.0 * lat(&self.reqs[..q]) + 5.0
    }

    /// A rate is sustained when every request is answered exactly, the
    /// p99 latency is within the limit, and the backlog does not grow.
    fn passes(&self) -> bool {
        self.not_ok() == 0
            && percentile(&self.latencies_ms(), 0.99) <= P99_LIMIT_MS
            && !self.backlog_grows()
    }
}

/// Offers `rate` for `secs`, cycling the pool from `offset`, and checks
/// every answer against its reference. The step is cut into chunks of at
/// most `CHUNK` requests, each on a fresh connection (see [`Conn`]).
#[allow(clippy::too_many_arguments)]
fn run_step(
    port: u16,
    queries: &[Query],
    rate: f64,
    secs: f64,
    first_req: u64,
    offset: usize,
    traced: bool,
    tracer: &Tracer,
) -> Result<Step, String> {
    let n = ((rate * secs).round() as usize).max(1);
    let mut step = Step { rate, ..Step::default() };
    while step.reqs.len() < n {
        let k = step.reqs.len();
        let m = (n - k).min(CHUNK);
        let first = first_req + k as u64;
        let chunk = run_chunk(port, queries, rate, m, first, offset + k, traced, tracer)?;
        step.reqs.extend(chunk.reqs);
        step.frames += chunk.frames;
        step.bytes += chunk.bytes;
        step.busiest_cpu_ns += chunk.busiest_cpu_ns;
        step.busiest = chunk.busiest;
    }
    Ok(step)
}

/// One chunk of a step: `n` requests at `rate` on a fresh connection.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    port: u16,
    queries: &[Query],
    rate: f64,
    n: usize,
    first_req: u64,
    offset: usize,
    traced: bool,
    tracer: &Tracer,
) -> Result<Step, String> {
    let mut conn = Conn::open(port).map_err(|e| format!("connect: {e}"))?;
    let mut writer = conn.stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let frames: Vec<Frame> = (0..n)
        .map(|i| Frame::Submit {
            req_id: first_req + i as u64,
            priority: aims_service::Priority::Interactive,
            deadline_ms: 0,
            ranges: queries[(offset + i) % queries.len()]
                .ranges
                .iter()
                .map(|&(lo, hi)| (lo as u64, hi as u64))
                .collect(),
            trace: traced,
        })
        .collect();
    let sender = std::thread::Builder::new()
        .name("perfbench-sender".into())
        .spawn(move || -> Result<Vec<(Instant, Instant)>, String> {
            let mut sent = Vec::with_capacity(frames.len());
            for (i, frame) in frames.iter().enumerate() {
                sleep_until(due(i));
                let s = Instant::now();
                write_frame(&mut writer, frame).map_err(|e| format!("send: {e}"))?;
                sent.push((s, Instant::now()));
            }
            Ok(sent)
        })
        .map_err(|e| format!("spawn sender: {e}"))?;

    let mut step = Step { rate, reqs: vec![Req::default(); n], ..Step::default() };
    for (i, r) in step.reqs.iter_mut().enumerate() {
        r.due = Some(due(i));
    }
    let deadline = due(n) + Duration::from_secs(30);
    let cpu0 = sys::thread_cpu();
    let mut terminal = 0usize;
    let mut at = Instant::now();
    while terminal < n {
        let Some((frame, bytes)) = conn.next(&mut at)? else {
            if Instant::now() > deadline {
                return Err(format!("{} of {n} answers missing 30 s after the step", n - terminal));
            }
            continue;
        };
        step.frames += 1;
        step.bytes += bytes;
        let (id, kind) = match &frame {
            Frame::Progress { req_id, kind, .. } => (*req_id, Some(*kind)),
            Frame::Reject { req_id, .. } => (*req_id, None),
            Frame::Profile { req_id, profile } => {
                let k = index(*req_id, first_req, n)?;
                step.reqs[k].profile = Some((at, profile.clone()));
                continue;
            }
            other => return Err(format!("unexpected frame {other:?}")),
        };
        let k = index(id, first_req, n)?;
        let req = &mut step.reqs[k];
        req.first.get_or_insert(at);
        match kind {
            None => {
                req.rejected = true;
                terminal += 1;
            }
            Some(ProgressKind::Progress) => {}
            Some(kind) => {
                if let Frame::Progress { estimate, bound, .. } = frame {
                    let want = queries[(offset + k) % queries.len()].expected;
                    check_answer(id, kind, estimate, bound, want)?;
                    req.exact = kind == ProgressKind::Done && bound == 0.0;
                }
                req.done = Some((at, kind));
                terminal += 1;
            }
        }
    }
    let busiest = sys::thread_cpu()
        .into_iter()
        .filter(|(_, name, _)| !name.starts_with("perfbench") && name != "aims-perfbench")
        .map(|(tid, name, ns)| {
            let before = cpu0.iter().find(|t| t.0 == tid).map_or(0, |t| t.2);
            (ns.saturating_sub(before), name)
        })
        .max();
    (step.busiest_cpu_ns, step.busiest) = busiest.ok_or("no program thread is running")?;
    let sent = sender.join().map_err(|_| "sender panicked".to_string())??;
    for (r, s) in step.reqs.iter_mut().zip(sent) {
        r.sent = Some(s);
    }
    if traced {
        record_spans(&step, first_req, tracer);
    }
    Ok(step)
}

/// An exact answer (bound 0) must equal the reference to the bit; a
/// degraded one (widened bound, shed, expired) must lie within its own
/// guaranteed bound of the reference.
pub fn check_answer(
    id: u64,
    kind: ProgressKind,
    est: f64,
    bound: f64,
    want: f64,
) -> Result<(), String> {
    checks::ran(Check::Answer);
    let ok = if bound == 0.0 {
        est.to_bits() == want.to_bits()
    } else {
        (est - want).abs() <= bound * (1.0 + 1e-9) + 1e-9 * want.abs()
    };
    if ok {
        Ok(())
    } else {
        Err(format!("request {id} ({kind:?}): answer {est:e} ± {bound:e}, reference {want:e}"))
    }
}

fn index(id: u64, first: u64, n: usize) -> Result<usize, String> {
    id.checked_sub(first)
        .map(|k| k as usize)
        .filter(|&k| k < n)
        .ok_or_else(|| format!("answer for unknown request {id}"))
}

/// One span tree per request: `wire.request` from due time to answer,
/// with the generator's lateness, the submit write, and the server-side
/// `service.query` (with its queue wait) rebuilt from the profile, which
/// the server sends just before the terminal frame.
fn record_spans(step: &Step, first_req: u64, tracer: &Tracer) {
    for (k, r) in step.reqs.iter().enumerate() {
        let (Some(due), Some((s0, s1))) = (r.due, r.sent) else { continue };
        let end = r.done.map_or(s1, |d| d.0);
        let req = first_req + k as u64;
        let root = tracer.reserve();
        tracer.record(0, "bench.late", req, root, due, s0);
        tracer.record(0, "wire.submit", req, root, s0, s1);
        if let Some((at, p)) = &r.profile {
            let svc = tracer.reserve();
            let begin = at.checked_sub(Duration::from_nanos(p.latency_ns)).unwrap_or(*at);
            let queued = begin + Duration::from_nanos(p.queue_wait_ns.min(p.latency_ns));
            tracer.record(0, "service.queue_wait", req, svc, begin, queued);
            tracer.record(svc, "service.query", req, root, begin, *at);
        }
        tracer.record(root, "wire.request", req, 0, due, end);
    }
}

/// The rate ladder: `base × 2^k`, k = 0..=4, stopping at the first
/// rate above the nominal one that is not sustained. The nominal rate
/// runs longest, for its tail latency; the other rates show where the
/// open-loop knee sits. Returns the steps and the highest sustained rate.
fn ladder(
    served: &Served,
    g: &Geometry,
    opts: &Opts,
    next_req: &mut u64,
    rss_mb: &mut f64,
) -> Result<(Vec<Step>, f64), String> {
    let rates: Vec<f64> = (0..5).map(|k| g.base_rate * f64::from(1u32 << k)).collect();
    let mut steps = Vec::new();
    let mut sustained = 0.0f64;
    let tracer = Tracer::new(false);
    for (k, &rate) in rates.iter().enumerate() {
        let share = if k == g.nominal { NOMINAL_SHARE } else { LADDER_SHARE / 4.0 };
        let step = run_step(
            served.server.port(),
            &served.queries,
            rate,
            opts.seconds * share,
            *next_req,
            *next_req as usize,
            false,
            &tracer,
        )?;
        *next_req += step.reqs.len() as u64;
        if k == g.nominal {
            *rss_mb = sys::peak_rss_mb();
        }
        let pass = step.passes();
        eprintln!(
            "  rate {rate:>8.1} q/s: n {:>6} p50 {:>8.3} ms p95 {:>8.3} ms p99 {:>8.3} ms \
             not-ok {:>5} {}",
            step.reqs.len(),
            median(&step.latencies_ms()),
            percentile(&step.latencies_ms(), 0.95),
            percentile(&step.latencies_ms(), 0.99),
            step.not_ok(),
            if pass { "sustained" } else { "not sustained" }
        );
        steps.push(step);
        // Let an overloaded step's backlog and QoS tier settle.
        std::thread::sleep(Duration::from_millis(if pass { 20 } else { 300 }));
        if pass {
            sustained = sustained.max(rate);
        } else if k >= g.nominal {
            break;
        }
    }
    Ok((steps, sustained))
}

/// Capacity from the nominal step: the rate at which the busiest
/// program thread (the service scheduler or a connection's reader, which
/// runs `prepare`) would be busy all the time, from its CPU time per
/// request. CPU time is counted by the kernel, so a stall of the host
/// barely moves it, unlike the open-loop knee, whose verdicts flip with
/// the host's stalls and the service's QoS hysteresis.
fn capacity(step: &Step) -> f64 {
    eprintln!(
        "  busiest program thread {}: {:.1} us CPU per request",
        step.busiest,
        step.busiest_cpu_ns as f64 / 1e3 / step.reqs.len() as f64
    );
    step.reqs.len() as f64 / (step.busiest_cpu_ns as f64 / 1e9)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let g = geometry(opts.workload, opts.smoke);
    let tracer = Tracer::new(opts.trace);
    eprintln!(
        "{}: {side}x{side} Db4 cube, {}-coefficient blocks, {}-block cache, {} pool thread, \
         queue {}, {:?}",
        opts.workload.name(),
        g.block,
        g.cache_blocks,
        g.pool_threads,
        g.queue,
        g.durability,
        side = g.side
    );
    let mut setup_secs = Vec::new();
    let (mut acks_ms, mut write_amp) = (Vec::new(), Vec::new());
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut served = None;
    for rep in 0..reps {
        if let Some(prev) = served.take() {
            Served::stop(prev);
            std::fs::remove_dir_all(opts.work_dir.join(format!("store{}", rep - 1))).ok();
        }
        let dir = opts.work_dir.join(format!("store{rep}"));
        let t = Instant::now();
        let s = setup_once(opts, &g, &dir)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        acks_ms.extend_from_slice(&s.load.acks_ms);
        write_amp.push(s.load.written / s.load.user_bytes);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    eprintln!("  set-up {:?} s", setup_secs);
    let mut report = Report::default();
    report.set("setup_s", median(&setup_secs));
    let load = &served.load;
    // Cells acknowledged per second of `write_block`: the block size over
    // the median acknowledgement. The mean would be set by a few slow
    // appends that regrow the WAL buffer.
    report.set("ingest_sps", g.block as f64 / (median(&acks_ms) / 1e3));
    report.set("ack_p50_ms", median(&acks_ms));
    report.set("write_amp", median(&write_amp));
    report.set("space_amp", load.store_bytes / load.user_bytes);

    let rates_base = g.base_rate * f64::from(1u32 << g.nominal);
    let mut next_req = 1u64;
    // Warm-up at the nominal rate: page cache, block cache, thread paths.
    let warm = run_step(
        served.server.port(),
        &served.queries,
        rates_base,
        (opts.seconds * 0.05).min(1.0),
        next_req,
        0,
        false,
        &tracer,
    )?;
    next_req += warm.reqs.len() as u64;

    let result = if opts.trace {
        traced(&served, &g, opts, rates_base, &mut next_req, &tracer, &mut report)
    } else {
        untraced(&served, &g, opts, &mut next_req, &mut report)
    };
    Served::stop(served);
    result?;
    Ok(Outcome { report, tracer })
}

fn untraced(
    served: &Served,
    g: &Geometry,
    opts: &Opts,
    next_req: &mut u64,
    report: &mut Report,
) -> Result<(), String> {
    // Peak memory is read at the nominal rate: the overload steps above
    // it spawn bursts of short-lived server threads whose allocator
    // arenas would make the peak a property of the overload, not of the
    // store and the service.
    let mut rss_mb = 0.0;
    let (steps, sustained) = ladder(served, g, opts, next_req, &mut rss_mb)?;
    report.set("rss_peak_mb", rss_mb);
    eprintln!("  highest sustained ladder rate {sustained} q/s");
    let nominal = &steps[g.nominal];
    let lat = nominal.latencies_ms();
    report.set("answer_p50_ms", median(&lat));
    report.set("first_estimate_p50_ms", median(&nominal.first_ms()));
    report.set("max_rate_qps", capacity(nominal));
    report.set("ok_frac", 1.0 - nominal.not_ok() as f64 / nominal.reqs.len() as f64);
    report.attempted = steps.iter().map(|s| s.reqs.len() as u64).sum();
    report.failed = nominal.not_ok() as u64;
    eprintln!(
        "  nominal {} q/s: {} requests, generator late p99 {:.3} ms",
        nominal.rate,
        nominal.reqs.len(),
        percentile(&nominal.late_ms(), 0.99)
    );
    Ok(())
}

/// The traced run: the nominal rate untraced and then traced (for the
/// overhead), the server's profiles, and replay probes for what the
/// client cannot see.
fn traced(
    served: &Served,
    g: &Geometry,
    opts: &Opts,
    rate: f64,
    next_req: &mut u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // Half the nominal share each, untraced then traced.
    let secs = opts.seconds * NOMINAL_SHARE / 2.0;
    let plain =
        run_step(served.server.port(), &served.queries, rate, secs, *next_req, 0, false, tracer)?;
    *next_req += plain.reqs.len() as u64;

    let svc = &served.service;
    let cache0 = svc.cache().stats();
    let reads0 = svc.device().stats().reads;
    let qos0 = svc.qos_stats();
    let snap0 = global().snapshot();
    let step =
        run_step(served.server.port(), &served.queries, rate, secs, *next_req, 0, true, tracer)?;
    *next_req += step.reqs.len() as u64;
    let snap1 = global().snapshot();
    let delta = snap1.delta_since(&snap0);
    let cache1 = svc.cache().stats();
    let qos1 = svc.qos_stats();
    let n = step.reqs.len() as f64;
    report.attempted = (plain.reqs.len() + step.reqs.len()) as u64;
    report.failed = (plain.not_ok() + step.not_ok()) as u64;

    report.set("rss_peak_mb", sys::peak_rss_mb());
    let p50_plain = median(&plain.latencies_ms());
    report.set("client.answer_p90_ms", percentile(&plain.latencies_ms(), 0.90));
    report.set("client.answer_p99_ms", percentile(&plain.latencies_ms(), 0.99));
    report.set("trace.overhead_frac", median(&step.latencies_ms()) / p50_plain - 1.0);
    report.set("trace.spans", tracer.len() as f64);
    report.set("gen.late_p99_ms", percentile(&step.late_ms(), 0.99));

    // Service layer, from the server's own profiles.
    let profiles: Vec<&QueryProfile> =
        step.reqs.iter().filter_map(|r| Some(&r.profile.as_ref()?.1)).collect();
    if profiles.len() != step.answered().count() {
        return Err(format!(
            "{} traced answers but {} profiles",
            step.answered().count(),
            profiles.len()
        ));
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let qwait: Vec<f64> = profiles.iter().map(|p| ms(p.queue_wait_ns)).collect();
    let slat: Vec<f64> = profiles.iter().map(|p| ms(p.latency_ns)).collect();
    report.set("service.queue_wait_ms.p50", median(&qwait));
    report.set("service.queue_wait_ms.p99", percentile(&qwait, 0.99));
    report.set("service.latency_ms.p50", median(&slat));
    report.set("service.latency_ms.p99", percentile(&slat, 0.99));
    report.set(
        "service.rounds.mean",
        mean(&profiles.iter().map(|p| f64::from(p.rounds)).collect::<Vec<_>>()),
    );
    let read: u64 = profiles.iter().map(|p| p.blocks_read).sum();
    let shared: u64 = profiles.iter().map(|p| p.blocks_shared).sum();
    report.set("service.shared_frac", shared as f64 / (read + shared).max(1) as f64);
    report.set("service.rejected", step.reqs.iter().filter(|r| r.rejected).count() as f64);
    report.set("service.qos.shed", (qos1.shed - qos0.shed) as f64);
    report.set(
        "service.backpressure.dropped_progress",
        (qos1.dropped_progress - qos0.dropped_progress) as f64,
    );

    // Wire: what the client saw beyond the server's own latency.
    let residual: Vec<f64> = step
        .reqs
        .iter()
        .filter_map(|r| {
            let (s0, _) = r.sent?;
            let (end, _) = r.done?;
            let (_, p) = r.profile.as_ref()?;
            Some((end - s0).as_secs_f64() * 1e3 - ms(p.latency_ns))
        })
        .collect();
    report.set("wire.residual_ms.p50", median(&residual));
    report.set("wire.residual_ms.p99", percentile(&residual, 0.99));
    let pn = plain.reqs.len() as f64;
    report.set("wire.frames_per_query", plain.frames as f64 / pn);
    report.set("wire.bytes_per_query", plain.bytes as f64 / pn);

    // Storage, across the traced step.
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    report
        .set("storage.cache.hit_ratio", (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64);
    report.set("storage.cache.evictions", (cache1.evictions - cache0.evictions) as f64);
    report.set("storage.device.reads_per_query", (svc.device().stats().reads - reads0) as f64 / n);
    report.set("exec.pool.tasks", delta.counter("exec.pool.tasks") as f64);
    report
        .set("exec.pool.idle_ns.p50", snap1.histogram("exec.pool.idle.ns").map_or(0.0, |h| h.p50));
    let wal = |name: &str| delta.counter(name) as f64;
    report.set("storage.wal.appends", wal("storage.wal.appends"));
    report.set("storage.wal.fsyncs", wal("storage.wal.fsyncs"));
    report.set("storage.wal.checkpoints", wal("storage.wal.checkpoints"));
    report.set("storage.device.writes", wal("storage.device.writes"));
    let dwt =
        |s: &aims_telemetry::Snapshot| s.histogram("dsp.dwt.forward.ns").map(|h| (h.count, h.p50));
    let (c0, c1) = (dwt(&snap0).map_or(0, |h| h.0), dwt(&snap1));
    report.set("dsp.dwt.forward.count", c1.map_or(0, |h| h.0 - c0) as f64);
    report.set("dsp.dwt.forward.p50_ns", c1.map_or(0.0, |h| h.1));

    replay(served, g, opts, tracer, report)
}

/// Replay probes: time the layers the client cannot see on the
/// workload's own queries, after the load has stopped.
fn replay(
    served: &Served,
    g: &Geometry,
    opts: &Opts,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let engine = served.service.engine();
    let k = served.queries.len().min(if opts.smoke { 32 } else { 512 });
    let planner = BlockedCoefficients::new(engine.cube().coeffs(), g.block);
    let (mut prep_us, mut nnz, mut work, mut plan) = (vec![], vec![], vec![], vec![]);
    let mut blocks = Vec::new();
    for (i, q) in served.queries[..k].iter().enumerate() {
        let query = RangeSumQuery::count(q.ranges.clone());
        let span = tracer.start("propolyne.prepare", i as u64, 0);
        let t = Instant::now();
        let prepared = engine.prepare(&query);
        prep_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.finish(span);
        nnz.push(prepared.nnz() as f64);
        work.push(prepared.transform_work as f64);
        let p = planner.plan_blocks(&prepared);
        plan.push(p.len() as f64);
        blocks.extend(p);
    }
    report.set("propolyne.prepare_us.p50", median(&prep_us));
    report.set("propolyne.prepare_us.p99", percentile(&prep_us, 0.99));
    report.set("propolyne.nnz.mean", mean(&nnz));
    report.set("propolyne.transform_work.mean", mean(&work));
    report.set("propolyne.plan_blocks.mean", mean(&plan));

    let device = served.service.device();
    let mut read_us = Vec::new();
    for (i, &b) in blocks.iter().take(8192).enumerate() {
        let span = tracer.start("storage.read_block", i as u64, 0);
        let t = Instant::now();
        let read = device.read_block(b);
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.finish(span);
        read.map_err(|e| format!("replay read of block {b}: {e}"))?;
    }
    report.set("storage.read_us.p50", median(&read_us));

    // Wire codec on the workload's SUBMIT frames and a PROGRESS frame.
    let frames: Vec<Frame> = served.queries[..k]
        .iter()
        .enumerate()
        .flat_map(|(i, q)| {
            [
                Frame::Submit {
                    req_id: i as u64,
                    priority: aims_service::Priority::Interactive,
                    deadline_ms: 0,
                    ranges: q.ranges.iter().map(|&(a, b)| (a as u64, b as u64)).collect(),
                    trace: false,
                },
                Frame::Progress {
                    req_id: i as u64,
                    kind: ProgressKind::Done,
                    round: 3,
                    used: 900,
                    total: 900,
                    estimate: q.expected,
                    bound: 0.0,
                    tier: aims_service::Tier::Normal,
                },
            ]
        })
        .collect();
    let span = tracer.start("wire.encode", 0, 0);
    let t = Instant::now();
    let bodies: Vec<Vec<u8>> =
        frames.iter().map(|f| std::hint::black_box(f.encode_body())).collect();
    let enc = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    tracer.finish(span);
    let span = tracer.start("wire.decode", 0, 0);
    let t = Instant::now();
    for (b, f) in bodies.iter().zip(&frames) {
        checks::ran(Check::Codec);
        let back = Frame::decode_body(std::hint::black_box(b));
        if !matches!(&back, Ok(b) if b == f) {
            return Err(format!("wire codec round trip changed {f:?} into {back:?}"));
        }
    }
    let dec = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    tracer.finish(span);
    report.set("wire.encode_ns", enc);
    report.set("wire.decode_ns", dec);
    Ok(())
}
