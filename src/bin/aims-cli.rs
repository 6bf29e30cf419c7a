//! `aims-cli` — drive the AIMS pipeline from the command line. Run it
//! with no arguments for the flag summary of every subcommand.
//!
//! `generate` simulates a CyberGlove session to CSV; `ingest` runs the
//! acquisition + storage pipeline over a CSV and reports compression and
//! fidelity; `query` serves offline aggregates from blocked wavelet
//! storage, or with `--connect` drives a progressive range sum against a
//! running server and prints the refinement trace; `recognize` runs the
//! online isolation + recognition loop over a synthetic signing stream;
//! `metrics` runs the quickstart pipeline and dumps the telemetry
//! registry; `serve` runs the concurrent query service over a demo cube
//! behind the `aims-serve` TCP protocol; `trace` runs a traced drill —
//! locally (each query's `QueryProfile` plus the flight recorder, or
//! Chrome trace-event JSON) or against a server via `--connect`; `top`
//! polls a running server's metrics and live sessions as a table;
//! `kernels` prints the wavelet kernel dispatch table and autotuned
//! tiling, then times one serial 2-D transform per filter.
//!
//! The drills each wrap one seeded library drill, print its report (a
//! table, or one JSON line with `--format json`) and exit 1 if it broke
//! an invariant: `faults` ([`aims::drills::faults`]), `ingest-faults`
//! ([`aims::drills::ingest`]), `durability` ([`aims::drills::durability`]),
//! `tiers` ([`aims::drills::tiers`]) and `chaos` ([`aims::chaos`]).

use std::collections::HashMap;
use std::process::exit;

use aims::acquisition::sampling::Strategy;
use aims::sensors::asl::AslVocabulary;
use aims::sensors::glove::CyberGloveRig;
use aims::sensors::io::{from_csv, to_csv};
use aims::sensors::noise::NoiseSource;
use aims::stream::isolation::{evaluate_isolation, IsolationConfig};
use aims::{AimsConfig, AimsSystem};

fn usage() -> ! {
    eprintln!(
        "usage: aims-cli \
<generate|ingest|query|serve|recognize|metrics|faults|ingest-faults|trace|top|chaos\
|kernels|durability|tiers> [--key value]...\n\
         \n\
         generate  --seconds <f> --activity <0..1> --seed <n> --out <file>\n\
         ingest    --input <file> [--strategy adaptive|fixed|modified-fixed|grouped]\n\
         query     --input <file> --channel <n> --from <s> --to <s> [--op avg|sum|point]\n\
         query     --connect <host:port> --ranges <lo:hi,lo:hi> \
[--priority interactive|batch] [--deadline-ms <n>]\n\
         serve     [--port <n>] [--side <n>] [--block <n>] [--cache <n>] [--queue <n>] \
[--seed <n>]\n\
         recognize --signs <n> --sentence <n> --seed <n>\n\
         metrics   --seconds <f> --seed <n> [--format table|json]\n\
         faults    --seed <n> --rate <0..1> --kind read|flip|torn|dead \
[--budget <n>] [--format table|json]\n\
         ingest-faults --seed <n> [--dropout <0..1>] [--stuck <0..1>] [--spike <0..1>]\n\
                   [--dup <0..1>] [--reorder <0..1>] [--dead <0..1>]\n\
                   [--policy hold|interpolate] [--seconds <f>] [--format table|json]\n\
         trace     [--side <n>] [--block <n>] [--seed <n>] [--queries <n>]\n\
                   [--format table|chrome] [--out <file>]\n\
         trace     --connect <host:port> --ranges <lo:hi,lo:hi>\n\
         top       --connect <host:port> [--interval-ms <n>] [--iterations <n>] \
[--format table|json]\n\
         chaos     [--seed <n>] [--format table|json]\n\
         kernels   [--side <n>]\n\
         durability [--mode always|periodic:K|none] [--seed <n>] [--blocks <n>]\n\
                   [--block-size <n>] [--writes <n>] [--dir <path>] [--format table|json]\n\
         tiers     [--seed <n>] [--samples <n>] [--segment <n>] [--block <n>]\n\
                   [--dir <path>] [--format table|json]"
    );
    exit(2);
}

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            eprintln!("unexpected argument '{key}'");
            usage();
        };
        let Some(value) = it.next() else {
            eprintln!("flag --{name} needs a value");
            usage();
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{name}: cannot parse '{v}'");
            usage();
        }),
    }
}

fn required(flags: &HashMap<String, String>, name: &str) -> String {
    flags.get(name).cloned().unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        usage();
    })
}

/// Unwraps a fallible step of a command, or reports it and exits 1.
trait OrExit<T> {
    fn or_exit(self, what: &str) -> T;
}

impl<T, E: std::fmt::Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, what: &str) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("{what}: {e}");
            exit(1);
        })
    }
}

/// `--format`: one of `allowed`, the first being the default.
fn format_flag(flags: &HashMap<String, String>, allowed: &[&str]) -> String {
    let format: String = flag(flags, "format", allowed[0].into());
    if !allowed.contains(&format.as_str()) {
        eprintln!("unknown format '{format}' ({})", allowed.join("|"));
        usage();
    }
    format
}

/// A rate flag, which must lie in `[0, 1]`.
fn rate_flag(flags: &HashMap<String, String>, name: &str, default: f64) -> f64 {
    let rate: f64 = flag(flags, name, default);
    if !(0.0..=1.0).contains(&rate) {
        eprintln!("--{name} must be in [0, 1], got {rate}");
        exit(2);
    }
    rate
}

/// Prints a drill report as a table or one JSON line, then exits 1 if
/// the drill broke an invariant.
fn finish(drill: &str, report: &impl aims::drills::Report, format: &str) {
    if format == "json" {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.table());
    }
    let violations = report.violations();
    for v in &violations {
        eprintln!("{drill}: invariant violated: {v}");
    }
    if !violations.is_empty() {
        exit(1);
    }
    if format == "table" {
        println!("all drill invariants held");
    }
}

fn cmd_generate(flags: &HashMap<String, String>) {
    let seconds: f64 = flag(flags, "seconds", 10.0);
    let activity: f64 = flag(flags, "activity", 0.6);
    let seed: u64 = flag(flags, "seed", 7);
    let out = required(flags, "out");

    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let session = rig.record_session(seconds, activity, &mut noise);
    std::fs::write(&out, to_csv(&session)).or_exit(&format!("cannot write {out}"));
    println!(
        "wrote {out}: {} frames x {} channels ({:.1}s at {:.0} Hz)",
        session.len(),
        session.channels(),
        session.duration(),
        session.spec().sample_rate
    );
}

fn load_stream(flags: &HashMap<String, String>) -> aims::sensors::types::MultiStream {
    let input = required(flags, "input");
    let text = std::fs::read_to_string(&input).or_exit(&format!("cannot read {input}"));
    from_csv(&text).or_exit(&input)
}

fn parse_strategy(name: &str) -> Strategy {
    match name {
        "adaptive" => Strategy::Adaptive,
        "fixed" => Strategy::Fixed,
        "modified-fixed" => Strategy::ModifiedFixed,
        "grouped" => Strategy::Grouped,
        _ => {
            eprintln!("unknown strategy '{name}'");
            usage();
        }
    }
}

fn cmd_ingest(flags: &HashMap<String, String>) {
    let session = load_stream(flags);
    let strategy = parse_strategy(&flag::<String>(flags, "strategy", "adaptive".into()));
    let config = AimsConfig { sampling: strategy, ..AimsConfig::default() };
    let mut system = AimsSystem::new(config);
    let report = system.ingest(&session);
    let raw = session.device_size_bytes();
    println!(
        "ingested {} frames x {} channels with {} sampling",
        report.frames,
        report.channels,
        strategy.name()
    );
    println!(
        "  acquired bytes : {} ({:.1}x vs {} raw device bytes)",
        report.sampled_bytes,
        raw as f64 / report.sampled_bytes as f64,
        raw
    );
    println!("  reconstruction : {:.2}% relative RMSE", report.sampling_rmse * 100.0);
}

/// The seeded square demo cube `serve` and `trace` drill against:
/// xorshift-filled small integers, wavelet-transformed with Db4.
fn demo_cube(side: usize, seed: u64) -> aims::propolyne::WaveletCube {
    use aims::dsp::filters::FilterKind;
    use aims::propolyne::DataCube;

    let mut cube = DataCube::zeros(&[side, side]);
    let mut rng = aims::drills::XorShift(seed.max(1));
    for v in cube.values_mut() {
        *v = (rng.next_u64() % 9) as f64;
    }
    cube.transform(&FilterKind::Db4.filter())
}

/// Parses a `--ranges lo:hi,lo:hi` flag value.
fn parse_ranges(ranges_text: &str) -> Vec<(usize, usize)> {
    ranges_text
        .split(',')
        .map(|pair| {
            let Some((lo, hi)) = pair.split_once(':') else {
                eprintln!("--ranges: expected lo:hi, got '{pair}'");
                usage();
            };
            match (lo.parse(), hi.parse()) {
                (Ok(lo), Ok(hi)) => (lo, hi),
                _ => {
                    eprintln!("--ranges: cannot parse '{pair}'");
                    usage();
                }
            }
        })
        .collect()
}

/// Spins up the concurrent query service over the workspace's demo cube
/// and serves the `aims-serve` wire protocol until a client SHUTDOWN.
fn cmd_serve(flags: &HashMap<String, String>) {
    use aims::service::{QueryService, Server, ServiceConfig};
    use std::io::Write as _;
    use std::sync::Arc;

    let port: u16 = flag(flags, "port", 0);
    let side: usize = flag(flags, "side", 64);
    let block: usize = flag(flags, "block", 32);
    let cache: usize = flag(flags, "cache", 256);
    let queue: usize = flag(flags, "queue", 64);
    let seed: u64 = flag(flags, "seed", 41);

    let cube = demo_cube(side, seed);
    let config =
        ServiceConfig { queue_capacity: queue, cache_blocks: cache, ..ServiceConfig::default() };
    let service = Arc::new(QueryService::new(cube, block, config));
    let server = Server::spawn(Arc::clone(&service), &format!("127.0.0.1:{port}"))
        .or_exit("serve: bind failed");
    println!("aims-serve listening on 127.0.0.1:{}", server.port());
    std::io::stdout().flush().ok();
    server.join();
    service.shutdown();
    println!("aims-serve: clean shutdown");
}

/// Drives one progressive range sum against a running server and prints
/// the refinement trace.
fn cmd_query_remote(flags: &HashMap<String, String>, connect: &str) {
    use aims::service::{QuerySpec, TcpClient, Tier};

    let ranges_text = required(flags, "ranges");
    let ranges = parse_ranges(&ranges_text);
    let priority: String = flag(flags, "priority", "interactive".into());
    let deadline_ms: u64 = flag(flags, "deadline-ms", 0);
    let mut spec = match priority.as_str() {
        "interactive" => QuerySpec::interactive(ranges),
        "batch" => QuerySpec::batch(ranges),
        _ => {
            eprintln!("unknown priority '{priority}' (interactive|batch)");
            usage();
        }
    };
    if deadline_ms > 0 {
        spec = spec.with_deadline(std::time::Duration::from_millis(deadline_ms));
    }

    let mut client =
        TcpClient::connect(connect).or_exit(&format!("query: cannot connect to {connect}"));
    let out = client.run_query(1, &spec).or_exit("query");
    for r in &out.trace {
        let tier =
            if r.tier == Tier::Normal { String::new() } else { format!(" [{}]", r.tier.label()) };
        println!(
            "  round {:>3}: {:>6}/{:<6} coefficients, estimate {:.4} (bound {:.4}){tier}",
            r.round, r.coefficients_used, r.total_coefficients, r.estimate, r.error_bound
        );
    }
    print_answer("query", &ranges_text, &out);
}

/// Prints a remote query's final answer, or exits 1 if it ended without
/// one.
fn print_answer(cmd: &str, ranges: &str, out: &aims::service::RemoteOutcome) {
    use aims::service::ProgressKind;

    match (out.kind, &out.last) {
        (ProgressKind::Done, Some(r)) => println!("done: {ranges} = {:.4} (exact)", r.estimate),
        (ProgressKind::DeadlineExpired, Some(r)) => {
            println!("deadline expired: {ranges} = {:.4} +/- {:.4}", r.estimate, r.error_bound);
        }
        (ProgressKind::Shed, Some(r)) => println!(
            "shed under load: {ranges} = {:.4} +/- {:.4} (best-so-far)",
            r.estimate, r.error_bound
        ),
        (kind, _) => {
            eprintln!("{cmd}: query ended without an answer: {kind:?}");
            exit(1);
        }
    }
}

fn cmd_query(flags: &HashMap<String, String>) {
    if let Some(connect) = flags.get("connect") {
        let connect = connect.clone();
        return cmd_query_remote(flags, &connect);
    }
    let session = load_stream(flags);
    let channel: usize = flag(flags, "channel", 0);
    let from: f64 = flag(flags, "from", 0.0);
    let to: f64 = flag(flags, "to", session.duration());
    let op: String = flag(flags, "op", "avg".into());

    let mut system = AimsSystem::new(AimsConfig::default());
    system.ingest(&session);
    let result = match op.as_str() {
        "avg" => system.channel_average(channel, from, to),
        "sum" => system.channel_range_sum(channel, from, to),
        "point" => system.channel_value(channel, from),
        _ => {
            eprintln!("unknown op '{op}' (avg|sum|point)");
            usage();
        }
    };
    match result {
        Some(v) => {
            let name = &session.spec().channel_names[channel.min(session.channels() - 1)];
            println!(
                "{op}({name}, {from}s..{to}s) = {v:.4}  [{} block reads]",
                system.total_block_reads()
            );
        }
        None => {
            eprintln!("query out of range (channel {channel}, {from}s..{to}s)");
            exit(1);
        }
    }
}

fn cmd_recognize(flags: &HashMap<String, String>) {
    let signs: usize = flag(flags, "signs", 8);
    let sentence: usize = flag(flags, "sentence", 12);
    let seed: u64 = flag(flags, "seed", 3);

    let vocab = AslVocabulary::synthetic(signs, seed, CyberGloveRig::default());
    let mut noise = NoiseSource::seeded(seed.wrapping_add(1));
    let templates: Vec<(usize, _)> = (0..vocab.len())
        .flat_map(|l| (0..2).map(move |_| l))
        .map(|l| (l, vocab.instance(l, &mut noise).stream))
        .collect();
    let mut recognizer =
        AimsSystem::online_recognizer(&templates, vocab.rig.spec(), IsolationConfig::default());

    let labels: Vec<usize> = (0..sentence).map(|i| (i * 5 + 2) % vocab.len()).collect();
    let (stream, truth) = vocab.sentence(&labels, &mut noise);
    println!("stream: {} frames, {} signs performed", stream.len(), truth.len());
    let detections = recognizer.process_stream(&stream);
    for d in &detections {
        println!(
            "  {:>6} frames {:>5}..{:<5} (evidence {:.2})",
            vocab.signs[d.label].name, d.start, d.end, d.peak_evidence
        );
    }
    let truth_tuples: Vec<(usize, usize, usize)> =
        truth.iter().map(|t| (t.label, t.start, t.end)).collect();
    let report = evaluate_isolation(&detections, &truth_tuples, 0.3);
    println!(
        "F1 {:.2}, label accuracy {:.2} over {} detections",
        report.f1,
        report.label_accuracy,
        detections.len()
    );
}

/// Runs the quickstart pipeline end to end (capture → ingest → offline and
/// online queries), then dumps everything the components recorded into the
/// global telemetry registry.
fn cmd_metrics(flags: &HashMap<String, String>) {
    use aims::dsp::filters::FilterKind;
    use aims::dsp::poly::Polynomial;
    use aims::propolyne::cube::AttributeSpace;
    use aims::propolyne::query::RangeSumQuery;

    let seconds: f64 = flag(flags, "seconds", 2.0);
    let seed: u64 = flag(flags, "seed", 7);
    let format = format_flag(flags, &["table", "json"]);
    if seconds <= 0.0 || seconds.is_nan() {
        eprintln!("--seconds must be positive, got {seconds}");
        exit(2);
    }

    // Acquisition + storage: capture a session and serve point/range
    // queries from blocked wavelet storage through the buffer pools.
    let rig = CyberGloveRig::default();
    let mut noise = NoiseSource::seeded(seed);
    let session = rig.record_session(seconds, 0.6, &mut noise);
    let mut system = AimsSystem::new(AimsConfig::default());
    system.ingest(&session);
    for c in 0..session.channels().min(4) {
        system.channel_value(c, seconds / 2.0);
        system.channel_average(c, 0.0, seconds);
    }

    // Offline analysis: a small ProPolyne cube over two channels, one
    // exact COUNT and one progressive SUM.
    let space = AttributeSpace::new(vec![(-120.0, 120.0); 2], vec![32; 2]);
    let tuples: Vec<Vec<f64>> =
        (0..session.len()).map(|t| vec![session.value(t, 0), session.value(t, 1)]).collect();
    let engine = AimsSystem::offline_engine(&space, tuples, &FilterKind::Db4.filter());
    engine.evaluate(&RangeSumQuery::count(vec![(0, 31), (0, 31)]));
    engine.progressive(&RangeSumQuery::sum_poly(
        vec![(0, 31), (0, 31)],
        0,
        Polynomial::monomial(1),
    ));

    let snap = aims::telemetry::global().snapshot();
    if format == "json" {
        print!("{}", snap.to_json_lines());
    } else {
        print!("{}", snap.render_table());
    }
}

/// Runs the storage-fault drill ([`aims::drills::faults`]).
fn cmd_faults(flags: &HashMap<String, String>) {
    use aims::drills::faults::{run, Config, KINDS};

    let format = format_flag(flags, &["table", "json"]);
    let d = Config::default();
    let kind_name: String = flag(flags, "kind", "read".into());
    let Some(&(_, kind)) = KINDS.iter().find(|(name, _)| *name == kind_name) else {
        eprintln!("unknown fault kind '{kind_name}' (read|flip|torn|dead)");
        usage();
    };
    let cfg = Config {
        seed: flag(flags, "seed", d.seed),
        kind,
        rate: rate_flag(flags, "rate", d.rate),
        budget: flag(flags, "budget", d.budget),
    };
    finish("faults", &run(&cfg), &format);
}

/// Runs the sensor-fault ingest drill ([`aims::drills::ingest`]).
fn cmd_ingest_faults(flags: &HashMap<String, String>) {
    use aims::acquisition::ingest::RepairPolicy;
    use aims::drills::ingest::{run, Config};
    use aims::sensors::faulty::SensorFaultPlan;

    let format = format_flag(flags, &["table", "json"]);
    let seed: u64 = flag(flags, "seed", 2003);
    let seconds: f64 = flag(flags, "seconds", 4.0);
    if seconds <= 0.0 || seconds.is_nan() {
        eprintln!("--seconds must be positive, got {seconds}");
        exit(2);
    }
    let policy_name: String = flag(flags, "policy", "interpolate".into());
    let Some(&policy) = RepairPolicy::ALL.iter().find(|p| p.name() == policy_name) else {
        eprintln!("unknown repair policy '{policy_name}' (hold|interpolate)");
        usage();
    };
    let plan = SensorFaultPlan {
        dropout_rate: rate_flag(flags, "dropout", 0.1),
        stuck_rate: rate_flag(flags, "stuck", 0.0),
        spike_rate: rate_flag(flags, "spike", 0.0),
        duplicate_rate: rate_flag(flags, "dup", 0.0),
        reorder_rate: rate_flag(flags, "reorder", 0.0),
        dead_channel_fraction: rate_flag(flags, "dead", 0.0),
        ..SensorFaultPlan::none(seed)
    };
    finish("ingest-faults", &run(&Config { plan, policy, seconds }), &format);
}

/// Prints one query's cost attribution as an aligned table.
fn print_profile(profile: &aims::service::QueryProfile) {
    println!("  trace id          : {:#018x}", profile.trace_id);
    println!("  queue wait        : {:.3} ms", profile.queue_wait_ns as f64 / 1e6);
    println!("  latency           : {:.3} ms", profile.latency_ms());
    println!("  rounds            : {}", profile.rounds);
    println!(
        "  blocks            : {} read, {} shared, {} degraded",
        profile.blocks_read, profile.blocks_shared, profile.degraded_blocks
    );
    println!(
        "  cache             : {} hits / {} misses ({:.0}% hit ratio)",
        profile.cache_hits,
        profile.cache_misses,
        profile.cache_hit_ratio() * 100.0
    );
    println!("  retries           : {}", profile.retries);
    for p in &profile.trajectory {
        println!(
            "    round {:>3}: {:>6} coefficients, bound {:.4}",
            p.round, p.coefficients_used, p.error_bound
        );
    }
}

/// Runs a traced drill and dumps the flight recorder.
///
/// Locally (default): a demo service answers a few overlapping traced
/// range sums; each query's `QueryProfile` is printed, then the flight
/// recorder's events — as a table, or as Chrome trace-event JSON
/// (`--format chrome`, loadable in `about:tracing`/Perfetto) to stdout
/// or `--out FILE`. With `--connect`, one traced query runs against a
/// live server instead and its wire-returned profile is printed (the
/// recorder lives server-side).
fn cmd_trace(flags: &HashMap<String, String>) {
    use aims::service::{Outcome, QueryService, QuerySpec, ServiceConfig, TcpClient};
    use aims::telemetry::global_recorder;

    if let Some(connect) = flags.get("connect") {
        let ranges_text = required(flags, "ranges");
        let ranges = parse_ranges(&ranges_text);
        let mut client = TcpClient::connect(connect.as_str())
            .or_exit(&format!("trace: cannot connect to {connect}"));
        let out = client.run_query(1, &QuerySpec::interactive(ranges).traced()).or_exit("trace");
        print_answer("trace", &ranges_text, &out);
        match out.profile {
            Some(p) => print_profile(&p),
            None => eprintln!("trace: server returned no profile (pre-tracing server?)"),
        }
        return;
    }

    let side: usize = flag(flags, "side", 64);
    let block: usize = flag(flags, "block", 32);
    let seed: u64 = flag(flags, "seed", 41);
    let queries: usize = flag(flags, "queries", 4);
    let format = format_flag(flags, &["table", "chrome"]);
    let out_path = flags.get("out").cloned();

    let service = QueryService::new(demo_cube(side, seed), block, ServiceConfig::default());
    for k in 0..queries {
        let lo = (k * 7) % (side / 2);
        let hi = (lo + side / 2).min(side - 1);
        let spec = QuerySpec::interactive(vec![(lo, hi), (0, side - 1)]).traced();
        let handle = service.submit(spec).or_exit("trace: submit failed");
        let (_, outcome, profile) = handle.collect_profiled();
        match outcome {
            Outcome::Done(r) => println!("query {k} [{lo}:{hi}] = {:.4}", r.estimate),
            other => {
                eprintln!("trace: query {k} did not complete: {other:?}");
                exit(1);
            }
        }
        match profile {
            Some(p) => print_profile(&p),
            None => {
                eprintln!("trace: traced query {k} yielded no profile");
                exit(1);
            }
        }
    }
    service.shutdown();

    let recorder = global_recorder();
    if format == "chrome" {
        let json = recorder.export_chrome_trace();
        match out_path {
            Some(path) => {
                std::fs::write(&path, &json).or_exit(&format!("trace: cannot write {path}"));
                println!(
                    "wrote {path}: {} events (open in about:tracing or Perfetto)",
                    recorder.events().len()
                );
            }
            None => println!("{json}"),
        }
    } else {
        use aims::telemetry::AttrValue;
        let fmt_attr = |v: &AttrValue| match *v {
            AttrValue::U64(x) => x.to_string(),
            AttrValue::I64(x) => x.to_string(),
            AttrValue::F64(x) => format!("{x:.4}"),
            AttrValue::Str(s) => s.to_string(),
        };
        let events = recorder.events();
        println!("\n-- flight recorder ({} events) --", events.len());
        for e in &events {
            let attrs: Vec<String> =
                e.attrs().iter().map(|(k, v)| format!("{k}={}", fmt_attr(v))).collect();
            println!(
                "  [{}] {:>10.3} ms  {:<16} {}",
                e.trace_id,
                e.ts_ns as f64 / 1e6,
                e.name,
                attrs.join(" ")
            );
        }
    }
}

/// Renders the `"kind":"session"` rows the server interleaves into its
/// METRICS_REPLY: one line per live (queued or active) session.
fn print_session_rows(json_lines: &str) {
    use aims::telemetry::json;

    let sessions: Vec<json::JsonValue> = json_lines
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.str("kind") == Some("session"))
        .collect();
    if sessions.is_empty() {
        println!("no live sessions\n");
        return;
    }
    println!(
        "{:>6} {:<7} {:<12} {:<8} {:<7} {:>6} {:>10} {:>12} {:>9} {:>8}",
        "id",
        "state",
        "priority",
        "tier",
        "traced",
        "rounds",
        "used/total",
        "bound",
        "wait ms",
        "age ms"
    );
    for s in &sessions {
        let num = |k: &str| s.num(k).unwrap_or(0.0);
        let bound = match s.get("bound").and_then(json::JsonValue::as_f64) {
            Some(b) => format!("{b:.4}"),
            None => "inf".to_string(),
        };
        println!(
            "{:>6} {:<7} {:<12} {:<8} {:<7} {:>6} {:>10} {:>12} {:>9.3} {:>8}",
            num("id") as u64,
            s.str("state").unwrap_or("?"),
            s.str("priority").unwrap_or("?"),
            s.str("tier").unwrap_or("?"),
            match s.get("traced") {
                Some(json::JsonValue::Bool(true)) => "yes",
                Some(json::JsonValue::Bool(false)) => "no",
                _ => "?",
            },
            num("rounds") as u64,
            format!("{}/{}", num("used") as u64, num("total") as u64),
            bound,
            num("queue_wait_ns") / 1e6,
            num("age_ms") as u64,
        );
    }
    println!();
}

/// Polls a running server's METRICS_REQ and renders the telemetry
/// snapshot — a live `top`-style view. The wire carries structured JSON
/// lines (metric and session rows); the tables are rendered client-side.
/// One compact line summarizing the tiered ingest engine, shown by `top`
/// when the server's snapshot carries `tier.*` counters (servers without
/// a tiered store print nothing).
fn print_tier_row(snap: &aims::telemetry::Snapshot) {
    let opened = snap.counter("tier.segments.open");
    let sealed = snap.counter("tier.segments.sealed");
    let compacted = snap.counter("tier.segments.compacted");
    if opened + sealed + compacted == 0 {
        return;
    }
    let pending = snap.gauge("tier.segments.raw_pending").unwrap_or(0.0);
    let runs = snap.counter("tier.compaction.runs");
    let ms = snap.counter("tier.compaction.ns") as f64 / 1e6;
    println!(
        "tiers: {opened} opened / {sealed} sealed / {compacted} compacted \
         ({pending:.0} raw pending), {runs} compaction runs ({ms:.1} ms), \
         {} hot rows / {} merged queries\n",
        snap.counter("tier.query.hot_rows"),
        snap.counter("tier.query.merged"),
    );
}

fn cmd_top(flags: &HashMap<String, String>) {
    use aims::service::TcpClient;
    use aims::telemetry::Snapshot;

    let connect = required(flags, "connect");
    let interval_ms: u64 = flag(flags, "interval-ms", 1000);
    let iterations: usize = flag(flags, "iterations", 0);
    let format = format_flag(flags, &["table", "json"]);

    let mut client =
        TcpClient::connect(connect.as_str()).or_exit(&format!("top: cannot connect to {connect}"));
    let mut tick = 0usize;
    loop {
        let json = client.metrics().or_exit("top");
        tick += 1;
        if format == "json" {
            print!("{json}");
        } else {
            let snap =
                Snapshot::from_json_lines(&json).or_exit("top: server sent unparseable metrics");
            println!("-- {connect} tick {tick} --");
            print_session_rows(&json);
            print_tier_row(&snap);
            print!("{}", snap.render_table());
        }
        if iterations > 0 && tick >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `aims-cli kernels` — report the kernel dispatch table and the
/// autotuner's resolved tile/threshold, then time one serial 2-D
/// transform per filter so a host's actual kernel speed is one command
/// away (the numbers are the single-core side of experiment E29).
fn cmd_kernels(flags: &HashMap<String, String>) {
    use aims::dsp::dwt::{dwt_standard_md_with, idwt_standard_md_with};
    use aims::dsp::filters::FilterKind;

    let side: usize = flag(flags, "side", 256);
    if !side.is_power_of_two() || side < 2 {
        eprintln!("--side must be a power of two >= 2, got {side}");
        exit(2);
    }

    let tune = aims::exec::tuning();
    println!("autotuner ({}):", if tune.from_env { "AIMS_TILE override" } else { "calibrated" });
    println!("  strided tile width:     {}", tune.tile);
    println!("  serial-below threshold: {} elements", tune.par_threshold);

    println!("\nkernel dispatch:");
    for kind in FilterKind::ALL {
        let f = kind.filter();
        println!("  {:6} -> {}", f.name(), aims::dsp::kernel::kernel_name(&f));
    }

    let serial = aims::exec::ThreadPool::new(1);
    let dims = [side, side];
    let data: Vec<f64> =
        (0..side * side).map(|i| ((i % 613) as f64 * 0.25).sin() + i as f64 * 1e-6).collect();
    println!("\nserial 2-D DWT {side}x{side} (forward + inverse):");
    let before = aims::telemetry::global().snapshot();
    for kind in FilterKind::ALL {
        let f = kind.filter();
        let start = std::time::Instant::now();
        let fwd = dwt_standard_md_with(&serial, &data, &dims, &f);
        let inv = idwt_standard_md_with(&serial, &fwd, &dims, &f);
        let elapsed = start.elapsed();
        let worst = inv.iter().zip(&data).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max);
        println!("  {:6} {:>9.1?}  roundtrip max err {worst:.2e}", f.name(), elapsed);
    }
    let delta = aims::telemetry::global().snapshot().delta_since(&before);
    println!(
        "\nscratch reuse (dsp.kernel.scratch_reuse): {}",
        delta.counter("dsp.kernel.scratch_reuse")
    );
}

/// Runs the composed chaos drill ([`aims::chaos`]) under `--seed`, or
/// `AIMS_CHAOS_SEED`.
fn cmd_chaos(flags: &HashMap<String, String>) {
    use aims::chaos::{run_drill, ChaosConfig};

    let seed: u64 = flag(flags, "seed", aims::drills::env_seed("AIMS_CHAOS_SEED", 4242));
    let format = format_flag(flags, &["table", "json"]);
    finish("chaos", &run_drill(&ChaosConfig { seed, ..ChaosConfig::default() }), &format);
}

/// Runs the WAL crash drill ([`aims::drills::durability`]).
fn cmd_durability(flags: &HashMap<String, String>) {
    use aims::drills::durability::{run, Config};
    use aims::storage::file::DurabilityMode;

    let format = format_flag(flags, &["table", "json"]);
    let mode_name: String = flag(flags, "mode", "always".into());
    let Some(mode) = DurabilityMode::parse(&mode_name) else {
        eprintln!("unknown durability mode '{mode_name}' (always|periodic[:K]|none)");
        usage();
    };
    let d = Config::default();
    let cfg = Config {
        mode,
        seed: flag(flags, "seed", d.seed),
        blocks: flag(flags, "blocks", d.blocks),
        block_size: flag(flags, "block-size", d.block_size),
        writes: flag(flags, "writes", d.writes),
        dir: flags.get("dir").map(std::path::PathBuf::from),
    };
    if cfg.blocks == 0 || cfg.block_size == 0 {
        eprintln!("need --blocks > 0 and --block-size > 0");
        exit(2);
    }
    finish("durability", &run(&cfg), &format);
}

/// Runs the tiered-ingest drill ([`aims::drills::tiers`]).
fn cmd_tiers(flags: &HashMap<String, String>) {
    use aims::drills::tiers::{run, Config};

    let format = format_flag(flags, &["table", "json"]);
    let d = Config::default();
    let cfg = Config {
        seed: flag(flags, "seed", d.seed),
        samples: flag(flags, "samples", d.samples),
        segment: flag(flags, "segment", d.segment),
        block: flag(flags, "block", d.block),
        dir: flags.get("dir").map(std::path::PathBuf::from),
    };
    let (seg, block) = (cfg.segment, cfg.block);
    if cfg.samples == 0 || !seg.is_power_of_two() || !block.is_power_of_two() || block > seg {
        eprintln!("need --samples > 0 and power-of-two --block <= --segment");
        exit(2);
    }
    finish("tiers", &run(&cfg), &format);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "ingest" => cmd_ingest(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "recognize" => cmd_recognize(&flags),
        "metrics" => cmd_metrics(&flags),
        "faults" => cmd_faults(&flags),
        "ingest-faults" => cmd_ingest_faults(&flags),
        "trace" => cmd_trace(&flags),
        "top" => cmd_top(&flags),
        "chaos" => cmd_chaos(&flags),
        "kernels" => cmd_kernels(&flags),
        "durability" => cmd_durability(&flags),
        "tiers" => cmd_tiers(&flags),
        _ => usage(),
    }
}
