//! The sensor-fault ingest drill: a clean glove session is replayed
//! through a seeded [`FaultySensorRig`] wire into [`SupervisedIngest`],
//! which reorders, deduplicates, repairs and health-tracks it.
//!
//! Contract: with every fault rate at zero the stored stream is
//! bit-identical to the clean session, nothing is repaired and every
//! sample is flagged clean (the supervised path costs nothing on good
//! input); under any schedule every stored value is finite.

use aims_acquisition::ingest::{IngestConfig, IngestOutcome, RepairPolicy, SupervisedIngest};
use aims_acquisition::recorder::RecorderConfig;
use aims_sensors::faulty::{FaultySensorRig, SensorFaultPlan};
use aims_sensors::glove::CyberGloveRig;
use aims_sensors::noise::NoiseSource;
use aims_sensors::types::{MultiStream, SampleQuality};

use super::{json_object, telemetry_since, Report};

/// One drill run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The wire's fault schedule; its seed also seeds the session.
    pub plan: SensorFaultPlan,
    /// How the supervisor fills gaps.
    pub policy: RepairPolicy,
    /// Session length, seconds.
    pub seconds: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            plan: SensorFaultPlan::dropout(2003, 0.1),
            policy: RepairPolicy::Interpolate,
            seconds: 4.0,
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// The injected schedule.
    pub plan: SensorFaultPlan,
    /// The repair policy.
    pub policy: RepairPolicy,
    /// Frames the faulty wire delivered.
    pub wire_frames: usize,
    /// What the supervised ingest stored.
    pub outcome: IngestOutcome,
    /// Relative RMSE of the stored stream against the clean session,
    /// when both share one grid (a degraded ingest may decimate).
    pub relative_rmse: Option<f64>,
    /// `ingest.*` counters moved by this run.
    pub telemetry: Vec<(String, u64)>,
    violations: Vec<String>,
}

/// A seeded glove session of `seconds` at activity 0.6.
pub fn session(seed: u64, seconds: f64) -> MultiStream {
    CyberGloveRig::default().record_session(seconds, 0.6, &mut NoiseSource::seeded(seed))
}

/// Runs the drill over a session seeded by the plan's seed.
pub fn run(cfg: &Config) -> IngestReport {
    run_on(&session(cfg.plan.seed, cfg.seconds), &cfg.plan, cfg.policy)
}

/// Runs the drill over a caller-supplied clean stream.
pub fn run_on(clean: &MultiStream, plan: &SensorFaultPlan, policy: RepairPolicy) -> IngestReport {
    let before = aims_telemetry::global().snapshot();
    let wire = FaultySensorRig::new(plan.clone()).transmit(clean);
    // A recorder buffer that cannot overrun, so the drill measures the
    // injected wire faults alone, not thread scheduling luck.
    let recorder = RecorderConfig { buffer_frames: 1 << 16, batch_size: 64, store_latency_us: 0 };
    let config = IngestConfig { repair: policy, recorder, ..IngestConfig::default() };
    let out = SupervisedIngest::new(config).ingest(clean.spec(), &wire);
    // Stored vs clean samples, frame by frame, when both share one grid
    // (a degraded ingest may decimate).
    let same_grid = out.degrade_factor == 1 && out.stream.len() == clean.len();
    let pairs = || (0..clean.len()).flat_map(|t| out.stream.frame(t).iter().zip(clean.frame(t)));

    let mut violations = Vec::new();
    if plan.is_none() {
        let (frames, factor) = (out.stream.len(), out.degrade_factor);
        if !same_grid {
            violations.push(format!("zero-fault ingest stored {frames} frames x{factor}"));
        } else if let Some(i) = pairs().position(|(x, y)| x.to_bits() != y.to_bits()) {
            violations.push(format!("zero-fault ingest changed frame {}", i / clean.channels()));
        }
        if out.stats.repaired_samples != 0 || !out.quality.all_clean() {
            violations.push("zero-fault ingest repaired or flagged a clean sample".into());
        }
    }
    if let Some(t) =
        (0..out.stream.len()).find(|&t| out.stream.frame(t).iter().any(|v| !v.is_finite()))
    {
        violations.push(format!("non-finite stored value at frame {t}"));
    }
    let relative_rmse = same_grid.then(|| {
        let (err, norm) =
            pairs().fold((0.0, 0.0), |(e, n), (x, y)| (e + (x - y) * (x - y), n + y * y));
        if norm > 0.0 {
            (err / norm).sqrt()
        } else {
            0.0
        }
    });
    IngestReport {
        plan: plan.clone(),
        policy,
        wire_frames: wire.len(),
        outcome: out,
        relative_rmse,
        telemetry: telemetry_since(&before, &["ingest."]),
        violations,
    }
}

impl Report for IngestReport {
    const NAME: &'static str = "sensor-fault ingest drill";

    fn violations(&self) -> Vec<String> {
        self.violations.clone()
    }

    fn fields(&self) -> Vec<(&'static str, String)> {
        let (p, out) = (&self.plan, &self.outcome);
        let quality: Vec<(&str, usize)> = [
            SampleQuality::Clean,
            SampleQuality::Repaired,
            SampleQuality::Suspect,
            SampleQuality::Dead,
        ]
        .iter()
        .map(|&q| (q.name(), out.quality.count(q)))
        .collect();
        let events: Vec<String> = out
            .health_events
            .iter()
            .map(|e| {
                format!(
                    "{{\"frame\":{},\"channel\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    e.frame,
                    e.channel,
                    e.from.name(),
                    e.to.name()
                )
            })
            .collect();
        vec![
            ("seed", p.seed.to_string()),
            ("policy", format!("\"{}\"", self.policy.name())),
            ("dropout", p.dropout_rate.to_string()),
            ("stuck", p.stuck_rate.to_string()),
            ("spike", p.spike_rate.to_string()),
            ("dup", p.duplicate_rate.to_string()),
            ("reorder", p.reorder_rate.to_string()),
            ("dead", p.dead_channel_fraction.to_string()),
            ("wire_frames", self.wire_frames.to_string()),
            ("frames", out.stream.len().to_string()),
            ("channels", out.stream.channels().to_string()),
            ("degrade_factor", out.degrade_factor.to_string()),
            ("repaired_samples", out.stats.repaired_samples.to_string()),
            ("reordered_frames", out.stats.reordered_frames.to_string()),
            ("duplicate_frames", out.stats.duplicate_frames.to_string()),
            ("dropped_frames", out.stats.dropped_frames.to_string()),
            ("relative_rmse", self.relative_rmse.map_or("null".into(), |r| format!("{r:.6}"))),
            ("quality", json_object(&quality)),
            ("dead_channels", format!("{:?}", out.dead_channels())),
            ("health_events", format!("[{}]", events.join(","))),
        ]
    }

    fn telemetry(&self) -> &[(String, u64)] {
        &self.telemetry
    }
}
