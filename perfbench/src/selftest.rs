//! The benchmark's smoke-scale self-test: every workload, untraced and
//! traced, emits exactly the metrics `BENCHMARK.json` names, with their
//! units; every correctness check runs; and the checks reject wrong
//! answers.

use std::path::PathBuf;

use aims_service::ProgressKind;
use aims_tier::TierStep;

use crate::checks::{self, Check};
use crate::report::{END_TO_END, PER_LAYER};
use crate::{ingest, olap, run, Opts, Workload};

/// `(name, unit)` of every object in the JSON array under `key`. Enough
/// of a parser for `BENCHMARK.json` and the result line, whose objects
/// hold no nested arrays.
fn named_units(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in {obj}"));
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("string end");
    rest[open..close].to_string()
}

/// `(name, unit, value)` of every metric in a result line.
fn result_metrics(line: &str) -> Vec<(String, String, f64)> {
    let body = &line[line.find("\"metrics\"").expect("metrics")..];
    body.split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches("\"metrics\": {\"");
            let name = entry[..entry.find('"').expect("name")].to_string();
            let v = &entry[entry.find("\"value\": ").expect("value") + 9..];
            let value: f64 = v[..v.find(',').expect("value end")].parse().expect("number");
            (name, field(entry, "unit"), value)
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn every_metric_is_emitted_and_every_check_runs() {
    let bench = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json beside the benchmark directory");
    assert_eq!(named_units(&bench, "end_to_end"), owned(END_TO_END));
    assert_eq!(named_units(&bench, "per_layer"), owned(PER_LAYER));

    for (k, workload) in Workload::ALL.into_iter().enumerate() {
        for trace in [false, true] {
            let seed = 100 + 2 * k as u64 + u64::from(trace);
            let opts = Opts {
                workload,
                seed,
                seconds: 2.0,
                trace,
                work_dir: PathBuf::from(".bench_work").join(format!("selftest-{seed}")),
                smoke: true,
            };
            let report = run(&opts).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            let line = report.to_json(trace).expect("every metric measured");
            let got = result_metrics(&line);
            let want = owned(if trace { PER_LAYER } else { END_TO_END });
            let names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(names, want, "{workload:?} trace={trace}");
            if !trace {
                for (name, _, value) in &got {
                    assert!(*value > 0.0, "{workload:?}: {name} = {value}");
                }
            }
            assert!(report.attempted > 0, "{workload:?}: nothing attempted");
        }
    }
    for check in Check::ALL {
        assert!(checks::count(check) > 0, "check {check:?} never ran");
    }
}

#[test]
fn olap_answer_check_rejects_wrong_answers() {
    let done = ProgressKind::Done;
    assert!(olap::check_answer(1, done, 3.0, 0.0, 3.0).is_ok());
    assert!(olap::check_answer(1, done, 3.0 + 1e-12, 0.0, 3.0).is_err(), "exact means bitwise");
    assert!(olap::check_answer(1, ProgressKind::Shed, 3.3, 0.4, 3.0).is_ok());
    assert!(olap::check_answer(1, ProgressKind::Shed, 3.5, 0.4, 3.0).is_err(), "outside bound");
    assert!(olap::check_answer(1, done, 3.5, 0.4, 3.0).is_err(), "widened but wrong");
}

#[test]
fn live_check_rejects_growing_bounds_and_wrong_sums() {
    let step = |bound| TierStep { estimate: 0.0, bound, blocks_consumed: 0 };
    let ok = [step(5.0), step(2.0), step(0.0)];
    assert!(ingest::check_live((0, 9), &ok, 10.0, 10.0, 10.0).is_ok());
    let grows = [step(2.0), step(5.0), step(0.0)];
    assert!(ingest::check_live((0, 9), &grows, 10.0, 10.0, 10.0).is_err());
    let open = [step(5.0), step(1.0)];
    assert!(ingest::check_live((0, 9), &open, 10.0, 10.0, 10.0).is_err());
    assert!(ingest::check_live((0, 9), &ok, 11.0, 10.0, 10.0).is_err());
    assert!(ingest::check_live((0, 9), &ok, f64::NAN, 10.0, 10.0).is_err());
}
