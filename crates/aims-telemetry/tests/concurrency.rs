//! Multi-threaded correctness of the telemetry primitives: counters and
//! histograms must not lose updates under contention, quantiles must stay
//! within the log-bucketing resolution, and nested spans must each record
//! every duration.

use std::sync::Arc;
use std::thread;

use aims_telemetry::{global, MetricsRegistry, SpanGuard};

const THREADS: usize = 8;
const INCREMENTS: usize = 10_000;

#[test]
fn counter_sums_exactly_across_threads() {
    let registry = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let c = registry.counter("test.concurrent.count");
                for _ in 0..INCREMENTS {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(registry.counter("test.concurrent.count").get(), (THREADS * INCREMENTS) as u64);
}

#[test]
fn histogram_count_and_sum_are_exact_across_threads() {
    let registry = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let h = registry.histogram("test.concurrent.hist");
                for i in 0..INCREMENTS {
                    h.record((tid * INCREMENTS + i) as u64 % 1000 + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let h = registry.histogram("test.concurrent.hist");
    assert_eq!(h.count(), (THREADS * INCREMENTS) as u64);
    // Every thread records the same multiset 1..=1000 (80 full cycles), so
    // the exact sum is known.
    let cycle_sum: u64 = (1..=1000).sum();
    let cycles = (THREADS * INCREMENTS / 1000) as u64;
    assert_eq!(h.sum(), cycle_sum * cycles);
    assert_eq!(h.min(), 1);
    assert_eq!(h.max(), 1000);
}

#[test]
fn quantiles_track_known_distributions() {
    let registry = MetricsRegistry::new();
    // Uniform 1..=10_000: quantiles within the ~12.5% bucket resolution.
    let h = registry.histogram("test.quantile.uniform");
    for v in 1..=10_000u64 {
        h.record(v);
    }
    for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
        let got = h.quantile(q) as f64;
        let err = (got - expect).abs() / expect;
        assert!(err < 0.15, "q{q}: got {got}, expect {expect} (err {err:.3})");
    }

    // Point mass: all quantiles collapse onto the single value.
    let p = registry.histogram("test.quantile.point");
    for _ in 0..1000 {
        p.record(42);
    }
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(p.quantile(q), 42, "q{q}");
    }

    // Bimodal 1 / 1_000_000: the median sits on the low mode, p99 on the
    // high mode.
    let b = registry.histogram("test.quantile.bimodal");
    for _ in 0..900 {
        b.record(1);
    }
    for _ in 0..100 {
        b.record(1_000_000);
    }
    assert_eq!(b.quantile(0.5), 1);
    let p99 = b.quantile(0.99) as f64;
    assert!((p99 - 1_000_000.0).abs() / 1_000_000.0 < 0.15, "p99 {p99}");
}

#[test]
fn nested_spans_record_under_concurrency() {
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            thread::spawn(move || {
                for _ in 0..200 {
                    let _outer = SpanGuard::enter("test.nest.outer");
                    let _inner = SpanGuard::enter("test.nest.inner");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = global().snapshot();
    assert!(snap.histogram("test.nest.outer.ns").unwrap().count >= (THREADS * 200) as u64);
    assert!(snap.histogram("test.nest.inner.ns").unwrap().count >= (THREADS * 200) as u64);
}
