//! The deterministic fault-matrix harness.
//!
//! Drives the fault-tolerant storage path through a grid of
//! {fault kind × error rate × retry budget} and asserts the two contracts
//! of the design:
//!
//! 1. **Exact recovery below the retry budget** — when every block the
//!    query touches has a planned transient-failure streak within the
//!    budget, the answer is bit-identical to the fault-free path.
//! 2. **Bounded-error degradation above it** — when a block stays
//!    unreadable, the query still answers, and the guaranteed error
//!    bound dominates the true error.
//!
//! Every fault decision derives from a single u64 seed (pinned here via
//! `AIMS_FAULT_SEED`, default 41378; ci.sh also runs seeds 13 and 1013),
//! so the whole matrix is reproducible bit-for-bit. Contract 1 and 2 per
//! query are [`faults::check`], the storage-fault drill's own check.

use aims::drills::{env_seed, faults};
use aims::storage::buffer::BufferPool;
use aims::storage::device::{BlockDevice, RetryPolicy};
use aims::storage::error_tree::range_query_set;
use aims::storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims::storage::store::{AllocKind, WaveletStore};

const N: usize = 256;
const BLOCK: usize = 8;

fn seed() -> u64 {
    env_seed("AIMS_FAULT_SEED", 41378)
}

fn signal() -> Vec<f64> {
    (0..N).map(|i| ((i * 11 + 3) % 17) as f64 - 8.0 + (i as f64 * 0.01)).collect()
}

fn plain_store() -> WaveletStore {
    WaveletStore::from_signal(&signal(), BLOCK, AllocKind::TreeTiling)
}

fn faulty_store(plan: FaultPlan) -> WaveletStore<FaultyDevice> {
    WaveletStore::from_signal_on(&signal(), BLOCK, AllocKind::TreeTiling, |bs, nb| {
        FaultyDevice::with_plan(bs, nb, plan)
    })
}

/// The query workload: a mix of short, long and single-point ranges.
fn ranges() -> Vec<(usize, usize)> {
    vec![(0, 255), (3, 77), (100, 199), (42, 42), (128, 255), (17, 230)]
}

#[test]
fn zero_rate_is_bit_identical_for_every_fault_kind() {
    let s = seed();
    let plain = plain_store();
    for kind in FaultKind::ALL {
        let faulty = faulty_store(FaultPlan::uniform(s, kind, 0.0));
        for (a, b) in ranges() {
            let expect = plain.range_sum(a, b, &mut BufferPool::new(64));
            let got =
                faulty.range_sum_outcome(a, b, &mut BufferPool::new(64), &RetryPolicy::none());
            assert!(!got.degraded());
            assert_eq!(faults::check(&format!("{kind:?} zero-rate [{a},{b}]"), expect, &got), None);
            assert_eq!(got.error_bound, 0.0);
        }
        for t in [0usize, 31, 130, 255] {
            let expect = plain.point_value(t, &mut BufferPool::new(64));
            let got = faulty.point_value_outcome(t, &mut BufferPool::new(64), &RetryPolicy::none());
            assert_eq!(expect.to_bits(), got.value.to_bits(), "{kind:?} zero-rate t={t}");
        }
    }
}

/// The matrix proper: transient fault kinds × rates × retry budgets.
///
/// A fresh store per (cell, query) keeps the per-block attempt counters at
/// zero, so `planned_read_failures` predicts exactly whether the retry
/// budget suffices — recovery and degradation are asserted, not sampled.
#[test]
fn transient_fault_matrix_recovers_or_degrades_predictably() {
    let s = seed();
    let plain = plain_store();
    for kind in [FaultKind::ReadError, FaultKind::BitFlip] {
        for rate in [0.2, 0.5, 0.85] {
            for budget in [0usize, 2, 6] {
                for (a, b) in ranges() {
                    let faulty = faulty_store(FaultPlan::uniform(s, kind, rate));
                    let set = range_query_set(a, b, N);
                    let worst = faulty
                        .blocks_for(&set)
                        .iter()
                        .map(|&blk| faulty.device().planned_read_failures(blk))
                        .max()
                        .unwrap();
                    let policy = RetryPolicy { retries: budget, ..RetryPolicy::none() };
                    // Pool holds every touched block: each is fetched once.
                    let got = faulty.range_sum_outcome(a, b, &mut BufferPool::new(64), &policy);
                    let should_degrade = worst > budget;
                    assert_eq!(
                        got.degraded(),
                        should_degrade,
                        "{kind:?} rate={rate} budget={budget} [{a},{b}]: worst streak {worst}"
                    );
                    let expect = plain.range_sum(a, b, &mut BufferPool::new(64));
                    let label = format!("{kind:?} rate={rate} budget={budget} [{a},{b}]");
                    assert_eq!(faults::check(&label, expect, &got), None);
                }
            }
        }
    }
}

#[test]
fn dead_blocks_degrade_regardless_of_retry_budget() {
    let s = seed();
    let plain = plain_store();
    let faulty = faulty_store(FaultPlan::uniform(s, FaultKind::DeadBlock, 0.25));
    let device = faulty.device();
    let dead: Vec<usize> = (0..device.num_blocks()).filter(|&blk| device.is_dead(blk)).collect();
    assert!(!dead.is_empty(), "seed {s}: no dead blocks at 25% of {}", device.num_blocks());

    let generous = RetryPolicy::with_retries(100);
    for (a, b) in ranges() {
        let set = range_query_set(a, b, N);
        let touches_dead = faulty.blocks_for(&set).iter().any(|blk| dead.contains(blk));
        let got = faulty.range_sum_outcome(a, b, &mut BufferPool::new(64), &generous);
        assert_eq!(got.degraded(), touches_dead, "[{a},{b}] vs dead {dead:?}");
        let expect = plain.range_sum(a, b, &mut BufferPool::new(64));
        assert_eq!(faults::check(&format!("[{a},{b}]"), expect, &got), None);
    }
}

#[test]
fn torn_writes_corrupt_permanently_until_rewrite() {
    let s = seed();
    let plain = plain_store();
    let faulty = faulty_store(FaultPlan::uniform(s, FaultKind::TornWrite, 0.35));
    let torn = faulty.device().torn_blocks();
    assert!(!torn.is_empty(), "seed {s}: no torn writes at 35%");

    let generous = RetryPolicy::with_retries(50);
    for (a, b) in ranges() {
        let set = range_query_set(a, b, N);
        let touches_torn = faulty.blocks_for(&set).iter().any(|blk| torn.contains(blk));
        let got = faulty.range_sum_outcome(a, b, &mut BufferPool::new(64), &generous);
        assert_eq!(got.degraded(), touches_torn, "[{a},{b}] vs torn {torn:?}");
        let expect = plain.range_sum(a, b, &mut BufferPool::new(64));
        assert_eq!(faults::check(&format!("[{a},{b}]"), expect, &got), None);
    }
}

#[test]
fn matrix_outcomes_are_reproducible_per_seed() {
    let s = seed();
    let run = || -> Vec<(u64, f64, usize)> {
        let mut out = Vec::new();
        for kind in [FaultKind::ReadError, FaultKind::BitFlip, FaultKind::DeadBlock] {
            let faulty = faulty_store(FaultPlan::uniform(s, kind, 0.5));
            for (a, b) in ranges() {
                let mut pool = BufferPool::new(64);
                let got = faulty.range_sum_outcome(a, b, &mut pool, &RetryPolicy::with_retries(2));
                out.push((got.value.to_bits(), got.error_bound, got.lost_blocks.len()));
            }
        }
        out
    };
    assert_eq!(run(), run(), "same seed must reproduce the whole matrix bit-for-bit");
}
