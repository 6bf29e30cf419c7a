//! How many times each correctness check ran, so the self-test can show
//! that every check runs (a check that never runs cannot fail).

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// An OLAP answer against its `evaluate_prepared` reference.
    Answer,
    /// A wire frame through `encode_body`/`decode_body` and back.
    Codec,
    /// A live `ingest_live` trajectory and answer.
    Live,
    /// `store.len()` against the samples pushed.
    StoreLen,
    /// A drained-store range sum against the serial oracle, to the bit.
    Oracle,
}

#[cfg(test)]
impl Check {
    pub const ALL: [Check; 5] =
        [Check::Answer, Check::Codec, Check::Live, Check::StoreLen, Check::Oracle];
}

static RAN: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

pub fn ran(check: Check) {
    RAN[check as usize].fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
pub fn count(check: Check) -> u64 {
    RAN[check as usize].load(Ordering::Relaxed)
}
