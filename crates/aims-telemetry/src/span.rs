//! RAII span timers.
//!
//! `SpanGuard::enter("storage.alloc")` (or the `span!` macro) starts a
//! timer; when the guard drops, the elapsed nanoseconds are recorded into
//! the global histogram `storage.alloc.ns`. Request-scoped event traces
//! live in [`crate::trace`].

use std::time::Instant;

use crate::registry::global;

/// An active timed region; see the module docs.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name` (convention: `component.subsystem.op`).
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard { name, start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        global().histogram(&format!("{}.ns", self.name)).record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_global_histograms() {
        {
            let _outer = SpanGuard::enter("test.span.outer");
            let _inner = SpanGuard::enter("test.span.inner");
        }
        let snap = global().snapshot();
        assert!(snap.histogram("test.span.outer.ns").unwrap().count >= 1);
        assert!(snap.histogram("test.span.inner.ns").unwrap().count >= 1);
    }
}
