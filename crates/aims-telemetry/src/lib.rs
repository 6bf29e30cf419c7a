//! Observability substrate for the AIMS reproduction.
//!
//! The paper's claims are quantitative — sampling-rate savings in
//! acquisition (§3.1), the `< 1 + lg B` needed-items-per-block bound in
//! storage (§3.2), progressive-error-vs-I/O curves in ProPolyne (§3.3)
//! and recognition latency in the online component (§3.4) — so every
//! subsystem needs a uniform way to *measure itself*. This crate is that
//! layer: std-only (the build environment is offline), thread-safe, and
//! cheap enough to leave compiled into the hot paths.
//!
//! Three pieces:
//!
//! - [`registry`]: a global + instantiable [`MetricsRegistry`] of atomic
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s and log-bucketed
//!   [`metrics::Histogram`]s (p50/p95/p99/max).
//! - [`span`]: RAII timers — `let _g = span!("storage.alloc");` — that
//!   record elapsed nanoseconds into the histogram `<name>.ns`.
//! - [`snapshot`]: a point-in-time [`snapshot::Snapshot`] of a registry,
//!   renderable as an aligned text table or as JSON lines for machine
//!   diffing across runs (and parseable back via
//!   [`snapshot::Snapshot::from_json_lines`]).
//! - [`trace`]: request-scoped tracing — a [`trace::TraceContext`]
//!   passed explicitly down the serving path stamps events with a
//!   [`trace::TraceId`] into a lock-sharded bounded
//!   [`trace::FlightRecorder`], exportable as Chrome trace-event JSON.
//!   Zero-cost when disabled.
//! - [`json`]: a minimal std-only JSON value parser shared by the tools
//!   that read the JSON this workspace writes.
//!
//! Metric names follow `component.subsystem.metric`
//! (e.g. `storage.pool.hits`, `dsp.dwt.forward.ns`); duration histograms
//! end in `.ns`.
//!
//! ```
//! use aims_telemetry::{global, span};
//!
//! global().counter("doc.example.calls").inc();
//! {
//!     let _g = span!("doc.example.work");
//!     // ... timed region ...
//! }
//! let snap = global().snapshot();
//! assert!(snap.counter("doc.example.calls") >= 1);
//! assert!(snap.histogram("doc.example.work.ns").is_some());
//! ```

pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{global, MetricsRegistry};
pub use snapshot::{HistogramSummary, Snapshot};
pub use span::SpanGuard;
pub use trace::{
    global_recorder, AttrValue, FlightRecorder, TraceContext, TraceEvent, TraceId, TraceSpan,
    MAX_EVENT_ATTRS,
};

/// Opens an RAII span timer on the global registry; elapsed time lands in
/// histogram `<name>.ns` when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}
