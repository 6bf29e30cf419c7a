//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer (and,
//! for the service, rebuilt from the server's `QueryProfile`), kept in
//! memory, and written out once at exit as a Chrome trace
//! (`chrome://tracing`, Perfetto). A span's layer is the part of its
//! name before the first `.`; a layer's self time is the time its spans
//! cover minus the part their child spans cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::LAYERS;

/// Spans kept per run; beyond this the recorder drops (and counts) them.
const MAX_SPANS: usize = 2_000_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    base: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a parent recorded after its children.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Starts a span under `parent` (0 = root) for request `req`.
    pub fn start(&self, name: &'static str, req: u64, parent: u64) -> Open {
        let id = self.reserve();
        Open { id, parent, name, req, start: if self.enabled { Instant::now() } else { self.base } }
    }

    /// Ends a span now.
    pub fn finish(&self, open: Open) {
        if self.enabled {
            self.push(open.id, open.parent, open.name, open.req, open.start, Instant::now());
        }
    }

    /// Records a span with explicit times under a reserved or fresh id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = if id == 0 { self.reserve() } else { id };
            self.push(id, parent, name, req, start, end);
        }
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, req: u64, s: Instant, e: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        let span =
            Span { id, parent, name, req, tid: thread_id(), start_ns: ns(s), end_ns: ns(e.max(s)) };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Self time per layer in milliseconds, for every layer in
    /// [`LAYERS`] (zero for a layer without spans).
    pub fn self_time_ms(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut by_layer: BTreeMap<&str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            if let Some(total) = by_layer.get_mut(layer) {
                *total += (s.end_ns - s.start_ns).saturating_sub(covered);
            }
        }
        LAYERS.iter().map(|&l| (l, by_layer[l] as f64 / 1e6)).collect()
    }

    /// Writes every span as a Chrome trace-event JSON array.
    pub fn dump_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::with_capacity(spans.len() * 160 + 2);
        out.push('[');
        for (k, s) in spans.iter().enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.req
            )
            .expect("write to String");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
