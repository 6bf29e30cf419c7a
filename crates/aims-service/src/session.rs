//! Session-side types: query specs, refinement updates, and the handle a
//! caller polls while the scheduler refines their answer.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::admission::Priority;
use crate::profile::QueryProfile;
use crate::qos::Tier;

/// A range-sum (COUNT-weighted) query plus its scheduling class and
/// optional deadline.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Inclusive `(lo, hi)` bounds per cube dimension.
    pub ranges: Vec<(usize, usize)>,
    /// Scheduling class.
    pub priority: Priority,
    /// Wall-clock budget from submission; `None` runs to completion.
    pub deadline: Option<Duration>,
    /// Request end-to-end tracing: events land in the flight recorder
    /// and the session's terminal update is preceded by an
    /// [`Update::Profile`]. Off by default — untraced queries pay
    /// nothing.
    pub trace: bool,
}

impl QuerySpec {
    /// An interactive query with no deadline.
    pub fn interactive(ranges: Vec<(usize, usize)>) -> Self {
        QuerySpec { ranges, priority: Priority::Interactive, deadline: None, trace: false }
    }

    /// A batch query with no deadline.
    pub fn batch(ranges: Vec<(usize, usize)>) -> Self {
        QuerySpec { ranges, priority: Priority::Batch, deadline: None, trace: false }
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables request-scoped tracing for this query.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One monotonically refining estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Refinement {
    /// Scheduler round that produced this update.
    pub round: u32,
    /// Query coefficients consumed so far.
    pub coefficients_used: usize,
    /// Total query coefficients.
    pub total_coefficients: usize,
    /// Running estimate (bit-identical to serial evaluation at `Done`).
    pub estimate: f64,
    /// Guaranteed bound on `|estimate − exact|` (Cauchy–Schwarz over the
    /// unseen suffix, plus a lost-block term if storage degraded).
    pub error_bound: f64,
    /// Degradation tier the session ran at when this update was produced
    /// ([`Tier::Normal`] whenever the service is unloaded).
    pub tier: Tier,
}

impl Refinement {
    /// Fraction of query coefficients consumed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_coefficients == 0 {
            1.0
        } else {
            self.coefficients_used as f64 / self.total_coefficients as f64
        }
    }
}

/// An event delivered to a session.
#[derive(Clone, Debug)]
pub enum Update {
    /// A refinement; more will follow.
    Progress(Refinement),
    /// The final answer; the session sends nothing after this.
    Done(Refinement),
    /// The deadline passed; this is the best estimate at expiry.
    DeadlineExpired(Refinement),
    /// Overload shed the session: this is its best-so-far answer (finite
    /// estimate and bound), not an error. Terminal.
    Shed(Refinement),
    /// The session was cancelled before completion.
    Cancelled,
    /// Cost attribution for a traced query; arrives immediately before
    /// the terminal update (boxed: the common untraced stream never
    /// carries this weight).
    Profile(Box<QueryProfile>),
}

/// How a session ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Ran to completion.
    Done(Refinement),
    /// Deadline hit first; carries the best estimate at expiry.
    DeadlineExpired(Refinement),
    /// Shed under overload; carries the best-so-far answer.
    Shed(Refinement),
    /// Cancelled mid-flight.
    Cancelled,
    /// The outbox closed without a terminal update — only if the
    /// scheduler died; shutdown delivers [`Update::Cancelled`] to every
    /// session it drops from the queue.
    Disconnected,
}

/// Result of a bounded wait on a session ([`SessionHandle::next_timeout`]).
#[derive(Clone, Debug)]
pub enum Polled {
    /// An update arrived.
    Update(Update),
    /// The outbox closed (after a terminal update).
    Closed,
    /// Nothing arrived within the timeout.
    TimedOut,
}

/// Where a session's updates go: an unbounded channel of updates tagged
/// with a caller-chosen key. A [`SessionHandle`] owns a channel of its
/// own; a TCP connection shares one across all its sessions and tags each
/// with the client's request id.
pub(crate) type Outbox = Sender<(u64, Update)>;

/// The shared controls of one session: its cancel flag and its count of
/// undelivered progress updates.
///
/// The scheduler stops sending progress updates once the count reaches
/// `ServiceConfig::progress_outbox`, dropping intermediate refinements
/// for consumers that fall behind (terminal updates and profiles are
/// never dropped). Whoever drains the outbox must therefore call
/// [`SessionControl::received`] for every update it takes.
#[derive(Clone, Debug, Default)]
pub(crate) struct SessionControl {
    cancel: Arc<AtomicBool>,
    pending: Arc<AtomicUsize>,
}

impl SessionControl {
    /// Requests cancellation. Idempotent; the scheduler stops fetching
    /// blocks this query needed and emits [`Update::Cancelled`].
    pub(crate) fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Releases the outbox slot a progress update held; other updates
    /// never occupy one.
    pub(crate) fn received(&self, u: &Update) {
        if matches!(u, Update::Progress(_)) {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Claims an outbox slot for a progress update unless `cap` are
    /// already taken.
    pub(crate) fn try_reserve(&self, cap: usize) -> bool {
        if self.pending.load(Ordering::SeqCst) >= cap {
            return false;
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        true
    }
}

/// The caller's side of a submitted query: the receiving end of an
/// outbox of its own, plus the session's controls.
///
/// Updates arrive on an unbounded channel so a slow consumer never stalls
/// the scheduler; the outbox cap bounds what piles up. Dropping the
/// handle implicitly cancels the query: the scheduler notices the closed
/// channel and stops fetching blocks on its behalf.
#[derive(Debug)]
pub struct SessionHandle {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<(u64, Update)>,
    pub(crate) control: SessionControl,
}

impl SessionHandle {
    /// Service-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. Idempotent; the scheduler stops fetching
    /// blocks this query needed and emits [`Update::Cancelled`].
    pub fn cancel(&self) {
        self.control.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.control.is_cancelled()
    }

    /// Blocks for the next update; `None` once the service closed the
    /// outbox (after a terminal update).
    pub fn next(&self) -> Option<Update> {
        let (_, u) = self.rx.recv().ok()?;
        self.control.received(&u);
        Some(u)
    }

    /// Like [`SessionHandle::next`] with a timeout.
    pub fn next_timeout(&self, timeout: Duration) -> Polled {
        match self.rx.recv_timeout(timeout) {
            Ok((_, u)) => {
                self.control.received(&u);
                Polled::Update(u)
            }
            Err(RecvTimeoutError::Disconnected) => Polled::Closed,
            Err(RecvTimeoutError::Timeout) => Polled::TimedOut,
        }
    }

    /// Drains updates until the session ends, returning every refinement
    /// seen plus the terminal outcome (any profile is discarded; use
    /// [`SessionHandle::collect_profiled`] to keep it).
    pub fn collect(self) -> (Vec<Refinement>, Outcome) {
        let (trace, outcome, _) = self.collect_profiled();
        (trace, outcome)
    }

    /// Like [`SessionHandle::collect`], but also returns the
    /// [`QueryProfile`] when the query was traced.
    pub fn collect_profiled(self) -> (Vec<Refinement>, Outcome, Option<QueryProfile>) {
        let mut trace = Vec::new();
        let mut profile = None;
        loop {
            match self.next() {
                Some(Update::Progress(r)) => trace.push(r),
                Some(Update::Profile(p)) => profile = Some(*p),
                Some(Update::Done(r)) => {
                    trace.push(r);
                    return (trace, Outcome::Done(r), profile);
                }
                Some(Update::DeadlineExpired(r)) => {
                    return (trace, Outcome::DeadlineExpired(r), profile);
                }
                Some(Update::Shed(r)) => return (trace, Outcome::Shed(r), profile),
                Some(Update::Cancelled) => return (trace, Outcome::Cancelled, profile),
                None => return (trace, Outcome::Disconnected, profile),
            }
        }
    }

    /// Runs the session to its end, returning just the outcome.
    pub fn wait(self) -> Outcome {
        self.collect().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn refinement(used: usize, total: usize) -> Refinement {
        Refinement {
            round: 1,
            coefficients_used: used,
            total_coefficients: total,
            estimate: 1.5,
            error_bound: 0.25,
            tier: Tier::Normal,
        }
    }

    fn handle(id: u64, rx: Receiver<(u64, Update)>) -> SessionHandle {
        let control = SessionControl::default();
        control.pending.store(usize::MAX / 2, Ordering::SeqCst);
        SessionHandle { id, rx, control }
    }

    #[test]
    fn collect_gathers_trace_and_outcome() {
        let (tx, rx) = mpsc::channel();
        let handle = handle(7, rx);
        tx.send((0, Update::Progress(refinement(1, 3)))).unwrap();
        tx.send((0, Update::Progress(refinement(2, 3)))).unwrap();
        tx.send((0, Update::Done(refinement(3, 3)))).unwrap();
        drop(tx);
        let (trace, outcome) = handle.collect();
        assert_eq!(trace.len(), 3);
        assert!(matches!(outcome, Outcome::Done(r) if r.coefficients_used == 3));
    }

    #[test]
    fn dropped_sender_is_disconnected() {
        let (tx, rx) = mpsc::channel::<(u64, Update)>();
        let handle = handle(1, rx);
        drop(tx);
        assert!(matches!(handle.wait(), Outcome::Disconnected));
    }

    #[test]
    fn progress_fraction() {
        assert_eq!(refinement(1, 4).progress(), 0.25);
        assert_eq!(refinement(0, 0).progress(), 1.0);
    }

    #[test]
    fn next_timeout_distinguishes_update_timeout_and_close() {
        let (tx, rx) = mpsc::channel();
        let handle = handle(3, rx);
        assert!(matches!(handle.next_timeout(Duration::from_millis(1)), Polled::TimedOut));
        tx.send((0, Update::Cancelled)).unwrap();
        assert!(matches!(
            handle.next_timeout(Duration::from_millis(50)),
            Polled::Update(Update::Cancelled)
        ));
        drop(tx);
        assert!(matches!(handle.next_timeout(Duration::from_millis(50)), Polled::Closed));
    }

    #[test]
    fn progress_consumption_releases_outbox_slots() {
        let (tx, rx) = mpsc::channel();
        let control = SessionControl::default();
        control.pending.store(2, Ordering::SeqCst);
        let pending = Arc::clone(&control.pending);
        let handle = SessionHandle { id: 4, rx, control };
        tx.send((0, Update::Progress(refinement(1, 3)))).unwrap();
        tx.send((0, Update::Shed(refinement(2, 3)))).unwrap();
        assert!(matches!(handle.next(), Some(Update::Progress(_))));
        assert_eq!(pending.load(Ordering::SeqCst), 1);
        // Terminal updates never occupy outbox slots.
        assert!(matches!(handle.next(), Some(Update::Shed(_))));
        assert_eq!(pending.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shed_collects_as_best_so_far_outcome() {
        let (tx, rx) = mpsc::channel();
        let handle = handle(9, rx);
        tx.send((0, Update::Progress(refinement(1, 4)))).unwrap();
        tx.send((0, Update::Shed(refinement(2, 4)))).unwrap();
        drop(tx);
        let (trace, outcome) = handle.collect();
        assert_eq!(trace.len(), 1);
        match outcome {
            Outcome::Shed(r) => {
                assert!(r.estimate.is_finite());
                assert!(r.error_bound.is_finite());
                assert_eq!(r.coefficients_used, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
    }

    #[test]
    fn cancel_flag_is_shared() {
        let (_tx, rx) = mpsc::channel::<(u64, Update)>();
        let control = SessionControl::default();
        let handle = SessionHandle { id: 2, rx, control: control.clone() };
        assert!(!handle.is_cancelled());
        handle.cancel();
        assert!(control.is_cancelled());
    }
}
