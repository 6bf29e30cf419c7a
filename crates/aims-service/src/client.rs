//! In-process TCP client for the wire protocol — used by `aims-cli
//! query --connect`, the CI smoke test, and the E27 benchmark.
//!
//! The client is single-threaded: it reads frames in arrival order and
//! buffers out-of-band events (refinements racing a METRICS reply, say)
//! so request/reply helpers never drop a frame.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::ServiceError;
use crate::profile::QueryProfile;
use crate::session::{QuerySpec, Refinement};
use crate::wire::{read_frame, write_frame, Frame, ProgressKind};

/// A client-side event: a refinement stream element, a typed rejection,
/// or a traced query's profile.
#[derive(Clone, Debug)]
pub enum ClientEvent {
    /// A PROGRESS frame.
    Progress {
        /// Correlation id chosen at submit.
        req_id: u64,
        /// Progress / terminal classification.
        kind: ProgressKind,
        /// The decoded refinement.
        refinement: Refinement,
    },
    /// A REJECT frame.
    Reject {
        /// Correlation id chosen at submit.
        req_id: u64,
        /// [`ServiceError::code`] of the server-side error.
        code: u8,
        /// Error-specific detail (queue capacity for QueueFull).
        detail: u32,
        /// Human-readable reason.
        message: String,
    },
    /// A PROFILE frame (traced queries, just before their terminal
    /// PROGRESS).
    Profile {
        /// Correlation id chosen at submit.
        req_id: u64,
        /// Server-side cost attribution.
        profile: QueryProfile,
    },
}

/// How a remotely-run query ended.
#[derive(Clone, Debug)]
pub struct RemoteOutcome {
    /// Every refinement received, in order.
    pub trace: Vec<Refinement>,
    /// The terminal frame's classification (`Done`, `DeadlineExpired`,
    /// `Shed` or `Cancelled`).
    pub kind: ProgressKind,
    /// The terminal refinement (absent for `Cancelled`).
    pub last: Option<Refinement>,
    /// The query's profile, when it was submitted with tracing.
    pub profile: Option<QueryProfile>,
}

/// A blocking wire-protocol client over one TCP connection.
pub struct TcpClient {
    /// Write side: one write per frame.
    stream: TcpStream,
    /// Read side: a buffered clone of the socket, so a burst of frames
    /// costs one read syscall instead of two per frame.
    reader: BufReader<TcpStream>,
    buffered: VecDeque<ClientEvent>,
}

/// The event a server frame carries; any other frame is handed back.
fn event(frame: Frame) -> Result<ClientEvent, Frame> {
    match frame {
        Frame::Progress { req_id, kind, round, used, total, estimate, bound, tier } => {
            Ok(ClientEvent::Progress {
                req_id,
                kind,
                refinement: Refinement {
                    round,
                    coefficients_used: used as usize,
                    total_coefficients: total as usize,
                    estimate,
                    error_bound: bound,
                    tier,
                },
            })
        }
        Frame::Reject { req_id, code, detail, message } => {
            Ok(ClientEvent::Reject { req_id, code, detail, message })
        }
        Frame::Profile { req_id, profile } => Ok(ClientEvent::Profile { req_id, profile }),
        other => Err(other),
    }
}

fn unexpected(frame: Frame) -> ServiceError {
    ServiceError::Protocol(format!("unexpected frame from server: {frame:?}"))
}

impl TcpClient {
    /// Connects to a running `aims-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient { stream, reader, buffered: VecDeque::new() })
    }

    /// Sets the read timeout used by the event helpers.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Submits a query under a caller-chosen correlation id.
    pub fn submit(&mut self, req_id: u64, spec: &QuerySpec) -> Result<(), ServiceError> {
        let frame = Frame::Submit {
            req_id,
            priority: spec.priority,
            deadline_ms: spec.deadline.map_or(0, |d| d.as_millis() as u64),
            ranges: spec.ranges.iter().map(|&(lo, hi)| (lo as u64, hi as u64)).collect(),
            trace: spec.trace,
        };
        write_frame(&mut self.stream, &frame)
    }

    /// Cancels an in-flight query.
    pub fn cancel(&mut self, req_id: u64) -> Result<(), ServiceError> {
        write_frame(&mut self.stream, &Frame::Cancel { req_id })
    }

    /// Next event (buffered first, then the wire).
    pub fn next_event(&mut self) -> Result<ClientEvent, ServiceError> {
        if let Some(e) = self.buffered.pop_front() {
            return Ok(e);
        }
        loop {
            match event(read_frame(&mut self.reader)?) {
                Ok(e) => return Ok(e),
                // Stray replies to an earlier request: ignore.
                Err(Frame::MetricsReply { .. } | Frame::Goodbye) => continue,
                Err(other) => return Err(unexpected(other)),
            }
        }
    }

    /// Requests and returns a telemetry snapshot (JSON lines: registry
    /// metrics plus `{"kind":"session",..}` rows). Events arriving first
    /// are buffered for [`TcpClient::next_event`].
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        write_frame(&mut self.stream, &Frame::MetricsRequest)?;
        loop {
            match event(read_frame(&mut self.reader)?) {
                Ok(e) => self.buffered.push_back(e),
                Err(Frame::MetricsReply { json }) => return Ok(json),
                Err(Frame::Goodbye) => continue,
                Err(other) => return Err(unexpected(other)),
            }
        }
    }

    /// Asks the server to shut down and waits for its GOODBYE.
    pub fn shutdown_server(&mut self) -> Result<(), ServiceError> {
        write_frame(&mut self.stream, &Frame::Shutdown)?;
        loop {
            match event(read_frame(&mut self.reader)?) {
                Err(Frame::Goodbye) => return Ok(()),
                // Drain any in-flight refinements racing the goodbye.
                Ok(_) | Err(Frame::MetricsReply { .. }) => continue,
                Err(other) => return Err(unexpected(other)),
            }
        }
    }

    /// Submits a query and drains its whole refinement stream.
    ///
    /// Returns the trace and terminal state; a server-side REJECT comes
    /// back as the matching typed [`ServiceError`].
    pub fn run_query(
        &mut self,
        req_id: u64,
        spec: &QuerySpec,
    ) -> Result<RemoteOutcome, ServiceError> {
        self.submit(req_id, spec)?;
        let mut trace = Vec::new();
        let mut profile = None;
        loop {
            match self.next_event()? {
                ClientEvent::Progress { req_id: got, kind, refinement } => {
                    if got != req_id {
                        continue; // some other in-flight query's stream
                    }
                    match kind {
                        ProgressKind::Progress => trace.push(refinement),
                        ProgressKind::Done => {
                            trace.push(refinement);
                            return Ok(RemoteOutcome {
                                trace,
                                kind,
                                last: Some(refinement),
                                profile,
                            });
                        }
                        ProgressKind::DeadlineExpired | ProgressKind::Shed => {
                            return Ok(RemoteOutcome {
                                trace,
                                kind,
                                last: Some(refinement),
                                profile,
                            });
                        }
                        ProgressKind::Cancelled => {
                            return Ok(RemoteOutcome { trace, kind, last: None, profile });
                        }
                    }
                }
                ClientEvent::Profile { req_id: got, profile: p } => {
                    if got == req_id {
                        profile = Some(p);
                    }
                }
                ClientEvent::Reject { req_id: got, code, detail, message } => {
                    if got != req_id {
                        continue;
                    }
                    return Err(match code {
                        1 => ServiceError::QueueFull { capacity: detail as usize },
                        2 => ServiceError::ShuttingDown,
                        3 => ServiceError::InvalidQuery(message),
                        _ => ServiceError::Protocol(message),
                    });
                }
            }
        }
    }
}
