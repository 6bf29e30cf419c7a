//! TCP front-end: one listener, a reader and a writer thread per
//! connection (none per query), one [`QueryService`] shared by all.
//!
//! The reader parses client frames from a buffered socket (one read
//! syscall per burst). SUBMIT goes through admission into the
//! connection's one outbox, tagged with the client's request id; a
//! rejection comes back as a typed REJECT frame. CANCEL flips the
//! session's cancel flag, so the scheduler stops fetching its blocks.
//! SHUTDOWN answers GOODBYE and stops the listener. The writer blocks on
//! the outbox and sends every ready update in one write. Sockets set
//! `TCP_NODELAY`: Nagle's algorithm never holds a frame for the client's
//! next ACK. The reader's own replies share the socket lock, one write
//! each.

use std::collections::HashMap;
use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use aims_storage::device::BlockDevice;
use aims_telemetry::global;

use crate::error::ServiceError;
use crate::service::QueryService;
use crate::session::{Outbox, QuerySpec, SessionControl, Update};
use crate::wire::{Frame, MAX_FRAME};

/// How often blocked reads wake up to check the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// A running TCP front-end. Dropping it stops the listener and joins
/// every connection.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `service`.
    pub fn spawn<D: BlockDevice + Send + Sync + 'static>(
        service: Arc<QueryService<D>>,
        addr: &str,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("aims-serve-accept".into())
            .spawn(move || accept_loop(listener, service, stop2))?;
        Ok(Server { local_addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.local_addr.port()
    }

    /// Signals the listener to stop accepting and connections to wind
    /// down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop (and every connection it spawned)
    /// has exited — either via [`Server::stop`] or a client SHUTDOWN
    /// frame.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

fn accept_loop<D: BlockDevice + Send + Sync + 'static>(
    listener: TcpListener,
    service: Arc<QueryService<D>>,
    stop: Arc<AtomicBool>,
) {
    let connections_counter = global().counter("service.net.connections");
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                connections_counter.inc();
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let handle =
                    std::thread::Builder::new().name("aims-serve-conn".into()).spawn(move || {
                        if let Err(e) = serve_connection(stream, service, stop) {
                            global().counter("service.net.conn_errors").inc();
                            // Disconnects are routine; log only real faults.
                            if e.kind() != ErrorKind::UnexpectedEof {
                                eprintln!("aims-serve: connection error: {e}");
                            }
                        }
                    });
                match handle {
                    Ok(h) => workers.push(h),
                    Err(e) => eprintln!("aims-serve: failed to spawn connection thread: {e}"),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => {
                eprintln!("aims-serve: accept error: {e}");
                break;
            }
        }
        // Reap closed connections, so a long-lived server holds only
        // live ones.
        let (done, open) = workers.into_iter().partition(|h| h.is_finished());
        workers = open;
        reap(done);
    }
    stop.store(true, Ordering::SeqCst);
    reap(workers);
}

fn reap(threads: Vec<JoinHandle<()>>) {
    for h in threads {
        if h.join().is_err() {
            eprintln!("aims-serve: connection thread panicked");
        }
    }
}

/// Reads `buf.len()` bytes, tolerating read-timeout wakeups so the stop
/// flag stays responsive. `Ok(false)` means the peer closed (or stop was
/// requested) cleanly *before* any byte of `buf` arrived.
fn read_full(stream: &mut impl Read, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut read = 0usize;
    while read < buf.len() {
        match stream.read(&mut buf[read..]) {
            Ok(0) => {
                return if read == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "truncated frame"))
                };
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) && read == 0 {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame; `Ok(None)` on clean disconnect or stop.
fn read_frame_polled(stream: &mut impl Read, stop: &AtomicBool) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    if !read_full(stream, &mut len, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(ErrorKind::InvalidData, format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len];
    if !read_full(stream, &mut body, stop)? {
        return Err(io::Error::new(ErrorKind::UnexpectedEof, "truncated frame"));
    }
    Frame::decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

/// Sends one reply frame from the reader, in one write.
fn send(out: &Mutex<TcpStream>, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::new();
    frame.encode_into(&mut buf);
    out.lock().expect(OUT_POISONED).write_all(&buf)
}

/// A connection's live sessions, keyed by the client's request id.
type Live = Mutex<HashMap<u64, SessionControl>>;

const LIVE_POISONED: &str = "a connection thread panicked holding its session table";
const OUT_POISONED: &str = "a connection thread panicked while writing";

fn cancel_all(live: &Live) {
    for session in live.lock().expect(LIVE_POISONED).values() {
        session.cancel();
    }
}

/// The connection's one writer: blocks on the outbox, encodes every
/// ready update into one buffer, and sends the batch in one write.
///
/// Taking a progress update releases its session's outbox slot, so a
/// stalled peer blocks this thread, the outboxes fill, and the scheduler
/// drops intermediate refinements (`service.backpressure.dropped_progress`)
/// instead of buffering without bound; terminals are never dropped.
/// Returns once the reader and every session have dropped their senders,
/// or after a failed write, which cancels every live session.
fn write_loop(updates: &Receiver<(u64, Update)>, out: &Mutex<TcpStream>, live: &Live) {
    let mut buf = Vec::new();
    while let Ok(first) = updates.recv() {
        buf.clear();
        {
            let mut live = live.lock().expect(LIVE_POISONED);
            for (req_id, update) in std::iter::once(first).chain(updates.try_iter()) {
                if let Some(session) = live.get(&req_id) {
                    session.received(&update);
                }
                if !matches!(update, Update::Progress(_) | Update::Profile(_)) {
                    live.remove(&req_id);
                }
                Frame::from_update(req_id, update).encode_into(&mut buf);
            }
        }
        if out.lock().expect(OUT_POISONED).write_all(&buf).is_err() {
            // The client left; stop its queries' I/O too.
            cancel_all(live);
            return;
        }
    }
}

fn serve_connection<D: BlockDevice + Send + Sync + 'static>(
    stream: TcpStream,
    service: Arc<QueryService<D>>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    let out = Arc::new(Mutex::new(stream.try_clone()?));
    let live = Arc::new(Live::default());
    let (outbox, updates): (Outbox, _) = mpsc::channel();
    let writer = {
        let (out, live) = (Arc::clone(&out), Arc::clone(&live));
        std::thread::Builder::new()
            .name("aims-serve-write".into())
            .spawn(move || write_loop(&updates, &out, &live))?
    };
    let mut reader = BufReader::new(&stream);
    let result = loop {
        let frame = match read_frame_polled(&mut reader, &stop) {
            Ok(Some(f)) => f,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        match frame {
            Frame::Submit { req_id, priority, deadline_ms, ranges, trace } => {
                let spec = QuerySpec {
                    ranges: ranges.iter().map(|&(lo, hi)| (lo as usize, hi as usize)).collect(),
                    priority,
                    deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
                    trace,
                };
                // Registered before submission: the writer may take the
                // session's first update before `submit_to` returns.
                let control = SessionControl::default();
                live.lock().expect(LIVE_POISONED).insert(req_id, control.clone());
                if let Err(e) = service.submit_to(spec, outbox.clone(), req_id, control) {
                    live.lock().expect(LIVE_POISONED).remove(&req_id);
                    let detail = match &e {
                        ServiceError::QueueFull { capacity } => *capacity as u32,
                        _ => 0,
                    };
                    let reject =
                        Frame::Reject { req_id, code: e.code(), detail, message: e.to_string() };
                    if let Err(io) = send(&out, &reject) {
                        break Err(io);
                    }
                }
            }
            Frame::Cancel { req_id } => {
                if let Some(session) = live.lock().expect(LIVE_POISONED).get(&req_id) {
                    session.cancel();
                }
            }
            Frame::MetricsRequest => {
                // Registry snapshot plus one session line per live query
                // — structured JSON; clients render tables themselves.
                let mut json = global().snapshot().to_json_lines();
                json.push_str(&service.sessions_json_lines());
                if let Err(io) = send(&out, &Frame::MetricsReply { json }) {
                    break Err(io);
                }
            }
            Frame::Shutdown => {
                let _ = send(&out, &Frame::Goodbye);
                stop.store(true, Ordering::SeqCst);
                break Ok(());
            }
            // Server-bound frames only; a client sending server frames is
            // violating the protocol.
            other => {
                break Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("client sent server-only frame {other:?}"),
                ));
            }
        }
    };
    // A vanished client must not leak running queries.
    if result.is_err() || stop.load(Ordering::SeqCst) {
        cancel_all(&live);
    }
    // The writer drains until every session has sent its terminal.
    drop(outbox);
    if writer.join().is_err() {
        eprintln!("aims-serve: connection writer panicked");
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    result
}
