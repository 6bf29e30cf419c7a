//! One long-lived TCP connection: resources stay bounded and a closed
//! loop of SUBMIT → DONE round trips runs at service speed.
//!
//! The claims under test:
//! - Thousands of sequential queries on one connection leave no thread
//!   (or thread stack) behind: the process's memory map stays flat.
//! - A round trip is not held up by Nagle's algorithm waiting on the
//!   client's delayed ACK (which costs about 40 ms per answer).
//!
//! Both tests count process-wide resources or time, so they run one at
//! a time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aims_dsp::filters::FilterKind;
use aims_propolyne::{DataCube, WaveletCube};
use aims_service::{ProgressKind, QueryService, QuerySpec, Server, ServiceConfig, TcpClient};

const SIDE: usize = 32;

static SERIAL: Mutex<()> = Mutex::new(());

fn demo_cube() -> WaveletCube {
    let mut cube = DataCube::zeros(&[SIDE, SIDE]);
    for (i, v) in cube.values_mut().iter_mut().enumerate() {
        *v = (i * 7 % 9) as f64;
    }
    cube.transform(&FilterKind::Db4.filter())
}

/// A service and server on loopback plus one connected client.
fn serve() -> (Arc<QueryService>, Server, TcpClient) {
    let svc = Arc::new(QueryService::new(demo_cube(), 16, ServiceConfig::default()));
    let server = Server::spawn(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
    let client = TcpClient::connect(("127.0.0.1", server.port())).expect("connect");
    (svc, server, client)
}

fn query(client: &mut TcpClient, req_id: u64) {
    let lo = req_id as usize % 16;
    let spec = QuerySpec::interactive(vec![(lo, SIDE - 1), (0, SIDE - 1 - lo)]);
    let out = client.run_query(req_id, &spec).expect("query");
    assert_eq!(out.kind, ProgressKind::Done);
}

/// Mappings in this process's address space; every live or unjoined
/// thread holds at least its stack and guard page.
fn mappings() -> Option<usize> {
    std::fs::read_to_string("/proc/self/maps").ok().map(|maps| maps.lines().count())
}

fn shut_down(svc: Arc<QueryService>, server: Server, mut client: TcpClient) {
    client.shutdown_server().expect("goodbye");
    server.join();
    svc.shutdown();
}

#[test]
fn a_long_connection_holds_no_thread_per_query() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (svc, server, mut client) = serve();
    // Warm up: the connection's threads, the pool and the allocator's
    // arenas exist before the baseline is taken.
    for req_id in 0..50 {
        query(&mut client, req_id);
    }
    let Some(before) = mappings() else {
        return; // no /proc: nothing to count on this platform
    };
    for req_id in 50..2050 {
        query(&mut client, req_id);
    }
    let after = mappings().expect("/proc/self/maps was readable a moment ago");
    assert!(
        after < before + 16,
        "2000 queries on one connection grew the memory map from {before} to {after} lines"
    );
    shut_down(svc, server, client);
}

#[test]
fn closed_loop_round_trips_are_not_held_by_nagle() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (svc, server, mut client) = serve();
    let mut rtt: Vec<Duration> = (0..100)
        .map(|req_id| {
            let t = Instant::now();
            query(&mut client, req_id);
            t.elapsed()
        })
        .collect();
    rtt.sort();
    let median = rtt[rtt.len() / 2];
    assert!(median < Duration::from_millis(10), "closed-loop median round trip {median:?}");
    shut_down(svc, server, client);
}
