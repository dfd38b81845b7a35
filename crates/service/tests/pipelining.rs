//! Pipelined requests: several request lines sent in one write are
//! answered in order, one response line each, and the burst is not
//! held back by the TCP stack. Without `TCP_NODELAY` on the daemon's
//! side, every response after the first waits for the client's
//! delayed acknowledgement (about 40 ms per burst on Linux).

use service::{Envelope, Outcome, Request, Response, RuleSpec, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests per burst.
const DEPTH: u64 = 4;
/// Bursts timed; the fastest one is judged.
const BURSTS: u64 = 5;

fn pwin() -> Request {
    Request::PWin {
        delta: 1.0,
        rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
    }
}

/// `DEPTH` request lines with ids `first..first + DEPTH`, as one
/// buffer for a single write.
fn burst(first: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in first..first + DEPTH {
        let mut line = Envelope {
            id,
            request: pwin(),
        }
        .to_json();
        line.push('\n');
        bytes.extend_from_slice(line.as_bytes());
    }
    bytes
}

/// Reads one response line and checks its id and its answer (23/48,
/// the paper's curve at β = 1/2, n = 3, δ = 1).
fn expect_answer(reader: &mut impl BufRead, id: u64) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    let response = Response::parse(&line).expect("a protocol response");
    assert_eq!(response.id, id, "responses must come back in request order");
    let Ok(Outcome::PWin { value, .. }) = response.outcome else {
        panic!("analytic answer expected, got {:?}", response.outcome);
    };
    assert!((value - 23.0 / 48.0).abs() < 1e-12);
}

#[test]
fn pipelined_requests_are_answered_in_order_without_delay() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("client nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Warm the cache, so every timed request is a cache hit.
    stream.write_all(&burst(0)).expect("send warm-up burst");
    for id in 0..DEPTH {
        expect_answer(&mut reader, id);
    }

    let mut fastest = Duration::MAX;
    for b in 1..=BURSTS {
        let first = b * DEPTH;
        let start = Instant::now();
        stream.write_all(&burst(first)).expect("send burst");
        for id in first..first + DEPTH {
            expect_answer(&mut reader, id);
        }
        fastest = fastest.min(start.elapsed());
    }
    assert!(
        fastest < Duration::from_millis(20),
        "fastest of {BURSTS} bursts of {DEPTH} pipelined cache hits took {fastest:?}"
    );
    daemon.shutdown();
}
