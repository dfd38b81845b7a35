//! Request-line limits: a peer that streams an endless line without a
//! newline is answered with an error and disconnected once it passes
//! [`MAX_REQUEST_BYTES`], and the daemon keeps serving other clients;
//! a line that is not UTF-8 is answered with an error on a connection
//! that stays open. Connections beyond [`MAX_CONNECTIONS`] live ones
//! get one error line and a hang-up, and closing a connection frees
//! its slot.

use service::server::{MAX_CONNECTIONS, MAX_REQUEST_BYTES};
use service::{Client, Outcome, Request, Response, RuleSpec, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn pwin() -> Request {
    Request::PWin {
        delta: 1.0,
        rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
    }
}

/// Asserts the paper's curve at β = 1/2, n = 3, δ = 1: 23/48.
fn assert_pwin_answer(response: &Response) {
    let Ok(Outcome::PWin { value, .. }) = response.outcome else {
        panic!("analytic answer expected, got {:?}", response.outcome);
    };
    assert!((value - 23.0 / 48.0).abs() < 1e-12);
}

#[test]
fn oversized_line_is_refused_and_the_daemon_keeps_serving() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let addr = daemon.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // 2 MiB with no newline. The daemon stops reading at the cap, so
    // the tail of this write may fail once it hangs up.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES]);
    });
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("error response before the hang-up");
    flood.join().expect("flood thread");
    let response = Response::parse(&line).expect("a protocol response");
    let message = response.outcome.expect_err("oversized request must fail");
    assert!(message.contains("exceeds"), "{message}");

    let mut client = Client::connect(addr).expect("fresh client");
    assert_pwin_answer(&client.roundtrip(pwin()).expect("fresh client is served"));
    daemon.shutdown();
}

#[test]
fn non_utf8_line_is_an_error_and_the_connection_stays_up() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"{\"kind\": \"\xff\xfe\"}\n")
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let message = Response::parse(&line)
        .expect("a protocol response")
        .outcome
        .expect_err("non-UTF-8 request must fail");
    assert!(message.contains("not UTF-8"), "{message}");

    let mut request = service::Envelope {
        id: 2,
        request: pwin(),
    }
    .to_json();
    request.push('\n');
    stream
        .write_all(request.as_bytes())
        .expect("send on the same connection");
    line.clear();
    reader.read_line(&mut line).expect("answer");
    assert_pwin_answer(&Response::parse(&line).expect("a protocol response"));
    daemon.shutdown();
}

/// Connects past the cap: the daemon must answer with one error line
/// and hang up without reading a request.
fn assert_refused(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).expect("connect");
    // A served connection would wait for a request forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    let message = Response::parse(&line)
        .expect("a protocol response")
        .outcome
        .expect_err("a connection over the cap must be refused");
    assert!(message.contains("connection limit"), "{message}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("hang-up"), 0, "{line}");
}

#[test]
fn connections_beyond_the_cap_are_refused_and_closing_one_frees_a_slot() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let addr = daemon.local_addr();
    // Fill every slot; a round trip on each proves it is served.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    for client in &mut held {
        assert_pwin_answer(&client.roundtrip(pwin()).expect("served under the cap"));
    }
    assert_refused(addr);
    // The refusal did not disturb the connections being served.
    assert_pwin_answer(&held[0].roundtrip(pwin()).expect("still served"));

    // Closing a connection frees its slot once its thread sees EOF
    // (within a poll tick); until then new connections are refused.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let response = loop {
        let served = Client::connect(addr).and_then(|mut client| client.roundtrip(pwin()));
        match served {
            Ok(response) => break response,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("no slot freed after a connection closed: {e}"),
        }
    };
    assert_pwin_answer(&response);
    drop(held);
    daemon.shutdown();
}
