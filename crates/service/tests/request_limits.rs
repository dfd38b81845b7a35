//! Request-line limits: a peer that streams an endless line without a
//! newline is answered with an error and disconnected once it passes
//! [`MAX_REQUEST_BYTES`], and the daemon keeps serving other clients;
//! a line that is not UTF-8 is answered with an error on a connection
//! that stays open.

use service::server::MAX_REQUEST_BYTES;
use service::{Client, Outcome, Request, Response, RuleSpec, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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
