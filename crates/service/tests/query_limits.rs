//! Answers the daemon must refuse rather than compute: an analytic
//! answer that would overflow into a NaN (which JSON cannot carry) or
//! be silently inaccurate, an asymmetric threshold enumeration past
//! its cap, and Monte-Carlo
//! systems past [`MAX_PLAYERS`]. Each must come back as a parseable
//! `ok: false` line, fast, on a connection that stays up.

use service::server::MAX_PLAYERS;
use service::{Envelope, Outcome, Request, Response, RuleSpec, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Sends one request as a raw line and parses the reply, so refusals
/// that happen at parse time (and so echo id 0) are read too.
fn raw_roundtrip(stream: &mut TcpStream, request: Request) -> (Response, Duration) {
    let line = Envelope { id: 7, request }.to_json();
    let started = Instant::now();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("read reply");
    let elapsed = started.elapsed();
    let response = Response::parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply:?}"));
    (response, elapsed)
}

/// Asserts a refusal within one second whose message names `needle`.
fn assert_refused(stream: &mut TcpStream, request: Request, needle: &str) {
    let kind = request.kind();
    let (response, elapsed) = raw_roundtrip(stream, request);
    let message = response
        .outcome
        .expect_err("an oversized query must be refused");
    assert!(message.contains(needle), "{kind}: {message}");
    assert!(
        elapsed < Duration::from_secs(1),
        "{kind} took {elapsed:?} to refuse"
    );
}

#[test]
fn overflowing_analytic_answers_are_errors_not_nan() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    // n = 200 at δ = n/3 overflows the f64 closed form.
    let delta = 200.0 / 3.0;
    assert_refused(
        &mut stream,
        Request::PWin {
            delta,
            rule: RuleSpec::threshold(vec![0.6; 200]),
        },
        "at most 39 players",
    );
    assert_refused(
        &mut stream,
        Request::Sweep {
            n: 200,
            delta,
            grid: 4,
        },
        "at most 39 players",
    );
    // The connection stays up and a sane query still answers.
    let (response, _) = raw_roundtrip(
        &mut stream,
        Request::PWin {
            delta: 1.0,
            rule: RuleSpec::threshold(vec![0.5; 3]),
        },
    );
    assert!(matches!(response.outcome, Ok(Outcome::PWin { .. })));
    daemon.shutdown();
}

#[test]
fn inaccurate_symmetric_closed_forms_are_refused() {
    // Past order 39 the f64 Irwin–Hall CDF drifts beyond PROB_EPS;
    // at n = 100 it leaves [0, 1], which used to kill the connection
    // thread on the probability contract in debug builds and served a
    // wrong number in release ones.
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let n = 100;
    let delta = n as f64 / 3.0;
    assert_refused(
        &mut stream,
        Request::PWin {
            delta,
            rule: RuleSpec::threshold(vec![0.6; n]),
        },
        "at most 39 players",
    );
    assert_refused(
        &mut stream,
        Request::PWin {
            delta,
            rule: RuleSpec::oblivious(vec![0.5; n]),
        },
        "at most 39 players",
    );
    // The largest accurate order is still served, as a probability.
    let (response, _) = raw_roundtrip(
        &mut stream,
        Request::PWin {
            delta: 13.0,
            rule: RuleSpec::threshold(vec![0.6; 39]),
        },
    );
    match response.outcome {
        Ok(Outcome::PWin { value, .. }) => assert!((0.0..=1.0).contains(&value), "{value}"),
        other => panic!("n = 39 pwin answered {other:?}"),
    }
    daemon.shutdown();
}

#[test]
fn oversized_enumerations_and_simulations_are_refused_fast() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let spread = |n: usize| (0..n).map(|i| 0.3 + 0.02 * i as f64).collect::<Vec<_>>();
    // Asymmetric thresholds enumerate 2^n decision vectors: n = 18
    // took seconds before the cap, n = 24 is past the general one.
    for n in [18, 24] {
        assert_refused(
            &mut stream,
            Request::PWin {
                delta: n as f64 / 3.0,
                rule: RuleSpec::threshold(spread(n)),
            },
            "at most 14 players",
        );
    }
    // Monte-Carlo stops at MAX_PLAYERS, before any trial runs.
    let n = MAX_PLAYERS + 1;
    assert_refused(
        &mut stream,
        Request::Simulate {
            delta: n as f64 / 3.0,
            trials: 2_000_000,
            seed: 1,
            rule: RuleSpec::threshold(vec![0.6; n]),
        },
        "at most 128",
    );
    assert_refused(
        &mut stream,
        Request::SweepMc {
            n,
            delta: 1.0,
            grid: 4,
            trials: 1_000,
            seed: 1,
        },
        "at most 128",
    );
    // MAX_PLAYERS itself is still served.
    let (response, _) = raw_roundtrip(
        &mut stream,
        Request::Simulate {
            delta: MAX_PLAYERS as f64 / 3.0,
            trials: 1_000,
            seed: 1,
            rule: RuleSpec::oblivious(vec![0.5; MAX_PLAYERS]),
        },
    );
    assert!(
        matches!(
            response.outcome,
            Ok(Outcome::Simulate { trials: 1_000, .. })
        ),
        "{:?}",
        response.outcome
    );
    daemon.shutdown();
}
