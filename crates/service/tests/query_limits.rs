//! Answers the daemon must refuse rather than compute: an analytic
//! or Monte-Carlo system past [`MAX_PLAYERS`], an analytic sweep past
//! its cost budget, and an asymmetric threshold enumeration past its
//! cap. Each must come back as a parseable `ok: false` line, fast, on
//! a connection that stays up. And the reach it must serve: symmetric
//! closed forms up to [`MAX_PLAYERS`], inside the certified table's
//! enclosures.

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
    // n = 200 at δ = n/3 once overflowed the f64 closed form into NaN;
    // it is now refused when the request is decoded.
    let delta = 200.0 / 3.0;
    assert_refused(
        &mut stream,
        Request::PWin {
            delta,
            rule: RuleSpec::threshold(vec![0.6; 200]),
        },
        "at most 128",
    );
    assert_refused(
        &mut stream,
        Request::Sweep {
            n: 200,
            delta,
            grid: 4,
        },
        "at most 128",
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
fn large_symmetric_closed_forms_are_served() {
    // Past order 39 the alternating Irwin–Hall sum drifted beyond
    // PROB_EPS in f64 (at n = 100 it left [0, 1]), so these were
    // refused; the positive recurrence serves them.
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let n = 100;
    let delta = n as f64 / 3.0;
    for rule in [
        RuleSpec::threshold(vec![0.6; n]),
        RuleSpec::oblivious(vec![0.5; n]),
    ] {
        let (response, _) = raw_roundtrip(&mut stream, Request::PWin { delta, rule });
        match response.outcome {
            Ok(Outcome::PWin { value, .. }) => {
                assert!((0.0..=1.0).contains(&value), "{value}");
            }
            other => panic!("n = {n} pwin answered {other:?}"),
        }
    }
    daemon.shutdown();
}

#[test]
fn oversized_analytic_requests_are_refused_before_compute() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let n = MAX_PLAYERS + 1;
    assert_refused(
        &mut stream,
        Request::PWin {
            delta: n as f64 / 3.0,
            rule: RuleSpec::threshold(vec![0.6; n]),
        },
        "at most 128",
    );
    // (grid + 1)·n³ past (max_grid + 1)·39³: an unbounded n = 128 sweep
    // at the largest grid would run for tens of seconds.
    let n = MAX_PLAYERS;
    let delta = n as f64 / 3.0;
    let max_grid = ServiceConfig::default().max_grid;
    assert_refused(
        &mut stream,
        Request::Sweep {
            n,
            delta,
            grid: max_grid,
        },
        "analytic budget",
    );
    // A coarse sweep of the same system is answered.
    let (response, _) = raw_roundtrip(&mut stream, Request::Sweep { n, delta, grid: 64 });
    match response.outcome {
        Ok(Outcome::Sweep { points, .. }) => {
            assert_eq!(points.len(), 65);
            assert!(points.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
        }
        other => panic!("n = {n}, grid 64 sweep answered {other:?}"),
    }
    daemon.shutdown();
}

#[test]
fn served_symmetric_pwin_lies_in_the_certified_enclosures() {
    // The f64 closed form at each certified β*_n (the table is at
    // δ = n/3) must land in the table's P*_n enclosure, widened by
    // PROB_EPS: |P(β) − P(β*)| is quadratic in the ≤ 1e-9 β width.
    let table =
        service::load_threshold_table(include_str!("../../../results/threshold_table.json"))
            .expect("committed table");
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let eps = contracts::tolerances::PROB_EPS;
    let mut checked = 0;
    for row in table.rows().iter().filter(|row| row.n >= 40) {
        let n = row.n as usize;
        let beta = 0.5 * (row.beta_lo + row.beta_hi);
        let (response, _) = raw_roundtrip(
            &mut stream,
            Request::PWin {
                delta: n as f64 / 3.0,
                rule: RuleSpec::threshold(vec![beta; n]),
            },
        );
        match response.outcome {
            Ok(Outcome::PWin { value, .. }) => assert!(
                row.p_lo - eps <= value && value <= row.p_hi + eps,
                "n = {n}: served {value} outside [{}, {}]",
                row.p_lo,
                row.p_hi
            ),
            other => panic!("n = {n} pwin answered {other:?}"),
        }
        checked += 1;
    }
    assert_eq!(checked, 89, "rows n = 40..=128");
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
