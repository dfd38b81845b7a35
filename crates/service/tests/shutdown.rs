//! Graceful-shutdown behavior: in-flight requests drain to complete
//! answers, idle connections cannot stall the drain, new connections
//! are refused once the daemon is down, and the worker pool closes
//! with the last engine handle (dropping the daemon cannot hang).

use service::{Client, Outcome, Request, RuleSpec, Service, ServiceConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start() -> Service {
    Service::start(ServiceConfig::default()).expect("daemon start")
}

/// Waits, for at most 30 s, until the daemon has accepted exactly
/// `n` requests. The counter is raised before a request's work
/// starts, so every counted request is in flight or already answered
/// — never refusable by a shutdown that lands afterwards.
fn await_accepted(daemon: &Service, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.metrics_frame().requests < n {
        assert!(
            Instant::now() < deadline,
            "daemon accepted {} of {n} requests within 30 s",
            daemon.metrics_frame().requests
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(daemon.metrics_frame().requests, n);
}

#[test]
fn remote_shutdown_acknowledges_then_drains() {
    let daemon = start();
    let addr = daemon.local_addr();

    // An in-flight Monte-Carlo request on its own connection: big
    // enough to still be running when the shutdown lands.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.roundtrip(Request::Simulate {
            delta: 1.0,
            trials: 400_000,
            seed: 11,
            rule: RuleSpec::threshold(vec![0.622, 0.622, 0.622]),
        })
    });
    // An idle connection that never sends anything: it must not be
    // able to stall the drain beyond the poll interval.
    let idle = TcpStream::connect(addr).expect("idle connect");

    await_accepted(&daemon, 1);
    let mut controller = Client::connect(addr).expect("controller connect");
    let ack = controller
        .roundtrip(Request::Shutdown)
        .expect("shutdown round trip");
    assert_eq!(ack.outcome, Ok(Outcome::ShuttingDown));

    // The in-flight request still completes with a full answer.
    let response = worker
        .join()
        .expect("client thread")
        .expect("in-flight request must drain to a response");
    match response.outcome {
        Ok(Outcome::Simulate { wins, trials }) => {
            assert_eq!(trials, 400_000);
            assert!(wins <= trials);
        }
        other => panic!("in-flight request answered {other:?}"),
    }

    // wait() returns: every connection (including the idle one)
    // drains without being nudged.
    daemon.wait();
    drop(idle);

    // The listener is gone; fresh connections are refused (or, at
    // worst, racily accepted and immediately closed without service).
    if TcpStream::connect(addr).is_ok() {
        let mut probe = Client::connect(addr).expect("probe connect");
        assert!(
            probe.roundtrip(Request::Shutdown).is_err(),
            "a post-shutdown connection must not be served"
        );
    }
}

#[test]
fn shutdown_racing_concurrent_sweeps_completes_all_accepted_work() {
    let daemon = start();
    let addr = daemon.local_addr();

    // A burst of concurrent sweep and simulate requests, each on its
    // own connection, all accepted before the shutdown lands. Every
    // one must drain to a complete, correct answer — drain means
    // finish the work, not drop it.
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                if i % 2 == 0 {
                    client.roundtrip(Request::Sweep {
                        n: 3 + i / 2,
                        delta: 1.0,
                        grid: 64,
                    })
                } else {
                    client.roundtrip(Request::Simulate {
                        delta: 1.0,
                        trials: 200_000,
                        seed: 7 + i as u64,
                        rule: RuleSpec::threshold(vec![0.622, 0.622, 0.622]),
                    })
                }
            })
        })
        .collect();

    await_accepted(&daemon, 6);
    let mut controller = Client::connect(addr).expect("controller connect");
    let ack = controller
        .roundtrip(Request::Shutdown)
        .expect("shutdown round trip");
    assert_eq!(ack.outcome, Ok(Outcome::ShuttingDown));

    let mut answered = 0;
    for (i, worker) in workers.into_iter().enumerate() {
        // Every request was accepted before the shutdown, so none may
        // be refused and none may get a partial answer.
        let response = worker
            .join()
            .expect("client thread")
            .unwrap_or_else(|e| panic!("accepted request {i} was dropped: {e}"));
        match response.outcome {
            Ok(Outcome::Sweep { points, .. }) => {
                assert_eq!(points.len(), 65, "request {i} drained to a truncated sweep");
            }
            Ok(Outcome::Simulate { wins, trials }) => {
                assert_eq!(trials, 200_000, "request {i} drained short");
                assert!(wins <= trials);
            }
            other => panic!("request {i} answered {other:?}"),
        }
        answered += 1;
    }
    assert_eq!(
        answered, 6,
        "every accepted request drains to a full answer"
    );
    daemon.wait();
}

#[test]
fn local_shutdown_with_idle_connection_is_bounded() {
    let daemon = start();
    let addr = daemon.local_addr();
    let _idle = TcpStream::connect(addr).expect("idle connect");
    let started = Instant::now();
    daemon.shutdown();
    // Drain latency for idle connections is bounded by the poll
    // interval (50ms default), with generous headroom for a loaded
    // single-CPU box.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle connection stalled the drain for {:?}",
        started.elapsed()
    );
}

#[test]
fn dropping_the_daemon_shuts_it_down() {
    let daemon = start();
    let addr = daemon.local_addr();
    drop(daemon); // Drop triggers the same drain as shutdown()
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut probe = Client::connect(addr).expect("probe connect");
            probe.roundtrip(Request::Shutdown).is_err()
        },
        "a dropped daemon kept serving"
    );
}

#[test]
fn requests_after_shutdown_ack_on_same_connection_get_eof() {
    let daemon = start();
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let ack = client.roundtrip(Request::Shutdown).expect("ack");
    assert_eq!(ack.outcome, Ok(Outcome::ShuttingDown));
    // The daemon closes the connection after acknowledging.
    assert!(client
        .roundtrip(Request::Sweep {
            n: 3,
            delta: 1.0,
            grid: 8
        })
        .is_err());
    daemon.wait();
}
