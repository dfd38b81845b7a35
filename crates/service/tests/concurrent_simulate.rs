//! Concurrent served Monte-Carlo: four clients send mixed `simulate`
//! requests at once, so the daemon's shared engine sees overlapping
//! runs — some with pool helpers, some inline on their connection
//! thread, as its compute budget allows. Every answer must be
//! bit-identical to a direct single-thread run of the same request.

use service::{Client, Outcome, Request, RuleSpec, Service, ServiceConfig};
use simulator::Simulation;
use std::sync::Barrier;

const CLIENTS: usize = 4;

/// `(rule, δ, trials, seed)`: both families, symmetric and not, from
/// one batch to five at the daemon's default batch size.
fn requests() -> Vec<(RuleSpec, f64, u64, u64)> {
    vec![
        (RuleSpec::threshold(vec![0.622; 3]), 1.0, 16_000, 1),
        (
            RuleSpec::threshold(vec![0.45, 0.55, 0.6, 0.65, 0.75]),
            5.0 / 3.0,
            70_000,
            2,
        ),
        (RuleSpec::oblivious(vec![0.5; 4]), 4.0 / 3.0, 40_000, 3),
        (
            RuleSpec::oblivious(vec![0.3, 0.4, 0.5, 0.6, 0.7]),
            5.0 / 3.0,
            50_000,
            4,
        ),
        (RuleSpec::threshold(vec![0.7; 8]), 8.0 / 3.0, 65_537, 5),
    ]
}

#[test]
fn concurrent_simulate_answers_match_single_thread_runs() {
    let config = ServiceConfig::default();
    let batch_size = config.batch_size;
    let daemon = Service::start(config).expect("daemon start");
    let addr = daemon.local_addr();
    let requests = requests();
    let expected: Vec<(u64, u64)> = requests
        .iter()
        .map(|(rule, delta, trials, seed)| {
            let report = Simulation::new(*trials, *seed)
                .with_batch_size(batch_size)
                .with_threads(1)
                .run(&*rule.build().expect("valid rule"), *delta);
            (report.wins, report.trials)
        })
        .collect();
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (requests, expected, start) = (&requests, &expected, &start);
            scope.spawn(move || {
                let mut connection = Client::connect(addr).expect("connect");
                start.wait();
                for round in 0..3 {
                    for k in 0..requests.len() {
                        let i = (k + client + round) % requests.len();
                        let (rule, delta, trials, seed) = requests[i].clone();
                        let outcome = connection
                            .roundtrip(Request::Simulate {
                                delta,
                                trials,
                                seed,
                                rule,
                            })
                            .expect("simulate round trip")
                            .outcome;
                        let Ok(Outcome::Simulate { wins, trials }) = outcome else {
                            panic!("client {client}, request {i}: {outcome:?}");
                        };
                        assert_eq!(
                            (wins, trials),
                            expected[i],
                            "client {client}, round {round}, request {i}"
                        );
                    }
                }
            });
        }
    });
    daemon.shutdown();
}
