//! `nocomm-service` — the long-running query daemon.
//!
//! ```text
//! nocomm-service serve [--addr 127.0.0.1:7199] [--threads 2]
//!                      [--batch-size 16384] [--max-trials 50000000]
//!                      [--table results/threshold_table.json]
//! nocomm-service --smoke
//! ```
//!
//! `serve` binds, prints the listening address on stdout (one line,
//! so scripts can scrape it when using port 0), and runs until a
//! client sends a `shutdown` request or the process is killed.
//!
//! `--smoke` is the CI self-test: it starts a daemon in-process on an
//! ephemeral port, round-trips one query of every kind over real TCP
//! (`simulate` from three connections at once), checks each answer
//! against a direct library call, shuts the daemon down gracefully,
//! and exits non-zero on any mismatch.

use nocomm::service::{
    Client, Outcome, Request, Response, RuleFamily, RuleSpec, Service, ServiceConfig,
};
use std::process::ExitCode;

const USAGE: &str = "usage:
  nocomm-service serve [--addr <host:port>] [--threads <t>]
                       [--batch-size <b>] [--max-trials <t>]
                       [--table <threshold_table.json>]
  nocomm-service --smoke
serve prints its bound address on stdout; stop it with a shutdown
request (see the Serving section of the README) or a signal";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("--smoke") => smoke(),
        _ => Err("expected `serve` or `--smoke`".to_owned()),
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7199".to_owned(),
        ..ServiceConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--addr" => config.addr.clone_from(v),
            "--threads" => {
                config.engine_threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value {v:?}"))?;
            }
            "--batch-size" => {
                config.batch_size = v
                    .parse()
                    .map_err(|_| format!("bad --batch-size value {v:?}"))?;
            }
            "--max-trials" => {
                config.max_trials = v
                    .parse()
                    .map_err(|_| format!("bad --max-trials value {v:?}"))?;
            }
            "--table" => {
                let text = std::fs::read_to_string(v)
                    .map_err(|e| format!("cannot read table {v:?}: {e}"))?;
                let table = nocomm::service::load_threshold_table(&text)
                    .map_err(|e| format!("bad table {v:?}: {e}"))?;
                config.table = Some(std::sync::Arc::new(table));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let daemon = Service::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    println!("{}", daemon.local_addr());
    daemon.wait();
    eprintln!("nocomm-service: drained and shut down");
    Ok(())
}

/// One successful outcome out of a response, or a readable error.
fn expect_ok(what: &str, response: Response) -> Result<Outcome, String> {
    response
        .outcome
        .map_err(|message| format!("{what} failed: {message}"))
}

/// The `threshold` leg of the smoke: the served certified enclosure
/// for n = 3 must contain the paper's exact optimum β* = 1 − √(1/7),
/// and a repeat query must hit the cache with bit-identical
/// endpoints.
fn smoke_threshold(client: &mut Client) -> Result<(), String> {
    let mut ask = || -> Result<(f64, f64, String), String> {
        let outcome = expect_ok(
            "threshold",
            client
                .roundtrip(Request::Threshold { n: 3 })
                .map_err(|e| format!("transport failure: {e}"))?,
        )?;
        let Outcome::Threshold {
            beta_lo,
            beta_hi,
            cache,
            ..
        } = outcome
        else {
            return Err("threshold answered with the wrong outcome kind".to_owned());
        };
        Ok((beta_lo, beta_hi, cache.as_str().to_owned()))
    };
    let (miss_lo, miss_hi, miss_cache) = ask()?;
    let (hit_lo, hit_hi, hit_cache) = ask()?;
    let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
    if !(miss_lo <= beta_star && beta_star <= miss_hi) {
        return Err(format!(
            "served enclosure [{miss_lo}, {miss_hi}] misses the paper's β* = {beta_star}"
        ));
    }
    if miss_cache != "miss" || hit_cache != "hit" {
        return Err(format!(
            "threshold cache dispositions were ({miss_cache}, {hit_cache}), expected (miss, hit)"
        ));
    }
    if miss_lo.to_bits() != hit_lo.to_bits() || miss_hi.to_bits() != hit_hi.to_bits() {
        return Err("cache hit is not bit-identical to the populating miss".to_owned());
    }
    Ok(())
}

/// Connections the `simulate` leg drives at once: more than the
/// daemon's two engine threads, so some runs get a pool helper and
/// others run inline while the compute budget is busy.
const SMOKE_CONNECTIONS: u64 = 3;

/// The `simulate` leg of the smoke: [`SMOKE_CONNECTIONS`] clients
/// send `simulate` requests at once, and every served count must
/// match a direct engine run with the same (trials, seed, batch_size)
/// exactly.
fn smoke_simulate(addr: std::net::SocketAddr) -> Result<(), String> {
    let trials = 50_000;
    let thresholds = [0.622, 0.622, 0.622];
    let rule = nocomm::decision::SingleThresholdAlgorithm::from_f64(&thresholds)
        .map_err(|e| format!("rule build failed: {e}"))?;
    // The reference runs on one thread: no pool, no budget.
    let engine = nocomm::simulator::Simulation::new(trials, 0)
        .try_with_batch_size(ServiceConfig::default().batch_size)
        .map_err(|e| format!("engine config failed: {e}"))?
        .with_threads(1);
    let connection = |first_seed: u64| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        for seed in first_seed..first_seed + 4 {
            let outcome = expect_ok(
                "simulate",
                client
                    .roundtrip(Request::Simulate {
                        delta: 1.0,
                        trials,
                        seed,
                        rule: RuleSpec::threshold(thresholds.to_vec()),
                    })
                    .map_err(|e| format!("transport failure: {e}"))?,
            )?;
            let Outcome::Simulate { wins, trials: done } = outcome else {
                return Err("simulate answered with the wrong outcome kind".to_owned());
            };
            let direct = engine.reseeded(seed).run(&rule, 1.0);
            if wins != direct.wins || done != direct.trials {
                return Err(format!(
                    "served run ({wins}/{done}) at seed {seed} disagrees with direct run ({}/{})",
                    direct.wins, direct.trials
                ));
            }
        }
        Ok(())
    };
    std::thread::scope(|scope| {
        let connections: Vec<_> = (0..SMOKE_CONNECTIONS)
            .map(|c| scope.spawn(move || connection(7 + 4 * c)))
            .collect();
        connections.into_iter().try_for_each(|handle| {
            handle
                .join()
                .map_err(|_| "a simulate connection panicked".to_owned())?
        })
    })
}

fn smoke() -> Result<(), String> {
    // A tiny certified table (exact rows only, milliseconds to build)
    // so the threshold round-trip exercises the real serving path.
    let table = nocomm::decision::certified::build_table(4)
        .map_err(|e| format!("cannot certify smoke table: {e}"))?;
    let config = ServiceConfig {
        table: Some(std::sync::Arc::new(table)),
        ..ServiceConfig::default()
    };
    let daemon = Service::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    let addr = daemon.local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let transport = |e: std::io::Error| format!("transport failure: {e}");

    // pwin: β = 1/2, n = 3, δ = 1 lies on the paper's curve at 23/48.
    let outcome = expect_ok(
        "pwin",
        client
            .roundtrip(Request::PWin {
                delta: 1.0,
                rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
            })
            .map_err(transport)?,
    )?;
    let Outcome::PWin { value, .. } = outcome else {
        return Err("pwin answered with the wrong outcome kind".to_owned());
    };
    if (value - 23.0 / 48.0).abs() > 1e-12 {
        return Err(format!("pwin answered {value}, expected 23/48"));
    }

    // optimal: the oblivious cube optimum at n = 3, δ = 1 is a
    // deterministic 2/1 partition with value 1/2.
    let outcome = expect_ok(
        "optimal",
        client
            .roundtrip(Request::Optimal {
                family: RuleFamily::Oblivious,
                n: 3,
                delta: 1.0,
            })
            .map_err(transport)?,
    )?;
    let Outcome::Optimal { value, .. } = outcome else {
        return Err("optimal answered with the wrong outcome kind".to_owned());
    };
    if (value - 0.5).abs() > 1e-6 {
        return Err(format!("optimal answered {value}, expected 1/2"));
    }

    // sweep: must match the library curve bit for bit.
    let outcome = expect_ok(
        "sweep",
        client
            .roundtrip(Request::Sweep {
                n: 3,
                delta: 1.0,
                grid: 16,
            })
            .map_err(transport)?,
    )?;
    let Outcome::Sweep { points, .. } = outcome else {
        return Err("sweep answered with the wrong outcome kind".to_owned());
    };
    let library = nocomm::simulator::sweep_threshold_analytic(3, 1.0, 16)
        .map_err(|e| format!("library sweep failed: {e}"))?;
    if points.len() != library.len()
        || points.iter().zip(&library).any(|((x, p), l)| {
            x.to_bits() != l.x.to_bits() || p.to_bits() != l.probability.to_bits()
        })
    {
        return Err("served sweep disagrees with the library curve".to_owned());
    }

    smoke_threshold(&mut client)?;

    smoke_simulate(addr)?;

    // shutdown: acknowledged, then the daemon drains.
    let outcome = expect_ok(
        "shutdown",
        client.roundtrip(Request::Shutdown).map_err(transport)?,
    )?;
    if outcome != Outcome::ShuttingDown {
        return Err("shutdown answered with the wrong outcome kind".to_owned());
    }
    daemon.wait();
    println!("nocomm-service --smoke: all query kinds round-trip correctly");
    Ok(())
}
