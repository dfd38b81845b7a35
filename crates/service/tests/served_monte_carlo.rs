//! Closed loop over the served answers: for the same rule, a
//! `simulate` estimate from the daemon must land within 5σ of the
//! daemon's own `pwin` closed form. Both answers travel the full
//! path — socket, wire codec, query dispatch, cache or engine — so a
//! fault in any layer of either path shows up as a disagreement.
//!
//! Seeds, trial counts and rules are fixed up front; nothing here is
//! tuned to the draws.

use service::{Client, Outcome, Request, RuleSpec, Service, ServiceConfig};

/// Trials per served estimate: σ ≤ 0.0016 at this budget.
const TRIALS: u64 = 100_000;

/// `(rule, δ, seed)` cases: both hinted families at n = 3, 5, 8 and
/// 9, symmetric and asymmetric rules. Eight draws share a Threefry
/// block, so n = 8 fills one block per plane exactly and n = 9 reads
/// the first draw of a second block.
fn cases() -> Vec<(RuleSpec, f64, u64)> {
    vec![
        (RuleSpec::threshold(vec![0.622; 3]), 1.0, 101),
        (
            RuleSpec::threshold(vec![0.45, 0.55, 0.6, 0.65, 0.75]),
            5.0 / 3.0,
            102,
        ),
        (RuleSpec::oblivious(vec![0.5; 3]), 1.0, 103),
        (
            RuleSpec::oblivious(vec![0.3, 0.4, 0.5, 0.6, 0.7]),
            5.0 / 3.0,
            104,
        ),
        (
            RuleSpec::threshold(vec![0.5, 0.55, 0.6, 0.62, 0.64, 0.66, 0.7, 0.75]),
            8.0 / 3.0,
            105,
        ),
        (RuleSpec::oblivious(vec![0.5; 8]), 8.0 / 3.0, 106),
        (RuleSpec::threshold(vec![0.66; 9]), 3.0, 107),
        (
            RuleSpec::oblivious(vec![0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8]),
            3.0,
            108,
        ),
    ]
}

#[test]
fn served_estimates_agree_with_served_closed_forms() {
    let daemon = Service::start(ServiceConfig::default()).expect("daemon start");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    for (rule, delta, seed) in cases() {
        let exact = match client
            .roundtrip(Request::PWin {
                delta,
                rule: rule.clone(),
            })
            .expect("pwin round trip")
            .outcome
        {
            Ok(Outcome::PWin { value, .. }) => value,
            other => panic!("{rule:?}: pwin answered {other:?}"),
        };
        let (wins, trials) = match client
            .roundtrip(Request::Simulate {
                delta,
                trials: TRIALS,
                seed,
                rule: rule.clone(),
            })
            .expect("simulate round trip")
            .outcome
        {
            Ok(Outcome::Simulate { wins, trials }) => (wins, trials),
            other => panic!("{rule:?}: simulate answered {other:?}"),
        };
        assert_eq!(trials, TRIALS);
        // Neither certain nor hopeless: the comparison has teeth.
        assert!(0.05 < exact && exact < 0.95, "{rule:?}: P = {exact}");
        let estimate = wins as f64 / trials as f64;
        let sigma = (exact * (1.0 - exact) / trials as f64).sqrt();
        assert!(
            (estimate - exact).abs() <= 5.0 * sigma,
            "{rule:?} at δ = {delta}: served estimate {estimate} vs served closed form {exact} \
             (σ = {sigma})"
        );
    }
    daemon.shutdown();
}
