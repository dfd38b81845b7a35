//! The nocomm query daemon: the paper's analytics and the
//! Monte-Carlo engine behind a long-running network service.
//!
//! Everything below the wire is the existing workspace — this crate
//! adds the *serving* layers:
//!
//! * [`wire`] — the workspace's `json` crate, re-exported: the one
//!   parser and writer every artifact shares (newline-delimited
//!   documents, bit-exact float round-trips); the server caps each
//!   request line at [`server::MAX_REQUEST_BYTES`] and live
//!   connections at [`server::MAX_CONNECTIONS`];
//! * [`query`] — the typed protocol (`nocomm-service/v1`): requests
//!   `pwin`, `optimal`, `sweep`, `sweep_mc`, `shards`, `threshold`,
//!   `simulate`, `shutdown`, and responses that carry an
//!   `engine-metrics/v1`-style counter frame; `sweep_mc` fans a
//!   Monte-Carlo sweep out over worker *processes* through the
//!   `orchestrator` crate and `shards` reports its supervision
//!   ledger;
//! * [`cache`] — the concurrent read-through [`AnalyticCache`]:
//!   one shared [`uniform_sums::SharedContext`] per `(n, δ)` plus a
//!   result memo, making repeated analytic queries O(1) under load
//!   while staying bit-identical to a cold single-threaded
//!   evaluation; `threshold` queries serve certified `β*_n`
//!   enclosures from the in-memory `threshold-table/v1` table
//!   ([`load_threshold_table`]) through the same memo, so hits are
//!   bit-identical to the miss that populated them;
//! * [`metrics`] — [`ServiceMetrics`], request counters layered over
//!   the engine's [`simulator::EngineMetrics`];
//! * [`server`] — the TCP daemon ([`Service`]): thread-per-connection
//!   serving, Monte-Carlo requests batched onto **one** persistent
//!   worker pool via [`simulator::Simulation::retargeted`], and
//!   graceful drain/shutdown on top of the engine's job-deadline and
//!   pool-close machinery;
//! * [`client`] — a small blocking [`Client`] for tests, the smoke
//!   mode, and the load generator.
//!
//! # Determinism contract
//!
//! Served answers are bit-identical to direct library calls: analytic
//! values to a cold [`uniform_sums::EvalContext`] evaluation, and
//! Monte-Carlo counts to [`simulator::Simulation::run`] with the same
//! `(trials, seed, batch_size)`. Floats cross the wire as shortest
//! round-trip tokens, so the identity holds end-to-end over TCP
//! (property-tested in `tests/bit_identity.rs`).
//!
//! # Examples
//!
//! ```
//! use service::{Client, Outcome, Request, RuleSpec, Service, ServiceConfig};
//!
//! let daemon = Service::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(daemon.local_addr()).unwrap();
//!
//! let response = client
//!     .roundtrip(Request::PWin {
//!         delta: 1.0,
//!         rule: RuleSpec::threshold(vec![0.5, 0.5, 0.5]),
//!     })
//!     .unwrap();
//! let Ok(Outcome::PWin { value, .. }) = response.outcome else {
//!     panic!("analytic answer expected");
//! };
//! // The paper's curve at β = 1/2, n = 3, δ = 1: 23/48.
//! assert!((value - 23.0 / 48.0).abs() < 1e-12);
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod query;
pub mod server;
pub use json as wire;

pub use cache::{load_threshold_table, AnalyticCache};
pub use client::Client;
pub use metrics::ServiceMetrics;
pub use query::{
    CacheStatus, Envelope, MetricsFrame, Outcome, Request, Response, RuleFamily, RuleSpec,
    PROTOCOL_VERSION,
};
pub use server::{Service, ServiceConfig, ShardedSweepConfig};
