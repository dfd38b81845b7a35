//! Service-level observability: request counters layered over the
//! engine's [`EngineMetrics`].
//!
//! One [`ServiceMetrics`] registry is shared by every connection
//! thread. The request-facing subset is frozen into a
//! [`MetricsFrame`] per response (responses carry their own
//! telemetry, `engine-metrics/v1` style), and the full engine
//! snapshot stays available for the benchmark documents.

use crate::query::MetricsFrame;
use obs::{Histogram, HistogramSnapshot};
use simulator::{keys, EngineMetrics, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared service counters plus the engine registry the daemon's
/// [`Simulation`](simulator::Simulation) reports into.
#[derive(Debug)]
pub struct ServiceMetrics {
    requests: AtomicU64,
    inflight: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    request_ns: Histogram,
    engine: Arc<EngineMetrics>,
    batch_size: u64,
}

impl ServiceMetrics {
    /// An all-zero registry; `batch_size` is the engine's
    /// trials-per-batch granularity, reported verbatim in every
    /// frame.
    #[must_use]
    pub fn new(batch_size: u64) -> ServiceMetrics {
        ServiceMetrics {
            requests: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            request_ns: Histogram::new(),
            engine: Arc::new(EngineMetrics::new()),
            batch_size,
        }
    }

    /// The engine registry, for
    /// [`Simulation::with_metrics`](simulator::Simulation::with_metrics).
    #[must_use]
    pub fn engine(&self) -> Arc<EngineMetrics> {
        self.engine.clone()
    }

    /// Marks a request accepted; the returned guard keeps the
    /// in-flight gauge raised until dropped, on every exit path.
    #[must_use]
    pub fn begin_request(&self) -> InflightGuard<'_> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { owner: self }
    }

    /// Records a cache disposition.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one request's wall-clock service time.
    pub fn record_request_ns(&self, nanos: u64) {
        self.request_ns.record(nanos);
    }

    /// The request-facing counter frame carried by every response.
    /// It reads only the two engine counters it carries, not a full
    /// engine snapshot: every response pays for this call.
    #[must_use]
    pub fn frame(&self) -> MetricsFrame {
        MetricsFrame {
            requests: self.requests.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            sim_runs: self.engine.count(keys::RUNS),
            sim_batches: self.engine.count(keys::BATCHES),
            batch_size: self.batch_size,
        }
    }

    /// The full engine snapshot (pool counters, RNG draws,
    /// histograms) for benchmark documents.
    #[must_use]
    pub fn engine_snapshot(&self) -> MetricsSnapshot {
        self.engine.snapshot()
    }

    /// The distribution of server-side request service times.
    #[must_use]
    pub fn request_ns_snapshot(&self) -> HistogramSnapshot {
        self.request_ns.snapshot()
    }
}

/// RAII handle from [`ServiceMetrics::begin_request`]: drops the
/// in-flight gauge when the response (or the error path) finishes.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    owner: &'a ServiceMetrics,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.owner.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_tracks_requests_and_cache() {
        let metrics = ServiceMetrics::new(4096);
        {
            let _guard = metrics.begin_request();
            metrics.record_cache(false);
            let frame = metrics.frame();
            assert_eq!(frame.requests, 1);
            assert_eq!(frame.inflight, 1);
            assert_eq!(frame.cache_misses, 1);
            assert_eq!(frame.batch_size, 4096);
        }
        metrics.record_cache(true);
        let frame = metrics.frame();
        assert_eq!(frame.inflight, 0, "guard drop lowers the gauge");
        assert_eq!(frame.cache_hits, 1);
    }

    #[test]
    fn engine_counters_surface_in_frames() {
        use decision::ObliviousAlgorithm;
        use simulator::Simulation;

        let metrics = ServiceMetrics::new(10_000);
        let sim = Simulation::new(10_000, 3).with_metrics(metrics.engine());
        let _ = sim.run(&ObliviousAlgorithm::fair(2), 1.0);
        let frame = metrics.frame();
        assert_eq!(frame.sim_runs, 1);
        assert!(frame.sim_batches >= 1);
        let snapshot = metrics.engine_snapshot();
        assert_eq!(snapshot.trials, 10_000);
        // The frame's cheap reads agree with the full snapshot.
        assert_eq!(
            (frame.sim_runs, frame.sim_batches),
            (snapshot.runs, snapshot.batches)
        );
    }
}
