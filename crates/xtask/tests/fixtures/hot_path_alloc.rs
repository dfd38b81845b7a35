//! Fixture for the hot-path-alloc analysis: allocation in the
//! monomorphized lane loop, its draw replay, and kernel decisions.

/// BAD: collect inside the lane batch runner.
fn run_lane_batch<K: Kernel, const L: usize>(kernel: &K, count: u64) -> Vec<u64> {
    (0..count).map(|i| kernel.score(i)).collect()
}

/// BAD: clone and a vec! literal in the per-draw replay.
fn lane_draw(key: &CounterKey, trial: u64) -> f64 {
    let staged = key.clone();
    let scratch = vec![0u64; 4];
    half_to_unit(staged.mix(trial) ^ scratch[0], 0)
}

impl ThresholdKernel {
    /// BAD: Vec::new inside a decision method.
    fn sends_to_zero(&self, player: usize, input: f64, _coin: f64) -> bool {
        let mut trace: Vec<f64> = Vec::new();
        trace.push(input);
        input <= self.thresholds[player]
    }

    /// GOOD: construction happens once per run, off the hot path.
    fn build(thresholds: &[Rational]) -> ThresholdKernel {
        let converted: Vec<f64> = thresholds.iter().map(Rational::to_f64).collect();
        ThresholdKernel { thresholds: converted }
    }
}

/// GOOD: cold helpers may allocate freely.
fn summarize(totals: &[u64]) -> Vec<u64> {
    totals.to_vec()
}

impl ObliviousKernel {
    /// GOOD: the straight compare allocates nothing.
    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {
        coin < self.alpha[player]
    }
}

impl GenericKernel {
    /// Waived: a justified exception inside the hot path stays silent.
    fn players(&self) -> usize {
        // xtask:allow(hot-path-alloc): fixture waiver — audit probe clones a 2-element array
        let probe = self.audit.clone();
        let _ = probe;
        self.rule.n()
    }
}
