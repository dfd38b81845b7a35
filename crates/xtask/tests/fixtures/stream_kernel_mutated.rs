//! Fingerprint fixture: the mutated twin of `stream_kernel.rs`. Note
//! the reformatting and the comment churn — only the stride token
//! inside `next_unit` may trip the gate.

const CHUNK: usize = 256;

impl ChunkedDraws {
    // A rewritten comment: invisible to the token hash.
    fn refill(&mut self) {
        for slot in &mut self.buffer {
            *slot = unit_f64(&mut self.rng);
        }

        self.next = 0;
        self.refills += 1;
    }

    fn next_unit(&mut self) -> f64 {
        if self.next == CHUNK {
            self.refill();
        }
        let sample = self.buffer[self.next];
        self.next += 2;
        sample
    }
}
