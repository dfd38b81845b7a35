//! Fingerprint fixture: a miniature stream-critical kernel. The
//! mutated twin (`stream_kernel_mutated.rs`) differs by exactly one
//! token — the chunk constant — which is a real stream change.

const CHUNK: usize = 256;

impl ChunkedDraws {
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
        self.next += 1;
        sample
    }
}
