//! A local, dependency-free, deterministic stand-in for the `rand`
//! crate.
//!
//! This workspace must build and test in air-gapped environments, so
//! it vendors no third-party code. This crate re-implements the small
//! API subset the workspace actually uses — [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and [`Rng::gen_range`] — on top of
//! a xoshiro256++ generator seeded through SplitMix64.
//!
//! Two properties are load-bearing for the reproduction:
//!
//! 1. **Determinism.** The generator is pure integer arithmetic, so a
//!    given seed yields the same stream on every platform. All
//!    simulator determinism guarantees inherit from this.
//! 2. **No ambient entropy.** There is deliberately no `thread_rng`,
//!    `from_entropy`, or `OsRng`: every generator in the workspace
//!    must be constructed from an explicit seed. `cargo xtask lint`
//!    enforces the same rule at the source level.
//!
//! The streams differ from the upstream `rand` crate's `StdRng`
//! (ChaCha12); all in-repo consumers assert statistical tolerances or
//! same-seed reproducibility, never specific draws.

#![forbid(unsafe_code)]

/// Pre-seeded generator types.
pub mod rngs {
    pub use crate::xoshiro::StdRng;
}

/// SplitMix64 step, used to expand a 64-bit seed into the full
/// 256-bit xoshiro state (the seeding procedure its authors
/// recommend) and into [`counter::CounterKey`] key words.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

mod xoshiro {
    use crate::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard pseudo-random generator:
    /// xoshiro256++ (Blackman–Vigna), seeded via SplitMix64.
    ///
    /// Passes BigCrush in its published form; period `2^256 − 1`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut s = seed;
            let state = [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ];
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2 = s2 ^ s0;
            let s3 = s3 ^ s1;
            let s1 = s1 ^ s2;
            let s0 = s0 ^ s3;
            s2 ^= t;
            self.state = [s0, s1, s2, s3.rotate_left(45)];
            result
        }
    }
}

/// Counter-based generation: a Threefry-style 4×64 bijection whose
/// output block is a pure function of `(key, counter)`.
///
/// Unlike the sequential [`rngs::StdRng`] stream, nothing here has
/// mutable state: the caller addresses randomness by counter, so any
/// draw can be produced (or reproduced) in isolation. The simulator's
/// lane kernel builds on exactly that — lane `j` of trial-batch `i`
/// derives its uniforms from counters that encode `(batch, trial,
/// draw)`, two per output word ([`counter::half_to_unit`]), which
/// makes lane-width, thread-count, and checkpoint/resume invariance
/// properties hold by construction rather than by careful stream
/// bookkeeping.
///
/// The mix network is the Threefry-4×64 round structure from Salmon
/// et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11):
/// add–rotate–xor rounds on four 64-bit words with a five-word key
/// schedule injected every four rounds, at the 12-round
/// parameterization (`Threefry-4×64-12`) the paper reports as the
/// BigCrush-resistant minimum and random123 ships as a supported
/// variant. The simulator's trial kernel evaluates the bijection on
/// its hot path, so the round count is a deliberate
/// throughput/margin trade: the stream is versioned and fixture-
/// pinned, making any future margin bump (e.g. back to the default
/// 20 rounds) an explicit stream-version change rather than silent
/// drift. We treat the network as a statistically strong keyed
/// bijection for Monte-Carlo use; no compatibility with any external
/// implementation's byte output is claimed or relied on.
pub mod counter {
    use crate::splitmix64;

    /// Number of add–rotate–xor rounds: the empirical BigCrush
    /// minimum for Threefry-4×64 (Salmon et al. 2011, table 2),
    /// chosen over the default 20-round safety margin because the
    /// bijection sits on the simulator's per-trial hot path. Part of
    /// the versioned stream — changing it changes every draw.
    pub const ROUNDS: usize = 12;

    /// Skein's key-schedule parity constant `C240`.
    const C240: u64 = 0x1bd1_1bda_a9fc_1a22;

    /// Per-round rotation amounts for the `(x0, x1)` mix, repeating
    /// every eight rounds.
    pub const ROT_01: [u32; 8] = [14, 52, 23, 5, 25, 46, 58, 32];

    /// Per-round rotation amounts for the `(x2, x3)` mix.
    pub const ROT_23: [u32; 8] = [16, 57, 40, 37, 33, 12, 22, 32];

    /// An expanded Threefry key: four seed-derived words plus the
    /// parity word, precomputed once per stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CounterKey {
        ks: [u64; 5],
    }

    impl CounterKey {
        /// Expands a 64-bit seed into the five-word key schedule via
        /// four SplitMix64 draws (the same expansion [`StdRng`] uses
        /// for its state, so key quality matches generator seeding).
        ///
        /// [`StdRng`]: crate::rngs::StdRng
        #[must_use]
        pub fn from_seed(seed: u64) -> CounterKey {
            let mut s = seed;
            let k = [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ];
            CounterKey {
                ks: [k[0], k[1], k[2], k[3], C240 ^ k[0] ^ k[1] ^ k[2] ^ k[3]],
            }
        }
    }

    /// Adds subkey `s` of the key schedule into one block's state.
    /// Called with literal `s`, so the `% 5` schedule indexing folds
    /// to constants — which requires inlining into each call site;
    /// a mere `#[inline]` hint leaves that to codegen's discretion.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn inject(x: &mut [u64; 4], ks: &[u64; 5], s: usize) {
        x[0] = x[0].wrapping_add(ks[s % 5]);
        x[1] = x[1].wrapping_add(ks[(s + 1) % 5]);
        x[2] = x[2].wrapping_add(ks[(s + 2) % 5]);
        x[3] = x[3].wrapping_add(ks[(s + 3) % 5]).wrapping_add(s as u64);
    }

    /// One Threefry-4×64 block per lane, `L` independent lanes at a
    /// time: `ctr[w][j]` is counter word `w` of lane `j`, and the
    /// return value holds the four output words of each lane in the
    /// same layout. Lane `j` is exactly [`threefry4x64`] of lane `j`'s
    /// counter column, so the output bits are identical for every `L`.
    ///
    /// The loop runs over lanes and the whole twelve-round ladder is
    /// its body. That shape is what makes the ladder vectorize
    /// cleanly at every register width: the body is too large to be
    /// unrolled across lanes, so the compiler's loop vectorizer
    /// widens each scalar add, rotate and xor into one whole-register
    /// op over as many lanes as a register holds (8 at 512 bits, 4 at
    /// 256), and lays several registers side by side when `L` is
    /// larger. A lane-inner shape (one short loop over lanes per mix)
    /// is unrolled first and left to the superword vectorizer, which
    /// at 512 bits stitched the ladder together from `xmm`/`ymm`
    /// fragments with cross-register shuffles whenever a fold was
    /// fused after it.
    ///
    /// Always inlined: the lane kernel consumes the returned block
    /// word by word, so inlining lets the block stay in registers
    /// instead of being returned through memory; a mere `#[inline]`
    /// hint leaves that to codegen's discretion, which declines for a
    /// body this large.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    #[must_use]
    pub fn threefry4x64_lanes<const L: usize>(
        key: &CounterKey,
        ctr: &[[u64; L]; 4],
    ) -> [[u64; L]; 4] {
        let mut out = [[0; L]; 4];
        for j in 0..L {
            let block = threefry4x64(key, [ctr[0][j], ctr[1][j], ctr[2][j], ctr[3][j]]);
            for (word, value) in out.iter_mut().zip(block) {
                word[j] = value;
            }
        }
        out
    }

    /// Table-driven reference evaluation of the same bijection, used
    /// only by tests to prove the unrolled ladder matches the
    /// `ROUNDS`/`ROT_01`/`ROT_23` specification it claims to realize.
    #[cfg(test)]
    pub(crate) fn threefry4x64_reference(key: &CounterKey, ctr: [u64; 4]) -> [u64; 4] {
        let ks = key.ks;
        let mut x = ctr;
        for (i, lane) in x.iter_mut().enumerate() {
            *lane = lane.wrapping_add(ks[i]);
        }
        for d in 0..ROUNDS {
            let (r01, r23) = (ROT_01[d % 8], ROT_23[d % 8]);
            x[0] = x[0].wrapping_add(x[1]);
            x[1] = x[1].rotate_left(r01) ^ x[0];
            x[2] = x[2].wrapping_add(x[3]);
            x[3] = x[3].rotate_left(r23) ^ x[2];
            x.swap(1, 3);
            if (d + 1) % 4 == 0 {
                let s = (d + 1) / 4;
                for (i, lane) in x.iter_mut().enumerate() {
                    *lane = lane.wrapping_add(ks[(s + i) % 5]);
                }
                x[3] = x[3].wrapping_add(s as u64);
            }
        }
        x
    }

    /// One Threefry-4×64 block: the keyed bijection of one counter.
    ///
    /// Every operation is a scalar add/rotate/xor with a **literal**
    /// rotation amount: the twelve rounds are unrolled below (four at
    /// a time, so the standard `(x1, x3)` word permutation between
    /// rounds becomes static operand renaming instead of data
    /// movement). The ladder realizes exactly the loop
    /// `for d in 0..ROUNDS { mix with ROT_01[d % 8] / ROT_23[d % 8];
    /// permute; inject every 4th round }` — the round-constant tables
    /// stay the source of truth and a unit test cross-checks the
    /// ladder against a table-driven evaluation. Scalar replay
    /// (checkpoint resume, `load_stats`) calls it directly, and
    /// [`threefry4x64_lanes`] calls it once per lane, so both share
    /// one bijection by construction.
    ///
    /// Always inlined, so the lane loop that calls it sees the whole
    /// ladder as its body.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    #[must_use]
    pub fn threefry4x64(key: &CounterKey, ctr: [u64; 4]) -> [u64; 4] {
        /// One mix: `a += b; b = rotl(b, R) ^ a`.
        macro_rules! mix {
            ($x:ident, $a:literal, $b:literal, $r:literal) => {
                $x[$a] = $x[$a].wrapping_add($x[$b]);
                $x[$b] = $x[$b].rotate_left($r) ^ $x[$a];
            };
        }
        /// Four rounds with the `(x1, x3)` permutation applied
        /// statically: even rounds mix `(x0, x1)`/`(x2, x3)`, odd
        /// rounds `(x0, x3)`/`(x2, x1)`.
        macro_rules! four_rounds {
            ($x:ident, $r0:literal $s0:literal $r1:literal $s1:literal
             $r2:literal $s2:literal $r3:literal $s3:literal) => {
                mix!($x, 0, 1, $r0);
                mix!($x, 2, 3, $s0);
                mix!($x, 0, 3, $r1);
                mix!($x, 2, 1, $s1);
                mix!($x, 0, 1, $r2);
                mix!($x, 2, 3, $s2);
                mix!($x, 0, 3, $r3);
                mix!($x, 2, 1, $s3);
            };
        }
        let ks = key.ks;
        let mut x = ctr;
        inject(&mut x, &ks, 0);
        // Rounds 0–3 (rotation-table rows 0–3).
        four_rounds!(x, 14 16 52 57 23 40 5 37);
        inject(&mut x, &ks, 1);
        // Rounds 4–7 (rows 4–7).
        four_rounds!(x, 25 33 46 12 58 22 32 32);
        inject(&mut x, &ks, 2);
        // Rounds 8–11 (the tables repeat every eight rounds).
        four_rounds!(x, 14 16 52 57 23 40 5 37);
        inject(&mut x, &ks, 3);
        x
    }

    /// Float bits of `1.0`: exponent `0x3ff`, zero mantissa.
    const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

    /// Mantissa bits 51..=20, where a 32-bit half lands so that it
    /// counts units of `2⁻³²` above `1.0`.
    const HALF_MASK: u64 = 0x000f_ffff_fff0_0000;

    /// Mantissa bit 19: `2⁻³³`, the lattice's half-step offset.
    const MIDPOINT_BIT: u64 = 1 << 19;

    /// Maps half `half` of a 64-bit counter word — `0` for the high
    /// 32 bits, `1` for the low 32 bits — to the midpoint lattice
    /// `u = (h + ½)·2⁻³²` in the open interval `(0, 1)`. Every
    /// Threefry word therefore carries two uniforms.
    ///
    /// The lattice is symmetric: `u ↦ 1 − u` sends it onto itself
    /// (`h ↦ 2³² − 1 − h`), its mean over all `h` is exactly `½`, and
    /// no point equals a dyadic rational with at most 32 fraction
    /// bits, so no draw ties a threshold such as `½` or `¾`. Each draw
    /// is within `2⁻³³` of a continuous uniform.
    ///
    /// Computed with integer operations only: the half's bits and the
    /// midpoint bit become the mantissa of a float in `[1, 2)`, and
    /// subtracting `1.0` is exact there (Sterbenz). `half` must be `0`
    /// or `1`; only its low bit is read.
    #[inline]
    #[must_use]
    pub fn half_to_unit(word: u64, half: usize) -> f64 {
        let bits = ((word << (32 * (half & 1))) >> 12) & HALF_MASK;
        f64::from_bits(ONE_BITS | MIDPOINT_BIT | bits) - 1.0
    }

    /// `2³³`: the lattice's scale. A draw `u = half_to_unit(word,
    /// half)` equals `v / LATTICE_SCALE` exactly, where
    /// `v = half_to_lattice(word, half)`.
    pub const LATTICE_SCALE: f64 = 8_589_934_592.0;

    /// The same draw as [`half_to_unit`], as the odd lattice integer
    /// `v = 2h + 1` in `[1, 2³³)`: `half_to_unit(word, half)` is
    /// exactly `v as f64 / LATTICE_SCALE` (both `v < 2⁵³` and the
    /// power-of-two scale are exact in `f64`).
    ///
    /// Comparisons and sums of draws can therefore run on these
    /// integers instead of on floats. Shifting the wanted half to the
    /// top and right by 31 leaves `2h` plus one stray bit, which the
    /// final `| 1` overwrites. `half` must be `0` or `1`; only its low
    /// bit is read.
    #[inline]
    #[must_use]
    pub fn half_to_lattice(word: u64, half: usize) -> u64 {
        ((word << (32 * (half & 1))) >> 31) | 1
    }
}

/// Generators constructible from an explicit seed.
///
/// Unlike upstream `rand`, this is the **only** way to construct a
/// generator — there is no entropy-based constructor by design.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw generator interface: a stream of uniform 64-bit words.
pub trait RngCore {
    /// Returns the next 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<G: RngCore> Rng for G {}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from `self` using `rng`.
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T;
}

/// A transparent [`RngCore`] adapter that counts the 64-bit words
/// drawn from the wrapped generator.
///
/// The stream is untouched — `CountingRng::new(g)` yields exactly the
/// words `g` would — so the count is a pure audit trail. The
/// simulator's RNG-consumption metrics are validated against this
/// adapter: every `[0, 1)` sample costs exactly one word, so word
/// counts and draw counts must agree.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::{unit_f64, CountingRng, SeedableRng};
///
/// let mut counted = CountingRng::new(StdRng::seed_from_u64(7));
/// let mut plain = StdRng::seed_from_u64(7);
/// for _ in 0..10 {
///     assert_eq!(unit_f64(&mut counted), unit_f64(&mut plain));
/// }
/// assert_eq!(counted.words(), 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountingRng<G> {
    inner: G,
    words: u64,
}

impl<G> CountingRng<G> {
    /// Wraps `inner`, starting the word count at zero.
    pub fn new(inner: G) -> CountingRng<G> {
        CountingRng { inner, words: 0 }
    }

    /// Number of 64-bit words drawn through this adapter so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Unwraps the adapter, returning the generator in its current
    /// stream position.
    pub fn into_inner(self) -> G {
        self.inner
    }
}

impl<G: SeedableRng> SeedableRng for CountingRng<G> {
    fn seed_from_u64(seed: u64) -> CountingRng<G> {
        CountingRng::new(G::seed_from_u64(seed))
    }
}

impl<G: RngCore> RngCore for CountingRng<G> {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// Converts 53 random bits into a uniform `f64` in `[0, 1)`.
///
/// This is the canonical conversion behind every float sample drawn
/// from a sequential generator: [`Rng::gen_range`] over `0.0..1.0`
/// returns exactly this value. (The counter stream converts its words
/// differently, two uniforms per word: [`counter::half_to_unit`].)
// xtask:allow(no-twin-f64): bit-level RNG conversion, not a twin of an exact pipeline
pub fn unit_f64<G: RngCore>(rng: &mut G) -> f64 {
    // 2^-53; the standard bit-shift construction.
    (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<G: RngCore>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let width = self.end - self.start;
        let x = self.start + width * unit_f64(rng);
        // Guard the open upper bound against floating-point rounding.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

/// Samples an integer uniformly from `[0, span)`.
///
/// Uses 64-bit modulo reduction: the bias is at most `span / 2^64`,
/// immeasurable for every span this workspace uses.
fn below<G: RngCore>(rng: &mut G, span: u64) -> u64 {
    rng.next_u64() % span
}

macro_rules! int_sample_range {
    ($($t:ty => $unsigned:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<G: RngCore>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $unsigned).wrapping_sub(self.start as $unsigned);
                self.start.wrapping_add(below(rng, span as u64) as $t)
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<G: RngCore>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as $unsigned).wrapping_sub(start as $unsigned) as u64;
                if span == u64::MAX {
                    return start.wrapping_add(rng.next_u64() as $t);
                }
                start.wrapping_add(below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(
    i32 => u32,
    i64 => u64,
    u32 => u32,
    u64 => u64,
    usize => usize,
);

#[cfg(test)]
mod counter_tests {
    use super::counter::{
        half_to_lattice, half_to_unit, threefry4x64, threefry4x64_lanes, CounterKey, LATTICE_SCALE,
    };
    use super::rngs::StdRng;
    use super::{RngCore, SeedableRng};

    #[test]
    fn unrolled_ladder_matches_the_table_driven_reference() {
        // The production ladder hardcodes the rotation literals for
        // register-resident codegen; this pins it to the
        // ROUNDS/ROT_01/ROT_23 specification it claims to realize.
        let key = CounterKey::from_seed(0xfeed);
        for i in 0..64u64 {
            let ctr = [i, i ^ 0xdead_beef, i.wrapping_mul(77), !i];
            assert_eq!(
                threefry4x64(&key, ctr),
                super::counter::threefry4x64_reference(&key, ctr),
                "ctr {ctr:?}"
            );
        }
    }

    #[test]
    fn blocks_are_deterministic() {
        let key = CounterKey::from_seed(42);
        let twin = CounterKey::from_seed(42);
        for ctr in 0..100u64 {
            assert_eq!(
                threefry4x64(&key, [ctr, 1, 2, 3]),
                threefry4x64(&twin, [ctr, 1, 2, 3])
            );
        }
    }

    #[test]
    fn lane_columns_match_scalar_blocks() {
        // The load-bearing property for the lane kernel: lane j of a
        // wide call is bit-identical to a scalar call on lane j's
        // counter, for every width we instantiate.
        fn check<const L: usize>(key: &CounterKey) {
            let mut ctr = [[0u64; L]; 4];
            for j in 0..L {
                // batch, trial, draw block, domain of lane j.
                let words = [1000 + j as u64, j as u64 * 17, j as u64 % 3, 0xD0];
                for (word, lanes) in words.into_iter().zip(ctr.iter_mut()) {
                    lanes[j] = word;
                }
            }
            let wide = threefry4x64_lanes::<L>(key, &ctr);
            for j in 0..L {
                let scalar = threefry4x64(key, [ctr[0][j], ctr[1][j], ctr[2][j], ctr[3][j]]);
                for w in 0..4 {
                    assert_eq!(wide[w][j], scalar[w], "lane {j} word {w} at L={L}");
                }
            }
        }
        // Widths 3 and 12 are not multiples of a 512-bit register's
        // eight lanes, so the vectorized lane loop runs its remainder.
        let key = CounterKey::from_seed(7);
        check::<1>(&key);
        check::<3>(&key);
        check::<4>(&key);
        check::<8>(&key);
        check::<12>(&key);
        check::<16>(&key);
    }

    #[test]
    fn counter_bits_avalanche() {
        // Flipping any single counter bit should flip roughly half of
        // the 256 output bits; require at least a third on average
        // and at least one flip in every word.
        let key = CounterKey::from_seed(3);
        let base = threefry4x64(&key, [5, 6, 7, 8]);
        let mut total = 0u32;
        let mut cases = 0u32;
        for word in 0..4 {
            for bit in (0..64).step_by(7) {
                let mut ctr = [5u64, 6, 7, 8];
                ctr[word] ^= 1 << bit;
                let out = threefry4x64(&key, ctr);
                let flipped: u32 = (0..4).map(|w| (out[w] ^ base[w]).count_ones()).sum();
                assert!(flipped > 0, "word {word} bit {bit} left output unchanged");
                total += flipped;
                cases += 1;
            }
        }
        let mean = f64::from(total) / f64::from(cases);
        assert!((85.0..170.0).contains(&mean), "mean avalanche {mean} bits");
    }

    #[test]
    fn keys_decorrelate_streams() {
        let a = CounterKey::from_seed(1);
        let b = CounterKey::from_seed(2);
        let same = (0..256u64)
            .filter(|&c| threefry4x64(&a, [c, 0, 0, 0]) == threefry4x64(&b, [c, 0, 0, 0]))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn sampled_counters_do_not_collide() {
        let key = CounterKey::from_seed(11);
        let mut seen: Vec<[u64; 4]> = (0..4096u64)
            .map(|c| threefry4x64(&key, [c % 64, c / 64, 0, 0]))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096, "4096 distinct counters, 4096 blocks");
    }

    #[test]
    fn counter_units_are_uniform() {
        let key = CounterKey::from_seed(9);
        let n = 25_000u64;
        let mut sum = 0.0;
        let mut below_tenth = 0u32;
        for c in 0..n {
            for w in threefry4x64(&key, [c, 0, 0, 0]) {
                for half in 0..2 {
                    let x = half_to_unit(w, half);
                    assert!(0.0 < x && x < 1.0, "{x}");
                    sum += x;
                    if x < 0.1 {
                        below_tenth += 1;
                    }
                }
            }
        }
        let draws = (n * 8) as f64;
        let mean = sum / draws;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        let frac = f64::from(below_tenth) / draws;
        assert!((frac - 0.1).abs() < 0.005, "P(x < 0.1) ~ {frac}");
    }

    /// The lattice point of a 32-bit half `h`: `(h + ½)·2⁻³²`.
    fn lattice(h: u32) -> f64 {
        (f64::from(h) + 0.5) / 4_294_967_296.0
    }

    #[test]
    fn halves_map_onto_the_midpoint_lattice() {
        let tiny = 1.0 / 8_589_934_592.0; // 2^-33
        assert_eq!(half_to_unit(0, 0), tiny);
        assert_eq!(half_to_unit(0, 1), tiny);
        assert_eq!(half_to_unit(u64::MAX, 0), 1.0 - tiny);
        assert_eq!(half_to_unit(u64::MAX, 1), 1.0 - tiny);
        // Half 0 reads the high 32 bits, half 1 the low 32 bits.
        let word = 0x8000_0000_0000_0001u64;
        assert_eq!(half_to_unit(word, 0), lattice(0x8000_0000));
        assert_eq!(half_to_unit(word, 1), lattice(1));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let word = rng.next_u64();
            let (high, low) = ((word >> 32) as u32, word as u32);
            assert_eq!(half_to_unit(word, 0), lattice(high));
            assert_eq!(half_to_unit(word, 1), lattice(low));
            // `1 − u` is exact and lands on the lattice point of the
            // complementary half.
            assert_eq!(1.0 - half_to_unit(word, 0), lattice(!high));
            assert_eq!(1.0 - half_to_unit(word, 1), lattice(!low));
        }
        // No lattice point ties a dyadic threshold.
        for h in [
            0x3fff_ffffu32,
            0x4000_0000,
            0x7fff_ffff,
            0x8000_0000,
            0xc000_0000,
        ] {
            for threshold in [0.25, 0.5, 0.75] {
                assert_ne!(lattice(h), threshold);
            }
        }
    }

    #[test]
    fn lattice_integers_rebuild_the_unit_draws_exactly() {
        let check = |word: u64| {
            for half in 0..2 {
                let v = half_to_lattice(word, half);
                assert_eq!(v % 2, 1, "word {word:#x} half {half}");
                assert!(v < 1 << 33, "word {word:#x} half {half}");
                assert_eq!(
                    v as f64 / LATTICE_SCALE,
                    half_to_unit(word, half),
                    "word {word:#x} half {half}"
                );
            }
        };
        for word in [0, u64::MAX, 0x8000_0000_0000_0001] {
            check(word);
        }
        assert_eq!(half_to_lattice(0, 0), 1);
        assert_eq!(half_to_lattice(u64::MAX, 1), (1 << 33) - 1);
        // Half 0 reads the high 32 bits, half 1 the low 32 bits.
        assert_eq!(half_to_lattice(0x8000_0000_0000_0001, 0), (1 << 32) + 1);
        assert_eq!(half_to_lattice(0x8000_0000_0000_0001, 1), 3);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10_000 {
            check(rng.next_u64());
        }
    }

    #[test]
    fn the_two_halves_of_a_word_are_independent() {
        // Chi-square over the joint (high, low) cell of one word on a
        // 16 × 16 grid: 255 degrees of freedom, whose 1e-6 upper
        // quantile is about 375.
        let key = CounterKey::from_seed(13);
        let mut cells = [0u32; 256];
        let blocks = 12_800u64;
        for c in 0..blocks {
            for w in threefry4x64(&key, [c, 1, 2, 3]) {
                let cell = |half| (half_to_unit(w, half) * 16.0) as usize;
                cells[16 * cell(0) + cell(1)] += 1;
            }
        }
        let expected = (blocks * 4) as f64 / 256.0;
        let chi2: f64 = cells
            .iter()
            .map(|&count| (f64::from(count) - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 375.0, "chi-square {chi2} on 255 degrees of freedom");
        assert!(chi2 > 160.0, "chi-square {chi2} suspiciously small");
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_lie_in_half_open_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100_000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn unit_floats_have_uniform_mean_and_spread() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000;
        let mut sum = 0.0;
        let mut below_tenth = 0u32;
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            sum += x;
            if x < 0.1 {
                below_tenth += 1;
            }
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        let frac = f64::from(below_tenth) / f64::from(n);
        assert!((frac - 0.1).abs() < 0.005, "P(x < 0.1) ~ {frac}");
    }

    #[test]
    fn gen_range_unit_interval_equals_unit_f64() {
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..10_000 {
            let x: f64 = a.gen_range(0.0..1.0);
            assert_eq!(x, super::unit_f64(&mut b));
        }
    }

    #[test]
    fn scaled_float_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(0.25..2.5);
            assert!((0.25..2.5).contains(&x), "{x}");
        }
    }

    #[test]
    fn integer_ranges_cover_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k: usize = rng.gen_range(2..=8);
            assert!((2..=8).contains(&k));
            seen[k - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn half_open_integer_range_excludes_end() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let k: i64 = rng.gen_range(-3i64..3);
            assert!((-3..3).contains(&k));
        }
    }

    #[test]
    fn negative_integer_spans_work() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut any_negative = false;
        for _ in 0..1_000 {
            let k: i32 = rng.gen_range(-10i32..=-1);
            assert!((-10..=-1).contains(&k));
            any_negative |= k < 0;
        }
        assert!(any_negative);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _: i64 = rng.gen_range(5i64..5);
    }

    #[test]
    fn counting_rng_is_stream_transparent_and_exact() {
        let mut counted = super::CountingRng::<StdRng>::seed_from_u64(99);
        let mut plain = StdRng::seed_from_u64(99);
        assert_eq!(counted.words(), 0);
        for i in 0..1_000u64 {
            assert_eq!(counted.next_u64(), plain.next_u64(), "word {i}");
            assert_eq!(counted.words(), i + 1);
        }
        // Float and integer sampling each cost exactly one word.
        let before = counted.words();
        let _: f64 = counted.gen_range(0.0..1.0);
        let _: u64 = counted.gen_range(0u64..17);
        assert_eq!(counted.words(), before + 2);
        // into_inner hands back the generator mid-stream (advance the
        // plain twin past the two sampling words first).
        let _ = plain.next_u64();
        let _ = plain.next_u64();
        let mut inner = counted.into_inner();
        assert_eq!(inner.next_u64(), plain.next_u64());
    }
}
