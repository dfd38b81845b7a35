//! A local, dependency-free property-testing harness.
//!
//! This workspace must build and test in air-gapped environments, so
//! it cannot depend on the upstream `proptest` crate. This crate
//! re-implements the API subset the workspace's property tests use —
//! the [`proptest!`] macro, range/tuple/[`any`]/[`Just`] strategies,
//! the [`Strategy`] combinators `prop_map` / `prop_flat_map` /
//! `prop_filter`, [`collection::vec`] / [`collection::btree_set`], and
//! the `prop_assert*` / [`prop_assume!`] macros — on the workspace's
//! deterministic seeded RNG.
//!
//! Differences from upstream, by design:
//!
//! - **No shrinking.** A failing case reports its value(s) via the
//!   assertion message, the case index, and the deterministic seed;
//!   rerunning reproduces it exactly.
//! - **Deterministic by default.** Each test's RNG seed is derived
//!   from the test's fully qualified name, so failures are stable
//!   across runs and machines. Set `PROPTEST_CASES` to raise or lower
//!   the case count globally.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use std::marker::PhantomData;

/// The RNG driving value generation (the workspace's seeded xoshiro).
pub type TestRng = rand::rngs::StdRng;

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Per-block configuration, set with
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case was vetoed by [`prop_assume!`]; it is retried with
    /// fresh values and does not count toward the case budget.
    Reject,
    /// An assertion failed; the test fails with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(message.into())
    }
}

/// FNV-1a over the test name: a stable, platform-independent seed.
fn seed_for(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Drives one property: generates cases, retries rejections, panics
/// with a reproducible report on the first failure.
///
/// Called by the code the [`proptest!`] macro expands to; not meant to
/// be used directly.
///
/// # Panics
///
/// Panics if any case fails, or if rejections exhaust the retry
/// budget (16 rejects per budgeted case, minimum 1024).
pub fn run_property_test<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    let seed = seed_for(name);
    let mut rng = TestRng::seed_from_u64(seed);
    let mut rejects_left = (u64::from(cases) * 16).max(1024);
    let mut passed = 0u32;
    while passed < cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejects_left -= 1;
                assert!(
                    rejects_left > 0,
                    "{name}: too many prop_assume rejections (passed {passed}/{cases})"
                );
            }
            Err(TestCaseError::Fail(message)) => {
                panic!("{name}: property failed at case {passed} (seed {seed:#x}): {message}")
            }
        }
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value with `map`.
    fn prop_map<U, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, map }
    }

    /// Generates a value, then generates from the strategy it selects
    /// (dependent generation).
    fn prop_flat_map<S, F>(self, make: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, make }
    }

    /// Discards generated values failing `keep`, retrying with fresh
    /// draws.
    fn prop_filter<F>(self, reason: &'static str, keep: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            keep,
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    map: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.map)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    make: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.make)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    keep: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let value = self.inner.generate(rng);
            if (self.keep)(&value) {
                return value;
            }
        }
        panic!(
            "prop_filter({:?}) rejected 10000 consecutive draws",
            self.reason
        )
    }
}

/// A strategy that always yields a clone of one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The whole-type strategy for `T`, e.g. `any::<u64>()`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical whole-domain generation strategy.
pub trait Arbitrary: Sized {
    /// Draws one value, biased toward boundary cases where sensible.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        use rand::RngCore;
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                use rand::RngCore;
                // One draw in 8 is a boundary value: uniform sampling
                // alone essentially never produces 0 or the extremes.
                if rng.next_u64() % 8 == 0 {
                    let edges = [0, 1, <$t>::MAX, <$t>::MIN, <$t>::MIN.wrapping_add(1)];
                    edges[(rng.next_u64() % edges.len() as u64) as usize]
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(i32, i64, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Strategies for collections of generated elements.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::BTreeSet;

    /// An inclusive size window for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> SizeRange {
            SizeRange {
                min: exact,
                max: exact,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(range: core::ops::Range<usize>) -> SizeRange {
            assert!(range.start < range.end, "empty collection size range");
            SizeRange {
                min: range.start,
                max: range.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(range: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(range.start() <= range.end(), "empty collection size range");
            SizeRange {
                min: *range.start(),
                max: *range.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.min..=self.max)
        }
    }

    /// `Vec`s of `size.into()` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet`s with `size.into()` distinct elements drawn from
    /// `element`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            // Duplicates don't grow the set, so bound the attempts;
            // reaching at least `min` is still guaranteed to be
            // possible only if the element domain is large enough,
            // which is on the test author (as in upstream).
            for _ in 0..target * 64 + 64 {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            assert!(
                set.len() >= self.size.min,
                "btree_set strategy could not reach minimum size {} (got {})",
                self.size.min,
                set.len()
            );
            set
        }
    }
}

/// Declares deterministic property tests over generated inputs.
///
/// Supports the upstream form used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(48))]
///
///     #[test]
///     fn name(x in strategy, y in other_strategy) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = ($config:expr); $(#[test] fn $name:ident ($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_property_test(
                    &config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__pt_rng| {
                        $(let $arg = $crate::Strategy::generate(&($strategy), __pt_rng);)+
                        (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                            $body
                            ::core::result::Result::Ok(())
                        })()
                    },
                );
            }
        )*
    };
}

/// Fails the current case unless `condition` holds.
#[macro_export]
macro_rules! prop_assert {
    ($condition:expr $(,)?) => {
        if !$condition {
            return ::core::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($condition)
            )));
        }
    };
    ($condition:expr, $($format:tt)+) => {
        if !$condition {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($condition),
                format!($($format)+)
            )));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {left:?}\n right: {right:?}"
            )));
        }
    }};
    ($left:expr, $right:expr, $($format:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {left:?}\n right: {right:?}\n {}",
                format!($($format)+)
            )));
        }
    }};
}

/// Fails the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {left:?}"
            )));
        }
    }};
}

/// Rejects the current case (retried with fresh values) unless
/// `condition` holds.
#[macro_export]
macro_rules! prop_assume {
    ($condition:expr $(,)?) => {
        if !$condition {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3i64..10, y in 1u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn map_and_filter_compose(
            v in crate::collection::vec((1i64..5, 1i64..5).prop_map(|(a, b)| a * b), 1..4)
        ) {
            prop_assert!(!v.is_empty() && v.len() <= 3);
            prop_assert!(v.iter().all(|&x| (1..=16).contains(&x)));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0i64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn btree_sets_hit_requested_sizes(s in crate::collection::btree_set(0i64..50, 2..6)) {
            prop_assert!(s.len() >= 2 && s.len() <= 5);
        }
    }

    #[test]
    fn failing_property_panics_with_case_report() {
        let result = std::panic::catch_unwind(|| {
            crate::run_property_test(&ProptestConfig::with_cases(8), "demo", |rng| {
                let x = Strategy::generate(&(0i64..100), rng);
                prop_assert!(x < 0, "x was {x}");
                Ok(())
            });
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("demo"), "{message}");
        assert!(message.contains("seed"), "{message}");
    }

    #[test]
    fn flat_map_feeds_dependent_strategy() {
        let strategy =
            (1usize..4).prop_flat_map(|len| crate::collection::vec(0i64..10, len..len + 1));
        let mut rng = crate::TestRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = strategy.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn just_clones_its_value() {
        let strategy = Just(vec![1, 2, 3]);
        let mut rng = crate::TestRng::seed_from_u64(2);
        assert_eq!(strategy.generate(&mut rng), vec![1, 2, 3]);
    }
}
