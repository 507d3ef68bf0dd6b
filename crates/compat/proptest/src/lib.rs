//! Offline drop-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no registry access, so the property-test
//! entry points the unit tests rely on — the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`], [`any`],
//! integer-range and tuple strategies, and [`collection::vec`] — are
//! vendored here with the same call shapes. Cases are generated from a
//! fixed per-case seed (no shrinking; a failure message reports the case
//! number so it can be replayed by running the same test). Swap the path
//! dependency for the real `proptest` when a registry is available.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-test configuration (`cases` is the only knob the workspace uses).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The generator handed to strategies (a seeded [`StdRng`]).
pub type TestRng = StdRng;

/// Why a property-test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it does not count as a
    /// failure.
    Reject,
    /// `prop_assert!`-family failure with its message.
    Fail(String),
}

/// Body result of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator (the `proptest::strategy::Strategy` subset: sampling
/// only, no value trees or shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy for "any value of `T`" (the `proptest::arbitrary::any`
/// subset: plain `StandardSample` types).
pub struct Any<T>(std::marker::PhantomData<T>);

/// Uniform strategy over all of `T`.
pub fn any<T: rand::StandardSample>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: rand::StandardSample> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_standard(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (S0.0),
    (S0.0, S1.1),
    (S0.0, S1.1, S2.2),
    (S0.0, S1.1, S2.2, S3.3)
);

/// Collection strategies (`proptest::collection` subset).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Anything usable as the size argument of [`vec()`]: an exact length or
    /// a half-open range of lengths.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    /// `proptest::collection::vec`: vectors of `element` values.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a `use proptest::prelude::*;` site expects in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
    };
}

/// Drives one property: samples each strategy `config.cases` times and
/// runs the body, retrying rejected (`prop_assume!`-filtered) cases up to
/// a global budget. Called by the [`proptest!`] expansion; not public API
/// of the real crate.
pub fn run_property<F: FnMut(&mut TestRng) -> TestCaseResult>(
    config: &ProptestConfig,
    name: &str,
    mut case: F,
) {
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    let max_attempts = config.cases.saturating_mul(20).max(1024);
    while accepted < config.cases {
        assert!(
            attempts < max_attempts,
            "{name}: gave up after {attempts} attempts \
             ({accepted}/{} cases accepted; prop_assume! too strict?)",
            config.cases
        );
        // Deterministic per-case seed, decorrelated from the attempt index.
        let seed =
            0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempts) + 1) ^ name.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        attempts += 1;
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: case #{attempts} (seed {seed}) failed: {msg}")
            }
        }
    }
}

/// The `proptest!` test-family macro (sampling-only subset).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_property(&config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::sample(&$strat, rng);)+
                $body
                Ok(())
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// `prop_assert!`: fails the current case (with file/line context) instead
/// of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "{} at {}:{}",
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// `prop_assert_eq!`: equality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
}

/// `prop_assume!`: filters out cases violating a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_sample_in_bounds(
            n in 1usize..50,
            xs in crate::collection::vec(any::<bool>(), 3..9),
            pair in (0u8..3, 10u64..20),
        ) {
            prop_assert!((1..50).contains(&n));
            prop_assert!((3..9).contains(&xs.len()));
            prop_assert!(pair.0 < 3 && (10..20).contains(&pair.1));
        }

        #[test]
        fn assume_filters(v in 0usize..10) {
            prop_assume!(v % 2 == 0);
            prop_assert!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics_with_context() {
        crate::run_property(&ProptestConfig::with_cases(4), "always_fails", |_| {
            Err(crate::TestCaseError::Fail("boom".into()))
        });
    }

    #[test]
    fn prop_map_transforms() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let doubled = (1usize..5).prop_map(|v| v * 2);
        for _ in 0..20 {
            let v = doubled.sample(&mut rng);
            assert!(v % 2 == 0 && (2..10).contains(&v));
        }
    }
}
