//! A vendored, dependency-free re-implementation of the subset of the
//! `proptest` API this workspace uses.
//!
//! The build environment has no crates.io access, so the real `proptest`
//! (and its sizeable dependency tree) cannot be resolved. The property
//! tests themselves are valuable, so instead of deleting them this crate
//! provides the same surface — the [`proptest!`] macro, range/`any`/
//! collection/sample strategies, `prop_map`/`prop_flat_map`, and the
//! `prop_assert*` macros — backed by a deterministic splitmix64 generator.
//!
//! Differences from the real crate, by design:
//!
//! * no shrinking: a failing case reports its inputs via the assertion
//!   message and the deterministic per-test seed makes it reproducible;
//! * `prop_assert*` are plain `assert*` (they panic instead of returning
//!   `Err`), which is equivalent under the test harness;
//! * the number of cases defaults to 64 and is overridable with
//!   `PROPTEST_CASES`; the base seed with `PROPTEST_SEED`.

/// Test-runner plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    /// Deterministic splitmix64 generator seeded per test function.
    pub struct Gen {
        state: u64,
    }

    impl Gen {
        /// Generator seeded from the test name (stable across runs) and
        /// the optional `PROPTEST_SEED` environment variable.
        pub fn for_test(name: &str) -> Gen {
            let mut seed: u64 = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            for b in name.bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01B3);
            }
            Gen { state: seed }
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Multiply-shift (Lemire); bias is negligible for test sizing.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Number of cases per property (`PROPTEST_CASES`, default 64).
    pub fn cases() -> usize {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }
}

use test_runner::Gen;

/// A generator of values for one property parameter.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value.
    fn generate(&self, gen: &mut Gen) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate an intermediate value and use it to build a second
    /// strategy that produces the final value.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, gen: &mut Gen) -> O {
        (self.f)(self.inner.generate(gen))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, gen: &mut Gen) -> S2::Value {
        (self.f)(self.inner.generate(gen)).generate(gen)
    }
}

/// Always produces a clone of the same value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _gen: &mut Gen) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + gen.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return gen.next_u64() as $t;
                }
                (lo as i128 + gen.below(span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start as f64 + gen.unit() * (self.end as f64 - self.start as f64);
                v as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let (lo, hi) = (*self.start() as f64, *self.end() as f64);
                let v = lo + gen.unit() * (hi - lo);
                v as $t
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(gen),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Trait behind [`any`], mirroring `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(gen: &mut Gen) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(gen: &mut Gen) -> $t {
                gen.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(gen: &mut Gen) -> bool {
        gen.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(gen: &mut Gen) -> f32 {
        ((gen.unit() - 0.5) * 2e9) as f32
    }
}

impl Arbitrary for f64 {
    fn arbitrary(gen: &mut Gen) -> f64 {
        (gen.unit() - 0.5) * 2e18
    }
}

/// Strategy for an unconstrained value of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

/// An unconstrained value of `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::sample::select`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::test_runner::Gen;
        use crate::Strategy;

        /// Size specification for [`vec`]: exact, `a..b`, or `a..=b`.
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> SizeRange {
                assert!(r.start < r.end, "empty vec size range");
                SizeRange {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
                SizeRange {
                    lo: *r.start(),
                    hi_inclusive: *r.end(),
                }
            }
        }

        /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// A vector whose elements come from `element` and whose length
        /// comes from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
                let span = (self.size.hi_inclusive - self.size.lo) as u64;
                let n = self.size.lo
                    + if span == 0 {
                        0
                    } else {
                        gen.below(span + 1) as usize
                    };
                (0..n).map(|_| self.element.generate(gen)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::test_runner::Gen;
        use crate::Strategy;

        /// Strategy choosing uniformly among fixed options.
        pub struct Select<T: Clone> {
            options: Vec<T>,
        }

        /// Choose uniformly from `options` (must be non-empty).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select() needs at least one option");
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, gen: &mut Gen) -> T {
                self.options[gen.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::test_runner;
    pub use crate::{any, Any, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Skip the current generated case when an assumption does not hold. Only
/// valid directly inside a [`proptest!`] body (it continues the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            continue;
        }
    };
}

/// Assert inside a property body (panics; no shrink phase here).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declare property tests: each `fn name(arg in strategy, ...)` expands to
/// a `#[test]` that runs the body for [`test_runner::cases`] generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __gen = $crate::test_runner::Gen::for_test(stringify!($name));
                for __case in 0..$crate::test_runner::cases() {
                    let _ = __case;
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __gen);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Ranges stay in bounds for ints and floats.
        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in -2.5f32..2.5, c in 1u64..=4) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-2.5..2.5).contains(&b));
            prop_assert!((1..=4).contains(&c));
        }

        /// vec sizes respect the size range; select picks from options.
        #[test]
        fn collections_and_select(
            xs in prop::collection::vec(any::<u32>(), 2..5),
            pick in prop::sample::select(vec![7u8, 8, 9]),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5);
            prop_assert!([7u8, 8, 9].contains(&pick));
        }

        /// prop_map / prop_flat_map compose.
        #[test]
        fn combinators(v in (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
            prop::collection::vec(0f64..1.0, r * c).prop_map(move |d| (r, c, d))
        })) {
            let (r, c, d) = v;
            prop_assert_eq!(d.len(), r * c);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = test_runner::Gen::for_test("x");
        let mut b = test_runner::Gen::for_test("x");
        let mut c = test_runner::Gen::for_test("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
