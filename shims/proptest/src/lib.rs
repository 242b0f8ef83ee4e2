//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `proptest` to this shim. It keeps the *spirit* of property
//! testing — each `proptest!` test runs its body against `cases`
//! randomly generated inputs from composable [`strategy::Strategy`]
//! values — but does **no shrinking**: a failing case panics with the
//! plain assertion message. The per-test RNG is seeded from the test's
//! module path, so failures are reproducible run to run.

pub mod test_runner {
    /// Deterministic splitmix64 generator used to drive strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name so every run of a given test sees the
        /// same case sequence.
        pub fn from_name(name: &str) -> Self {
            let mut h = 0xcbf29ce484222325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Runner configuration; only the case count is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy: Sized {
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMap<Self, F> {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            f: F,
        ) -> Filter<Self, F> {
            Filter {
                inner: self,
                reason,
                f,
            }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.new_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}' rejected 1000 draws in a row", self.reason);
        }
    }

    /// A strategy that always yields a clone of one value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (self.start as i128, self.end as i128);
                    assert!(lo < hi, "empty range strategy");
                    let span = (hi - lo) as u128;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategies!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start() <= self.end(), "empty range strategy");
            self.start() + rng.next_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Full-domain generation for primitives, via [`any`].
    pub trait Arbitrary {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        /// Moderate finite values; full-bit-pattern floats (NaN, ±Inf,
        /// subnormals) are injected explicitly by the fault-injection
        /// suite instead.
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            (rng.next_f64() - 0.5) * 2e6
        }
    }

    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// `any::<T>()` — a strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as the size argument of [`vec`]: a fixed length
    /// or a range of lengths.
    pub trait IntoSize {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSize for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSize for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    impl IntoSize for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start() <= self.end(), "empty size range");
            self.start() + (rng.next_u64() as usize) % (self.end() - self.start() + 1)
        }
    }

    pub struct VecStrategy<S, Z> {
        elem: S,
        size: Z,
    }

    impl<S: Strategy, Z: IntoSize> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.new_value(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `elem`-generated values with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy, Z: IntoSize>(elem: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { elem, size }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `body` for `config.cases` random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut __rng);
                    )*
                    { $body }
                }
            }
        )*
    };
}

/// Assertion macros: identical to `assert!`-family in this shim (no
/// rejection bookkeeping, failures panic immediately).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec as pvec;
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..500 {
            let u = Strategy::new_value(&(2usize..=9), &mut rng);
            assert!((2..=9).contains(&u));
            let i = Strategy::new_value(&(-4i32..=4), &mut rng);
            assert!((-4..=4).contains(&i));
            let f = Strategy::new_value(&(-10.0f64..10.0), &mut rng);
            assert!((-10.0..10.0).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_follow_size() {
        let mut rng = TestRng::from_name("vec");
        let s = pvec(0usize..5, 3..=7);
        for _ in 0..100 {
            let v = Strategy::new_value(&s, &mut rng);
            assert!((3..=7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
        let fixed = pvec(any::<u32>(), 4usize);
        assert_eq!(Strategy::new_value(&fixed, &mut rng).len(), 4);
    }

    #[test]
    fn flat_map_and_filter_compose() {
        let mut rng = TestRng::from_name("compose");
        let s = (1usize..=4)
            .prop_flat_map(|n| pvec(0i32..10, n..=n))
            .prop_map(|v| v.iter().sum::<i32>())
            .prop_filter("nonzero", |&x| x != 0);
        for _ in 0..100 {
            assert_ne!(Strategy::new_value(&s, &mut rng), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_cases(x in 1usize..=100, v in pvec(any::<u64>(), 1..=8)) {
            prop_assert!((1..=100).contains(&x));
            prop_assert!(!v.is_empty() && v.len() <= 8);
        }
    }
}
