//! A minimal, dependency-free, **offline** stand-in for the `proptest`
//! crate, covering exactly the API surface this workspace uses.
//!
//! The build environment for this repository has no crates.io access, so
//! the real `proptest` cannot be vendored. This shim keeps the call sites
//! source-compatible: the [`proptest!`] macro, range/tuple/`Just`/
//! `prop_oneof!`/`collection::vec` strategies, `any::<T>()`, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate (deliberate, documented):
//!
//! * **No shrinking.** A failing case reports its deterministic case seed
//!   so it can be replayed, but is not minimized.
//! * **Fixed deterministic seeding.** Cases derive from a SplitMix64
//!   stream seeded by the test name, so runs are reproducible across
//!   machines and never flaky.
//! * **Default case count is 32** (the real default of 256 is tuned for
//!   microsecond properties; several properties here run whole simulator
//!   lifetimes per case).

#![forbid(unsafe_code)]

use core::fmt;
use core::marker::PhantomData;
use core::ops::Range;

/// Deterministic SplitMix64 generator used for all sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty sampling bound");
        // Modulo bias is irrelevant at test-sampling fidelity.
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and should be resampled.
    Reject(String),
    /// The case failed an assertion.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given message.
    #[must_use]
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Runner configuration; only `cases` is honoured by the shim.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the property to pass.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 32 }
        }
    }
}

/// A source of random values of one type.
///
/// Unlike the real proptest `Strategy` there is no intermediate value
/// tree: sampling directly yields the value (no shrinking).
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// A strategy producing one fixed value (cloned per case).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The "any value of `T`" strategy.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Uniform choice between same-typed boxed strategies (see
/// [`prop_oneof!`](crate::prop_oneof)).
pub struct OneOf<V> {
    choices: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Builds the choice strategy; `choices` must be non-empty.
    #[must_use]
    pub fn new(choices: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { choices }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.choices.len() as u64) as usize;
        self.choices[i].sample(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::Range;

    /// Something usable as the size argument of [`vec()`]: an exact size or
    /// a `lo..hi` range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec<S::Value>` with sizes drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector strategy with element strategy `element` and `size` either
    /// a fixed `usize` or a `lo..hi` range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Everything call sites import.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, Strategy, TestCaseError, TestRng,
    };
}

/// FNV-1a hash of the test name, used as the per-test base seed.
#[must_use]
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives one property: samples cases until `cfg.cases` pass, panicking on
/// the first failure. Called by the [`proptest!`] expansion; not public
/// API of the real crate.
pub fn run_property<F>(cfg: &test_runner::Config, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = seed_from_name(name);
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let max_rejects = u64::from(cfg.cases) * 64 + 256;
    let mut case_index: u64 = 0;
    while passed < cfg.cases {
        let seed = base ^ case_index.wrapping_mul(0x5851_f42d_4c95_7f2d);
        let mut rng = TestRng::new(seed);
        case_index += 1;
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "property '{name}': too many prop_assume! rejections \
                     ({rejected} rejects for {passed} passes)"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property '{name}' failed at case #{case} (seed {seed:#x}): {msg}",
                    case = case_index - 1
                );
            }
        }
    }
}

/// Declares property tests. Mirrors the real `proptest!` syntax for the
/// forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn prop(x in 0u32..10, ys in proptest::collection::vec(any::<u8>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal: expands each `fn` inside a [`proptest!`] block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            $crate::run_property(&__cfg, stringify!($name), |__proptest_rng| {
                $crate::__proptest_bind! { __proptest_rng, $($params)* }
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
}

/// Internal: binds one parameter list entry at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, mut $name:ident in $strat:expr, $($rest:tt)*) => {
        let mut $name = $crate::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, mut $name:ident in $strat:expr) => {
        let mut $name = $crate::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident, mut $name:ident: $ty:ty, $($rest:tt)*) => {
        let mut $name = <$ty as $crate::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, mut $name:ident: $ty:ty) => {
        let mut $name = <$ty as $crate::Arbitrary>::arbitrary($rng);
    };
    ($rng:ident, $name:ident: $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, $name:ident: $ty:ty) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary($rng);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects (resamples) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice among strategies that share a value type.
///
/// All arms are boxed, so heterogeneous strategy *types* with one value
/// type are accepted, matching the real macro's common uses.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(::std::boxed::Box::new($strat) as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::sample(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn vec_and_tuple_and_map() {
        let mut rng = TestRng::new(2);
        let s = crate::collection::vec((0u32..4, 0.0f64..1.0), 2..5).prop_map(|v| v.len());
        for _ in 0..100 {
            let len = s.sample(&mut rng);
            assert!((2..5).contains(&len));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn macro_binds_and_asserts(
            x in 0u32..5,
            mut ys in crate::collection::vec(any::<bool>(), 3),
            z: [u8; 4],
        ) {
            prop_assume!(x != 4);
            ys.push(true);
            prop_assert!(x < 4, "x was {x}");
            prop_assert_eq!(ys.len(), 4);
            prop_assert_ne!(z.len(), 0);
        }
    }
}
