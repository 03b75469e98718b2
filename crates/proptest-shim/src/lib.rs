//! Offline vendored subset of the `proptest` API.
//!
//! The build environment of this repository has no access to crates.io, so
//! this workspace-local crate reimplements the slice of proptest the test
//! suites use: the [`proptest!`] and `prop_assert*` macros, the
//! [`Strategy`] trait with `prop_map`, [`any`], integer/float range
//! strategies, tuple strategies and the `collection::{vec, btree_set,
//! btree_map}` combinators.
//!
//! Differences from upstream, by design:
//!
//! * **Deterministic**: every test derives its RNG seed from the test's
//!   module path and name, so a failing case reproduces on every run (the
//!   moral equivalent of a committed proptest regression file).
//! * **No shrinking**: a failing case reports its inputs via the assertion
//!   message but is not minimized.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use rand::rngs::StdRng;
pub use rand::SeedableRng;
use rand::{Rng, RngCore};

/// Per-proptest-block configuration (subset of upstream's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed `prop_assert*` inside a test case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Derives a stable 64-bit seed from a test's fully qualified name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A generator of random values for one test argument.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical full-domain strategy (subset of upstream's
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws one value from the full domain.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_via_bits {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_via_bits!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.random()
    }
}

/// The full-domain strategy for `T` (use as `any::<u8>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// A collection-size specification, converted from `usize` ranges (mirrors
/// upstream's `SizeRange` so `1..32` literals infer `usize`).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        rng.random_range(self.lo..=self.hi_inclusive)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{SizeRange, StdRng, Strategy};
    use std::collections::{BTreeMap, BTreeSet};

    /// A `Vec` strategy with the given element strategy and size range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` strategy: draws elements until the target size is
    /// reached (bounded retries for small domains).
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

    /// The strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
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

        fn generate(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let n = self.size.sample(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < n && attempts < n.saturating_mul(20) + 100 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// A `BTreeMap` strategy keyed by distinct draws of `key`.
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// The strategy returned by [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut StdRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.sample(rng);
            let mut map = BTreeMap::new();
            let mut attempts = 0usize;
            while map.len() < n && attempts < n.saturating_mul(20) + 100 {
                let k = self.key.generate(rng);
                let v = self.value.generate(rng);
                map.insert(k, v);
                attempts += 1;
            }
            map
        }
    }
}

/// Everything a proptest-style test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` item
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut __proptest_rng = <$crate::StdRng as $crate::SeedableRng>::seed_from_u64(
                    seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)*
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(err) = outcome {
                    panic!(
                        "proptest {} failed at case {case}/{}: {err}",
                        stringify!($name),
                        config.cases,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("a::b"), seed_for("a::b"));
        assert_ne!(seed_for("a::b"), seed_for("a::c"));
    }

    #[test]
    fn strategies_generate_in_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = (0u16..=0x7FF).generate(&mut rng);
            assert!(v <= 0x7FF);
            let xs = collection::vec(any::<u8>(), 0..=8usize).generate(&mut rng);
            assert!(xs.len() <= 8);
            let set = collection::btree_set(0u16..=0x7FF, 2usize..12).generate(&mut rng);
            assert!((2..12).contains(&set.len()));
            let (a, b) = (0u8..4, 10u8..14).generate(&mut rng);
            assert!(a < 4 && (10..14).contains(&b));
        }
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = StdRng::seed_from_u64(2);
        let doubled = (0u16..10).prop_map(|v| v * 2).generate(&mut rng);
        assert!(doubled < 20 && doubled % 2 == 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, asserts pass, early return works.
        #[test]
        fn macro_roundtrip(x in 0u16..100, ys in collection::vec(any::<bool>(), 0..4)) {
            if ys.is_empty() {
                return Ok(());
            }
            prop_assert!(x < 100, "x in range: {}", x);
            prop_assert_eq!(ys.len(), ys.len());
            prop_assert_ne!(x as usize, 1_000);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u16..10) {
                prop_assert!(false, "forced failure with x = {}", x);
            }
        }
        always_fails();
    }
}
