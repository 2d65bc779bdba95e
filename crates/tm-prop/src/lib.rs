//! A small, dependency-free property-testing harness.
//!
//! Mirrors the subset of the `proptest` surface this workspace uses, on
//! top of the in-house deterministic RNG ([`tm_rand`]):
//!
//! * strategies: integer range literals, [`any`], tuples,
//!   [`collection::vec`], [`option::of`], [`Just`], `prop_map`,
//!   [`prop_oneof!`];
//! * a seeded runner with **fixed default seeds** so failures reproduce
//!   byte-for-byte on any machine;
//! * greedy shrinking over lazy shrink trees, composing through every
//!   combinator;
//! * the [`tm_prop!`] macro mirroring `proptest!`.
//!
//! # Reproducing a failure
//!
//! A failing property prints its seed and case index, e.g.:
//!
//! ```text
//! tm-prop: property `my_crate::tests::round_trips` failed
//!   seed: 7957577529137699 / case 17 of 64
//!   reproduce with: TM_PROP_SEED=7957577529137699 TM_PROP_CASE=17 cargo test round_trips
//! ```
//!
//! Setting `TM_PROP_SEED` (and optionally `TM_PROP_CASE`) reruns exactly
//! that input. `TM_PROP_CASES` overrides the per-property case count.

mod runner;
mod strategy;
mod tree;

pub use runner::{run_named, Config};
pub use strategy::{any, one_of, Any, Arbitrary, BoxedStrategy, Just, Map, Strategy, Union};
pub use tree::Tree;

/// Strategies over collections, mirroring `proptest::collection`.
pub mod collection {
    use std::fmt::Debug;
    use std::ops::Range;

    use tm_rand::{Rng, StdRng};

    use crate::strategy::Strategy;
    use crate::tree::{vec_tree, Tree};

    /// Generates a `Vec` whose length is drawn from `len` and whose
    /// elements come from `element`. Shrinks by removing elements first,
    /// then shrinking the survivors.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn new_tree(&self, rng: &mut StdRng) -> Tree<Vec<S::Value>> {
            let n = rng.gen_range(self.len.start..self.len.end);
            let elems = (0..n).map(|_| self.element.new_tree(rng)).collect();
            vec_tree(self.len.start, elems)
        }
    }
}

/// Strategies over `Option`, mirroring `proptest::option`.
pub mod option {
    use tm_rand::{Rng, StdRng};

    use crate::strategy::Strategy;
    use crate::tree::Tree;

    /// Generates `Some` from the inner strategy three times out of four,
    /// `None` otherwise. `Some(x)` shrinks to `None` first, then through
    /// the inner value.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The result of [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_tree(&self, rng: &mut StdRng) -> Tree<Option<S::Value>> {
            if rng.gen_range(0u32..4) == 0 {
                return Tree::leaf(None);
            }
            let inner = self.inner.new_tree(rng);
            some_tree(inner)
        }
    }

    fn some_tree<T: Clone + 'static>(inner: Tree<T>) -> Tree<Option<T>> {
        let value = Some(inner.value().clone());
        Tree::with_children(value, move || {
            let mut out = vec![Tree::leaf(None)];
            out.extend(inner.children().into_iter().map(some_tree));
            out
        })
    }
}

/// Corruptions of valid encodings, for properties that decoders of
/// wire or file bytes reject damage cleanly instead of panicking.
pub mod bytes {
    use crate::collection;
    use crate::strategy::{any, Strategy};

    /// One corruption of a valid encoding. Positions and lengths are
    /// reduced modulo the encoding's length when applied.
    #[derive(Clone, Debug)]
    pub enum Mutation {
        /// Keep only the first `len` bytes.
        Truncate(usize),
        /// XOR the byte at `at` with a non-zero mask.
        Flip {
            /// Byte position.
            at: usize,
            /// Non-zero XOR mask.
            mask: u8,
        },
        /// Replace `len` bytes at `at` with `bytes` (a splice may grow or
        /// shrink the buffer).
        Splice {
            /// Start position.
            at: usize,
            /// Bytes replaced.
            len: usize,
            /// Replacement bytes.
            bytes: Vec<u8>,
        },
    }

    impl Mutation {
        /// The corrupted copy of `wire`.
        pub fn apply(&self, wire: &[u8]) -> Vec<u8> {
            let mut out = wire.to_vec();
            let n = out.len().max(1);
            match self {
                Mutation::Truncate(len) => out.truncate(len % n),
                Mutation::Flip { at, mask } => {
                    if let Some(b) = out.get_mut(at % n) {
                        *b ^= *mask;
                    }
                }
                Mutation::Splice { at, len, bytes } => {
                    let start = (at % n).min(out.len());
                    let end = (start + len).min(out.len());
                    out.splice(start..end, bytes.iter().copied());
                }
            }
            out
        }
    }

    /// Truncations, single-byte flips and short splices, equally likely.
    pub fn mutation() -> impl Strategy<Value = Mutation> {
        crate::prop_oneof![
            any::<usize>().prop_map(Mutation::Truncate),
            (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
            (
                any::<usize>(),
                0usize..8,
                collection::vec(any::<u8>(), 0..8)
            )
                .prop_map(|(at, len, bytes)| Mutation::Splice { at, len, bytes }),
        ]
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::{any, one_of, Config, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, tm_prop};
}

// ---------- assertion + strategy macros ----------

/// Asserts a condition inside a property; failures are captured and
/// shrunk by the runner.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Chooses uniformly among strategies producing a common value type.
///
/// ```ignore
/// prop_oneof![
///     Just(Mode::A),
///     (0u8..4).prop_map(Mode::B),
/// ]
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Declares property tests, mirroring `proptest!`.
///
/// ```ignore
/// tm_prop! {
///     #![tm_config(cases = 32)]
///
///     #[test]
///     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
///         prop_assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! tm_prop {
    (#![tm_config(cases = $cases:expr)] $($rest:tt)*) => {
        $crate::tm_prop!{@each ($cases) $($rest)*}
    };
    (@each ($cases:expr)) => {};
    (@each ($cases:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut __tm_config = $crate::Config::default();
            let __tm_cases: u32 = $cases;
            if __tm_cases > 0 {
                __tm_config.cases = __tm_cases;
            }
            $crate::run_named(
                concat!(module_path!(), "::", stringify!($name)),
                &__tm_config,
                &($($strat,)+),
                |__tm_value| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(__tm_value);
                    $body
                },
            );
        }
        $crate::tm_prop!{@each ($cases) $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::tm_prop!{@each (0u32) $($rest)*}
    };
}
