//! Strategy combinators: how values are derived from the choice stream.

// Narrowing casts in this file are intentional: PRNG/fuzzing utilities extract lanes and bytes from u64 state.
#![allow(clippy::cast_possible_truncation)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

use super::data::DataSource;

/// A recipe for generating values from a [`DataSource`].
///
/// Shrinking has no per-strategy hook: the runner shrinks the underlying
/// choice stream and re-generates (see the module docs), so strategies
/// only need the forward direction. The one obligation is *monotonic
/// simplicity*: smaller drawn choices should produce simpler values.
pub trait Strategy: Clone + 'static {
    /// The generated value type.
    type Value: Debug + 'static;

    /// Generates one value.
    fn generate(&self, ds: &mut DataSource) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, O>
    where
        O: Debug + 'static,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map {
            inner: self,
            f: Arc::new(f),
        }
    }

    /// Builds a recursive strategy: `self` is the leaf case and
    /// `recurse` wraps an inner strategy into a branch case. `depth`
    /// bounds recursion; the `_desired_size`/`_expected_branch_size`
    /// parameters exist for `proptest` signature compatibility.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        R: Strategy<Value = Self::Value>,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut current = self.clone().boxed();
        for _ in 0..depth.max(1) {
            // Each level picks leaf-or-branch; leaves come first so
            // shrinking (choices toward 0) collapses toward leaves.
            current = Union::new(vec![self.clone().boxed(), recurse(current).boxed()]).boxed();
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value> {
        BoxedStrategy {
            inner: Arc::new(self),
        }
    }
}

trait DynStrategy<V> {
    fn generate_dyn(&self, ds: &mut DataSource) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, ds: &mut DataSource) -> S::Value {
        self.generate(ds)
    }
}

/// A type-erased, cheaply-cloneable strategy.
pub struct BoxedStrategy<V> {
    inner: Arc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Debug + 'static> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, ds: &mut DataSource) -> V {
        self.inner.generate_dyn(ds)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<V: Clone + Debug + 'static>(pub V);

impl<V: Clone + Debug + 'static> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _: &mut DataSource) -> V {
        self.0.clone()
    }
}

/// `prop_map` combinator.
pub struct Map<S: Strategy, O> {
    inner: S,
    f: Arc<dyn Fn(S::Value) -> O>,
}

impl<S: Strategy, O> Clone for Map<S, O> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: Arc::clone(&self.f),
        }
    }
}

impl<S: Strategy, O: Debug + 'static> Strategy for Map<S, O> {
    type Value = O;
    fn generate(&self, ds: &mut DataSource) -> O {
        (self.f)(self.inner.generate(ds))
    }
}

/// Uniform choice between strategies (`prop_oneof!`). Earlier options
/// are simpler: shrinking drives the discriminant toward 0.
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union; panics on an empty option list.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "Union of zero strategies");
        Union { options }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<V: Debug + 'static> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, ds: &mut DataSource) -> V {
        let idx = ds.draw_below(self.options.len() as u64) as usize;
        self.options[idx].generate(ds)
    }
}

// ------------------------------------------------------------- numbers

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Marker strategy returned by [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, ds: &mut DataSource) -> T {
        T::arbitrary(ds)
    }
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Debug + Sized + 'static {
    /// Draws a value covering the whole domain.
    fn arbitrary(ds: &mut DataSource) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(ds: &mut DataSource) -> Self {
                ds.draw() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(ds: &mut DataSource) -> Self {
        ((ds.draw() as u128) << 64) | ds.draw() as u128
    }
}

impl Arbitrary for bool {
    fn arbitrary(ds: &mut DataSource) -> Self {
        ds.draw_below(2) == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, ds: &mut DataSource) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(ds.draw_below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, ds: &mut DataSource) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as u64).wrapping_sub(*self.start() as u64);
                if span == u64::MAX {
                    return ds.draw() as $t;
                }
                self.start().wrapping_add(ds.draw_below(span + 1) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// -------------------------------------------------------------- tuples

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, ds: &mut DataSource) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(ds),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// --------------------------------------------------------- collections

/// A length window for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// `collection::vec` strategy.
pub struct VecStrategy<S: Strategy> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> VecStrategy<S> {
    pub(super) fn new(element: S, size: SizeRange) -> Self {
        VecStrategy { element, size }
    }
}

impl<S: Strategy> Clone for VecStrategy<S> {
    fn clone(&self) -> Self {
        VecStrategy {
            element: self.element.clone(),
            size: self.size,
        }
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, ds: &mut DataSource) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min + 1) as u64;
        let len = self.size.min + ds.draw_below(span) as usize;
        (0..len).map(|_| self.element.generate(ds)).collect()
    }
}

/// `sample::subsequence` strategy.
pub struct Subsequence<T> {
    items: Vec<T>,
    size: SizeRange,
}

impl<T: Clone + Debug + 'static> Subsequence<T> {
    pub(super) fn new(items: Vec<T>, size: SizeRange) -> Self {
        assert!(
            size.max <= items.len(),
            "subsequence size {} exceeds {} items",
            size.max,
            items.len()
        );
        Subsequence { items, size }
    }
}

impl<T: Clone> Clone for Subsequence<T> {
    fn clone(&self) -> Self {
        Subsequence {
            items: self.items.clone(),
            size: self.size,
        }
    }
}

impl<T: Clone + Debug + 'static> Strategy for Subsequence<T> {
    type Value = Vec<T>;
    fn generate(&self, ds: &mut DataSource) -> Vec<T> {
        let span = (self.size.max - self.size.min + 1) as u64;
        let target = self.size.min + ds.draw_below(span) as usize;
        let mut out = Vec::with_capacity(target);
        let mut needed = target;
        let total = self.items.len();
        for (i, item) in self.items.iter().enumerate() {
            if needed == 0 {
                break;
            }
            let remaining = total - i;
            // Must take everything left, or flip an inclusion coin.
            if remaining == needed || ds.draw_below(2) == 1 {
                out.push(item.clone());
                needed -= 1;
            }
        }
        out
    }
}

// -------------------------------------------------------------- string

/// String strategies from regex-like patterns: `"[a-z]{1,4}"` is itself
/// a strategy, as in `proptest`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, ds: &mut DataSource) -> String {
        crate::rematch::sample(self, &mut |bound| ds.draw_below(bound))
            .unwrap_or_else(|e| panic!("invalid string-strategy pattern {self:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen<S: Strategy>(s: &S, seed: u64) -> S::Value {
        s.generate(&mut DataSource::random(seed))
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let s = 10u16..20;
        for seed in 0..200 {
            let v = gen(&s, seed);
            assert!((10..20).contains(&v));
        }
        let si = 0u8..=255;
        for seed in 0..50 {
            let _ = gen(&si, seed);
        }
    }

    #[test]
    fn zero_choices_give_minimum() {
        // Replaying an all-zero stream gives each strategy's simplest
        // value — the foundation of shrink-toward-zero.
        let mut ds = DataSource::replay(&[]);
        assert_eq!((5u32..100).generate(&mut ds), 5);
        let v = collection::vec_for_test().generate(&mut ds);
        assert!(v.is_empty());
        let u = Union::new(vec![Just(1u8).boxed(), Just(2u8).boxed()]);
        assert_eq!(u.generate(&mut ds), 1);
    }

    mod collection {
        use super::super::*;
        pub fn vec_for_test() -> VecStrategy<Range<u8>> {
            VecStrategy::new(0u8..10, SizeRange { min: 0, max: 8 })
        }
    }

    #[test]
    fn map_and_oneof_compose() {
        let s = Union::new(vec![
            (0u64..10).prop_map(|v| v * 2).boxed(),
            Just(99u64).boxed(),
        ]);
        for seed in 0..100 {
            let v = gen(&s, seed);
            assert!(v == 99 || (v % 2 == 0 && v < 20));
        }
    }

    #[test]
    fn recursive_bottoms_out() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut saw_node = false;
        for seed in 0..200 {
            let t = gen(&s, seed);
            assert!(depth(&t) <= 5);
            saw_node |= matches!(t, Tree::Node(..));
        }
        assert!(saw_node, "recursion should sometimes branch");
    }

    #[test]
    fn subsequence_full_length_is_identity() {
        let items: Vec<u32> = (0..12).collect();
        let s = Subsequence::new(items.clone(), SizeRange { min: 12, max: 12 });
        for seed in 0..20 {
            assert_eq!(gen(&s, seed), items);
        }
    }

    #[test]
    fn subsequence_preserves_order() {
        let items: Vec<u32> = (0..10).collect();
        let s = Subsequence::new(items, SizeRange { min: 3, max: 7 });
        for seed in 0..100 {
            let v = gen(&s, seed);
            assert!((3..=7).contains(&v.len()));
            assert!(v.windows(2).all(|w| w[0] < w[1]), "{v:?}");
        }
    }

    #[test]
    fn string_pattern_strategy() {
        let s = "[a-z][a-z0-9_]{0,8}";
        let re = crate::rematch::Regex::new(s).unwrap();
        for seed in 0..100 {
            let v = gen(&s, seed);
            assert!(re.is_full_match(&v), "{v:?}");
        }
    }

    #[test]
    fn vec_lengths_cover_range() {
        let s = VecStrategy::new(0u8..=255, SizeRange { min: 0, max: 255 });
        let mut long = 0;
        for seed in 0..100 {
            if gen(&s, seed).len() > 128 {
                long += 1;
            }
        }
        assert!(long > 20, "length distribution too narrow: {long}");
    }
}
