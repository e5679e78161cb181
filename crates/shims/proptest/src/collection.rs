//! Collection strategies: `proptest::collection::vec(element, size)`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Accepted length specifications for [`vec()`]: an exact length, `a..b`, or
/// `a..=b`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            min: n,
            max_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        Self {
            min: *r.start(),
            max_inclusive: *r.end(),
        }
    }
}

/// A vector whose length is drawn from `size` and whose elements are drawn
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.max_inclusive - self.size.min + 1) as u64;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
