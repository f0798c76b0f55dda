//! The one seeded random generator: every simulated world, query workload and
//! Baseline1 room comes from [`SeededRng`], pinned output for output.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ seeded through SplitMix64: deterministic per seed, not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    state: [u64; 4],
}

impl SeededRng {
    /// A generator whose state is the first four SplitMix64 outputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` from the top 53 bits of one draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample of `range` from one draw: `start + next_u64() % span`
    /// for integers (modulo bias included), `start + unit_f64() · (end −
    /// start)` for floats. Panics on an empty range.
    pub fn range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Shuffles `items` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..=i));
        }
    }
}

/// A range [`SeededRng::range`] samples uniformly.
pub trait UniformRange {
    /// The sampled value.
    type Output;
    /// One sample of the range, from one draw of `rng`.
    fn sample(self, rng: &mut SeededRng) -> Self::Output;
}

macro_rules! integer_ranges {
    ($($ty:ty => $uty:ty),*) => {$(
        impl UniformRange for Range<$ty> {
            type Output = $ty;
            fn sample(self, rng: &mut SeededRng) -> $ty {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as $uty).wrapping_sub(self.start as $uty) as u64;
                (self.start as $uty).wrapping_add((rng.next_u64() % span) as $uty) as $ty
            }
        }

        impl UniformRange for RangeInclusive<$ty> {
            type Output = $ty;
            fn sample(self, rng: &mut SeededRng) -> $ty {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample an empty range");
                let span = (end as $uty).wrapping_sub(start as $uty) as u64;
                let Some(values) = span.checked_add(1) else {
                    return rng.next_u64() as $ty; // the type's whole range
                };
                (start as $uty).wrapping_add((rng.next_u64() % values) as $uty) as $ty
            }
        }
    )*};
}

integer_ranges!(u8 => u8, u32 => u32, u64 => u64, usize => usize, i64 => u64);

impl UniformRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SeededRng) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}
