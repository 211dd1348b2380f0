//! Small deterministic PRNG for tests, benches, and workload generation.
//!
//! The repository must build and test with no network access, so nothing
//! in-tree may depend on the `rand` crate. This module provides the one
//! generator everything shares instead: SplitMix64 (Steele, Lea & Flood,
//! "Fast splittable pseudorandom number generators", OOPSLA 2014) — a
//! 64-bit state, passes BigCrush, and is trivially seedable, which is all
//! the deterministic suites and workload sweeps need. It is explicitly
//! **not** cryptographic.

use std::ops::Range;

/// A SplitMix64 pseudorandom number generator.
///
/// Identical seeds produce identical sequences on every platform, so test
/// cases and bench workloads derived from it are reproducible bit-for-bit.
///
/// # Examples
///
/// ```
/// use vapres_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(9);
/// let mut b = SplitMix64::new(9);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let d = a.gen_range(0..6) + 1; // a die roll
/// assert!((1..=6).contains(&d));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly distributed bits (the high half of
    /// [`next_u64`](Self::next_u64)).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `range` (half-open, like `rand`'s `gen_range`).
    ///
    /// Unbiased via rejection sampling on the widest multiple of the span.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = range.end - range.start;
        if span.is_power_of_two() {
            return range.start + (self.next_u64() & (span - 1));
        }
        // Reject values from the final partial span to stay unbiased.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return range.start + v % span;
            }
        }
    }

    /// Uniform `u32` in `range` (half-open).
    pub fn gen_u32(&mut self, range: Range<u32>) -> u32 {
        self.gen_range(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// Uniform `usize` in `range` (half-open).
    pub fn gen_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of entropy matches the f64 mantissa exactly.
        let v = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        v < p
    }
}

crate::persist_fields!(SplitMix64: state);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567, as published by
        // the xoshiro project's reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.gen_range(10..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SplitMix64::new(99);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.8)).count();
        assert!((7_700..8_300).contains(&hits), "hits = {hits}");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).gen_range(5..5);
    }
}
