//! Measurement helpers used by the experiment harnesses.
//!
//! These are deliberately simple: the experiments care about *when words
//! arrive* (stream interruption, Fig. 5), *how many arrive per unit time*
//! (throughput, LCD regulation), and coarse distributions.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::Ps;

/// Records the arrival time of each item in a stream and reports the largest
/// inter-arrival gap — the paper's "stream processing interruption" metric.
///
/// # Examples
///
/// ```
/// use vapres_sim::stats::GapTracker;
/// use vapres_sim::time::Ps;
///
/// let mut g = GapTracker::new();
/// g.record(Ps::from_ns(10));
/// g.record(Ps::from_ns(20));
/// g.record(Ps::from_ns(90)); // a 70 ns stall
/// assert_eq!(g.max_gap(), Some(Ps::from_ns(70)));
/// assert_eq!(g.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GapTracker {
    last: Option<Ps>,
    max_gap: Option<Ps>,
    max_gap_at: Option<Ps>,
    count: u64,
    first: Option<Ps>,
    sum_gaps: Ps,
    min_gap: Option<Ps>,
    nominal: Option<Ps>,
    excess: Ps,
    missed_slots: u64,
}

impl GapTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the nominal inter-arrival gap. Once set, each recorded gap
    /// contributes `max(0, gap - nominal)` to [`GapTracker::excess_gap`],
    /// the tracker's "stream interruption beyond steady-state" total (a
    /// perfectly regular stream reports zero excess).
    ///
    /// Only gaps recorded *after* the call are measured against it.
    pub fn set_nominal(&mut self, nominal: Ps) {
        self.nominal = Some(nominal);
    }

    /// The nominal inter-arrival gap, if one was set.
    pub fn nominal(&self) -> Option<Ps> {
        self.nominal
    }

    /// Records one arrival at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous arrival — streams are causal.
    pub fn record(&mut self, at: Ps) {
        if let Some(prev) = self.last {
            let gap = at
                .checked_sub(prev)
                .expect("arrivals must be in non-decreasing time order");
            if self.max_gap.map(|g| gap > g).unwrap_or(true) {
                self.max_gap = Some(gap);
                self.max_gap_at = Some(at);
            }
            if self.min_gap.map(|g| gap < g).unwrap_or(true) {
                self.min_gap = Some(gap);
            }
            self.sum_gaps += gap;
            if let Some(nominal) = self.nominal {
                if let Some(over) = gap.checked_sub(nominal) {
                    self.excess += over;
                }
                if nominal.as_ps() > 0 {
                    // A gap of k nominal periods means k-1 slots produced
                    // no word (a gap within [nominal, 2*nominal) misses
                    // none — the stream merely jittered).
                    let slots = gap.as_ps() / nominal.as_ps();
                    self.missed_slots += slots.saturating_sub(1);
                }
            }
        } else {
            self.first = Some(at);
        }
        self.last = Some(at);
        self.count += 1;
    }

    /// Largest inter-arrival gap seen, or `None` with fewer than 2 arrivals.
    pub fn max_gap(&self) -> Option<Ps> {
        self.max_gap
    }

    /// Time at which the largest gap ended.
    pub fn max_gap_at(&self) -> Option<Ps> {
        self.max_gap_at
    }

    /// Total number of arrivals recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Time of the first arrival.
    pub fn first(&self) -> Option<Ps> {
        self.first
    }

    /// Time of the most recent arrival.
    pub fn last(&self) -> Option<Ps> {
        self.last
    }

    /// Sum of all inter-arrival gaps (equals `last - first`).
    pub fn sum_gaps(&self) -> Ps {
        self.sum_gaps
    }

    /// Smallest inter-arrival gap seen, or `None` with fewer than 2 arrivals.
    pub fn min_gap(&self) -> Option<Ps> {
        self.min_gap
    }

    /// Accumulated gap time beyond the nominal inter-arrival gap — zero
    /// until [`GapTracker::set_nominal`] is called, and zero afterwards for
    /// a stream that never stalls past its steady-state cadence.
    pub fn excess_gap(&self) -> Ps {
        self.excess
    }

    /// Whole sample slots in which no word arrived — the stream-level
    /// "interruption" count. Zero until [`GapTracker::set_nominal`] is
    /// called. A seamless handoff that delays the stream by less than one
    /// nominal period misses no slot; a halted stream misses one per
    /// nominal period of downtime.
    pub fn missed_slots(&self) -> u64 {
        self.missed_slots
    }

    /// Mean throughput in items/second over the observed span.
    ///
    /// Returns `None` with fewer than two arrivals.
    pub fn throughput_per_s(&self) -> Option<f64> {
        let (first, last) = (self.first?, self.last?);
        if last == first {
            return None;
        }
        Some((self.count - 1) as f64 / (last - first).as_secs_f64())
    }
}

crate::persist_fields!(
    GapTracker: last, max_gap, max_gap_at, count, first, sum_gaps, min_gap, nominal, excess,
    missed_slots
);

/// Accumulates samples and reports min/max/mean — enough for the sweep
/// benches without pulling in a statistics crate.
///
/// # Examples
///
/// ```
/// use vapres_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.add(v);
/// }
/// assert_eq!(s.mean(), Some(2.0));
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum sample, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Maximum sample, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

/// A fixed-bucket histogram over `u64` samples (e.g. gap durations in
/// ps), with overflow counted in the last bucket.
///
/// # Examples
///
/// ```
/// use vapres_sim::stats::Histogram;
///
/// let mut h = Histogram::new(100, 4); // buckets: [0,100) [100,200) [200,300) [300,..)
/// h.add(50);
/// h.add(150);
/// h.add(1_000);
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates a histogram of `buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be non-zero");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            min: None,
            max: None,
        }
    }

    /// Reconstructs a histogram from exported parts (e.g. a parsed JSONL
    /// snapshot). `min`/`max` are the exact extremes if the exporter
    /// recorded them, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency [`Histogram::try_from_parts`] rejects.
    pub fn from_parts(
        bucket_width: u64,
        counts: Vec<u64>,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Self {
        match Self::try_from_parts(bucket_width, counts, min, max) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Histogram::from_parts`]: validates the parts and reports
    /// *why* they are inconsistent, so a corrupted snapshot fails loudly at
    /// the parse boundary instead of producing nonsense quantiles later.
    ///
    /// Rejected: zero `bucket_width`, empty `counts`, a total count or
    /// top bucket bound past `u64` (the quantile arithmetic would
    /// overflow), `min > max`, one of `min`/`max` present without the
    /// other, and recorded extremes on a histogram whose bucket counts are
    /// all zero.
    pub fn try_from_parts(
        bucket_width: u64,
        counts: Vec<u64>,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Result<Self, String> {
        if bucket_width == 0 {
            return Err("bucket width must be non-zero".into());
        }
        if counts.is_empty() {
            return Err("need at least one bucket".into());
        }
        if counts
            .iter()
            .try_fold(0u64, |a, &c| a.checked_add(c))
            .is_none()
            || (counts.len() as u64).checked_mul(bucket_width).is_none()
        {
            return Err("histogram parts overflow u64".into());
        }
        if min.is_some() != max.is_some() {
            return Err(format!(
                "histogram parts record min={min:?} but max={max:?}; \
                 extremes must be present together"
            ));
        }
        if let (Some(mn), Some(mx)) = (min, max) {
            if mn > mx {
                return Err(format!("histogram parts have min {mn} > max {mx}"));
            }
            if counts.iter().all(|&c| c == 0) {
                return Err(format!(
                    "histogram parts record extremes (min {mn}, max {mx}) \
                     but every bucket count is zero"
                ));
            }
        }
        Ok(Histogram {
            bucket_width,
            counts,
            min,
            max,
        })
    }

    /// Folds `other` into `self`: per-bucket counts add and the exact
    /// extremes combine. An empty histogram of the same shape is the merge
    /// identity, and merging is associative and commutative — the sweep
    /// engine relies on all three so that worker count and completion order
    /// cannot change the merged report.
    ///
    /// # Panics
    ///
    /// Panics unless `other` has the same bucket width and bucket count;
    /// merging differently-shaped histograms would silently misfile counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "histogram merge: bucket widths differ ({} vs {})",
            self.bucket_width, other.bucket_width
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram merge: bucket counts differ ({} vs {})",
            self.counts.len(),
            other.counts.len()
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Adds one sample.
    pub fn add(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Per-bucket counts (last bucket includes overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Width of each bucket.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Smallest sample seen, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample seen, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Bucket-resolution percentile: the upper bound of the bucket
    /// containing the `q`-quantile sample, or `None` when the histogram
    /// is empty. Two runs whose `q`-quantile samples land in the same
    /// bucket report identical percentiles — use [`Histogram::max`] for
    /// the exact extreme. A quantile landing in the overflow bucket is
    /// reported as that bucket's lower bound times one more width (an
    /// understatement; widen the histogram if the tail matters).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        (self.total() > 0).then(|| self.quantile_upper_bound(q))
    }

    /// The smallest value `v` such that at least `q` (0..=1) of samples
    /// are below `v`'s bucket end — a bucket-resolution quantile.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        // At least one sample must be covered: with q = 0.0 a raw
        // ceil(q * total) of zero would let an empty first bucket satisfy
        // `acc >= need`, reporting a bound below the smallest sample.
        let need = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= need {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        self.counts.len() as u64 * self.bucket_width
    }
}

impl Persist for Histogram {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.bucket_width);
        self.counts.persist(w);
        self.min.persist(w);
        self.max.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let bucket_width = r.take_u64()?;
        let counts = Vec::restore(r)?;
        let min = Option::restore(r)?;
        let max = Option::restore(r)?;
        // Route through the same validator a parsed JSONL snapshot uses so
        // corrupted bytes fail with the reason, not nonsense quantiles.
        Histogram::try_from_parts(bucket_width, counts, min, max).map_err(PersistError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 3);
        for v in [0, 9, 10, 29, 30, 300] {
            h.add(v);
        }
        assert_eq!(h.counts(), &[2, 1, 3]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.add(v);
        }
        assert_eq!(h.quantile_upper_bound(0.5), 50);
        assert_eq!(h.quantile_upper_bound(1.0), 100);
        assert_eq!(Histogram::new(1, 1).quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn histogram_p0_reports_bucket_of_minimum_sample() {
        // Samples live in bucket [20,30): p0 must report 30, not bucket 1's
        // upper bound (10) via the empty-prefix shortcut.
        let mut h = Histogram::new(10, 4);
        h.add(25);
        h.add(27);
        assert_eq!(h.quantile_upper_bound(0.0), 30);
        assert_eq!(h.percentile(0.0), Some(30));
        // p100 of the same data is the same bucket.
        assert_eq!(h.percentile(1.0), Some(30));
        // p0 == p50 == p100 for a single sample.
        let mut one = Histogram::new(100, 8);
        one.add(650);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.percentile(q), Some(700), "q={q}");
        }
    }

    #[test]
    fn histogram_p0_and_p100_in_overflow_bucket() {
        let mut h = Histogram::new(10, 2);
        h.add(2_000);
        assert_eq!(h.percentile(0.0), Some(20));
        assert_eq!(h.percentile(1.0), Some(20));
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 1);
    }

    #[test]
    fn histogram_try_from_parts_accepts_consistent_parts() {
        let h = Histogram::try_from_parts(10, vec![0, 2, 1], Some(12), Some(25)).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.min(), Some(12));
        assert_eq!(h.max(), Some(25));
        // All-zero counts with no extremes is a legitimate empty snapshot.
        let empty = Histogram::try_from_parts(10, vec![0, 0], None, None).unwrap();
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn histogram_try_from_parts_rejects_inconsistent_parts() {
        let err = |r: Result<Histogram, String>| r.unwrap_err();
        assert!(err(Histogram::try_from_parts(0, vec![1], None, None)).contains("bucket width"));
        assert!(err(Histogram::try_from_parts(10, vec![], None, None)).contains("bucket"));
        assert!(
            err(Histogram::try_from_parts(10, vec![1], Some(9), Some(3))).contains("min 9 > max 3")
        );
        assert!(
            err(Histogram::try_from_parts(10, vec![0, 0], Some(5), Some(5)))
                .contains("every bucket count is zero")
        );
        assert!(err(Histogram::try_from_parts(10, vec![1], Some(5), None)).contains("together"));
        assert!(
            err(Histogram::try_from_parts(10, vec![u64::MAX, 1], None, None)).contains("overflow")
        );
        assert!(
            err(Histogram::try_from_parts(u64::MAX, vec![0, 1], None, None)).contains("overflow")
        );
        assert!(err(Histogram::try_from_parts(10, vec![1], None, Some(5))).contains("together"));
    }

    #[test]
    #[should_panic(expected = "min 9 > max 3")]
    fn histogram_from_parts_panics_on_inconsistent_extremes() {
        let _ = Histogram::from_parts(10, vec![1], Some(9), Some(3));
    }

    #[test]
    fn histogram_merge_adds_counts_and_combines_extremes() {
        let mut a = Histogram::new(10, 4);
        a.add(5);
        a.add(35);
        let mut b = Histogram::new(10, 4);
        b.add(12);
        b.add(999);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 0, 2]);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(999));
    }

    #[test]
    fn histogram_merge_identity_and_associativity() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new(10, 4);
            for &v in vals {
                h.add(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 15]), mk(&[22, 39, 5]), mk(&[100]));

        // Identity: merging an empty same-shape histogram changes nothing,
        // in either direction.
        let mut left = Histogram::new(10, 4);
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Histogram::new(10, 4));
        for h in [&left, &right] {
            assert_eq!(h.counts(), a.counts());
            assert_eq!(h.min(), a.min());
            assert_eq!(h.max(), a.max());
        }

        // Associativity: (a+b)+c == a+(b+c).
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.counts(), a_bc.counts());
        assert_eq!(ab_c.min(), a_bc.min());
        assert_eq!(ab_c.max(), a_bc.max());
    }

    #[test]
    #[should_panic(expected = "bucket widths differ")]
    fn histogram_merge_rejects_width_mismatch() {
        let mut a = Histogram::new(10, 4);
        a.merge(&Histogram::new(20, 4));
    }

    #[test]
    #[should_panic(expected = "bucket counts differ")]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(10, 4);
        a.merge(&Histogram::new(10, 8));
    }

    #[test]
    fn gap_tracker_single_arrival_has_no_gap() {
        let mut g = GapTracker::new();
        g.record(Ps::from_ns(5));
        assert_eq!(g.max_gap(), None);
        assert_eq!(g.count(), 1);
        assert_eq!(g.first(), Some(Ps::from_ns(5)));
        assert_eq!(g.last(), Some(Ps::from_ns(5)));
    }

    #[test]
    fn gap_tracker_finds_largest_gap_and_location() {
        let mut g = GapTracker::new();
        for t in [0u64, 10, 20, 100, 110] {
            g.record(Ps::from_ns(t));
        }
        assert_eq!(g.max_gap(), Some(Ps::from_ns(80)));
        assert_eq!(g.max_gap_at(), Some(Ps::from_ns(100)));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn gap_tracker_rejects_time_travel() {
        let mut g = GapTracker::new();
        g.record(Ps::from_ns(10));
        g.record(Ps::from_ns(5));
    }

    #[test]
    fn gap_tracker_throughput() {
        let mut g = GapTracker::new();
        // 11 arrivals over 100 ns -> 10 intervals / 100 ns = 1e8/s.
        for i in 0..11u64 {
            g.record(Ps::from_ns(i * 10));
        }
        let tput = g.throughput_per_s().unwrap();
        assert!((tput - 1.0e8).abs() / 1.0e8 < 1e-9);
    }

    #[test]
    fn gap_tracker_throughput_degenerate_cases_return_none() {
        // No arrivals at all.
        assert_eq!(GapTracker::new().throughput_per_s(), None);
        // Single sample: no span to divide by.
        let mut g = GapTracker::new();
        g.record(Ps::from_ns(10));
        assert_eq!(g.throughput_per_s(), None);
        // Multiple samples at the same instant: first == last, zero span.
        let mut g = GapTracker::new();
        g.record(Ps::from_ns(10));
        g.record(Ps::from_ns(10));
        g.record(Ps::from_ns(10));
        assert_eq!(g.throughput_per_s(), None);
    }

    #[test]
    fn gap_tracker_sum_and_min_gap() {
        let mut g = GapTracker::new();
        assert_eq!(g.sum_gaps(), Ps::ZERO);
        assert_eq!(g.min_gap(), None);
        for t in [0u64, 10, 15, 100] {
            g.record(Ps::from_ns(t));
        }
        assert_eq!(g.sum_gaps(), Ps::from_ns(100));
        assert_eq!(g.min_gap(), Some(Ps::from_ns(5)));
        assert_eq!(g.max_gap(), Some(Ps::from_ns(85)));
    }

    #[test]
    fn gap_tracker_excess_only_counts_beyond_nominal() {
        let mut g = GapTracker::new();
        g.set_nominal(Ps::from_ns(10));
        // Gaps: 10, 10, 25, 10 -> only the 25 ns gap exceeds nominal, by 15.
        for t in [0u64, 10, 20, 45, 55] {
            g.record(Ps::from_ns(t));
        }
        assert_eq!(g.excess_gap(), Ps::from_ns(15));
        assert_eq!(g.nominal(), Some(Ps::from_ns(10)));
        // The 25 ns gap spans 2 whole nominal periods: one slot missed.
        assert_eq!(g.missed_slots(), 1);
    }

    #[test]
    fn gap_tracker_missed_slots_counts_whole_periods_only() {
        let mut g = GapTracker::new();
        g.set_nominal(Ps::from_ns(10));
        // 19 ns gap: jitter, no slot missed. 40 ns gap: 3 slots missed.
        for t in [0u64, 19, 59] {
            g.record(Ps::from_ns(t));
        }
        assert_eq!(g.missed_slots(), 3);
        assert!(g.excess_gap() > Ps::ZERO);

        let mut regular = GapTracker::new();
        regular.set_nominal(Ps::from_ns(10));
        for t in [0u64, 10, 20, 30] {
            regular.record(Ps::from_ns(t));
        }
        assert_eq!(regular.missed_slots(), 0);
    }

    #[test]
    fn gap_tracker_excess_zero_without_nominal_or_stalls() {
        let mut g = GapTracker::new();
        for t in [0u64, 50, 100] {
            g.record(Ps::from_ns(t));
        }
        // No nominal set: excess stays zero regardless of gaps.
        assert_eq!(g.excess_gap(), Ps::ZERO);

        let mut g = GapTracker::new();
        g.set_nominal(Ps::from_ns(10));
        for t in [0u64, 10, 20, 30] {
            g.record(Ps::from_ns(t));
        }
        // Perfectly regular stream at the nominal cadence: zero excess.
        assert_eq!(g.excess_gap(), Ps::ZERO);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn summary_roundtrips_through_accessors() {
        let mut s = Summary::new();
        let samples = [3.5, -1.0, 7.25, 0.0, 2.25];
        for v in samples {
            s.add(v);
        }
        assert_eq!(s.count(), samples.len() as u64);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.25));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample_is_min_max_and_mean() {
        let mut s = Summary::new();
        s.add(42.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.mean(), Some(42.0));
    }

    #[test]
    fn histogram_bucket_width_accessor() {
        assert_eq!(Histogram::new(250, 3).bucket_width(), 250);
    }

    #[test]
    fn histogram_min_max_track_exact_samples() {
        let mut h = Histogram::new(10, 3);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [42, 7, 7, 1_000] {
            h.add(v);
        }
        // min/max are exact even though 1000 landed in the overflow bucket.
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(1_000));
    }

    #[test]
    fn histogram_percentile_is_bucket_bound() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100u64 {
            h.add(v);
        }
        assert_eq!(h.percentile(0.5), Some(50));
        assert_eq!(h.percentile(1.0), Some(100));
        // Empty histograms have no percentile (unlike quantile_upper_bound,
        // which degenerates to 0).
        assert_eq!(Histogram::new(10, 2).percentile(0.5), None);
        // Samples in the overflow bucket report its upper bound.
        let mut h = Histogram::new(10, 2);
        h.add(2_000);
        assert_eq!(h.percentile(0.99), Some(20));
        assert_eq!(h.max(), Some(2_000));
    }
}
