//! Property tests for the log-bucketed histogram: bucket math at power-of-
//! two boundaries, exact text-codec round-trips, and merge quantiles
//! bounding the inputs.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_obs::hist::{bucket_high, bucket_index, bucket_low, LogHistogram, NUM_BUCKETS};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 8 } else { 256 },
        ..ProptestConfig::default()
    })]

    /// Every value lands in a bucket whose [low, high] range contains it.
    #[test]
    fn value_lands_in_its_bucket(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        prop_assert!(bucket_low(idx) <= v);
        prop_assert!(v <= bucket_high(idx));
    }

    /// Containment holds at the bucket boundaries themselves: for every
    /// power of two, the values just below, at, and just above it map to
    /// buckets that contain them, and the index never decreases.
    #[test]
    fn boundaries_land_in_their_bucket(exp in 0u32..64) {
        let pow = 1u64 << exp;
        let candidates = [pow.wrapping_sub(1), pow, pow.saturating_add(1)];
        let mut prev = 0usize;
        for v in candidates {
            let idx = bucket_index(v);
            prop_assert!(bucket_low(idx) <= v && v <= bucket_high(idx),
                "v={v} not in bucket {idx} [{}, {}]", bucket_low(idx), bucket_high(idx));
            if v >= candidates[0] {
                prop_assert!(idx >= prev, "index decreased at v={v}");
                prev = idx;
            }
        }
    }

    /// The index function is monotone: a <= b implies index(a) <= index(b).
    #[test]
    fn index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    /// The text codec round-trips exactly: decode(encode(h)) == h,
    /// including count/sum/min/max and every bucket.
    #[test]
    fn codec_round_trips_exactly(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let h = hist_of(&values);
        let decoded = LogHistogram::decode(&h.encode()).expect("well-formed encoding");
        prop_assert_eq!(decoded, h);
    }

    /// Merging is exact bucket-wise addition: merging two histograms is
    /// the same as recording the concatenation of their samples.
    #[test]
    fn merge_equals_recording_concatenation(
        xs in proptest::collection::vec(any::<u64>(), 0..100),
        ys in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut both = xs.clone();
        both.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_of(&both));
    }

    /// Merged quantiles bound the inputs: at bucket granularity, the
    /// quantile of merge(a, b) lies between the quantiles of a and b, and
    /// at the extremes it is exactly the joint min/max.
    #[test]
    fn merged_quantiles_bound_inputs(
        xs in proptest::collection::vec(any::<u64>(), 1..100),
        ys in proptest::collection::vec(any::<u64>(), 1..100),
        q in 0.0f64..=1.0,
    ) {
        let a = hist_of(&xs);
        let b = hist_of(&ys);
        let mut m = a.clone();
        m.merge(&b);

        let (qa, qb, qm) = (a.quantile(q), b.quantile(q), m.quantile(q));
        let lo = bucket_index(qa).min(bucket_index(qb));
        let hi = bucket_index(qa).max(bucket_index(qb));
        let bm = bucket_index(qm);
        prop_assert!(lo <= bm && bm <= hi,
            "merged quantile bucket {bm} outside input range [{lo}, {hi}] (q={q})");

        prop_assert_eq!(m.quantile(0.0), a.min().min(b.min()));
        prop_assert_eq!(m.quantile(1.0), a.max().max(b.max()));
        prop_assert!(m.quantile(q) >= m.min() && m.quantile(q) <= m.max());
    }
}
