//! Property tests for the log-bucketed histogram: bucket math at power-of-
//! two boundaries, exact text-codec round-trips, and merge quantiles
//! bounding the inputs.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::obs::hist::{bucket_high, bucket_index, bucket_low, LogHistogram, NUM_BUCKETS};
use prop::{check, Gen};

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A value spread over every magnitude: a uniform 64-bit draw shifted
/// right by 0..64 bits, so small values are as common as large ones.
fn value(g: &mut Gen) -> u64 {
    let shift = g.gen_range(0..64);
    g.next_u64() >> shift
}

/// Every value lands in a bucket whose [low, high] range contains it.
#[test]
fn value_lands_in_its_bucket() {
    check("value_lands_in_its_bucket", 256, value, |&v| {
        let idx = bucket_index(v);
        assert!(idx < NUM_BUCKETS);
        assert!(bucket_low(idx) <= v);
        assert!(v <= bucket_high(idx));
    });
}

/// Containment holds at the bucket boundaries themselves: for every
/// power of two, the values just below, at, and just above it map to
/// buckets that contain them, and the index never decreases.
#[test]
fn boundaries_land_in_their_bucket() {
    check(
        "boundaries_land_in_their_bucket",
        256,
        |g| g.gen_range(0..64) as u32,
        |&exp| {
            let pow = 1u64 << exp;
            let candidates = [pow.wrapping_sub(1), pow, pow.saturating_add(1)];
            let mut prev = 0usize;
            for v in candidates {
                let idx = bucket_index(v);
                assert!(
                    bucket_low(idx) <= v && v <= bucket_high(idx),
                    "v={v} not in bucket {idx} [{}, {}]",
                    bucket_low(idx),
                    bucket_high(idx)
                );
                if v >= candidates[0] {
                    assert!(idx >= prev, "index decreased at v={v}");
                    prev = idx;
                }
            }
        },
    );
}

/// The index function is monotone: a <= b implies index(a) <= index(b).
#[test]
fn index_is_monotone() {
    check(
        "index_is_monotone",
        256,
        |g| (value(g), value(g)),
        |&(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(bucket_index(lo) <= bucket_index(hi));
        },
    );
}

/// The text codec round-trips exactly: decode(encode(h)) == h,
/// including count/sum/min/max and every bucket.
#[test]
fn codec_round_trips_exactly() {
    check(
        "codec_round_trips_exactly",
        256,
        |g| g.vec(0..=199, value),
        |values| {
            let h = hist_of(values);
            let decoded = LogHistogram::decode(&h.encode()).expect("well-formed encoding");
            assert_eq!(decoded, h);
        },
    );
}

/// Merging is exact bucket-wise addition: merging two histograms is
/// the same as recording the concatenation of their samples.
#[test]
fn merge_equals_recording_concatenation() {
    check(
        "merge_equals_recording_concatenation",
        256,
        |g| (g.vec(0..=99, value), g.vec(0..=99, value)),
        |(xs, ys)| {
            let mut merged = hist_of(xs);
            merged.merge(&hist_of(ys));
            let both: Vec<u64> = xs.iter().chain(ys).copied().collect();
            assert_eq!(merged, hist_of(&both));
        },
    );
}

/// Merged quantiles bound the inputs: at bucket granularity, the
/// quantile of merge(a, b) lies between the quantiles of a and b, and
/// at the extremes it is exactly the joint min/max.
#[test]
fn merged_quantiles_bound_inputs() {
    check(
        "merged_quantiles_bound_inputs",
        256,
        |g| {
            let xs = g.vec(1..=99, value);
            let ys = g.vec(1..=99, value);
            // Both ends of [0, 1] are drawn on purpose now and then.
            let q = match g.gen_range(0..8) {
                0 => 0.0,
                1 => 1.0,
                _ => g.gen_f64(),
            };
            (xs, ys, q)
        },
        |(xs, ys, q)| {
            let q = *q;
            let a = hist_of(xs);
            let b = hist_of(ys);
            let mut m = a.clone();
            m.merge(&b);

            let (qa, qb, qm) = (a.quantile(q), b.quantile(q), m.quantile(q));
            let lo = bucket_index(qa).min(bucket_index(qb));
            let hi = bucket_index(qa).max(bucket_index(qb));
            let bm = bucket_index(qm);
            assert!(
                lo <= bm && bm <= hi,
                "merged quantile bucket {bm} outside input range [{lo}, {hi}] (q={q})"
            );

            assert_eq!(m.quantile(0.0), a.min().min(b.min()));
            assert_eq!(m.quantile(1.0), a.max().max(b.max()));
            assert!(m.quantile(q) >= m.min() && m.quantile(q) <= m.max());
        },
    );
}
