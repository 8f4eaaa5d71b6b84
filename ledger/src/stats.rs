//! Order statistics over raw samples, and span self-time.
//!
//! Percentiles are exact (nearest rank over the sorted raw samples):
//! `ctup_obs::LogHistogram` has 6.25 % buckets, too coarse to hold a 10 %
//! bound. Quartiles follow Python's `statistics.quantiles(v, n=4)` so the
//! spreads `ledger diff` prints are the ones the driver computes.

/// The `q`-quantile (0 < q <= 1) of ascending `sorted` by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q`-quantile's rank: how many observations
/// the percentile rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(0, n)
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) returns its first and last cut point.
/// `None` for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound. 0 when undefined.
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The median over `windows` equal consecutive slices of `samples` (in
/// arrival order) of each slice's `q`-quantile. One stall lands in one
/// window, so this is far steadier from run to run than the quantile of
/// the whole step, while still being made of exact order statistics.
pub fn windowed_percentile(samples: &[u64], windows: usize, q: f64) -> f64 {
    let windows = windows.clamp(1, samples.len().max(1));
    let per = samples.len() / windows;
    if per == 0 {
        return 0.0;
    }
    let cuts: Vec<f64> = (0..windows)
        .map(|w| {
            let mut slice = samples[w * per..(w + 1) * per].to_vec();
            slice.sort_unstable();
            percentile(&slice, q) as f64
        })
        .collect();
    median(&cuts)
}

/// One benchmark-side span: an interval of one call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// The report (or batch) this span belongs to; spans of one request
    /// share it.
    pub report: u64,
    /// Index of this span in the recording.
    pub id: u32,
    /// Index of the span that caused it; `u32::MAX` for a root.
    pub parent: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds on the recording's clock.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
}

/// Marker for "no parent".
pub const ROOT: u32 = u32::MAX;

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start.max(p.start), s.end.min(p.end));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

/// One JSONL line per span, in recording order.
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"report\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}\n",
            s.report, s.id, parent, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v[..1], 0.99), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(20_000, 0.99), 200);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_percentile_confines_one_stall_to_one_window() {
        // 1000 samples of 10 with a 50-sample stall of 1000 in the middle:
        // the whole-step p99 is the stall, the windowed one is not.
        let mut samples = vec![10u64; 1000];
        for s in &mut samples[500..550] {
            *s = 1000;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.99), 1000);
        assert_eq!(windowed_percentile(&samples, 10, 0.99), 10.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |id, parent, start, end| SpanRec {
            report: 7,
            id,
            parent,
            name: "t",
            start,
            end,
        };
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 60), // overlaps span 1 by 10
            span(3, 1, 15, 20),
            span(4, 0, 90, 130), // sticks out of the root by 30
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        let text = spans_jsonl(&spans);
        assert_eq!(text.lines().count(), 5);
        assert!(text.starts_with("{\"report\":7,\"id\":0,\"parent\":null"));
    }
}
