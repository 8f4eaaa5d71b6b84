//! Checked conversions between the workspace's id/index/counter spaces.
//!
//! Cell, place and unit ids are dense `u32`s that index flat vectors, and
//! metrics counters are `u64`s fed from `usize` lengths. A bare `as` cast
//! between those spaces wraps silently on overflow and corrupts an id into
//! a *different valid id* — the worst possible failure mode for a spatial
//! index. Every narrowing or widening conversion therefore goes through
//! one of these helpers (the crate root denies clippy's lossy-cast lints;
//! a lossless widening `as` passes them, so the widening half is a
//! convention): they are loss-free in every reachable configuration,
//! saturate instead of wrapping if an unreachable one is ever reached,
//! and flag it loudly in debug builds.

/// Widens a `u32` id into a `usize` vector index.
///
/// Loss-free on every supported platform (`usize` is at least 32 bits);
/// compiles to a no-op on 64-bit targets.
#[inline]
#[must_use]
pub fn index(id: u32) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

/// Narrows a `usize` count or index into the dense `u32` id space.
///
/// Id spaces are dense in `0..n` where `n` is a cell/place/unit count far
/// below `u32::MAX`; an overflow here means the caller built an impossibly
/// large universe, so debug builds assert and release builds saturate
/// (yielding an out-of-range id that fails fast) rather than wrapping into
/// a *valid* foreign id.
#[inline]
#[must_use]
pub fn id32(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "id space overflow: {n}");
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Widens a `usize` length into a `u64` metrics counter. Loss-free on every
/// supported platform.
#[inline]
#[must_use]
pub fn count64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Narrows a `u128` nanosecond total (`Duration::as_nanos`) into a `u64`
/// counter, saturating after ~584 years of accumulated runtime.
#[inline]
#[must_use]
pub fn nanos64(nanos: u128) -> u64 {
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Truncates an already-floored grid coordinate into the `u32` axis space,
/// clamping to `0..=max_index`. NaN and negative inputs clamp to 0 so every
/// point maps to a boundary cell.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the single blessed float→id truncation site, range-guarded below"
)]
pub fn grid_coord(coord: f64, max_index: u32) -> u32 {
    if !matches!(coord.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater)) {
        return 0; // NaN or non-positive
    }
    if coord >= f64::from(max_index) {
        return max_index;
    }
    // In (0, max_index) by the guards above, so the truncation is exact for
    // floored inputs and in-range for all others.
    coord as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_lossless() {
        assert_eq!(index(0), 0);
        assert_eq!(index(u32::MAX), u32::MAX as usize);
        assert_eq!(count64(0), 0);
        assert_eq!(count64(usize::MAX), usize::MAX as u64);
    }

    #[test]
    fn id32_roundtrips_dense_ids() {
        for n in [0usize, 1, 1 << 20, u32::MAX as usize] {
            assert_eq!(id32(n) as usize, n);
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn id32_saturates_in_release() {
        assert_eq!(id32(usize::MAX), u32::MAX);
    }

    #[test]
    fn nanos64_saturates() {
        assert_eq!(nanos64(42), 42);
        assert_eq!(nanos64(u128::MAX), u64::MAX);
    }

    #[test]
    fn grid_coord_clamps() {
        assert_eq!(grid_coord(f64::NAN, 9), 0);
        assert_eq!(grid_coord(-3.0, 9), 0);
        assert_eq!(grid_coord(0.0, 9), 0);
        assert_eq!(grid_coord(4.0, 9), 4);
        assert_eq!(grid_coord(9.0, 9), 9);
        assert_eq!(grid_coord(1e12, 9), 9);
    }
}
