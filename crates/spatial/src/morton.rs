//! Morton (Z-order) encoding.
//!
//! A Morton code interleaves the bits of a `(col, row)` pair so that sorting
//! by the code walks the plane along a Z-shaped space-filling curve: points
//! that are close in 2-D land close together in the 1-D order. The CTUP
//! substrate uses this in two places — contiguous Z-range shard
//! partitioning and Morton-ordered disk pages.
//!
//! Everything here is zero-dependency bit manipulation; the magic-mask
//! spread/compact pair is the standard O(log bits) construction.

use crate::convert;
use crate::point::Point;
use crate::rect::Rect;

/// A 2-D Morton (Z-order) code: the bits of a `(col, row)` pair interleaved
/// with the column in the even bit positions and the row in the odd ones.
///
/// Codes compare like positions along the Z-curve, so sorting by
/// `MortonCode` is sorting by spatial locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MortonCode(pub u64);

/// Spreads the 32 bits of `x` into the even bit positions of a `u64`
/// (`abc` → `0a0b0c`).
#[inline]
#[must_use]
pub fn spread(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Inverse of [`spread`]: collects the even bit positions of `x` back into
/// a contiguous `u32`. Odd bits are ignored.
#[inline]
#[must_use]
pub fn compact(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    // Masked into u32 range above, so the narrowing is loss-free.
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// Morton code of an integer `(col, row)` pair.
#[inline]
#[must_use]
pub fn encode(col: u32, row: u32) -> MortonCode {
    MortonCode(spread(col) | (spread(row) << 1))
}

/// Inverse of [`encode`]: the `(col, row)` pair of a code.
#[inline]
#[must_use]
pub fn decode(code: MortonCode) -> (u32, u32) {
    (compact(code.0), compact(code.0 >> 1))
}

/// Per-axis quantization resolution for [`quantize`]: points are snapped to
/// a `2^16 × 2^16` lattice over the bounding rect, which is far finer than
/// any grid granularity the monitor uses while keeping codes well inside
/// the 64-bit interleaved space.
pub const QUANT_BITS: u32 = 16;

/// Morton code of a continuous point within `bound`, quantized to a
/// `2^QUANT_BITS` lattice per axis. Points outside the bound clamp to the
/// boundary, mirroring [`crate::Grid::cell_of`].
#[must_use]
pub fn quantize(p: Point, bound: &Rect) -> MortonCode {
    let max = (1u32 << QUANT_BITS) - 1;
    let scale = f64::from(max);
    let w = bound.width();
    let h = bound.height();
    let cx = if w > 0.0 {
        ((p.x - bound.lo.x) / w * scale).floor()
    } else {
        0.0
    };
    let cy = if h > 0.0 {
        ((p.y - bound.lo.y) / h * scale).floor()
    } else {
        0.0
    };
    encode(convert::grid_coord(cx, max), convert::grid_coord(cy, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_compact_roundtrip() {
        for x in [0u32, 1, 2, 0xFFFF, 0x1234_5678, u32::MAX] {
            assert_eq!(compact(spread(x)), x);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for &(c, r) in &[(0, 0), (1, 0), (0, 1), (65_535, 1), (123, 4_567)] {
            assert_eq!(decode(encode(c, r)), (c, r));
        }
    }

    #[test]
    fn encode_is_bit_interleave() {
        // (col=0b11, row=0b01) -> 0b0111: row bits odd, col bits even.
        assert_eq!(encode(0b11, 0b01).0, 0b0111);
        assert_eq!(encode(0b00, 0b10).0, 0b1000);
    }

    #[test]
    fn z_order_walks_quadrants() {
        // The first four codes of a 2x2 grid walk the Z: (0,0) (1,0) (0,1) (1,1).
        let mut cells = [(0u32, 0u32), (1, 0), (0, 1), (1, 1)];
        cells.sort_by_key(|&(c, r)| encode(c, r));
        assert_eq!(cells, [(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn quantize_clamps_and_orders() {
        let bound = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let inside = quantize(Point::new(0.5, 0.5), &bound);
        let outside = quantize(Point::new(2.0, 2.0), &bound);
        let corner = quantize(Point::new(1.0, 1.0), &bound);
        assert_eq!(outside, corner);
        assert!(inside < corner);
    }
}
