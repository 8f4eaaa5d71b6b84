//! The workspace's one seeded generator: xoshiro256++ (Blackman & Vigna)
//! seeded through SplitMix64.
//!
//! Every workload, fault plan and chaos script is a pure function of its
//! seed through this type, and the draw mappings below are frozen: the
//! ledger's baselines and every committed golden were taken under them
//! (see DESIGN.md §5, "Randomness"). Changing one changes every stream.

use std::ops::Range;

/// A seeded xoshiro256++ stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// Expands `seed` into the 256-bit state with four SplitMix64 steps.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        SeededRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
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

    /// Uniform in `[0, 1)`: the top 53 bits over 2⁵³.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An integer in `range`: `start + next_u64 % span`. Panics on an
    /// empty range.
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// A float in `range`: `start + gen_f64 * (end - start)`.
    pub fn gen_range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + self.gen_f64() * (range.end - range.start)
    }

    /// `true` with probability `p`: `gen_f64 < p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first8(mut rng: SeededRng) -> [u64; 8] {
        std::array::from_fn(|_| rng.next_u64())
    }

    /// The published reference vectors: SplitMix64 from 0, and
    /// xoshiro256++ from the state `[1, 2, 3, 4]`.
    #[test]
    fn matches_the_published_reference() {
        assert_eq!(
            SeededRng::seed_from_u64(0).s,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ]
        );
        assert_eq!(
            first8(SeededRng { s: [1, 2, 3, 4] }),
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
                14_011_001_112_246_962_877,
                12_406_186_145_184_390_807,
            ]
        );
    }

    /// Pins the seeded streams the ledger's workloads are built from.
    #[test]
    fn seeded_streams_are_pinned() {
        assert_eq!(
            first8(SeededRng::seed_from_u64(0)),
            [
                0x5317_5D61_490B_23DF,
                0x61DA_6F3D_C380_D507,
                0x5C0F_DF91_EC9A_7BFC,
                0x02EE_BF8C_3BBE_5E1A,
                0x7ECA_04EB_AF4A_5EEA,
                0x0543_C377_57F0_8D9A,
                0xDB74_90C7_5AB5_026E,
                0xD873_43E6_464B_C959,
            ]
        );
        assert_eq!(
            first8(SeededRng::seed_from_u64(199)),
            [
                0x73D8_CC21_D5E6_94B4,
                0xE309_4DAD_CAAA_465D,
                0xD3FB_099C_B376_F21D,
                0x53FF_73EF_6F2C_8372,
                0x0198_865D_DB17_EE24,
                0xFEB1_CBA0_5260_DD37,
                0xECB9_33B9_0EDE_9AA7,
                0x4CCA_52A8_C41D_D963,
            ]
        );
    }

    #[test]
    fn draw_mappings_are_pinned() {
        let rng = || SeededRng::seed_from_u64(7);
        let mut r = rng();
        let ints: Vec<usize> = (0..8).map(|_| r.gen_range(3..10)).collect();
        assert_eq!(ints, [3, 9, 7, 8, 8, 3, 8, 8]);

        let mut r = rng();
        let bools: Vec<bool> = (0..16).map(|_| r.gen_bool(0.3)).collect();
        let t = true;
        let f = false;
        assert_eq!(bools, [t, t, f, f, f, f, f, f, f, t, t, t, f, t, f, t]);
    }
}
