//! CRC32 (IEEE 802.3) checksums for page frames and durable snapshots.
//!
//! Hand-rolled so the storage crate stays dependency-light; the table is
//! built at compile time. CRC32 detects every single-bit error and every
//! burst error up to 32 bits — exactly the corruption classes a torn page
//! write or a flipped cell produces.

/// The slicing-by-8 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[j][b]` is the CRC register after byte `b` is followed by `j`
/// zero bytes, so eight table lookups advance the register by eight bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32 of `data` (IEEE polynomial, reflected, init/xorout `0xFFFFFFFF`),
/// eight bytes per step with a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        let mut buf = data.to_vec();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32(&buf), clean, "flip at {byte}:{bit} undetected");
                buf[byte] ^= 1 << bit;
            }
        }
    }

    /// The CRC by its bytewise definition, one bit at a time.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &byte in data {
            c ^= u32::from(byte);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Eight bytes per step gives the bytewise values: every length up to
    /// 64 at every start offset within a word, and seeded 4 KiB buffers.
    #[test]
    fn matches_the_bytewise_definition() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.to_le_bytes()[3]
        };
        let buf: Vec<u8> = (0..72).map(|_| next()).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bitwise(data), "start {start} len {len}");
            }
        }
        let pages = if cfg!(miri) { 1 } else { 8 };
        for _ in 0..pages {
            let page: Vec<u8> = (0..4096).map(|_| next()).collect();
            assert_eq!(crc32(&page), bitwise(&page));
        }
    }

    #[test]
    fn detects_truncation() {
        let data = b"0123456789abcdef";
        let clean = crc32(data);
        for keep in 0..data.len() {
            assert_ne!(
                crc32(&data[..keep]),
                clean,
                "truncation to {keep} undetected"
            );
        }
    }
}
