//! CRC-32 (IEEE 802.3 polynomial, reflected) — the one checksum both the
//! granule container and the journal's frames use — and FNV-1a 64, the one
//! digest behind artifact content digests, manifest ids, journal work
//! checksums, run-archive digests and tenant sharding.
//!
//! Slice-by-8: eight 256-entry tables, built at compile time, fold eight
//! input bytes per step instead of one, so the loop carries one table
//! lookup chain per 8 bytes rather than per byte. The result is the
//! standard CRC-32 (`crc32(b"123456789") == 0xCBF4_3926`).

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the register
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue the CRC-32 `crc` of some prefix over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, data)
}

/// Continue the FNV-1a 64 `h` of some prefix over `data`:
/// `fnv1a64_update(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_update(h: u64, data: &[u8]) -> u64 {
    data.iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference: the definition the tables are derived from.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_update(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    proptest! {
        #[test]
        fn slice_by_8_equals_bitwise(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cut in 0usize..2048,
            skip in 0usize..8,
        ) {
            // Unaligned sub-slice, then a split at an arbitrary point.
            let s = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(s), bitwise(s));
            let (a, b) = s.split_at(cut.min(s.len()));
            prop_assert_eq!(crc32_update(crc32(a), b), crc32(s));
        }
    }
}
