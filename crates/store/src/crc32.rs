//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8.
//!
//! Hand-rolled because the offline dependency set has no checksum crate.
//! The parameters match zlib's `crc32()`, so log files can be spot-checked
//! with standard tools. Every frame on the wire and every log record and
//! checkpoint on disk is checked through here, so the update folds eight
//! bytes per step through eight lookup tables instead of one byte through
//! one; the values are those of the byte-at-a-time algorithm.

/// The reflected polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (initial value 0, standard pre/post inversion).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 over `data`, zlib-style: `crc` is the CRC of the
/// bytes before `data` (0 for none), so `crc32_update(crc32(a), b)`
/// equals `crc32` of `a` followed by `b`. Lets a caller checksum a
/// record whose parts live in separate buffers without joining them.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_update, POLY};

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The definition, one bit at a time and with no table at all.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// The sliced update equals the bitwise definition for every length
    /// from 0 to 1,024 at every start offset from 0 to 7 (so every
    /// alignment of the 8-byte words and every tail length), on seeded
    /// pseudo-random bytes.
    #[test]
    fn sliced_matches_bitwise_reference_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                // xorshift64*: a fixed seed, no dependency.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bitwise_crc32(data), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn update_continues_across_splits() {
        let data = b"surgescope campaign record";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(data), "split at {cut}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = b"surgescope campaign record".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
