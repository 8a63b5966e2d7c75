//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.
//!
//! Hand-rolled because the offline dependency set has no checksum crate.
//! The parameters match zlib's `crc32()`, so log files can be spot-checked
//! with standard tools.

/// Lazily built 256-entry lookup table for the reflected polynomial.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
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
    let t = table();
    let mut c = crc ^ 0xFFFF_FFFF;
    for &b in data {
        c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_update};

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
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
