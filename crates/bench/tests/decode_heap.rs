//! Live-heap proof that decoding a codec payload reserves memory in
//! proportion to the payload, whatever its headers declare.
//!
//! The shared counting allocator (`common`) tracks the bytes live and
//! their high-water mark. A sequence header reserves a 32-byte `Value`
//! for each element it declares before reading any of them. Checked
//! only against the bytes left after it, a chain of 64 nested headers,
//! each declaring every byte after it, reserved about 2,048× the
//! payload's length before the decode failed: at the server's 16 MiB
//! frame cap, about 32 GiB from one frame. The decoder refuses a payload
//! whose headers together declare more elements than its bytes hold, so
//! that payload must be refused below 40× its length, and a flat
//! sequence of the same length must still decode within that bound.

mod common;

use surgescope_store::{decode_value, encode_seq_header};

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// Payload length: 1 MiB.
const LEN: usize = 1 << 20;

/// A null value: its tag byte alone.
const NULL: u8 = 0x00;

/// Reservations may reach 40 bytes per payload byte.
const BOUND: f64 = 40.0;

/// Decodes `payload` and returns whether it decoded and the heap peak
/// above the bytes live before, per payload byte.
fn decode_peak(payload: &[u8]) -> (bool, f64) {
    let live = common::reset_peak();
    let decoded = decode_value(payload).is_ok();
    (decoded, (common::peak_bytes() - live) as f64 / payload.len() as f64)
}

/// Both payloads are measured in one test body: the counters are process
/// global, and libtest runs tests on parallel threads.
#[test]
fn decode_reserves_in_proportion_to_the_payload() {
    // 64 nested headers (the codec's depth bound), each declaring every
    // byte after it, then nulls to LEN. A count near 2^20 is a 3-byte
    // varint, so each header is 4 bytes.
    let mut crafted = Vec::with_capacity(LEN);
    for _ in 0..64 {
        let after = LEN - crafted.len() - 4;
        encode_seq_header(after, &mut crafted);
    }
    crafted.resize(LEN, NULL);
    // One header declaring every byte after it, each a null.
    let mut flat = Vec::with_capacity(LEN);
    encode_seq_header(LEN - 4, &mut flat);
    flat.resize(LEN, NULL);
    assert_eq!((crafted.len(), flat.len()), (LEN, LEN), "a header is not 4 bytes");

    let (decoded, crafted_ratio) = decode_peak(&crafted);
    println!("nested headers: peak {crafted_ratio:.1}x the payload");
    assert!(!decoded, "64 headers each declaring every byte after it decoded");
    assert!(
        crafted_ratio < BOUND,
        "refusing nested headers peaked at {crafted_ratio:.1}x the payload (> {BOUND}x)"
    );

    let (decoded, flat_ratio) = decode_peak(&flat);
    println!("flat sequence: peak {flat_ratio:.1}x the payload");
    assert!(decoded, "a flat sequence of nulls was refused");
    assert!(
        flat_ratio < BOUND,
        "a flat sequence peaked at {flat_ratio:.1}x the payload (> {BOUND}x)"
    );
}
