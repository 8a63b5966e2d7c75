//! Live-heap proof that writing a checkpoint costs memory in proportion
//! to the file it writes, not to a tree of the state.
//!
//! The shared counting allocator (`common`) tracks the bytes live and
//! their high-water mark. A campaign runs 7 hours of an 8-hour San
//! Francisco ×0.4 campaign (the quick-fidelity shape `repro` prefetches),
//! then writes one checkpoint; the heap may rise above the live campaign
//! state by at most 4× the checkpoint file's size while it does. The two
//! per-client, per-tick series dominate the file, so a writer that
//! builds one `Value` node (32 bytes) for every 4-byte sample, or copies
//! the encoded payload again to checksum it, breaks the bound.

mod common;

use surgescope_city::CityModel;
use surgescope_core::{CampaignConfig, CampaignRunner};

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

#[test]
fn checkpoint_write_heap_peak_is_bounded_by_file_size() {
    let path = std::env::temp_dir().join(format!(
        "surgescope-ckpt-heap-{}.ckpt",
        std::process::id()
    ));
    let mut cfg = CampaignConfig { hours: 8, scale: 0.4, ..CampaignConfig::test_default(2026) };
    cfg.store.checkpoint_path = Some(path.clone());
    let mut runner = CampaignRunner::new(CityModel::san_francisco_downtown(), &cfg).unwrap();
    for _ in 0..7 * 720 {
        runner.tick().unwrap();
    }

    let live = common::reset_peak();
    runner.write_checkpoint().unwrap();
    let above = common::peak_bytes() - live;
    let file = std::fs::metadata(&path).unwrap().len() as usize;
    let _ = std::fs::remove_file(&path);

    let ratio = above as f64 / file as f64;
    println!("checkpoint: {file} B file, heap peak {above} B above live state ({ratio:.2}x)");
    assert!(file > 1 << 20, "checkpoint of {file} B is too small to weigh the series");
    assert!(
        ratio <= 4.0,
        "writing a {file} B checkpoint peaked {above} B above the live state ({ratio:.2}x > 4x)"
    );
}
