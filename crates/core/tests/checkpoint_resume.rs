//! End-to-end checkpoint / resume / replay determinism.
//!
//! The contract under test: a campaign interrupted at a tick boundary and
//! resumed from its checkpoint produces a `CampaignData` that is
//! **bit-identical** (NaN payloads included) to the uninterrupted run —
//! under a clean transport AND under `FaultPlan::laggy` (non-empty
//! in-flight queue at the checkpoint) — and that a finished event log
//! replays into the same bytes without re-simulation.
//!
//! Equality is asserted on `persist::campaign_encoded`, the canonical
//! byte encoding in which equal bytes ⇔ deep bit-exact equality.

use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use surgescope_city::CityModel;
use surgescope_core::persist::{campaign_encoded, replay_campaign};
use surgescope_core::{CampaignConfig, CampaignRunner, StoreHooks};
use surgescope_simcore::FaultPlan;
use surgescope_store::{fnv1a64, read_checkpoint, StoreError};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "surgescope-ckpt-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn base_cfg(faults: FaultPlan, hours: u64) -> CampaignConfig {
    CampaignConfig { hours, faults, ..CampaignConfig::test_default(77) }
}

/// Runs the scenario end to end: uninterrupted baseline, interrupted run
/// checkpointed at the half-way tick boundary, resumed run.
fn scenario(tag: &str, faults: FaultPlan, hours: u64) {
    let city = CityModel::manhattan_midtown();
    let half_ticks = hours as usize * 720 / 2; // 720 five-second ticks/hour

    // Uninterrupted baseline, streamed into a log.
    let baseline_log = temp_path(&format!("{tag}-baseline.sslog"));
    let mut cfg = base_cfg(faults, hours);
    cfg.store.log_path = Some(baseline_log.clone());
    let mut runner = CampaignRunner::new(city.clone(), &cfg).unwrap();
    runner.run_to_end().unwrap();
    let baseline = runner.finish().unwrap();
    let baseline_bytes = campaign_encoded(&baseline);

    // Replay: the log alone reconstructs the same bytes, no simulation.
    let replayed = replay_campaign(&baseline_log).unwrap();
    assert_eq!(
        campaign_encoded(&replayed),
        baseline_bytes,
        "{tag}: replay of the event log diverged from the live campaign"
    );

    // Interrupted run: checkpoint at mid-campaign, then the process
    // "crashes" (runner dropped, only the file survives).
    let ckpt = temp_path(&format!("{tag}.ckpt"));
    let mut cfg = base_cfg(faults, hours);
    cfg.store.checkpoint_path = Some(ckpt.clone());
    let mut partial = CampaignRunner::new(city, &cfg).unwrap();
    for _ in 0..half_ticks {
        partial.tick().unwrap();
    }
    if faults.delay_chance > 0.0 {
        assert!(
            partial.in_flight() > 0,
            "{tag}: laggy plan should leave messages in flight at the checkpoint"
        );
    }
    partial.write_checkpoint().unwrap();
    drop(partial);

    // Resume: the run must hit the baseline bytes, and the rewritten log
    // must replay to them as well.
    let log = temp_path(&format!("{tag}-resume.sslog"));
    let hooks = StoreHooks { log_path: Some(log.clone()), ..StoreHooks::none() };
    let mut resumed = CampaignRunner::resume_from_file(&ckpt, hooks).unwrap();
    assert_eq!(resumed.ticks_done(), half_ticks);
    resumed.run_to_end().unwrap();
    let data = resumed.finish().unwrap();
    assert_eq!(
        campaign_encoded(&data),
        baseline_bytes,
        "{tag}: resumed run diverged from the uninterrupted run"
    );
    let rewound = replay_campaign(&log).unwrap();
    assert_eq!(
        campaign_encoded(&rewound),
        baseline_bytes,
        "{tag}: log rewritten on resume replays differently"
    );
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&baseline_log);
}

#[test]
fn clean_campaign_checkpoint_resume_bit_identical() {
    scenario("clean", FaultPlan::none(), 2);
}

#[test]
fn laggy_campaign_checkpoint_resume_bit_identical() {
    // Delays park responses in the transport queue across the checkpoint
    // boundary; drops punch NaN gaps whose bit patterns must survive.
    scenario(
        "laggy",
        FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 },
        2,
    );
}

/// The verify-script gate: a 4-hour campaign checkpointed at the 2-hour
/// boundary, resumed, and diffed bit-for-bit against the uninterrupted
/// run. Ignored by default (it simulates 4 campaign-hours four times
/// over); `scripts/verify.sh` runs it explicitly with `-- --ignored`.
#[test]
#[ignore = "release-mode gate, run by scripts/verify.sh"]
fn four_hour_campaign_checkpoint_at_two_hours_gate() {
    scenario(
        "gate-4h",
        FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 },
        4,
    );
}

/// The checkpoint format is pinned: the file a faulted campaign writes
/// at tick 360, with delayed responses still in flight, must keep the
/// FNV-1a digest the `Value`-tree writer gave it. The streaming writer
/// is an encoder of the same format, not a new one.
#[test]
fn checkpoint_file_matches_pinned_bytes() {
    let ckpt = temp_path("pinned.ckpt");
    let mut cfg = base_cfg(
        FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 },
        1,
    );
    cfg.store.checkpoint_path = Some(ckpt.clone());
    let mut runner = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg).unwrap();
    for _ in 0..360 {
        runner.tick().unwrap();
    }
    assert!(runner.in_flight() > 0, "no message in flight at the checkpoint");
    runner.write_checkpoint().unwrap();
    let bytes = std::fs::read(&ckpt).unwrap();
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(
        fnv1a64(&bytes),
        0x6e89_1205_4366_f102,
        "checkpoint file ({} bytes) diverged from the pinned format",
        bytes.len()
    );
}

/// The log format is pinned too: the log of a 1-hour campaign, with a
/// checkpoint path set, must keep the FNV-1a digest the per-tick
/// streaming writer gave it, clean and faulted, and a faulted run resumed
/// from a tick-300 checkpoint must write the same log as the
/// uninterrupted one.
#[test]
fn log_file_matches_pinned_bytes() {
    let faulted = FaultPlan { drop_chance: 0.05, delay_chance: 0.25, max_delay_secs: 30 };
    for (faults, resume_at, pinned, len) in [
        (FaultPlan::none(), None, 0xec90_5246_f503_216b, 416_511),
        (faulted, None, 0xd125_416b_e924_3014, 416_517),
        (faulted, Some(300), 0xd125_416b_e924_3014, 416_517),
    ] {
        let log = temp_path("pinned.sslog");
        let ckpt = temp_path("pinned-log.ckpt");
        let mut cfg = CampaignConfig { hours: 1, faults, ..CampaignConfig::test_default(5) };
        cfg.store.log_path = Some(log.clone());
        cfg.store.checkpoint_path = Some(ckpt.clone());
        let mut runner = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg).unwrap();
        if let Some(t) = resume_at {
            for _ in 0..t {
                runner.tick().unwrap();
            }
            runner.write_checkpoint().unwrap();
            drop(runner);
            runner = CampaignRunner::resume_from_file(&ckpt, cfg.store.clone()).unwrap();
        }
        runner.run_to_end().unwrap();
        runner.finish().unwrap();
        let bytes = std::fs::read(&log).unwrap();
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_file(&ckpt);
        assert_eq!(
            (fnv1a64(&bytes), bytes.len()),
            (pinned, len),
            "log of {faults:?} resumed at {resume_at:?} diverged from the pinned format"
        );
    }
}

/// A log on disk is always whole: a campaign that never reaches
/// `finish` leaves no log behind, not even a partial one.
#[test]
fn an_unfinished_campaign_leaves_no_log() {
    let log = temp_path("unfinished.sslog");
    let mut cfg = base_cfg(FaultPlan::none(), 1);
    cfg.store.log_path = Some(log.clone());
    let mut runner = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg).unwrap();
    for _ in 0..300 {
        runner.tick().unwrap();
    }
    drop(runner);
    let exists = log.exists();
    let _ = std::fs::remove_file(&log);
    assert!(!exists, "an unfinished campaign left a log at {}", log.display());
}

fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Map(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        _ => panic!("{key}: parent is not a map"),
    }
}

/// A checkpoint with a row missing from a per-client or per-area field,
/// or with the estimator's area polygons not the city's, must be refused
/// by `resume`. Resumed, it would panic ticks later or attribute UberX
/// to the wrong areas.
#[test]
fn resume_rejects_malformed_row_counts() {
    let ckpt = temp_path("rows.ckpt");
    let mut cfg = base_cfg(FaultPlan::none(), 1);
    cfg.store.checkpoint_path = Some(ckpt.clone());
    let mut runner = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg).unwrap();
    // 27.5 minutes in: five intervals closed and the sixth's probe pending.
    for _ in 0..330 {
        runner.tick().unwrap();
    }
    runner.write_checkpoint().unwrap();
    let (_, v) = read_checkpoint(&ckpt).unwrap();
    let _ = std::fs::remove_file(&ckpt);
    assert!(CampaignRunner::resume(&v, StoreHooks::none()).is_ok());

    let fields: &[&[&str]] = &[
        &["client_surge"],
        &["client_ewt"],
        &["daily_sets"],
        &["client_daily_cars"],
        &["interval_sets"],
        &["interval_car_sum"],
        &["interval_car_n"],
        &["interval_seen"],
        &["ewt_sum"],
        &["ewt_n"],
        &["client_delivered"],
        &["api_surge"],
        &["api_ewt"],
        &["avg_visible"],
        &["inst_sum"],
        &["probe_pending"],
        &["estimator", "ids_by_area"],
        &["estimator", "supply_area"],
        &["estimator", "deaths_area"],
        &["estimator", "areas"],
        &["transitions", "prev_multipliers"],
    ];
    for path in fields {
        let mut bad = v.clone();
        let rows = path.iter().fold(&mut bad, |at, key| field_mut(at, key));
        let Value::Seq(rows) = rows else { panic!("{path:?} is not a sequence") };
        rows.pop().expect("a row to drop");
        assert!(
            CampaignRunner::resume(&bad, StoreHooks::none()).is_err(),
            "{path:?} one row short resumed"
        );
    }
    // Same count, other polygons: the estimator would attribute UberX to
    // areas the tracker and the runner's per-area sets no longer match.
    let mut bad = v.clone();
    let Value::Seq(polys) = field_mut(field_mut(&mut bad, "estimator"), "areas") else {
        panic!("estimator areas are not a sequence")
    };
    polys.swap(0, 1);
    assert!(CampaignRunner::resume(&bad, StoreHooks::none()).is_err(), "swapped areas resumed");
}

#[test]
fn truncated_log_errors_cleanly() {
    let city = CityModel::manhattan_midtown();
    let log = temp_path("trunc.sslog");
    let mut cfg = CampaignConfig { hours: 1, ..CampaignConfig::test_default(5) };
    cfg.store.log_path = Some(log.clone());
    let mut runner = CampaignRunner::new(city, &cfg).unwrap();
    runner.run_to_end().unwrap();
    runner.finish().unwrap();

    let full = std::fs::read(&log).unwrap();
    // Chop mid-record: an interrupted write must surface Truncated, and a
    // log cut before its FINISH record must be rejected as incomplete —
    // cleanly, never a panic.
    for cut in [full.len() - 7, full.len() / 2, 30] {
        let t = temp_path("trunc-cut.sslog");
        std::fs::write(&t, &full[..cut]).unwrap();
        let err = match replay_campaign(&t) {
            Err(e) => e,
            Ok(_) => panic!("truncated log must not replay (cut {cut})"),
        };
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Schema(_)),
            "cut at {cut}: unexpected error {err}"
        );
        let _ = std::fs::remove_file(&t);
    }
    let _ = std::fs::remove_file(&log);
}

#[test]
fn corrupted_log_fails_crc_cleanly() {
    let city = CityModel::manhattan_midtown();
    let log = temp_path("crc.sslog");
    let mut cfg = CampaignConfig { hours: 1, ..CampaignConfig::test_default(6) };
    cfg.store.log_path = Some(log.clone());
    let mut runner = CampaignRunner::new(city, &cfg).unwrap();
    runner.run_to_end().unwrap();
    runner.finish().unwrap();

    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let err = match replay_campaign(&log) {
        Err(e) => e,
        Ok(_) => panic!("flipped bit must not replay"),
    };
    assert!(
        matches!(err, StoreError::CrcMismatch { .. } | StoreError::Schema(_) | StoreError::Codec(_)),
        "unexpected error {err}"
    );
    let _ = std::fs::remove_file(&log);
}
