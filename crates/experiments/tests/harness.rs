//! Harness self-tests: experiment routing and quick-mode shape checks.
//! These are the "does `repro all` work" gate — heavier shape assertions
//! live in EXPERIMENTS.md against the full-fidelity run.

use surgescope_experiments::{cache::CampaignCache, run_experiment, RunCtx, ALL_IDS};

#[test]
fn scheduler_prefetch_matches_serial_byte_for_byte() {
    use surgescope_api::ProtocolEra;
    use surgescope_core::persist::campaign_encoded;
    use surgescope_experiments::cache::City;
    use surgescope_experiments::schedule;

    // Three experiments sharing the same pair of Apr-era campaigns.
    let ids: Vec<String> =
        ["fig05", "fig12", "fig16"].iter().map(|s| s.to_string()).collect();
    let ctx = RunCtx::quick(420);

    // Serial reference: experiments build their campaigns inline.
    let serial = CampaignCache::new();
    let serial_out: Vec<_> =
        ids.iter().map(|id| run_experiment(id, &ctx, &serial).unwrap()).collect();

    // Scheduled run: campaigns prefetched on 4 workers, then the same
    // experiments consume the cache.
    let scheduled = CampaignCache::new();
    let tasks = schedule::prefetch(&ids, &ctx, &scheduled, 4);
    assert_eq!(tasks, 2, "three experiments share exactly two campaigns");
    let scheduled_out: Vec<_> =
        ids.iter().map(|id| run_experiment(id, &ctx, &scheduled).unwrap()).collect();

    // The shared campaigns must be byte-identical down to the encoding.
    for city in City::BOTH {
        let a = serial.campaign(city, ProtocolEra::Apr2015, &ctx);
        let b = scheduled.campaign(city, ProtocolEra::Apr2015, &ctx);
        assert_eq!(
            campaign_encoded(&a),
            campaign_encoded(&b),
            "{}: scheduled campaign diverged from serial",
            city.label()
        );
    }
    // And so must everything derived from them.
    for (a, b) in serial_out.iter().zip(&scheduled_out) {
        assert_eq!(a.table, b.table, "{}: table diverged", a.id);
        assert_eq!(a.metrics, b.metrics, "{}: metrics diverged", a.id);
    }
}

/// `schedule::needs` must name every campaign an experiment reads: one
/// it leaves out is built inline and serially, and nothing else says so.
#[test]
fn prefetch_covers_every_campaign_the_experiments_read() {
    use surgescope_experiments::schedule;

    let ctx = RunCtx { quiet: true, ..RunCtx::quick(11) };
    let ids: Vec<String> = ALL_IDS.iter().map(|s| s.to_string()).collect();
    let cache = CampaignCache::new();
    let built = || {
        let run = cache.registry().snapshot();
        run.value("cache.misses").unwrap() + run.value("cache.taxi_runs").unwrap()
    };
    let tasks = schedule::prefetch(&ids, &ctx, &cache, 2);
    assert_eq!(built(), tasks as u64, "the prefetch builds each of its tasks once");
    for id in &ids {
        run_experiment(id, &ctx, &cache).unwrap_or_else(|| panic!("{id} runs"));
        assert_eq!(built(), tasks as u64, "{id} built a campaign the prefetch did not declare");
    }
}

#[test]
fn every_experiment_id_is_routable() {
    let ctx = RunCtx::quick(1);
    let cache = CampaignCache::new();
    assert!(run_experiment("nope", &ctx, &cache).is_none());
    // fig03 is pure geometry — run it for real as the cheap probe.
    let out = run_experiment("fig03", &ctx, &cache).expect("fig03 runs");
    assert_eq!(out.id, "fig03");
    assert!(out.metric("uber_manhattan_clients").unwrap() > 40.0);
    assert_eq!(ALL_IDS.len(), 26);
}

/// DESIGN.md §3 indexes every experiment, and the experiment table names
/// no id twice: a duplicate entry would shadow the later one.
#[test]
fn design_index_lists_every_experiment() {
    let design = include_str!("../../../DESIGN.md");
    let mut seen = std::collections::HashSet::new();
    for id in ALL_IDS {
        assert!(seen.insert(id), "{id} is in the experiment table twice");
        assert!(design.contains(&format!("| `{id}` |")), "DESIGN.md §3 has no row for {id}");
    }
}

#[test]
fn fault_sweep_degrades_gracefully() {
    let ctx = RunCtx::quick(5);
    let cache = CampaignCache::new();
    let out = run_experiment("fault_sweep", &ctx, &cache).expect("fault_sweep runs");
    // The zero-drop run is the drift baseline by construction.
    assert_eq!(out.metric("supply_drift_d00").unwrap(), 0.0);
    // Even at zero drops the fixed 10% delay leg leaves gaps: a delayed
    // ping's send tick has no delivery, and its late payload lands on a
    // tick that usually already had one. So the floor sits a bit under
    // the 10% delay chance, and each drop increment adds on top.
    let g00 = out.metric("gap_frac_d00").unwrap();
    assert!(g00 > 0.0 && g00 < 0.12, "delay-only gap fraction {g00}");
    let g05 = out.metric("gap_frac_d05").unwrap();
    let g20 = out.metric("gap_frac_d20").unwrap();
    assert!(
        g00 < g05 && g05 < g20,
        "gap fraction must grow with the drop chance: {g00} {g05} {g20}"
    );
    let added = g20 - g00;
    assert!(
        (0.10..0.25).contains(&added),
        "20% drops should add ≈0.18 gap fraction, got {added}"
    );
    // The estimator's unique-ID supply count must degrade *gracefully*:
    // even at 20% drops the grace window absorbs most missed sightings.
    let drift = out.metric("supply_drift_d20").unwrap();
    assert!(drift < 0.15, "supply drifted {:.1}% at 20% drops", drift * 100.0);
    for (k, v) in &out.metrics {
        assert!(v.is_finite(), "{k} must be finite");
    }
}

#[test]
fn quick_run_of_campaign_backed_experiments_produces_shapes() {
    // One shared cache: this is the expensive test (several quick
    // campaigns) but it exercises the exact code path of `repro all`.
    let ctx = RunCtx::quick(99);
    let cache = CampaignCache::new();

    let fig12 = run_experiment("fig12", &ctx, &cache).unwrap();
    let m_ns = fig12.metric("manhattan_no_surge_frac").unwrap();
    let s_ns = fig12.metric("sf_no_surge_frac").unwrap();
    assert!(m_ns > s_ns, "Manhattan must surge less than SF: {m_ns} vs {s_ns}");

    let fig13 = run_experiment("fig13", &ctx, &cache).unwrap();
    let feb = fig13.metric("feb_client_sub_minute").unwrap();
    let apr = fig13.metric("apr_client_sub_minute").unwrap();
    assert_eq!(feb, 0.0, "Feb era cannot have sub-minute episodes");
    assert!(apr > 0.0, "Apr era must show jitter-induced sub-minute episodes");

    let fig17 = run_experiment("fig17", &ctx, &cache).unwrap();
    for city in ["manhattan", "sf"] {
        if let Some(max_k) = fig17.metric(&format!("{city}_max_simultaneous")) {
            assert!(max_k <= 6.0, "{city}: {max_k} simultaneous jitterers");
        }
    }

    let fig21 = run_experiment("fig21", &ctx, &cache).unwrap();
    let peaks = [
        fig21.metric("manhattan_peak_r").unwrap(),
        fig21.metric("sf_peak_r").unwrap(),
    ];
    assert!(peaks.iter().any(|&r| r > 0.1), "EWT correlation peaks: {peaks:?}");

    let tab01 = run_experiment("tab01", &ctx, &cache).unwrap();
    for (k, v) in &tab01.metrics {
        if k.ends_with("_r2") {
            assert!(*v < 0.9, "{k} = {v}: forecasting must stay hard");
        }
    }

    let fig23 = run_experiment("fig23", &ctx, &cache).unwrap();
    let m = fig23.metric("manhattan_median_success_pct").unwrap();
    let s = fig23.metric("sf_median_success_pct").unwrap();
    assert!(
        m > s,
        "walking must pay off more in Manhattan than SF ({m} vs {s})"
    );
}

#[test]
fn metrics_deterministic_section_identical_across_jobs() {
    use surgescope_experiments::schedule;

    // fig09 declares the clean Manhattan campaign; fault_sweep declares
    // four faulted legs (drops 0–20% plus delays). Prefetching the same
    // plan on 1 worker and on 4 must leave byte-identical deterministic
    // metrics — counters, gauges, and histograms are commutative, and
    // everything wall-clock lives in the (excluded) timing section.
    let ids: Vec<String> =
        ["fig09", "fault_sweep"].iter().map(|s| s.to_string()).collect();
    let ctx = RunCtx::quick(77);
    let runs: Vec<String> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let cache = CampaignCache::new();
            let n = schedule::prefetch(&ids, &ctx, &cache, jobs);
            assert_eq!(n, 5, "one clean + four faulted distinct campaigns");
            cache.metrics_deterministic_json()
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "deterministic metrics section must not depend on --jobs"
    );
    assert!(runs[0].contains("\"schedule.tasks\":5"), "{}", runs[0]);
    assert!(runs[0].contains("\"cache.misses\":5"), "{}", runs[0]);
    assert!(runs[0].contains("campaign.ticks"), "{}", runs[0]);
    // Wall-clock values (timer .ns/.calls keys) must never leak into the
    // determinism-checked section.
    assert!(!runs[0].contains(".ns\":"), "{}", runs[0]);
    assert!(!runs[0].contains(".calls\":"), "{}", runs[0]);
}

#[test]
fn surge_experiments_survive_faulted_campaigns_with_unresolved_areas() {
    use surgescope_api::ProtocolEra;
    use surgescope_core::Campaign;
    use surgescope_experiments::cache::City;
    use surgescope_simcore::FaultPlan;

    let ctx = RunCtx::quick(31);
    let cache = CampaignCache::new();
    // Pre-seed the cache: simulate each city under heavy faults, force
    // one client to have no resolved surge area (the shape a badly
    // faulted campaign can produce), and register the result under the
    // *standard* Apr-era key so fig14/fig16/fig17 read it.
    for city in City::BOTH {
        let std_cfg = CampaignCache::campaign_config(city, ProtocolEra::Apr2015, &ctx);
        let mut cfg = std_cfg.clone();
        cfg.faults =
            FaultPlan { drop_chance: 0.40, delay_chance: 0.30, max_delay_secs: 120 };
        let mut data = Campaign::run_uber(city.model(), &cfg);
        data.client_area[0] = None;
        cache.insert(&std_cfg, data);
    }
    // Regression: fig14 used to `unwrap()` the picked client's area and
    // panic on exactly this input; all three must skip such clients.
    for id in ["fig14", "fig16", "fig17"] {
        let out = run_experiment(id, &ctx, &cache).expect(id);
        assert_eq!(out.id, id);
        for (k, v) in &out.metrics {
            assert!(v.is_finite(), "{id}: {k} must be finite");
        }
    }
}

#[test]
fn outcome_rendering_and_csv() {
    let ctx = RunCtx::quick(7);
    let cache = CampaignCache::new();
    let out = run_experiment("fig03", &ctx, &cache).unwrap();
    let rendered = out.render();
    assert!(rendered.contains("fig03"));
    assert!(rendered.contains("metrics"));
    assert!(ctx.out_dir.is_none(), "quick contexts write no CSV");
}
