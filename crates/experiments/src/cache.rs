//! Campaign sharing across experiments.
//!
//! A full campaign is minutes of CPU; ten experiments read from the same
//! one. The cache has two layers:
//!
//! * **In-process** — campaigns keyed by the full semantic config hash
//!   ([`CampaignConfig::config_hash`] folded with the city), so *any*
//!   config difference (estimator tuning, fault plan, scale, …) gets its
//!   own entry. The old key was `(city, era)` only, which silently served
//!   stale data to callers that varied anything else.
//! * **On disk** — when the run context has an output directory, each
//!   campaign checkpoints about eight times on the way and writes its
//!   event log once, when it finishes, under `results/campaign-cache/`
//!   (override with `SURGESCOPE_CACHE_DIR`). A later process replays the
//!   log into the identical `CampaignData` without re-simulation, and an
//!   interrupted campaign, which leaves a checkpoint but never a log,
//!   resumes from its checkpoint instead of starting over. `repro
//!   --resume` goes through the same path: it moves its checkpoint to
//!   [`checkpoint_path`] and asks the cache for the campaign. A
//!   checkpoint or log that cannot be written costs only this layer:
//!   the campaign still runs to its end, once, and is kept in memory with
//!   its metrics entry and one `cache.store_failures`.

use crate::RunCtx;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use surgescope_api::ProtocolEra;
use surgescope_obs::{Counter, MetricsRegistry, Snapshot};
use surgescope_city::CityModel;
use surgescope_core::estimate::{EstimatorConfig, SupplyDemandEstimator};
use surgescope_core::persist::replay_campaign;
use surgescope_core::{
    Campaign, CampaignConfig, CampaignData, CampaignRunner, RemoteOptions, StoreHooks,
};
use surgescope_store::StoreError;
use surgescope_taxi::{TaxiGroundTruth, TaxiTrace, TraceGenerator};

/// Which study city.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum City {
    /// Midtown Manhattan.
    Manhattan,
    /// Downtown San Francisco.
    SanFrancisco,
}

/// Locks a mutex, recovering from poisoning: a panic in one prefetch
/// worker (already isolated and reported by the scheduler) must not
/// cascade `PoisonError` panics into every other experiment that shares
/// the cache. The guarded maps are always left structurally consistent —
/// each critical section is a single insert or lookup.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl City {
    /// Both cities in the paper's reporting order.
    pub const BOTH: [City; 2] = [City::Manhattan, City::SanFrancisco];

    /// The city model.
    pub fn model(self) -> CityModel {
        match self {
            City::Manhattan => CityModel::manhattan_midtown(),
            City::SanFrancisco => CityModel::san_francisco_downtown(),
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            City::Manhattan => "Manhattan",
            City::SanFrancisco => "SF",
        }
    }
}

/// A finished taxi validation: estimator plus ground truth.
pub struct TaxiValidation {
    /// The finished estimator.
    pub estimator: SupplyDemandEstimator,
    /// Replay ground truth.
    pub truth: TaxiGroundTruth,
    /// The generated trace (for workload statistics).
    pub trace: TaxiTrace,
}

/// Lazily built, shared campaign results.
///
/// Thread-safe: the scheduler's prefetch workers fill it concurrently
/// (each distinct campaign simulated once, on one worker), and the
/// experiments later read it from any thread. The locks guard only the
/// map, never a running simulation, so concurrent *distinct* campaigns
/// proceed in parallel.
pub struct CampaignCache {
    campaigns: Mutex<HashMap<u64, Arc<CampaignData>>>,
    taxi: Mutex<Option<Arc<TaxiValidation>>>,
    /// Run-level metrics registry: the cache's own counters, the CSV
    /// failures of [`crate::run_experiment`], plus whatever the scheduler
    /// registers ([`crate::schedule::prefetch`] adds its drain order and
    /// per-worker busy timers here).
    registry: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    disk_replays: Counter,
    resumes: Counter,
    store_failures: Counter,
    remote_runs: Counter,
    remote_failures: Counter,
    /// Remote campaigns whose wire retry budget ran out (the client's
    /// circuit breaker tripped) before the local fallback kicked in.
    /// A strict subset of `remote_failures`.
    breaker_trips: Counter,
    taxi_runs: Counter,
    /// CSVs [`crate::run_experiment`] could not write.
    pub(crate) csv_failures: Counter,
    /// Per-campaign metrics snapshots, captured just before each
    /// simulated campaign finished, keyed by cache key. Replayed and
    /// in-process-hit campaigns have no entry — nothing was simulated.
    snapshots: Mutex<BTreeMap<u64, Snapshot>>,
}

impl Default for CampaignCache {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        CampaignCache {
            campaigns: Mutex::new(HashMap::new()),
            taxi: Mutex::new(None),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            disk_replays: registry.counter("cache.disk_replays"),
            resumes: registry.counter("cache.resumes"),
            store_failures: registry.counter("cache.store_failures"),
            remote_runs: registry.counter("cache.remote_runs"),
            remote_failures: registry.counter("cache.remote_failures"),
            breaker_trips: registry.counter("resilience.breaker_trips"),
            taxi_runs: registry.counter("cache.taxi_runs"),
            csv_failures: registry.counter("experiments.csv_failures"),
            registry,
            snapshots: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Cache identity of one campaign: the semantic config hash folded with
/// the city name (the config alone does not identify the city).
pub fn cache_key(city_name: &str, cfg: &CampaignConfig) -> u64 {
    use serde::{Serialize, Value};
    surgescope_store::value_hash(&Value::Map(vec![
        ("city".into(), city_name.to_value()),
        ("config".into(), cfg.config_hash().to_value()),
    ]))
}

/// Directory of the on-disk campaign cache for this run context, if any:
/// `SURGESCOPE_CACHE_DIR` when set, else `<out_dir>/campaign-cache`, else
/// `None` (no output directory ⇒ memory-only cache).
pub fn cache_dir(ctx: &RunCtx) -> Option<PathBuf> {
    if let Ok(d) = std::env::var("SURGESCOPE_CACHE_DIR") {
        if !d.is_empty() {
            return Some(PathBuf::from(d));
        }
    }
    ctx.out_dir.as_ref().map(|d| d.join("campaign-cache"))
}

/// Event-log path for a cache key inside `dir`.
pub fn log_path(dir: &std::path::Path, key: u64) -> PathBuf {
    dir.join(format!("campaign-{key:016x}.sslog"))
}

/// Checkpoint path for a cache key inside `dir`.
pub fn checkpoint_path(dir: &std::path::Path, key: u64) -> PathBuf {
    dir.join(format!("campaign-{key:016x}.ckpt"))
}

/// Store hooks of a cached campaign: its log and checkpoint in `dir`.
pub fn store_hooks(dir: &std::path::Path, key: u64) -> StoreHooks {
    StoreHooks {
        log_path: Some(log_path(dir, key)),
        checkpoint_path: Some(checkpoint_path(dir, key)),
    }
}

impl CampaignCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The run-level metrics registry (cache counters + scheduler
    /// instruments). The scheduler registers into this, so one registry
    /// describes the whole `repro` run.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Renders the full metrics document for this run: the run-level
    /// registry plus one entry per *simulated* campaign, keyed by cache
    /// key — `{"run": {...}, "campaigns": {"campaign-<key>": {...}}}`.
    /// Keys are sorted at every level; see
    /// [`CampaignCache::metrics_deterministic_json`] for the
    /// determinism-checked subset.
    pub fn metrics_json(&self) -> String {
        self.render_metrics(Snapshot::to_json)
    }

    /// The determinism-checked sections only (run + per-campaign), in the
    /// same shape as [`CampaignCache::metrics_json`]. Byte-identical at
    /// any `--jobs` setting for the same inputs.
    pub fn metrics_deterministic_json(&self) -> String {
        self.render_metrics(Snapshot::deterministic_json)
    }

    /// The metrics document, each snapshot rendered by `section`.
    fn render_metrics(&self, section: fn(&Snapshot) -> String) -> String {
        let mut s = String::from("{\"run\":");
        s.push_str(&section(&self.registry.snapshot()));
        s.push_str(",\"campaigns\":{");
        let snaps = lock_ok(&self.snapshots);
        for (i, (key, snap)) in snaps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"campaign-{key:016x}\":"));
            s.push_str(&section(snap));
        }
        s.push_str("}}");
        s
    }

    /// Runs `runner` to its end and finishes it, returning the campaign
    /// and its metrics snapshot, read at the last tick boundary. A
    /// campaign that finished but whose checkpoint or log could not be
    /// written is kept: the failure is counted in `cache.store_failures`
    /// and warned about, and only the disk layer goes without it. The
    /// only error is a remote campaign's, lost on the wire.
    fn run_to_finish(
        &self,
        mut runner: CampaignRunner,
    ) -> Result<(CampaignData, Snapshot), StoreError> {
        runner.run_to_end()?;
        let snap = runner.metrics_snapshot();
        let (data, stored) = runner.finish_and_log()?;
        if let Err(e) = stored {
            self.store_failures.incr();
            eprintln!("[cache] campaign not stored on disk ({e}); keeping it in memory");
        }
        Ok((data, snap))
    }

    /// The standard campaign configuration for (city, era) under `ctx`:
    /// the paper's, at the context's horizon and scale.
    pub fn campaign_config(city: City, era: ProtocolEra, ctx: &RunCtx) -> CampaignConfig {
        let seed = ctx.seed ^ (city as u64 + 1) ^ ((era == ProtocolEra::Apr2015) as u64) << 8;
        let paper = CampaignConfig::paper_default(seed, era, ctx.hours());
        CampaignConfig { scale: ctx.scale(), ..paper }
    }

    /// Seeds the in-process layer with an externally produced campaign.
    pub fn insert(&self, cfg: &CampaignConfig, data: CampaignData) -> Arc<CampaignData> {
        let key = cache_key(&data.city.name, cfg);
        let rc = Arc::new(data);
        lock_ok(&self.campaigns).insert(key, Arc::clone(&rc));
        rc
    }

    /// The standard campaign for (city, era), building it on first use.
    pub fn campaign(&self, city: City, era: ProtocolEra, ctx: &RunCtx) -> Arc<CampaignData> {
        self.campaign_custom(city, Self::campaign_config(city, era, ctx), ctx)
    }

    /// The campaign for an arbitrary config, building it on first use:
    /// past the in-process layer, a remote run, the on-disk log, a
    /// leftover checkpoint and a fresh run, in that order. What is built
    /// is kept in memory, with the metrics snapshot of a simulated one.
    ///
    /// `cfg.store` is overwritten; the cache owns persistence placement.
    pub fn campaign_custom(
        &self,
        city: City,
        mut cfg: CampaignConfig,
        ctx: &RunCtx,
    ) -> Arc<CampaignData> {
        cfg.store = StoreHooks::none();
        let key = cache_key(&city.model().name, &cfg);
        if let Some(c) = lock_ok(&self.campaigns).get(&key) {
            self.hits.incr();
            return Arc::clone(c);
        }
        let (data, snapshot) = self.build(city, cfg, key, ctx);
        if let Some(snap) = snapshot {
            lock_ok(&self.snapshots).insert(key, snap);
        }
        let data = Arc::new(data);
        lock_ok(&self.campaigns).insert(key, Arc::clone(&data));
        data
    }

    /// Builds a campaign the in-process layer does not hold, trying in
    /// order: a remote run, when the context names a server; the on-disk
    /// log, replayed without re-simulation; a leftover checkpoint,
    /// resumed from the interruption point; a fresh run. A resumed or
    /// fresh run checkpoints into the disk cache and logs there when it
    /// finishes, and is simulated once whatever the disk does. Returns
    /// the campaign and, unless it was replayed, its metrics snapshot.
    fn build(
        &self,
        city: City,
        mut cfg: CampaignConfig,
        key: u64,
        ctx: &RunCtx,
    ) -> (CampaignData, Option<Snapshot>) {
        // Remote measurement: the campaign runs against a serve endpoint
        // over a set of sockets. Byte-identical to the local
        // path, so it can share the in-process layer; the disk layers are
        // skipped (remote campaigns cannot be checkpointed). A wire
        // failure degrades to the in-process path below with a warning —
        // a dead server must cost the topology, never the run. A miss is
        // counted where the campaign is simulated: here once it has run,
        // or below before the local run, never for a replay.
        if let Some(addr) = ctx.remote.clone() {
            self.remote_runs.incr();
            if !ctx.quiet {
                eprintln!(
                    "[cache] running {} campaign ({} h, {:?} era) remotely via {addr}…",
                    city.label(),
                    cfg.hours,
                    cfg.era
                );
            }
            let connections = cfg.parallelism.clamp(1, 4);
            let mut options = RemoteOptions::default();
            if let Some(n) = ctx.remote_retries {
                options.policy.max_retries = n;
            }
            if let Some(secs) = ctx.remote_op_timeout {
                options.policy.op_timeout = Duration::from_secs(secs.max(1));
            }
            let fallible =
                CampaignRunner::new_remote_with(city.model(), &cfg, &addr, connections, options)
                    .and_then(|runner| self.run_to_finish(runner));
            match fallible {
                Ok((data, snap)) => {
                    self.misses.incr();
                    return (data, Some(snap));
                }
                Err(e) => {
                    self.remote_failures.incr();
                    // The client names the breaker in the error it
                    // surfaces when a retry budget runs out; anything
                    // else is a setup/handshake failure.
                    if e.to_string().contains("circuit breaker") {
                        self.breaker_trips.incr();
                    }
                    eprintln!("[cache] remote campaign via {addr} failed ({e}); running locally");
                }
            }
        }

        let dir = cache_dir(ctx);
        if let Some(dir) = &dir {
            let lp = log_path(dir, key);
            if lp.exists() {
                match replay_campaign(&lp) {
                    Ok(data) => {
                        self.disk_replays.incr();
                        // A finished log makes any checkpoint beside it
                        // (one `repro --resume` moved in) obsolete.
                        let _ = std::fs::remove_file(checkpoint_path(dir, key));
                        if !ctx.quiet {
                            eprintln!(
                                "[cache] replayed {} campaign ({:?} era) from {}",
                                city.label(),
                                cfg.era,
                                lp.display()
                            );
                        }
                        return (data, None);
                    }
                    Err(e) => {
                        if !ctx.quiet {
                            eprintln!(
                                "[cache] cached log {} unusable ({e}); re-running",
                                lp.display()
                            );
                        }
                        let _ = std::fs::remove_file(&lp);
                    }
                }
            }
            if std::fs::create_dir_all(dir).is_ok() {
                cfg.store = store_hooks(dir, key);
            }
        }

        self.misses.incr();
        let resumed = cfg.store.checkpoint_path.as_ref().filter(|cp| cp.exists()).and_then(|cp| {
            match CampaignRunner::resume_from_file(cp, cfg.store.clone()) {
                Ok(runner) => {
                    self.resumes.incr();
                    if !ctx.quiet {
                        eprintln!(
                            "[cache] resuming {} campaign ({:?} era) from checkpoint at tick {}/{}…",
                            city.label(),
                            cfg.era,
                            runner.ticks_done(),
                            runner.ticks_total()
                        );
                    }
                    Some(runner)
                }
                Err(e) => {
                    if !ctx.quiet {
                        eprintln!(
                            "[cache] checkpoint {} unusable ({e}); re-running from scratch",
                            cp.display()
                        );
                    }
                    None
                }
            }
        });
        let runner = resumed.unwrap_or_else(|| {
            if !ctx.quiet {
                eprintln!(
                    "[cache] running {} campaign ({} h, {:?} era)…",
                    city.label(),
                    cfg.hours,
                    cfg.era
                );
            }
            CampaignRunner::new(city.model(), &cfg).expect("building a runner opens no file")
        });
        let (data, snap) = self
            .run_to_finish(runner)
            .expect("an in-process campaign fails only on a remote system's wire");
        if let Some(cp) = &cfg.store.checkpoint_path {
            let _ = std::fs::remove_file(cp);
        }
        (data, Some(snap))
    }

    /// The §3.5 taxi validation (Manhattan), building it on first use.
    pub fn taxi(&self, ctx: &RunCtx) -> Arc<TaxiValidation> {
        if let Some(t) = lock_ok(&self.taxi).as_ref() {
            return Arc::clone(t);
        }
        self.taxi_runs.incr();
        if !ctx.quiet {
            eprintln!("[cache] running taxi validation replay…");
        }
        let city = City::Manhattan.model();
        let (taxis, days) = if ctx.quick { (150, 1) } else { (400, 3) };
        let gen = TraceGenerator { taxis, days, ..Default::default() };
        let trace = gen.generate(&city, ctx.seed ^ 0x7A51);
        let hours = days * 24;
        // Taxi visibility is much shorter-range than Uber's (r ≈ 100 m in
        // the paper), so the edge-exclusion band shrinks accordingly.
        let est_cfg = EstimatorConfig {
            edge_margin_m: 75.0,
            // Taxi IDs rotate per availability period, and short idle
            // gaps between trips are real — don't discard them.
            short_lived_secs: 45,
            ..Default::default()
        };
        let (estimator, truth) = Campaign::run_taxi(
            &trace,
            city.measurement_region.clone(),
            150.0,
            hours,
            ctx.seed ^ 0x7A52,
            est_cfg,
        );
        let v = Arc::new(TaxiValidation { estimator, truth, trace });
        *lock_ok(&self.taxi) = Some(Arc::clone(&v));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_core::persist::campaign_encoded;

    /// A campaign that finishes but cannot write its log (its temp file's
    /// name is taken by a directory) is kept rather than simulated again:
    /// one store failure, one miss, a metrics entry (the memory-only
    /// fallback records none), and the bytes of a memory-only run.
    #[test]
    fn a_log_that_cannot_be_written_keeps_the_finished_campaign() {
        let out = std::env::temp_dir()
            .join(format!("surgescope-cache-log-failure-{}", std::process::id()));
        let ctx = RunCtx { out_dir: Some(out.clone()), quiet: true, ..RunCtx::quick(5) };
        let dir = cache_dir(&ctx).expect("an output directory gives a disk cache");
        let (city, era) = (City::Manhattan, ProtocolEra::Feb2015);
        let key = cache_key(&city.model().name, &CampaignCache::campaign_config(city, era, &ctx));
        let mut blocked = log_path(&dir, key).into_os_string();
        blocked.push(".tmp");
        std::fs::create_dir_all(&blocked).unwrap();

        let cache = CampaignCache::new();
        let data = cache.campaign(city, era, &ctx);
        let written = log_path(&dir, key).exists();
        let _ = std::fs::remove_dir(&blocked);
        let _ = std::fs::remove_dir_all(&out);
        assert!(!written, "the log was written; the failure is untested");
        let run = cache.registry().snapshot();
        assert_eq!(run.value("cache.store_failures"), Some(1));
        assert_eq!(run.value("cache.misses"), Some(1));
        assert!(
            cache.metrics_json().contains(&format!("\"campaign-{key:016x}\":")),
            "no metrics entry for the kept campaign"
        );

        let plain = RunCtx { quiet: true, ..RunCtx::quick(5) };
        let memory_only = CampaignCache::new().campaign(city, era, &plain);
        assert!(
            campaign_encoded(&data) == campaign_encoded(&memory_only),
            "the kept campaign differs from a memory-only run"
        );
    }

    /// A campaign whose server is down is simulated once, locally, and
    /// counted as one miss: the failed remote run builds nothing.
    #[test]
    fn a_dead_server_costs_one_miss() {
        let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let plain = RunCtx { quiet: true, ..RunCtx::quick(8) };
        let ctx = RunCtx {
            remote: Some(closed.to_string()),
            remote_retries: Some(0),
            ..plain.clone()
        };
        let (city, era) = (City::Manhattan, ProtocolEra::Feb2015);
        let cache = CampaignCache::new();
        let data = cache.campaign(city, era, &ctx);
        let run = cache.registry().snapshot();
        assert_eq!(run.value("cache.remote_runs"), Some(1));
        assert_eq!(run.value("cache.remote_failures"), Some(1));
        assert_eq!(run.value("resilience.breaker_trips"), Some(0));
        assert_eq!(run.value("cache.misses"), Some(1));
        let memory_only = CampaignCache::new().campaign(city, era, &plain);
        assert!(
            campaign_encoded(&data) == campaign_encoded(&memory_only),
            "the local fallback differs from a memory-only run"
        );
    }

    /// A campaign whose checkpoint cannot be written (its temp file's
    /// name is taken by a directory) runs on to its end once, writes its
    /// log and is kept, whether it starts fresh or resumes from a
    /// checkpoint left at tick 1,440: one store failure, one miss, a
    /// metrics entry, and the bytes of a memory-only run, in memory and
    /// replayed from the log.
    #[test]
    fn a_checkpoint_that_cannot_be_written_costs_no_simulation() {
        let (city, era) = (City::Manhattan, ProtocolEra::Feb2015);
        let plain = RunCtx { quiet: true, ..RunCtx::quick(6) };
        let memory_only = campaign_encoded(&CampaignCache::new().campaign(city, era, &plain));
        for (case, resumed) in [("fresh", false), ("resumed", true)] {
            let out = std::env::temp_dir().join(format!(
                "surgescope-cache-checkpoint-failure-{case}-{}",
                std::process::id()
            ));
            let ctx = RunCtx { out_dir: Some(out.clone()), ..plain.clone() };
            let dir = cache_dir(&ctx).expect("an output directory gives a disk cache");
            let cfg = CampaignCache::campaign_config(city, era, &ctx);
            let key = cache_key(&city.model().name, &cfg);
            std::fs::create_dir_all(&dir).unwrap();
            if resumed {
                let cfg = CampaignConfig { store: store_hooks(&dir, key), ..cfg };
                let mut runner = CampaignRunner::new(city.model(), &cfg).unwrap();
                for _ in 0..1_440 {
                    runner.tick().unwrap();
                }
                runner.write_checkpoint().unwrap();
            }
            let mut blocked = checkpoint_path(&dir, key).into_os_string();
            blocked.push(".tmp");
            std::fs::create_dir_all(&blocked).unwrap();

            let cache = CampaignCache::new();
            let data = cache.campaign(city, era, &ctx);
            let replayed = replay_campaign(&log_path(&dir, key));
            let _ = std::fs::remove_dir_all(&out);
            let replayed =
                replayed.unwrap_or_else(|e| panic!("{case}: the log was not written: {e}"));
            let run = cache.registry().snapshot();
            assert_eq!(run.value("cache.store_failures"), Some(1), "{case}");
            assert_eq!(run.value("cache.misses"), Some(1), "{case}");
            assert_eq!(run.value("cache.resumes"), Some(u64::from(resumed)), "{case}");
            assert!(
                cache.metrics_json().contains(&format!("\"campaign-{key:016x}\":")),
                "{case}: no metrics entry for the kept campaign"
            );
            let bytes = [campaign_encoded(&data), campaign_encoded(&replayed)];
            assert!(bytes[0] == memory_only, "{case}: not a memory-only run's bytes");
            assert!(bytes[1] == memory_only, "{case}: the log replays to other bytes");
        }
    }
}
