//! Cross-campaign parallel scheduler.
//!
//! `repro all` spends nearly all of its time simulating measurement
//! campaigns, and most experiments share them. Serially, the first
//! experiment to need a campaign pays for it while every core but one
//! idles. The scheduler inverts that: a planning pass asks each requested
//! experiment which campaign configs it will read ([`needs`]), dedupes
//! them by the cache's own semantic key, orders the distinct tasks
//! longest-job-first (cost = `hours × 720 × scale` estimated ticks, with
//! a stable cache-key tiebreak), and drains them over an atomic work
//! index on a bounded worker pool feeding the shared [`CampaignCache`].
//! The previous LIFO pop-queue could schedule the single longest
//! campaign *last*, serializing the tail behind one worker; starting it
//! first bounds the makespan at `max(longest task, total/jobs)`-ish.
//! The experiments then run in their usual order and find every campaign
//! already cached.
//!
//! What an experiment reads is declared once, in its entry of the
//! crate's experiment table, usually as one of the shared declarations
//! here (`none`, `taxi`, `apr`, `both_apr`, `both_eras`);
//! `ext01`, `ext02` and `fault_sweep` declare theirs beside the configs
//! they build. Adding an experiment is one table entry plus its function.
//!
//! Correctness is inherited, not re-proved: each campaign is a pure
//! function of its config simulated serially *within one worker*, and the
//! experiments themselves still run serially. So the CSVs are
//! byte-identical at any `--jobs` value — only the wall clock changes.

use crate::cache::{self, CampaignCache, City};
use crate::RunCtx;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use surgescope_api::ProtocolEra;
use surgescope_core::CampaignConfig;
use surgescope_obs::Timer;

/// Panicking attempts a prefetch task gets before it is quarantined.
const QUARANTINE_ATTEMPTS: usize = 2;

/// One unit of prefetch work.
pub enum Prefetch {
    /// A measurement campaign over a city.
    Campaign(City, CampaignConfig),
    /// The §3.5 taxi validation replay.
    Taxi,
}

/// The campaigns experiment `id` will read: its table entry's
/// declaration, or nothing for an unknown id. Over-declaring wastes work
/// and under-declaring only costs parallelism (the experiment falls back
/// to building the campaign inline), so each declaration is kept exact:
/// it names precisely the configs the experiment's own code requests.
pub fn needs(id: &str, ctx: &RunCtx) -> Vec<Prefetch> {
    crate::experiment(id).map_or_else(Vec::new, |(_, needs, _)| needs(ctx))
}

/// Declares no campaign: the experiment is pure geometry (fig02, fig03)
/// or runs its own simulation inline, not cache-shaped (fig18, fig19).
pub(crate) fn none(_: &RunCtx) -> Vec<Prefetch> {
    Vec::new()
}

/// Declares the §3.5 taxi validation replay.
pub(crate) fn taxi(_: &RunCtx) -> Vec<Prefetch> {
    vec![Prefetch::Taxi]
}

/// Declares `city`'s standard Apr-era campaign.
pub(crate) fn apr(city: City, ctx: &RunCtx) -> Vec<Prefetch> {
    vec![standard(city, ProtocolEra::Apr2015, ctx)]
}

/// Declares both cities' standard Apr-era campaigns.
pub(crate) fn both_apr(ctx: &RunCtx) -> Vec<Prefetch> {
    City::BOTH.map(|city| standard(city, ProtocolEra::Apr2015, ctx)).into()
}

/// Declares both cities' standard campaigns in both eras, Feb first.
pub(crate) fn both_eras(ctx: &RunCtx) -> Vec<Prefetch> {
    [ProtocolEra::Feb2015, ProtocolEra::Apr2015]
        .into_iter()
        .flat_map(|era| City::BOTH.map(|city| standard(city, era, ctx)))
        .collect()
}

/// The standard campaign for (city, era), as [`CampaignCache::campaign`]
/// builds it.
fn standard(city: City, era: ProtocolEra, ctx: &RunCtx) -> Prefetch {
    Prefetch::Campaign(city, CampaignCache::campaign_config(city, era, ctx))
}

/// Runs `f` with panic isolation: up to `attempts` tries, each unwind
/// caught (the default panic hook still prints the message and
/// backtrace). Returns whether any attempt completed. The cache the
/// closures touch recovers from lock poisoning ([`cache`] uses
/// poison-tolerant locks), so a caught panic leaves it usable.
pub(crate) fn run_quarantined(attempts: usize, f: impl Fn()) -> bool {
    for _ in 0..attempts.max(1) {
        if catch_unwind(AssertUnwindSafe(&f)).is_ok() {
            return true;
        }
    }
    false
}

fn run_task(t: &Prefetch, ctx: &RunCtx, cache: &CampaignCache) {
    match t {
        Prefetch::Taxi => {
            cache.taxi(ctx);
        }
        Prefetch::Campaign(city, cfg) => {
            cache.campaign_custom(*city, cfg.clone(), ctx);
        }
    }
}

/// Estimated cost of a task, in simulated ticks: `hours × 720 × scale`.
/// The estimate only has to *order* the tasks — campaign wall time is
/// almost exactly proportional to tick count, and the taxi replay runs
/// one simulated day per `days` at full scale.
fn cost_ticks(t: &Prefetch, ctx: &RunCtx) -> f64 {
    match t {
        Prefetch::Taxi => {
            let days = if ctx.quick { 1.0 } else { 3.0 };
            days * 24.0 * 720.0
        }
        Prefetch::Campaign(_, cfg) => cfg.hours as f64 * 720.0 * cfg.scale,
    }
}

/// Stable tiebreak for equal-cost tasks: the cache's own semantic key
/// (the taxi replay sorts before any campaign).
fn tie_key(t: &Prefetch) -> u64 {
    match t {
        Prefetch::Taxi => 0,
        Prefetch::Campaign(city, cfg) => cache::cache_key(&city.model().name, &cfg),
    }
}

fn describe(t: &Prefetch) -> String {
    match t {
        Prefetch::Taxi => "taxi validation replay".to_string(),
        Prefetch::Campaign(city, cfg) => {
            format!("{} campaign ({} h, {:?} era, scale {})", city.label(), cfg.hours, cfg.era, cfg.scale)
        }
    }
}

/// Plans and runs the prefetch for `ids`: dedupes every declared campaign
/// by the cache's semantic key, orders the distinct tasks longest-first
/// (cost = `hours × 720 × scale` ticks, stable tiebreak on cache key),
/// and drains them over an atomic work index on `jobs` worker threads,
/// filling `cache`. Longest-first keeps one long campaign from
/// serializing the tail: it starts immediately instead of being popped
/// last while the short jobs finish. Task *start order* is the sorted
/// order at any `jobs` value — workers claim the next unstarted index —
/// so the plan logged under `[schedule]` is deterministic. Returns the
/// number of distinct prefetch tasks. The caller's thread is worker 0,
/// so with one job the tasks run serially on it in the same order — same
/// work, same cache contents, no thread spawned.
pub fn prefetch(ids: &[String], ctx: &RunCtx, cache: &CampaignCache, jobs: usize) -> usize {
    let mut seen = HashSet::new();
    let mut want_taxi = false;
    let mut tasks: Vec<Prefetch> = Vec::new();
    for id in ids {
        for need in needs(id, ctx) {
            match need {
                Prefetch::Taxi => {
                    if !want_taxi {
                        want_taxi = true;
                        tasks.push(Prefetch::Taxi);
                    }
                }
                Prefetch::Campaign(city, cfg) => {
                    if seen.insert(cache::cache_key(&city.model().name, &cfg)) {
                        tasks.push(Prefetch::Campaign(city, cfg));
                    }
                }
            }
        }
    }
    let n = tasks.len();
    order_longest_first(&mut tasks, ctx);
    let jobs = jobs.max(1).min(n.max(1));
    // Plan telemetry into the run registry. The drain order (and hence
    // `schedule.order.<i>` = the task's semantic key) is the sorted order
    // at *any* `jobs` value, so these gauges sit in the deterministic
    // section; per-worker busy time is wall clock and lands in the
    // timing section, where worker count may legitimately vary.
    let reg = cache.registry();
    reg.gauge("schedule.tasks").set(n as u64);
    for (i, t) in tasks.iter().enumerate() {
        reg.gauge(&format!("schedule.order.{i:02}")).set(tie_key(t));
    }
    if !ctx.quiet && n > 0 {
        eprintln!("[schedule] prefetching {n} distinct campaigns on {jobs} workers, longest first:");
        for (i, t) in tasks.iter().enumerate() {
            eprintln!("[schedule]   {:>2}. {} (~{} ticks)", i + 1, describe(t), cost_ticks(t, ctx) as u64);
        }
    }
    // Panic isolation: a task that panics (a poisoned experiment config,
    // a bug in one campaign's path) is retried once and then
    // quarantined with an explicit report — the worker moves on and
    // every other campaign still completes. Quarantine count is a pure
    // function of the inputs (0 in healthy runs), so the counter lives
    // in the deterministic section.
    let quarantined = reg.counter("resilience.quarantined");
    let run_isolated = |t: &Prefetch| {
        if !run_quarantined(QUARANTINE_ATTEMPTS, || run_task(t, ctx, cache)) {
            quarantined.incr();
            eprintln!(
                "[schedule] quarantined {} after {QUARANTINE_ATTEMPTS} panicking attempts; \
                 dependent experiments will rebuild it inline or fail individually",
                describe(t)
            );
        }
    };
    let busy: Vec<Timer> = (0..jobs)
        .map(|w| reg.timer(&format!("schedule.worker{w:02}.busy")))
        .collect();
    let next = AtomicUsize::new(0);
    let drain = |timer: &Timer| {
        let _span = timer.start();
        while let Some(t) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
            run_isolated(t);
        }
    };
    // The caller is worker 0; `jobs - 1` scoped threads claim from the
    // same index, so `--jobs 1` spawns no thread.
    std::thread::scope(|s| {
        for timer in &busy[1..] {
            s.spawn(|| drain(timer));
        }
        drain(&busy[0]);
    });
    n
}

/// Sorts tasks by descending estimated cost, breaking ties by cache key.
pub fn order_longest_first(tasks: &mut [Prefetch], ctx: &RunCtx) {
    tasks.sort_by(|a, b| {
        cost_ticks(b, ctx)
            .partial_cmp(&cost_ticks(a, ctx))
            .expect("task costs are finite")
            .then_with(|| tie_key(a).cmp(&tie_key(b)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn quarantine_gives_up_after_the_attempt_budget() {
        let tries = AtomicUsize::new(0);
        let ok = run_quarantined(2, || {
            tries.fetch_add(1, Ordering::Relaxed);
            panic!("always broken");
        });
        assert!(!ok, "a task that always panics must be quarantined");
        assert_eq!(tries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_flaky_task_that_recovers_is_not_quarantined() {
        let tries = AtomicUsize::new(0);
        let ok = run_quarantined(2, || {
            if tries.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first attempt dies");
            }
        });
        assert!(ok, "the second attempt succeeded");
        assert_eq!(tries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_clean_task_runs_exactly_once() {
        let tries = AtomicUsize::new(0);
        assert!(run_quarantined(3, || {
            tries.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(tries.load(Ordering::Relaxed), 1);
    }
}
