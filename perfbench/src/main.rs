//! `perfbench` — surgescope's benchmark. Three seeded workloads
//! (`campaign`, `remote`, `repro`) are timed end to end, or, with
//! `--trace 1`, layer by layer from outside each crate's public functions.
//! Every run checks the outputs it measured. See `README.md` beside this
//! package for the workloads, the metrics and what should move what.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 30 --trace 0
//! ```

mod campaign;
mod remote;
mod report;
mod repro;
mod stats;

use report::Report;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["campaign", "remote", "repro"];

/// The host's cores as the library sees them: the default campaign
/// parallelism, the `repro` program's default `jobs`, and the number of
/// connections on `remote`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload campaign|remote|repro|all --seed N --seconds S --trace 0|1\n\
         \n\
         Runs the workload for about S seconds (at least one round) and prints\n\
         every metric by name with its unit, then one JSON result line. With\n\
         --trace 0 the metrics are the end-to-end ones; with --trace 1 the\n\
         per-layer ones. 'all' runs every workload in turn, each in its own\n\
         process. Exits 1 when a correctness gate fails."
    );
    std::process::exit(2);
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().unwrap_or_else(|| usage());
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
                "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => usage(),
                    }
                }
                _ => usage(),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            usage();
        }
        args
    }
}

/// The sub-seeds of `seed` a round measures, `n` of them; the first is
/// `seed` itself. One seed's inputs can cost 15% more CPU than another's,
/// so a round runs one campaign per sub-seed and every round measures the
/// same mix; from the second round on, each campaign repeats inputs an
/// earlier round ran and must reproduce its bytes.
pub fn sub_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| seed ^ (i << 32))
}

/// The measuring window. The first round always runs; another starts only
/// if, taking as long as the last one, it would end inside the window.
/// The window is `--seconds` long, or twice that while no round has yet
/// run undisturbed by the host (see `report::MAX_STOLEN`), so a run that
/// starts in a burst of steal can wait it out.
pub struct Deadline {
    start: Instant,
    seconds: u64,
    last: Option<Instant>,
}

impl Deadline {
    pub fn new(seconds: u64) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            last: None,
        }
    }

    pub fn another_round(&mut self, quiet_rounds: usize) -> bool {
        let now = Instant::now();
        let window = Duration::from_secs(self.seconds * if quiet_rounds == 0 { 2 } else { 1 });
        let go = match self.last {
            None => true,
            Some(last) => (now - self.start) + (now - last) <= window,
        };
        if go {
            self.last = Some(now);
        }
        go
    }
}

/// The first digest seen per sub-seed; a repeat must reproduce it.
#[derive(Default)]
pub struct SubSeedDigests(Vec<(u64, u64)>);

impl SubSeedDigests {
    /// Checks `digest`, produced from sub-seed `sub` of `seed`, against
    /// the pinned digest (for the seed itself) or an earlier round's.
    pub fn check(
        &mut self,
        rep: &mut Report,
        workload: &str,
        seed: u64,
        sub: u64,
        digest: u64,
        ops: u64,
    ) {
        match self.0.iter().find(|(s, _)| *s == sub) {
            None => {
                if sub == seed {
                    check_pinned(rep, workload, seed, digest, ops);
                }
                self.0.push((sub, digest));
            }
            Some((_, d)) if *d != digest => rep.gate_failed(
                ops,
                format!("{workload} sub-seed {sub:#x}: digest {digest:016x} != an earlier round's {d:016x}"),
            ),
            Some(_) => {}
        }
    }
}

/// Output digests recorded per workload and seed (`digests.txt`).
const PINNED: &str = include_str!("../digests.txt");

/// Prints `digest` and, if `digests.txt` pins one for this workload and
/// seed, fails the gate on a mismatch, counting `ops` operations failed.
pub fn check_pinned(rep: &mut Report, workload: &str, seed: u64, digest: u64, ops: u64) {
    println!("digest {workload} seed={seed} = {digest:016x}");
    let pinned = PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?);
            (w == workload && s == seed)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        });
    match pinned {
        Some(d) if d == digest => println!("digest matches the one pinned in digests.txt"),
        Some(d) => rep.gate_failed(
            ops,
            format!("{workload} seed {seed}: output digest {digest:016x} != pinned {d:016x}"),
        ),
        None => println!(
            "digest not pinned for this seed; repeated inputs are checked against each other"
        ),
    }
}

/// The commit, when the checkout carries git metadata; otherwise a
/// fingerprint of the library sources, which identifies the code as well.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
            return id.trim().to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(d) = dirs.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "none (no git metadata); source fingerprint {:016x}",
        stats::fnv64(&all)
    )
}

/// Runs every workload in turn, each in a child process of its own so
/// peak memory is per workload. Returns whether all passed their gates.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    ok
}

fn main() {
    let args = Args::parse();
    if args.workload == "all" {
        std::process::exit(if run_all(&args) { 0 } else { 1 });
    }
    // The repro workload's cache directory is its own, inside the checkout.
    std::env::remove_var("SURGESCOPE_CACHE_DIR");
    let parallelism =
        surgescope_core::CampaignConfig::paper_default(0, surgescope_api::ProtocolEra::Apr2015, 1)
            .parallelism;
    let nproc = nproc();
    println!(
        "host nproc={nproc} default_parallelism={parallelism} repro_jobs={nproc} workload={} \
         seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host commit={}", commit());
    let mut rep = Report::new(args.trace);
    match args.workload.as_str() {
        "campaign" => campaign::run(&args, &mut rep),
        "remote" => remote::run(&args, &mut rep),
        "repro" => repro::run(&args, &mut rep),
        _ => unreachable!("workload checked by Args::parse"),
    }
    rep.e2e(
        "peak_rss_mb",
        report::peak_rss_mb(),
        "VmHWM of this process",
    );
    if !rep.finish() {
        std::process::exit(1);
    }
}
