//! Experiment harness: one runnable reproduction per table and figure of
//! the paper's evaluation.
//!
//! One table, `EXPERIMENTS`, is the only place that names an experiment.
//! Each entry holds the experiment's id, the campaigns it reads (what
//! [`schedule::needs`] returns for it) and the function that computes it.
//! The function takes a [`RunCtx`] (seed, quick/full fidelity, output
//! directory) and the shared campaign cache, and returns a [`Report`]: a
//! title, a [`TextTable`], the text `repro` prints and named scalar
//! metrics. [`run_experiment`] writes the table as `<id>.csv` and builds
//! the [`Outcome`], so no experiment writes a file or spells its own id.
//! Adding an experiment is one table entry plus its function. The `repro`
//! binary runs experiments by id (`repro fig12`, `repro all`), prints
//! them, and drops one CSV per experiment under `results/`.
//!
//! Experiments that share a measurement campaign (most of §4–§6) obtain
//! it from a [`cache::CampaignCache`], so `repro all` runs each
//! multi-hour campaign exactly once per (city, protocol era).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exps;
pub mod schedule;

use cache::CampaignCache;
use cache::City::{Manhattan, SanFrancisco};
use exps::areas_exp::run_area_inference;
use exps::dynamics::heatmap;
use exps::{algorithm, avoidance_exp, calib, dynamics, extensions, fault_sweep, surge, validation};
use schedule::{apr, both_apr, both_eras, none, taxi, Prefetch};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Shared run context.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Root seed for every campaign in the run.
    pub seed: u64,
    /// Quick mode: shorter horizons and a scaled-down city. The shapes
    /// survive; the confidence intervals widen.
    pub quick: bool,
    /// Directory for CSV output (created on demand); `None` disables CSV.
    pub out_dir: Option<PathBuf>,
    /// Suppress progress chatter (`[schedule]`/`[cache]` lines) on
    /// stderr. Warnings and errors still print.
    pub quiet: bool,
    /// Measure campaigns over the wire against a `surgescope-serve`
    /// endpoint at this address instead of in-process. Byte-identical
    /// results (the serving layer's lockstep determinism contract), so
    /// experiments neither know nor care; the disk cache is bypassed
    /// because remote campaigns cannot be checkpointed.
    pub remote: Option<String>,
    /// Remote wire retry budget per operation (`--remote-retries`);
    /// `None` uses the client default. 0 means the first wire failure
    /// trips the circuit breaker and the campaign falls back to local
    /// execution (counted in `resilience.breaker_trips`, never silent).
    pub remote_retries: Option<u32>,
    /// Remote per-operation socket deadline in seconds
    /// (`--remote-op-timeout`); `None` uses the client default. Bounds
    /// how long a hung server can stall any single wire operation.
    pub remote_op_timeout: Option<u64>,
}

impl RunCtx {
    /// Full-fidelity context (72-hour campaigns, full city scale).
    pub fn full(seed: u64) -> Self {
        RunCtx {
            seed,
            quick: false,
            out_dir: Some(PathBuf::from("results")),
            quiet: false,
            remote: None,
            remote_retries: None,
            remote_op_timeout: None,
        }
    }

    /// Quick context for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        RunCtx {
            seed,
            quick: true,
            out_dir: None,
            quiet: false,
            remote: None,
            remote_retries: None,
            remote_op_timeout: None,
        }
    }

    /// Campaign length in hours.
    pub fn hours(&self) -> u64 {
        if self.quick {
            8
        } else {
            72
        }
    }

    /// City scale factor.
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.4
        } else {
            1.0
        }
    }

    /// Writes `table` as `<id>.csv` if an output directory is configured.
    pub fn write_csv(&self, id: &str, table: &TextTable) {
        let Some(dir) = &self.out_dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let (mut body, rows) = table.csv_rows();
        body.push('\n');
        for r in rows {
            body.push_str(&r);
            body.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{id}.csv")), body);
    }
}

/// What one experiment computed. [`run_experiment`] writes `table` as the
/// experiment's CSV and prints `body` under `title`.
#[derive(Debug)]
pub struct Report {
    /// Human-readable title.
    pub title: &'static str,
    /// The table that becomes `<id>.csv`.
    pub table: TextTable,
    /// The printed reproduction: the rendered table, plus any notes.
    pub body: String,
    /// Named scalar metrics (used by tests and EXPERIMENTS.md).
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// A report whose printed body is the rendered table.
    pub fn new(title: &'static str, table: TextTable, metrics: Vec<(String, f64)>) -> Self {
        let body = table.render();
        Report { title, table, body, metrics }
    }
}

/// The result of one experiment.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Experiment id ("fig12", "tab01", …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The printable reproduction (rows/series as the paper reports).
    pub table: String,
    /// Named scalar metrics (used by tests and EXPERIMENTS.md).
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the outcome for the terminal.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "==== {} — {} ====", self.id, self.title);
        s.push_str(&self.table);
        if !self.metrics.is_empty() {
            let _ = writeln!(s, "-- metrics --");
            for (k, v) in &self.metrics {
                let _ = writeln!(s, "{k} = {v:.4}");
            }
        }
        s
    }
}

/// Simple fixed-width table builder for terminal output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for i in 0..cols {
                let _ = write!(out, "{:<w$}  ", cells[i], w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Rows as CSV strings.
    pub fn csv_rows(&self) -> (String, Vec<String>) {
        (
            self.header.join(","),
            self.rows.iter().map(|r| r.join(",")).collect(),
        )
    }
}

/// One experiment: its id, the campaigns it reads and the function that
/// computes it.
type Experiment =
    (&'static str, fn(&RunCtx) -> Vec<Prefetch>, fn(&RunCtx, &CampaignCache) -> Report);

/// Every experiment, in run order (`ext01`, `ext02` and `fault_sweep` go
/// beyond the paper's own evaluation: the §8 smoothing proposal, surge
/// persistence, and the pipeline under transport faults).
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 26] = [
    ("fig02", none, |ctx, _| calib::fig02(ctx)),
    ("fig03", none, |_, _| calib::fig03()),
    ("fig04", taxi, validation::fig04),
    ("fig05", both_apr, dynamics::fig05),
    ("fig07", both_apr, dynamics::fig07),
    ("fig08", both_apr, dynamics::fig08),
    ("fig09", |ctx| apr(Manhattan, ctx), |ctx, cache| heatmap(ctx, Manhattan, cache)),
    ("fig10", |ctx| apr(SanFrancisco, ctx), |ctx, cache| heatmap(ctx, SanFrancisco, cache)),
    ("fig11", both_apr, dynamics::fig11),
    ("fig12", both_apr, surge::fig12),
    ("fig13", both_eras, surge::fig13),
    ("fig14", |ctx| apr(SanFrancisco, ctx), surge::fig14),
    ("fig15", both_eras, surge::fig15),
    ("fig16", both_apr, surge::fig16),
    ("fig17", both_apr, surge::fig17),
    ("fig18", none, |ctx, _| run_area_inference(ctx, Manhattan)),
    ("fig19", none, |ctx, _| run_area_inference(ctx, SanFrancisco)),
    ("fig20", both_apr, algorithm::fig20),
    ("fig21", both_apr, algorithm::fig21),
    ("tab01", both_apr, algorithm::tab01),
    ("fig22", both_apr, algorithm::fig22),
    ("fig23", both_apr, avoidance_exp::fig23),
    ("fig24", both_apr, avoidance_exp::fig24),
    ("ext01", extensions::ext01_needs, extensions::ext01),
    ("ext02", extensions::ext02_needs, extensions::ext02),
    ("fault_sweep", fault_sweep::needs, fault_sweep::fault_sweep),
];

/// All experiment ids in run order.
pub const ALL_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// The table entry of experiment `id`.
pub(crate) fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.0 == id)
}

/// Runs one experiment by id against a (shared) campaign cache, writes
/// its table as `<id>.csv` and returns its outcome; `None` for an
/// unknown id.
pub fn run_experiment(id: &str, ctx: &RunCtx, cache: &CampaignCache) -> Option<Outcome> {
    let &(id, _, run) = experiment(id)?;
    let Report { title, table, body, metrics } = run(ctx, cache);
    ctx.write_csv(id, &table);
    Some(Outcome { id, title, table: body, metrics })
}
