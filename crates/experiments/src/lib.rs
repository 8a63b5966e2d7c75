//! Experiment harness: one runnable reproduction per table and figure of
//! the paper's evaluation.
//!
//! Every experiment implements the same contract: given a [`RunCtx`]
//! (seed, quick/full fidelity, output directory) it produces an
//! [`Outcome`] — a printable table plus named scalar metrics. The
//! `repro` binary runs experiments by id (`repro fig12`, `repro all`),
//! prints the tables, and drops one CSV per experiment under `results/`.
//!
//! Experiments that share a measurement campaign (most of §4–§6) obtain
//! it from a [`cache::CampaignCache`], so `repro all` runs each
//! multi-hour campaign exactly once per (city, protocol era).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exps;
pub mod schedule;

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

    /// Writes a CSV artifact if an output directory is configured.
    pub fn write_csv(&self, id: &str, header: &str, rows: &[String]) {
        let Some(dir) = &self.out_dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        body.push_str(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{id}.csv")), body);
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

/// All experiment ids in run order (`ext01` is an extension beyond the
/// paper's own evaluation — the §8 smoothing proposal, evaluated).
pub const ALL_IDS: [&str; 26] = [
    "fig02", "fig03", "fig04", "fig05", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "tab01",
    "fig22", "fig23", "fig24", "ext01", "ext02", "fault_sweep",
];

/// Runs one experiment by id against a (shared) campaign cache.
pub fn run_experiment(
    id: &str,
    ctx: &RunCtx,
    cache: &cache::CampaignCache,
) -> Option<Outcome> {
    let out = match id {
        "fig02" => exps::calib::fig02(ctx),
        "fig03" => exps::calib::fig03(ctx),
        "fig04" => exps::validation::fig04(ctx, cache),
        "fig05" => exps::dynamics::fig05(ctx, cache),
        "fig07" => exps::dynamics::fig07(ctx, cache),
        "fig08" => exps::dynamics::fig08(ctx, cache),
        "fig09" => exps::dynamics::fig09(ctx, cache),
        "fig10" => exps::dynamics::fig10(ctx, cache),
        "fig11" => exps::dynamics::fig11(ctx, cache),
        "fig12" => exps::surge::fig12(ctx, cache),
        "fig13" => exps::surge::fig13(ctx, cache),
        "fig14" => exps::surge::fig14(ctx, cache),
        "fig15" => exps::surge::fig15(ctx, cache),
        "fig16" => exps::surge::fig16(ctx, cache),
        "fig17" => exps::surge::fig17(ctx, cache),
        "fig18" => exps::areas_exp::fig18(ctx),
        "fig19" => exps::areas_exp::fig19(ctx),
        "fig20" => exps::algorithm::fig20(ctx, cache),
        "fig21" => exps::algorithm::fig21(ctx, cache),
        "tab01" => exps::algorithm::tab01(ctx, cache),
        "fig22" => exps::algorithm::fig22(ctx, cache),
        "fig23" => exps::avoidance_exp::fig23(ctx, cache),
        "fig24" => exps::avoidance_exp::fig24(ctx, cache),
        "ext01" => exps::extensions::ext01(ctx, cache),
        "ext02" => exps::extensions::ext02(ctx, cache),
        "fault_sweep" => exps::fault_sweep::fault_sweep(ctx, cache),
        _ => return None,
    };
    if let Some(dir) = &ctx.out_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    Some(out)
}
