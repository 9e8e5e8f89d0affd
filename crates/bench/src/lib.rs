//! The experiment harness behind the `reproduce` binary: every table,
//! figure and drill report, each a pure function of the tree.
//!
//! * [`paper`] — the paper's evaluation (§4): tables, figures, ablations.
//! * [`reports`] — what this repository adds: `analyze`, `earlysplit`,
//!   `incr`, `locks`.
//! * [`serve`], [`fabric`], [`chaosnet`], [`watch`], [`recover`] — one
//!   module per drill family, all written with [`kit`].
//! * [`SECTIONS`] — the `reproduce` section table.
//!
//! Nothing here reports a clock reading: what `reproduce` prints repeats
//! byte for byte on one commit (`reproduce_output.txt` is that output,
//! and `ci.sh` diffs against it). Wall time and throughput are measured
//! by `perf/`. See DESIGN.md's experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

pub mod chaosnet;
pub mod fabric;
pub mod kit;
pub mod paper;
pub mod recover;
pub mod reports;
pub mod serve;
pub mod watch;

use paper::SpeedupSummary;

/// How a section produces its report.
#[derive(Clone, Copy)]
pub enum Report {
    /// On its own.
    Alone(fn() -> String),
    /// From the suite speedup measurement (37 modules x 8 processor
    /// counts), which the sections of one run share.
    Speedups(fn(&SpeedupSummary) -> String),
}

/// Every `reproduce` section, in the order `all` prints them.
pub const SECTIONS: [(&str, Report); 22] = [
    ("table1", Report::Alone(paper::table1)),
    ("table2", Report::Alone(paper::table2)),
    ("table3", Report::Speedups(paper::table3)),
    ("fig1", Report::Speedups(paper::fig1)),
    ("fig2", Report::Speedups(paper::fig2)),
    ("fig3", Report::Speedups(paper::fig3)),
    ("fig4", Report::Alone(paper::fig4)),
    ("fig5", Report::Alone(paper::fig5)),
    ("fig7", Report::Alone(paper::fig7)),
    ("overhead", Report::Alone(paper::overhead)),
    ("dky", Report::Alone(paper::dky_strategies)),
    ("headings", Report::Alone(paper::heading_alternatives)),
    ("workcrews", Report::Alone(paper::workcrews)),
    ("earlysplit", Report::Alone(reports::early_split)),
    ("analyze", Report::Alone(reports::analyze)),
    ("locks", Report::Alone(reports::locks)),
    ("incr", Report::Alone(reports::incr)),
    ("serve", Report::Alone(serve::serve)),
    ("fabric", Report::Alone(fabric::fabric)),
    ("chaosnet", Report::Alone(chaosnet::chaosnet)),
    ("watch", Report::Alone(watch::watch)),
    ("recover", Report::Alone(recover::recover)),
];
