//! The paper's evaluation (§4): Tables 1–3, Figures 1–5 and 7, and the
//! text experiments (concurrency overhead, DKY strategies, heading
//! alternatives, Supervisors vs WorkCrews).
//!
//! All speedup experiments run on the virtual-time simulator
//! ([`ccm2_sched::sim`]) with the calibrated Firefly cost model — the
//! evaluation host has one CPU, so wall-clock speedup is unobservable;
//! the simulator executes the real compiler tasks and charges their real
//! work (see DESIGN.md's substitution table).

use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
use ccm2_sched::{render_watchtool, SimConfig};
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::stats::LookupStats;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::work::{CountingMeter, Work};
use ccm2_support::Interner;
use ccm2_workload::{generate_suite, suite_stats, synth_module, GeneratedModule, SynthParams};

/// Processor counts swept by the paper (Figures 1–3, Table 3).
pub const PROCS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Compiles one module on the simulator with `procs` processors.
pub fn sim_compile(m: &GeneratedModule, procs: u32, options_base: Options) -> ConcurrentOutput {
    let mut options = options_base;
    options.executor = Executor::Sim(SimConfig::firefly(procs));
    let out = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        options,
    );
    assert!(
        out.is_ok(),
        "{} failed to compile: {:?}",
        m.name,
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    out
}

/// Compiles one source string on the simulator.
pub fn sim_compile_src(source: &str, procs: u32) -> ConcurrentOutput {
    let out = compile_concurrent(
        source,
        Arc::new(DefLibrary::new()),
        Arc::new(Interner::new()),
        Options {
            executor: Executor::Sim(SimConfig::firefly(procs)),
            ..Options::default()
        },
    );
    assert!(
        out.is_ok(),
        "{:?}",
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    out
}

/// The *sequential* compiler's virtual time for a module: its real work
/// units weighted by the same cost model (no scheduling overheads — that
/// difference is exactly the §4.2 "concurrency overhead" experiment).
pub fn seq_virtual_time(m: &GeneratedModule) -> u64 {
    let meter = Arc::new(CountingMeter::new());
    let out = ccm2_seq::compile_with(
        &m.source,
        &m.defs,
        Arc::new(Interner::new()),
        Arc::clone(&meter) as Arc<dyn ccm2_support::WorkMeter>,
        HeadingMode::CopyToChild,
    );
    assert!(
        out.is_ok(),
        "{}: {:?}",
        m.name,
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    let cost = SimConfig::firefly(1).cost;
    Work::ALL
        .iter()
        .map(|&w| (meter.units(w) as f64 * cost[w as usize]).ceil() as u64)
        .sum()
}

/// Calibration constant mapping virtual units to the paper's "seconds":
/// chosen so the largest suite program lands near the paper's largest
/// sequential compile time (107.85 s).
pub fn units_per_second(suite_t1_max: u64) -> f64 {
    suite_t1_max as f64 / 107.85
}

/// One module's virtual compile times across processor counts.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Module name.
    pub name: String,
    /// `t[p-1]` = virtual time on `p` processors.
    pub t: Vec<u64>,
}

impl SpeedupRow {
    /// Self-relative speedup on `p` processors.
    pub fn speedup(&self, p: u32) -> f64 {
        self.t[0] as f64 / self.t[p as usize - 1] as f64
    }
}

/// Measures the whole suite across all processor counts (the bulk of the
/// evaluation; a few minutes of real time).
pub fn measure_suite(procs: &[u32]) -> Vec<SpeedupRow> {
    let suite = generate_suite();
    suite
        .iter()
        .map(|m| SpeedupRow {
            name: m.name.clone(),
            t: procs
                .iter()
                .map(|&p| {
                    sim_compile(m, p, Options::default())
                        .report
                        .virtual_time
                        .expect("sim time")
                })
                .collect(),
        })
        .collect()
}

/// Measures `Synth.mod` across processor counts.
pub fn measure_synth(procs: &[u32]) -> SpeedupRow {
    let src = synth_module(SynthParams::default());
    SpeedupRow {
        name: "Synth".to_string(),
        t: procs
            .iter()
            .map(|&p| {
                sim_compile_src(&src, p)
                    .report
                    .virtual_time
                    .expect("sim time")
            })
            .collect(),
    }
}

/// The paper's quartile sizes (0–5 s: 10 programs, 5–10 s: 8, 10–30 s:
/// 10, 30–109 s: 9). We split the suite by 1-processor-time rank into the
/// same group sizes.
pub const QUARTILE_SIZES: [usize; 4] = [10, 8, 10, 9];

/// Partitions suite rows (sorted by 1-processor time) into the paper's
/// quartile groups; returns per-quartile index lists.
pub fn quartiles(rows: &[SpeedupRow]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| rows[i].t[0]);
    let mut out = Vec::new();
    let mut at = 0;
    for &sz in &QUARTILE_SIZES {
        let take = sz.min(order.len().saturating_sub(at));
        out.push(order[at..at + take].to_vec());
        at += take;
    }
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Regenerates Table 1: gross characteristics of the test suite.
pub fn table1() -> String {
    let suite = generate_suite();
    let stats = suite_stats(&suite);
    let mut times: Vec<u64> = suite.iter().map(seq_virtual_time).collect();
    times.sort_unstable();
    let ups = units_per_second(*times.last().expect("nonempty"));
    let sec = |u: u64| u as f64 / ups;
    let mut out = String::new();
    out.push_str("Table 1: Description of Test Suite (regenerated)\n");
    out.push_str("Attribute                 |  Minimum |   Median |  Maximum\n");
    out.push_str("--------------------------+----------+----------+---------\n");
    out.push_str(&format!(
        "Module size (bytes)       | {:>8} | {:>8} | {:>8}\n",
        stats.size.0, stats.size.1, stats.size.2
    ));
    out.push_str(&format!(
        "Seq. Compile Time (sec)   | {:>8.2} | {:>8.2} | {:>8.2}\n",
        sec(times[0]),
        sec(times[times.len() / 2]),
        sec(times[times.len() - 1])
    ));
    out.push_str(&format!(
        "Imported Interfaces       | {:>8} | {:>8} | {:>8}\n",
        stats.interfaces.0, stats.interfaces.1, stats.interfaces.2
    ));
    out.push_str(&format!(
        "Import Nesting Depth      | {:>8} | {:>8} | {:>8}\n",
        stats.depth.0, stats.depth.1, stats.depth.2
    ));
    out.push_str(&format!(
        "Number of Procedures      | {:>8} | {:>8} | {:>8}\n",
        stats.procedures.0, stats.procedures.1, stats.procedures.2
    ));
    out.push_str(&format!(
        "Number of Streams         | {:>8} | {:>8} | {:>8}\n",
        stats.streams.0, stats.streams.1, stats.streams.2
    ));
    out.push_str(
        "(paper: sizes 2,371/13,180/336,312; time 2.30/10.27/107.85 s; \
         interfaces 4/17/133; depth 1/5/12; procedures 2/16/221; streams 15/37/315)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Regenerates Table 2: identifier-lookup statistics for one compilation
/// of the whole test suite under Skeptical handling (8 processors).
pub fn table2() -> String {
    let suite = generate_suite();
    let total = LookupStats::new();
    for m in &suite {
        let out = sim_compile(m, 8, Options::default());
        total.merge(&out.stats);
    }
    let mut out = String::new();
    out.push_str("Table 2: Identifier Lookup Statistics (regenerated, Skeptical, 8 procs)\n\n");
    out.push_str("Simple identifiers:\n");
    out.push_str("Found when  scope   completeness |   number |     %\n");
    out.push_str("---------------------------------+----------+------\n");
    for (label, n, pct) in total.simple_rows() {
        out.push_str(&format!("{label:<33}| {n:>8} | {pct:>5.2}\n"));
    }
    out.push_str(&format!(
        "total simple lookups: {}\n\n",
        total.simple_total()
    ));
    out.push_str("Qualified identifiers:\n");
    out.push_str("Found when  completeness |   number |     %\n");
    out.push_str("-------------------------+----------+------\n");
    for (label, n, pct) in total.qualified_rows() {
        out.push_str(&format!("{label:<25}| {n:>8} | {pct:>5.2}\n"));
    }
    out.push_str(&format!(
        "total qualified lookups: {}\nDKY blockages: {}\n",
        total.qualified_total(),
        total.dky_blockages()
    ));
    out.push_str(
        "(paper: simple first-try-self 57.87%, builtin 15.14%, outer-search 17.73%, \
         after-DKY 0.08%; qualified first-try-complete 93.30%, after-DKY 2.70%)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Table 3 / Figures 1–3
// ---------------------------------------------------------------------

/// The measured speedup summary backing Table 3 and Figures 1–3.
#[derive(Clone, Debug)]
pub struct SpeedupSummary {
    /// Per-module rows.
    pub rows: Vec<SpeedupRow>,
    /// `Synth.mod` row.
    pub synth: SpeedupRow,
    /// Index of the best human module ("VM" in the paper).
    pub best: usize,
    /// Quartile membership (indices into `rows`).
    pub quartiles: Vec<Vec<usize>>,
}

/// Measures everything Table 3 needs.
pub fn measure_all() -> SpeedupSummary {
    let rows = measure_suite(&PROCS);
    let synth = measure_synth(&PROCS);
    let best = (0..rows.len())
        .max_by(|&a, &b| {
            rows[a]
                .speedup(8)
                .partial_cmp(&rows[b].speedup(8))
                .expect("comparable")
        })
        .expect("nonempty suite");
    let quartiles = quartiles(&rows);
    SpeedupSummary {
        synth,
        best,
        quartiles,
        rows,
    }
}

/// Formats Table 3 from a measurement.
pub fn table3(s: &SpeedupSummary) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Summary of Speedup Data (regenerated, self-relative)\n");
    out.push_str("  N |      Test Suite      | BestCase      |        Quartiles\n");
    out.push_str("    |  Min   Mean    Max   | Synth   Best  |   Q1    Q2    Q3    Q4\n");
    out.push_str("----+----------------------+---------------+------------------------\n");
    for &p in &PROCS[1..] {
        let speedups: Vec<f64> = s.rows.iter().map(|r| r.speedup(p)).collect();
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        let mn = mean(speedups.iter().cloned());
        let q: Vec<f64> = s
            .quartiles
            .iter()
            .map(|ix| mean(ix.iter().map(|&i| s.rows[i].speedup(p))))
            .collect();
        out.push_str(&format!(
            "  {p} | {min:>5.2} {mn:>6.2} {max:>6.2} | {:>5.2} {:>6.2}  | {:>5.2} {:>5.2} {:>5.2} {:>5.2}\n",
            s.synth.speedup(p),
            s.rows[s.best].speedup(p),
            q[0],
            q[1],
            q[2],
            q[3],
        ));
    }
    out.push_str(
        "(paper at N=8: min 1.95, mean 4.34, max 5.47; Synth 6.67, VM 5.32; \
         Q1 2.43, Q2 2.89, Q3 4.19, Q4 5.02)\n",
    );
    out
}

/// Figure 1: test-suite self-relative speedup (min/mean/max curves).
pub fn fig1(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 1: Test Suite Self Relative Speedup\n");
    out.push_str(&ascii_curves(
        &PROCS,
        &[
            (
                "mean",
                PROCS
                    .iter()
                    .map(|&p| mean(s.rows.iter().map(|r| r.speedup(p))))
                    .collect(),
            ),
            (
                "min",
                PROCS
                    .iter()
                    .map(|&p| s.rows.iter().map(|r| r.speedup(p)).fold(f64::MAX, f64::min))
                    .collect(),
            ),
            (
                "max",
                PROCS
                    .iter()
                    .map(|&p| s.rows.iter().map(|r| r.speedup(p)).fold(0.0, f64::max))
                    .collect(),
            ),
        ],
    ));
    out
}

/// Figure 2: best-case speedup (Synth, best module, linear reference).
pub fn fig2(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 2: Best Case Self Relative Speedup\n");
    out.push_str(&ascii_curves(
        &PROCS,
        &[
            ("linear", PROCS.iter().map(|&p| p as f64).collect()),
            ("Synth", PROCS.iter().map(|&p| s.synth.speedup(p)).collect()),
            (
                "best module",
                PROCS.iter().map(|&p| s.rows[s.best].speedup(p)).collect(),
            ),
        ],
    ));
    out
}

/// Figure 3: speedup by compile-time quartiles.
pub fn fig3(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 3: Speedup by Quartiles\n");
    let curves: Vec<(String, Vec<f64>)> = s
        .quartiles
        .iter()
        .enumerate()
        .map(|(qi, ix)| {
            (
                format!("Q{}", qi + 1),
                PROCS
                    .iter()
                    .map(|&p| mean(ix.iter().map(|&i| s.rows[i].speedup(p))))
                    .collect(),
            )
        })
        .collect();
    let refs: Vec<(&str, Vec<f64>)> = curves
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    out.push_str(&ascii_curves(&PROCS, &refs));
    out
}

/// Renders small ASCII speedup-vs-processors curves.
fn ascii_curves(procs: &[u32], curves: &[(&str, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str("  N |");
    for (name, _) in curves {
        out.push_str(&format!(" {name:>11} |"));
    }
    out.push('\n');
    for (ix, &p) in procs.iter().enumerate() {
        out.push_str(&format!("  {p} |"));
        for (_, v) in curves {
            out.push_str(&format!(" {:>11.2} |", v[ix]));
        }
        out.push('\n');
    }
    let max = curves
        .iter()
        .flat_map(|(_, v)| v.iter().cloned())
        .fold(1.0, f64::max);
    for (name, v) in curves {
        out.push_str(&format!("{name:>14}: "));
        for val in v {
            let h = ((val / max) * 40.0).round() as usize;
            out.push_str(&format!("{}|", "=".repeat(h)));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figures 4, 5, 7
// ---------------------------------------------------------------------

/// Figure 4: WatchTool snapshots — one compilation per quartile plus
/// `Synth.mod`, on 8 simulated processors.
pub fn fig4() -> String {
    let suite = generate_suite();
    let mut rows: Vec<(usize, u64)> = suite
        .iter()
        .enumerate()
        .map(|(i, m)| (i, seq_virtual_time(m)))
        .collect();
    rows.sort_by_key(|&(_, t)| t);
    let picks = [
        rows[rows.len() / 8].0,
        rows[rows.len() * 3 / 8].0,
        rows[rows.len() * 5 / 8].0,
        rows[rows.len() * 7 / 8].0,
    ];
    let mut out = String::from(
        "Figure 4: WatchTool snapshots (8 processors; one program per quartile, then Synth)\n\n",
    );
    for (qi, &i) in picks.iter().enumerate() {
        let m = &suite[i];
        let run = sim_compile(m, 8, Options::default());
        out.push_str(&format!(
            "-- Q{} ({}; {} streams, vtime {}):\n{}\n",
            qi + 1,
            m.name,
            run.streams,
            run.report.virtual_time.expect("sim"),
            render_watchtool(&run.report.trace, 8, 100)
        ));
    }
    let synth = synth_module(SynthParams::default());
    let run = sim_compile_src(&synth, 8);
    out.push_str(&format!(
        "-- Synth.mod (vtime {}):\n{}\n",
        run.report.virtual_time.expect("sim"),
        render_watchtool(&run.report.trace, 8, 100)
    ));
    out
}

/// Figure 5: the task structure per stream kind (structural; printed from
/// the implementation rather than measured).
pub fn fig5() -> String {
    "Figure 5: Compiler Task Structure (as implemented)\n\
     \n\
     definition-module stream   implementation stream      procedure stream\n\
     ------------------------   ---------------------      ----------------\n\
     Lexor(def)                 Lexor(main)                (tokens from Splitter)\n\
     Importer(def)              Importer(main)\n\
     Parser/DeclAnalyzer(def)   Splitter ----------------> [stream created,\n\
                                Parser/DeclAnalyzer(main)   gated on heading event]\n\
                                StmtAnalyzer/CodeGen(body) Parser/DeclAnalyzer(proc)\n\
                                                           StmtAnalyzer/CodeGen(proc)\n\
     \n\
     All streams feed the Merge step (concatenation of per-procedure code\n\
     units, any order). 2-5 tasks per stream, as in the paper.\n\
     Priority order (2.3.4, extended): Lexor > Splitter > CacheSplice >\n\
     Importer > DefModParse > ModuleParse > ProcParse > Analyze >\n\
     LongCodeGen > ShortCodeGen > Merge. CacheSplice (warm incremental\n\
     runs) outranks everything that follows the split so cached units\n\
     land before live parsing competes for workers; Analyze slots between\n\
     parsing and code generation.\n"
        .to_string()
}

/// Figure 7: the activity view of one typical large compilation.
pub fn fig7() -> String {
    let suite = generate_suite();
    let m = &suite[30];
    let run = sim_compile(m, 8, Options::default());
    format!(
        "Figure 7: Concurrent Compiler Processor Activity ({}, 8 processors)\n\
         {}\nutilization: {:.2}  tasks: {}  vtime: {}\n\
         (expected shape: lexing early; def-module and main parses in the\n\
         middle; a lull while DKYs and procedure headings resolve; then\n\
         dense statement-analysis/code-generation to the end)\n",
        m.name,
        render_watchtool(&run.report.trace, 8, 110),
        run.report.trace.utilization(8),
        run.report.tasks_run,
        run.report.virtual_time.expect("sim"),
    )
}

// ---------------------------------------------------------------------
// Text experiments: overhead, DKY strategies, heading alternatives
// ---------------------------------------------------------------------

/// §4.2: concurrent compiler on one processor vs the sequential compiler
/// (paper: 4.3% slower).
pub fn overhead() -> String {
    let suite = generate_suite();
    let mut ratios = Vec::new();
    let mut out = String::from("Concurrency overhead: sim(1 processor) vs sequential compiler\n");
    for m in &suite {
        let seq = seq_virtual_time(m);
        let conc = sim_compile(m, 1, Options::default())
            .report
            .virtual_time
            .expect("sim");
        ratios.push(conc as f64 / seq as f64);
    }
    let mean_ratio = mean(ratios.iter().cloned());
    out.push_str(&format!(
        "mean slowdown: {:.1}% (paper: 4.3%); range {:.1}%..{:.1}%\n",
        (mean_ratio - 1.0) * 100.0,
        (ratios.iter().cloned().fold(f64::MAX, f64::min) - 1.0) * 100.0,
        (ratios.iter().cloned().fold(0.0, f64::max) - 1.0) * 100.0,
    ));
    out
}

/// §2.2: DKY strategy choice caused about 10% variation in compiler
/// performance.
pub fn dky_strategies() -> String {
    let suite = generate_suite();
    // The larger half of the suite exercises DKY meaningfully.
    let subset: Vec<&GeneratedModule> = suite.iter().skip(18).collect();
    let mut out =
        String::from("DKY strategy comparison (8 processors, total suite virtual time)\n");
    let mut totals = Vec::new();
    for strategy in DkyStrategy::ALL {
        let total: u64 = subset
            .iter()
            .map(|m| {
                sim_compile(
                    m,
                    8,
                    Options {
                        strategy,
                        ..Options::default()
                    },
                )
                .report
                .virtual_time
                .expect("sim")
            })
            .sum();
        totals.push((strategy, total));
        out.push_str(&format!("  {:<12} {total:>12} units\n", strategy.name()));
    }
    let best = totals.iter().map(|&(_, t)| t).min().expect("nonempty");
    let worst = totals.iter().map(|&(_, t)| t).max().expect("nonempty");
    out.push_str(&format!(
        "variation worst/best: {:.1}% (paper: about 10%)\n",
        (worst as f64 / best as f64 - 1.0) * 100.0
    ));
    out
}

/// §2.4: heading alternative 3 (reprocess in both scopes) vs alternative 1
/// (copy to child) — paper: about 3% slower.
pub fn heading_alternatives() -> String {
    let suite = generate_suite();
    let subset: Vec<&GeneratedModule> = suite.iter().skip(18).collect();
    let mut out = String::from("Procedure-heading information flow (2.4), 8 processors\n");
    let mut totals = Vec::new();
    for (label, mode) in [
        ("alternative 1 (copy to child)", HeadingMode::CopyToChild),
        ("alternative 3 (reprocess)", HeadingMode::Reprocess),
    ] {
        let total: u64 = subset
            .iter()
            .map(|m| {
                sim_compile(
                    m,
                    8,
                    Options {
                        heading_mode: mode,
                        ..Options::default()
                    },
                )
                .report
                .virtual_time
                .expect("sim")
            })
            .sum();
        totals.push(total);
        out.push_str(&format!("  {label:<32} {total:>12} units\n"));
    }
    out.push_str(&format!(
        "alternative 3 slower by: {:.1}% (paper: about 3%)\n",
        (totals[1] as f64 / totals[0] as f64 - 1.0) * 100.0
    ));
    out
}

/// §2.3.2 ablation: Supervisors (blocked workers are rescheduled onto
/// eligible tasks) versus plain WorkCrews (blocked workers just wait).
/// The paper extended WorkCrews precisely because compiler tasks block;
/// with rescheduling disabled, some compilations get slower and some
/// wedge outright (every processor stuck on a DKY chain) — which is the
/// point.
pub fn workcrews() -> String {
    let suite = generate_suite();
    let picks = [8usize, 18, 26, 30];
    let mut out = String::from(
        "Supervisors vs plain WorkCrews (8 processors; rescheduling of blocked workers off)\n",
    );
    for &i in &picks {
        let m = &suite[i];
        let supervisors = sim_compile(m, 8, Options::default())
            .report
            .virtual_time
            .expect("sim");
        let mut cfg = SimConfig::firefly(8);
        cfg.reschedule_blocked = false;
        let m2 = m.clone();
        // A wedged run is this section's expected outcome: its
        // deadlock report is the cell, not news for stderr.
        let result = crate::kit::silenced(std::panic::AssertUnwindSafe(move || {
            let out = compile_concurrent(
                &m2.source,
                Arc::new(m2.defs.clone()),
                Arc::new(Interner::new()),
                Options {
                    executor: Executor::Sim(cfg),
                    ..Options::default()
                },
            );
            out.report.virtual_time.expect("sim")
        }));
        match result {
            Ok(workcrews) => out.push_str(&format!(
                "  {:<10} supervisors {:>9}  workcrews {:>9}  (+{:.1}%)\n",
                m.name,
                supervisors,
                workcrews,
                (workcrews as f64 / supervisors as f64 - 1.0) * 100.0
            )),
            Err(_) => out.push_str(&format!(
                "  {:<10} supervisors {:>9}  workcrews DEADLOCKED (all workers blocked)\n",
                m.name, supervisors
            )),
        }
    }
    out.push_str(
        "(the paper extended WorkCrews to handle blockable tasks for exactly this reason)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_partition_everything() {
        let rows: Vec<SpeedupRow> = (0..37)
            .map(|i| SpeedupRow {
                name: format!("m{i}"),
                t: vec![1000 - i as u64, 600],
            })
            .collect();
        let q = quartiles(&rows);
        assert_eq!(q.iter().map(Vec::len).sum::<usize>(), 37);
        assert_eq!(q[0].len(), 10);
        assert_eq!(q[3].len(), 9);
        // Q1 holds the fastest (smallest t1) rows.
        assert!(q[0].contains(&36));
    }

    #[test]
    fn speedup_row_math() {
        let r = SpeedupRow {
            name: "x".into(),
            t: vec![1000, 500, 250],
        };
        assert!((r.speedup(2) - 2.0).abs() < 1e-9);
        assert!((r.speedup(3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_mentions_all_stream_kinds() {
        let f = fig5();
        assert!(f.contains("Lexor"));
        assert!(f.contains("Splitter"));
        assert!(f.contains("Importer"));
        assert!(f.contains("StmtAnalyzer/CodeGen"));
        assert!(f.contains("CacheSplice"), "priority line covers splices");
    }

    #[test]
    fn small_module_sim_and_seq_agree_on_success() {
        let m = ccm2_workload::generate(&ccm2_workload::GenParams::small("BenchSmoke", 9));
        let conc = sim_compile(&m, 2, Options::default());
        assert!(conc.is_ok());
        assert!(seq_virtual_time(&m) > 0);
    }
}
