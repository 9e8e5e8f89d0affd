//! Per-layer measurements taken from outside the layers: by timing
//! calls into their `pub` items and by reading the reports they return.

use std::sync::Arc;
use std::time::Instant;

use ccm2::{compile_concurrent, Options};
use ccm2_sched::{RunReport, Segment, TaskKind};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::diag::DiagnosticSink;
use ccm2_support::source::SourceMap;
use ccm2_support::Interner;
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::parser::{parse_definition, parse_implementation};
use ccm2_workload::GeneratedModule;

use crate::harness::Layers;
use crate::inputs::suite_bytes;

/// Task kinds reported as `sched.busy_us.<name>`, in report order.
/// `Analyze` is absent: the opt-in lints are outside every workload.
const KINDS: [(TaskKind, &str); 10] = [
    (TaskKind::Lexor, "sched.busy_us.lex"),
    (TaskKind::Splitter, "sched.busy_us.split"),
    (TaskKind::CacheSplice, "sched.busy_us.splice"),
    (TaskKind::Importer, "sched.busy_us.import"),
    (TaskKind::DefModParse, "sched.busy_us.defparse"),
    (TaskKind::ModuleParse, "sched.busy_us.modparse"),
    (TaskKind::ProcParse, "sched.busy_us.procparse"),
    (TaskKind::LongCodeGen, "sched.busy_us.codegen_long"),
    (TaskKind::ShortCodeGen, "sched.busy_us.codegen"),
    (TaskKind::Merge, "sched.busy_us.merge"),
];

/// Sums the scheduler's own trace (`RunReport.trace`, microseconds on
/// the threaded executor) over the compiles of a window.
///
/// A worker whose task blocks runs other tasks meanwhile, so segments
/// nest on a processor; each segment is counted with its *self* time,
/// the part not covered by segments nested in it. The sum over kinds is
/// then the time workers were busy, and at most makespan × workers.
#[derive(Default)]
pub struct SchedAcc {
    busy_us: [u64; KINDS.len()],
    all_busy_us: u64,
    capacity_us: u64,
    compiles: u64,
}

impl SchedAcc {
    /// Books one segment, `nested` microseconds of which were spent in
    /// segments nested in it.
    fn book(&mut self, seg: &Segment, nested: u64) {
        let own = (seg.end - seg.start).saturating_sub(nested);
        if let Some(at) = KINDS.iter().position(|(k, _)| *k == seg.kind) {
            self.busy_us[at] += own;
        }
        self.all_busy_us += own;
    }

    /// Adds one compile that ran on `workers` threads.
    pub fn add(&mut self, report: &RunReport, workers: usize) {
        let mut by_proc: Vec<&Segment> = report.trace.segments.iter().collect();
        by_proc.sort_by_key(|s| (s.proc, s.start, std::cmp::Reverse(s.end)));
        // Open segments of the current processor, innermost last, each
        // with the time its nested segments have covered so far.
        let mut open: Vec<(&Segment, u64)> = Vec::new();
        let mut next = by_proc.into_iter().peekable();
        loop {
            // Close what the next segment is not nested in (everything,
            // at the end and when the processor changes).
            while let Some(&(top, nested)) = open.last() {
                if next
                    .peek()
                    .is_some_and(|s| s.proc == top.proc && s.start < top.end)
                {
                    break;
                }
                open.pop();
                self.book(top, nested);
                if let Some(parent) = open.last_mut() {
                    parent.1 += top.end - top.start;
                }
            }
            match next.next() {
                Some(seg) => open.push((seg, 0)),
                None => break,
            }
        }
        self.capacity_us += report.trace.makespan() * workers as u64;
        self.compiles += 1;
    }

    /// Busy microseconds per compile by task kind, and the share of
    /// worker time that was busy.
    pub fn emit(&self, layers: &mut Layers) {
        let n = self.compiles.max(1) as f64;
        for (at, (_, name)) in KINDS.iter().enumerate() {
            layers.insert(name, self.busy_us[at] as f64 / n);
        }
        layers.insert(
            "sched.utilization",
            self.all_busy_us as f64 / self.capacity_us.max(1) as f64,
        );
    }
}

fn millis(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Compiles the whole suite through `compile_concurrent` and returns
/// the wall milliseconds, streams and tasks run.
fn suite_pass(
    suite: &[GeneratedModule],
    defs: &[Arc<DefLibrary>],
    options: &Options,
) -> (f64, u64, u64, Vec<RunReport>) {
    let t0 = Instant::now();
    let (mut streams, mut tasks, mut reports) = (0u64, 0u64, Vec::new());
    for (m, d) in suite.iter().zip(defs) {
        let out = compile_concurrent(
            &m.source,
            Arc::clone(d) as Arc<dyn DefProvider>,
            Arc::new(Interner::new()),
            options.clone(),
        );
        streams += out.streams as u64;
        tasks += out.report.tasks_run as u64;
        reports.push(out.report);
    }
    (millis(t0), streams, tasks, reports)
}

/// The layers under `compile_concurrent`, each measured alone over the
/// suite: the lexer, the parser, the sequential compiler, the driver on
/// one thread against the sequential compiler, the threaded executor on
/// `w` threads against one, and the simulator's exact virtual times.
pub fn suite_probes(
    suite: &[GeneratedModule],
    defs: &[Arc<DefLibrary>],
    w: usize,
    layers: &mut Layers,
) {
    let mb = suite_bytes(suite) as f64 / 1e6;

    // Lexer alone, then the parser alone on the tokens it produced.
    let interner = Interner::new();
    let sink = DiagnosticSink::new();
    let sources = SourceMap::new();
    let mut files = Vec::new();
    for m in suite {
        files.push((
            true,
            sources.add(format!("{}.mod", m.name), m.source.clone()),
        ));
        let mut lib: Vec<(&str, &str)> = m.defs.iter().collect();
        lib.sort_unstable();
        for (name, text) in lib {
            files.push((false, sources.add(format!("{name}.def"), text)));
        }
    }
    let t0 = Instant::now();
    let tokens: Vec<_> = files
        .iter()
        .map(|(_, f)| lex_file(f, &interner, &sink))
        .collect();
    let lex_ms = millis(t0);
    let token_count: usize = tokens.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for ((is_main, _), toks) in files.iter().zip(&tokens) {
        let parsed = if *is_main {
            parse_implementation(toks, &interner, &sink).is_some()
        } else {
            parse_definition(toks, &interner, &sink).is_some()
        };
        assert!(std::hint::black_box(parsed), "suite sources parse");
    }
    let parse_ms = millis(t0);
    layers.insert("syntax.lex_ms_per_mb", lex_ms / mb);
    layers.insert("syntax.tokens_per_s", token_count as f64 / (lex_ms / 1e3));
    layers.insert("syntax.tokens", token_count as f64);
    layers.insert("syntax.parse_ms_per_mb", parse_ms / mb);

    // The sequential compiler: lex + parse + (sema + codegen).
    let t0 = Instant::now();
    for m in suite {
        let out = ccm2_seq::compile(&m.source, &m.defs);
        assert!(std::hint::black_box(out.image.is_some()));
    }
    let seq_ms = millis(t0);
    layers.insert("seq.compile_ms", seq_ms);
    layers.insert("seq.backend_ms", seq_ms - lex_ms - parse_ms);

    // The concurrent driver on one thread against the sequential
    // compiler (the paper measured 1.043), and on `w` threads against
    // one.
    let (one_ms, streams, tasks, _) = suite_pass(suite, defs, &Options::threads(1));
    let (w_ms, ..) = suite_pass(suite, defs, &Options::threads(w));
    layers.insert("core.concurrent_vs_seq", one_ms / seq_ms);
    layers.insert("core.streams", streams as f64);
    layers.insert("core.tasks_run", tasks as f64);
    layers.insert("sched.wall_speedup", one_ms / w_ms);

    // The simulator: virtual times and work units are exact counts, the
    // paper's speedup shape, and must repeat bit for bit.
    let virtual_time = |procs: u32| -> (u64, u64) {
        let (_, _, _, reports) = suite_pass(suite, defs, &Options::sim(procs));
        reports.iter().fold((0, 0), |(vt, work), r| {
            (vt + r.virtual_time.unwrap_or(0), work + r.total_work())
        })
    };
    let (vt1, work) = virtual_time(1);
    let (vt8, _) = virtual_time(8);
    layers.insert("sched.sim_vt_p1", vt1 as f64);
    layers.insert("sched.sim_vt_p8", vt8 as f64);
    layers.insert("sched.sim_speedup_p8", vt1 as f64 / vt8.max(1) as f64);
    layers.insert("sched.work_units", work as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sched::Trace;
    use ccm2_support::work::Work;

    fn report(segments: Vec<Segment>) -> RunReport {
        RunReport {
            virtual_time: None,
            wall_micros: 0,
            trace: Trace { segments },
            tasks_run: 0,
            charges: [0; Work::COUNT],
            task_panics: Vec::new(),
            stalls: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    fn seg(proc: u32, kind: TaskKind, start: u64, end: u64) -> Segment {
        Segment {
            proc,
            kind,
            name: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn sched_acc_sums_by_kind_and_reports_per_compile() {
        let mut acc = SchedAcc::default();
        acc.add(
            &report(vec![
                seg(0, TaskKind::Lexor, 0, 10),
                seg(1, TaskKind::ProcParse, 0, 30),
                // A blocked parse on processor 0 that ran a code
                // generation and, inside that, a merge meanwhile.
                seg(0, TaskKind::ProcParse, 10, 40),
                seg(0, TaskKind::ShortCodeGen, 15, 35),
                seg(0, TaskKind::Merge, 20, 25),
                seg(0, TaskKind::Analyze, 40, 50),
            ]),
            2,
        );
        acc.add(&report(vec![seg(0, TaskKind::Lexor, 0, 30)]), 2);
        let mut layers = Layers::new();
        acc.emit(&mut layers);
        assert_eq!(layers["sched.busy_us.lex"], 20.0);
        assert_eq!(layers["sched.busy_us.procparse"], 20.0, "30 + (30 - 20)");
        assert_eq!(layers["sched.busy_us.codegen"], 7.5, "20 - 5");
        assert_eq!(layers["sched.busy_us.merge"], 2.5);
        // Busy 10 + 30 + 30 + 10 (analyze) + 30 = 110 of (50 + 30) * 2.
        assert_eq!(layers["sched.utilization"], 110.0 / 160.0);
    }

    #[test]
    fn probes_fill_every_suite_layer_on_a_small_suite() {
        let suite: Vec<GeneratedModule> = crate::inputs::suite(0).into_iter().take(3).collect();
        let defs: Vec<Arc<DefLibrary>> = suite.iter().map(|m| Arc::new(m.defs.clone())).collect();
        let mut layers = Layers::new();
        suite_probes(&suite, &defs, 2, &mut layers);
        for name in [
            "syntax.lex_ms_per_mb",
            "syntax.tokens_per_s",
            "syntax.parse_ms_per_mb",
            "seq.compile_ms",
            "core.concurrent_vs_seq",
            "sched.wall_speedup",
        ] {
            assert!(layers[name] > 0.0, "{name}");
        }
        assert!(layers["syntax.tokens"] > 1000.0);
        assert!(layers["core.tasks_run"] > layers["core.streams"]);
        assert!(layers["sched.sim_vt_p1"] > layers["sched.sim_vt_p8"]);
        let mut again = Layers::new();
        suite_probes(&suite, &defs, 2, &mut again);
        for exact in [
            "syntax.tokens",
            "core.streams",
            "core.tasks_run",
            "sched.sim_vt_p1",
            "sched.sim_vt_p8",
            "sched.work_units",
        ] {
            assert_eq!(layers[exact], again[exact], "{exact} repeats exactly");
        }
    }
}
