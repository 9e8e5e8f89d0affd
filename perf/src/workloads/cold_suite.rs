//! `cold_suite`: one client compiles the 37-module suite over and over
//! through `compile_concurrent(Options::threads(W))` with no store.
//! Syntax, sema, codegen, core and sched do all the work; incr, serve,
//! fabric and watch do none.

use std::sync::Arc;
use std::time::Instant;

use ccm2::{compile_concurrent, ConcurrentOutput, Options};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::Interner;
use ccm2_workload::{GeneratedModule, SUITE_SIZE};

use crate::harness::{Ctx, Layers, Window};
use crate::layers::{suite_probes, SchedAcc};
use crate::span::maybe_span;
use crate::stats;
use crate::verify::{comparable, reference};
use crate::{inputs, workloads::scaled};

/// Whole passes only, about 0.7 passes per second of `--seconds`.
pub fn trace_ops(seconds: f64) -> u64 {
    scaled(0.7, seconds, 1) * SUITE_SIZE as u64
}

fn compile(m: &GeneratedModule, defs: &Arc<DefLibrary>, w: usize) -> ConcurrentOutput {
    compile_concurrent(
        &m.source,
        Arc::clone(defs) as Arc<dyn DefProvider>,
        Arc::new(Interner::new()),
        Options::threads(w),
    )
}

pub fn round(ctx: &Ctx, win: &mut Window, layers: &mut Layers) -> f64 {
    let t0 = Instant::now();
    let suite = inputs::suite(ctx.seed);
    let defs: Vec<Arc<DefLibrary>> = suite.iter().map(|m| Arc::new(m.defs.clone())).collect();
    let references: Vec<_> = suite
        .iter()
        .map(|m| reference(&m.source, &m.defs))
        .collect();
    // One warm-up pass: page in the code and grow the heap.
    for (m, d) in suite.iter().zip(&defs) {
        std::hint::black_box(compile(m, d, ctx.w));
    }
    let setup = t0.elapsed().as_secs_f64();

    let tracer = win.tracer.clone();
    let mut sched = SchedAcc::default();
    let mut next = 0usize;
    while !win.done() {
        let ops = win.ops_left().min(SUITE_SIZE);
        let outs = win.batch(1, |tally| {
            let mut outs = Vec::new();
            for op in next..next + ops {
                let at = op % SUITE_SIZE;
                let out = tally.op(|| {
                    maybe_span(tracer.as_deref(), "compile", op as u32, 0, || {
                        compile(&suite[at], &defs[at], ctx.w)
                    })
                });
                outs.push((at, out));
            }
            outs
        });
        next += outs.len();
        let bad = outs
            .iter()
            .filter(|(at, out)| !out.is_ok() || comparable(out) != references[*at])
            .count();
        win.checked(outs.len() as u64, bad as u64);
        if tracer.is_some() {
            for (_, out) in &outs {
                sched.add(&out.report, ctx.w);
            }
        }
    }
    if tracer.is_some() {
        layers.insert("proc.mappings_end", stats::mappings() as f64);
        sched.emit(layers);
        suite_probes(&suite, &defs, ctx.w, layers);
    }
    setup
}
