//! `watch_session`: one client drives a `WatchService` with the 37
//! suite modules open through a seeded editor session (benign edits,
//! breaks, fixes, a few interface edits); op = `submit` + `check`,
//! batch = one cycle over the 37 modules.
//! The same incr/store layer as `warm_edit`, used differently: store
//! writes beside reads (an interface edit invalidates a project), the
//! recovering parser and error units on broken revisions, unit diffing.

use std::time::Instant;

use ccm2_watch::{WatchConfig, WatchService};
use ccm2_workload::{
    edit_session_seeds, generate, GenParams, SessionEdit, SessionParams, SUITE_SIZE,
};

use crate::harness::{Ctx, Layers, Window};
use crate::span::maybe_span;
use crate::stats::{self, percentile, sorted};
use crate::verify::reference;
use crate::{inputs, workloads::scaled};

pub fn trace_ops(seconds: f64) -> u64 {
    scaled(62.5, seconds, 50)
}

/// Edits per module in one segment of the session: 37 × 68 ≈ 2 500.
const MODULE_EDITS: usize = 68;
/// Segment index at which the next round of an untraced run takes up
/// the session: further than a round can get in 60 seconds.
const ROUND_SEGMENTS: u64 = 1 << 20;

/// One segment of the editor session: a seeded `edit_session_seeds`
/// stream per module (12 % breaks, 10 % fixes, at most one interface
/// edit, every break repaired before the stream ends), interleaved so
/// that each cycle of 37 ops touches each module once. Drawing the
/// module at random as well would make the share of large modules, and
/// with it every latency figure, swing with the seed.
fn segment(ctx: &Ctx, params: &[GenParams], index: u64) -> Vec<SessionEdit> {
    let streams: Vec<Vec<SessionEdit>> = params
        .iter()
        .enumerate()
        .map(|(m, p)| {
            let stream = (index * SUITE_SIZE as u64 + m as u64).wrapping_mul(0x9E37_79B9);
            edit_session_seeds(
                std::slice::from_ref(p),
                &SessionParams {
                    edits: MODULE_EDITS,
                    seed: SessionParams::default().seed ^ ctx.seed ^ stream,
                    break_pct: 12,
                    fix_pct: 10,
                    max_interface_edits: 1,
                },
            )
        })
        .collect();
    (0..MODULE_EDITS * SUITE_SIZE)
        .map(|k| {
            let module = (7 * k) % SUITE_SIZE;
            SessionEdit {
                module,
                op: streams[module][k / SUITE_SIZE].op.clone(),
            }
        })
        .collect()
}

pub fn round(ctx: &Ctx, win: &mut Window, layers: &mut Layers) -> f64 {
    let t0 = Instant::now();
    let params = inputs::suite_gen_params(ctx.seed);
    let suite: Vec<_> = params.iter().map(generate).collect();
    let mut svc = WatchService::new(WatchConfig::default());
    let mut cold_us = Vec::new();
    let mut opened_clean = 0u64;
    for m in &suite {
        let report = svc.open(m.name.clone(), m.clone());
        cold_us.push(report.wall.as_micros() as u64);
        opened_clean += u64::from(report.clean);
    }
    let first = win.round * ROUND_SEGMENTS;
    let mut edits = segment(ctx, &params, first);
    let setup = t0.elapsed().as_secs_f64();

    let tracer = win.tracer.clone();
    let (mut segments, mut at, mut op) = (first + 1, 0usize, 0u32);
    let (mut warm, mut cold, mut deduped, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    let mut check_us = Vec::new();
    let mut ratios_permille = Vec::new();
    let mut lost = 0u64;
    while !win.done() {
        if at == edits.len() {
            edits = segment(ctx, &params, segments);
            segments += 1;
            at = 0;
        }
        let ops = win.ops_left().min(SUITE_SIZE).min(edits.len() - at);
        let reports = win.batch(1, |tally| {
            let mut reports = Vec::new();
            for e in &edits[at..at + ops] {
                let project = params[e.module].name.as_str();
                let report = tally.op(|| {
                    maybe_span(tracer.as_deref(), "check", op, 0, || {
                        svc.submit(project, e.op.clone())
                            .and_then(|()| svc.check(project))
                    })
                });
                reports.push((e.module, report));
                op += 1;
            }
            reports
        });
        at += reports.len();
        for (module, report) in &reports {
            let Ok(r) = report else {
                lost += 1;
                continue;
            };
            warm += r.warm_streams as u64;
            cold += r.cold_streams as u64;
            deduped += u64::from(r.deduped);
            degraded += u64::from(!r.degraded_units.is_empty());
            let wall = r.wall.as_micros() as u64;
            check_us.push(wall);
            ratios_permille.push(wall * 1000 / cold_us[*module].max(1));
        }
    }
    let mappings = stats::mappings();

    // Every session's final revision against the sequential compiler.
    // A window usually stops inside a segment, so a final revision may
    // be a broken one; the reference then carries the same diagnostics
    // and error units.
    let mut bad = (suite.len() as u64 - opened_clean) + lost;
    for p in &params {
        let same = svc.session(&p.name).is_some_and(|s| {
            let want = reference(&s.module().source, &s.module().defs);
            s.object() == want.0.as_deref() && s.diagnostics() == want.1.as_slice()
        });
        bad += u64::from(!same);
    }
    win.checked(win.lat_us.len() as u64, bad.min(win.lat_us.len() as u64));

    if tracer.is_some() {
        let store = svc.store_stats();
        layers.insert("proc.mappings_end", mappings as f64);
        let check_p50 = percentile(&sorted(check_us), 0.5) as f64;
        let cold_p50 = percentile(&sorted(cold_us), 0.5) as f64;
        layers.insert("watch.check_us_p50", check_p50);
        layers.insert("watch.cold_open_us_p50", cold_p50);
        layers.insert(
            "watch.check_vs_cold_p50",
            percentile(&sorted(ratios_permille), 0.5) as f64 / 1000.0,
        );
        layers.insert(
            "watch.warm_stream_ratio",
            warm as f64 / (warm + cold).max(1) as f64,
        );
        layers.insert("watch.deduped", deduped as f64);
        layers.insert("watch.degraded_revs", degraded as f64);
        layers.insert("watch.store_hits", store.hits as f64);
        layers.insert("watch.store_misses", store.misses as f64);
        layers.insert("watch.store_insertions", store.insertions as f64);
    }
    setup
}
