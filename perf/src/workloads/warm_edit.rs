//! `warm_edit`: one client, one `MemStore` filled by a cold pass in
//! set-up; op *k* edits one procedure body of module *(7k mod 37)* and
//! recompiles it incrementally. Nearly every stream splices from the
//! store, so incr (fingerprint, `load`, `decode_entry`, splice, merge)
//! and the whole-module lex and split dominate, while parse, sema and
//! codegen are nearly idle: a codegen gain must not show here, a store
//! or codec gain must show only here.

use std::sync::Arc;
use std::time::Instant;

use ccm2::{compile_concurrent, ConcurrentOutput, Options};
use ccm2_incr::{decode_entry, encode_entry, ArtifactStore, IncrStats, MemStore};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::Interner;
use ccm2_workload::{apply_edits, EditOp, GeneratedModule, SUITE_SIZE};

use crate::decor::{MeteredStore, STORE_LOAD, STORE_STORE};
use crate::harness::{micros_since, Ctx, Layers, Window};
use crate::layers::SchedAcc;
use crate::span::Span;
use crate::stats::{self, percentile, sorted};
use crate::verify::{comparable, reference};
use crate::{inputs, workloads::scaled};

pub fn trace_ops(seconds: f64) -> u64 {
    scaled(60.0, seconds, SUITE_SIZE as u64)
}

/// One op in this many is byte-compared with the sequential compiler
/// (a seeded choice); every op must compile clean.
const VERIFY_ONE_IN: u64 = 8;

/// A seeded draw per op.
fn draw(seed: u64, op: u64) -> u64 {
    (seed ^ op).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

fn sampled(seed: u64, op: u64) -> bool {
    draw(seed, op).is_multiple_of(VERIFY_ONE_IN)
}

fn compile(
    m: &GeneratedModule,
    defs: &Arc<DefLibrary>,
    store: &Arc<dyn ArtifactStore>,
    w: usize,
) -> ConcurrentOutput {
    compile_concurrent(
        &m.source,
        Arc::clone(defs) as Arc<dyn DefProvider>,
        Arc::new(Interner::new()),
        Options {
            incremental: Some(Arc::clone(store)),
            ..Options::threads(w)
        },
    )
}

pub fn round(ctx: &Ctx, win: &mut Window, layers: &mut Layers) -> f64 {
    let t0 = Instant::now();
    let mut current = inputs::suite(ctx.seed);
    let defs: Vec<Arc<DefLibrary>> = current.iter().map(|m| Arc::new(m.defs.clone())).collect();
    let mem = Arc::new(MemStore::new());
    let tracer = win.tracer.clone();
    let store: Arc<dyn ArtifactStore> = match &tracer {
        Some(t) => Arc::new(MeteredStore::new(
            Arc::clone(&mem) as Arc<dyn ArtifactStore>,
            Arc::clone(t),
        )),
        None => Arc::clone(&mem) as Arc<dyn ArtifactStore>,
    };
    // The cold pass that fills the store; its per-module times are the
    // base of `incr.warm_vs_cold_p50`.
    let cold_us: Vec<u64> = current
        .iter()
        .zip(&defs)
        .map(|(m, d)| {
            let t = Instant::now();
            std::hint::black_box(compile(m, d, &store, ctx.w));
            micros_since(t)
        })
        .collect();
    let setup = t0.elapsed().as_secs_f64();
    // The fill pass's store traffic is set-up, not the window's.
    let fill_spans = tracer.as_ref().map_or(0, |t| t.with_spans(|s| s.len()));

    let mut sched = SchedAcc::default();
    let mut incr = IncrStats::default();
    let mut ratios_permille = Vec::new();
    let mut next = 0u64;
    while !win.done() {
        let ops = win.ops_left().min(SUITE_SIZE) as u64;
        // Edits are the benchmark's own work: applied off the clock.
        let batch: Vec<usize> = (next..next + ops)
            .map(|op| {
                let at = (7 * op as usize) % SUITE_SIZE;
                // Which body is edited is drawn per op: were it the
                // same index for a whole cycle, cycles would differ in
                // cost as one (procedure 0 has nested children in most
                // modules) and the batch figures with them.
                let salt = ctx.seed ^ win.round << 32;
                let procedures = current[at].params.procedures.max(1) as u64;
                let edit = EditOp::ProcBody {
                    index: (draw(!salt, op) % procedures) as usize,
                    seed: salt ^ op,
                };
                current[at] = apply_edits(&current[at], &[edit]);
                at
            })
            .collect();
        let outs = win.batch(1, |tally| {
            let mut outs = Vec::new();
            for (i, &at) in batch.iter().enumerate() {
                let op = next + i as u64;
                let run = || compile(&current[at], &defs[at], &store, ctx.w);
                let out = tally.op(|| match &tracer {
                    Some(tr) => tr.span_ambient("compile", op as u32, run),
                    None => run(),
                });
                outs.push((op, at, out));
            }
            outs
        });
        let done = outs.len();
        let mut bad = 0u64;
        for (i, (op, at, out)) in outs.iter().enumerate() {
            let ok = out.is_ok()
                && (!sampled(ctx.seed, *op)
                    || comparable(out) == reference(&current[*at].source, &current[*at].defs));
            bad += u64::from(!ok);
            if let Some(stats) = out.incr {
                incr.absorb(stats);
            }
            if tracer.is_some() {
                sched.add(&out.report, ctx.w);
                let lat = win.lat_us[win.lat_us.len() - done + i];
                ratios_permille.push(lat * 1000 / cold_us[*at].max(1));
            }
        }
        win.checked(done as u64, bad);
        next += done as u64;
    }

    if let Some(t) = &tracer {
        layers.insert("proc.mappings_end", stats::mappings() as f64);
        sched.emit(layers);
        let ops = win.lat_us.len().max(1) as f64;
        t.with_spans(|spans| store_layers(&spans[fill_spans..], ops, layers));
        layers.insert("incr.hit_ratio", incr.hit_rate());
        layers.insert("incr.spliced", incr.spliced as f64);
        layers.insert("incr.recompiled", incr.recompiled as f64);
        layers.insert("incr.bad_entries", incr.bad_entries as f64);
        layers.insert(
            "incr.warm_vs_cold_p50",
            percentile(&sorted(ratios_permille), 0.5) as f64 / 1000.0,
        );
        codec_layers(&mem, layers);
    }
    setup
}

/// Counts, bytes and time per op of the `ArtifactStore` decorator's
/// spans.
fn store_layers(spans: &[Span], ops: f64, layers: &mut Layers) {
    // (calls, calls that moved bytes, nanoseconds, bytes)
    let tally = |name: &str| {
        spans.iter().filter(|s| s.name == name).fold(
            (0u64, 0u64, 0u64, 0u64),
            |(n, hits, ns, bytes), s| {
                (
                    n + 1,
                    hits + u64::from(s.tag > 0),
                    ns + s.dur_ns(),
                    bytes + u64::from(s.tag),
                )
            },
        )
    };
    let (loads, hits, load_ns, load_bytes) = tally(STORE_LOAD);
    let (stores, _, store_ns, store_bytes) = tally(STORE_STORE);
    layers.insert("incr.store_loads", loads as f64);
    layers.insert("incr.store_load_hits", hits as f64);
    layers.insert("incr.store_load_us", load_ns as f64 / 1e3 / ops);
    layers.insert("incr.store_load_bytes", load_bytes as f64);
    layers.insert("incr.store_stores", stores as f64);
    layers.insert("incr.store_store_us", store_ns as f64 / 1e3 / ops);
    layers.insert("incr.store_store_bytes", store_bytes as f64);
}

/// How many stored blobs the codec timing reads.
const CODEC_SAMPLE: usize = 512;

/// `decode_entry` and `encode_entry` alone, on blobs the window stored.
fn codec_layers(mem: &MemStore, layers: &mut Layers) {
    let blobs: Vec<Vec<u8>> = mem
        .fingerprints()
        .into_iter()
        .take(CODEC_SAMPLE)
        .filter_map(|fp| mem.load(fp))
        .collect();
    let interner = Interner::new();
    let t = Instant::now();
    let entries: Vec<_> = blobs
        .iter()
        .filter_map(|b| decode_entry(b, &interner).ok())
        .collect();
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    for e in &entries {
        std::hint::black_box(encode_entry(e, &interner));
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    let n = entries.len().max(1) as f64;
    layers.insert("incr.decode_us_per_entry", decode_us / n);
    layers.insert("incr.encode_us_per_entry", encode_us / n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_verification_sample_is_seeded_and_about_one_in_eight() {
        let picked = (0..8000).filter(|&op| sampled(0, op)).count();
        assert!((800..1200).contains(&picked), "{picked}");
        assert_eq!(
            (0..64).filter(|&op| sampled(5, op)).collect::<Vec<_>>(),
            (0..64).filter(|&op| sampled(5, op)).collect::<Vec<_>>()
        );
        assert_ne!(
            (0..256).filter(|&op| sampled(0, op)).collect::<Vec<_>>(),
            (0..256).filter(|&op| sampled(1, op)).collect::<Vec<_>>()
        );
    }
}
