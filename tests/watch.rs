//! End-to-end tests for the always-on editor loop (`ccm2-watch`) and
//! the error-recovering parser it depends on:
//!
//! * a syntax error inside one procedure body degrades exactly that
//!   stream to a deterministic error unit — byte-identical across the
//!   sequential compiler and every DKY strategy on every executor;
//! * heading modes are cache-safe: each §2.4 mode splices only entries
//!   it recorded itself (the environment digest separates them), and a
//!   warm compile under any mode reproduces its cold output exactly;
//! * a session replaying a seeded edit stream — broken intermediates
//!   included — converges to the byte-identical output of the
//!   sequential compiler on its final sources.

use std::sync::Arc;

use ccm2::Options;
use ccm2_codegen::emit::is_error_unit;
use ccm2_incr::MemStore;
use ccm2_sema::declare::HeadingMode;
use ccm2_watch::{CheckReport, WatchConfig, WatchService};
use ccm2_workload::{
    apply_edits, edit_session_seeds, generate, EditOp, GenParams, GeneratedModule, SessionParams,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod contract;
use contract::{run, Output, Path, Program};

// ---- deterministic error units across the whole matrix ------------------

/// The CI determinism guard: one broken procedure body, compiled by the
/// sequential compiler and by the concurrent one under every DKY
/// strategy on every executor, yields byte-identical object bytes and
/// diagnostics — and the only degraded unit is the broken procedure's.
#[test]
fn error_unit_is_byte_identical_across_seq_dky_and_executors() {
    let m = generate(&GenParams::small("DetBrk", 21));
    let broken = Program::from(apply_edits(&m, &[EditOp::BreakBody { index: 1, seed: 5 }]));
    let reference = run(&Path::Seq, &broken);
    assert!(!reference.1.is_empty(), "break must be reported");
    assert!(
        reference.0.is_some(),
        "recovered parse still yields an image"
    );

    for path in Path::all() {
        let out = broken.compile(path.options());
        assert_eq!(
            out.comparable(),
            reference,
            "{path}: degraded output diverged from sequential"
        );
        let degraded: Vec<String> = out
            .image
            .as_ref()
            .expect("image")
            .units
            .iter()
            .filter(|u| is_error_unit(u, &out.interner))
            .map(|u| out.interner.resolve(u.name))
            .collect();
        assert_eq!(
            degraded,
            vec!["DetBrk.Proc1".to_string()],
            "{path}: exactly the broken stream degrades"
        );
    }
}

/// A break in one procedure leaves nested units elsewhere in the module
/// untouched: with `fault_seeds` the module carries `FaultNestInner`
/// nested inside `FaultNest`, and only the broken stream degrades.
#[test]
fn break_leaves_nested_units_in_siblings_intact() {
    let m = generate(&GenParams {
        fault_seeds: true,
        ..GenParams::small("NestBrk", 22)
    });
    let broken = Program::from(apply_edits(&m, &[EditOp::BreakBody { index: 1, seed: 3 }]));
    let out = broken.compile(Options::default());
    let image = out.image.as_ref().expect("image");
    let degraded: Vec<String> = image
        .units
        .iter()
        .filter(|u| is_error_unit(u, &out.interner))
        .map(|u| out.interner.resolve(u.name))
        .collect();
    assert_eq!(degraded, vec!["NestBrk.Proc1".to_string()]);
    assert!(
        image
            .units
            .iter()
            .any(|u| out.interner.resolve(u.name).contains("FaultNestInner")),
        "nested sibling unit survives"
    );
}

// ---- heading modes: per-mode warm/cold cache equivalence ----------------

/// Satellite: every §2.4 heading mode is cache-safe. A warm compile
/// under each mode reproduces its cold output byte for byte, and a
/// store populated under one mode never feeds entries to another (the
/// environment digest carries the mode tag).
#[test]
fn heading_modes_are_cache_safe_and_isolated() {
    let m = Program::from(generate(&GenParams::small("HeadCache", 31)));
    let modes = [HeadingMode::CopyToChild, HeadingMode::Reprocess];
    let mut outputs = Vec::new();
    for heading in modes {
        let program = Program {
            heading,
            ..m.clone()
        };
        let store = Arc::new(MemStore::new());
        let cold = program.compile_into(store.clone(), Options::default());
        assert!(cold.is_ok(), "{heading:?}: {:#?}", cold.diagnostics);
        assert_eq!(cold.incr.expect("incremental").spliced, 0);
        let warm = program.compile_into(store, Options::default());
        let stats = warm.incr.expect("incremental");
        assert_eq!(
            stats.spliced, stats.units,
            "{heading:?}: fully warm second compile"
        );
        assert_eq!(
            cold.comparable(),
            warm.comparable(),
            "{heading:?}: warm output must equal cold"
        );
        outputs.push(cold.comparable());
    }
    // Clean sources: both modes agree on the output itself.
    assert_eq!(outputs[0], outputs[1], "Reprocess == CopyToChild");

    // Cross-mode isolation: a store warmed under CopyToChild yields
    // zero splices under the other mode (distinct cache tags), and the
    // output still matches its own cold compile.
    let store = Arc::new(MemStore::new());
    let copy_cold = m.compile_into(store.clone(), Options::default());
    assert!(copy_cold.is_ok());
    let reprocess = Program {
        heading: HeadingMode::Reprocess,
        ..m
    };
    let out = reprocess.compile_into(store, Options::default());
    let stats = out.incr.expect("incremental");
    assert_eq!(
        stats.spliced, 0,
        "Reprocess must not splice CopyToChild's entries"
    );
    assert_eq!(
        out.comparable(),
        copy_cold.comparable(),
        "Reprocess: output unaffected by the foreign store"
    );
}

// ---- watch sessions end to end ------------------------------------------

fn session_modules(n: usize, seed: u64) -> Vec<GenParams> {
    (0..n)
        .map(|i| GenParams::small(&format!("WSess{i}"), seed + i as u64))
        .collect()
}

/// The dotted unit name an edit op targets, if it names a procedure.
fn edited_unit(module: &str, op: &EditOp) -> Option<String> {
    match op {
        EditOp::ProcBody { index, .. }
        | EditOp::BreakBody { index, .. }
        | EditOp::FixBody { index } => Some(format!("{module}.Proc{index}")),
        EditOp::Interface { .. } => None,
    }
}

/// Replays a seeded session one edit per check and asserts the ISSUE's
/// editor-loop guarantees: broken revisions degrade only the edited
/// stream (every sibling unit byte-identical to the fault-free
/// revision), every session ends clean, and the final revision is
/// byte-identical to a cold compile of the final sources.
#[test]
fn seeded_session_degrades_only_edited_streams_and_converges() {
    let params = session_modules(4, 400);
    let modules: Vec<GeneratedModule> = params.iter().map(generate).collect();
    let stream = edit_session_seeds(
        &params,
        &SessionParams {
            edits: 40,
            seed: 0xED17_5E55,
            ..SessionParams::default()
        },
    );

    let mut svc = WatchService::new(WatchConfig::default());
    for m in &modules {
        let r = svc.open(m.name.clone(), m.clone());
        assert!(r.clean, "{}: {:#?}", m.name, r.diags_added);
    }

    let mut saw_broken = false;
    for e in &stream {
        let name = params[e.module].name.clone();
        svc.submit(&name, e.op.clone()).unwrap();
        let r: CheckReport = svc.check(&name).unwrap();
        if let Some(unit) = edited_unit(&name, &e.op) {
            // Only the edited stream may change — siblings (and the
            // module body) stay byte-identical whether the edit was
            // benign, breaking, or a fix.
            assert!(
                r.changed_units.iter().all(|u| *u == unit),
                "{name} rev {}: edit to {unit} changed {:?}",
                r.revision,
                r.changed_units
            );
            if !r.clean {
                saw_broken = true;
                assert!(
                    r.degraded_units.contains(&unit) || !r.degraded_units.is_empty(),
                    "broken revision must name a degraded unit"
                );
                assert!(
                    r.degraded_units.iter().all(|u| u.starts_with(&name)),
                    "degradation never crosses projects: {:?}",
                    r.degraded_units
                );
            }
        }
    }
    assert!(saw_broken, "stream exercises broken intermediates");

    for p in &params {
        let session = svc.session(&p.name).expect("open session");
        assert!(
            session.diagnostics().is_empty(),
            "{}: session must end clean",
            p.name
        );
        // Final revision == cold compile of the final sources, byte for
        // byte (fresh interner, no artifact store).
        let (cold_object, cold_diags) = run(&Path::Seq, &session.module().into());
        assert_eq!(
            session.object(),
            cold_object.as_deref(),
            "{}: session image must equal cold compile",
            p.name
        );
        assert_eq!(session.diagnostics(), &cold_diags[..], "{}: diags", p.name);
    }
}

/// An interface edit invalidates the whole project revision (cold
/// streams), but the session still reports it cleanly and stays
/// convergent.
#[test]
fn interface_edit_goes_cold_but_stays_correct() {
    let m = generate(&GenParams::small("WIface", 9));
    let def = format!("{}Lib0", m.name);
    let mut svc = WatchService::new(WatchConfig::default());
    svc.open("p", m);
    let r = svc
        .submit(
            "p",
            EditOp::Interface {
                def: def.clone(),
                tag: 3,
            },
        )
        .and_then(|()| svc.check("p"))
        .unwrap();
    assert!(r.clean, "{:#?}", r.diags_added);
    assert_eq!(r.warm_streams, 0, "environment digest changed: all cold");
    assert!(r.cold_streams > 0);

    let session = svc.session("p").unwrap();
    let cold = run(&Path::Seq, &session.module().into());
    assert_eq!(session.object(), cold.0.as_deref());
}

// ---- convergence property (seeded cases) --------------------------------

// Any seeded stream, replayed through a session in arbitrary batch
// sizes (so coalescing kicks in), converges: after the final check,
// the session's image and diagnostics are byte-identical to a cold
// compile of its final sources — even when broken intermediates (or
// a coalesced-away fix) leave the final state itself broken.
#[test]
fn session_replay_converges_to_cold_compile() {
    for case in 0..6 {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..u64::MAX);
        let batch = rng.gen_range(1usize..4);
        println!("case {case}: seed {seed}, batch {batch}");
        let params = session_modules(3, 700 + (seed % 13));
        let modules: Vec<GeneratedModule> = params.iter().map(generate).collect();
        let stream = edit_session_seeds(
            &params,
            &SessionParams {
                edits: 18,
                seed,
                ..SessionParams::default()
            },
        );

        let mut svc = WatchService::new(WatchConfig::default());
        for m in &modules {
            svc.open(m.name.clone(), m.clone());
        }
        let mut pending = vec![0usize; params.len()];
        for e in &stream {
            let name = params[e.module].name.clone();
            svc.submit(&name, e.op.clone()).unwrap();
            pending[e.module] += 1;
            if pending[e.module] >= batch {
                svc.check(&name).unwrap();
                pending[e.module] = 0;
            }
        }
        for (i, p) in params.iter().enumerate() {
            if pending[i] > 0 {
                svc.check(&p.name).unwrap();
            }
            let session = svc.session(&p.name).expect("session");
            let (cold_object, cold_diags) = run(&Path::Seq, &session.module().into());
            assert_eq!(
                session.object(),
                cold_object.as_deref(),
                "{}: image diverged from cold compile",
                p.name
            );
            assert_eq!(
                session.diagnostics(),
                &cold_diags[..],
                "{}: diagnostics diverged",
                p.name
            );
        }
    }
}
