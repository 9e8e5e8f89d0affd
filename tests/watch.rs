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
//!   sequential compiler on its final sources;
//! * the interface carry a session threads from compile to compile
//!   splices the interfaces the last compile decoded without decoding
//!   them again, and changes nothing else: outputs, store traffic and
//!   quarantines are those of compiles without it.

use std::collections::HashMap;
use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, InterfaceCarry, Options};
use ccm2_codegen::emit::is_error_unit;
use ccm2_incr::MemStore;
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::interface::Interface;
use ccm2_support::defs::DefProvider;
use ccm2_support::hash::Fp128;
use ccm2_support::intern::Interner;
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
    let cases = if cfg!(debug_assertions) { 6 } else { 60 };
    for case in 0..cases {
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

// ---- the interface carry ------------------------------------------------

/// A compile of `m` against `store` under `interner`, handed `carry`
/// (`None`: a compile without one).
fn compile_carried(
    m: &GeneratedModule,
    store: &Arc<MemStore>,
    interner: &Arc<Interner>,
    carry: Option<Arc<InterfaceCarry>>,
) -> ConcurrentOutput {
    compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()) as Arc<dyn DefProvider>,
        Arc::clone(interner),
        Options {
            incremental: Some(Arc::clone(store) as _),
            interface_carry: carry,
            ..Options::threads(1)
        },
    )
}

fn carried(out: &ConcurrentOutput) -> HashMap<Fp128, Arc<Interface>> {
    let carry = out.interface_carry.as_ref().expect("handed a carry");
    carry.iter().map(|(key, i)| (key, Arc::clone(i))).collect()
}

/// Two sessions' worth of compiles side by side, one threading the
/// carry and one without it, each on a store of its own: every step
/// must answer alike, with the same counters and the same store.
struct Twins {
    interner: Arc<Interner>,
    carry: Arc<InterfaceCarry>,
    stores: [Arc<MemStore>; 2],
}

impl Twins {
    fn new() -> Twins {
        let interner = Arc::new(Interner::new());
        Twins {
            carry: Arc::new(InterfaceCarry::new(Arc::clone(&interner))),
            interner,
            stores: [Arc::new(MemStore::new()), Arc::new(MemStore::new())],
        }
    }

    /// Compiles `m` both ways, checks the two against each other and
    /// against the sequential compiler (but for the cache's own Notes),
    /// and returns the carried compile.
    fn step(&mut self, m: &GeneratedModule) -> ConcurrentOutput {
        let handed = Some(Arc::clone(&self.carry));
        let out = compile_carried(m, &self.stores[0], &self.interner, handed);
        let plain = compile_carried(m, &self.stores[1], &Arc::new(Interner::new()), None);
        assert!(
            plain.interface_carry.is_none(),
            "no carry handed, none back"
        );
        let (object, mut diags) = out.comparable();
        diags.retain(|d| !d.contains("incremental cache entry"));
        assert_eq!(
            (object, diags),
            run(&Path::Seq, &m.into()),
            "carried vs cold"
        );
        assert_eq!(plain.comparable(), out.comparable(), "carried vs uncarried");
        assert_eq!(out.incr, plain.incr, "the same splices and misses");
        let [a, b] = &self.stores;
        assert_eq!(a.stats(), b.stats(), "the same store traffic");
        assert_eq!(
            a.export(),
            b.export(),
            "the same entries in the same LRU order"
        );
        self.carry = Arc::clone(out.interface_carry.as_ref().expect("handed a carry"));
        out
    }
}

/// After a body edit every interface of the check is the one the last
/// compile decoded, the very `Arc`: nothing is decoded again.
#[test]
fn carry_splices_every_interface_of_a_body_edit_undecoded() {
    let m = generate(&GenParams::small("CarryBody", 51));
    let mut twins = Twins::new();
    let cold = twins.step(&m);
    assert!(carried(&cold).is_empty(), "a cold store splices nothing");
    let warm = twins.step(&m);
    let decoded = carried(&warm);
    let stats = warm.incr.expect("incremental");
    assert!(stats.interfaces_spliced > 0);
    assert_eq!(
        decoded.len(),
        stats.interfaces_spliced,
        "the carry is what spliced"
    );

    let edited = apply_edits(&m, &[EditOp::ProcBody { index: 1, seed: 5 }]);
    let out = twins.step(&edited);
    let now = carried(&out);
    assert_eq!(now.len(), decoded.len());
    for (key, iface) in &now {
        assert!(
            Arc::ptr_eq(iface, &decoded[key]),
            "{key:?}: decoded again instead of carried"
        );
    }
}

/// After an interface edit the edited interface and its importers are
/// parsed live, then decoded afresh by the next check; every other
/// interface stays the carried `Arc`.
#[test]
fn carry_decodes_an_edited_interface_and_its_importers_afresh() {
    let m = generate(&GenParams::small("CarryIface", 52));
    let mut twins = Twins::new();
    twins.step(&m);
    let warm = twins.step(&m);
    let before = carried(&warm);

    let def = format!("{}Lib0", m.name);
    let edited = apply_edits(&m, &[EditOp::Interface { def, tag: 7 }]);
    let out = twins.step(&edited);
    let stats = out.incr.expect("incremental");
    let live = stats.interfaces - stats.interfaces_spliced;
    assert!(live > 0, "the edited interface recompiles");
    let after_edit = carried(&out);
    assert_eq!(after_edit.len(), stats.interfaces_spliced);
    for (key, iface) in &after_edit {
        assert!(
            Arc::ptr_eq(iface, &before[key]),
            "{key:?}: untouched, carried"
        );
    }

    let body = apply_edits(&edited, &[EditOp::ProcBody { index: 0, seed: 9 }]);
    let next = twins.step(&body);
    let now = carried(&next);
    let fresh: Vec<&Fp128> = now.keys().filter(|k| !after_edit.contains_key(k)).collect();
    assert_eq!(fresh.len(), live, "exactly the live ones decode afresh");
    for key in fresh {
        assert!(!before.contains_key(key), "a new key: the edit changed it");
    }
    for (key, iface) in now.iter().filter(|(k, _)| after_edit.contains_key(k)) {
        assert!(Arc::ptr_eq(iface, &after_edit[key]), "{key:?}: carried");
    }
}

/// A carry made under another interner is ignored: every interface is
/// decoded under the compile's own, and the output is a cold compile's.
#[test]
fn carry_from_another_interner_is_ignored() {
    let m = generate(&GenParams::small("CarryForeign", 53));
    let store = Arc::new(MemStore::new());
    let theirs = Arc::new(Interner::new());
    compile_carried(&m, &store, &theirs, None);
    let empty = InterfaceCarry::new(Arc::clone(&theirs));
    let warm = compile_carried(&m, &store, &theirs, Some(Arc::new(empty)));
    let foreign = carried(&warm);
    assert!(!foreign.is_empty());

    let ours = Arc::new(Interner::new());
    let out = compile_carried(&m, &store, &ours, warm.interface_carry.clone());
    assert_eq!(out.comparable(), run(&Path::Seq, &(&m).into()));
    let decoded = carried(&out);
    assert_eq!(
        decoded.len(),
        foreign.len(),
        "every interface still splices"
    );
    for (key, iface) in &decoded {
        assert!(
            !Arc::ptr_eq(iface, &foreign[key]),
            "{key:?}: foreign reused"
        );
    }
}

/// An interface entry damaged in the store between two checks is
/// quarantined with the same Note whether or not the compile carries
/// the interface it held: the envelope is opened either way.
#[test]
fn carry_quarantines_a_damaged_interface_like_an_uncarried_compile() {
    let m = generate(&GenParams::small("CarryDamage", 54));
    let mut twins = Twins::new();
    twins.step(&m);
    let warm = twins.step(&m);
    let decoded = carried(&warm);
    let mut keys: Vec<Fp128> = decoded.keys().copied().collect();
    keys.sort();
    for store in &twins.stores {
        assert!(store.corrupt(keys[0], 20), "the interface is stored");
    }
    let edited = apply_edits(&m, &[EditOp::ProcBody { index: 2, seed: 3 }]);
    let out = twins.step(&edited);
    let (_, diags) = out.comparable();
    assert!(
        diags
            .iter()
            .any(|d| d.contains("ignored: checksum mismatch")),
        "{diags:#?}"
    );
    assert_eq!(twins.stores[0].stats().quarantined, 1);
    assert!(
        !carried(&out).contains_key(&keys[0]),
        "a quarantined one is not carried"
    );
}

/// `object()` is encoded on demand from the kept image: after a compiled
/// revision and after a deduped one it is a cold compile's.
#[test]
fn object_on_demand_equals_a_cold_compile() {
    let m = generate(&GenParams::small("WObject", 55));
    let mut svc = WatchService::new(WatchConfig::default());
    svc.open("p", m);
    let cold = |svc: &WatchService| run(&Path::Seq, &svc.session("p").unwrap().module().into());
    svc.submit("p", EditOp::ProcBody { index: 1, seed: 4 })
        .unwrap();
    assert!(!svc.check("p").unwrap().deduped);
    // Not read before the deduped revision: encoded from the kept image.
    assert!(svc.check("p").unwrap().deduped);
    let want = cold(&svc);
    let session = svc.session("p").unwrap();
    assert_eq!(session.object(), want.0.as_deref());
    assert_eq!(session.object(), want.0.as_deref(), "a second read");

    svc.submit("p", EditOp::BreakBody { index: 0, seed: 6 })
        .unwrap();
    assert!(!svc.check("p").unwrap().clean);
    let want = cold(&svc);
    assert_eq!(svc.session("p").unwrap().object(), want.0.as_deref());
    assert!(svc.check("p").unwrap().deduped);
    assert_eq!(svc.session("p").unwrap().object(), want.0.as_deref());
}
