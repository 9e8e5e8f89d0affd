//! The drill kit: the one harness every drill in this crate, and every
//! root test of the same behaviour, is written with.
//!
//! * [`requests`] — a serve load as [`CompileRequest`]s.
//! * [`Oracle`] — the reference bytes: `(object, diagnostics)` per
//!   unique request fingerprint from a direct `compile_concurrent` (no
//!   service, no store, no fleet).
//! * [`drive`] — the shed-and-resubmit wave protocol against anything
//!   that [`Serves`] a batch, with the hang guard and the byte
//!   comparison inside.
//! * [`ccm2_support::within`] — the hang guard for anything else that
//!   could block.
//! * [`compile`], [`unit_map`], [`baselines`], [`quietly`] — the
//!   fault-matrix harness.
//! * [`Scratch`] — a scratch directory that removes itself on drop.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
use ccm2_fabric::{FabricClient, FabricResponse, FabricRouter};
use ccm2_faults::FaultPlan;
use ccm2_sched::SimConfig;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, Response};
use ccm2_support::hash::Fp128;
use ccm2_support::Interner;
use ccm2_workload::{GeneratedModule, ServeEvent};

/// What a client can observe of one served request: `ok`, the object
/// bytes, the rendered diagnostics.
pub type Observed = (bool, Option<Vec<u8>>, Vec<String>);

/// The requests a serve load stands for, on `exec`; everything else is
/// [`CompileRequest::new`]'s default.
pub fn requests(events: &[ServeEvent], exec: ExecChoice) -> Vec<CompileRequest> {
    let request = |e: &ServeEvent| {
        let mut req = CompileRequest::new(
            e.client,
            e.module.name.clone(),
            e.module.source.clone(),
            Arc::new(e.module.defs.clone()),
        );
        req.exec = exec;
        req
    };
    events.iter().map(request).collect()
}

/// The reference answers for a set of requests, by fingerprint.
pub struct Oracle(HashMap<Fp128, (Option<Vec<u8>>, Vec<String>)>);

impl Oracle {
    /// Compiles each distinct request of `reqs` directly.
    pub fn of(reqs: &[CompileRequest]) -> Oracle {
        let mut answers = HashMap::new();
        for req in reqs {
            answers
                .entry(req.fingerprint())
                .or_insert_with(|| Oracle::reference(req));
        }
        Oracle(answers)
    }

    /// A serviceless, storeless compile of `req`, in the comparable
    /// encoding the service reports.
    pub fn reference(req: &CompileRequest) -> (Option<Vec<u8>>, Vec<String>) {
        let out = compile_concurrent(
            &req.source,
            Arc::clone(&req.defs) as Arc<dyn ccm2_support::defs::DefProvider>,
            Arc::new(Interner::new()),
            Options {
                strategy: req.strategy,
                executor: req.exec.to_executor(),
                analyze: req.analyze,
                ..Options::default()
            },
        );
        ccm2_incr::comparable_output(
            out.image.as_ref(),
            &out.diagnostics,
            &out.sources,
            &out.interner,
        )
    }
}

/// Anything that answers a batch of requests, each with an outcome or
/// with a shed (`None`: back off and resubmit).
pub trait Serves {
    /// One wave: `batch[i]`'s answer at index `i`.
    fn serve_wave(&self, batch: &[CompileRequest]) -> Vec<Option<Observed>>;
}

impl Serves for CompileService {
    fn serve_wave(&self, batch: &[CompileRequest]) -> Vec<Option<Observed>> {
        self.serve_batch(batch.to_vec())
            .into_iter()
            .map(|resp| match resp {
                Response::Done(o) => Some((o.ok, o.object.clone(), o.diagnostics.clone())),
                Response::Retry => None,
            })
            .collect()
    }
}

fn fleet_answers(responses: Vec<FabricResponse>) -> Vec<Option<Observed>> {
    responses
        .into_iter()
        .map(|resp| match resp {
            FabricResponse::Done(o) => Some((o.ok, o.object, o.diagnostics)),
            FabricResponse::Retry { .. } => None,
        })
        .collect()
}

impl Serves for FabricRouter {
    fn serve_wave(&self, batch: &[CompileRequest]) -> Vec<Option<Observed>> {
        fleet_answers(self.serve_batch(batch))
    }
}

impl Serves for FabricClient {
    fn serve_wave(&self, batch: &[CompileRequest]) -> Vec<Option<Observed>> {
        fleet_answers(self.serve_batch(batch))
    }
}

/// Serves `reqs` through `server` with the client back-off protocol:
/// what a wave sheds goes into the next. These waves are the drills'
/// retry loop: a service answers a shed once, at once (a
/// [`FabricClient`] also retries inside a wave). Every request must come
/// back within `1 + reqs.len()` waves (the hang guard), clean, and with the
/// oracle's bytes. Returns the number of waves and what was observed,
/// in request order.
pub fn drive(
    server: &(impl Serves + ?Sized),
    reqs: &[CompileRequest],
    oracle: &Oracle,
) -> (usize, Vec<Observed>) {
    let mut seen: Vec<Option<Observed>> = vec![None; reqs.len()];
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    let mut waves = 0usize;
    while !pending.is_empty() {
        waves += 1;
        assert!(
            waves <= 1 + reqs.len(),
            "shed requests must drain (hang): {} of {} still unserved after {} waves",
            pending.len(),
            reqs.len(),
            waves - 1
        );
        let batch: Vec<CompileRequest> = pending.iter().map(|&i| reqs[i].clone()).collect();
        let asked = std::mem::take(&mut pending);
        for (i, answer) in asked.into_iter().zip(server.serve_wave(&batch)) {
            let Some((ok, object, diagnostics)) = answer else {
                pending.push(i);
                continue;
            };
            assert!(ok, "{}: {diagnostics:?}", reqs[i].module);
            let (want_object, want_diagnostics) = &oracle.0[&reqs[i].fingerprint()];
            assert!(
                object == *want_object && diagnostics == *want_diagnostics,
                "served bytes diverged from the reference compile for {}",
                reqs[i].module
            );
            seen[i] = Some((ok, object, diagnostics));
        }
    }
    let seen = seen.into_iter().map(|o| o.expect("served")).collect();
    (waves, seen)
}

/// A fresh directory under the system temp directory, removed with
/// everything in it when the guard drops — also when a drill panics.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `ccm2-{tag}-{pid}-{n}`, `n` counting the guards this
    /// process has made, so drills running side by side never share.
    pub fn new(tag: &str) -> Scratch {
        static MADE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = MADE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ccm2-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- fault-matrix harness -------------------------------------------------

/// The small fault-seeded module (`FaultShort`, `FaultLong`,
/// `FaultNest` procedures) the fault and recovery matrices compile.
pub fn fault_module(name: &str, seed: u64) -> GeneratedModule {
    ccm2_workload::generate(&ccm2_workload::GenParams {
        fault_seeds: true,
        ..ccm2_workload::GenParams::small(name, seed)
    })
}

/// `sim(4)` or `threads(2)`: the two executors of the matrices.
pub fn exec_name(sim: bool) -> &'static str {
    if sim {
        "sim(4)"
    } else {
        "threads(2)"
    }
}

/// One analyzing compile of `m` under a fault plan, on `sim(4)` or
/// `threads(2)`.
pub fn compile(
    m: &GeneratedModule,
    plan: Option<Arc<FaultPlan>>,
    strategy: DkyStrategy,
    sim: bool,
) -> ConcurrentOutput {
    let executor = if sim {
        Executor::Sim(SimConfig::firefly(4))
    } else {
        Executor::Threads(2)
    };
    compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        Options {
            strategy,
            executor,
            analyze: true,
            faults: plan,
            ..Options::default()
        },
    )
}

/// An interner-independent rendering of one code unit, so units from
/// different compiles (different interners, different symbol indices)
/// can be compared byte for byte.
fn render_unit(u: &ccm2_codegen::ir::CodeUnit, interner: &Interner) -> String {
    use ccm2_codegen::ir::Instr;
    let mut s = format!(
        "{} level={} params={} frame={:?} shapes={:?}\n",
        interner.resolve(u.name),
        u.level,
        u.param_count,
        u.frame,
        u.shapes
    );
    for ins in &u.code {
        match ins {
            Instr::PushStr(sym) => s.push_str(&format!("PushStr({})\n", interner.resolve(*sym))),
            Instr::PushProc(sym) => s.push_str(&format!("PushProc({})\n", interner.resolve(*sym))),
            Instr::PushGlobalAddr { module, slot } => s.push_str(&format!(
                "PushGlobalAddr({}, {slot})\n",
                interner.resolve(*module)
            )),
            Instr::Call {
                target,
                argc,
                link_up,
            } => s.push_str(&format!(
                "Call({}, {argc}, {link_up})\n",
                interner.resolve(*target)
            )),
            other => s.push_str(&format!("{other:?}\n")),
        }
    }
    s
}

/// Resolved unit name → rendered unit.
pub type UnitMap = HashMap<String, String>;

/// The units of a compile's image (which must exist), rendered
/// comparably.
pub fn unit_map(out: &ConcurrentOutput) -> UnitMap {
    let image = out.image.as_ref().expect("the compile merged an image");
    image
        .units
        .iter()
        .map(|u| (out.interner.resolve(u.name), render_unit(u, &out.interner)))
        .collect()
}

/// Fault-free unit maps of `m`, one per DKY strategy × executor.
pub fn baselines(m: &GeneratedModule) -> HashMap<(DkyStrategy, bool), UnitMap> {
    let mut maps = HashMap::new();
    for strategy in DkyStrategy::ALL {
        for sim in [true, false] {
            let base = compile(m, None, strategy, sim);
            assert!(
                base.errors.is_empty() && base.image.is_some(),
                "fault-free baseline must be clean"
            );
            maps.insert((strategy, sim), unit_map(&base));
        }
    }
    maps
}

/// `catch_unwind` with the panic hook silenced meanwhile: for a run
/// whose panic is an expected outcome, not news for stderr.
pub fn silenced<T>(run: impl FnOnce() -> T + std::panic::UnwindSafe) -> std::thread::Result<T> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(run);
    std::panic::set_hook(hook);
    result
}

/// Runs a matrix whose injected panics are *caught* (that is the point
/// of the drill) with the default panic hook silenced, so it does not
/// spray backtraces over the report. A failure of the matrix itself
/// still reaches stderr, under `what`, before it unwinds on.
pub fn quietly<T>(what: &str, matrix: impl FnOnce() -> T + std::panic::UnwindSafe) -> T {
    silenced(matrix).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        if let Some(msg) = msg {
            eprintln!("{what} failed: {msg}");
        }
        std::panic::resume_unwind(payload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_workload::{serve_load, ServeLoadParams};

    fn load(events: usize) -> Vec<CompileRequest> {
        let params = ServeLoadParams {
            seed: 0x417,
            projects: 1,
            clients: 2,
            events,
            edit_every: 0,
            interface_every: 2,
        };
        requests(&serve_load(&params), ExecChoice::Sim(2))
    }

    /// A server whose queue is always full.
    struct AlwaysSheds;

    impl Serves for AlwaysSheds {
        fn serve_wave(&self, batch: &[CompileRequest]) -> Vec<Option<Observed>> {
            vec![None; batch.len()]
        }
    }

    #[test]
    #[should_panic(
        expected = "shed requests must drain (hang): 3 of 3 still unserved after 4 waves"
    )]
    fn drive_gives_up_on_a_server_that_always_sheds() {
        let reqs = load(3);
        drive(&AlwaysSheds, &reqs, &Oracle::of(&reqs));
    }

    #[test]
    #[should_panic(expected = "served bytes diverged from the reference compile for")]
    fn drive_reports_bytes_that_differ_from_the_oracle() {
        let reqs = load(2);
        let Oracle(mut answers) = Oracle::of(&reqs);
        for (object, _) in answers.values_mut() {
            object.as_mut().expect("clean compile")[0] ^= 1;
        }
        let svc = CompileService::start(ccm2_serve::ServeConfig::default());
        drive(&svc, &reqs, &Oracle(answers));
    }

    #[test]
    fn drive_returns_what_a_service_served_in_request_order() {
        let reqs = load(4);
        let oracle = Oracle::of(&reqs);
        let svc = CompileService::start(ccm2_serve::ServeConfig::default());
        let (waves, seen) = drive(&svc, &reqs, &oracle);
        assert_eq!(waves, 1, "nothing sheds an idle service");
        assert_eq!(seen.len(), reqs.len());
        for (req, (ok, object, diagnostics)) in reqs.iter().zip(seen) {
            assert!(ok);
            assert_eq!((object, diagnostics), Oracle::reference(req));
        }
    }

    #[test]
    fn scratch_removes_itself_even_when_the_drill_panics() {
        let kept = std::panic::catch_unwind(|| {
            let scratch = Scratch::new("kit-test");
            std::fs::write(scratch.join("file"), b"x").expect("writable");
            let path = scratch.join("");
            assert!(path.is_dir());
            std::panic::resume_unwind(Box::new(path));
        })
        .expect_err("the drill unwound");
        let path = kept.downcast::<PathBuf>().expect("the path came back");
        assert!(!path.exists(), "{path:?} outlived its guard");
    }
}
