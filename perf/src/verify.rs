//! Output checks whose references the compiler under test did not
//! produce.
//!
//! * Every object image is compared byte for byte (`encode_image` plus
//!   rendered diagnostics) with what the *sequential* compiler
//!   `ccm2_seq::compile` makes of the same sources.
//! * Three hand-written programs with hand-written expected output are
//!   compiled by every path (sequential, threads, warm-spliced,
//!   service, fabric) and executed on `ccm2-vm`. The service and the
//!   fabric return encoded object bytes, for which the repository has
//!   no decoder; their bytes must equal the encoding of the image that
//!   was executed.

use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, Options};
use ccm2_codegen::merge::ModuleImage;
use ccm2_incr::{comparable_output, ArtifactStore, MemStore};
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::Interner;
use ccm2_vm::Vm;

use crate::workloads::fabric_tcp::Fleet;

/// Encoded object image and rendered diagnostics: what two compilers
/// must agree on.
pub type Comparable = (Option<Vec<u8>>, Vec<String>);

/// The comparable form of a sequential compile.
fn comparable_seq(out: &ccm2_seq::CompileOutput) -> Comparable {
    comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

/// What the sequential compiler makes of `source`.
pub fn reference(source: &str, defs: &DefLibrary) -> Comparable {
    comparable_seq(&ccm2_seq::compile(source, defs))
}

/// The comparable form of a concurrent compile.
pub fn comparable(out: &ConcurrentOutput) -> Comparable {
    comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

/// Whether a service or fabric answer equals the reference.
pub fn matches(object: &Option<Vec<u8>>, diagnostics: &[String], want: &Comparable) -> bool {
    *object == want.0 && diagnostics == want.1.as_slice()
}

/// A hand-written program and the output it must print.
pub struct Program {
    pub name: &'static str,
    pub source: &'static str,
    pub expected: &'static str,
}

/// The programs under `perf/programs/`.
pub const PROGRAMS: [Program; 3] = [
    Program {
        name: "collatz",
        source: include_str!("../programs/collatz.mod"),
        expected: include_str!("../programs/collatz.expected"),
    },
    Program {
        name: "ledger",
        source: include_str!("../programs/ledger.mod"),
        expected: include_str!("../programs/ledger.expected"),
    },
    Program {
        name: "grid",
        source: include_str!("../programs/grid.mod"),
        expected: include_str!("../programs/grid.expected"),
    },
];

/// The interface library the programs import from.
pub fn program_defs() -> DefLibrary {
    let mut lib = DefLibrary::new();
    lib.insert("Limits", include_str!("../programs/Limits.def"));
    lib
}

fn runs_to(image: Option<&ModuleImage>, interner: &Arc<Interner>, expected: &str) -> bool {
    let Some(image) = image else { return false };
    matches!(Vm::new(Arc::clone(interner)).run(image), Ok(text) if text == expected)
}

/// What [`check_programs`] found.
pub struct ProgramChecks {
    pub checks: u64,
    /// `program:path` of every check that failed.
    pub failures: Vec<String>,
    /// Warm compiles of unchanged sources that spliced nothing and had
    /// to be asked again (see the `warm` check).
    pub warm_retries: u64,
}

/// Compiles every program by every path and runs it.
pub fn check_programs(w: usize) -> ProgramChecks {
    let defs = Arc::new(program_defs());
    let provider = || Arc::clone(&defs) as Arc<dyn DefProvider>;
    let mut failures = Vec::new();
    let mut checks = 0u64;
    let mut warm_retries = 0u64;
    let mut check = |path: &str, p: &Program, ok: bool| {
        checks += 1;
        if !ok {
            failures.push(format!("{}:{path}", p.name));
        }
    };

    let service = CompileService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let fleet = Fleet::start(2, ServeConfig::default(), None);
    for p in &PROGRAMS {
        let seq = ccm2_seq::compile(p.source, &*defs);
        check(
            "seq",
            p,
            seq.is_ok() && runs_to(seq.image.as_ref(), &seq.interner, p.expected),
        );
        // The bytes of the image that just ran: what the paths that
        // return encoded objects are held to.
        let ran = comparable_seq(&seq);

        let threads = compile_concurrent(
            p.source,
            provider(),
            Arc::new(Interner::new()),
            Options::threads(w),
        );
        check(
            "threads",
            p,
            threads.is_ok() && runs_to(threads.image.as_ref(), &threads.interner, p.expected),
        );

        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let warm = |_| {
            compile_concurrent(
                p.source,
                provider(),
                Arc::new(Interner::new()),
                Options {
                    incremental: Some(Arc::clone(&store)),
                    ..Options::threads(w)
                },
            )
        };
        // The first compile fills the store. Now and then a compile of
        // unchanged sources finds nothing to splice and runs cold (seen
        // under load: `hits: 0` on a filled store), so ask a few times
        // for the fully spliced image this check is about, and count
        // the extra asks so that the flake stays visible.
        let spliced = (0..6)
            .map(warm)
            .enumerate()
            .find(|(_, out)| out.incr.is_some_and(|i| i.spliced == i.units));
        // Compile 0 fills the store and compile 1 is the first warm one.
        warm_retries += spliced
            .as_ref()
            .map_or(4, |(asked, _)| asked.saturating_sub(1) as u64);
        check(
            "warm",
            p,
            spliced.is_some_and(|(_, out)| {
                out.is_ok() && runs_to(out.image.as_ref(), &out.interner, p.expected)
            }),
        );

        let mut req = CompileRequest::new(0, p.name, p.source, Arc::clone(&defs));
        req.exec = ExecChoice::Threads(1);
        let served = service.submit(req.clone()).ticket().map(|t| t.wait());
        check(
            "service",
            p,
            served.is_some_and(|o| o.ok && matches(&o.object, &o.diagnostics, &ran)),
        );

        let routed = fleet.client.serve(&req);
        check(
            "fabric",
            p,
            routed
                .outcome()
                .is_some_and(|o| o.ok && matches(&o.object, &o.diagnostics, &ran)),
        );
    }
    ProgramChecks {
        checks,
        failures,
        warm_retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_runs_to_its_expected_output_on_every_path() {
        let found = check_programs(2);
        assert_eq!(found.checks, 15);
        assert!(found.failures.is_empty(), "{:?}", found.failures);
    }

    #[test]
    fn a_wrong_expectation_is_caught() {
        let defs = program_defs();
        let p = &PROGRAMS[0];
        let out = ccm2_seq::compile(p.source, &defs);
        assert!(runs_to(out.image.as_ref(), &out.interner, p.expected));
        assert!(!runs_to(
            out.image.as_ref(),
            &out.interner,
            "something else\n"
        ));
        assert!(!runs_to(None, &out.interner, p.expected));
    }

    #[test]
    fn sequential_and_concurrent_outputs_are_comparable() {
        let defs = program_defs();
        let p = &PROGRAMS[1];
        let want = reference(p.source, &defs);
        let got = compile_concurrent(
            p.source,
            Arc::new(defs),
            Arc::new(Interner::new()),
            Options::threads(2),
        );
        assert_eq!(comparable(&got), want);
        assert!(matches(&want.0, &want.1, &want));
        assert!(!matches(&None, &want.1, &want));
    }
}
