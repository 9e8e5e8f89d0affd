//! Seeded Modula-2+ program generation.
//!
//! Produces semantically valid modules whose *shape* is controlled: number
//! of procedures (and how many are nested), number and nesting depth of
//! imported definition modules, and statement volume per procedure. Shape
//! is what the paper's results depend on — the speedup experiments are
//! functions of how much parallel work a program offers and how its
//! declarations flow between scopes.
//!
//! Generated programs exercise the constructs that drive the paper's
//! statistics: qualified references into imported interfaces (`Lib.C`),
//! FROM-imports, outward scope-chain references from procedure bodies to
//! module-level variables, `WITH` statements, and builtin calls.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ccm2_support::defs::DefLibrary;

/// Shape parameters for one generated module.
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Module name (must be a valid Modula-2 identifier).
    pub name: String,
    /// RNG seed: same seed, same program.
    pub seed: u64,
    /// Total procedures (top-level + nested).
    pub procedures: usize,
    /// Total definition modules imported directly or indirectly.
    pub interfaces: usize,
    /// Maximum import nesting depth (≥ 1 when `interfaces > 0`).
    pub import_depth: usize,
    /// Average statements per procedure body.
    pub stmts_per_proc: usize,
    /// Fraction of procedures nested inside another procedure.
    pub nested_ratio: f64,
    /// Seed lint-triggering shapes (unused locals, statements after
    /// RETURN, possible use-before-init, unused imports, nested re-LOCK).
    /// The module still compiles cleanly — lint findings are warnings —
    /// so these exercise the `ccm2-analysis` passes without perturbing
    /// the object image.
    pub lint_seeds: bool,
    /// Append fixed-text procedures with known interprocedural lock
    /// shapes: `LockGrabX` acquires module lock `lkX`, `LockEdgeXY`
    /// acquires `lkX` and calls `LockGrabY` (a lock-order edge — AB, BC
    /// and CA close a cycle, DE is the acyclic control), and `LockReent`
    /// calls `LockGrabA` while already holding `lkA`. RNG-independent:
    /// the rest of the module is byte-identical with the flag off.
    /// [`lock_seed_scenarios`] describes the runtime drills these shapes
    /// support.
    pub lock_seeds: bool,
}

impl GenParams {
    /// Reasonable defaults for a small module.
    pub fn small(name: &str, seed: u64) -> GenParams {
        GenParams {
            name: name.to_string(),
            seed,
            procedures: 6,
            interfaces: 4,
            import_depth: 2,
            stmts_per_proc: 12,
            nested_ratio: 0.15,
            lint_seeds: false,
            lock_seeds: false,
        }
    }
}

/// One runtime deadlock drill over the [`GenParams::lock_seeds`]
/// procedures: each simulated thread enters one seeded entry point,
/// holds its outer lock and waits for the lock its callee acquires.
/// The wait-for-graph tests build exactly this shape and check the
/// runtime verdict against the static prediction.
#[derive(Clone, Debug)]
pub struct LockScenario {
    /// Scenario name (test labels).
    pub name: &'static str,
    /// `(entry procedure, lock held, lock waited for)` per thread.
    pub threads: Vec<(&'static str, &'static str, &'static str)>,
    /// Whether this schedule deadlocks at runtime (wait-for cycle).
    pub deadlocks: bool,
    /// Locks on the runtime cycle (sorted), empty when `!deadlocks`.
    pub cycle: Vec<&'static str>,
}

/// The drill set over the seeded lock procedures. Every scenario that
/// deadlocks at runtime is also statically predicted (zero false
/// negatives): `abc-cycle` by the lock-order-cycle diagnostic,
/// `self-relock` by the cross-procedure re-LOCK diagnostic. The
/// non-deadlocking schedules are controls — `ab-bc-chain` runs two
/// thirds of a cycle the static pass still (soundly) warns about, and
/// `de-acyclic` is warning-free.
pub fn lock_seed_scenarios() -> Vec<LockScenario> {
    vec![
        LockScenario {
            name: "abc-cycle",
            threads: vec![
                ("LockEdgeAB", "lkA", "lkB"),
                ("LockEdgeBC", "lkB", "lkC"),
                ("LockEdgeCA", "lkC", "lkA"),
            ],
            deadlocks: true,
            cycle: vec!["lkA", "lkB", "lkC"],
        },
        LockScenario {
            name: "ab-bc-chain",
            threads: vec![("LockEdgeAB", "lkA", "lkB"), ("LockEdgeBC", "lkB", "lkC")],
            deadlocks: false,
            cycle: vec![],
        },
        LockScenario {
            name: "de-acyclic",
            threads: vec![("LockEdgeDE", "lkD", "lkE")],
            deadlocks: false,
            cycle: vec![],
        },
        LockScenario {
            name: "self-relock",
            threads: vec![("LockReent", "lkA", "lkA")],
            deadlocks: true,
            cycle: vec!["lkA"],
        },
    ]
}

/// A generated compilation unit: main source plus its interface library.
#[derive(Clone, Debug)]
pub struct GeneratedModule {
    /// Module name.
    pub name: String,
    /// The `M.mod` text.
    pub source: String,
    /// Definition modules (`*.def`) the module imports, transitively.
    pub defs: DefLibrary,
    /// The parameters that produced it.
    pub params: GenParams,
}

impl GeneratedModule {
    /// Total source bytes (main + interfaces) — Table 1's "Module size".
    pub fn size_bytes(&self) -> usize {
        self.source.len() + self.defs.iter().map(|(_, s)| s.len()).sum::<usize>()
    }
}

struct DefInfo {
    name: String,
    consts: Vec<String>,
    procs: Vec<String>,
    vars: Vec<String>,
}

/// Generates a module from shape parameters. Deterministic per seed.
pub fn generate(params: &GenParams) -> GeneratedModule {
    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x5eed_cafe);
    let mut defs = DefLibrary::new();
    let mut infos: Vec<DefInfo> = Vec::new();

    // ---- definition modules -------------------------------------------
    // Build a chain of `import_depth` interfaces (each importing the
    // next), then hang the remaining interfaces off random chain nodes so
    // the import graph is a tree of the requested depth (§4.4: the
    // definition modules form a tree).
    let n_defs = params.interfaces;
    let depth = params
        .import_depth
        .clamp(usize::from(n_defs > 0), n_defs.max(1));
    for k in 0..n_defs {
        let name = format!("{}Lib{}", params.name, k);
        let imports: Vec<usize> = if k + 1 < depth {
            vec![k + 1] // chain link
        } else if k >= depth && depth > 0 {
            // Attach to a random earlier-or-chain node it may import
            // (must import a *later-generated* def to avoid cycles: defs
            // k imports only defs with larger index).
            if k + 1 < n_defs && rng.gen_bool(0.35) {
                vec![k + 1]
            } else {
                vec![]
            }
        } else {
            vec![]
        };
        let n_consts = rng.gen_range(4..=12);
        let n_procs = rng.gen_range(2..=5);
        let n_vars = rng.gen_range(0..=3);
        let mut text = format!("DEFINITION MODULE {name};\n");
        for &imp in &imports {
            text.push_str(&format!("IMPORT {}Lib{};\n", params.name, imp));
        }
        let mut consts = Vec::new();
        for j in 0..n_consts {
            let cname = format!("C{k}x{j}");
            // Reference an imported constant sometimes (declaration-phase
            // qualified lookups → the DKY flows of §4.4).
            if let Some(&imp) = imports.first() {
                if j == 0 {
                    text.push_str(&format!(
                        "CONST {cname} = {}Lib{}.C{}x0 + {};\n",
                        params.name,
                        imp,
                        imp,
                        rng.gen_range(1..100)
                    ));
                    consts.push(cname);
                    continue;
                }
            }
            text.push_str(&format!("CONST {cname} = {};\n", rng.gen_range(1..1000)));
            consts.push(cname);
        }
        let mut vars = Vec::new();
        for j in 0..n_vars {
            text.push_str(&format!("VAR V{k}x{j} : INTEGER;\n"));
            vars.push(format!("V{k}x{j}"));
        }
        // An exported record type: procedure headings in the importing
        // module reference these, so heading elaboration performs
        // qualified lookups into (possibly incomplete) interface tables —
        // the §2.4/§4.4 information flow real programs exhibit.
        text.push_str(&format!("TYPE T{k} = RECORD f0, f1 : INTEGER END;\n"));
        let mut procs = Vec::new();
        for j in 0..n_procs {
            let pname = format!("P{k}x{j}");
            text.push_str(&format!("PROCEDURE {pname}(x : INTEGER) : INTEGER;\n"));
            procs.push(pname);
        }
        text.push_str(&format!("END {name}.\n"));
        defs.insert(name.clone(), text);
        infos.push(DefInfo {
            name,
            consts,
            procs,
            vars,
        });
    }

    // ---- main module -----------------------------------------------------
    let mut src = format!("IMPLEMENTATION MODULE {};\n", params.name);
    // Direct imports: the chain head plus every def not imported by
    // another def (tree roots) — plus FROM-imports for a couple of names.
    let mut direct: Vec<usize> = Vec::new();
    for k in 0..n_defs {
        let imported_by_other = (0..n_defs).any(|o| o + 1 == k && (o + 1 < depth || o >= depth));
        if !imported_by_other {
            direct.push(k);
        }
    }
    // Re-derive: simpler to import every interface directly too — legal
    // Modula-2 and common style; keeps every interface reachable.
    let _ = direct;
    let mut from_imports: Vec<(usize, String)> = Vec::new();
    let mut whole_imports: Vec<usize> = Vec::new();
    for (k, info) in infos.iter().enumerate() {
        if rng.gen_bool(0.3) && !info.consts.is_empty() {
            let c = info.consts[rng.gen_range(0..info.consts.len())].clone();
            src.push_str(&format!("FROM {} IMPORT {};\n", info.name, c));
            from_imports.push((k, c));
        } else {
            src.push_str(&format!("IMPORT {};\n", info.name));
            whole_imports.push(k);
        }
    }
    if params.lint_seeds {
        // An interface imported and never referenced (unused-import lint).
        let uname = format!("{}LibU", params.name);
        defs.insert(
            uname.clone(),
            format!("DEFINITION MODULE {uname};\nCONST UC0 = 1;\nEND {uname}.\n"),
        );
        src.push_str(&format!("IMPORT {uname};\n"));
    }
    src.push_str("CONST Scale = 3;\n");
    src.push_str("TYPE Rec = RECORD a, b : INTEGER END;\n");
    src.push_str("TYPE Arr = ARRAY [0..9] OF INTEGER;\n");
    src.push_str("VAR gTotal, gCount : INTEGER;\n");
    src.push_str("VAR gRec : Rec;\nVAR gArr : Arr;\nVAR gFlag : BOOLEAN;\n");
    // Module-level declaration volume scales with program size, and —
    // like real programs — is *interleaved* with the procedures: the main
    // module's declaration analysis is inherently serial (one
    // Parser/DeclAnalyzer task), so procedure headings released early in
    // the file run their streams while the rest of the module scope is
    // still incomplete. That overlap is what produces the paper's
    // searches-in-incomplete-outer-tables (Table 2).
    let n_module_consts = (params.procedures / 2).max(3);
    let n_module_vars = (params.procedures / 3).max(2);
    let n_module_types = (params.procedures / 8).min(12);
    // A seed portion up front so every procedure has something to refer
    // to; the rest is spread between procedures below.
    let up_front_consts = (n_module_consts / 3).max(1).min(n_module_consts);
    let mut next_const = 0usize;
    let mut next_type = 0usize;
    let mut emit_const = |src: &mut String, rng: &mut SmallRng| {
        if next_const < n_module_consts {
            src.push_str(&format!(
                "CONST MC{next_const} = {} * Scale + {next_const};\n",
                rng.gen_range(1..500)
            ));
            next_const += 1;
        }
    };
    for _ in 0..up_front_consts {
        emit_const(&mut src, &mut rng);
    }
    src.push_str("VAR mv0, mv1 : INTEGER;\n");
    let mut next_var = 2.min(n_module_vars);

    // Procedures, with the remaining module-level declarations sprinkled
    // between them.
    let n_procs = params.procedures.max(1);
    let n_nested = ((n_procs as f64) * params.nested_ratio) as usize;
    let n_top = n_procs - n_nested;
    let mut gen = ProcGen {
        rng: &mut rng,
        infos: &infos,
        whole_imports: &whole_imports,
        from_imports: &from_imports,
        declared_procs: Vec::new(),
        stmts_per_proc: params.stmts_per_proc,
        module_consts_declared: 0,
        lint_seeds: params.lint_seeds,
    };
    let mut nested_left = n_nested;
    for i in 0..n_top {
        // Spread nested procedures across early hosts.
        let nest_here = if nested_left > 0 && i < n_nested {
            nested_left -= 1;
            1
        } else {
            0
        };
        gen.module_consts_declared = next_const;
        let text = gen.procedure(i, nest_here);
        src.push_str(&text);
        // Interleave the remaining module-level declarations.
        if next_const < n_module_consts && gen.rng.gen_bool(0.6) {
            src.push_str(&format!(
                "CONST MC{next_const} = {} * Scale + {next_const};\n",
                gen.rng.gen_range(1..500)
            ));
            next_const += 1;
        }
        if next_var < n_module_vars && gen.rng.gen_bool(0.4) {
            src.push_str(&format!("VAR mv{next_var} : INTEGER;\n"));
            next_var += 1;
        }
        if next_type < n_module_types && gen.rng.gen_bool(0.3) {
            src.push_str(&format!(
                "TYPE MR{next_type} = RECORD f0, f1, f2 : INTEGER END;\n"
            ));
            next_type += 1;
        }
    }
    // Whatever was not sprinkled lands at the end (before the body).
    while next_const < n_module_consts {
        src.push_str(&format!(
            "CONST MC{next_const} = {} * Scale + {next_const};\n",
            gen.rng.gen_range(1..500)
        ));
        next_const += 1;
    }
    while next_var < n_module_vars {
        src.push_str(&format!("VAR mv{next_var} : INTEGER;\n"));
        next_var += 1;
    }
    while next_type < n_module_types {
        src.push_str(&format!(
            "TYPE MR{next_type} = RECORD f0, f1, f2 : INTEGER END;\n"
        ));
        next_type += 1;
    }

    // Lock-seed procedures: fixed text, appended after every
    // RNG-driven declaration so the rest of the module is
    // unchanged by the flag. Grabbers precede the edge procedures, so
    // every call site targets an already-declared procedure.
    if params.lock_seeds {
        src.push_str("VAR lkA, lkB, lkC, lkD, lkE : Rec;\n");
        for l in ["A", "B", "C", "E"] {
            src.push_str(&format!(
                "PROCEDURE LockGrab{l}(p0, p1 : INTEGER) : INTEGER;\nVAR l0 : INTEGER;\nBEGIN\n  LOCK lk{l} DO l0 := p0 + p1 END;\n  RETURN l0\nEND LockGrab{l};\n\n"
            ));
        }
        for (edge, held, grab) in [
            ("AB", "A", "B"),
            ("BC", "B", "C"),
            ("CA", "C", "A"),
            ("DE", "D", "E"),
        ] {
            src.push_str(&format!(
                "PROCEDURE LockEdge{edge}(p0, p1 : INTEGER) : INTEGER;\nVAR l0 : INTEGER;\nBEGIN\n  LOCK lk{held} DO l0 := LockGrab{grab}(p0, p1) END;\n  RETURN l0\nEND LockEdge{edge};\n\n"
            ));
        }
        src.push_str(
            "PROCEDURE LockReent(p0, p1 : INTEGER) : INTEGER;\nVAR l0 : INTEGER;\nBEGIN\n  LOCK lkA DO l0 := LockGrabA(p0, p1) END;\n  RETURN l0\nEND LockReent;\n\n",
        );
    }

    // Module body: one statement-analysis/code-generation task at the
    // very end of the compilation — the paper's sequential tail. Its
    // volume scales with program size.
    src.push_str("BEGIN\n  gTotal := 0; gCount := Scale;\n");
    let calls = gen.declared_procs.clone();
    for name in calls.iter().take(8) {
        src.push_str(&format!("  gTotal := gTotal + {name}(gCount, 2);\n"));
    }
    if params.lock_seeds {
        src.push_str(
            "  gTotal := gTotal + LockEdgeAB(gCount, 1) + LockEdgeBC(gCount, 2) + LockEdgeCA(gCount, 3) + LockEdgeDE(gCount, 4) + LockReent(gCount, 5);\n",
        );
    }
    let body_stmts = params.procedures * 2;
    for j in 0..body_stmts {
        match j % 4 {
            0 => src.push_str(&format!(
                "  gTotal := gTotal + MC{} ;\n",
                j % n_module_consts
            )),
            1 => src.push_str(&format!("  mv{} := gTotal MOD 97;\n", j % n_module_vars)),
            2 => src.push_str("  IF gTotal > 1000 THEN gTotal := gTotal DIV 2 END;\n"),
            _ => src.push_str("  INC(gCount);\n"),
        }
    }
    src.push_str("  WriteInt(gTotal, 0); WriteLn\n");
    src.push_str(&format!("END {}.\n", params.name));

    GeneratedModule {
        name: params.name.clone(),
        source: src,
        defs,
        params: params.clone(),
    }
}

struct ProcGen<'a> {
    rng: &'a mut SmallRng,
    infos: &'a [DefInfo],
    /// Indices of interfaces imported whole (qualified references legal).
    whole_imports: &'a [usize],
    from_imports: &'a [(usize, String)],
    /// Top-level procedures declared so far (callable from later ones).
    declared_procs: Vec<String>,
    stmts_per_proc: usize,
    /// Module-level `MC*` constants declared before the procedure being
    /// generated (bodies may reference those — outward lookups that can
    /// hit the still-incomplete module table).
    module_consts_declared: usize,
    /// Inject lint-triggering shapes into some procedures.
    lint_seeds: bool,
}

impl ProcGen<'_> {
    /// The first whole-imported interface exposing both a variable (the
    /// mutex stand-in) and a procedure — the re-entry lint seed target.
    fn reentry_target(&self) -> Option<(String, String, String)> {
        self.whole_imports
            .iter()
            .map(|&k| &self.infos[k])
            .find_map(|d| match (d.vars.first(), d.procs.first()) {
                (Some(v), Some(p)) => Some((d.name.clone(), v.clone(), p.clone())),
                _ => None,
            })
    }

    /// An integer-valued atom: literal, param, local, global, imported
    /// constant (qualified or FROM), earlier procedure call, or builtin.
    fn int_atom(&mut self, locals: &[String]) -> String {
        match self.rng.gen_range(0..10) {
            0 => format!("{}", self.rng.gen_range(0..100)),
            1 => "gTotal".to_string(),
            2 => {
                if self.module_consts_declared > 0 && self.rng.gen_bool(0.5) {
                    format!("MC{}", self.rng.gen_range(0..self.module_consts_declared))
                } else {
                    "gCount".to_string()
                }
            }
            3 | 4 => locals[self.rng.gen_range(0..locals.len())].clone(),
            5 => {
                // Qualified constant (Table 2's qualified identifiers);
                // only interfaces imported whole are addressable by name.
                if self.whole_imports.is_empty() {
                    "7".to_string()
                } else {
                    let d = &self.infos
                        [self.whole_imports[self.rng.gen_range(0..self.whole_imports.len())]];
                    if d.consts.is_empty() {
                        "5".to_string()
                    } else {
                        format!(
                            "{}.{}",
                            d.name,
                            d.consts[self.rng.gen_range(0..d.consts.len())]
                        )
                    }
                }
            }
            6 => {
                // FROM-imported name ("other" scope in Table 2).
                if self.from_imports.is_empty() {
                    "3".to_string()
                } else {
                    self.from_imports[self.rng.gen_range(0..self.from_imports.len())]
                        .1
                        .clone()
                }
            }
            7 => {
                // Call an imported procedure (qualified).
                if self.whole_imports.is_empty() {
                    "11".to_string()
                } else {
                    let d = &self.infos
                        [self.whole_imports[self.rng.gen_range(0..self.whole_imports.len())]];
                    if d.procs.is_empty() {
                        "2".to_string()
                    } else {
                        format!(
                            "{}.{}({})",
                            d.name,
                            d.procs[self.rng.gen_range(0..d.procs.len())],
                            locals[self.rng.gen_range(0..locals.len())].clone()
                        )
                    }
                }
            }
            8 => {
                // Call an earlier local procedure.
                if self.declared_procs.is_empty() {
                    "1".to_string()
                } else {
                    let p = &self.declared_procs[self.rng.gen_range(0..self.declared_procs.len())];
                    format!(
                        "{p}({}, {})",
                        locals[self.rng.gen_range(0..locals.len())],
                        self.rng.gen_range(0..10)
                    )
                }
            }
            _ => format!("ABS({})", locals[self.rng.gen_range(0..locals.len())]),
        }
    }

    fn int_expr(&mut self, locals: &[String]) -> String {
        let a = self.int_atom(locals);
        if self.rng.gen_bool(0.5) {
            let b = self.int_atom(locals);
            let op = ["+", "-", "*"][self.rng.gen_range(0..3)];
            format!("{a} {op} {b}")
        } else {
            a
        }
    }

    fn statement(&mut self, locals: &[String], depth: usize, out: &mut String, indent: &str) {
        let lhs = locals[self.rng.gen_range(0..locals.len())].clone();
        let choice = if depth >= 2 {
            0 // only simple statements deep down
        } else {
            self.rng.gen_range(0..12)
        };
        match choice {
            0..=4 => {
                let rhs = self.int_expr(locals);
                out.push_str(&format!("{indent}{lhs} := {rhs};\n"));
            }
            5 => {
                let c = self.int_expr(locals);
                out.push_str(&format!("{indent}IF {lhs} > {c} THEN\n"));
                self.statement(locals, depth + 1, out, &format!("{indent}  "));
                out.push_str(&format!("{indent}ELSE\n"));
                self.statement(locals, depth + 1, out, &format!("{indent}  "));
                out.push_str(&format!("{indent}END;\n"));
            }
            6 => {
                out.push_str(&format!("{indent}FOR {lhs} := 0 TO 9 DO\n"));
                self.statement(locals, depth + 1, out, &format!("{indent}  "));
                out.push_str(&format!("{indent}END;\n"));
            }
            7 => {
                out.push_str(&format!("{indent}WHILE {lhs} > 0 DO\n"));
                out.push_str(&format!("{indent}  {lhs} := {lhs} - 1;\n"));
                self.statement(locals, depth + 1, out, &format!("{indent}  "));
                out.push_str(&format!("{indent}END;\n"));
            }
            8 => {
                // WITH on the module-level record (outer-scope + WITH
                // statistics).
                out.push_str(&format!(
                    "{indent}WITH gRec DO a := b + {}; b := a - 1 END;\n",
                    self.rng.gen_range(1..5)
                ));
            }
            9 => {
                let v = self.int_expr(locals);
                out.push_str(&format!(
                    "{indent}CASE {lhs} MOD 3 OF 0 : {lhs} := {v} | 1 : {lhs} := 0 ELSE {lhs} := 1 END;\n"
                ));
            }
            10 => {
                out.push_str(&format!(
                    "{indent}gArr[{lhs} MOD 10] := {};\n",
                    self.int_expr(locals)
                ));
            }
            _ => {
                out.push_str(&format!("{indent}INC({lhs});\n"));
            }
        }
    }

    /// Emits a complete procedure (optionally with `nest` nested
    /// procedures inside), registers it as callable, returns its text.
    fn procedure(&mut self, index: usize, nest: usize) -> String {
        let name = format!("Proc{index}");
        // A quarter of procedures take a record parameter typed by an
        // imported interface: the heading cannot be elaborated until that
        // interface's table has the type (declaration-phase DKY flow).
        let rec_param = if !self.whole_imports.is_empty() && self.rng.gen_bool(0.25) {
            let k = self.whole_imports[self.rng.gen_range(0..self.whole_imports.len())];
            Some((self.infos[k].name.clone(), k))
        } else {
            None
        };
        let mut text = match &rec_param {
            Some((lib, k)) => format!(
                "PROCEDURE {name}(p0, p1 : INTEGER; r : {lib}.T{k}) : INTEGER;\nVAR l0, l1, l2 : INTEGER;\n"
            ),
            None => format!(
                "PROCEDURE {name}(p0, p1 : INTEGER) : INTEGER;\nVAR l0, l1, l2 : INTEGER;\n"
            ),
        };
        let seed_dead = self.lint_seeds && index.is_multiple_of(3);
        let seed_uninit = self.lint_seeds && index % 5 == 2;
        let seed_unreachable = self.lint_seeds && index % 4 == 1;
        let seed_relock = self.lint_seeds && index % 5 == 3;
        let seed_reentry = self.lint_seeds && index % 5 == 4;
        if seed_dead {
            text.push_str(&format!("VAR dead{index} : INTEGER;\n"));
        }
        if seed_uninit {
            text.push_str("VAR u0 : INTEGER;\n");
        }
        let locals: Vec<String> = ["p0", "p1", "l0", "l1", "l2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for n in 0..nest {
            // A nested procedure that reads its host's locals through the
            // static chain.
            let nname = format!("{name}N{n}");
            let mut body = String::new();
            let n_stmts = (self.stmts_per_proc / 2).max(2);
            let inner_locals: Vec<String> =
                ["q0", "m0", "m1"].iter().map(|s| s.to_string()).collect();
            for _ in 0..n_stmts {
                self.statement(&inner_locals, 1, &mut body, "    ");
            }
            text.push_str(&format!(
                "  PROCEDURE {nname}(q0 : INTEGER) : INTEGER;\n  VAR m0, m1 : INTEGER;\n  BEGIN\n    m0 := q0 + l0;\n{body}    RETURN m0 + m1\n  END {nname};\n"
            ));
        }
        text.push_str("BEGIN\n  l0 := p0 + p1; l1 := 1; l2 := 0;\n");
        if rec_param.is_some() {
            text.push_str("  l0 := l0 + r.f0 - r.f1;\n");
        }
        if seed_uninit {
            // Assigned on one branch only, then read: possible use before
            // initialization.
            text.push_str("  IF p0 > 0 THEN u0 := 1 END;\n  l1 := l1 + u0;\n");
        }
        if seed_relock {
            text.push_str("  LOCK gRec DO LOCK gRec DO l2 := l2 + 1 END END;\n");
        }
        if seed_reentry {
            // Hold an interface-owned mutex across a call back into the
            // same interface (the LOCK-discipline re-entry lint).
            if let Some((lib, v, p)) = self.reentry_target() {
                text.push_str(&format!("  LOCK {lib}.{v} DO l0 := {lib}.{p}(l0) END;\n"));
            }
        }
        let jitter = self.rng.gen_range(0..=(self.stmts_per_proc / 2).max(1));
        let n_stmts = (self.stmts_per_proc / 2 + jitter).max(2);
        let mut body = String::new();
        for _ in 0..n_stmts {
            self.statement(&locals, 0, &mut body, "  ");
        }
        text.push_str(&body);
        for n in 0..nest {
            text.push_str(&format!("  l2 := l2 + {name}N{n}(l0);\n"));
        }
        if seed_unreachable {
            text.push_str(&format!(
                "  RETURN l0 + l1 + l2;\n  l0 := 0\nEND {name};\n\n"
            ));
        } else {
            text.push_str(&format!("  RETURN l0 + l1 + l2\nEND {name};\n\n"));
        }
        if rec_param.is_none() {
            // Only two-argument procedures are registered as callable by
            // later code (call sites pass two integers).
            self.declared_procs.push(name);
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_seq::compile;

    #[test]
    fn generated_module_compiles_cleanly() {
        let m = generate(&GenParams::small("TestGen", 42));
        let out = compile(&m.source, &m.defs);
        assert!(
            out.is_ok(),
            "diagnostics: {:#?}\nsource:\n{}",
            out.diagnostics,
            m.source
        );
        assert_eq!(out.procedures as f64, m.params.procedures as f64);
        assert_eq!(out.imported_interfaces, m.params.interfaces);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&GenParams::small("Det", 7));
        let b = generate(&GenParams::small("Det", 7));
        assert_eq!(a.source, b.source);
        let c = generate(&GenParams::small("Det", 8));
        assert_ne!(a.source, c.source);
    }

    #[test]
    fn interface_count_and_depth_respected() {
        let params = GenParams {
            name: "Deep".into(),
            seed: 3,
            procedures: 4,
            interfaces: 6,
            import_depth: 4,
            stmts_per_proc: 8,
            nested_ratio: 0.0,
            lint_seeds: false,
            lock_seeds: false,
        };
        let m = generate(&params);
        let out = compile(&m.source, &m.defs);
        assert!(out.is_ok(), "{:#?}", out.diagnostics);
        assert_eq!(out.imported_interfaces, 6);
        assert!(
            out.import_nesting_depth >= 3,
            "depth {}",
            out.import_nesting_depth
        );
    }

    #[test]
    fn nested_procedures_generated() {
        let params = GenParams {
            name: "Nest".into(),
            seed: 11,
            procedures: 10,
            interfaces: 0,
            import_depth: 0,
            stmts_per_proc: 6,
            nested_ratio: 0.4,
            lint_seeds: false,
            lock_seeds: false,
        };
        let m = generate(&params);
        assert!(m.source.contains("N0("), "has nested procedures");
        let out = compile(&m.source, &m.defs);
        assert!(out.is_ok(), "{:#?}", out.diagnostics);
        assert_eq!(out.procedures, 10);
    }

    #[test]
    fn lint_seeded_modules_compile_and_trigger_every_lint() {
        let params = GenParams {
            lint_seeds: true,
            procedures: 12,
            interfaces: 3,
            import_depth: 2,
            ..GenParams::small("LintSeed", 21)
        };
        let m = generate(&params);
        let out = ccm2_seq::compile_full(
            &m.source,
            &m.defs,
            std::sync::Arc::new(ccm2_support::Interner::new()),
            std::sync::Arc::new(ccm2_support::work::NullMeter),
            ccm2_sema::declare::HeadingMode::CopyToChild,
            true,
        );
        assert!(
            out.is_ok(),
            "lint seeds must stay compile-clean: {:#?}\nsource:\n{}",
            out.diagnostics,
            m.source
        );
        let msgs: Vec<String> = out.diagnostics.iter().map(|d| d.message.clone()).collect();
        for needle in [
            "unused local declaration",
            "unreachable code after RETURN",
            "before initialization",
            "unused import",
            "nested re-LOCK",
        ] {
            assert!(
                msgs.iter().any(|m| m.contains(needle)),
                "no `{needle}` finding among {msgs:#?}\nsource:\n{}",
                m.source
            );
        }
    }

    #[test]
    fn lock_seeded_modules_compile_and_are_statically_predicted() {
        let base = GenParams::small("LockSeed", 91);
        let seeded = GenParams {
            lock_seeds: true,
            ..base.clone()
        };
        let plain = generate(&base);
        let m = generate(&seeded);
        for needle in ["LockGrabA", "LockEdgeCA", "LockReent"] {
            assert!(m.source.contains(needle), "missing `{needle}`");
        }
        // Byte-identical prefix: the seeds only append, never perturb the
        // RNG-driven part of the module.
        let split = m.source.find("VAR lkA").expect("seeds appended");
        assert_eq!(&m.source[..split], &plain.source[..split]);
        let out = ccm2_seq::compile_full(
            &m.source,
            &m.defs,
            std::sync::Arc::new(ccm2_support::Interner::new()),
            std::sync::Arc::new(ccm2_support::work::NullMeter),
            ccm2_sema::declare::HeadingMode::CopyToChild,
            true,
        );
        assert!(out.is_ok(), "{:#?}", out.diagnostics);
        let msgs: Vec<String> = out.diagnostics.iter().map(|d| d.message.clone()).collect();
        assert!(
            msgs.iter()
                .any(|m| m
                    .contains("potential deadlock: lock-order cycle among `lkA`, `lkB`, `lkC`")),
            "no cycle prediction among {msgs:#?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m
                    .contains("call to `LockSeed.LockGrabA` while holding `lkA` may re-LOCK it")),
            "no re-LOCK prediction among {msgs:#?}"
        );
        // The acyclic control contributes an edge but no finding about
        // its locks.
        assert!(
            !msgs.iter().any(|m| m.contains("`lkD`")),
            "acyclic control flagged: {msgs:#?}"
        );
        let stats = out.locks.expect("lock stats under analyze");
        assert!(stats.cycles >= 1);
        assert!(stats.edges >= 4, "edges {}", stats.edges);
    }

    #[test]
    fn many_seeds_compile() {
        for seed in 0..10 {
            let m = generate(&GenParams::small(&format!("Fuzz{seed}"), seed));
            let out = compile(&m.source, &m.defs);
            assert!(out.is_ok(), "seed {seed}: {:#?}", out.diagnostics);
        }
    }
}
