//! The contract, and the one oracle it is checked against.
//!
//! Every compile path answers a program with the sequential compiler's
//! bytes: *sequential ≡ concurrent × 4 DKY strategies × executors ≡
//! warm ≡ service ≡ fabric*. A [`Path`] names one of them, [`run`] asks
//! it for its [`Comparable`] answer, and [`Path::Seq`] is the oracle.
//! A differential test is then a corpus × paths × budget:
//!
//! * corpora — the suite ([`suite`]), the hand-written import chain
//!   ([`chain`]), seeded body and declaration mutants of suite modules
//!   ([`Mutants`]), and the hand-written rows the test files hold;
//! * paths — [`Path::all`] (every strategy on every executor, the
//!   no-early-split ablation included), those of them that keep a cache
//!   warm ([`Path::warm`]), a service ([`Path::service`]) and a fleet
//!   ([`Path::fabric`]);
//! * budget — [`CASES`] mutants per corpus: 200 in a debug build and
//!   20 000 optimized, so `ci.sh` runs the same rows a hundred times
//!   larger.
//!
//! [`agree`] runs one program on many paths; [`Mutants::differential`]
//! draws seeded mutants and runs each on the next path in turn. The
//! service and the fleet answer through `ccm2_bench::kit`'s [`Serves`],
//! the one interface a drill serves a request through.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ccm2::{compile_concurrent, ConcurrentOutput, Options};
use ccm2_bench::kit::Serves;
use ccm2_fabric::Fabric;
use ccm2_incr::{comparable_output, ArtifactStore, MemStore};
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig};
use ccm2_support::defs::{DefLibrary, DefProvider};
use ccm2_support::hash::StableHasher;
use ccm2_support::source::SourceMap;
use ccm2_support::{DiagnosticSink, Interner, NullMeter};
use ccm2_syntax::token::TokenKind;
use ccm2_workload::GeneratedModule;

/// What a path answers: the object image in the interner-independent
/// encoding, and the rendered diagnostics in the order the compile
/// reported them — diagnostic order is part of the contract.
pub type Comparable = (Option<Vec<u8>>, Vec<String>);

/// A compile's output, seen the way the contract compares it.
pub trait Output {
    /// The [`Comparable`] form: `ccm2_incr::comparable_output`, the
    /// encoding the service reports.
    fn comparable(&self) -> Comparable;
}

impl Output for ConcurrentOutput {
    fn comparable(&self) -> Comparable {
        comparable_output(
            self.image.as_ref(),
            &self.diagnostics,
            &self.sources,
            &self.interner,
        )
    }
}

impl Output for ccm2_seq::CompileOutput {
    fn comparable(&self) -> Comparable {
        comparable_output(
            self.image.as_ref(),
            &self.diagnostics,
            &self.sources,
            &self.interner,
        )
    }
}

/// A program and the settings every path must honour alike.
#[derive(Clone, Debug)]
pub struct Program {
    /// The module's name: reporting, and the key of its [`Fills`].
    pub name: String,
    /// The `M.mod` text.
    pub source: String,
    /// The interfaces it imports.
    pub defs: Arc<DefLibrary>,
    /// Run the dataflow and lock-order analyses.
    pub analyze: bool,
    /// The §2.4 heading mode.
    pub heading: HeadingMode,
}

impl Program {
    /// `source` over `defs`, named `Main`, unanalyzed, in the default
    /// heading mode.
    pub fn new(source: impl Into<String>, defs: DefLibrary) -> Program {
        Program {
            name: "Main".into(),
            source: source.into(),
            defs: Arc::new(defs),
            analyze: false,
            heading: HeadingMode::default(),
        }
    }

    /// The same program with the analyses on.
    pub fn analyzed(self) -> Program {
        Program {
            analyze: true,
            ..self
        }
    }

    /// The sequential compiler's output.
    pub fn seq(&self) -> ccm2_seq::CompileOutput {
        ccm2_seq::compile_full(
            &self.source,
            &*self.defs,
            Arc::new(Interner::new()),
            Arc::new(NullMeter),
            self.heading,
            self.analyze,
        )
    }

    /// A concurrent compile under `options`, with the program's own
    /// analysis flag and heading mode, on a fresh interner.
    pub fn compile(&self, options: Options) -> ConcurrentOutput {
        compile_concurrent(
            &self.source,
            Arc::clone(&self.defs) as Arc<dyn DefProvider>,
            Arc::new(Interner::new()),
            Options {
                analyze: self.analyze,
                heading_mode: self.heading,
                ..options
            },
        )
    }

    /// [`Program::compile`] against `store`: it splices what the store
    /// holds and records what it compiles.
    pub fn compile_into(
        &self,
        store: Arc<dyn ArtifactStore>,
        options: Options,
    ) -> ConcurrentOutput {
        self.compile(Options {
            incremental: Some(store),
            ..options
        })
    }
}

impl From<GeneratedModule> for Program {
    fn from(m: GeneratedModule) -> Program {
        Program {
            name: m.name,
            source: m.source,
            defs: Arc::new(m.defs),
            analyze: false,
            heading: HeadingMode::default(),
        }
    }
}

impl From<&GeneratedModule> for Program {
    fn from(m: &GeneratedModule) -> Program {
        Program::from(m.clone())
    }
}

/// An executor of the concurrent compiler, and who finds the procedures
/// on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// The Splitter does (§2.1).
    Split(ExecChoice),
    /// The ablation: the parser does. It keeps no cache.
    NoEarlySplit(ExecChoice),
}

impl Exec {
    /// The executors of [`Path::all`].
    pub const ALL: [Exec; 4] = [
        Exec::Split(ExecChoice::Sim(4)),
        Exec::Split(ExecChoice::Threads(1)),
        Exec::Split(ExecChoice::Threads(2)),
        Exec::NoEarlySplit(ExecChoice::Threads(2)),
    ];

    fn options(self) -> Options {
        let (Exec::Split(on) | Exec::NoEarlySplit(on)) = self;
        Options {
            executor: on.to_executor(),
            early_split: matches!(self, Exec::Split(_)),
            ..Options::default()
        }
    }
}

impl fmt::Display for Exec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exec::Split(on) => f.write_str(&on.name()),
            Exec::NoEarlySplit(on) => write!(f, "{} without early split", on.name()),
        }
    }
}

/// One way to compile a program.
#[derive(Clone)]
pub enum Path {
    /// The oracle: `ccm2_seq`.
    Seq,
    /// The concurrent compiler, cold.
    Concurrent {
        /// DKY strategy (§2.2).
        strategy: DkyStrategy,
        /// Executor.
        executor: Exec,
    },
    /// The concurrent compiler against a copy of the store a cold
    /// compile of the program's module filled: of itself, or of the
    /// module a mutant was drawn from.
    Warm {
        /// The filled stores, by module name.
        filled_from: Arc<Fills>,
        /// DKY strategy (§2.2).
        strategy: DkyStrategy,
        /// Executor.
        executor: Exec,
    },
    /// One compile service; its shared store outlives each request.
    Service(Arc<CompileService>),
    /// A three-shard loopback fleet behind its router.
    Fabric(Arc<Fabric>),
}

impl Path {
    /// Every DKY strategy on every executor of [`Exec::ALL`]: the one
    /// list of both.
    pub fn all() -> Vec<Path> {
        Exec::ALL.iter().flat_map(|&e| Path::all_on(e)).collect()
    }

    /// Every DKY strategy on `executor`.
    pub fn all_on(executor: Exec) -> Vec<Path> {
        let path = |strategy| Path::Concurrent { strategy, executor };
        DkyStrategy::ALL.map(path).to_vec()
    }

    /// The default strategy on `executor`.
    pub fn on(executor: Exec) -> Path {
        Path::Concurrent {
            strategy: Options::default().strategy,
            executor,
        }
    }

    /// The paths of [`Path::all`] that keep a cache, warm from
    /// `filled_from`.
    pub fn warm(filled_from: &Arc<Fills>) -> Vec<Path> {
        let cached = Path::all().into_iter().filter(Path::caches);
        cached.map(|p| p.warmed(filled_from)).collect()
    }

    /// A fresh service with the fleet's [`config`].
    pub fn service() -> Path {
        Path::Service(Arc::new(CompileService::start(config())))
    }

    /// A fresh three-shard loopback fleet with [`config`].
    pub fn fabric() -> Path {
        Path::Fabric(Arc::new(Fabric::start(3, config())))
    }

    /// Whether a compile on this concurrent path consults a store (the
    /// no-early-split ablation does not).
    pub fn caches(&self) -> bool {
        match self {
            Path::Concurrent { executor, .. } | Path::Warm { executor, .. } => {
                !matches!(executor, Exec::NoEarlySplit(_))
            }
            _ => false,
        }
    }

    /// This concurrent path, warm from `filled_from`.
    fn warmed(self, filled_from: &Arc<Fills>) -> Path {
        let Path::Concurrent { strategy, executor } = self else {
            panic!("only a concurrent path compiles warm, not {self}");
        };
        Path::Warm {
            filled_from: Arc::clone(filled_from),
            strategy,
            executor,
        }
    }

    /// The compile options of a concurrent or warm path (a warm path's
    /// without its store).
    pub fn options(&self) -> Options {
        match self {
            Path::Concurrent { strategy, executor }
            | Path::Warm {
                strategy, executor, ..
            } => Options {
                strategy: *strategy,
                ..executor.options()
            },
            _ => panic!("{self} takes no compile options"),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Seq => write!(f, "seq"),
            Path::Concurrent { strategy, executor } => write!(f, "{executor} {}", strategy.name()),
            Path::Warm {
                strategy, executor, ..
            } => write!(f, "warm {executor} {}", strategy.name()),
            Path::Service(_) => write!(f, "service"),
            Path::Fabric(_) => write!(f, "fabric"),
        }
    }
}

/// Stores that cold compiles filled, one per module name. A warm path
/// compiles against a copy, so every run starts from the same store.
#[derive(Debug)]
pub struct Fills(HashMap<String, Arc<MemStore>>);

impl Fills {
    /// One store per program, filled by its cold compile on
    /// `threads(2)`.
    pub fn of(programs: &[Program]) -> Arc<Fills> {
        let fill = |p: &Program| {
            let store = Arc::new(MemStore::new());
            let out = p.compile_into(store.clone(), Options::threads(2));
            assert!(out.is_ok(), "{}: {:?}", p.name, out.diagnostics);
            (p.name.clone(), store)
        };
        Arc::new(Fills(programs.iter().map(fill).collect()))
    }

    fn copy(&self, name: &str) -> Arc<MemStore> {
        let filled = &self.0[name];
        let copy = Arc::new(MemStore::new());
        copy.import(&filled.export());
        copy
    }
}

/// `program`'s answer on `path`.
pub fn run(path: &Path, program: &Program) -> Comparable {
    match path {
        Path::Seq => program.seq().comparable(),
        Path::Concurrent { .. } => program.compile(path.options()).comparable(),
        Path::Warm { filled_from, .. } => {
            let store = filled_from.copy(&program.name);
            let out = program.compile_into(store, path.options());
            // One unit per stream the Splitter created: a carve of its
            // own that differs from the scan's is an error diagnostic.
            let units = out.incr.expect("incremental was active").units;
            assert_eq!(units, out.procedures + 1, "units against streams");
            out.comparable()
        }
        Path::Service(service) => served(&**service, program),
        Path::Fabric(fleet) => served(fleet.router(), program),
    }
}

/// What `server` answers for one request of `program`.
fn served(server: &impl Serves, program: &Program) -> Comparable {
    assert_eq!(
        program.heading,
        HeadingMode::default(),
        "a request carries no heading mode"
    );
    let mut req = CompileRequest::new(0, &program.name, &program.source, Arc::clone(&program.defs));
    req.analyze = program.analyze;
    let answer = server.serve_wave(&[req]).pop().flatten();
    let (_, object, diagnostics) = answer.expect("one request alone is never shed");
    (object, diagnostics)
}

/// Where `path` departs from `oracle` on `program`, if it does.
fn departs(program: &Program, path: &Path, oracle: &Comparable) -> Option<String> {
    let answer = run(path, program);
    if answer.1 != oracle.1 {
        let (want, got) = (&oracle.1, &answer.1);
        return Some(format!(
            "diagnostics differ:\nseq  {want:#?}\n{path} {got:#?}"
        ));
    }
    (answer.0 != oracle.0).then(|| "object images differ".to_string())
}

/// Runs `program` on each of `paths` and returns the oracle's answer;
/// each path must give it byte for byte.
pub fn agree<'a>(program: &Program, paths: impl IntoIterator<Item = &'a Path>) -> Comparable {
    let oracle = run(&Path::Seq, program);
    for path in paths {
        if let Some(e) = departs(program, path, &oracle) {
            panic!("{} on {path}:\n{}\n{e}", program.name, program.source);
        }
    }
    oracle
}

// ---- fleets ---------------------------------------------------------------

/// The configuration of every service and shard the root tests start:
/// two workers, a 64-deep queue and a 64 KiB store.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    }
}

// ---- corpora --------------------------------------------------------------

/// The 37 suite modules.
pub fn suite() -> Vec<Program> {
    let suite = ccm2_workload::generate_suite();
    suite.into_iter().map(Program::from).collect()
}

/// The deepest definition module of the hand-written import chain
/// (`programs/chain/`).
pub const CHAIN_BASE: &str = include_str!("../programs/chain/Base.def");
/// What the chain's program prints, worked out by hand.
pub const CHAIN_EXPECTED: &str = include_str!("../programs/chain/Main.expected");

/// The chain's main module over its interfaces, with `base` as
/// `Base.def`.
pub fn chain(base: &str) -> Program {
    let mut defs = DefLibrary::new();
    defs.insert("Base", base);
    defs.insert("Colors", include_str!("../programs/chain/Colors.def"));
    defs.insert("Shapes", include_str!("../programs/chain/Shapes.def"));
    Program::new(include_str!("../programs/chain/Main.mod"), defs)
}

/// The definition modules a compile parsed live, by the names of their
/// Parser/DeclAnalyzer tasks.
pub fn parsed_live(out: &ConcurrentOutput) -> BTreeSet<String> {
    let segments = out.report.trace.segments.iter();
    segments
        .filter_map(|s| s.name.strip_prefix("defparse(")?.strip_suffix(')'))
        .map(str::to_string)
        .collect()
}

// ---- mutants --------------------------------------------------------------

/// Mutants per corpus: an optimized build runs a hundred times more.
const CASES: u64 = if cfg!(debug_assertions) { 200 } else { 20_000 };

/// Seeded token mutations of the first four suite modules, confined to
/// one part of each: a token deleted, duplicated or swapped with its
/// successor.
pub struct Mutants {
    /// The unmutated modules.
    pub modules: Vec<Program>,
    /// Per module, the byte spans of the tokens a mutation may hit.
    sites: Vec<Vec<(usize, usize)>>,
    /// Which part they lie in, for reports.
    part: &'static str,
}

impl Mutants {
    /// Mutants of module and procedure bodies: from the token after a
    /// `BEGIN` through the `END` that closes its scope.
    pub fn bodies() -> Mutants {
        Mutants::of("body", body_token_spans)
    }

    /// Mutants of declaration parts and procedure headings.
    pub fn declarations() -> Mutants {
        Mutants::of("declaration", declaration_token_spans)
    }

    fn of(part: &'static str, sites: fn(&str) -> Vec<(usize, usize)>) -> Mutants {
        let modules: Vec<Program> = (0..4)
            .map(|i| ccm2_workload::generate(&ccm2_workload::suite_params(i)).into())
            .collect();
        let sites = modules.iter().map(|m| sites(&m.source)).collect();
        Mutants {
            modules,
            sites,
            part,
        }
    }

    /// The next mutant `state` draws — module, token, operation — and
    /// what it is, for a report.
    fn draw(&self, state: &mut u64) -> (Program, String) {
        let m = (splitmix(state) % self.modules.len() as u64) as usize;
        let spans = &self.sites[m];
        let at = (splitmix(state) % (spans.len() as u64 - 1)) as usize;
        let op = splitmix(state) % 3;
        let module = &self.modules[m];
        let (lo, hi) = spans[at];
        let what = format!(
            "{} {} token {at} `{}` {}",
            module.name,
            self.part,
            &module.source[lo..hi],
            ["deleted", "duplicated", "swapped"][op as usize],
        );
        let source = mutate(&module.source, spans, at, op);
        (
            Program {
                source,
                ..module.clone()
            },
            what,
        )
    }

    /// [`CASES`] mutants drawn from `seed`, case `k` on `paths[k mod
    /// len]` against the oracle: none may panic, and each must answer
    /// with the sequential compiler's bytes.
    pub fn differential(&self, seed: u64, paths: &[Path]) {
        let (mut panics, mut divergences) = (Vec::new(), Vec::new());
        let mut state = seed;
        for case in 0..CASES {
            let (program, what) = self.draw(&mut state);
            let path = &paths[case as usize % paths.len()];
            let what = format!("case {case}: {what} on {path}");
            let run = catch_unwind(AssertUnwindSafe(|| {
                departs(&program, path, &run(&Path::Seq, &program))
            }));
            match run {
                Ok(None) => {}
                Ok(Some(e)) => divergences.push(format!("{what}\n{e}")),
                Err(payload) => panics.push(format!("{what}: {}", panic_message(&*payload))),
            }
        }
        assert!(
            panics.is_empty() && divergences.is_empty(),
            "{} panics, {} divergences in {CASES} mutants\n{}\n{}",
            panics.len(),
            divergences.len(),
            panics.join("\n"),
            divergences[..divergences.len().min(3)].join("\n\n"),
        );
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panicked")
}

/// One step of the splitmix64 generator the mutants are drawn from.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `source` with the token at `spans[at]` deleted (`op` 0), duplicated
/// (1) or swapped with the token after it (2; deleted instead when the
/// next token of `spans` is not its neighbour).
fn mutate(source: &str, spans: &[(usize, usize)], at: usize, op: u64) -> String {
    let (lo, hi) = spans[at];
    let (nlo, nhi) = spans[at + 1];
    let (tok, next) = (&source[lo..hi], &source[nlo..nhi]);
    match op {
        0 => format!("{} {}", &source[..lo], &source[hi..]),
        1 => format!("{} {tok}{}", &source[..hi], &source[hi..]),
        // Tokens with more than blanks between them are not neighbours.
        _ if !source[hi..nlo].trim().is_empty() => format!("{} {}", &source[..lo], &source[hi..]),
        _ => format!(
            "{}{next} {} {tok}{}",
            &source[..lo],
            &source[hi..nlo],
            &source[nhi..]
        ),
    }
}

/// The tokens of `source`, lexed on their own.
fn tokens(source: &str) -> Vec<ccm2_syntax::token::Token> {
    let map = SourceMap::new();
    let file = map.add("M.mod", source);
    ccm2_syntax::lex_file(&file, &Interner::new(), &DiagnosticSink::new())
}

/// Byte spans of the tokens of `source` inside a module or procedure
/// body: from the token after its `BEGIN` through the `END` that closes
/// its scope, in source order.
fn body_token_spans(source: &str) -> Vec<(usize, usize)> {
    let tokens = tokens(source);
    // One entry per open scope: its depth of open END-closed blocks, and
    // whether its body has begun.
    let mut scopes = vec![(0i64, false)];
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let declares = matches!(tokens.get(i + 1).map(|t| t.kind), Some(TokenKind::Ident(_)));
        let Some((depth, in_body)) = scopes.last_mut() else {
            break;
        };
        if *in_body {
            out.push((t.span.lo as usize, t.span.hi as usize));
        }
        match t.kind {
            TokenKind::Procedure if declares && !*in_body => scopes.push((0, false)),
            TokenKind::Begin if *depth == 0 => *in_body = true,
            TokenKind::End if *depth == 0 => {
                scopes.pop();
            }
            TokenKind::End => *depth -= 1,
            TokenKind::Module => {}
            k if k.opens_end_block() => *depth += 1,
            _ => {}
        }
    }
    out
}

/// Byte spans of the tokens of `source` that lie in a declaration part
/// (from the first CONST/TYPE/VAR/PROCEDURE of a scope up to its BEGIN)
/// or in a procedure heading, in source order. A scope's body and the
/// `END name ;` closing it are left out, as are the module header and
/// its imports.
fn declaration_token_spans(source: &str) -> Vec<(usize, usize)> {
    let tokens = tokens(source);
    // One frame per open scope: `None` while in its declaration part
    // (after its first declaration keyword), `Some(depth)` in its body.
    let mut frames: Vec<Option<i64>> = vec![None];
    let (mut started, mut records, mut out) = (false, 0i64, Vec::new());
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i];
        let span = (t.span.lo as usize, t.span.hi as usize);
        let next_is_ident = matches!(tokens.get(i + 1).map(|t| t.kind), Some(TokenKind::Ident(_)));
        match (frames.last().copied().flatten(), t.kind) {
            (None, TokenKind::Procedure) if next_is_ident => {
                // The heading, through its `;` at paren depth 0.
                let mut parens = 0i64;
                while let Some(h) = tokens.get(i) {
                    out.push((h.span.lo as usize, h.span.hi as usize));
                    i += 1;
                    match h.kind {
                        TokenKind::LParen => parens += 1,
                        TokenKind::RParen => parens -= 1,
                        TokenKind::Semi if parens <= 0 => break,
                        _ => {}
                    }
                }
                started = true;
                frames.push(None);
                continue;
            }
            (None, TokenKind::Begin) => *frames.last_mut().expect("frame") = Some(0),
            (None, TokenKind::Record) => {
                records += 1;
                out.push(span);
            }
            (None, TokenKind::End) if records > 0 => {
                records -= 1;
                out.push(span);
            }
            (None, TokenKind::End) | (Some(0), TokenKind::End) => {
                // The scope ends: skip `END name ;`.
                frames.pop();
                i += 1;
                while matches!(
                    tokens.get(i).map(|t| t.kind),
                    Some(TokenKind::Ident(_) | TokenKind::Semi)
                ) {
                    let semi = tokens[i].kind == TokenKind::Semi;
                    i += 1;
                    if semi {
                        break;
                    }
                }
                continue;
            }
            (Some(d), TokenKind::End) => *frames.last_mut().expect("frame") = Some(d - 1),
            (Some(d), k) if k.opens_end_block() => *frames.last_mut().expect("frame") = Some(d + 1),
            (Some(_), _) => {}
            (None, TokenKind::Const | TokenKind::Type | TokenKind::Var) => {
                started = true;
                out.push(span);
            }
            (None, _) if started => out.push(span),
            (None, _) => {}
        }
        i += 1;
    }
    out
}

// ---- the output pin -------------------------------------------------------

/// Names a renamed identifier may take besides the module's own: MIN, MAX
/// and VAL (which take a type), other builtins, a type, a constant, the
/// procedure every suite module starts with, and a name declared nowhere.
const RENAMES: [&str; 10] = [
    "MIN", "MAX", "VAL", "ABS", "INC", "INTEGER", "CHAR", "TRUE", "Proc0", "Ghost",
];

/// The error paths of statement analysis the pinned mutants must reach,
/// each as a piece of its diagnostic.
pub const REACHED: [&str; 6] = [
    "is not a variable",
    "undeclared identifier",
    "is not exported",
    "arguments, found",
    "MIN/MAX",
    "VAL",
];

/// The oracle's answers for the suite, then for [`CASES`] seeded
/// mutants of the bodies of [`Mutants::bodies`]' modules, folded into
/// one digest. A mutant is `mutate`'s three operations, or a fourth
/// that renames an identifier to another name the module uses or (as
/// often) to one of [`RENAMES`]; a rename keeps the body parseable, so
/// it reaches the statement analyzer's error paths. Returns the digest
/// and, per piece of [`REACHED`], how many mutants reported it.
pub fn output_pin() -> (String, [usize; REACHED.len()]) {
    let mut digest = StableHasher::new();
    let mut fold = |answer: &Comparable| {
        let object = answer.0.as_ref().map(|bytes| [&[1], &bytes[..]].concat());
        digest.write(&object.unwrap_or_default());
        digest.write_u64(answer.1.len() as u64);
        for d in &answer.1 {
            digest.write_str(d);
        }
    };
    for program in suite() {
        fold(&run(&Path::Seq, &program));
    }
    let corpus = Mutants::bodies();
    let names: Vec<_> = corpus
        .modules
        .iter()
        .map(|m| identifiers(&m.source))
        .collect();
    let mut reached = [0usize; REACHED.len()];
    let mut state = 0x29_u64;
    for _ in 0..CASES {
        let m = (splitmix(&mut state) % corpus.modules.len() as u64) as usize;
        let (module, spans) = (&corpus.modules[m], &corpus.sites[m]);
        let source = &module.source;
        let op = splitmix(&mut state) % 5;
        let source = if op < 3 {
            let at = (splitmix(&mut state) % (spans.len() as u64 - 1)) as usize;
            mutate(source, spans, at, op)
        } else {
            // Half the renames are of a name that is called.
            let (idents, vocabulary) = &names[m];
            let called = |&&(_, hi): &&(usize, usize)| source[hi..].starts_with('(');
            let body: Vec<_> = spans
                .iter()
                .filter(|s| idents.contains(s) && (op == 3 || called(s)))
                .collect();
            let (lo, hi) = *body[(splitmix(&mut state) % body.len() as u64) as usize];
            // Half take one of the module's names, half one of RENAMES.
            let pick = splitmix(&mut state) as usize;
            let name = match pick % 2 {
                0 => &vocabulary[pick / 2 % vocabulary.len()],
                _ => RENAMES[pick / 2 % RENAMES.len()],
            };
            format!("{}{name}{}", &source[..lo], &source[hi..])
        };
        let answer = run(
            &Path::Seq,
            &Program {
                source,
                ..module.clone()
            },
        );
        fold(&answer);
        for (count, piece) in reached.iter_mut().zip(REACHED) {
            *count += usize::from(answer.1.iter().any(|d| d.contains(piece)));
        }
    }
    (digest.finish().to_hex(), reached)
}

/// The byte spans of `source`'s identifier tokens, and its distinct
/// identifiers in sorted order.
fn identifiers(source: &str) -> (HashSet<(usize, usize)>, Vec<String>) {
    let spans: HashSet<_> = tokens(source)
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Ident(_)))
        .map(|t| (t.span.lo as usize, t.span.hi as usize))
        .collect();
    let names: BTreeSet<_> = spans
        .iter()
        .map(|&(lo, hi)| source[lo..hi].to_string())
        .collect();
    (spans, names.into_iter().collect())
}
