//! `ccm2c` — the concurrent Modula-2+ compiler, as a command-line tool.
//!
//! ```text
//! ccm2c [options] <module.mod>
//!
//!   --workers N        compile on N OS-thread workers (default 2)
//!   --sim P            compile on P simulated processors (deterministic;
//!                      prints virtual time)
//!   --seq              use the sequential baseline compiler
//!   --strategy S       DKY strategy: avoidance|pessimistic|skeptical|optimistic
//!   --headings MODE    heading flow: copy|reprocess   (paper §2.4 alt 1/3)
//!   --disasm           print the merged image's disassembly
//!   --run              execute the compiled module on the VM
//!   --watchtool        print the processor-activity snapshot (--sim only)
//!   --stats            print identifier-lookup statistics (Table 2 form)
//! ```
//!
//! Imported definition modules are resolved as `<Name>.def` files in the
//! same directory as the main module.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use ccm2::{compile_concurrent, Executor, Options};
use ccm2_sched::{render_watchtool, SimConfig};
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefProvider;
use ccm2_support::Interner;
use ccm2_vm::Vm;

/// Resolves `Name.def` files from the main module's directory.
struct DirProvider {
    dir: PathBuf,
}

impl DefProvider for DirProvider {
    fn definition_source(&self, name: &str) -> Option<String> {
        std::fs::read_to_string(self.dir.join(format!("{name}.def"))).ok()
    }
}

struct Args {
    input: PathBuf,
    workers: usize,
    sim: Option<u32>,
    seq: bool,
    strategy: DkyStrategy,
    headings: HeadingMode,
    disasm: bool,
    run: bool,
    watchtool: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ccm2c [--workers N | --sim P | --seq] [--strategy S] \
         [--headings copy|reprocess] [--disasm] [--run] [--watchtool] [--stats] <module.mod>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        input: PathBuf::new(),
        workers: 2,
        sim: None,
        seq: false,
        strategy: DkyStrategy::Skeptical,
        headings: HeadingMode::CopyToChild,
        disasm: false,
        run: false,
        watchtool: false,
        stats: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--sim" => {
                args.sim = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--seq" => args.seq = true,
            "--strategy" => {
                args.strategy = match it.next().as_deref() {
                    Some("avoidance") => DkyStrategy::Avoidance,
                    Some("pessimistic") => DkyStrategy::Pessimistic,
                    Some("skeptical") => DkyStrategy::Skeptical,
                    Some("optimistic") => DkyStrategy::Optimistic,
                    _ => usage(),
                }
            }
            "--headings" => {
                args.headings = match it.next().as_deref() {
                    Some("copy") => HeadingMode::CopyToChild,
                    Some("reprocess") => HeadingMode::Reprocess,
                    _ => usage(),
                }
            }
            "--disasm" => args.disasm = true,
            "--run" => args.run = true,
            "--watchtool" => args.watchtool = true,
            "--stats" => args.stats = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && args.input.as_os_str().is_empty() => {
                args.input = PathBuf::from(other)
            }
            _ => usage(),
        }
    }
    if args.input.as_os_str().is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let source = match std::fs::read_to_string(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccm2c: cannot read {}: {e}", args.input.display());
            return ExitCode::from(2);
        }
    };
    let dir = args
        .input
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf();
    let provider = Arc::new(DirProvider { dir });
    let interner = Arc::new(Interner::new());

    if args.seq {
        let out = ccm2_seq::compile_with(
            &source,
            provider.as_ref(),
            Arc::clone(&interner),
            Arc::new(ccm2_support::NullMeter),
            args.headings,
        );
        return finishing(
            out.image,
            out.diagnostics,
            &out.sources,
            interner,
            &args,
            None,
        );
    }

    let executor = match args.sim {
        Some(p) => Executor::Sim(SimConfig::firefly(p)),
        None => Executor::Threads(args.workers.max(1)),
    };
    let options = Options {
        strategy: args.strategy,
        heading_mode: args.headings,
        executor,
        ..Options::default()
    };
    let out = compile_concurrent(&source, provider, Arc::clone(&interner), options);

    if let Some(vt) = out.report.virtual_time {
        eprintln!(
            "compiled {} streams ({} procedures, {} interfaces) in {vt} virtual units on {} processors",
            out.streams,
            out.procedures,
            out.imported_interfaces,
            args.sim.unwrap_or(0),
        );
    } else {
        eprintln!(
            "compiled {} streams ({} procedures, {} interfaces) in {:.1} ms on {} workers",
            out.streams,
            out.procedures,
            out.imported_interfaces,
            out.report.wall_micros as f64 / 1000.0,
            args.workers,
        );
    }
    if args.watchtool {
        let procs = args.sim.unwrap_or(args.workers as u32);
        println!("{}", render_watchtool(&out.report.trace, procs, 110));
    }
    if args.stats {
        println!(
            "simple identifier lookups ({} total):",
            out.stats.simple_total()
        );
        for (label, n, pct) in out.stats.simple_rows() {
            println!("  {label:<33} {n:>8}  {pct:>5.2}%");
        }
        println!("qualified lookups ({} total):", out.stats.qualified_total());
        for (label, n, pct) in out.stats.qualified_rows() {
            println!("  {label:<25} {n:>8}  {pct:>5.2}%");
        }
        println!("DKY blockages: {}", out.stats.dky_blockages());
    }
    finishing(
        out.image,
        out.diagnostics,
        &out.sources,
        interner,
        &args,
        out.report.virtual_time,
    )
}

fn finishing(
    image: Option<ccm2_codegen::merge::ModuleImage>,
    diagnostics: Vec<ccm2_support::Diagnostic>,
    sources: &ccm2_support::SourceMap,
    interner: Arc<Interner>,
    args: &Args,
    _vt: Option<u64>,
) -> ExitCode {
    let had_errors = diagnostics
        .iter()
        .any(|d| d.severity == ccm2_support::Severity::Error);
    for d in &diagnostics {
        let (file, pos) = sources
            .get(d.file)
            .map(|f| (f.name().to_string(), f.line_col(d.span.lo).to_string()))
            .unwrap_or_else(|| (format!("file#{}", d.file.0), String::from("?")));
        eprintln!("{file}:{pos}: {}: {}", d.severity, d.message);
    }
    let Some(image) = image else {
        return ExitCode::FAILURE;
    };
    if had_errors {
        return ExitCode::FAILURE;
    }
    if args.disasm {
        println!("{}", image.disassemble(&interner));
    }
    if args.run {
        match Vm::new(interner).run(&image) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("ccm2c: runtime error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
