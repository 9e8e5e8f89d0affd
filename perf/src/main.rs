//! `ccm2-perf`: the repository's wall-clock benchmark, from
//! `compile_concurrent` to `FabricClient`. See `perf/README.md`.
//!
//! ```text
//! ccm2-perf --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
//! ccm2-perf [--seed N] [--seconds S]                           every workload, untraced then traced
//! ccm2-perf --counts [--seed N] [--seconds S]                  exact counters twice; fail if any differs
//! ```

mod alloc_count;
mod decor;
mod harness;
mod inputs;
mod layers;
mod metrics;
mod span;
mod stats;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

use harness::{BatchStat, Ctx, Report, Window, UNTRACED_ROUNDS};
use metrics::{Kind, END_TO_END, PER_LAYER};
use span::{Span, Tracer, NONE};
use stats::{median, percentile, sorted};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        counts: false,
        out_dir: PathBuf::from("perf/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--counts" => args.counts = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `min(available_parallelism, 4)`: the worker and client count every
/// result is stamped with.
fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// The hand-written programs through every path, which every run
/// starts with.
fn program_checks(ctx: &Ctx) -> Report {
    let found = verify::check_programs(ctx.w);
    let mut report = Report {
        attempted: found.checks,
        failed: found.failures.len() as u64,
        ..Report::default()
    };
    for f in found.failures {
        report.notes.push(format!("program check failed: {f}"));
    }
    if found.warm_retries > 0 {
        report.notes.push(format!(
            "{} warm compiles of unchanged sources spliced nothing and were asked again",
            found.warm_retries
        ));
    }
    report
}

/// An untraced run: rounds that share `seconds`, each continuing the
/// input streams where the one before stopped.
fn run_untraced(workload: &Workload, seconds: f64, ctx: &Ctx) -> Report {
    let mut report = program_checks(ctx);
    let wall = Duration::from_secs_f64(seconds / UNTRACED_ROUNDS as f64);
    for round in 0..UNTRACED_ROUNDS {
        let mut win = Window::timed(wall, round as u64);
        let setup = (workload.round)(ctx, &mut win, &mut report.layers);
        report.setup_done(setup, &win);
        report.absorb(&win);
    }
    report
}

/// A traced run: the same `ops` ops three times, the traced round
/// between two untraced ones. A later round of a process is slower
/// than an earlier one (memory the driver does not give back), and
/// the mean of the rounds either side cancels that drift.
fn run_traced(workload: &Workload, ops: u64, ctx: &Ctx) -> Report {
    let mut report = program_checks(ctx);
    let tracer = Arc::new(Tracer::new());
    let mut rounds = [
        Window::counted(ops, None),
        Window::counted(ops, Some(Arc::clone(&tracer))),
        Window::counted(ops, None),
    ];
    for win in &mut rounds {
        let setup = (workload.round)(ctx, win, &mut report.layers);
        report.setup_done(setup, win);
    }
    let [before, traced, after] = rounds;
    report.absorb_checks(&before);
    report.absorb(&traced);
    report.absorb_checks(&after);
    let layers = &mut report.layers;

    let done = traced.lat_us.len().max(1) as f64;
    let untraced_s = (before.wall + after.wall).as_secs_f64() / 2.0;
    layers.insert(
        "trace.overhead_share",
        traced.wall.as_secs_f64() / untraced_s.max(1e-9) - 1.0,
    );
    layers.insert("alloc.count_per_op", traced.allocs as f64 / done);
    layers.insert("alloc.bytes_per_op", traced.alloc_bytes as f64 / done);
    // Memory the first, untraced round kept per op after its first
    // batch (the traced round also keeps its spans).
    if let [(first_ops, first), .., (last_ops, last)] = before.mem[..] {
        layers.insert(
            "proc.rss_growth_kb_per_op",
            (last.rss_kb as f64 - first.rss_kb as f64) / (last_ops - first_ops).max(1) as f64,
        );
    }
    layers.insert("client.ops", traced.lat_us.len() as f64);
    let lat = sorted(traced.lat_us.clone());
    if !lat.is_empty() {
        layers.insert("client.latency_p99_ms", ms(percentile(&lat, 0.99)));
        layers.insert("client.latency_max_ms", ms(lat[lat.len() - 1]));
    }
    let spans = tracer.finish();
    let clients = if workload.multi_client { ctx.w } else { 1 };
    let coverage = top_level_ns(&spans, workload.top_span) as f64
        / (traced.wall.as_nanos().max(1) as f64 * clients as f64);
    report.layers.insert("trace.span_coverage", coverage);
    if (coverage - 1.0).abs() > 0.05 {
        report.notes.push(format!(
            "top-level `{}` spans cover {coverage:.3} of the clients' window time",
            workload.top_span
        ));
    }
    let path = ctx.out_dir.join(format!("{}.trace.json", workload.name));
    match span::write_json(&path, &spans) {
        Ok(()) => report
            .notes
            .push(format!("{} spans in {}", spans.len(), path.display())),
        Err(e) => report
            .notes
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    report
}

/// Time covered by the parentless spans named `top` (equally: the sum
/// of the self times of those spans and everything under them).
fn top_level_ns(spans: &[Span], top: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == top && s.parent == NONE)
        .map(Span::dur_ns)
        .sum()
}

/// The per-layer metrics of a traced run by name.
fn layer_values(report: &Report) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// The median of `values`, 0 when there is none (every round skipped).
fn median_or_zero(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The end-to-end metrics of an untraced run by name. Each timing is
/// the median, over the batches of all rounds, of the batch's own
/// figure; `at_reference` scales every time by the host speed measured
/// beside it first (a batch's, or for a set-up that of the window after
/// it), and without it the figures are as the clock read them.
fn end_to_end_values(
    report: &Report,
    at_reference: bool,
) -> Vec<(&'static str, &'static str, f64)> {
    let scale = |speed: f64| if at_reference { speed } else { 1.0 };
    let over_batches =
        |f: &dyn Fn(&BatchStat) -> f64| median_or_zero(report.batches.iter().map(f).collect());
    let value = |name: &str| match name {
        "setup_s" => median_or_zero(
            report
                .setups
                .iter()
                .map(|&(seconds, speed)| seconds * scale(speed))
                .collect(),
        ),
        "ops_per_s" => {
            over_batches(&|b| b.ops as f64 / (b.wall.as_secs_f64() * scale(b.speed)).max(1e-9))
        }
        "latency_p50_ms" => over_batches(&|b| ms(b.p50_us) * scale(b.speed)),
        "latency_p95_ms" => over_batches(&|b| ms(b.p95_us) * scale(b.speed)),
        "cpu_ms_per_op" => {
            over_batches(&|b| b.cpu.as_secs_f64() * 1e3 * scale(b.speed) / b.ops as f64)
        }
        // After the run's first batch: see `perf/README.md`.
        "peak_rss_mb" => report
            .first_batch_mem
            .map_or(0.0, |mem| mem.hwm_kb as f64 / 1024.0),
        other => unreachable!("no end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect()
}

/// A JSON number: the shortest text that reads back as `v`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        w: parallelism(),
        out_dir: args.out_dir.clone(),
    };
    let report = if args.trace {
        run_traced(workload, (workload.trace_ops)(args.seconds), &ctx)
    } else {
        run_untraced(workload, args.seconds, &ctx)
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "run workload={} seed={} seconds={} trace={} W={} ops={} rounds={} commit={} rustc={:?}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.w,
        report.ops(),
        report.setups.len(),
        env("CCM2_PERF_COMMIT"),
        env("CCM2_PERF_RUSTC"),
    );
    for note in &report.notes {
        println!("note {note}");
    }
    let values = if args.trace {
        layer_values(&report)
    } else {
        // What the clock read, before the scaling to the reference host.
        for (name, unit, v) in end_to_end_values(&report, false) {
            println!("measured {name} {} {unit}", json_number(v));
        }
        let speeds = report.batches.iter().map(|b| b.speed).collect();
        println!(
            "host speed {} of the reference host's, median of {} batches",
            json_number(median_or_zero(speeds)),
            report.batches.len()
        );
        end_to_end_values(&report, true)
    };
    for (name, unit, v) in &values {
        println!("metric {name} {} {unit}", json_number(*v));
    }
    let attempted = report.attempted.max(1);
    let failed = report.failed.min(attempted);
    // ISSUE 11's seventh end-to-end metric. It reads 0, so it is a
    // line here and `failed` / `attempted` in the result, not a metric
    // of `BENCHMARK.json` (those may never read 0).
    println!(
        "metric failed_share {} ratio",
        json_number(failed as f64 / attempted as f64)
    );
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary again for one workload, in a process of its own so
/// that peak RSS, mappings and allocation counts are the workload's
/// alone. Echoes the child's output; returns its `metric` lines and
/// whether it succeeded.
fn child(workload: &str, trace: bool, args: &Args) -> (BTreeMap<String, String>, bool) {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    // Only stdout is piped: the child's stderr stays this process's,
    // and its lines are echoed as they come.
    let mut child = cmd.spawn().expect("spawn own binary");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut metrics = BTreeMap::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("the child prints UTF-8");
        println!("{line}");
        let mut words = line.split(' ');
        if words.next() == Some("metric") {
            if let (Some(name), Some(value)) = (words.next(), words.next()) {
                metrics.insert(name.to_string(), value.to_string());
            }
        }
    }
    let status = child.wait().expect("the child was spawned");
    (metrics, status.success())
}

/// Every workload, untraced then traced.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &workloads::ALL {
        for trace in [false, true] {
            ok &= child(w.name, trace, args).1;
        }
    }
    println!("all workloads {}", if ok { "correct" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload's traced round twice and compares the counters
/// that must repeat exactly.
fn run_counts(args: &Args) -> ExitCode {
    let mut differing = Vec::new();
    let mut ok = true;
    for w in &workloads::ALL {
        let (first, ok1) = child(w.name, true, args);
        let (second, ok2) = child(w.name, true, args);
        ok &= ok1 && ok2;
        for (name, _, kind) in PER_LAYER {
            if kind == Kind::Exact && first.get(name) != second.get(name) {
                differing.push(format!(
                    "{}: {name} {:?} then {:?}",
                    w.name,
                    first.get(name),
                    second.get(name)
                ));
            }
        }
    }
    for d in &differing {
        println!("counter differs {d}");
    }
    println!(
        "exact counters: {} differ, runs {}",
        differing.len(),
        if ok { "correct" } else { "FAILED" }
    );
    if ok && differing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccm2-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.counts {
        return run_counts(&args);
    }
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    match workloads::ALL.iter().find(|w| w.name == name) {
        Some(workload) => run_one(workload, &args),
        None => {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            eprintln!("ccm2-perf: no workload {name}; choose one of {names:?}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "warm_edit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("warm_edit"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args(&["--trace", "1"]).expect("parses").trace);
        assert!(
            args(&["--trace", "--seed", "3"]).expect("parses").trace,
            "bare --trace"
        );
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    fn layer(report: &Report, name: &str) -> f64 {
        report.layers.get(name).copied().unwrap_or(0.0)
    }

    fn workload(name: &str) -> &'static Workload {
        workloads::ALL
            .iter()
            .find(|w| w.name == name)
            .expect("known workload")
    }

    fn ctx() -> Ctx {
        Ctx {
            seed: 3,
            w: 2,
            out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join("test"),
        }
    }

    /// A traced run of `ops` ops a round: every workload's round runs
    /// both untraced and traced.
    fn smoke(name: &str, ops: u64) -> Report {
        let _serial = alloc_count::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let report = run_traced(workload(name), ops, &ctx());
        assert_eq!(report.failed, 0, "{name}: {:?}", report.notes);
        assert_eq!(report.ops() as u64, ops, "{name}");
        assert!(report.attempted >= 3 * ops, "{name}: three rounds checked");
        let values = layer_values(&report);
        assert!(values.iter().all(|(_, _, v)| v.is_finite()), "{name}");
        assert!(
            report.batches.iter().all(|b| b.speed == 1.0),
            "{name}: traced rounds run no slices"
        );
        report
    }

    #[test]
    fn an_untraced_run_yields_every_end_to_end_metric() {
        let _serial = alloc_count::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Far less than a batch takes: one batch a round.
        let report = run_untraced(workload("warm_edit"), 0.005, &ctx());
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        assert_eq!(report.setups.len(), UNTRACED_ROUNDS);
        assert_eq!(report.batches.len(), UNTRACED_ROUNDS);
        assert_eq!(report.ops(), 37 * UNTRACED_ROUNDS);
        for at_reference in [false, true] {
            let values = end_to_end_values(&report, at_reference);
            assert_eq!(values.len(), END_TO_END.len());
            assert!(
                values.iter().all(|(_, _, v)| v.is_finite() && *v > 0.0),
                "{values:?}"
            );
        }
        assert!(report.batches.iter().all(|b| b.speed != 1.0), "calibrated");
    }

    #[test]
    fn timings_are_medians_over_batches_scaled_to_the_reference_host() {
        let batch = |ops, wall_ms, cpu_ms, p50_us, p95_us, speed| BatchStat {
            ops,
            wall: Duration::from_millis(wall_ms),
            cpu: Duration::from_millis(cpu_ms),
            p50_us,
            p95_us,
            speed,
        };
        let report = Report {
            // The same work on a quiet host, on one at 80 % of its speed
            // and on one at half of it.
            batches: vec![
                batch(100, 1000, 1600, 8_000, 20_000, 1.0),
                batch(100, 1250, 2000, 10_000, 25_000, 0.8),
                batch(100, 2000, 3200, 16_000, 40_000, 0.5),
            ],
            setups: vec![(2.0, 0.5), (1.0, 1.0), (1.25, 0.8)],
            ..Report::default()
        };
        let get = |at_reference, name| {
            let values = end_to_end_values(&report, at_reference);
            let found = values.iter().find(|(n, _, _)| *n == name);
            found.expect("an end-to-end metric").2
        };
        assert_eq!(get(false, "ops_per_s"), 80.0);
        assert_eq!(get(false, "latency_p50_ms"), 10.0);
        assert_eq!(get(false, "latency_p95_ms"), 25.0);
        assert_eq!(get(false, "cpu_ms_per_op"), 20.0);
        assert_eq!(get(false, "setup_s"), 1.25);
        assert_eq!(get(true, "ops_per_s"), 100.0);
        assert_eq!(get(true, "latency_p50_ms"), 8.0);
        assert_eq!(get(true, "latency_p95_ms"), 20.0);
        assert_eq!(get(true, "cpu_ms_per_op"), 16.0);
        assert_eq!(get(true, "setup_s"), 1.0);
        assert_eq!(get(true, "peak_rss_mb"), 0.0, "no batch, no reading");
    }

    #[test]
    fn cold_suite_two_passes() {
        let traced = smoke("cold_suite", 74);
        assert!(layer(&traced, "syntax.tokens") > 0.0);
        assert!(layer(&traced, "sched.busy_us.procparse") > 0.0);
        assert_eq!(layer(&traced, "sched.busy_us.splice"), 0.0, "no store");
        assert!((layer(&traced, "trace.span_coverage") - 1.0).abs() < 0.05);
        assert!(
            traced.layers.contains_key("proc.rss_growth_kb_per_op"),
            "two batches, so a growth figure"
        );
    }

    #[test]
    fn warm_edit_fifty_ops() {
        let traced = smoke("warm_edit", 50);
        assert!(layer(&traced, "incr.hit_ratio") > 0.8);
        assert!(layer(&traced, "incr.store_load_hits") > 0.0);
        assert!(layer(&traced, "sched.busy_us.splice") > 0.0);
        assert!(layer(&traced, "incr.decode_us_per_entry") > 0.0);
    }

    #[test]
    fn watch_session_fifty_ops() {
        let traced = smoke("watch_session", 50);
        assert!(layer(&traced, "watch.check_us_p50") > 0.0);
        assert!(layer(&traced, "watch.store_hits") > 0.0);
    }

    #[test]
    fn serve_direct_fifty_ops() {
        let traced = smoke("serve_direct", 50);
        assert_eq!(layer(&traced, "serve.submitted"), 50.0);
        assert_eq!(
            layer(&traced, "fabric.frames.compile"),
            0.0,
            "bypasses the fabric"
        );
    }

    #[test]
    fn fabric_tcp_fifty_ops() {
        let traced = smoke("fabric_tcp", 50);
        assert!(layer(&traced, "fabric.frames.compile") > 0.0);
        assert!(layer(&traced, "fabric.frames.sync") > 0.0);
        assert!(layer(&traced, "fabric.wire_self_us_p50") > 0.0);
        assert!(layer(&traced, "fabric.hop_ratio_p50") > 0.0);
        assert!(layer(&traced, "serve.compiled") > 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits_and_stay_finite() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(3.0), "3");
    }
}
