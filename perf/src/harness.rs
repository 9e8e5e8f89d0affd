//! What every workload shares: the run context, the timed window with
//! its budget, and the report a run folds its rounds into.
//!
//! A run is a few *rounds*. Each round sets the system up from nothing
//! (timed: one `setup_s` sample), then runs *batches* of ops inside the
//! window clock, and checks outputs between batches with the clock
//! stopped. A window closes between batches only, never inside one: a
//! batch is one cycle over the inputs (a pass over the suite, a chunk
//! of requests), and a cycle cut short would hold its cheap ops only.
//! An untraced run has five rounds that share `--seconds`, and each of
//! its timings is the median over all their batches of the batch's own
//! figure. A traced run has three rounds over the same fixed op
//! sequence, untraced, traced, untraced, so that the tracing overhead is
//! a ratio of walls over identical work.
//!
//! # Host speed
//!
//! The sandbox this runs in shares its cores' caches and memory with
//! neighbours, and for minutes at a time every op, CPU time included,
//! takes 10–40 % longer. No statistic inside a run removes a slowdown
//! that outlasts the run, so an untraced run measures the host beside
//! the program: after every op the client runs one *calibration slice*
//! ([`slice`]), a fixed piece of work that no code of the repository
//! takes part in. A batch's `speed` is [`SLICE_REF_NS`] over the mean
//! duration of its slices, and every timing of the batch is scaled by
//! it to the reference host on which a slice takes exactly that long.
//! The slices are the clients' own time: they are taken out of the
//! batch's wall and CPU time. Traced rounds run no slices.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alloc_count;
use crate::span::Tracer;
use crate::stats;

/// Rounds of an untraced, time-bounded run.
pub const UNTRACED_ROUNDS: usize = 5;

/// What one calibration slice takes on the reference host, nanoseconds:
/// about what it takes here, between ops, while no neighbour is busy.
pub const SLICE_REF_NS: f64 = 100_000.0;

/// Identifiers one slice makes, counts and sorts.
const SLICE_NAMES: u64 = 256;

/// One calibration slice: about 0.1 ms of work of the compiler's own
/// kind (formatting, allocation, hashing, a string sort) that is the
/// same every time and calls nothing of the repository. Returns how
/// long it took, in nanoseconds.
pub fn slice() -> u64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut names = Vec::with_capacity(SLICE_NAMES as usize);
    let mut seen: HashMap<String, u64> = HashMap::new();
    for i in 0..SLICE_NAMES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let name = format!("id{}_{}", x >> 40, i & 63);
        *seen.entry(name.clone()).or_insert(0) += i;
        names.push(name);
    }
    names.sort();
    let sum = names.iter().fold(0u64, |acc, n| {
        acc.wrapping_add(seen[n]).wrapping_mul(31) ^ n.len() as u64
    });
    std::hint::black_box(sum);
    t0.elapsed().as_nanos() as u64
}

/// What one client did in one batch: the latency of each op in the
/// order it ran them, and its calibration slices.
#[derive(Debug, Default)]
pub struct Tally {
    calibrate: bool,
    pub lat_us: Vec<u64>,
    pub slice_ns: Vec<u64>,
}

impl Tally {
    /// An empty tally; with `calibrate`, a slice follows every op.
    pub fn new(calibrate: bool) -> Tally {
        Tally {
            calibrate,
            ..Tally::default()
        }
    }

    /// An empty tally for another client of the same batch.
    pub fn fork(&self) -> Tally {
        Tally::new(self.calibrate)
    }

    /// Runs `f` as one op on the clock, then one slice off it.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.lat_us.push(micros_since(t0));
        if self.calibrate {
            self.slice_ns.push(slice());
        }
        out
    }

    /// Latency of the op that ran last, microseconds.
    pub fn last_us(&self) -> u64 {
        self.lat_us.last().copied().unwrap_or(0)
    }

    /// Adds what another client of the batch did.
    pub fn merge(&mut self, other: Tally) {
        self.lat_us.extend(other.lat_us);
        self.slice_ns.extend(other.slice_ns);
    }
}

/// Per-layer values of one run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything a workload needs to know about the run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// XOR-ed into every generator seed; 0 reproduces the Table-1 suite.
    pub seed: u64,
    /// `min(available_parallelism, 4)`: worker and client count.
    pub w: usize,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// The figures of one batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchStat {
    pub ops: usize,
    /// Wall and process CPU time of the batch without its slices.
    pub wall: Duration,
    pub cpu: Duration,
    /// Median and 95th-percentile op latency, microseconds.
    pub p50_us: u64,
    pub p95_us: u64,
    /// Host speed while the batch ran, as a share of the reference
    /// host's: [`SLICE_REF_NS`] over the mean slice. 1 without slices.
    pub speed: f64,
}

impl BatchStat {
    fn of(tally: &Tally, wall: Duration, cpu: Duration) -> BatchStat {
        let lat = stats::sorted(tally.lat_us.clone());
        let slices = &tally.slice_ns;
        BatchStat {
            ops: lat.len(),
            wall,
            cpu,
            p50_us: stats::percentile(&lat, 0.50),
            p95_us: stats::percentile(&lat, 0.95),
            speed: if slices.is_empty() {
                1.0
            } else {
                SLICE_REF_NS * slices.len() as f64 / slices.iter().sum::<u64>().max(1) as f64
            },
        }
    }
}

/// The clocked part of one round, and its stop condition.
pub struct Window {
    limit_wall: Option<Duration>,
    limit_ops: Option<u64>,
    /// Which round of the run this is. The rounds of an untraced run
    /// continue one input stream; the rounds of a traced run are all
    /// round 0, the same inputs again.
    pub round: u64,
    /// The tracer, in the traced round.
    pub tracer: Option<Arc<Tracer>>,
    /// Clocked wall and process CPU time so far, slices taken out.
    pub wall: Duration,
    pub cpu: Duration,
    /// One entry per batch that ran an op.
    pub batches: Vec<BatchStat>,
    /// Ops done and resident memory after each batch, read with the
    /// clock stopped.
    pub mem: Vec<(usize, stats::Memory)>,
    /// Latency of every op, microseconds.
    pub lat_us: Vec<u64>,
    /// Ops whose output was checked, and how many were wrong or lost.
    pub attempted: u64,
    pub failed: u64,
    /// Heap allocations inside batches (traced round only).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Remarks of the round (a skip, a cap) for the run's `note` lines.
    pub notes: Vec<String>,
}

impl Window {
    /// A window that closes after `wall` of clocked time.
    pub fn timed(wall: Duration, round: u64) -> Window {
        Window::new(Some(wall), None, round, None)
    }

    /// A window that closes after exactly `ops` ops.
    pub fn counted(ops: u64, tracer: Option<Arc<Tracer>>) -> Window {
        Window::new(None, Some(ops), 0, tracer)
    }

    fn new(
        limit_wall: Option<Duration>,
        limit_ops: Option<u64>,
        round: u64,
        tracer: Option<Arc<Tracer>>,
    ) -> Window {
        Window {
            limit_wall,
            limit_ops,
            round,
            tracer,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            batches: Vec::new(),
            mem: Vec::new(),
            lat_us: Vec::new(),
            attempted: 0,
            failed: 0,
            allocs: 0,
            alloc_bytes: 0,
            notes: Vec::new(),
        }
    }

    /// Whether the budget is used up.
    pub fn done(&self) -> bool {
        self.limit_wall.is_some_and(|l| self.wall >= l)
            || self
                .limit_ops
                .is_some_and(|l| self.lat_us.len() as u64 >= l)
    }

    /// Ops the next batch may run at most.
    pub fn ops_left(&self) -> usize {
        let done = self.lat_us.len() as u64;
        let left = self.limit_ops.map_or(u64::MAX, |l| l.saturating_sub(done));
        left.min(usize::MAX as u64) as usize
    }

    /// Runs one batch on the window clock. `f` runs the batch's ops
    /// through the tally it is given (and through forks of it, when
    /// `clients` threads run ops side by side). A time-bounded window
    /// calibrates: its tallies run a slice after every op.
    pub fn batch<T>(&mut self, clients: usize, f: impl FnOnce(&mut Tally) -> T) -> T {
        let counting = self.tracer.is_some();
        if counting {
            alloc_count::start();
        }
        let mut tally = Tally::new(self.limit_wall.is_some());
        let (cpu0, t0) = (stats::process_cpu(), Instant::now());
        let out = f(&mut tally);
        let (wall, cpu) = (t0.elapsed(), stats::process_cpu().saturating_sub(cpu0));
        if counting {
            let (n, bytes) = alloc_count::stop();
            self.allocs += n;
            self.alloc_bytes += bytes;
        }
        // A slice is one thread's work and nothing waits for it: all of
        // it is CPU time, and each client spent its share of the wall.
        let sliced: u64 = tally.slice_ns.iter().sum();
        let wall = wall.saturating_sub(Duration::from_nanos(sliced / clients.max(1) as u64));
        let cpu = cpu.saturating_sub(Duration::from_nanos(sliced));
        self.wall += wall;
        self.cpu += cpu;
        if !tally.lat_us.is_empty() {
            self.batches.push(BatchStat::of(&tally, wall, cpu));
        }
        self.lat_us.extend(tally.lat_us);
        self.mem.push((self.lat_us.len(), stats::memory()));
        out
    }

    /// Books the result of checking `n` outputs, `bad` of them wrong.
    pub fn checked(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// Microseconds since `t0`, for op latencies.
pub fn micros_since(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

/// A whole run: its rounds folded together.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every batch of every clocked round that counts: all rounds of
    /// an untraced run, the traced round of a traced run.
    pub batches: Vec<BatchStat>,
    /// Resident memory after the first batch of the first such round.
    pub first_batch_mem: Option<stats::Memory>,
    /// Per round: set-up seconds, and the host speed of the window
    /// that followed the set-up.
    pub setups: Vec<(f64, f64)>,
    pub layers: Layers,
    /// Human-readable remarks (skips, caps) printed with the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Ops measured.
    pub fn ops(&self) -> usize {
        self.batches.iter().map(|b| b.ops).sum()
    }

    /// Books the output checks and remarks of a finished window whose
    /// timings do not count.
    pub fn absorb_checks(&mut self, win: &Window) {
        self.attempted += win.attempted;
        self.failed += win.failed;
        self.notes.extend_from_slice(&win.notes);
    }

    /// Folds a finished window in.
    pub fn absorb(&mut self, win: &Window) {
        self.absorb_checks(win);
        if self.first_batch_mem.is_none() {
            self.first_batch_mem = win.mem.first().map(|&(_, mem)| mem);
        }
        // A skipped round ran no op and has no figures.
        self.batches.extend_from_slice(&win.batches);
    }

    /// Books a round's set-up time beside the speed of the host in the
    /// seconds after it: the median over the round's batches.
    pub fn setup_done(&mut self, seconds: f64, win: &Window) {
        let speeds: Vec<f64> = win.batches.iter().map(|b| b.speed).collect();
        let speed = if speeds.is_empty() {
            1.0
        } else {
            stats::median(&speeds)
        };
        self.setups.push((seconds, speed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(tally: &mut Tally, lat_us: &[u64]) {
        for &us in lat_us {
            tally.op(|| ());
            *tally.lat_us.last_mut().expect("an op ran") = us;
        }
    }

    #[test]
    fn counted_window_closes_on_the_op_count_and_runs_no_slices() {
        let mut win = Window::counted(5, None);
        assert_eq!(win.ops_left(), 5);
        win.batch(1, |t| ops(t, &[1, 2, 3]));
        assert!(!win.done());
        assert_eq!(win.ops_left(), 2);
        win.batch(1, |t| {
            ops(t, &[4, 5]);
            assert!(t.slice_ns.is_empty());
        });
        assert!(win.done());
        assert_eq!(win.ops_left(), 0);
        assert_eq!(win.lat_us, vec![1, 2, 3, 4, 5]);
        assert!(win.batches.iter().all(|b| b.speed == 1.0));
    }

    #[test]
    fn timed_window_closes_on_the_clock_between_batches() {
        let mut win = Window::timed(Duration::from_millis(20), 0);
        assert_eq!(win.ops_left(), usize::MAX);
        while !win.done() {
            win.batch(1, |t| {
                t.op(|| std::thread::sleep(Duration::from_millis(8)));
                assert_eq!(t.slice_ns.len(), 1, "a slice follows the op");
            });
        }
        assert_eq!(
            win.lat_us.len(),
            3,
            "whole batches: 24 ms for a 20 ms budget"
        );
        assert!(win.wall >= Duration::from_millis(20));
        let mut report = Report::default();
        win.checked(3, 1);
        report.absorb(&win);
        report.setup_done(0.5, &win);
        assert_eq!((report.attempted, report.failed), (3, 1));
        assert_eq!(report.ops(), 3);
        assert_eq!(report.batches.len(), 3);
        for b in &report.batches {
            assert_eq!((b.ops, b.p50_us / 1000, b.p95_us / 1000), (1, 8, 8));
            assert!(b.speed > 0.0 && b.speed.is_finite());
        }
        let speeds: Vec<f64> = report.batches.iter().map(|b| b.speed).collect();
        assert_eq!(report.setups, vec![(0.5, stats::median(&speeds))]);
        assert_eq!(win.mem.len(), 3, "memory is read after every batch");
        let mem = report.first_batch_mem.expect("a batch ran");
        assert!(mem.hwm_kb >= mem.rss_kb && mem.rss_kb > 0);
    }

    #[test]
    fn slices_are_taken_out_of_a_batchs_wall_and_cpu_time() {
        let tally = Tally {
            calibrate: true,
            lat_us: vec![100, 300, 200, 400],
            slice_ns: vec![120_000, 80_000, 120_000, 80_000],
        };
        let b = BatchStat::of(&tally, Duration::from_millis(3), Duration::from_millis(2));
        assert_eq!((b.ops, b.p50_us, b.p95_us), (4, 200, 400));
        assert_eq!(b.speed, 1.0, "mean slice 100 us: the reference host");
        // Two clients, 400 us of slices: 200 us of wall each.
        let mut win = Window::timed(Duration::from_secs(1), 0);
        win.batch(2, |t| {
            ops(t, &[100, 300]);
            t.slice_ns = vec![200_000, 200_000];
            std::thread::sleep(Duration::from_millis(2));
        });
        let b = win.batches[0];
        assert_eq!(b.speed, 0.5, "slices twice as slow: half the speed");
        assert!(b.wall >= Duration::from_micros(2000 - 200));
    }

    #[test]
    fn a_slice_is_the_same_work_every_time() {
        let ns: Vec<u64> = (0..50).map(|_| slice()).collect();
        let fastest = *ns.iter().min().expect("50 slices");
        assert!(fastest > 5_000, "a slice is real work: {fastest} ns");
        assert!(fastest < 5_000_000, "and a short one: {fastest} ns");
    }

    #[test]
    fn forked_tallies_merge_into_the_batchs() {
        let mut tally = Tally::new(true);
        let mut other = tally.fork();
        other.op(|| ());
        assert_eq!(other.slice_ns.len(), 1, "a fork calibrates like its parent");
        tally.op(|| ());
        tally.merge(other);
        assert_eq!((tally.lat_us.len(), tally.slice_ns.len()), (2, 2));
        assert_eq!(tally.last_us(), *tally.lat_us.last().expect("two ops"));
    }
}
