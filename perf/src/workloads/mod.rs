//! The five workloads. Each exposes `round`, which sets its system up,
//! runs one window and checks every output, and `trace_ops`, the fixed
//! op count of a traced round for a given `--seconds`.

pub mod cold_suite;
pub mod fabric_tcp;
pub mod serve_direct;
pub mod warm_edit;
pub mod watch_session;

use crate::harness::{Ctx, Layers, Window};

/// Sets up, runs `win`, checks outputs; returns the set-up seconds.
pub type RoundFn = fn(&Ctx, &mut Window, &mut Layers) -> f64;

/// A workload as the driver sees it.
pub struct Workload {
    pub name: &'static str,
    pub round: RoundFn,
    /// Ops of each of a traced run's three rounds, as a function of
    /// `--seconds`, sized on two cores so that the run takes about as
    /// long as an untraced one. Fixed counts make every counter repeat
    /// exactly.
    pub trace_ops: fn(f64) -> u64,
    /// Name of the span around each op, and whether `W` clients (or
    /// one) run ops side by side: what the span coverage is taken over.
    pub top_span: &'static str,
    pub multi_client: bool,
}

/// All workloads, in report order.
pub static ALL: [Workload; 5] = [
    Workload {
        name: "cold_suite",
        round: cold_suite::round,
        trace_ops: cold_suite::trace_ops,
        top_span: "compile",
        multi_client: false,
    },
    Workload {
        name: "warm_edit",
        round: warm_edit::round,
        trace_ops: warm_edit::trace_ops,
        top_span: "compile",
        multi_client: false,
    },
    Workload {
        name: "watch_session",
        round: watch_session::round,
        trace_ops: watch_session::trace_ops,
        top_span: "check",
        multi_client: false,
    },
    Workload {
        name: "serve_direct",
        round: serve_direct::round,
        trace_ops: serve_direct::trace_ops,
        top_span: serve_direct::REQUEST,
        multi_client: true,
    },
    Workload {
        name: "fabric_tcp",
        round: fabric_tcp::round,
        trace_ops: fabric_tcp::trace_ops,
        top_span: serve_direct::REQUEST,
        multi_client: true,
    },
];

/// Scales a per-second op rate to `seconds`, at least `floor`.
pub(crate) fn scaled(rate: f64, seconds: f64, floor: u64) -> u64 {
    ((rate * seconds).round() as u64).max(floor)
}
