//! Workloads for evaluating the concurrent Modula-2+ compiler.
//!
//! The paper evaluated on 37 programs from the (proprietary) DEC SRC
//! Modula-2+ library plus a mechanically generated best-case module,
//! `Synth.mod`. This crate regenerates both, seeded and deterministic:
//!
//! * [`gen`] — the parameterized program generator (shape-controlled,
//!   always semantically valid);
//! * [`suite`] — the 37-program suite matching Table 1's gross
//!   characteristics;
//! * [`synth`] — `Synth.mod`, the no-DKY, ample-parallelism best case of
//!   §4.2 (Figure 2);
//! * [`edit`] — mechanical edit scenarios (k procedure bodies, one
//!   interface) for evaluating the incremental compilation cache;
//! * [`serve_load`](mod@serve_load) — a seeded many-client event stream (projects,
//!   revisions, edits) for driving the `ccm2-serve` compile service;
//! * [`session`] — seeded editor-session edit streams (benign, breaking
//!   and fixing edits) for driving `ccm2-watch`.
//!
//! # Examples
//!
//! ```
//! use ccm2_workload::{generate, GenParams};
//!
//! let m = generate(&GenParams::small("Demo", 1));
//! assert!(m.source.contains("IMPLEMENTATION MODULE Demo"));
//! assert_eq!(m.defs.len(), 4);
//! ```

pub mod edit;
pub mod gen;
pub mod serve_load;
pub mod session;
pub mod suite;
pub mod synth;

pub use edit::{apply_edits, body_edits, EditOp};
pub use gen::{generate, lock_seed_scenarios, GenParams, GeneratedModule, LockScenario};
pub use serve_load::{
    kill_points, router_drill_schedule, serve_load, shard_kill_schedule, shard_partition_schedule,
    PartitionWindow, RouterDrillKind, RouterDrillWindow, ServeEvent, ServeLoadParams,
};
pub use session::{edit_session_seeds, SessionEdit, SessionParams};
pub use suite::{generate_suite, suite_params, suite_stats, SuiteStats, SUITE_SIZE};
pub use synth::{synth_module, SynthParams};
