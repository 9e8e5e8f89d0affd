//! Seeded editor-session streams for `ccm2-watch`.
//!
//! A watch session absorbs a stream of [`EditOp`]s against one project
//! and re-checks after each revision. This module generates such
//! streams deterministically: mostly benign procedure-body edits (the
//! cache-friendly common case), a controlled fraction of
//! *syntax-breaking* edits and their matching fixes (exercising the
//! error-recovering parser and per-stream degradation), and rare
//! interface edits (whole-project invalidation — kept rare because an
//! editor loop's p99 must not be dominated by them).
//!
//! Invariant: every [`EditOp::BreakBody`] in a generated stream is
//! followed (eventually) by an [`EditOp::FixBody`] for the same
//! procedure, and the stream ends with no outstanding breaks — so the
//! final revision of a session replaying the stream compiles cleanly.

use ccm2_support::hash::splitmix64;

use crate::edit::EditOp;
use crate::gen::GenParams;

/// One step of a generated session: which suite module the edit
/// targets, and the edit itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionEdit {
    /// Index into the module list the stream was generated against.
    pub module: usize,
    /// The edit to apply to that module's sources.
    pub op: EditOp,
}

/// Tuning knobs for [`edit_session_seeds`]. Percentages are weights out
/// of 100 for each generated step; whatever `break_pct` leaves
/// outstanding is repaired by forced fixes before the stream ends.
#[derive(Clone, Debug)]
pub struct SessionParams {
    /// Total edits to generate.
    pub edits: usize,
    /// RNG seed: same seed, same stream.
    pub seed: u64,
    /// Weight of syntax-breaking edits (default 12).
    pub break_pct: u32,
    /// Weight of fixing an outstanding break early (default 10).
    pub fix_pct: u32,
    /// Maximum interface edits in the whole stream (default 1 — they
    /// invalidate every cached unit of the project).
    pub max_interface_edits: usize,
}

impl Default for SessionParams {
    fn default() -> SessionParams {
        SessionParams {
            edits: 100,
            seed: 0x005E_5510,
            break_pct: 12,
            fix_pct: 10,
            max_interface_edits: 1,
        }
    }
}

/// Generates a seeded multi-module edit stream over `modules` (their
/// [`GenParams`] — the stream only needs procedure counts and interface
/// names, not the generated text). See the module docs for the shape
/// guarantees.
pub fn edit_session_seeds(modules: &[GenParams], params: &SessionParams) -> Vec<SessionEdit> {
    assert!(!modules.is_empty(), "need at least one module");
    let mut state = params.seed ^ 0xCC_0DE;
    let mut out = Vec::with_capacity(params.edits);
    // Outstanding breaks, in insertion order: (module, proc index).
    let mut broken: Vec<(usize, usize)> = Vec::new();
    let mut interface_edits = 0usize;
    while out.len() < params.edits {
        let remaining = params.edits - out.len();
        // Reserve the tail of the stream for repairing whatever is
        // still broken, so the final revision compiles cleanly.
        if remaining <= broken.len() {
            let (module, index) = broken.remove(0);
            out.push(SessionEdit {
                module,
                op: EditOp::FixBody { index },
            });
            continue;
        }
        let module = (splitmix64(&mut state) % modules.len() as u64) as usize;
        let procs = modules[module].procedures.max(1);
        let index = (splitmix64(&mut state) % procs as u64) as usize;
        let seed = splitmix64(&mut state);
        let roll = (splitmix64(&mut state) % 100) as u32;
        // A new break needs its own slot *and* a later slot for its fix.
        let can_break = remaining > broken.len() + 1;
        let op = if roll < params.break_pct && can_break && !broken.contains(&(module, index)) {
            broken.push((module, index));
            EditOp::BreakBody { index, seed }
        } else if roll < params.break_pct + params.fix_pct && !broken.is_empty() {
            let at = (splitmix64(&mut state) % broken.len() as u64) as usize;
            let (module, index) = broken.remove(at);
            out.push(SessionEdit {
                module,
                op: EditOp::FixBody { index },
            });
            continue;
        } else if roll >= 98
            && interface_edits < params.max_interface_edits
            && modules[module].interfaces > 0
        {
            interface_edits += 1;
            // The generator names a module's interfaces
            // `{name}Lib{0..}`; edit the first one.
            EditOp::Interface {
                def: format!("{}Lib0", modules[module].name),
                tag: seed % 1000,
            }
        } else {
            EditOp::ProcBody { index, seed }
        };
        out.push(SessionEdit { module, op });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite_params;

    fn suite_mods() -> Vec<GenParams> {
        (0..8).map(suite_params).collect()
    }

    #[test]
    fn streams_are_deterministic() {
        let mods = suite_mods();
        let a = edit_session_seeds(&mods, &SessionParams::default());
        let b = edit_session_seeds(&mods, &SessionParams::default());
        assert_eq!(a, b);
        let c = edit_session_seeds(
            &mods,
            &SessionParams {
                seed: 99,
                ..SessionParams::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn every_break_is_fixed_and_stream_ends_clean() {
        let mods = suite_mods();
        for seed in [1u64, 7, 0x005E_5510] {
            let stream = edit_session_seeds(
                &mods,
                &SessionParams {
                    seed,
                    ..SessionParams::default()
                },
            );
            assert_eq!(stream.len(), 100);
            let mut broken: Vec<(usize, usize)> = Vec::new();
            let mut saw_break = false;
            for e in &stream {
                match &e.op {
                    EditOp::BreakBody { index, .. } => {
                        saw_break = true;
                        broken.push((e.module, *index));
                    }
                    EditOp::FixBody { index } => {
                        let pos = broken
                            .iter()
                            .position(|b| *b == (e.module, *index))
                            .expect("fix matches an outstanding break");
                        broken.remove(pos);
                    }
                    _ => {}
                }
            }
            assert!(saw_break, "stream exercises breakage");
            assert!(broken.is_empty(), "no outstanding breaks at stream end");
        }
    }

    #[test]
    fn interface_edits_are_rare() {
        let mods = suite_mods();
        let stream = edit_session_seeds(&mods, &SessionParams::default());
        let ifaces = stream
            .iter()
            .filter(|e| matches!(e.op, EditOp::Interface { .. }))
            .count();
        assert!(ifaces <= 1, "at most one whole-project invalidation");
    }
}
