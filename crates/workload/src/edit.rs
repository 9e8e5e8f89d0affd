//! Edit scenarios: mechanical, semantically safe mutations of generated
//! modules, used to evaluate the incremental compilation cache.
//!
//! Real incremental builds are dominated by two edit classes:
//!
//! * **procedure-body edits** — change code inside one procedure; every
//!   other stream's inputs are untouched, so a content-addressed cache
//!   should resplice all of them;
//! * **interface edits** — change an imported definition module; the
//!   environment fingerprint covers the whole interface library, so
//!   *every* cached unit of every importing module must be invalidated.
//!
//! The mutations anchor on the fixed textual skeleton `gen` emits (every
//! procedure body starts with the same three assignments), so they stay
//! compilable and deterministic without reparsing.

use crate::gen::GeneratedModule;

/// One mechanical edit applied to a [`GeneratedModule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Append one assignment at the top of `Proc{index}`'s body. The
    /// procedure's own stream changes; siblings, nested procedures and
    /// the module-level text do not.
    ProcBody {
        /// The `Proc{index}` to edit.
        index: usize,
        /// Folded into the inserted statement, so distinct seeds produce
        /// distinct bodies (and distinct fingerprints).
        seed: u64,
    },
    /// Insert a new exported constant into the named definition module,
    /// after its header and import section (Modula-2 requires imports
    /// before declarations). Invalidates every unit of every importing
    /// module (the environment digest covers the full library).
    Interface {
        /// Definition-module name (e.g. `"M12Lib0"`).
        def: String,
        /// Distinguishes repeated edits to the same interface.
        tag: u64,
    },
    /// Insert a *syntactically broken* statement at the top of
    /// `Proc{index}`'s body: `l0 := N + ;` — an expression cut off
    /// mid-operator. Statement-local on purpose: it contains no
    /// `BEGIN`/`END` tokens, so the splitter's stream carving is
    /// untouched and only this procedure's stream degrades (to a
    /// deterministic error unit) while siblings still parse, hit cache,
    /// and codegen.
    BreakBody {
        /// The `Proc{index}` to break.
        index: usize,
        /// Folded into the broken statement.
        seed: u64,
    },
    /// Remove every broken statement previously inserted by
    /// [`EditOp::BreakBody`] into `Proc{index}`'s body. A no-op if the
    /// procedure has none.
    FixBody {
        /// The `Proc{index}` to fix.
        index: usize,
    },
}

/// Applies `edits` to a copy of `module`, returning the edited module.
/// Edits whose anchor is absent (no such procedure or interface) are
/// skipped — callers can detect that by comparing sources.
pub fn apply_edits(module: &GeneratedModule, edits: &[EditOp]) -> GeneratedModule {
    let mut out = module.clone();
    for edit in edits {
        edit.apply(&mut out);
    }
    out
}

impl EditOp {
    /// Applies this edit to `module` in place: the one text it touches
    /// is edited where it lies, and nothing else is copied. An edit
    /// whose anchor is absent leaves `module` as it is.
    pub fn apply(&self, module: &mut GeneratedModule) {
        match self {
            EditOp::ProcBody { index, seed } => {
                edit_proc_body(&mut module.source, *index, *seed);
            }
            EditOp::Interface { def, tag } => {
                if let Some(text) = module.defs.source_mut(def) {
                    insert_interface_const(text, *tag);
                }
            }
            EditOp::BreakBody { index, seed } => {
                break_proc_body(&mut module.source, *index, *seed);
            }
            EditOp::FixBody { index } => fix_proc_body(&mut module.source, *index),
        }
    }
}

/// The first `k` procedures of `module`, as body edits (the standard
/// "developer touched k procedures" scenario).
pub fn body_edits(k: usize, seed: u64) -> Vec<EditOp> {
    (0..k)
        .map(|index| EditOp::ProcBody { index, seed })
        .collect()
}

/// Every procedure body in `gen`-produced text opens with this exact
/// prologue; the edit inserts right after it.
const BODY_ANCHOR: &str = "BEGIN\n  l0 := p0 + p1; l1 := 1; l2 := 0;\n";

fn edit_proc_body(source: &mut String, index: usize, seed: u64) {
    // The first body prologue after the heading belongs to this procedure
    // (nested procedures use a differently indented prologue).
    if let Some(insert_at) = body_insert_point(source, index) {
        source.insert_str(insert_at, &format!("  l0 := l0 + {};\n", seed % 9973));
    }
}

/// Finds the byte offset just past `Proc{index}`'s body prologue, or
/// `None` if the procedure (or its prologue) is absent.
fn body_insert_point(source: &str, index: usize) -> Option<usize> {
    let heading = format!("PROCEDURE Proc{index}(");
    let at = source.find(&heading)?;
    let body = source[at..].find(BODY_ANCHOR)?;
    Some(at + body + BODY_ANCHOR.len())
}

fn break_proc_body(source: &mut String, index: usize, seed: u64) {
    if let Some(insert_at) = body_insert_point(source, index) {
        source.insert_str(insert_at, &format!("  l0 := {} + ;\n", seed % 9973));
    }
}

/// A line is a break-marker iff it has exactly the shape
/// [`break_proc_body`] inserts: `  l0 := <digits> + ;`.
fn is_broken_line(line: &str) -> bool {
    line.strip_prefix("  l0 := ")
        .and_then(|rest| rest.strip_suffix(" + ;"))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// A line matching the shape benign [`EditOp::ProcBody`] edits insert
/// (`  l0 := l0 + <digits>;`). Used only to extend the fix scan window;
/// an organic statement that happens to match is kept either way.
fn is_benign_inserted(line: &str) -> bool {
    line.strip_prefix("  l0 := l0 + ")
        .and_then(|rest| rest.strip_suffix(';'))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

fn fix_proc_body(source: &mut String, index: usize) {
    // Every edit (benign or breaking) inserts at the top-of-body insert
    // point, so broken lines always live in the contiguous run of
    // edit-shaped lines right after the prologue. Scan that run, drop
    // the broken lines, keep everything else byte-for-byte.
    let Some(start) = body_insert_point(source, index) else {
        return;
    };
    let mut kept = String::new();
    let mut scanned = 0usize;
    for line in source[start..].split_inclusive('\n') {
        let trimmed = line.trim_end_matches('\n');
        if is_broken_line(trimmed) {
            scanned += line.len();
        } else if is_benign_inserted(trimmed) {
            kept.push_str(line);
            scanned += line.len();
        } else {
            break;
        }
    }
    source.replace_range(start..start + scanned, &kept);
}

/// Inserts `CONST EditN{tag} = {tag};` into `text` after the module
/// header line and any `IMPORT`/`FROM` lines — declarations may not
/// precede imports in Modula-2.
fn insert_interface_const(text: &mut String, tag: u64) {
    let mut at = text.find('\n').map(|i| i + 1).unwrap_or(text.len());
    while at < text.len() {
        let line_end = text[at..]
            .find('\n')
            .map(|i| at + i + 1)
            .unwrap_or(text.len());
        let line = text[at..line_end].trim_start();
        if line.starts_with("IMPORT") || line.starts_with("FROM") {
            at = line_end;
        } else {
            break;
        }
    }
    text.insert_str(at, &format!("CONST EditN{tag} = {tag};\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};
    use ccm2_seq::compile;
    use ccm2_support::defs::DefProvider;

    #[test]
    fn proc_body_edit_changes_only_that_procedure() {
        let m = generate(&GenParams::small("EditMe", 9));
        let e = apply_edits(&m, &body_edits(1, 4242));
        assert_ne!(m.source, e.source);
        // Everything before Proc0's body is untouched.
        let at = m.source.find("PROCEDURE Proc0(").expect("has Proc0");
        assert_eq!(&m.source[..at], &e.source[..at]);
        // Still compiles cleanly.
        let out = compile(&e.source, &e.defs);
        assert!(out.is_ok(), "{:#?}", out.diagnostics);
    }

    #[test]
    fn interface_edit_changes_one_def() {
        // Every def in the library must stay compilable after the edit —
        // including defs with an import section (the inserted CONST has
        // to land after it, not before).
        let m = generate(&GenParams::small("IfEdit", 10));
        let targets: Vec<String> = m.defs.iter().map(|(n, _)| n.to_string()).collect();
        assert!(!targets.is_empty(), "has defs");
        for target in &targets {
            let e = apply_edits(
                &m,
                &[EditOp::Interface {
                    def: target.clone(),
                    tag: 7,
                }],
            );
            assert_eq!(m.source, e.source);
            let before = m.defs.definition_source(target).expect("def");
            let after = e.defs.definition_source(target).expect("def");
            assert_ne!(before, after);
            assert!(after.contains("CONST EditN7 = 7;"));
            let out = compile(&e.source, &e.defs);
            assert!(out.is_ok(), "{target}: {:#?}", out.diagnostics);
        }
    }

    #[test]
    fn missing_anchor_is_a_no_op() {
        let m = generate(&GenParams::small("NoSuch", 11));
        let e = apply_edits(
            &m,
            &[
                EditOp::ProcBody {
                    index: 9999,
                    seed: 1,
                },
                EditOp::Interface {
                    def: "NotALib".into(),
                    tag: 1,
                },
            ],
        );
        assert_eq!(m.source, e.source);
        assert_eq!(
            m.defs.all_definitions(),
            e.defs.all_definitions(),
            "untouched library"
        );
    }

    #[test]
    fn break_then_fix_roundtrips_exactly() {
        let m = generate(&GenParams::small("BrkFix", 13));
        let broken = apply_edits(&m, &[EditOp::BreakBody { index: 1, seed: 77 }]);
        assert_ne!(m.source, broken.source);
        assert!(broken.source.contains(" + ;"));
        // The broken module still parses (error recovery) but reports
        // syntax errors.
        let out = compile(&broken.source, &broken.defs);
        assert!(!out.is_ok());
        assert!(out.image.is_some(), "recovered parse still yields an image");
        // Fixing removes exactly the inserted line — byte-identical to
        // the pre-break text.
        let fixed = apply_edits(&broken, &[EditOp::FixBody { index: 1 }]);
        assert_eq!(m.source, fixed.source);
    }

    #[test]
    fn fix_only_touches_the_named_procedure() {
        let m = generate(&GenParams::small("FixScope", 14));
        let broken = apply_edits(
            &m,
            &[
                EditOp::BreakBody { index: 0, seed: 3 },
                EditOp::BreakBody { index: 2, seed: 4 },
            ],
        );
        let fixed = apply_edits(&broken, &[EditOp::FixBody { index: 0 }]);
        // Proc0's break is gone, Proc2's remains.
        let expect = apply_edits(&m, &[EditOp::BreakBody { index: 2, seed: 4 }]);
        assert_eq!(fixed.source, expect.source);
    }

    #[test]
    fn edits_are_deterministic() {
        let m = generate(&GenParams::small("DetEdit", 12));
        let a = apply_edits(&m, &body_edits(2, 5));
        let b = apply_edits(&m, &body_edits(2, 5));
        assert_eq!(a.source, b.source);
        let c = apply_edits(&m, &body_edits(2, 6));
        assert_ne!(a.source, c.source);
    }
}
