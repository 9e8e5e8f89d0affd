//! ccm2-watch: always-on editor sessions over the concurrent compiler.
//!
//! A batch compiler answers "compile this module"; an editor loop asks
//! a different question — "I changed three lines, what is broken *now*?"
//! — hundreds of times an hour, and wants each answer in the time it
//! takes to glance at a diagnostics pane. This crate keeps a
//! [`Session`] alive per project: the last good parse, a warm
//! incremental-artifact store, and a bounded inbox of [`EditOp`]s.
//! Edits accumulate between checks (the in-process debounce window) and
//! are coalesced **newest-wins per target** — two edits to the same
//! procedure body collapse to the latest, exactly as a real editor's
//! buffer state supersedes its history. Each [`WatchService::check`] applies
//! the survivors, re-runs the concurrent driver against the warm store,
//! and returns a [`CheckReport`]: the diagnostics *delta*, which units
//! changed or degraded, warm/cold stream counts, and wall time.
//!
//! A check does only what its report needs, so it costs its compile and
//! little else. The survivors are applied in place ([`EditOp::apply`]):
//! neither the module nor its interface library is copied, and the
//! library is moved into the compile's `Arc` and back. The session keeps
//! the compile's [`ModuleImage`] by move (trimmed of its growth slack)
//! and diffs its units against the previous image's without copying a
//! unit or a name that did not change. [`Session::object`] encodes the image on its first call after
//! each compiled revision, never during the check.
//!
//! Three pieces are deliberately reused rather than reinvented:
//!
//! * **admission** — the artifact store is the service's: one
//!   [`MemStore`] with a byte budget and strict LRU admission, so a fleet
//!   of sessions shares one bounded cache exactly like a fleet of compile
//!   requests does;
//! * **dedup** — a revision's no-op key is serve's single-flight digest
//!   of a default request ([`CompileRequest::fingerprint_of`]), hashed
//!   where the session's sources lie. If coalescing leaves the sources
//!   byte-identical to the previous revision, the compile is skipped
//!   outright and the report says [`CheckReport::deduped`];
//! * **decoded interfaces** — every compile of a session runs under the
//!   session's one interner, so each hands the next the interfaces it
//!   spliced ([`InterfaceCarry`], through [`Options::interface_carry`]).
//!   The next compile still loads every interface from the store and
//!   opens its envelope, so hits, misses and quarantines are unchanged,
//!   but it does not decode again one whose bytes are those it carries.
//!
//! Unlike serve (which returns interner-independent object *bytes*),
//! sessions call [`compile_concurrent`] directly and keep the
//! [`ModuleImage`]: per-unit identity is what makes the editor-loop
//! guarantees checkable — a broken revision must degrade *only* the
//! edited procedure's unit (to the deterministic error unit the
//! recovering parser produces) while every sibling stays byte-identical
//! and warm.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ccm2::{compile_concurrent, InterfaceCarry, Options};
use ccm2_codegen::emit::is_error_unit;
use ccm2_codegen::ir::CodeUnit;
use ccm2_codegen::merge::ModuleImage;
use ccm2_incr::{encode_image, render_diagnostics, ArtifactStore, MemStore, StoreStats};
use ccm2_serve::CompileRequest;
use ccm2_support::defs::DefProvider;
use ccm2_support::hash::Fp128;
use ccm2_support::intern::Interner;
use ccm2_workload::{EditOp, GeneratedModule};

/// Errors surfaced by [`WatchService`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WatchError {
    /// No session is open under that project name.
    UnknownProject(String),
    /// The session's edit inbox is full; `check` the session to drain
    /// it before submitting more edits.
    InboxFull {
        /// The capacity that was hit (256 edits).
        capacity: usize,
    },
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::UnknownProject(p) => write!(f, "no open session for project `{p}`"),
            WatchError::InboxFull { capacity } => {
                write!(
                    f,
                    "edit inbox full ({capacity} pending); run check to drain"
                )
            }
        }
    }
}

impl std::error::Error for WatchError {}

/// Maximum queued edits per session between checks: a bound on input
/// from outside, not a tuning knob.
const INBOX_CAPACITY: usize = 256;

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Byte budget of the shared artifact store (a [`MemStore`] with
    /// strict LRU admission; all sessions of one service share it).
    pub store_budget: u64,
    /// Driver options template for every check. The `incremental` field
    /// is ignored — each check runs against the service's shared store.
    pub options: Options,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            store_budget: 32 << 20,
            // One worker thread: the editor loop's latency target is
            // "faster than a cold compile at P=1", so the default
            // measures exactly that configuration.
            options: Options::threads(1),
        }
    }
}

/// What one revision's re-check found, phrased as a delta against the
/// previous revision (an editor overlay wants "what changed", not the
/// full diagnostic set again).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The session's project name.
    pub project: String,
    /// Revision number this report answers (the initial `open` check is
    /// revision 0).
    pub revision: u64,
    /// Edits applied this revision, after coalescing.
    pub edits_applied: usize,
    /// Edits superseded by newer edits to the same target within this
    /// revision's debounce window.
    pub edits_coalesced: usize,
    /// The sources were byte-identical to the previous revision
    /// (serve-fingerprint match), so no compile ran.
    pub deduped: bool,
    /// Whether the revision compiled without errors.
    pub clean: bool,
    /// Units that are deterministic error units this revision (sorted
    /// dotted code names) — the streams the recovering parser degraded.
    pub degraded_units: Vec<String>,
    /// Units added, removed, or different from the previous revision
    /// (sorted dotted code names).
    pub changed_units: Vec<String>,
    /// Rendered diagnostics present now but not in the previous
    /// revision.
    pub diags_added: Vec<String>,
    /// Rendered diagnostics from the previous revision that are gone.
    pub diags_removed: Vec<String>,
    /// Streams spliced from the warm artifact store.
    pub warm_streams: usize,
    /// Streams compiled live.
    pub cold_streams: usize,
    /// Edit-to-report wall time for this check.
    pub wall: Duration,
}

/// One always-on project session.
pub struct Session {
    project: String,
    /// The sources, edited in place. The compile borrows the library by
    /// moving it into an `Arc` and back, so the session holds one copy.
    module: GeneratedModule,
    interner: Arc<Interner>,
    store: Arc<MemStore>,
    options: Options,
    inbox: Vec<EditOp>,
    rejected_edits: u64,
    revision: u64,
    last_fp: Option<Fp128>,
    /// The last compiled revision's image, kept as the compile returned
    /// it: the next revision's units are diffed against it.
    image: Option<ModuleImage>,
    diagnostics: Vec<String>,
    /// The image's interner-independent encoding, made on the first
    /// [`Session::object`] call after each compiled revision.
    object: OnceLock<Option<Vec<u8>>>,
    /// The interfaces the last compile spliced, which the next one
    /// splices without decoding them again if the store still holds the
    /// same bytes.
    carry: Arc<InterfaceCarry>,
    /// The last compiled revision's [`CheckReport::clean`], which a
    /// deduped revision repeats.
    clean: bool,
}

impl Session {
    fn new(
        project: String,
        module: GeneratedModule,
        store: Arc<MemStore>,
        options: Options,
    ) -> Session {
        // One interner for the session's whole lifetime: symbols stay
        // stable across revisions, so units of revision N can be compared
        // to revision N-1 directly, and interfaces decoded by one compile
        // can be spliced by the next.
        let interner = Arc::new(Interner::new());
        Session {
            project,
            module,
            carry: Arc::new(InterfaceCarry::new(Arc::clone(&interner))),
            interner,
            store,
            options,
            inbox: Vec::new(),
            rejected_edits: 0,
            revision: 0,
            last_fp: None,
            image: None,
            diagnostics: Vec::new(),
            object: OnceLock::new(),
            clean: false,
        }
    }

    /// The project name.
    pub fn project(&self) -> &str {
        &self.project
    }

    /// Revisions checked so far (0 before the initial check completes).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The session's current sources (all applied edits included).
    pub fn module(&self) -> &GeneratedModule {
        &self.module
    }

    /// Last revision's units, sorted by dotted code name (names resolve
    /// through the session's interner).
    pub fn units(&self) -> &[CodeUnit] {
        self.image.as_ref().map_or(&[], |im| &im.units)
    }

    /// Last revision's rendered diagnostics.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Last revision's object image in the interner-independent
    /// encoding (comparable across sessions and to cold compiles),
    /// encoded on the first call after each compiled revision.
    pub fn object(&self) -> Option<&[u8]> {
        (self.object)
            .get_or_init(|| (self.image.as_ref()).map(|im| encode_image(im, &self.interner)))
            .as_deref()
    }

    /// Edits rejected because the inbox was full.
    pub fn rejected_edits(&self) -> u64 {
        self.rejected_edits
    }

    fn submit(&mut self, op: EditOp) -> Result<(), WatchError> {
        if self.inbox.len() >= INBOX_CAPACITY {
            self.rejected_edits += 1;
            return Err(WatchError::InboxFull {
                capacity: INBOX_CAPACITY,
            });
        }
        self.inbox.push(op);
        Ok(())
    }

    fn check(&mut self) -> CheckReport {
        let start = Instant::now();
        let drained = std::mem::take(&mut self.inbox);
        let ops = coalesce(drained);
        let edits_coalesced = ops.superseded;
        let edits_applied = ops.survivors.len();
        for op in &ops.survivors {
            op.apply(&mut self.module);
        }

        // Serve's single-flight key doubles as the no-op detector: if
        // the coalesced edits left the sources byte-identical (or there
        // were none), skip the compile and answer from the last one.
        let fp = CompileRequest::fingerprint_of(&self.module.source, &self.module.defs);
        if self.last_fp == Some(fp) {
            self.revision += 1;
            return CheckReport {
                project: self.project.clone(),
                revision: self.revision,
                edits_applied,
                edits_coalesced,
                deduped: true,
                clean: self.clean,
                degraded_units: Vec::new(),
                changed_units: Vec::new(),
                diags_added: Vec::new(),
                diags_removed: Vec::new(),
                warm_streams: 0,
                cold_streams: 0,
                wall: start.elapsed(),
            };
        }

        let options = Options {
            incremental: Some(Arc::clone(&self.store) as Arc<dyn ArtifactStore>),
            interface_carry: Some(Arc::clone(&self.carry)),
            ..self.options.clone()
        };
        let defs = Arc::new(std::mem::take(&mut self.module.defs));
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            compile_concurrent(
                &self.module.source,
                Arc::clone(&defs) as Arc<dyn DefProvider>,
                Arc::clone(&self.interner),
                options,
            )
        }));
        // The compile is over and has let go of the library, unless it
        // unwound with the library still held by a task.
        self.module.defs = Arc::try_unwrap(defs).unwrap_or_else(|defs| (*defs).clone());
        let out = out.unwrap_or_else(|p| panic::resume_unwind(p));
        let clean = out.is_ok();
        let diagnostics = render_diagnostics(&out.diagnostics, &out.sources);
        let units = out.image.as_ref().map_or(&[][..], |im| &im.units);
        // Units are sorted by name, so the degraded ones are too.
        let degraded_units: Vec<String> = (units.iter())
            .filter(|u| is_error_unit(u, &self.interner))
            .map(|u| self.interner.resolve(u.name))
            .collect();
        let changed_units = changed_units(self.units(), units, &self.interner);
        let (diags_added, diags_removed) = sorted_diff(&self.diagnostics, &diagnostics);
        let (warm_streams, cold_streams) = out
            .incr
            .as_ref()
            .map(|s| (s.spliced, s.recompiled))
            .unwrap_or((0, 0));

        self.revision += 1;
        self.last_fp = Some(fp);
        self.image = out.image.map(compact);
        self.diagnostics = diagnostics;
        self.object = OnceLock::new();
        if let Some(carry) = out.interface_carry {
            self.carry = carry;
        }
        self.clean = clean;

        CheckReport {
            project: self.project.clone(),
            revision: self.revision,
            edits_applied,
            edits_coalesced,
            deduped: false,
            clean,
            degraded_units,
            changed_units,
            diags_added,
            diags_removed,
            warm_streams,
            cold_streams,
            wall: start.elapsed(),
        }
    }
}

/// The watch service: long-lived sessions keyed by project name,
/// sharing one byte-budgeted artifact store.
pub struct WatchService {
    config: WatchConfig,
    store: Arc<MemStore>,
    sessions: HashMap<String, Session>,
}

impl Default for WatchService {
    fn default() -> WatchService {
        WatchService::new(WatchConfig::default())
    }
}

impl WatchService {
    /// Creates a service with its own shared store.
    pub fn new(config: WatchConfig) -> WatchService {
        let store = Arc::new(MemStore::with_budget(config.store_budget));
        WatchService {
            config,
            store,
            sessions: HashMap::new(),
        }
    }

    /// Opens (or replaces) the session for `project` and runs its
    /// initial revision-0 check, cold against the shared store.
    pub fn open(&mut self, project: impl Into<String>, module: GeneratedModule) -> CheckReport {
        let project = project.into();
        let mut session = Session::new(
            project.clone(),
            module,
            Arc::clone(&self.store),
            self.config.options.clone(),
        );
        let report = session.check();
        self.sessions.insert(project, session);
        report
    }

    /// Queues one edit into `project`'s inbox (bounded; see
    /// [`WatchError::InboxFull`]).
    pub fn submit(&mut self, project: &str, op: EditOp) -> Result<(), WatchError> {
        self.sessions
            .get_mut(project)
            .ok_or_else(|| WatchError::UnknownProject(project.to_string()))?
            .submit(op)
    }

    /// Drains `project`'s inbox, coalesces, applies, re-checks, and
    /// reports the delta.
    pub fn check(&mut self, project: &str) -> Result<CheckReport, WatchError> {
        Ok(self
            .sessions
            .get_mut(project)
            .ok_or_else(|| WatchError::UnknownProject(project.to_string()))?
            .check())
    }

    /// Read access to an open session.
    pub fn session(&self, project: &str) -> Option<&Session> {
        self.sessions.get(project)
    }

    /// Open session count.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Counters of the shared artifact store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }
}

/// Coalescing result: the surviving ops in arrival order of each
/// target's *last* edit, plus how many were superseded.
struct Coalesced {
    survivors: Vec<EditOp>,
    superseded: usize,
}

/// The coalescing target of an edit: body edits key on the procedure
/// index, interface edits on the definition-module name.
#[derive(PartialEq, Eq, Hash)]
enum Target {
    Proc(usize),
    Def(String),
}

fn target(op: &EditOp) -> Target {
    match op {
        EditOp::ProcBody { index, .. }
        | EditOp::BreakBody { index, .. }
        | EditOp::FixBody { index } => Target::Proc(*index),
        EditOp::Interface { def, .. } => Target::Def(def.clone()),
    }
}

/// Newest-wins per target: for each target, only its last queued edit
/// survives; survivors keep their relative arrival order.
fn coalesce(ops: Vec<EditOp>) -> Coalesced {
    let mut last: HashMap<Target, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        last.insert(target(op), i);
    }
    let total = ops.len();
    let survivors: Vec<EditOp> = ops
        .into_iter()
        .enumerate()
        .filter(|(i, op)| last.get(&target(op)) == Some(i))
        .map(|(_, op)| op)
        .collect();
    let superseded = total - survivors.len();
    Coalesced {
        survivors,
        superseded,
    }
}

/// `image` with the slack of its growth trimmed. A session holds its
/// image until the next compiled revision, and the code of a unit
/// compiled live grew by doubling: kept as it is, every open session
/// would hold that slack between checks.
fn compact(mut image: ModuleImage) -> ModuleImage {
    image.units.shrink_to_fit();
    for unit in &mut image.units {
        unit.code.shrink_to_fit();
    }
    image
}

/// Merge-walks two images' units, each sorted by name: the names of
/// the units present on one side only or unequal on both, in order.
/// Names are compared where the interner holds them, and only a changed
/// unit's is copied out.
fn changed_units(old: &[CodeUnit], new: &[CodeUnit], interner: &Interner) -> Vec<String> {
    let mut changed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let order = match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) => interner.as_str(a.name).cmp(interner.as_str(b.name)),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        let unit = match order {
            Ordering::Equal => {
                (i, j) = (i + 1, j + 1);
                if old[i - 1] == new[j - 1] {
                    continue;
                }
                &new[j - 1]
            }
            Ordering::Less => {
                i += 1;
                &old[i - 1]
            }
            Ordering::Greater => {
                j += 1;
                &new[j - 1]
            }
        };
        changed.push(interner.resolve(unit.name));
    }
    changed
}

/// Multiset difference of two sorted string lists: (in `new` only, in
/// `old` only).
fn sorted_diff(old: &[String], new: &[String]) -> (Vec<String>, Vec<String>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) => match a.cmp(b) {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    removed.push(a.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(b.clone());
                    j += 1;
                }
            },
            (Some(a), None) => {
                removed.push(a.clone());
                i += 1;
            }
            (None, Some(b)) => {
                added.push(b.clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_workload::{generate, GenParams};

    fn service() -> WatchService {
        WatchService::new(WatchConfig::default())
    }

    fn small(name: &str, seed: u64) -> GeneratedModule {
        generate(&GenParams::small(name, seed))
    }

    #[test]
    fn open_runs_a_cold_clean_check() {
        let mut svc = service();
        let r = svc.open("p", small("WatchA", 1));
        assert_eq!(r.revision, 1);
        assert!(r.clean, "{:#?}", r.diags_added);
        assert!(r.degraded_units.is_empty());
        assert_eq!(r.warm_streams, 0, "store starts cold");
        assert!(r.cold_streams > 0);
        assert!(!r.changed_units.is_empty(), "all units new at revision 1");
        assert!(svc.session("p").unwrap().object().is_some());
    }

    #[test]
    fn benign_edit_is_warm_and_changes_one_unit() {
        let mut svc = service();
        svc.open("p", small("WatchB", 2));
        svc.submit("p", EditOp::ProcBody { index: 1, seed: 7 })
            .unwrap();
        let r = svc.check("p").unwrap();
        assert!(r.clean);
        assert_eq!(r.edits_applied, 1);
        assert_eq!(r.changed_units, vec!["WatchB.Proc1".to_string()]);
        assert!(r.warm_streams > 0, "siblings splice from the warm store");
        assert!(r.warm_streams > r.cold_streams);
    }

    #[test]
    fn broken_revision_degrades_only_the_edited_stream() {
        let mut svc = service();
        svc.open("p", small("WatchC", 3));
        let clean_units: Vec<_> = svc.session("p").unwrap().units().to_vec();
        svc.submit("p", EditOp::BreakBody { index: 2, seed: 9 })
            .unwrap();
        let r = svc.check("p").unwrap();
        assert!(!r.clean);
        assert!(!r.diags_added.is_empty(), "syntax errors reported");
        assert_eq!(r.degraded_units, vec!["WatchC.Proc2".to_string()]);
        assert_eq!(r.changed_units, vec!["WatchC.Proc2".to_string()]);
        // Every sibling unit is byte-identical to the fault-free
        // revision.
        let session = svc.session("p").unwrap();
        for unit in session.units() {
            let name = session.interner.resolve(unit.name);
            if name != "WatchC.Proc2" {
                let prev = clean_units
                    .iter()
                    .find(|u| u.name == unit.name)
                    .expect("sibling");
                assert_eq!(prev, unit, "{name} unchanged");
            }
        }
        // Fixing restores the clean outputs exactly.
        svc.submit("p", EditOp::FixBody { index: 2 }).unwrap();
        let r = svc.check("p").unwrap();
        assert!(r.clean);
        assert!(r.degraded_units.is_empty());
        assert_eq!(r.diags_removed.len(), 1, "the syntax error is gone");
        assert_eq!(svc.session("p").unwrap().units(), &clean_units[..]);
    }

    #[test]
    fn coalescing_is_newest_wins_per_target() {
        let mut svc = service();
        svc.open("p", small("WatchD", 4));
        // Three edits to Proc0 (only the last survives), one to Proc1.
        svc.submit("p", EditOp::ProcBody { index: 0, seed: 1 })
            .unwrap();
        svc.submit("p", EditOp::BreakBody { index: 0, seed: 2 })
            .unwrap();
        svc.submit("p", EditOp::ProcBody { index: 0, seed: 3 })
            .unwrap();
        svc.submit("p", EditOp::ProcBody { index: 1, seed: 4 })
            .unwrap();
        let r = svc.check("p").unwrap();
        assert_eq!(r.edits_applied, 2);
        assert_eq!(r.edits_coalesced, 2);
        assert!(r.clean, "the superseded break never applied");
        assert_eq!(
            r.changed_units,
            vec!["WatchD.Proc0".to_string(), "WatchD.Proc1".to_string()]
        );
    }

    #[test]
    fn empty_check_dedups_without_compiling() {
        let mut svc = service();
        svc.open("p", small("WatchE", 5));
        let misses_before = svc.store_stats().misses;
        let r = svc.check("p").unwrap();
        assert!(r.deduped);
        assert!(r.clean);
        assert_eq!(r.edits_applied, 0);
        assert_eq!(r.warm_streams + r.cold_streams, 0);
        assert_eq!(r.changed_units, Vec::<String>::new());
        assert_eq!(
            svc.store_stats().misses,
            misses_before,
            "no store traffic on a deduped revision"
        );
        assert_eq!(svc.session("p").unwrap().revision(), 2);
    }

    /// A deduped revision is as clean as the revision it repeats — also
    /// when that one compiled with warnings only.
    #[test]
    fn a_deduped_revision_repeats_the_last_verdict() {
        let mut svc = WatchService::new(WatchConfig {
            options: Options {
                analyze: true,
                ..Options::threads(1)
            },
            ..WatchConfig::default()
        });
        let linted = generate(&GenParams {
            lint_seeds: true,
            ..GenParams::small("WatchLint", 8)
        });
        let opened = svc.open("p", linted);
        assert!(opened.clean, "{:#?}", opened.diags_added);
        assert!(!opened.diags_added.is_empty(), "the lint seeds warn");
        let again = svc.check("p").unwrap();
        assert!(again.deduped);
        assert_eq!(again.clean, opened.clean);
    }

    #[test]
    fn inbox_is_bounded() {
        let mut svc = service();
        svc.open("p", small("WatchF", 6));
        for seed in 0..INBOX_CAPACITY as u64 {
            svc.submit("p", EditOp::ProcBody { index: 0, seed })
                .unwrap();
        }
        let err = svc
            .submit("p", EditOp::ProcBody { index: 2, seed: 1 })
            .unwrap_err();
        assert_eq!(
            err,
            WatchError::InboxFull {
                capacity: INBOX_CAPACITY
            }
        );
        assert_eq!(svc.session("p").unwrap().rejected_edits(), 1);
        // Draining reopens the inbox.
        svc.check("p").unwrap();
        svc.submit("p", EditOp::ProcBody { index: 2, seed: 1 })
            .unwrap();
    }

    #[test]
    fn unknown_project_is_an_error() {
        let mut svc = service();
        assert_eq!(
            svc.check("nope").unwrap_err(),
            WatchError::UnknownProject("nope".into())
        );
        assert!(matches!(
            svc.submit("nope", EditOp::FixBody { index: 0 }),
            Err(WatchError::UnknownProject(_))
        ));
    }

    #[test]
    fn sessions_share_one_store() {
        let mut svc = service();
        svc.open("a", small("Shared", 7));
        let a_insertions = svc.store_stats().insertions;
        assert!(a_insertions > 0);
        // Same sources under a different project: every unit splices
        // from the store the first session warmed.
        let r = svc.open("b", small("Shared", 7));
        assert!(r.warm_streams > 0);
        assert_eq!(r.cold_streams, 0, "fully warm across sessions");
        assert_eq!(svc.sessions(), 2);
    }
}
