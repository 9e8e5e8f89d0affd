//! Per-unit call-graph and lock-event extraction.
//!
//! While [`analyze_unit`](crate::analyze_unit) walks a unit for the
//! intra-procedural lints it *also* records, in source order, the two
//! kinds of events the interprocedural pass needs:
//!
//! * every `LOCK` entered, together with the stack of designators
//!   already held at that point ([`LockAcquire`]);
//! * every call made, together with the held stack at the call site
//!   ([`CallSite`]).
//!
//! One [`UnitSummary`] per unit is the whole interface between the
//! per-unit walk and the interprocedural fixpoint of
//! [`lockorder`](crate::lockorder) — compact enough to cache through
//! `ccm2-incr` (see [`summary`](crate::summary) for the wire encoding).
//!
//! Units are named by their dotted code name (`M`, `M.P`, `M.P.Q`), the
//! same spelling both drivers derive during declaration analysis, so the
//! summaries produced by the sequential and the concurrent compiler are
//! identical structures. Call sites store the *canonical designator
//! string* of the callee (`Q`, `Lib.P`, `pv^`); resolution to a unit —
//! innermost enclosing scope first, exactly Modula-2's visibility rule —
//! happens later, in the fixpoint, where the full unit set is known.

use ccm2_support::source::Span;

/// One `LOCK` statement entered by a unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockAcquire {
    /// Designators already held when this LOCK is entered (outermost
    /// first — the linter's lock stack at that point).
    pub held: Vec<String>,
    /// Canonical designator string of the mutex being acquired.
    pub lock: String,
    /// Span of the LOCK statement.
    pub span: Span,
}

/// One call made by a unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Designators held at the call site (outermost first).
    pub held: Vec<String>,
    /// Canonical designator string of the callee (`Q` for a bare name,
    /// `Lib.P` for a qualified one). Resolved against the unit map by
    /// the interprocedural pass; unresolvable callees are ignored there.
    pub callee: String,
    /// Span of the callee expression at the call site.
    pub span: Span,
}

/// Everything the interprocedural lock-order pass needs to know about
/// one unit: its identity and its lock/call events in source order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnitSummary {
    /// Dotted code name (`M` for the module unit, `M.P.Q` for a nested
    /// procedure) — globally unique within one compilation.
    pub unit: String,
    /// LOCKs entered, in source order.
    pub acquires: Vec<LockAcquire>,
    /// Calls made, in source order.
    pub calls: Vec<CallSite>,
    /// True when this summary was replayed from the incremental cache
    /// rather than recomputed. Never encoded; only feeds
    /// [`LockStats`](crate::lockorder::LockStats).
    pub from_cache: bool,
}

impl UnitSummary {
    /// An empty summary for the named unit.
    pub fn new(unit: impl Into<String>) -> UnitSummary {
        UnitSummary {
            unit: unit.into(),
            ..UnitSummary::default()
        }
    }
}
