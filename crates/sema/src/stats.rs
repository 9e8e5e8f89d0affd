//! Identifier-lookup statistics (paper Table 2).
//!
//! Every symbol-table search is classified along three axes:
//!
//! * **found when** — `First try` (found in the first table searched),
//!   `Search` (found chaining outward), `After DKY` (found in a table that
//!   completed after a Doesn't-Know-Yet blockage), or `Never`;
//! * **scope** — `self` (the searching stream's own scope), `other` (an
//!   explicitly designated initial scope, e.g. a FROM-import's exporting
//!   module), `outer` (reached by chaining through the scope parentage),
//!   `WITH` (a WITH-statement scope) or `Builtin`;
//! * **completeness** — whether the table the identifier was found in was
//!   complete when the search began.
//!
//! Simple and qualified identifiers are tabulated separately, exactly as
//! in the paper. Counters are atomic so concurrently running analysis
//! tasks record without locking.

use std::sync::atomic::{AtomicU64, Ordering};

/// When (and whether) a search succeeded.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FoundWhen {
    /// Found in the first table searched.
    FirstTry,
    /// Found during the outward search through the scope parentage chain.
    Search,
    /// Found in a scope completed after a DKY blockage.
    AfterDky,
    /// Not found anywhere (an undeclared identifier).
    Never,
}

/// Which scope the identifier was found in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScopeClass {
    /// The scope of the stream that initiated the search.
    SelfScope,
    /// An explicitly designated initial search scope (FROM imports).
    Other,
    /// A scope reached chaining outward.
    Outer,
    /// A `WITH` statement scope.
    With,
    /// The pervasive (builtin) scope.
    Builtin,
}

/// Whether the found-in table was complete when the search started.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Completeness {
    /// Table was complete.
    Complete,
    /// Table was still under construction.
    Incomplete,
}

const FW: usize = 3; // FirstTry, Search, AfterDky (Never counted apart)
const SC: usize = 5;
const CP: usize = 2;

fn fw_index(f: FoundWhen) -> usize {
    match f {
        FoundWhen::FirstTry => 0,
        FoundWhen::Search => 1,
        FoundWhen::AfterDky => 2,
        FoundWhen::Never => unreachable!("Never has its own counter"),
    }
}

fn sc_index(s: ScopeClass) -> usize {
    match s {
        ScopeClass::SelfScope => 0,
        ScopeClass::Other => 1,
        ScopeClass::Outer => 2,
        ScopeClass::With => 3,
        ScopeClass::Builtin => 4,
    }
}

fn cp_index(c: Completeness) -> usize {
    match c {
        Completeness::Complete => 0,
        Completeness::Incomplete => 1,
    }
}

/// Thread-safe lookup-statistics accumulator.
#[derive(Debug, Default)]
pub struct LookupStats {
    simple: [[[AtomicU64; CP]; SC]; FW],
    simple_never: AtomicU64,
    qualified: [[AtomicU64; CP]; FW],
    qualified_never: AtomicU64,
    /// DKY blockages incurred (tasks actually waited).
    dky_blockages: AtomicU64,
}

impl LookupStats {
    /// Creates a zeroed accumulator.
    pub fn new() -> LookupStats {
        LookupStats::default()
    }

    /// Records one successful simple-identifier lookup.
    pub fn record_simple(&self, found: FoundWhen, scope: ScopeClass, comp: Completeness) {
        if found == FoundWhen::Never {
            self.simple_never.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.simple[fw_index(found)][sc_index(scope)][cp_index(comp)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one qualified-identifier lookup.
    pub fn record_qualified(&self, found: FoundWhen, comp: Completeness) {
        if found == FoundWhen::Never {
            self.qualified_never.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.qualified[fw_index(found)][cp_index(comp)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a task blocked on a DKY condition.
    pub fn record_dky_blockage(&self) {
        self.dky_blockages.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one simple-identifier counter.
    pub fn simple_count(&self, found: FoundWhen, scope: ScopeClass, comp: Completeness) -> u64 {
        if found == FoundWhen::Never {
            return self.simple_never.load(Ordering::Relaxed);
        }
        self.simple[fw_index(found)][sc_index(scope)][cp_index(comp)].load(Ordering::Relaxed)
    }

    /// Reads one qualified-identifier counter.
    pub fn qualified_count(&self, found: FoundWhen, comp: Completeness) -> u64 {
        if found == FoundWhen::Never {
            return self.qualified_never.load(Ordering::Relaxed);
        }
        self.qualified[fw_index(found)][cp_index(comp)].load(Ordering::Relaxed)
    }

    /// Number of simple lookups that failed everywhere.
    pub fn simple_never(&self) -> u64 {
        self.simple_never.load(Ordering::Relaxed)
    }

    /// Total simple-identifier lookups.
    pub fn simple_total(&self) -> u64 {
        let mut total = self.simple_never();
        for fw in &self.simple {
            for sc in fw {
                for c in sc {
                    total += c.load(Ordering::Relaxed);
                }
            }
        }
        total
    }

    /// Total qualified-identifier lookups.
    pub fn qualified_total(&self) -> u64 {
        let mut total = self.qualified_never.load(Ordering::Relaxed);
        for fw in &self.qualified {
            for c in fw {
                total += c.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Number of DKY blockages recorded.
    pub fn dky_blockages(&self) -> u64 {
        self.dky_blockages.load(Ordering::Relaxed)
    }

    /// Merges another accumulator into this one (used when aggregating a
    /// whole test-suite run, as the paper does for Table 2).
    pub fn merge(&self, other: &LookupStats) {
        for (fw_i, fw) in other.simple.iter().enumerate() {
            for (sc_i, sc) in fw.iter().enumerate() {
                for (cp_i, c) in sc.iter().enumerate() {
                    self.simple[fw_i][sc_i][cp_i]
                        .fetch_add(c.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        self.simple_never.fetch_add(
            other.simple_never.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        for (fw_i, fw) in other.qualified.iter().enumerate() {
            for (cp_i, c) in fw.iter().enumerate() {
                self.qualified[fw_i][cp_i].fetch_add(c.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        self.qualified_never.fetch_add(
            other.qualified_never.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.dky_blockages.fetch_add(
            other.dky_blockages.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Renders the Table 2 rows: `(label, count, percent)` triples for the
    /// simple-identifier side.
    pub fn simple_rows(&self) -> Vec<(String, u64, f64)> {
        let total = self.simple_total().max(1) as f64;
        let mut rows = Vec::new();
        let combos: &[(FoundWhen, ScopeClass, Completeness, &str)] = &[
            (
                FoundWhen::FirstTry,
                ScopeClass::SelfScope,
                Completeness::Complete,
                "First try  self    complete",
            ),
            (
                FoundWhen::FirstTry,
                ScopeClass::SelfScope,
                Completeness::Incomplete,
                "First try  self    incomplete",
            ),
            (
                FoundWhen::FirstTry,
                ScopeClass::Other,
                Completeness::Complete,
                "First try  other   complete",
            ),
            (
                FoundWhen::FirstTry,
                ScopeClass::Other,
                Completeness::Incomplete,
                "First try  other   incomplete",
            ),
            (
                FoundWhen::Search,
                ScopeClass::Outer,
                Completeness::Incomplete,
                "Search     outer   incomplete",
            ),
            (
                FoundWhen::Search,
                ScopeClass::Outer,
                Completeness::Complete,
                "Search     outer   complete",
            ),
            (
                FoundWhen::AfterDky,
                ScopeClass::Outer,
                Completeness::Complete,
                "After DKY  outer   complete",
            ),
            (
                FoundWhen::AfterDky,
                ScopeClass::Other,
                Completeness::Complete,
                "After DKY  other   complete",
            ),
            (
                FoundWhen::FirstTry,
                ScopeClass::With,
                Completeness::Complete,
                "First try  WITH    complete",
            ),
            (
                FoundWhen::FirstTry,
                ScopeClass::Builtin,
                Completeness::Complete,
                "First try  Builtin complete",
            ),
        ];
        for &(f, s, c, label) in combos {
            let n = self.simple_count(f, s, c);
            if n > 0 {
                rows.push((label.to_string(), n, n as f64 * 100.0 / total));
            }
        }
        let never = self.simple_never();
        if never > 0 {
            rows.push((
                "Never      --      --".to_string(),
                never,
                never as f64 * 100.0 / total,
            ));
        }
        rows
    }

    /// Renders the Table 2 rows for the qualified-identifier side.
    pub fn qualified_rows(&self) -> Vec<(String, u64, f64)> {
        let total = self.qualified_total().max(1) as f64;
        let mut rows = Vec::new();
        let combos: &[(FoundWhen, Completeness, &str)] = &[
            (
                FoundWhen::FirstTry,
                Completeness::Incomplete,
                "First try  incomplete",
            ),
            (
                FoundWhen::FirstTry,
                Completeness::Complete,
                "First try  complete",
            ),
            (
                FoundWhen::AfterDky,
                Completeness::Complete,
                "After DKY  complete",
            ),
            // A search that blocked began on an incomplete table.
            (
                FoundWhen::AfterDky,
                Completeness::Incomplete,
                "After DKY  incomplete",
            ),
        ];
        for &(f, c, label) in combos {
            let n = self.qualified_count(f, c);
            if n > 0 {
                rows.push((label.to_string(), n, n as f64 * 100.0 / total));
            }
        }
        let never = self.qualified_never.load(Ordering::Relaxed);
        if never > 0 {
            rows.push((
                "Never      --".to_string(),
                never,
                never as f64 * 100.0 / total,
            ));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let s = LookupStats::new();
        s.record_simple(
            FoundWhen::FirstTry,
            ScopeClass::SelfScope,
            Completeness::Complete,
        );
        s.record_simple(
            FoundWhen::Search,
            ScopeClass::Outer,
            Completeness::Incomplete,
        );
        s.record_simple(FoundWhen::Never, ScopeClass::Outer, Completeness::Complete);
        assert_eq!(
            s.simple_count(
                FoundWhen::FirstTry,
                ScopeClass::SelfScope,
                Completeness::Complete
            ),
            1
        );
        assert_eq!(s.simple_never(), 1);
        assert_eq!(s.simple_total(), 3);
    }

    #[test]
    fn qualified_separate_from_simple() {
        let s = LookupStats::new();
        s.record_qualified(FoundWhen::FirstTry, Completeness::Complete);
        assert_eq!(s.qualified_total(), 1);
        assert_eq!(s.simple_total(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LookupStats::new();
        let b = LookupStats::new();
        a.record_simple(
            FoundWhen::FirstTry,
            ScopeClass::Builtin,
            Completeness::Complete,
        );
        b.record_simple(
            FoundWhen::FirstTry,
            ScopeClass::Builtin,
            Completeness::Complete,
        );
        b.record_dky_blockage();
        a.merge(&b);
        assert_eq!(
            a.simple_count(
                FoundWhen::FirstTry,
                ScopeClass::Builtin,
                Completeness::Complete
            ),
            2
        );
        assert_eq!(a.dky_blockages(), 1);
    }

    #[test]
    fn rows_report_percentages() {
        let s = LookupStats::new();
        for _ in 0..3 {
            s.record_simple(
                FoundWhen::FirstTry,
                ScopeClass::SelfScope,
                Completeness::Complete,
            );
        }
        s.record_simple(
            FoundWhen::AfterDky,
            ScopeClass::Outer,
            Completeness::Complete,
        );
        let rows = s.simple_rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].2 - 75.0).abs() < 1e-9);
    }
}
