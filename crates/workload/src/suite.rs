//! The 37-program test suite (paper §4.1, Table 1).
//!
//! The paper's suite came from the DEC SRC Modula-2+ library — proprietary
//! and long gone. This module regenerates a suite of 37 modules whose
//! *gross characteristics* match Table 1: module sizes from a few KB to a
//! few hundred KB, 4–133 imported interfaces with nesting depth 1–12, and
//! 2–221 procedures, log-distributed so the medians land near the paper's
//! (size ≈ 13 KB, 17 interfaces, depth 5, 16 procedures, 37 streams).
//!
//! Every module is generated from a fixed seed, so the whole evaluation
//! is reproducible bit-for-bit.

use crate::gen::{generate, GenParams, GeneratedModule};

/// Number of programs in the suite, as in the paper.
pub const SUITE_SIZE: usize = 37;

/// Log-interpolates between `lo` and `hi` at fraction `f ∈ [0, 1]`.
fn log_interp(lo: f64, hi: f64, f: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * f).exp()
}

/// The shape parameters of suite entry `i` (0-based).
///
/// Entries are ordered small → large; the benchmark harness later sorts
/// by measured sequential compile time to form the paper's quartiles.
pub fn suite_params(i: usize) -> GenParams {
    assert!(i < SUITE_SIZE, "suite has {SUITE_SIZE} programs");
    let f = i as f64 / (SUITE_SIZE - 1) as f64;
    // Procedures: 2 .. 221, median ≈ 16 ⇒ bias the curve downward.
    let procedures = log_interp(2.0, 221.0, f.powf(1.35)).round() as usize;
    // Interfaces: 4 .. 133, median ≈ 17.
    let interfaces = log_interp(4.0, 133.0, f.powf(1.25)).round() as usize;
    // Import nesting depth: 1 .. 12, median ≈ 5.
    let import_depth = (1.0 + 11.0 * f.powf(1.1)).round() as usize;
    let import_depth = import_depth.min(interfaces.max(1));
    // Statement volume grows slowly with size.
    let stmts_per_proc = log_interp(10.0, 42.0, f).round() as usize;
    GenParams {
        name: format!("Suite{i:02}"),
        seed: 0xCCD_1992 + i as u64 * 7919,
        procedures,
        interfaces,
        import_depth,
        stmts_per_proc,
        nested_ratio: 0.12,
        lint_seeds: false,
        lock_seeds: false,
    }
}

/// Generates the whole suite (37 modules). This is deterministic and
/// takes a few hundred milliseconds.
pub fn generate_suite() -> Vec<GeneratedModule> {
    (0..SUITE_SIZE)
        .map(|i| generate(&suite_params(i)))
        .collect()
}

/// Gross characteristics of a generated suite (Table 1's columns,
/// without the compile times — those come from running the compiler).
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteStats {
    /// Minimum / median / maximum module size in bytes.
    pub size: (usize, usize, usize),
    /// Minimum / median / maximum imported interfaces.
    pub interfaces: (usize, usize, usize),
    /// Minimum / median / maximum import nesting depth.
    pub depth: (usize, usize, usize),
    /// Minimum / median / maximum procedure count.
    pub procedures: (usize, usize, usize),
    /// Minimum / median / maximum stream count (1 + interfaces +
    /// procedures).
    pub streams: (usize, usize, usize),
}

fn min_med_max(mut v: Vec<usize>) -> (usize, usize, usize) {
    v.sort_unstable();
    (v[0], v[v.len() / 2], v[v.len() - 1])
}

/// Computes the suite's gross characteristics.
pub fn suite_stats(suite: &[GeneratedModule]) -> SuiteStats {
    SuiteStats {
        size: min_med_max(suite.iter().map(|m| m.size_bytes()).collect()),
        interfaces: min_med_max(suite.iter().map(|m| m.params.interfaces).collect()),
        depth: min_med_max(suite.iter().map(|m| m.params.import_depth).collect()),
        procedures: min_med_max(suite.iter().map(|m| m.params.procedures).collect()),
        streams: min_med_max(
            suite
                .iter()
                .map(|m| 1 + m.params.interfaces + m.params.procedures)
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_37_programs() {
        assert_eq!(generate_suite().len(), SUITE_SIZE);
    }

    #[test]
    fn shape_matches_table_1_ranges() {
        let suite = generate_suite();
        let s = suite_stats(&suite);
        // Paper Table 1: procedures 2..221 (median 16), interfaces 4..133
        // (median 17), depth 1..12 (median 5), streams 15..315 (median 37).
        assert_eq!(s.procedures.0, 2);
        assert_eq!(s.procedures.2, 221);
        assert!(
            (8..=30).contains(&s.procedures.1),
            "median procs {}",
            s.procedures.1
        );
        assert_eq!(s.interfaces.0, 4);
        assert_eq!(s.interfaces.2, 133);
        assert!(
            (10..=28).contains(&s.interfaces.1),
            "median ifaces {}",
            s.interfaces.1
        );
        assert_eq!(s.depth.0, 1);
        assert_eq!(s.depth.2, 12);
        assert!((3..=7).contains(&s.depth.1), "median depth {}", s.depth.1);
        assert!(s.streams.0 >= 7, "min streams {}", s.streams.0);
        assert!(s.streams.2 >= 250, "max streams {}", s.streams.2);
        assert!(
            (25..=60).contains(&s.streams.1),
            "median streams {}",
            s.streams.1
        );
    }

    #[test]
    fn first_and_last_compile() {
        for i in [0, SUITE_SIZE - 1] {
            let m = generate(&suite_params(i));
            let out = ccm2_seq::compile(&m.source, &m.defs);
            assert!(out.is_ok(), "suite[{i}]: {:#?}", out.diagnostics);
        }
    }

    #[test]
    fn sizes_span_orders_of_magnitude() {
        let suite = generate_suite();
        let s = suite_stats(&suite);
        assert!(s.size.0 < 10_000, "min size {}", s.size.0);
        assert!(s.size.2 > 80_000, "max size {}", s.size.2);
    }
}
