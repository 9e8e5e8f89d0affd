//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] is a list of `task:{name}` patterns. Both executors
//! ask it, as they dispatch a task, whether the task's body panics in
//! place of running. The answer is a **pure function of the site name**
//! (does any pattern match), so it is independent of scheduling order:
//! the same plan injects the same faults whether the compile runs on the
//! virtual-time simulator or on real threads, with any worker count.
//! That is what makes the survival matrix (`reproduce -- faults`) and
//! the degradation property tests reproducible.
//!
//! Task names are the scheduler's own labels (`codegen(M.P)`,
//! `procparse(P)`, …), so a plan can target one stream of one compile.
//! Patterns may contain `*` wildcards (`task:codegen(*FaultShort*)`).
//! A network partition is not a site: it is the fabric transports'
//! `set_partitioned` switch.
//!
//! Sites that fire are logged; [`FaultPlan::fired`] returns the sorted,
//! deduplicated list so harnesses can assert an injection actually
//! happened (a plan targeting a misspelled site would otherwise pass
//! vacuously).

use parking_lot::Mutex;

/// A deterministic fault plan: the `task:` sites whose dispatch panics.
#[derive(Default)]
pub struct FaultPlan {
    patterns: Vec<String>,
    fired: Mutex<Vec<String>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("patterns", &self.patterns)
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan: no site ever fires.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan injecting a panic at the sites `pattern` matches.
    pub fn single(pattern: impl Into<String>) -> FaultPlan {
        FaultPlan::new().with_fault(pattern)
    }

    /// Adds a pattern: any site matching it (literal, or a glob with `*`
    /// wildcards) fires.
    pub fn with_fault(mut self, pattern: impl Into<String>) -> FaultPlan {
        self.patterns.push(pattern.into());
        self
    }

    /// Whether the plan fires at `site`. Pure in the site name; firing
    /// sites are logged for [`FaultPlan::fired`].
    pub fn fires(&self, site: &str) -> bool {
        let hit = self.patterns.iter().any(|p| glob_match(p, site));
        if hit {
            let mut log = self.fired.lock();
            if !log.iter().any(|s| s == site) {
                log.push(site.to_string());
            }
        }
        hit
    }

    /// Sorted, deduplicated log of every site that fired.
    pub fn fired(&self) -> Vec<String> {
        let mut v = self.fired.lock().clone();
        v.sort();
        v
    }

    /// Whether any site fired.
    pub fn any_fired(&self) -> bool {
        !self.fired.lock().is_empty()
    }
}

/// Glob-lite matching: `*` matches any (possibly empty) substring; all
/// other characters are literal.
fn glob_match(pattern: &str, site: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == site;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut pos = 0usize;
    let last = parts.len() - 1;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            if !site.starts_with(part) {
                return false;
            }
            pos = part.len();
        } else if i == last {
            let rest = &site[pos..];
            if !rest.ends_with(part) {
                return false;
            }
        } else {
            match site[pos..].find(part) {
                Some(off) => pos += off + part.len(),
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::new();
        assert!(!p.fires("task:codegen(M.P)"));
        assert!(!p.any_fired());
    }

    #[test]
    fn exact_pattern_fires_and_logs() {
        let p = FaultPlan::single("task:codegen(M.P)");
        assert!(p.fires("task:codegen(M.P)"));
        assert!(!p.fires("task:codegen(M.Q)"));
        assert_eq!(p.fired(), vec!["task:codegen(M.P)".to_string()]);
    }

    #[test]
    fn glob_patterns_match_substrings() {
        let p = FaultPlan::single("task:codegen(*FaultShort*)");
        assert!(p.fires("task:codegen(Mod.FaultShort)"));
        assert!(!p.fires("task:codegen(Mod.Other)"));
        assert!(!p.fires("task:analyze(Mod.FaultShort)"));
        assert!(glob_match("task:heading(*)", "task:heading(P)"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("task:a*b", "task:b-then-a"));
        assert!(glob_match("a*b*c", "a--b--c"));
        assert!(!glob_match("a*b*c", "a--c--b"));
        // A trailing `*` matches from the prefix on, empty tail included;
        // a pattern without one matches whole names only.
        assert!(glob_match("task:lex*", "task:lex"));
        assert!(glob_match("task:lex*", "task:lex(Main)"));
        assert!(!glob_match("task:lex*", "task:le"));
        assert!(!glob_match("task:lex", "task:lex(Main)"));
    }

    #[test]
    fn any_pattern_of_a_plan_fires() {
        let p = FaultPlan::new()
            .with_fault("task:lex(Main)")
            .with_fault("task:codegen(*)");
        assert!(p.fires("task:codegen(M.P)"));
        assert!(p.fires("task:lex(Main)"));
        assert!(!p.fires("task:split(Main)"));
        let want = ["task:codegen(M.P)", "task:lex(Main)"];
        assert_eq!(p.fired(), want);
    }

    #[test]
    fn fired_log_dedups_repeat_queries() {
        let p = FaultPlan::single("task:e");
        p.fires("task:e");
        p.fires("task:e");
        p.fires("task:e");
        assert_eq!(p.fired().len(), 1);
    }
}
