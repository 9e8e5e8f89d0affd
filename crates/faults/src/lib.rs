//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] decides, for every *named site* the runtime passes
//! through, whether a fault fires there and which kind. The decision is
//! a **pure function of the site name** (the first matching override),
//! so it is independent of scheduling order: the same plan injects the
//! same faults whether the compile runs on the virtual-time simulator or
//! on real threads, with any worker count. That is what makes the
//! survival matrix (`reproduce -- faults`) and the degradation property
//! tests reproducible.
//!
//! # Site naming
//!
//! | prefix      | queried by                  | kinds that apply          |
//! |-------------|-----------------------------|---------------------------|
//! | `task:{name}`   | both executors, at dispatch | [`FaultKind::Panic`], [`FaultKind::Stall`] |
//! | `signal:{event}`| both executors, per signal  | [`FaultKind::LoseSignal`] |
//!
//! Task and event names are the scheduler's own labels (`codegen(M.P)`,
//! `heading(P)`, …), so a plan can target one stream of one compile.
//! Patterns may contain `*` wildcards (`task:codegen(*FaultShort*)`).
//! A network partition is not a site: it is the fabric transports'
//! `set_partitioned` switch.
//!
//! Sites that fire are logged; [`FaultPlan::fired`] returns the sorted,
//! deduplicated list so harnesses can assert an injection actually
//! happened (a plan targeting a misspelled site would otherwise pass
//! vacuously). A plan built with [`FaultPlan::with_probe_recording`]
//! additionally logs every site *queried* — fired or not — which is how
//! `reproduce -- sites` enumerates the site namespace of a real compile
//! so chaos plans can be authored without grepping source.

use parking_lot::Mutex;

/// What happens at a site the plan selects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The task body panics at dispatch, before running any compiler
    /// code (the executor catches it and degrades the stream).
    Panic,
    /// Every signal of the event is dropped: the event is never marked
    /// signaled, so waiters wedge until the watchdog force-releases.
    LoseSignal,
    /// The task stalls at dispatch: `units` virtual time units on the
    /// simulator, `units` milliseconds of real sleep on threads.
    Stall {
        /// Stall length in executor-native units (see above).
        units: u64,
    },
}

/// A deterministic fault plan: explicit site overrides, first match
/// wins.
pub struct FaultPlan {
    overrides: Vec<(String, FaultKind)>,
    fired: Mutex<Vec<String>>,
    /// When true, every queried site is recorded in `probed` (site
    /// enumeration for `reproduce -- sites`).
    record_probes: bool,
    probed: Mutex<Vec<String>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("overrides", &self.overrides)
            .finish()
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan: no site ever fires.
    pub fn new() -> FaultPlan {
        FaultPlan {
            overrides: Vec::new(),
            fired: Mutex::new(Vec::new()),
            record_probes: false,
            probed: Mutex::new(Vec::new()),
        }
    }

    /// A plan injecting exactly one fault.
    pub fn single(pattern: impl Into<String>, kind: FaultKind) -> FaultPlan {
        FaultPlan::new().with_fault(pattern, kind)
    }

    /// Adds an explicit override: any site matching `pattern` (literal,
    /// or a glob with `*` wildcards) fires `kind`. First match wins.
    pub fn with_fault(mut self, pattern: impl Into<String>, kind: FaultKind) -> FaultPlan {
        self.overrides.push((pattern.into(), kind));
        self
    }

    /// Turns on probe recording: every site the runtime queries — fired
    /// or not — is logged for [`FaultPlan::probed`]. An empty plan with
    /// probe recording is the site-namespace enumerator behind
    /// `reproduce -- sites`.
    pub fn with_probe_recording(mut self) -> FaultPlan {
        self.record_probes = true;
        self
    }

    /// The fault at `site`, if any. Pure in the site name; firing sites
    /// are logged for [`FaultPlan::fired`].
    pub fn at(&self, site: &str) -> Option<FaultKind> {
        if self.record_probes {
            let mut probed = self.probed.lock();
            if !probed.iter().any(|s| s == site) {
                probed.push(site.to_string());
            }
        }
        let hit = self
            .overrides
            .iter()
            .find(|(p, _)| glob_match(p, site))
            .map(|(_, k)| *k);
        if let Some(kind) = hit {
            let entry = format!("{site} -> {kind:?}");
            let mut log = self.fired.lock();
            if !log.contains(&entry) {
                log.push(entry);
            }
        }
        hit
    }

    /// Sorted, deduplicated `site -> kind` log of every site that fired.
    pub fn fired(&self) -> Vec<String> {
        let mut v = self.fired.lock().clone();
        v.sort();
        v
    }

    /// Whether any site fired.
    pub fn any_fired(&self) -> bool {
        !self.fired.lock().is_empty()
    }

    /// Sorted, deduplicated list of every site queried so far. Empty
    /// unless the plan was built with
    /// [`FaultPlan::with_probe_recording`].
    pub fn probed(&self) -> Vec<String> {
        let mut v = self.probed.lock().clone();
        v.sort();
        v
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
        assert_eq!(p.at("task:codegen(M.P)"), None);
        assert!(!p.any_fired());
    }

    #[test]
    fn exact_override_fires_and_logs() {
        let p = FaultPlan::single("task:codegen(M.P)", FaultKind::Panic);
        assert_eq!(p.at("task:codegen(M.P)"), Some(FaultKind::Panic));
        assert_eq!(p.at("task:codegen(M.Q)"), None);
        assert_eq!(p.fired(), vec!["task:codegen(M.P) -> Panic".to_string()]);
    }

    #[test]
    fn glob_patterns_match_substrings() {
        let p = FaultPlan::single("task:codegen(*FaultShort*)", FaultKind::Panic);
        assert_eq!(p.at("task:codegen(Mod.FaultShort)"), Some(FaultKind::Panic));
        assert_eq!(p.at("task:codegen(Mod.Other)"), None);
        assert_eq!(p.at("task:analyze(Mod.FaultShort)"), None);
        assert!(glob_match("signal:heading(*)", "signal:heading(P)"));
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
    fn first_matching_override_wins() {
        let p = FaultPlan::new()
            .with_fault("task:*", FaultKind::Stall { units: 7 })
            .with_fault("task:lex(Main)", FaultKind::Panic);
        assert_eq!(p.at("task:lex(Main)"), Some(FaultKind::Stall { units: 7 }));
    }

    #[test]
    fn probe_recording_logs_every_queried_site() {
        let p = FaultPlan::new().with_probe_recording();
        assert_eq!(p.at("task:codegen(M.P)"), None);
        p.at("task:codegen(M.P)");
        p.at("signal:heading(P)");
        assert_eq!(
            p.probed(),
            vec![
                "signal:heading(P)".to_string(),
                "task:codegen(M.P)".to_string()
            ]
        );
        assert!(!p.any_fired(), "probing never injects");
        let silent = FaultPlan::new();
        silent.at("task:codegen(M.P)");
        assert!(silent.probed().is_empty(), "recording is opt-in");
    }

    #[test]
    fn fired_log_dedups_repeat_queries() {
        let p = FaultPlan::single("signal:e", FaultKind::LoseSignal);
        p.at("signal:e");
        p.at("signal:e");
        p.at("signal:e");
        assert_eq!(p.fired().len(), 1);
    }
}
