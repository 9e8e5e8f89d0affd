//! The `reproduce -- watch` drill: the seeded editor session through
//! warm `ccm2-watch` sessions. Edit-to-report latency (p50/p99, against
//! a cold open) is `perf/`'s (`watch_session` and its `watch.*`
//! layers); this drill reports what repeats: warm-stream share,
//! revision outcomes and store contents.

use std::collections::HashMap;

use ccm2_watch::{WatchConfig, WatchService};
use ccm2_workload::{
    edit_session_seeds, generate_suite, suite_params, GenParams, SessionParams, SUITE_SIZE,
};

/// Always-on editor loop: replays the seeded 100-edit session over the
/// full 37-module suite through warm [`ccm2_watch`] sessions at one
/// worker thread. Gates: every session ends clean, at least 90 % of
/// streams splice warm, and the checks together cost less wall time
/// than cold compiles of the same modules.
pub fn watch() -> String {
    let params: Vec<GenParams> = (0..SUITE_SIZE).map(suite_params).collect();
    let suite = generate_suite();
    let session = SessionParams::default();
    let mut out = String::from("Always-on editor sessions (ccm2-watch), 1 worker thread\n");
    out.push_str(&format!(
        "  session: modules={} edits={} seed={:#x} (break {}%, fix {}%, <= {} interface edits)\n",
        suite.len(),
        session.edits,
        session.seed,
        session.break_pct,
        session.fix_pct,
        session.max_interface_edits
    ));

    // Cold baseline for the aggregate gate: median of three independent
    // cold opens per module (each against its own fresh service/store,
    // so no warmth leaks between reps). Tiny modules compile in well
    // under a millisecond, where a single-shot sample is too noisy to
    // gate against.
    let mut cold_samples: HashMap<String, Vec<u64>> = HashMap::new();
    for _rep in 0..2 {
        let mut throwaway = WatchService::new(WatchConfig::default());
        for m in &suite {
            let r = throwaway.open(m.name.clone(), m.clone());
            cold_samples
                .entry(m.name.clone())
                .or_default()
                .push(r.wall.as_micros() as u64);
        }
    }
    let mut svc = WatchService::new(WatchConfig::default());
    let mut cold_by_project: HashMap<String, u64> = HashMap::new();
    for m in &suite {
        let r = svc.open(m.name.clone(), m.clone());
        assert!(r.clean, "suite module {} must open clean", m.name);
        let samples = cold_samples.get_mut(&m.name).expect("two cold reps");
        samples.push(r.wall.as_micros() as u64);
        samples.sort_unstable();
        cold_by_project.insert(m.name.clone(), samples[1]);
    }

    let stream = edit_session_seeds(&params, &session);
    let (mut spliced, mut units_total) = (0usize, 0usize);
    let (mut degraded_revs, mut broken_revs, mut deduped_revs) = (0usize, 0usize, 0usize);
    let (mut checks_total, mut matched_cold_total) = (0u64, 0u64);
    for e in &stream {
        let project = params[e.module].name.as_str();
        svc.submit(project, e.op.clone()).expect("inbox has room");
        let r = svc.check(project).expect("session is open");
        checks_total += r.wall.as_micros() as u64;
        matched_cold_total += cold_by_project[project];
        spliced += r.warm_streams;
        units_total += r.warm_streams + r.cold_streams;
        if !r.degraded_units.is_empty() {
            degraded_revs += 1;
        }
        if !r.clean {
            broken_revs += 1;
        }
        if r.deduped {
            deduped_revs += 1;
        }
    }
    // The generator repairs every break before the stream ends, so every
    // session's final revision is clean.
    for p in &params {
        let s = svc.session(&p.name).expect("open session");
        assert!(
            s.diagnostics().is_empty(),
            "{} must end the session clean",
            p.name
        );
    }

    let warm_ratio = spliced as f64 / units_total as f64;
    out.push_str(&format!(
        "  warm streams: {spliced}/{units_total} ({:.1}% spliced; floor 90%)\n",
        warm_ratio * 100.0
    ));
    out.push_str(&format!(
        "  revisions: {broken_revs} broken (degraded in {degraded_revs}), {deduped_revs} deduped, rest clean\n"
    ));
    let st = svc.store_stats();
    out.push_str(&format!(
        "  shared store: {} entries, {}/{} B used (peak {}), {} hits / {} misses\n",
        st.entries, st.bytes_in_use, st.budget, st.peak_bytes, st.hits, st.misses
    ));

    assert!(
        warm_ratio >= 0.90,
        "warm-hit ratio {warm_ratio:.3} below the 90% floor\n{out}"
    );
    // Nothing else in CI would notice a warm check becoming dearer than
    // a cold compile. The two sums are clock readings and are not
    // printed: a report line must repeat.
    assert!(
        checks_total < matched_cold_total,
        "warm session checks ({checks_total} us) must beat cold compiles of the \
         same modules ({matched_cold_total} us) in aggregate at P=1\n{out}"
    );
    out
}
