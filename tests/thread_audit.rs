//! The threaded executor's cleanup after a degraded run: no extra OS
//! threads left behind, and the process not poisoned for later clean
//! compiles.
//!
//! The audit counts the threads of the whole process, and the worker
//! crew is process-wide: a test running beside it in the same binary
//! grows the crew while it counts. So it is the only test of this
//! binary.

use std::sync::Arc;

use ccm2::CompileError;
use ccm2_bench::kit::{compile, fault_module};
use ccm2_faults::FaultPlan;
use ccm2_sema::symtab::DkyStrategy;

/// Threads of this process. A listing of `/proc/self/task` ends early
/// when the thread it has reached exits meanwhile, so the count is taken
/// again until two listings agree.
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    let listed = || {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    };
    let mut count = listed();
    loop {
        let again = listed();
        if again == count {
            return count;
        }
        count = again;
    }
}

/// A degraded threaded run must join every worker it spawned: no leaked
/// OS threads, and the process stays healthy for later clean compiles
/// (`parking_lot`-style locks — no mutex poisoning to trip over).
#[cfg(target_os = "linux")]
#[test]
fn degraded_threaded_run_joins_all_workers_and_does_not_poison() {
    let m = fault_module("Px", 0xF0);
    // Warm-up so lazily spawned runtime threads don't skew the count.
    let warm = compile(&m, None, DkyStrategy::Skeptical, false);
    assert!(warm.errors.is_empty());
    let before = os_thread_count();

    let degraded = compile(
        &m,
        Some(Arc::new(FaultPlan::single("task:procparse(FaultShort)"))),
        DkyStrategy::Skeptical,
        false,
    );
    assert!(!degraded.errors.is_empty());
    assert!(degraded.errors.iter().any(
        |e| matches!(e, CompileError::StreamFault { task, .. } if task.contains("FaultShort"))
    ));

    // Workers are joined before run_threaded_with returns; give the OS a
    // moment to reap just in case, then audit.
    for _ in 0..50 {
        if os_thread_count() <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        os_thread_count() <= before,
        "degraded run leaked OS threads: {} -> {}",
        before,
        os_thread_count()
    );

    // And the process is not poisoned: a clean compile still succeeds.
    let clean = compile(&m, None, DkyStrategy::Skeptical, false);
    assert!(clean.errors.is_empty(), "{:?}", clean.errors);
    assert!(clean.image.is_some());
}
