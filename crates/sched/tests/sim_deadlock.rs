//! A deadlock the simulator reports ends its run cleanly. The task
//! threads it parked unwind without running the panic hook, and the
//! controller joins them before it reports. One test in this file: it
//! installs a process-wide panic hook.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ccm2_sched::{run_sim, EventClass, ExecEnv, SimConfig, TaskDesc, TaskKind};
use ccm2_support::work::Work;

/// Threads of this process named as the simulator names a task's. A
/// listing of `/proc/self/task` ends early when the thread it has
/// reached exits meanwhile, so the count is taken again until two
/// listings agree.
fn sim_threads() -> usize {
    let listed = || {
        std::fs::read_dir("/proc/self/task")
            .expect("linux procfs")
            .filter(|task| {
                let comm = task.as_ref().expect("task entry").path().join("comm");
                // A thread may exit between the listing and the read.
                std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with("sim-"))
            })
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

#[test]
fn a_deadlocked_run_joins_its_task_threads_and_none_of_them_panics() {
    let hooked: Arc<Mutex<Vec<String>>> = Arc::default();
    let seen = Arc::clone(&hooked);
    std::panic::set_hook(Box::new(move |_| {
        let name = std::thread::current().name().unwrap_or("?").to_string();
        seen.lock().unwrap_or_else(|e| e.into_inner()).push(name);
    }));
    let run = std::panic::catch_unwind(|| {
        run_sim(SimConfig::new(2), |env| {
            let never = env.new_event(EventClass::Handled);
            for k in 0..3 {
                let task_env = Arc::clone(env);
                env.spawn(TaskDesc::new(
                    format!("stuck{k}"),
                    TaskKind::ProcParse,
                    Box::new(move || {
                        task_env.charge(Work::Parse, 10);
                        task_env.wait(never);
                    }),
                ));
            }
        })
    });
    let surviving = sim_threads();
    // A thread the run left behind would still be on its way out.
    std::thread::sleep(Duration::from_millis(100));
    let _ = std::panic::take_hook();

    let payload = run.expect_err("nothing signals the event: a deadlock");
    let message = payload
        .downcast_ref::<String>()
        .expect("the deadlock report");
    assert!(message.starts_with("virtual-time deadlock"), "{message}");
    assert_eq!(surviving, 0, "task threads outlived the run");
    let hooked = hooked.lock().unwrap_or_else(|e| e.into_inner());
    let from_tasks: Vec<&String> = hooked.iter().filter(|n| n.starts_with("sim-")).collect();
    assert!(
        from_tasks.is_empty(),
        "task threads panicked: {from_tasks:?}"
    );
    assert_eq!(hooked.len(), 1, "only the report itself: {hooked:?}");
}
