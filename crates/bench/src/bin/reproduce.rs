//! `reproduce` — regenerates the paper's tables and figures and runs the
//! drills. Sections are the names in [`ccm2_bench::SECTIONS`]; `all`, or
//! no argument, runs every one in table order, and a name that is not a
//! section is an error (exit status 2), so a mistyped gate cannot pass
//! by printing nothing.
//!
//! ```text
//! cargo run --release -p ccm2-bench --bin reproduce -- all
//! cargo run --release -p ccm2-bench --bin reproduce -- table1 table2
//! cargo run --release -p ccm2-bench --bin reproduce -- table3 fig1 fig2 fig3
//! cargo run --release -p ccm2-bench --bin reproduce -- fig4 fig5 fig7
//! cargo run --release -p ccm2-bench --bin reproduce -- overhead dky headings workcrews
//! cargo run --release -p ccm2-bench --bin reproduce -- earlysplit analyze locks incr
//! cargo run --release -p ccm2-bench --bin reproduce -- serve fabric chaosnet watch
//! cargo run --release -p ccm2-bench --bin reproduce -- faults recover sites
//! ```
//!
//! Stdout carries no clock reading: on one commit it repeats byte for
//! byte (`dky` excepted, see EXPERIMENTS.md), and `reproduce_output.txt`
//! at the repository root is the recording `ci.sh` diffs against.

use ccm2_bench::{Report, SECTIONS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "all" && !names.contains(&a.as_str()))
    {
        eprintln!(
            "reproduce: no section `{unknown}`; sections: {} all",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    // Table 3 and Figures 1-3 share one expensive measurement.
    let mut speedups = None;
    for (name, report) in SECTIONS {
        if !all && !args.iter().any(|a| a == name) {
            continue;
        }
        let text = match report {
            Report::Alone(run) => run(),
            Report::Speedups(format) => format(speedups.get_or_insert_with(|| {
                eprintln!("measuring suite speedups (37 modules x 8 processor counts)...");
                ccm2_bench::paper::measure_all()
            })),
        };
        println!("{text}\n");
    }
}
