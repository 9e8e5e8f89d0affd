//! DKY strategy comparison: compile the same module under the paper's
//! four Doesn't-Know-Yet strategies (§2.2) and compare virtual times and
//! blockage counts. All four must produce the identical object image.
//!
//! ```text
//! cargo run --release --example dky_strategies [suite-index 0..36]
//! ```

use std::sync::Arc;

use ccm2_repro::prelude::*;
use ccm2_workload::suite_params;

fn main() {
    let index: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(28)
        .min(36);
    let m = ccm2_workload::generate(&suite_params(index));
    println!(
        "module {} ({} procedures, {} interfaces), 8 virtual processors\n",
        m.name, m.params.procedures, m.params.interfaces
    );
    println!("strategy     | virtual time | DKY blockages | image identical");
    println!("-------------+--------------+---------------+----------------");
    let mut reference = None;
    for strategy in DkyStrategy::ALL {
        let out = compile_concurrent(
            &m.source,
            Arc::new(m.defs.clone()),
            Arc::new(Interner::new()),
            Options {
                strategy,
                executor: ccm2::Executor::Sim(SimConfig::firefly(8)),
                ..Options::default()
            },
        );
        assert!(
            out.is_ok(),
            "{:#?}",
            &out.diagnostics[..out.diagnostics.len().min(5)]
        );
        // Compare the interner-independent encoding: each compile has an
        // interner of its own, so symbol numbers (which a disassembly
        // prints) differ between runs of identical code.
        let image = out.image.as_ref().expect("image");
        let bytes = ccm2_incr::entry::encode_image(image, &out.interner);
        let identical = match &reference {
            None => {
                reference = Some(bytes);
                true
            }
            Some(r) => *r == bytes,
        };
        println!(
            "{:<12} | {:>12} | {:>13} | {}",
            strategy.name(),
            out.report.virtual_time.expect("sim"),
            out.stats.dky_blockages(),
            if identical { "yes" } else { "NO (bug!)" },
        );
        assert!(identical, "object code must not depend on the DKY strategy");
    }
}
