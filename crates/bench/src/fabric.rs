//! The `reproduce -- fabric` drill: the sharded fleet against one
//! standalone compile per request. Wall time and throughput per shard
//! count are `perf/`'s (`fabric_tcp` and its `fabric.*` layers); the
//! width sweep here is a byte-identity check.

use std::collections::BTreeSet;

use ccm2_fabric::{Fabric, HashRing, DEFAULT_VNODES};
use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
use ccm2_support::defs::DefProvider as _;
use ccm2_workload::{serve_load, shard_kill_schedule, ServeEvent, ServeLoadParams};

use crate::kit::{drive, requests, Oracle};

/// A shard-count sweep of the fleet (byte-identical to
/// standalone at every width) and a seeded mid-stream shard-kill
/// failover with zero lost admitted requests.
pub fn fabric() -> String {
    fabric_with(
        &ServeLoadParams {
            seed: 0xFAB,
            projects: 3,
            clients: 6,
            events: 48,
            edit_every: 6,
            interface_every: 3,
        },
        &[1, 2, 3, 4],
    )
}

/// [`fabric`] with explicit load and shard sweep (tests use a smaller
/// load).
fn fabric_with(load: &ServeLoadParams, sweep: &[usize]) -> String {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    };

    let mut out =
        String::from("Compile fabric (ccm2-fabric): sharded fleet over CCM2WIRE on TCP\n");
    out.push_str(&format!(
        "  load: projects={} clients={} events={} edit every {} (interface every {}th edit), seed {:#x}\n",
        load.projects, load.clients, load.events, load.edit_every, load.interface_every, load.seed
    ));
    out.push_str(&format!(
        "  per-shard service: workers={} queue_capacity={} store_budget={} B\n\n",
        config.workers, config.queue_capacity, config.store_budget
    ));

    // Ground truth: standalone compiles per unique fingerprint. Every
    // response in every part below must match these bytes, and every
    // admitted request must come back.
    let reqs = requests(&serve_load(load), ExecChoice::Sim(4));
    let oracle = Oracle::of(&reqs);

    // Part 1 — shard-count sweep.
    out.push_str("shard sweep: every width byte-identical to standalone\n");
    out.push_str("  shards | waves | shard joins | fleet compiles\n");
    out.push_str("  -------+-------+-------------+---------------\n");
    for &n in sweep {
        let fabric = Fabric::start(n, config);
        let (waves, _) = drive(fabric.router(), &reqs, &oracle);
        let services = fabric.nodes().iter().map(|node| node.service().stats());
        let (joins, compiles) = services.fold((0, 0), |(j, c), s| (j + s.joined, c + s.compiled));
        out.push_str(&format!(
            "  {n:>6} | {waves:>5} | {joins:>11} | {compiles:>14}\n"
        ));
    }

    // Part 2 — seeded mid-stream shard kill at 3 shards.
    let shards = 3usize;
    let (kill_at, victim) = shard_kill_schedule(load, shards as u32, 1)
        .first()
        .copied()
        .unwrap_or((reqs.len() / 2, 0));
    let fabric = Fabric::start(shards, config);
    drive(fabric.router(), &reqs[..kill_at], &oracle);
    fabric.router().kill_shard(victim);
    drive(fabric.router(), &reqs[kill_at..], &oracle);
    let live = fabric.router().live_shards();
    assert!(!live.contains(&victim), "victim must leave the ring");
    assert_eq!(live.len(), shards - 1);
    // What the absorb bought. The events after the kill can all be
    // answered by lookup, touching no store (in `fabric()`'s load all
    // seven are), so the victim's own answered requests are asked again,
    // one at a time: they compile on the survivors, against its replica.
    let ring = HashRing::new(&(0..shards as u32).collect::<Vec<_>>(), DEFAULT_VNODES);
    let mut owned: Vec<CompileRequest> = (reqs[..kill_at].iter())
        .filter(|req| ring.route(req.fingerprint()) == Some(victim))
        .cloned()
        .collect();
    owned.sort_by_key(CompileRequest::fingerprint);
    owned.dedup_by_key(|req| req.fingerprint());
    let survivors = || fabric.nodes().iter().filter(|node| node.id() != victim);
    // Sends `reqs` one at a time; returns what the survivors compiled,
    // and their store hits and misses meanwhile.
    let one_by_one = |reqs: &[CompileRequest], oracle: &Oracle| {
        let counts = || {
            survivors().fold([0; 3], |c, node| {
                let (svc, store) = (node.service().stats(), node.service().store().stats());
                [c[0] + svc.compiled, c[1] + store.hits, c[2] + store.misses]
            })
        };
        let before = counts();
        for req in reqs.chunks(1) {
            drive(fabric.router(), req, oracle);
        }
        let after = counts();
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    let [_, hits, misses] = one_by_one(&owned, &oracle);
    // What failover re-routes: compiles of keys the victim owned that
    // the fleet has never seen.
    let edits = rerouted_edits(load, kill_at, &ring, victim);
    let [rerouted, edit_hits, edit_misses] = one_by_one(&edits, &Oracle::of(&edits));
    let absorbed: u64 = survivors().map(|node| node.stats().absorbed_entries).sum();
    out.push_str(&format!(
        "\nkill drill ({} shards): shard {} killed before event {} (seeded schedule)\n",
        shards, victim, kill_at
    ));
    out.push_str(&format!(
        "  failover: ring rebalance + {} survivor absorbs; {} replicated entries warmed survivors\n",
        fabric.router().stats().absorbs,
        absorbed
    ));
    out.push_str(&format!(
        "  the victim's {} answered requests asked again: {} store hits, {} misses on survivors\n",
        owned.len(),
        hits,
        misses
    ));
    out.push_str(&format!(
        "  {} fresh body edits of the victim's keys: {} re-routed compiles, {} store hits, {} misses on survivors, byte-identical to standalone\n",
        edits.len(),
        rerouted,
        edit_hits,
        edit_misses
    ));
    out.push_str(&format!(
        "  served {}+{} events across the kill: 0 lost, 0 mismatched vs standalone\n",
        kill_at,
        reqs.len() - kill_at
    ));

    out
}

/// Procedure-body edits that failover re-routes, this many per drill.
const REROUTED_EDITS: usize = 3;

/// The first [`REROUTED_EDITS`] procedure-body edits in `load`'s seeded
/// stream, read on for seven more loads' worth of events past its last,
/// that belong to `victim`: of a project one of the first `kill_at`
/// events sent to it, and routed to it by `ring`. A body edit is a new
/// revision whose interfaces are those of the project's previous event.
fn rerouted_edits(
    load: &ServeLoadParams,
    kill_at: usize,
    ring: &HashRing,
    victim: u32,
) -> Vec<CompileRequest> {
    let stream = serve_load(&ServeLoadParams {
        events: load.events * 8,
        ..load.clone()
    });
    let reqs = requests(&stream, ExecChoice::Sim(4));
    let owned = |&i: &usize| ring.route(reqs[i].fingerprint()) == Some(victim);
    let projects: BTreeSet<usize> = (0..kill_at)
        .filter(owned)
        .map(|i| stream[i].project)
        .collect();
    let body_edit = |&i: &usize| {
        let (event, defs) = (&stream[i], |e: &ServeEvent| e.module.defs.all_definitions());
        let previous = stream[..i].iter().rfind(|e| e.project == event.project);
        previous.is_some_and(|p| p.revision != event.revision && defs(p) == defs(event))
    };
    (load.events..stream.len())
        .filter(|&i| projects.contains(&stream[i].project))
        .filter(body_edit)
        .filter(owned)
        .take(REROUTED_EDITS)
        .map(|i| reqs[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_drill_holds_its_invariants() {
        // fabric_with asserts internally: byte-equivalence with
        // standalone compiles at every shard width and across the kill,
        // zero lost requests.
        let report = fabric_with(
            &ServeLoadParams {
                seed: 0xFAB5,
                projects: 2,
                clients: 4,
                events: 16,
                edit_every: 5,
                interface_every: 2,
            },
            &[1, 3],
        );
        assert!(report.contains("byte-identical to standalone"));
        assert!(report.contains("fresh body edits of the victim's keys"));
        assert!(report.contains("0 lost, 0 mismatched"));
        assert!(!report.contains("wrote "), "the drill writes no file");
    }
}
