//! Seeded inputs. The program under test only ever sees what these
//! generators produce; `--seed` is XOR-ed into every generator seed, so
//! seed 0 is the repository's own Table-1 suite and `serve_load` stream.

use std::sync::Arc;

use ccm2_serve::{CompileRequest, ExecChoice};
use ccm2_support::defs::{DefLibrary, DefProvider as _};
use ccm2_workload::{
    apply_edits, generate, suite_params, EditOp, GenParams, GeneratedModule, ServeLoadParams,
    SUITE_SIZE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::verify::{reference, Comparable};

/// Generator parameters of the 37-module suite under `seed`.
pub fn suite_gen_params(seed: u64) -> Vec<GenParams> {
    (0..SUITE_SIZE)
        .map(|i| {
            let mut p = suite_params(i);
            p.seed ^= seed;
            p
        })
        .collect()
}

/// The 37-module suite under `seed`.
pub fn suite(seed: u64) -> Vec<GeneratedModule> {
    suite_gen_params(seed).iter().map(generate).collect()
}

/// Bytes of a suite, interfaces included.
pub fn suite_bytes(suite: &[GeneratedModule]) -> usize {
    suite.iter().map(GeneratedModule::size_bytes).sum()
}

/// Requests per chunk of the service stream: one batch.
pub const CHUNK_EVENTS: usize = 1000;

/// One chunk of the service request stream; `want[i]` is what the
/// sequential compiler makes of request `i`'s sources.
pub struct ServeChunk {
    pub requests: Vec<CompileRequest>,
    pub want: Vec<Arc<Comparable>>,
}

/// One project of the stream at its current revision.
struct Project {
    module: GeneratedModule,
    defs: Arc<DefLibrary>,
    reference: Arc<Comparable>,
}

impl Project {
    fn at(module: GeneratedModule) -> Project {
        Project {
            defs: Arc::new(module.defs.clone()),
            reference: Arc::new(reference(&module.source, &module.defs)),
            module,
        }
    }
}

/// `ccm2_workload::serve_load`, resumable: the same projects, edits and
/// draws in the same order (a test holds the two together), handed out
/// a chunk at a time. `serve_load` returns a whole stream at once, with
/// a clone of the module in every event — 6 KB an event, 140 MB for the
/// 24 000 events of a run — and cannot be continued; starting a fresh
/// stream per chunk instead would put 24 cold compiles into every chunk
/// and the latency percentiles on the edge between warm and cold ops.
pub struct ServeStream {
    seed: u64,
    clients: usize,
    rng: SmallRng,
    projects: Vec<Project>,
    edits_done: u64,
    next_seq: usize,
}

/// The stream's shape: 24 projects, an edit every 8th event, every 8th
/// edit an interface edit.
const PROJECTS: usize = 24;
const EDIT_EVERY: usize = 8;
const INTERFACE_EVERY: u64 = 8;

impl ServeStream {
    /// The `serve_load` parameters this stream replays.
    pub fn params(seed: u64, round: u64, clients: usize) -> ServeLoadParams {
        ServeLoadParams {
            seed: ServeLoadParams::default().seed ^ seed ^ round.wrapping_mul(0x9E37_79B9),
            projects: PROJECTS,
            clients,
            events: 0,
            edit_every: EDIT_EVERY,
            interface_every: INTERFACE_EVERY as usize,
        }
    }

    /// The stream of round `round` under `seed`, for `clients` clients.
    pub fn new(seed: u64, round: u64, clients: usize) -> ServeStream {
        let seed = ServeStream::params(seed, round, clients).seed;
        ServeStream {
            seed,
            clients: clients.max(1),
            rng: SmallRng::seed_from_u64(seed ^ 0x5e27_e10a),
            projects: (0..PROJECTS)
                .map(|p| {
                    let gp = GenParams::small(&format!("Proj{p}"), seed.wrapping_add(p as u64));
                    Project::at(generate(&gp))
                })
                .collect(),
            edits_done: 0,
            next_seq: 0,
        }
    }

    fn edit(&mut self) {
        let p = self.rng.gen_range(0..PROJECTS);
        let module = &self.projects[p].module;
        let edit = if self.edits_done % INTERFACE_EVERY == INTERFACE_EVERY - 1 {
            EditOp::Interface {
                def: format!("{}Lib0", module.name),
                tag: self.edits_done,
            }
        } else {
            EditOp::ProcBody {
                index: self.rng.gen_range(0..module.params.procedures.max(1)),
                seed: self.seed ^ self.edits_done,
            }
        };
        let mut next = apply_edits(module, &[edit]);
        if next.source == module.source
            && next.defs.all_definitions() == module.defs.all_definitions()
        {
            // The generated edit found no anchor: edit procedure 0.
            let seed = self.seed ^ self.edits_done.wrapping_mul(0x9e37);
            next = apply_edits(module, &[EditOp::ProcBody { index: 0, seed }]);
        }
        self.projects[p] = Project::at(next);
        self.edits_done += 1;
    }

    /// The next `events` requests of the stream.
    pub fn chunk(&mut self, events: usize) -> ServeChunk {
        let (mut requests, mut want) = (Vec::new(), Vec::new());
        for _ in 0..events {
            if self.next_seq > 0 && self.next_seq.is_multiple_of(EDIT_EVERY) {
                self.edit();
            }
            self.next_seq += 1;
            let project = &self.projects[self.rng.gen_range(0..PROJECTS)];
            let client = self.rng.gen_range(0..self.clients) as u64;
            let mut req = CompileRequest::new(
                client,
                project.module.name.clone(),
                project.module.source.clone(),
                Arc::clone(&project.defs),
            );
            req.exec = ExecChoice::Threads(1);
            requests.push(req);
            want.push(Arc::clone(&project.reference));
        }
        ServeChunk { requests, want }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_workload::generate_suite;

    #[test]
    fn seed_zero_is_the_table_1_suite_and_other_seeds_differ() {
        let (ours, theirs) = (suite(0), generate_suite());
        assert_eq!(ours.len(), SUITE_SIZE);
        assert!(ours.iter().zip(&theirs).all(|(a, b)| a.source == b.source));
        let other = suite(1);
        assert!(ours.iter().zip(&other).any(|(a, b)| a.source != b.source));
        assert_eq!(
            suite_bytes(&other),
            suite(1).iter().map(|m| m.size_bytes()).sum::<usize>(),
            "same seed, same inputs"
        );
    }

    #[test]
    fn the_stream_is_serve_load_continued_chunk_by_chunk() {
        let theirs = ccm2_workload::serve_load(&ServeLoadParams {
            events: 100,
            ..ServeStream::params(5, 1, 3)
        });
        let mut stream = ServeStream::new(5, 1, 3);
        let mut ours = stream.chunk(30);
        let rest = stream.chunk(70);
        ours.requests.extend(rest.requests);
        ours.want.extend(rest.want);
        assert_eq!(ours.requests.len(), theirs.len());
        for (req, e) in ours.requests.iter().zip(&theirs) {
            assert_eq!(req.client, e.client, "event {}", e.seq);
            assert_eq!(req.module, e.module.name);
            assert_eq!(req.source, e.module.source, "event {}", e.seq);
            assert_eq!(
                req.defs.all_definitions(),
                e.module.defs.all_definitions(),
                "event {}",
                e.seq
            );
        }
        assert!(theirs.iter().any(|e| e.revision > 0), "edits happened");
        // One reference per revision, shared by its requests.
        for (i, req) in ours.requests.iter().enumerate() {
            assert_eq!(
                *ours.want[i],
                reference(&req.source, &req.defs),
                "request {i}"
            );
        }
    }

    #[test]
    fn streams_are_seeded_by_seed_and_round() {
        let first = |seed, round| ServeStream::new(seed, round, 2).chunk(1).requests.remove(0);
        assert_eq!(first(0, 0).source, first(0, 0).source);
        assert_ne!(first(0, 0).source, first(1, 0).source);
        assert_ne!(first(0, 0).source, first(0, 1).source);
    }
}
