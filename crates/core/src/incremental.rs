//! The incremental cache behind one seam ([`Options::incremental`]).
//!
//! Every decision the driver's incremental mode makes, and every call it
//! makes to the [`ArtifactStore`], is here. [`Incremental::new`] keeps the
//! store handle, the options and the interface library (a provider that
//! cannot list it turns the cache off) and does nothing else: all of the
//! cache's work runs inside the compile, on its workers. What a compile knows of
//! its interfaces — the import walk, the interface keys and the
//! environment digest, and every interface's load, decode, link check and
//! quarantine — is one once-filled cell, which the main Importer and the
//! Splitter fill as their first act unless another task asks first
//! ([`Incremental::anticipate_interfaces`]). [`Incremental::decide`] runs
//! once the main module's Lexor has scanned and carved it (fingerprints,
//! hit or miss per code unit), and [`Incremental::finish`] records.
//!
//! The Splitter and the module parser run beside the scan, so the driver
//! asks for each stream's fate when the Splitter creates and closes it
//! ([`Incremental::stream_created`], [`Incremental::stream_closed`]) and
//! for the module body's when its parser is done
//! ([`Incremental::module_parsed`]): what it asks before the decisions
//! exist is answered by `decide`, whose caller then runs the step the
//! driver left (a ProcParse or a `CacheSplice` spawn). It also asks
//! whether a definition module's stream splices
//! ([`Incremental::spliced_interface`]). The splice tasks themselves stay
//! in the driver; the Splitter knows nothing of the cache.
//!
//! A procedure stream or the module body is a *code unit*, stored under
//! its fingerprint (`ccm2_incr::fingerprint`); a definition module's
//! completed scope is an *interface*, stored under its interface key.
//! Both load the same way: an artifact that does not decode is
//! quarantined, reported in a Note, and treated as absent.
//!
//! A compile may be handed an [`InterfaceCarry`]: the interfaces an
//! earlier compile under the same interner spliced. The interface cell
//! still walks, keys and loads every interface, and opens every loaded
//! artifact's envelope; only the decode is skipped for an artifact whose
//! checksum is the one the carried interface was decoded from. So the
//! store's traffic, its LRU order and every quarantine are those of a
//! compile without a carry.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use ccm2_analysis::UnitSummary;
use ccm2_codegen::merge::ModuleImage;
use ccm2_incr::{
    decode_interface, encode_entry, encode_interface, fingerprint_streams, ArtifactStore,
    CacheEntryData, CachedDiag, Carve, EntryDecoder, ImportGraph, IncrStats, StreamNode,
    FORMAT_VERSION, IFACE_FORMAT,
};
use ccm2_sema::interface::{self, Interface};
use ccm2_sema::types::TypeId;
use ccm2_sema::Sema;
use ccm2_support::defs::DefProvider;
use ccm2_support::diag::{Diagnostic, Severity};
use ccm2_support::hash::Fp128;
use ccm2_support::ids::ScopeId;
use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::source::{FileId, SourceFile, Span};
use ccm2_syntax::ast::Import;

use crate::driver::Options;
use crate::splitter::Carving;

/// The interfaces one compile spliced, for the next compile under the
/// same interner to splice without decoding them again
/// ([`Options::interface_carry`]).
///
/// A compile handed a carry returns one
/// ([`ConcurrentOutput::interface_carry`](crate::ConcurrentOutput::interface_carry))
/// that holds exactly the interfaces it spliced, so the carry of a
/// session stays the size of one compile's imports. A carry made under
/// another interner is ignored: its names would not resolve.
pub struct InterfaceCarry {
    interner: Arc<Interner>,
    /// By interface key: the checksum trailer of the stored artifact and
    /// the interface it decodes to.
    decoded: HashMap<Fp128, Carried>,
}

#[derive(Clone)]
struct Carried {
    trailer: [u8; 16],
    iface: Arc<Interface>,
}

impl InterfaceCarry {
    /// An empty carry for compiles under `interner`: what the first
    /// compile of a session is handed.
    pub fn new(interner: Arc<Interner>) -> InterfaceCarry {
        InterfaceCarry {
            interner,
            decoded: HashMap::new(),
        }
    }

    /// The carried interfaces, by interface key.
    pub fn iter(&self) -> impl Iterator<Item = (Fp128, &Arc<Interface>)> {
        self.decoded.iter().map(|(&key, c)| (key, &c.iface))
    }
}

impl std::fmt::Debug for InterfaceCarry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterfaceCarry")
            .field("interfaces", &self.decoded.len())
            .finish()
    }
}

/// A compile's incremental state, present only when the cache is active.
pub(crate) struct Incremental {
    store: Arc<dyn ArtifactStore>,
    sema: Arc<Sema>,
    analyze: bool,
    /// The heading mode's tag, mixed into every key.
    tag: u8,
    /// The main module and every definition module, which the interface
    /// cell keys.
    main: Arc<SourceFile>,
    library: Vec<(String, String)>,
    /// What an earlier compile under this interner spliced, if this
    /// compile was handed a carry (one from another interner is
    /// replaced by an empty one).
    carry: Option<Arc<InterfaceCarry>>,
    interfaces: OnceLock<Interfaces>,
    /// The ids in this compile of each spliced interface's own types,
    /// built on first use: by its own splice, or by that of a module
    /// whose types link into it, whichever runs first.
    types: Mutex<HashMap<Symbol, Arc<[TypeId]>>>,
    st: Mutex<State>,
}

/// What a compile knows of its interfaces before it parses any.
struct Interfaces {
    /// Digest of everything outside the main source that affects output:
    /// format version, configuration, and the interfaces the module can
    /// reach (per-import precision — an unrelated `.def` edit must not
    /// invalidate this module's units).
    env_fp: Fp128,
    /// Every module with an interface key, imports before importers:
    /// name, key, the modules it imports.
    keyed: Vec<(Symbol, Fp128, Vec<Symbol>)>,
    /// The stored interfaces this compile splices. A module is here only
    /// if its artifact decoded and every module it imports is here too.
    spliced: HashMap<Symbol, Arc<Interface>>,
    /// The same interfaces by key, for the carry this compile returns;
    /// empty when it was handed none.
    carried: HashMap<Fp128, Carried>,
}

/// A step of the driver's that waits for the decisions.
pub(crate) type Then<T> = Box<dyn FnOnce(T) + Send>;

/// A step that was waiting when the decisions came, with the stream it
/// parses, if it is a ProcParse spawn.
pub(crate) type Due = (Option<usize>, Then<()>);

#[derive(Default)]
struct State {
    /// Whether [`Incremental::decide`] has run.
    decided: bool,
    /// Every procedure stream, by the index the Splitter numbers it with:
    /// the order the scan carves them.
    streams: Vec<Stream>,
    /// The code units' decisions: procedure streams in carve order, then
    /// the module body. Entries are recorded in this order, and under a
    /// byte budget what a store keeps depends on it.
    units: Vec<Unit>,
    /// The module body's splice, until the module parser takes it.
    module_splice: Option<Splice>,
    /// The module parser's last step, if it was done before the decisions.
    module_parsed: Option<Then<Option<Splice>>>,
    /// Per-scope used-name sets and lock summaries captured from
    /// `Analyze` tasks: a recorded entry carries them, since a spliced
    /// unit cannot re-run its analysis.
    used_sets: HashMap<ScopeId, HashSet<Symbol>>,
    summaries: HashMap<ScopeId, UnitSummary>,
    /// The imports of each definition module parsed live, kept for its
    /// interface artifact.
    def_imports: HashMap<ScopeId, Vec<Import>>,
    stats: IncrStats,
}

impl State {
    fn stream(&mut self, index: usize) -> &mut Stream {
        if self.streams.len() <= index {
            self.streams.resize_with(index + 1, Stream::default);
        }
        &mut self.streams[index]
    }
}

/// One procedure stream, and what became of it.
#[derive(Default)]
struct Stream {
    /// Its heading and its whole carve as the scan found them, which the
    /// Splitter must report.
    carve: Option<(Span, Span)>,
    /// Its scope, once the Splitter created the stream.
    scope: Option<ScopeId>,
    /// The streams carved directly inside it.
    children: Vec<usize>,
    /// Its splice, if it splices, until the Splitter closes its carve.
    splice: Option<Splice>,
    /// Its ProcParse spawn, if the Splitter created it before the
    /// decisions.
    parse: Option<Then<()>>,
    /// The Splitter's carve and the stream's splice spawn, if the Splitter
    /// closed it before the decisions.
    closed: Option<(Span, Span, Then<Splice>)>,
}

/// What a code unit's `CacheSplice` task replays in place of its parse
/// and codegen tasks.
pub(crate) struct Splice {
    /// The stored entry: the unit, its diagnostics and its used names.
    pub(crate) entry: CacheEntryData,
    /// Where the unit's carve starts in this compile's text; stored
    /// diagnostics are relative to it.
    pub(crate) lo: u32,
    /// The stored lock summary rebased onto `lo` (under analysis, for a
    /// unit that has one).
    pub(crate) summary: Option<UnitSummary>,
    /// The scopes of the streams carved directly inside the unit. They
    /// splice too (closure rule), and nobody parses the text that would
    /// declare their headings.
    pub(crate) children: Vec<ScopeId>,
}

/// One code unit's decision, kept so `finish` can record an entry for
/// each unit that compiled live under the fingerprint computed this run.
struct Unit {
    /// The unit's stream; `None` for the module body.
    stream: Option<usize>,
    fp: Fp128,
    spliced: bool,
    /// `None` for the module body: its parse always runs live, so its
    /// diagnostics are re-derived every compile and never recorded.
    carve: Option<Carve>,
}

impl Incremental {
    /// The cache of a compile of `main` under `options`, or `None` when
    /// it cannot be active: carves come from the Splitter (so early
    /// splitting is required), and the environment digest must see the
    /// whole interface library. Every heading mode is cache-safe: the
    /// mode's tag is mixed into the environment digest and every interface
    /// key, so artifacts recorded under one mode never splice into
    /// another, and the child-side work the modes differ in (none /
    /// re-declare / verify) is skipped identically on every warm hit.
    ///
    /// Keys nothing and loads nothing: that is the interface cell's work,
    /// done inside the compile.
    pub(crate) fn new(
        options: &Options,
        defs: &dyn DefProvider,
        main: &Arc<SourceFile>,
        sema: &Arc<Sema>,
    ) -> Option<Incremental> {
        let store = options.incremental.as_ref()?;
        if !options.early_split {
            return None;
        }
        let interner = &sema.interner;
        let carry = (options.interface_carry.as_ref()).map(|c| {
            if Arc::ptr_eq(&c.interner, interner) {
                Arc::clone(c)
            } else {
                Arc::new(InterfaceCarry::new(Arc::clone(interner)))
            }
        });
        Some(Incremental {
            store: Arc::clone(store),
            sema: Arc::clone(sema),
            analyze: options.analyze,
            tag: options.heading_mode.cache_tag(),
            main: Arc::clone(main),
            library: defs.all_definitions()?,
            carry,
            interfaces: OnceLock::new(),
            types: Mutex::new(HashMap::new()),
            st: Mutex::new(State::default()),
        })
    }

    /// Fills the interface cell, unless a task already has. The main
    /// Importer calls this as its first act: anticipating interfaces is
    /// its §3 job. So does the Splitter, which outranks it and so is the
    /// one a second worker runs beside the Lexor. Any task that needs the
    /// cell first fills it instead — the Lexor at
    /// [`Incremental::decide`], or a parser's import scopes — so filling
    /// it waits on no scheduler event and charges no work: a Lexor
    /// blocked on the cell is never stuck behind a waiting task, and a
    /// simulated task never yields while it holds the cell.
    pub(crate) fn anticipate_interfaces(&self) {
        self.interfaces();
    }

    fn interfaces(&self) -> &Interfaces {
        self.interfaces.get_or_init(|| self.key_interfaces())
    }

    /// Keys the compile and loads the interfaces it splices.
    fn key_interfaces(&self) -> Interfaces {
        let graph = ImportGraph::of(self.main.text(), &self.library);
        let (env_fp, keys) = graph.keys(FORMAT_VERSION, self.analyze, self.tag);
        let mut ifaces = Interfaces {
            env_fp,
            keyed: Vec::with_capacity(keys.len()),
            spliced: HashMap::new(),
            carried: HashMap::new(),
        };
        // Imports come first, so a module's imports are decided before it
        // is: one with an import that does not splice is not looked up
        // (the closure rule of `decide`, one level up — a module parsed
        // live rebuilds its types, so every importer of it must too).
        let interner = &self.sema.interner;
        for k in &keys {
            let name = interner.intern(k.name);
            let imports: Vec<Symbol> = k.imports.iter().map(|i| interner.intern(i)).collect();
            let splices = imports.iter().all(|i| ifaces.spliced.contains_key(i));
            ifaces.keyed.push((name, k.key, imports));
            if !splices {
                continue;
            }
            // Links index the tables of modules this one reaches, which
            // all splice by now; one that points elsewhere was forged.
            let links_fit = |iface: &Interface| {
                iface.links.iter().all(|&(dep, index)| {
                    let dep = ifaces.spliced.get(&iface.deps[dep as usize]);
                    dep.is_some_and(|d| (index as usize) < d.types.len())
                })
            };
            let loaded = self.load(k.key, k.name, |bytes| {
                let iface = match self.carried(k.key, bytes) {
                    Some(iface) => iface,
                    None => Arc::new(decode_interface(bytes, interner).map_err(|e| e.to_string())?),
                };
                if links_fit(&iface) {
                    Ok((trailer(bytes), iface))
                } else {
                    Err("malformed link".to_string())
                }
            });
            if let Ok(Some((trailer, iface))) = loaded {
                if self.carry.is_some() {
                    let iface = Arc::clone(&iface);
                    ifaces.carried.insert(k.key, Carried { trailer, iface });
                }
                ifaces.spliced.insert(name, iface);
            }
        }
        ifaces
    }

    /// The carried interface stored under `key`, if `bytes` open as an
    /// interface envelope and are the bytes it was decoded from: the
    /// envelope checks the trailer against the payload, and the trailer
    /// is the one carried. Anything else decodes afresh, and fails as it
    /// would without a carry.
    fn carried(&self, key: Fp128, bytes: &[u8]) -> Option<Arc<Interface>> {
        let carried = self.carry.as_ref()?.decoded.get(&key)?;
        IFACE_FORMAT.open(bytes).ok()?;
        (carried.trailer == trailer(bytes)).then(|| Arc::clone(&carried.iface))
    }

    /// The interfaces this compile spliced, for the next compile under
    /// its interner, if it was handed a carry.
    pub(crate) fn carry(&self) -> Option<Arc<InterfaceCarry>> {
        let carry = self.carry.as_ref()?;
        Some(Arc::new(InterfaceCarry {
            interner: Arc::clone(&carry.interner),
            decoded: (self.interfaces.get()).map_or_else(HashMap::new, |i| i.carried.clone()),
        }))
    }

    /// Loads the artifact stored under `key` and decodes it. One that
    /// does not decode is quarantined and reported in a Note naming
    /// `name`, and loads as `Err`.
    fn load<T>(
        &self,
        key: Fp128,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<Option<T>, ()> {
        let Some(bytes) = self.store.load(key) else {
            return Ok(None);
        };
        let why = match decode(&bytes) {
            Ok(artifact) => return Ok(Some(artifact)),
            Err(why) => why,
        };
        self.store.quarantine(key);
        self.sema.sink.report(Diagnostic {
            severity: Severity::Note,
            file: FileId(0),
            span: Span { lo: 0, hi: 0 },
            message: format!("incremental cache entry for `{name}` ignored: {why}"),
        });
        Err(())
    }

    /// The stored interface this compile splices for module `name`.
    pub(crate) fn spliced_interface(&self, name: Symbol) -> Option<Arc<Interface>> {
        self.interfaces().spliced.get(&name).cloned()
    }

    /// Installs spliced interface `name`'s types (and those of the
    /// interfaces they link into, on first use) and its entries into
    /// `scope`.
    pub(crate) fn install_interface(&self, name: Symbol, scope: ScopeId, iface: &Interface) {
        let (own, deps) = {
            let mut built = self.types.lock();
            let own = self.install_types(&mut built, name, scope);
            let deps: Vec<Arc<[TypeId]>> = (iface.deps.iter())
                .map(|&d| self.install_types(&mut built, d, scope))
                .collect();
            (own, deps)
        };
        let deps: Vec<&[TypeId]> = deps.iter().map(|d| &d[..]).collect();
        interface::install_entries(&self.sema, iface, scope, &own, &deps);
    }

    /// The ids of spliced interface `name`'s own types, installed on
    /// first use (with those of the interfaces they link into) by the
    /// splice of `scope`.
    fn install_types(
        &self,
        built: &mut HashMap<Symbol, Arc<[TypeId]>>,
        name: Symbol,
        scope: ScopeId,
    ) -> Arc<[TypeId]> {
        if let Some(own) = built.get(&name) {
            return Arc::clone(own);
        }
        let iface = (self.interfaces().spliced.get(&name))
            .expect("every interface a spliced one links into splices too");
        let deps: Vec<Arc<[TypeId]>> = (iface.deps.iter())
            .map(|&d| self.install_types(built, d, scope))
            .collect();
        let deps: Vec<&[TypeId]> = deps.iter().map(|d| &d[..]).collect();
        let own: Arc<[TypeId]> = interface::install_types(&self.sema, iface, &deps, scope).into();
        built.insert(name, Arc::clone(&own));
        own
    }

    /// The main module's Lexor scanned `source` and the depth rule carved
    /// it: fingerprints every stream the Splitter creates, decides hit or
    /// miss per code unit, and returns, per stream, whether it splices,
    /// with the driver's steps that were waiting for the decisions, for
    /// the caller to run — a ProcParse spawn with the index of the stream
    /// it reads. A hit splices only when every stream nested in it hits
    /// too — a recompiled inner procedure needs its enclosing scopes
    /// declared live. An entry that does not decode is a miss, so a
    /// stream whose body the Lexor skips always has a splice to replay.
    pub(crate) fn decide(&self, source: &str, carving: &Carving) -> (Vec<bool>, Vec<Due>) {
        let carved = &carving.streams;
        let nodes: Vec<StreamNode> = carved
            .iter()
            .map(|c| StreamNode {
                carve: Carve {
                    lo: c.full.lo,
                    heading_hi: c.heading.hi,
                    hi: c.full.hi,
                },
                parent: c.parent,
            })
            .collect();
        let fps = fingerprint_streams(source, &nodes, self.interfaces().env_fp);
        let mut stats = IncrStats {
            units: carved.len() + 1,
            ..IncrStats::default()
        };
        let text = |span: Span| source.get(span.lo as usize..span.hi as usize).unwrap_or("");
        // One decoder for every entry: its name table asks the interner
        // once per distinct name across all of them.
        let mut decoder = EntryDecoder::new(&self.sema.interner);
        let mut load = |fp: Fp128, name: Span, lo: u32| {
            let loaded = self.load(fp, text(name), |bytes| {
                let entry = decoder.decode(bytes).map_err(|e| e.to_string())?;
                // A proc entry recorded under analysis carries a lock
                // summary; an undecodable one (format bump, corruption)
                // makes the whole entry a miss — the stream recompiles
                // and re-derives its summary live.
                let summary = (self.analyze && !entry.summary.is_empty())
                    .then(|| ccm2_analysis::decode_summary(&entry.summary, lo))
                    .transpose()
                    .map_err(|e| format!("summary {e}"))?;
                Ok(Splice {
                    entry,
                    lo,
                    summary,
                    children: Vec::new(),
                })
            });
            loaded.unwrap_or_else(|()| {
                stats.bad_entries += 1;
                None
            })
        };
        let hits: Vec<Option<Splice>> = (carved.iter().zip(&fps.streams))
            .map(|(c, &fp)| load(fp, c.name, c.full.lo))
            .collect();
        let module = carving.module.map(|name| load(fps.module, name, 0));
        // Splice closure, bottom-up (children always follow their lexical
        // parent in discovery order, so a reverse scan sees them first).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); carved.len()];
        for (i, c) in carved.iter().enumerate() {
            if let Some(p) = c.parent {
                children[p].push(i);
            }
        }
        let mut spliced = vec![false; carved.len()];
        for i in (0..carved.len()).rev() {
            spliced[i] = hits[i].is_some() && children[i].iter().all(|&c| spliced[c]);
        }
        let module_hit = module.as_ref().is_some_and(Option::is_some);
        stats.hits = hits.iter().flatten().count() + usize::from(module_hit);
        stats.spliced = spliced.iter().filter(|s| **s).count() + usize::from(module_hit);
        stats.recompiled = stats.units - stats.spliced;
        let mut units: Vec<Unit> = (0..carved.len())
            .map(|i| Unit {
                stream: Some(i),
                fp: fps.streams[i],
                spliced: spliced[i],
                carve: Some(nodes[i].carve),
            })
            .collect();
        units.sort_by_key(|u| u.carve.map(|c| (c.lo, c.hi)));
        let module_splice = module.and_then(|hit| {
            units.push(Unit {
                stream: None,
                fp: fps.module,
                spliced: module_hit,
                carve: None,
            });
            hit
        });
        let mut st = self.st.lock();
        st.module_splice = module_splice;
        st.units = units;
        st.stats = stats;
        for (i, ((c, hit), children)) in carved.iter().zip(hits).zip(children).enumerate() {
            let stream = st.stream(i);
            stream.carve = Some((c.heading, c.full));
            stream.children = children;
            stream.splice = hit.filter(|_| spliced[i]);
        }
        st.decided = true;
        let mut due: Vec<Due> = Vec::new();
        for i in 0..st.streams.len() {
            let stream = &mut st.streams[i];
            if let Some(parse) = stream.parse.take().filter(|_| stream.splice.is_none()) {
                due.push((Some(i), parse));
            }
            if let Some((heading, full, then)) = st.streams[i].closed.take() {
                if let Some(splice) = self.closed(&mut st, i, heading, full) {
                    due.push((None, Box::new(move |()| then(splice))));
                }
            }
        }
        if let Some(then) = st.module_parsed.take() {
            let splice = st.module_splice.take();
            due.push((None, Box::new(move |()| then(splice))));
        }
        (spliced, due)
    }

    /// The Splitter created stream `index` with scope `scope`. `parse`
    /// spawns its ProcParse: it runs now or at the decisions, unless the
    /// stream splices (its `CacheSplice` comes when its carve closes).
    pub(crate) fn stream_created(&self, index: usize, scope: ScopeId, parse: Then<()>) {
        let mut st = self.st.lock();
        let decided = st.decided;
        let stream = st.stream(index);
        stream.scope = Some(scope);
        if !decided {
            stream.parse = Some(parse);
        } else if stream.splice.is_none() {
            drop(st);
            parse(());
        }
    }

    /// The Splitter carved stream `index` as `heading` and `full`. If it
    /// splices, `then` gets its splice, now or at the decisions.
    pub(crate) fn stream_closed(
        &self,
        index: usize,
        heading: Span,
        full: Span,
        then: Then<Splice>,
    ) {
        let mut st = self.st.lock();
        if !st.decided {
            st.stream(index).closed = Some((heading, full, then));
            return;
        }
        let splice = self.closed(&mut st, index, heading, full);
        drop(st);
        if let Some(splice) = splice {
            then(splice);
        }
    }

    /// The splice that replaces the parse of stream `index`, closed as
    /// `heading` and `full`, if it splices, with its children's scopes,
    /// which all exist by now. A carve other than the scan's is reported
    /// as an internal error, since the Lexor skipped text by the scan's.
    fn closed(&self, st: &mut State, index: usize, heading: Span, full: Span) -> Option<Splice> {
        let scanned = st.streams.get(index).and_then(|s| s.carve);
        if scanned != Some((heading, full)) {
            self.sema.sink.report(Diagnostic::error(
                FileId(0),
                full,
                format!(
                    "internal error: the Splitter carved stream {index} as {heading:?} {full:?}, \
                     the scan as {scanned:?}"
                ),
            ));
        }
        let stream = st.streams.get_mut(index)?;
        let splice = stream.splice.take()?;
        let children = std::mem::take(&mut stream.children);
        let children = children.iter().filter_map(|&c| st.streams[c].scope);
        Some(Splice {
            children: children.collect(),
            ..splice
        })
    }

    /// The module parser is done: `then` gets the module body's splice if
    /// it hits, now or at the decisions.
    pub(crate) fn module_parsed(&self, then: Then<Option<Splice>>) {
        let mut st = self.st.lock();
        if !st.decided {
            st.module_parsed = Some(then);
            return;
        }
        let splice = st.module_splice.take();
        drop(st);
        then(splice);
    }

    /// An `Analyze` task of the procedure stream of `scope` finished.
    pub(crate) fn analyzed(&self, scope: ScopeId, used: &HashSet<Symbol>, summary: &UnitSummary) {
        let mut st = self.st.lock();
        st.used_sets.insert(scope, used.clone());
        st.summaries.insert(scope, summary.clone());
    }

    /// The definition module of `scope` was parsed live.
    pub(crate) fn def_parsed(&self, scope: ScopeId, imports: Vec<Import>) {
        self.st.lock().def_imports.insert(scope, imports);
    }

    /// The compile is over: from an error-free one (`diagnostics` is
    /// `Some`) records an entry for every code unit that compiled live,
    /// then the interface of every definition module parsed live, so a
    /// hit never replays the artifacts of a failed compile. Returns the
    /// compile's counters. `code_names` names each unit's code in
    /// `image`; `lock_keys` are the whole-program lock pass's diagnostics,
    /// which a warm run re-derives, so no entry records them.
    pub(crate) fn finish(
        &self,
        image: Option<&ModuleImage>,
        diagnostics: Option<&[Diagnostic]>,
        code_names: &HashMap<ScopeId, Symbol>,
        lock_keys: &HashSet<(u32, u32, String)>,
        def_streams: &HashMap<Symbol, ScopeId>,
        main_scope: Option<ScopeId>,
    ) -> IncrStats {
        let st = std::mem::take(&mut *self.st.lock());
        if let Some(diagnostics) = diagnostics {
            if let Some(image) = image {
                let scope_of = |u: &Unit| match u.stream {
                    Some(i) => st.streams.get(i).and_then(|s| s.scope),
                    None => main_scope,
                };
                let units: Vec<(ScopeId, &Unit)> = (st.units.iter())
                    .filter_map(|u| Some((scope_of(u)?, u)))
                    .collect();
                self.record_entries(&st, &units, image, diagnostics, code_names, lock_keys);
            }
            self.record_interfaces(diagnostics, def_streams, st.def_imports);
        }
        let spliced = (self.interfaces.get()).map_or(0, |i| {
            def_streams
                .keys()
                .filter(|n| i.spliced.contains_key(n))
                .count()
        });
        IncrStats {
            interfaces: def_streams.len(),
            interfaces_spliced: spliced,
            ..st.stats
        }
    }

    /// Records an entry for every code unit that compiled live.
    /// Diagnostics are attributed to the innermost stream whose *body*
    /// contains them (a nested heading belongs to its enclosing stream,
    /// which declares it); module-level diagnostics are always re-emitted
    /// live and are never recorded.
    fn record_entries(
        &self,
        st: &State,
        units: &[(ScopeId, &Unit)],
        image: &ModuleImage,
        diagnostics: &[Diagnostic],
        code_names: &HashMap<ScopeId, Symbol>,
        lock_keys: &HashSet<(u32, u32, String)>,
    ) {
        let mut per_scope: HashMap<ScopeId, Vec<CachedDiag>> = HashMap::new();
        for d in diagnostics {
            let key = (d.span.lo, d.span.hi, d.message.clone());
            if d.file != FileId(0) || lock_keys.contains(&key) {
                continue;
            }
            let owner = (units.iter())
                .filter_map(|(scope, u)| Some((*scope, u.carve?)))
                .filter(|(_, carve)| carve.body_contains(d.span.lo))
                .min_by_key(|(_, carve)| carve.hi - carve.lo);
            if let Some((scope, carve)) = owner {
                per_scope.entry(scope).or_default().push(CachedDiag {
                    severity: d.severity,
                    rel_lo: d.span.lo - carve.lo,
                    rel_hi: d.span.hi.saturating_sub(carve.lo),
                    message: d.message.clone(),
                });
            }
        }
        let interner = &self.sema.interner;
        for &(scope, unit) in units.iter().filter(|(_, u)| !u.spliced) {
            let Some(code) = code_names.get(&scope).and_then(|&n| image.unit(n)) else {
                continue;
            };
            let diags = per_scope.remove(&scope).unwrap_or_default();
            let mut used: Vec<String> = (st.used_sets.get(&scope))
                .map(|s| s.iter().map(|sym| interner.resolve(*sym)).collect())
                .unwrap_or_default();
            used.sort();
            // Summary spans are stored carve-relative, like the cached
            // diagnostics: a splice into a shifted file rebases both.
            let summary = (st.summaries.get(&scope))
                .map(|s| ccm2_analysis::encode_summary(s, unit.carve.map_or(0, |c| c.lo)))
                .unwrap_or_default();
            let data = CacheEntryData {
                unit: code.clone(),
                findings: diags.len() as u32,
                diags,
                used,
                summary,
            };
            self.store.store(unit.fp, &encode_entry(&data, interner));
        }
    }

    /// Records the interface of every definition module parsed live that
    /// reported nothing in its own file and whose imports were all
    /// recorded or spliced. Modules go imports first, so a type belongs
    /// to the first interface that reaches it — the one whose
    /// declarations created it — and a later one links to it.
    fn record_interfaces(
        &self,
        diagnostics: &[Diagnostic],
        def_streams: &HashMap<Symbol, ScopeId>,
        mut def_imports: HashMap<ScopeId, Vec<Import>>,
    ) {
        // No task asked for the cell: no definition module was started.
        let Some(ifaces) = self.interfaces.get() else {
            return;
        };
        let installed = self.types.lock();
        let sema = &self.sema;
        let mut owners: HashMap<TypeId, (Symbol, u32)> = HashMap::new();
        let mut recorded: HashSet<Symbol> = HashSet::new();
        for (name, key, imports) in &ifaces.keyed {
            let Some(&scope) = def_streams.get(name) else {
                continue;
            };
            let own = match installed.get(name) {
                Some(own) => own.to_vec(),
                None => {
                    let file = sema.tables.scope(scope).file();
                    let quiet = !diagnostics.iter().any(|d| d.file == file);
                    let parsed = def_imports.remove(&scope);
                    let (Some(parsed), true) = (parsed, quiet) else {
                        continue;
                    };
                    if !imports.iter().all(|i| recorded.contains(i)) {
                        continue;
                    }
                    let owner = |t: TypeId| owners.get(&t).copied();
                    let Some((iface, own)) = interface::capture(sema, scope, parsed, &owner) else {
                        continue;
                    };
                    self.store
                        .store(*key, &encode_interface(&iface, &sema.interner));
                    own
                }
            };
            for (index, t) in own.into_iter().enumerate() {
                owners.insert(t, (*name, index as u32));
            }
            recorded.insert(*name);
        }
    }
}

/// The checksum trailer that closes an envelope (zeros for bytes too
/// short to hold one, which never open).
fn trailer(bytes: &[u8]) -> [u8; 16] {
    let at = bytes.len().saturating_sub(16);
    bytes[at..].try_into().unwrap_or([0; 16])
}
