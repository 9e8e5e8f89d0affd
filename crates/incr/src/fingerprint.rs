//! Stream fingerprints: pure content hashing of a stream's inputs.
//!
//! A procedure stream's compilation result is a function of
//!
//! 1. its own source slice (the token range the Splitter carves for it,
//!    heading and nested children included);
//! 2. the declarations visible from every *enclosing* scope — what the
//!    DKY machinery can look up while the stream compiles;
//! 3. the interfaces of the imported definition modules; and
//! 4. the codegen-relevant configuration.
//!
//! The fingerprint is built from chained digests so that (2) costs one
//! hash of the enclosing text rather than a semantic analysis:
//!
//! ```text
//! ctxv(main) = H(env ‖ ctxdig(main))
//! ctxv(S)    = H(ctxv(parent(S)) ‖ ctxdig(S))
//! fp(S)      = H(ctxv(parent(S)) ‖ H(slice(S)))
//! fp(module) = H(ctxv(main) ‖ "module-body")
//! ```
//!
//! where `ctxdig(S)` hashes `S`'s slice with every **direct child's body
//! excluded but its heading kept**. Keeping headings in the enclosing
//! context means editing a sibling's *signature* (which changes call-site
//! code) invalidates the siblings, while editing only a sibling's *body*
//! does not. `env` ([`ImportGraph::keys`]) folds in the source text of
//! every definition module the main source transitively imports — not
//! just the ones a given unit uses, and none it cannot reach — plus the
//! format version and the configuration bits that change generated code
//! or diagnostics.
//!
//! Because digests hash byte *content*, never absolute offsets,
//! lengthening an earlier procedure's body shifts every later stream's
//! spans without changing their fingerprints; cached diagnostics are
//! stored span-relative to the carve start and rebased on replay.

use std::collections::BTreeMap;

use ccm2_support::hash::{Fp128, StableHasher};

/// Byte ranges of one carved procedure stream within the main source:
/// `lo..heading_hi` is the heading (through its closing `;`),
/// `lo..hi` the full slice including nested procedures and the final
/// `END Name;`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Carve {
    /// Start of the `PROCEDURE` keyword.
    pub lo: u32,
    /// End of the heading's closing semicolon.
    pub heading_hi: u32,
    /// End of the stream's final token.
    pub hi: u32,
}

impl Carve {
    /// Whether `offset` falls inside this stream's *body* (after the
    /// heading, within the slice) — used to attribute diagnostics to the
    /// innermost enclosing stream.
    pub fn body_contains(&self, offset: u32) -> bool {
        offset >= self.heading_hi && offset < self.hi
    }
}

/// One stream node handed to [`fingerprint_streams`].
#[derive(Clone, Copy, Debug)]
pub struct StreamNode {
    /// The stream's carve ranges.
    pub carve: Carve,
    /// Index (into the same slice) of the lexically enclosing stream;
    /// `None` for procedures directly inside the module body.
    pub parent: Option<usize>,
}

/// The output of [`fingerprint_streams`].
#[derive(Clone, Debug)]
pub struct Fingerprints {
    /// Fingerprint of the module-body code unit.
    pub module: Fp128,
    /// Per-stream fingerprints, parallel to the input slice.
    pub streams: Vec<Fp128>,
}

/// Placeholder source hashed for an imported definition module the
/// provider cannot supply. Folding the *absence* into the digest means a
/// module compiled while an interface was missing never shares
/// fingerprints with one compiled after the interface (re)appeared.
const MISSING_DEF_SOURCE: &str = "\u{1}<missing definition module>\u{1}";

/// Extracts the module names a source text imports: `IMPORT A, B;` and
/// `FROM C IMPORT x;` at any position. The scan is token-oriented but
/// deliberately ignores comment/string context, so a name mentioned in a
/// comment can only *add* a module to the set — over-inclusion merely
/// widens invalidation, while missing a real import could let a stale
/// interface go unnoticed.
pub fn import_names(source: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut words = Words { source, at: 0 };
    while let Some(keyword) = words.seek_keyword() {
        let plain = keyword == "IMPORT";
        if !plain {
            names.extend(words.next());
            // Skip the `IMPORT x, y;` symbol list — those are
            // identifiers inside the named module, not modules.
            let mut ahead = words;
            if ahead.next() != Some("IMPORT") {
                continue;
            }
            words = ahead;
        }
        let list_end = source[words.at..]
            .find(';')
            .map_or(source.len(), |at| words.at + at);
        if plain {
            // A plain import: every identifier up to the `;` is a
            // module name.
            names.extend(Words {
                source: &source[..list_end],
                at: words.at,
            });
        }
        words.at = list_end;
    }
    names.sort();
    names.dedup();
    names
}

/// The words of a text from byte `at` on — an ASCII letter, then letters
/// and digits — one at a time; `at` is just past the last one produced.
/// A compile asks for the imports of the main module and of every
/// interface it reaches, and only the words after two keywords matter,
/// so the scan keeps no list and walks no word it can jump over.
#[derive(Clone, Copy)]
struct Words<'a> {
    source: &'a str,
    at: usize,
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.source.as_bytes();
        let start = self.at + bytes[self.at..].iter().position(u8::is_ascii_alphabetic)?;
        let len = bytes[start..]
            .iter()
            .position(|b| !b.is_ascii_alphanumeric())
            .unwrap_or(bytes.len() - start);
        self.at = start + len;
        Some(&self.source[start..self.at])
    }
}

impl Words<'_> {
    /// Moves past the next word that is `FROM` or `IMPORT` and says
    /// which. Both contain an `M` and little else in a program does, so
    /// this looks at the `M`s (`find` on a one-byte `char` is `memchr`)
    /// where [`Iterator::next`] would look at every byte.
    fn seek_keyword(&mut self) -> Option<&'static str> {
        let bytes = self.source.as_bytes();
        let mut from = self.at;
        loop {
            let m = from + self.source[from..].find('M')?;
            for (keyword, before_m) in [("FROM", 3), ("IMPORT", 1)] {
                let Some(start) = m.checked_sub(before_m) else {
                    continue;
                };
                let end = start + keyword.len();
                // A word starts at the first letter of a run of letters
                // and digits: nothing but digits may precede it there.
                let mut run_before = bytes[..start]
                    .iter()
                    .rev()
                    .take_while(|b| b.is_ascii_alphanumeric());
                if bytes.get(start..end) == Some(keyword.as_bytes())
                    && !bytes.get(end).is_some_and(u8::is_ascii_alphanumeric)
                    && !run_before.any(u8::is_ascii_alphabetic)
                {
                    self.at = end;
                    return Some(keyword);
                }
            }
            from = m + 1;
        }
    }
}

/// The definition modules a main source reaches through its imports,
/// each with its source and the modules it imports in turn: one walk
/// gives both the environment digest and the interface keys.
#[derive(Debug)]
pub struct ImportGraph<'a> {
    /// `None` for a module the library lacks.
    nodes: BTreeMap<&'a str, Option<(&'a str, Vec<&'a str>)>>,
}

/// A definition module's interface key (see [`ImportGraph::keys`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceKey<'a> {
    /// The module's name.
    pub name: &'a str,
    /// The key its interface artifact is stored under.
    pub key: Fp128,
    /// The modules it imports, sorted ([`import_names`]).
    pub imports: Vec<&'a str>,
}

impl<'a> ImportGraph<'a> {
    /// Walks `main_source`'s imports through `library`.
    pub fn of(main_source: &'a str, library: &'a [(String, String)]) -> ImportGraph<'a> {
        let by_name: std::collections::HashMap<&str, &str> = library
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let mut nodes = BTreeMap::new();
        let mut frontier = import_names(main_source);
        while let Some(name) = frontier.pop() {
            if nodes.contains_key(name) {
                continue;
            }
            let node = by_name.get(name).map(|&src| {
                let imports = import_names(src);
                frontier.extend(&imports);
                (src, imports)
            });
            nodes.insert(name, node);
        }
        ImportGraph { nodes }
    }

    /// What a compile of the main source is keyed by, under the format
    /// version and the configuration bits that alter generated code or
    /// diagnostics: the environment digest every stream fingerprint
    /// chains from, and the interface key of every module whose interface
    /// can be reused, imports before importers.
    ///
    /// The environment digest covers the configuration and the name and
    /// source of every module the walk reached, in name order (a module
    /// the library lacks as a placeholder). A definition module the main
    /// source cannot reach does not contribute, so editing it leaves every
    /// cached unit valid. `K(X)` digests a domain tag, the same
    /// configuration, X's name and source, and the keys of X's imports in
    /// sorted order: a key changes with the module's own text and with any
    /// interface it reaches. A module the library lacks, or one on an
    /// import cycle, has no key, and neither has any module importing it.
    pub fn keys(
        &self,
        format_version: u32,
        analyze: bool,
        heading_mode_tag: u8,
    ) -> (Fp128, Vec<InterfaceKey<'a>>) {
        let config = [u8::from(analyze), heading_mode_tag];
        let mut env = StableHasher::new();
        env.write_u32(format_version);
        env.write(&config);
        env.write_u64(self.nodes.len() as u64);
        let mut walk = KeyWalk {
            graph: self,
            config: (format_version, config),
            state: BTreeMap::new(),
            keys: Vec::new(),
        };
        for (&name, node) in &self.nodes {
            env.write_str(name);
            env.write_str(node.as_ref().map_or(MISSING_DEF_SOURCE, |n| n.0));
            walk.key(name);
        }
        (env.finish(), walk.keys)
    }
}

/// Depth-first computation of interface keys.
struct KeyWalk<'g, 'a> {
    graph: &'g ImportGraph<'a>,
    config: (u32, [u8; 2]),
    /// `None` while a module's imports are being keyed (a cycle reaches
    /// it then), afterwards its key if it has one.
    state: BTreeMap<&'a str, Option<Option<Fp128>>>,
    keys: Vec<InterfaceKey<'a>>,
}

impl<'a> KeyWalk<'_, 'a> {
    fn key(&mut self, name: &'a str) -> Option<Fp128> {
        if let Some(&known) = self.state.get(name) {
            return known.flatten();
        }
        let (source, imports) = self.graph.nodes.get(name)?.as_ref()?;
        self.state.insert(name, None);
        let imported: Option<Vec<Fp128>> = imports.iter().map(|&i| self.key(i)).collect();
        let key = imported.map(|imported| {
            let (format_version, config) = self.config;
            let mut h = StableHasher::new();
            h.write_str("ccm2 interface");
            h.write_u32(format_version);
            h.write(&config);
            h.write_str(name);
            h.write_str(source);
            h.write_u64(imported.len() as u64);
            for fp in imported {
                h.write_fp(fp);
            }
            h.finish()
        });
        self.state.insert(name, Some(key));
        if let Some(key) = key {
            self.keys.push(InterfaceKey {
                name,
                key,
                imports: imports.clone(),
            });
        }
        key
    }
}

/// Hashes `bytes[lo..hi]` with each direct child's body range excluded
/// (headings kept — see the module docs). Malformed ranges degrade by
/// clamping, which can only *include* more bytes, i.e. over-invalidate.
fn context_digest(bytes: &[u8], lo: u32, hi: u32, children: &[Carve]) -> Fp128 {
    let len = bytes.len() as u32;
    let hi = hi.min(len);
    let mut h = StableHasher::new();
    let mut pos = lo.min(hi);
    for child in children {
        let keep_to = child.heading_hi.clamp(pos, hi);
        h.write_str(std::str::from_utf8(&bytes[pos as usize..keep_to as usize]).unwrap_or(""));
        pos = child.hi.clamp(keep_to, hi);
    }
    h.write_str(std::str::from_utf8(&bytes[pos as usize..hi as usize]).unwrap_or(""));
    h.finish()
}

/// Computes the module-body fingerprint and one fingerprint per stream
/// node, given the main source and the environment digest.
pub fn fingerprint_streams(source: &str, nodes: &[StreamNode], env: Fp128) -> Fingerprints {
    let bytes = source.as_bytes();
    let len = bytes.len() as u32;

    // Direct children of each node (and of the module root), in
    // source order so digests are position-independent but stable.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        match n.parent {
            Some(p) if p < nodes.len() => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let by_lo = |list: &mut Vec<usize>| list.sort_by_key(|&i| nodes[i].carve.lo);
    for list in &mut children {
        by_lo(list);
    }
    by_lo(&mut roots);

    let child_carves =
        |list: &[usize]| -> Vec<Carve> { list.iter().map(|&i| nodes[i].carve).collect() };

    // ctxv(main): environment chained with the module-level context.
    let mut h = StableHasher::new();
    h.write_fp(env);
    h.write_fp(context_digest(bytes, 0, len, &child_carves(&roots)));
    let ctxv_main = h.finish();

    let mut module = StableHasher::new();
    module.write_fp(ctxv_main);
    module.write_str("module-body");
    let module = module.finish();

    // Walk top-down: each node's fp and ctxv need only the parent's ctxv.
    let mut fps = vec![module; nodes.len()];
    let mut stack: Vec<(usize, Fp128)> = roots.iter().map(|&i| (i, ctxv_main)).collect();
    while let Some((i, parent_ctxv)) = stack.pop() {
        let carve = nodes[i].carve;
        let hi = carve.hi.min(len);
        let lo = carve.lo.min(hi);
        let selfdig = Fp128::of(&bytes[lo as usize..hi as usize]);

        let mut h = StableHasher::new();
        h.write_fp(parent_ctxv);
        h.write_fp(selfdig);
        fps[i] = h.finish();

        let mut h = StableHasher::new();
        h.write_fp(parent_ctxv);
        h.write_fp(context_digest(bytes, lo, hi, &child_carves(&children[i])));
        let ctxv = h.finish();
        for &c in &children[i] {
            stack.push((c, ctxv));
        }
    }

    Fingerprints {
        module,
        streams: fps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENV: Fp128 = Fp128 { hi: 1, lo: 2 };

    /// Locates procedure `name`'s carve in `src`: `PROCEDURE name` up to
    /// `END name;`, with the heading ending at the first semicolon.
    fn node(src: &str, name: &str, parent: Option<usize>) -> StreamNode {
        let lo = src
            .find(&format!("PROCEDURE {name}"))
            .expect("heading present");
        let heading_hi = lo + src[lo..].find(';').expect("heading semi") + 1;
        let end = format!("END {name};");
        let hi = src.find(&end).expect("end present") + end.len();
        StreamNode {
            carve: Carve {
                lo: lo as u32,
                heading_hi: heading_hi as u32,
                hi: hi as u32,
            },
            parent,
        }
    }

    const SRC_A: &str = "MODULE M;\n\
         PROCEDURE P(); BEGIN x := 1; END P;\n\
         PROCEDURE Q(); BEGIN y := 2; END Q;\n\
         BEGIN END M.";

    fn nodes_of(src: &str) -> Vec<StreamNode> {
        vec![node(src, "P", None), node(src, "Q", None)]
    }

    #[test]
    fn sibling_body_edit_leaves_sibling_and_module_unchanged() {
        let edited = SRC_A.replace("y := 2", "y := 99");
        let a = fingerprint_streams(SRC_A, &nodes_of(SRC_A), ENV);
        let b = fingerprint_streams(&edited, &nodes_of(&edited), ENV);
        assert_eq!(a.streams[0], b.streams[0], "P untouched by Q's body edit");
        assert_ne!(a.streams[1], b.streams[1], "Q itself changed");
        assert_eq!(a.module, b.module, "module body untouched");
    }

    #[test]
    fn sibling_heading_edit_invalidates_everything_at_that_level() {
        let edited = SRC_A.replace("PROCEDURE Q();", "PROCEDURE Q(n : INTEGER);");
        let a = fingerprint_streams(SRC_A, &nodes_of(SRC_A), ENV);
        let b = fingerprint_streams(&edited, &nodes_of(&edited), ENV);
        assert_ne!(a.streams[0], b.streams[0], "P sees Q's new signature");
        assert_ne!(a.streams[1], b.streams[1]);
        assert_ne!(a.module, b.module, "module body can call Q");
    }

    #[test]
    fn offset_shift_does_not_invalidate() {
        // Lengthening P's body shifts Q's byte offsets; Q's fingerprint
        // must not notice (digests hash content, never positions).
        let shifted = SRC_A.replace("x := 1", "x := 100000 + 200000");
        let a = fingerprint_streams(SRC_A, &nodes_of(SRC_A), ENV);
        let b = fingerprint_streams(&shifted, &nodes_of(&shifted), ENV);
        assert!(
            nodes_of(&shifted)[1].carve.lo > nodes_of(SRC_A)[1].carve.lo,
            "Q really did move"
        );
        assert_ne!(a.streams[0], b.streams[0], "P changed");
        assert_eq!(a.streams[1], b.streams[1], "Q's shift is invisible");
        assert_eq!(a.module, b.module, "body edits stay out of module ctx");
    }

    #[test]
    fn nested_child_edit_invalidates_ancestors_not_uncles() {
        const INNER: &str = "PROCEDURE Inner(); BEGIN a := 1; END Inner;";
        let p_whole = format!("PROCEDURE P();\n{INNER}\nBEGIN x := 1; END P;");
        let src =
            format!("MODULE M;\n{p_whole}\nPROCEDURE Q(); BEGIN y := 2; END Q;\nBEGIN END M.");
        let nodes = |s: &str| {
            vec![
                node(s, "P", None),
                node(s, "Inner", Some(0)),
                node(s, "Q", None),
            ]
        };
        let edited = src.replace("a := 1", "a := 42");
        let a = fingerprint_streams(&src, &nodes(&src), ENV);
        let b = fingerprint_streams(&edited, &nodes(&edited), ENV);
        assert_ne!(a.streams[1], b.streams[1], "inner changed");
        assert_ne!(
            a.streams[0], b.streams[0],
            "parent slice contains inner's body"
        );
        assert_eq!(a.streams[2], b.streams[2], "uncle Q unaffected");
        assert_eq!(a.module, b.module, "module context keeps only headings");
    }

    #[test]
    fn environment_changes_invalidate_all() {
        let nodes = nodes_of(SRC_A);
        let a = fingerprint_streams(SRC_A, &nodes, ENV);
        let b = fingerprint_streams(SRC_A, &nodes, Fp128 { hi: 1, lo: 3 });
        assert_ne!(a.module, b.module);
        assert_ne!(a.streams[0], b.streams[0]);
    }

    #[test]
    fn import_scan_finds_both_forms_and_skips_symbol_lists() {
        let src = "IMPLEMENTATION MODULE M;\n\
             IMPORT A, B;\n\
             FROM C IMPORT x, y;\n\
             IMPORT D;\n\
             PROCEDURE P(); BEGIN x := A.f; END P;\nBEGIN END M.";
        assert_eq!(import_names(src), vec!["A", "B", "C", "D"]);
        assert_eq!(import_names("MODULE N; BEGIN END N."), Vec::<&str>::new());
    }

    #[test]
    fn environment_covers_the_import_closure_and_marks_missing() {
        let def = |name: &str, body: &str| {
            (
                name.to_string(),
                format!("DEFINITION MODULE {name}; {body} END {name}."),
            )
        };
        let lib = vec![def("A", "IMPORT B;"), def("B", ""), def("Unrelated", "")];
        let main = "MODULE M; IMPORT A, Ghost; BEGIN END M.";
        let graph = ImportGraph::of(main, &lib);
        let names: Vec<&str> = graph.nodes.keys().copied().collect();
        assert_eq!(names, ["A", "B", "Ghost"], "transitive, no Unrelated");
        assert!(graph.nodes["Ghost"].is_none());
        let env = |lib: &[(String, String)]| ImportGraph::of(main, lib).keys(1, false, 0).0;
        // Editing the unreachable interface does not change the digest;
        // editing a reachable one does, and so does the missing one
        // turning up.
        let mut edited = lib.clone();
        edited[2] = def("Unrelated", "CONST N = 1;");
        assert_eq!(env(&lib), env(&edited));
        let mut edited_b = lib.clone();
        edited_b[1] = def("B", "CONST N = 1;");
        assert_ne!(env(&lib), env(&edited_b));
        let mut found = lib.clone();
        found.push(def("Ghost", ""));
        assert_ne!(env(&lib), env(&found));
    }

    #[test]
    fn keys_chain_through_imports_and_skip_missing_and_cyclic_modules() {
        let def = |name: &str, body: &str| {
            (
                name.to_string(),
                format!("DEFINITION MODULE {name}; {body} END {name}."),
            )
        };
        let lib = vec![
            def("A", "IMPORT B;"),
            def("B", "CONST N = 1;"),
            def("C", "IMPORT Ghost;"),
            def("D", "IMPORT E;"),
            def("E", "IMPORT D;"),
            def("F", "IMPORT A, C;"),
        ];
        let main = "MODULE M; IMPORT A, C, D, F; BEGIN END M.";
        let keys = |lib: &[(String, String)]| -> Vec<(String, Fp128)> {
            let graph = ImportGraph::of(main, lib);
            let keys = graph.keys(1, false, 0).1;
            keys.iter().map(|k| (k.name.to_string(), k.key)).collect()
        };
        let base = keys(&lib);
        let names: Vec<&str> = base.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["B", "A"],
            "imports first; no key past a missing module or a cycle"
        );

        let mut edited_b = lib.clone();
        edited_b[1] = def("B", "CONST N = 2;");
        let after = keys(&edited_b);
        assert!(
            after[0].1 != base[0].1 && after[1].1 != base[1].1,
            "B's edit reaches A"
        );

        let mut edited_a = lib.clone();
        edited_a[0] = def("A", "IMPORT B; CONST K = 3;");
        let after = keys(&edited_a);
        assert_eq!(after[0], base[0], "A's edit leaves B");
        assert_ne!(after[1], base[1]);

        let graph = ImportGraph::of(main, &lib);
        let base = graph.keys(1, false, 0);
        for (other, what) in [
            (graph.keys(2, false, 0), "version"),
            (graph.keys(1, true, 0), "analyze flag"),
            (graph.keys(1, false, 1), "heading mode"),
        ] {
            assert_ne!(other.0, base.0, "{what}: environment");
            assert_ne!(other.1, base.1, "{what}: interface keys");
        }
    }
}
