//! Source text management: files, spans and line/column resolution.
//!
//! A compilation touches the implementation module plus every directly or
//! indirectly imported definition module; each is a [`SourceFile`] held in a
//! [`SourceMap`]. Spans are byte ranges local to one file and are carried on
//! every token and AST node so diagnostics can point at source.

use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Identifies a [`SourceFile`] inside a [`SourceMap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u32);

/// A half-open byte range `[lo, hi)` within a single source file.
///
/// # Examples
///
/// ```
/// use ccm2_support::source::Span;
/// let s = Span::new(2, 5);
/// assert_eq!(s.len(), 3);
/// assert!(s.contains(4));
/// assert!(!s.contains(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// Inclusive start byte offset.
    pub lo: u32,
    /// Exclusive end byte offset.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo`.
    pub fn new(lo: u32, hi: u32) -> Span {
        assert!(hi >= lo, "span end {hi} precedes start {lo}");
        Span { lo, hi }
    }

    /// A zero-width span at `at`.
    pub fn point(at: u32) -> Span {
        Span { lo: at, hi: at }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Returns `true` for zero-width spans.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Returns `true` if byte offset `pos` falls inside the span.
    pub fn contains(&self, pos: u32) -> bool {
        self.lo <= pos && pos < self.hi
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(&self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A one-based line/column position, for human-readable diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineCol {
    /// One-based line number.
    pub line: u32,
    /// One-based column (byte) number.
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One source file: a name (e.g. `Text.def`) plus its full text and a
/// line-start table, built by the first [`SourceFile::line_col`] (a
/// compile never asks for one; a diagnostic's renderer does).
#[derive(Debug)]
pub struct SourceFile {
    id: FileId,
    name: String,
    text: String,
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceFile {
    fn new(id: FileId, name: String, text: String) -> SourceFile {
        SourceFile {
            id,
            name,
            text,
            line_starts: OnceLock::new(),
        }
    }

    /// The id this file was registered under.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The file's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The complete text of the file.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Converts a byte offset to a one-based line/column pair.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_starts = self.line_starts.get_or_init(|| {
            let newlines = self.text.bytes().enumerate().filter(|&(_, b)| b == b'\n');
            let after = newlines.map(|(i, _)| i as u32 + 1);
            std::iter::once(0).chain(after).collect()
        });
        let line = match line_starts.binary_search(&offset) {
            Ok(exact) => exact,
            Err(next) => next - 1,
        };
        LineCol {
            line: line as u32 + 1,
            col: offset - line_starts[line] + 1,
        }
    }
}

/// A thread-safe registry of [`SourceFile`]s.
///
/// The importer task registers definition-module files concurrently with
/// other compilation work, so the map is internally locked and hands out
/// `Arc<SourceFile>`.
#[derive(Debug, Default)]
pub struct SourceMap {
    files: RwLock<Vec<Arc<SourceFile>>>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Registers a file and returns it.
    pub fn add(&self, name: impl Into<String>, text: impl Into<String>) -> Arc<SourceFile> {
        let mut files = self.files.write().expect("source map poisoned");
        let id = FileId(files.len() as u32);
        let file = Arc::new(SourceFile::new(id, name.into(), text.into()));
        files.push(Arc::clone(&file));
        file
    }

    /// Looks a file up by id.
    pub fn get(&self, id: FileId) -> Option<Arc<SourceFile>> {
        self.files
            .read()
            .expect("source map poisoned")
            .get(id.0 as usize)
            .cloned()
    }

    /// Finds a file by exact name.
    pub fn find(&self, name: &str) -> Option<Arc<SourceFile>> {
        self.files
            .read()
            .expect("source map poisoned")
            .iter()
            .find(|f| f.name() == name)
            .cloned()
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.read().expect("source map poisoned").len()
    }

    /// Returns `true` if no files are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.contains(3));
        assert!(!s.contains(7));
        assert_eq!(s.to(Span::new(10, 12)), Span::new(3, 12));
        assert_eq!(Span::point(5).len(), 0);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn inverted_span_panics() {
        let _ = Span::new(7, 3);
    }

    #[test]
    fn line_col_resolution() {
        let map = SourceMap::new();
        let f = map.add("m.mod", "MODULE M;\nBEGIN\nEND M.\n");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(10), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(12), LineCol { line: 2, col: 3 });
        assert_eq!(f.line_col(16), LineCol { line: 3, col: 1 });
    }

    #[test]
    fn map_find_and_get() {
        let map = SourceMap::new();
        let a = map.add("A.def", "DEFINITION MODULE A; END A.");
        let b = map.add("B.def", "DEFINITION MODULE B; END B.");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(a.id()).expect("a exists").name(), "A.def");
        assert_eq!(map.find("B.def").expect("b exists").id(), b.id());
        assert!(map.find("C.def").is_none());
    }

    #[test]
    fn empty_file_has_one_line() {
        let map = SourceMap::new();
        let f = map.add("empty.mod", "");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
    }
}
