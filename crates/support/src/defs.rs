//! Definition-module source providers.
//!
//! A compilation unit is a module `M` represented by `M.def` and `M.mod`
//! (paper §3); the compiler resolves imported interfaces by name. In the
//! paper's environment this was the file system; in this reproduction the
//! benchmark workloads are generated in memory, so the lookup is a trait.

use std::collections::BTreeMap;

/// Provides definition-module sources by module name.
pub trait DefProvider: Send + Sync {
    /// Returns the text of `M.def` for module `name`, if it exists.
    fn definition_source(&self, name: &str) -> Option<String>;

    /// Enumerates *every* definition module as sorted `(name, source)`
    /// pairs, when the provider can. The incremental-compilation cache
    /// folds this into its environment fingerprint (a conservative
    /// superset of any unit's imports); providers that cannot enumerate
    /// (the default) disable incremental reuse rather than risk a stale
    /// interface going unnoticed.
    fn all_definitions(&self) -> Option<Vec<(String, String)>> {
        None
    }
}

/// A simple in-memory [`DefProvider`].
///
/// # Examples
///
/// ```
/// use ccm2_support::defs::{DefLibrary, DefProvider};
/// let mut lib = DefLibrary::new();
/// lib.insert("IO", "DEFINITION MODULE IO; END IO.");
/// assert!(lib.definition_source("IO").is_some());
/// assert!(lib.definition_source("Nope").is_none());
/// ```
#[derive(Debug, Default, Clone)]
pub struct DefLibrary {
    defs: BTreeMap<String, String>,
}

impl DefLibrary {
    /// Creates an empty library.
    pub fn new() -> DefLibrary {
        DefLibrary::default()
    }

    /// Adds (or replaces) a definition module's source.
    pub fn insert(&mut self, name: impl Into<String>, source: impl Into<String>) {
        self.defs.insert(name.into(), source.into());
    }

    /// The source of definition module `name`, to edit where it lies.
    pub fn source_mut(&mut self, name: &str) -> Option<&mut String> {
        self.defs.get_mut(name)
    }

    /// Iterates over `(name, source)` pairs sorted by name: the order and
    /// content of [`DefProvider::all_definitions`], borrowed — what a
    /// digest over the whole library reads without copying the texts.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.defs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of definition modules.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

impl DefProvider for DefLibrary {
    fn definition_source(&self, name: &str) -> Option<String> {
        self.defs.get(name).cloned()
    }

    fn all_definitions(&self) -> Option<Vec<(String, String)>> {
        Some(
            self.iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut lib = DefLibrary::new();
        assert!(lib.is_empty());
        lib.insert("A", "DEFINITION MODULE A; END A.");
        assert_eq!(lib.len(), 1);
        assert!(lib
            .definition_source("A")
            .expect("exists")
            .contains("MODULE A"));
    }

    #[test]
    fn provider_is_object_safe() {
        let lib = DefLibrary::new();
        let p: &dyn DefProvider = &lib;
        assert!(p.definition_source("missing").is_none());
    }

    #[test]
    fn all_definitions_is_sorted() {
        let mut lib = DefLibrary::new();
        lib.insert("Zed", "DEFINITION MODULE Zed; END Zed.");
        lib.insert("Alpha", "DEFINITION MODULE Alpha; END Alpha.");
        let all = lib.all_definitions().expect("library can enumerate");
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "Alpha");
        assert_eq!(all[1].0, "Zed");
        let names: Vec<&str> = lib.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["Alpha", "Zed"], "iter is the same view, borrowed");

        struct Opaque;
        impl DefProvider for Opaque {
            fn definition_source(&self, _name: &str) -> Option<String> {
                None
            }
        }
        assert!(Opaque.all_definitions().is_none(), "default is None");
    }
}
