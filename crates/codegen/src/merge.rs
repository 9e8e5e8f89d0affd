//! Late merge: concatenating per-procedure code units into a module image.
//!
//! Paper §2.1/§3: because the unit of merging is the code for an entire
//! procedure, concatenation can happen **in any order** and concurrently
//! with other compiler activity. [`Merger`] accepts units from any task in
//! any order; [`Merger::finish`] canonicalizes (sorts by code name) so the
//! resulting [`ModuleImage`] is identical regardless of completion order —
//! the property the merge-order property tests exercise.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_support::intern::{Interner, Symbol};
use ccm2_support::work::{Work, WorkMeter};

use crate::ir::{CodeUnit, Shape};

/// A module's global-variable area: the owning module name plus one shape
/// per slot.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalArea {
    /// The module that declared these globals.
    pub module: Symbol,
    /// Slot shapes in slot order.
    pub slots: Vec<Shape>,
}

/// The complete output of a compilation: every procedure's code, the
/// global areas, and the entry unit (the module body).
#[derive(Clone, PartialEq, Debug)]
pub struct ModuleImage {
    /// The compiled module's name.
    pub name: Symbol,
    /// All code units, sorted by *resolved* code name (stable run-to-run
    /// regardless of interning order — cache equivalence depends on it).
    pub units: Vec<CodeUnit>,
    /// Global areas, sorted by resolved module name.
    pub globals: Vec<GlobalArea>,
    /// Name of the entry (module body) unit.
    pub entry: Symbol,
}

impl ModuleImage {
    /// Finds a unit by its dotted code name. Units are sorted by resolved
    /// name string, which symbol handles cannot binary-search, so this is
    /// a linear scan of symbol equality — fine for lookups outside hot
    /// loops (the VM builds its own dispatch map).
    pub fn unit(&self, name: Symbol) -> Option<&CodeUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// Index of a unit by name (for call dispatch tables).
    pub fn unit_index(&self, name: Symbol) -> Option<usize> {
        self.units.iter().position(|u| u.name == name)
    }

    /// Index of a global area by module name.
    pub fn global_index(&self, module: Symbol) -> Option<usize> {
        self.globals.iter().position(|g| g.module == module)
    }

    /// Total instruction count across all units (a size proxy used by
    /// reports).
    pub fn instruction_count(&self) -> usize {
        self.units.iter().map(|u| u.code.len()).sum()
    }

    /// A readable disassembly (for the quickstart example and debugging).
    pub fn disassemble(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for u in &self.units {
            out.push_str(&format!(
                "UNIT {} (level {}, {} params, {} slots)\n",
                interner.resolve(u.name),
                u.level,
                u.param_count,
                u.frame.len()
            ));
            for (ix, ins) in u.code.iter().enumerate() {
                out.push_str(&format!("  {ix:4}  {ins:?}\n"));
            }
        }
        out
    }
}

/// Thread-safe accumulator for finished code units — the paper's *merge
/// task*.
#[derive(Debug)]
pub struct Merger {
    name: Symbol,
    interner: Arc<Interner>,
    units: Mutex<Vec<CodeUnit>>,
    globals: Mutex<HashMap<Symbol, Vec<Shape>>>,
}

impl Merger {
    /// Creates a merger for the module `name`. The interner resolves unit
    /// names at [`Merger::finish`] so the canonical order is the *name
    /// string* order, independent of symbol-interning order.
    pub fn new(name: Symbol, interner: Arc<Interner>) -> Merger {
        Merger {
            name,
            interner,
            units: Mutex::new(Vec::new()),
            globals: Mutex::new(HashMap::new()),
        }
    }

    /// Accepts one finished code unit (callable from any task, any order).
    pub fn add_unit(&self, unit: CodeUnit, meter: &dyn WorkMeter) {
        meter.charge(Work::Merge, 1 + unit.code.len() as u64 / 64);
        self.units.lock().push(unit);
    }

    /// Registers a module's global area.
    pub fn add_globals(&self, module: Symbol, slots: Vec<Shape>) {
        self.globals.lock().insert(module, slots);
    }

    /// Produces the canonical module image. Sort keys are resolved name
    /// strings: symbol indices depend on interning order, which differs
    /// between runs (and between a warm cache run and a cold one), while
    /// the names themselves do not.
    pub fn finish(&self) -> ModuleImage {
        let mut units = std::mem::take(&mut *self.units.lock());
        let name = |s: Symbol| self.interner.as_str(s);
        units.sort_by(|a, b| name(a.name).cmp(name(b.name)));
        let mut globals: Vec<GlobalArea> = std::mem::take(&mut *self.globals.lock())
            .into_iter()
            .map(|(module, slots)| GlobalArea { module, slots })
            .collect();
        globals.sort_by(|a, b| name(a.module).cmp(name(b.module)));
        ModuleImage {
            name: self.name,
            units,
            globals,
            entry: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use ccm2_support::work::NullMeter;

    fn unit(i: &Interner, name: &str) -> CodeUnit {
        let mut u = CodeUnit::new(i.intern(name), 1);
        u.code.push(Instr::Return);
        u
    }

    #[test]
    fn merge_is_order_insensitive() {
        let i = Arc::new(Interner::new());
        let m = i.intern("M");
        let a = Merger::new(m, Arc::clone(&i));
        a.add_unit(unit(&i, "M.X"), &NullMeter);
        a.add_unit(unit(&i, "M"), &NullMeter);
        a.add_unit(unit(&i, "M.A"), &NullMeter);
        let b = Merger::new(m, Arc::clone(&i));
        b.add_unit(unit(&i, "M.A"), &NullMeter);
        b.add_unit(unit(&i, "M.X"), &NullMeter);
        b.add_unit(unit(&i, "M"), &NullMeter);
        let image = a.finish();
        assert_eq!(image, b.finish());
        // Canonical order is the *name string* order.
        let names: Vec<String> = image.units.iter().map(|u| i.resolve(u.name)).collect();
        assert_eq!(names, vec!["M", "M.A", "M.X"]);
    }

    #[test]
    fn unit_order_is_independent_of_interning_order() {
        // Intern the *late-sorting* name first so symbol-index order and
        // name order disagree; the image must follow name order (a warm
        // cache run interns names in a different order than a cold one).
        let i = Arc::new(Interner::new());
        let m = Merger::new(i.intern("M"), Arc::clone(&i));
        m.add_unit(unit(&i, "M.Zed"), &NullMeter);
        m.add_unit(unit(&i, "M.Alpha"), &NullMeter);
        m.add_unit(unit(&i, "M"), &NullMeter);
        assert!(i.intern("M.Zed").index() < i.intern("M.Alpha").index());
        let img = m.finish();
        let names: Vec<String> = img.units.iter().map(|u| i.resolve(u.name)).collect();
        assert_eq!(names, vec!["M", "M.Alpha", "M.Zed"]);
        assert_eq!(img.unit_index(i.intern("M.Zed")), Some(2));
    }

    #[test]
    fn image_lookup_by_name() {
        let i = Arc::new(Interner::new());
        let m = Merger::new(i.intern("M"), Arc::clone(&i));
        m.add_unit(unit(&i, "M.P"), &NullMeter);
        m.add_unit(unit(&i, "M"), &NullMeter);
        let img = m.finish();
        assert!(img.unit(i.intern("M.P")).is_some());
        assert!(img.unit(i.intern("M.Q")).is_none());
        assert_eq!(img.instruction_count(), 2);
    }

    #[test]
    fn globals_sorted_by_module() {
        let i = Arc::new(Interner::new());
        let m = Merger::new(i.intern("M"), Arc::clone(&i));
        m.add_globals(i.intern("Zeta"), vec![Shape::Int]);
        m.add_globals(i.intern("Alpha"), vec![Shape::Real, Shape::Bool]);
        let img = m.finish();
        // Sorted by resolved module name, not interning order.
        let zi = img.global_index(i.intern("Zeta")).expect("zeta");
        let ai = img.global_index(i.intern("Alpha")).expect("alpha");
        assert_eq!((ai, zi), (0, 1));
        assert_eq!(img.globals[ai].slots.len(), 2);
    }

    #[test]
    fn disassembly_mentions_units() {
        let i = Arc::new(Interner::new());
        let m = Merger::new(i.intern("M"), Arc::clone(&i));
        m.add_unit(unit(&i, "M"), &NullMeter);
        let img = m.finish();
        let dis = img.disassemble(&i);
        assert!(dis.contains("UNIT M"));
        assert!(dis.contains("Return"));
    }
}
