//! Empty. The compiler has no fault plane: a task panic ends its
//! compile. The package stays, with its manifest and the dependency
//! edges of its dependents, only because the benchmark package's lock
//! file (`perf/Cargo.lock`) lists it; it goes with the next change to
//! that package.
