//! A counting global allocator: heap allocations and bytes requested,
//! counted only while a traced window's clock runs, so the untraced run
//! pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting while switched on.
pub struct Counting;

fn note(size: usize) {
    // Statistics only: nothing is published through these counters.
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zeroes the counters and starts counting.
pub fn start() {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stops counting; returns `(allocations, bytes)` since [`start`].
pub fn stop() -> (u64, u64) {
    ON.store(false, Ordering::Relaxed);
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Tests that switch the counter on or off take this lock: the switch
/// is process-wide and tests run on parallel threads.
#[cfg(test)]
pub static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_between_start_and_stop() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Other tests allocate concurrently, so only lower bounds hold.
        start();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let (n, bytes) = stop();
        assert!(n >= 1 && bytes >= 4096, "{n} allocations, {bytes} bytes");
    }
}
