//! Fixture: one bare Relaxed (finding) and one justified Relaxed (clean),
//! plus a lock().unwrap().

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static N: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    N.fetch_add(1, Ordering::Relaxed);
}

pub fn bump_justified() {
    // lint: allow(atomics-audit, fixture counter; written once and never read)
    N.fetch_add(1, Ordering::Relaxed);
}

pub fn peek(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
