//! Fixture: direct panic sources (scanned as crates/core/src/check.rs — a
//! hot-path root file — by the integration tests).

pub fn helper(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn message() -> String {
    panic!("fixture")
}

pub fn annotated(v: Option<u32>) -> u32 {
    // lint: allow(no-panic, fixture invariant: caller always passes Some)
    v.expect("always Some")
}
