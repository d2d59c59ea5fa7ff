//! Fixture: a closure parameter the walk cannot type, cast to u8, beside
//! an unrelated parameter of the same name declared u8. That declaration
//! says nothing about the closure's `c`, so the cast is a finding.

pub fn narrow(apply: impl Fn(&dyn Fn(u32) -> u8)) {
    apply(&|c| c as u8);
}

pub fn require(c: u8) -> u8 {
    c
}
