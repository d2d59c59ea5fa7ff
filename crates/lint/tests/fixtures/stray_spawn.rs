//! Fixture: a column encoded on a scoped thread of its own instead of
//! through the pool.

pub fn encode_in_background(rows: &[u32]) -> usize {
    std::thread::scope(|s| {
        s.spawn(|| rows.len()).join().unwrap_or(0)
    })
}
