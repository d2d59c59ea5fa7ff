//! Deterministic, seeded row samples as first-class [`Relation`]s.
//!
//! The sample-first approximate discovery pipeline (DESIGN.md §14) runs
//! the levelwise traversal on a small row sample and escalates only
//! borderline candidates to full-data checks. For that to be resumable
//! and auditable, a sample must be (a) a real [`Relation`] — rank
//! encoded, checkable by every backend — and (b) *reproducible*: the same
//! parent relation, seed, size and strategy must always yield the same
//! rows, across runs, platforms and toolchains.
//!
//! [`Sample::build`] therefore uses a fully specified SplitMix64
//! generator (no `std` hasher, no platform entropy) and carries
//! provenance — the seed, the strategy, the ascending row map and the
//! sample's [`manifest_hash`] — so a checkpoint dump can record exactly
//! which sample a run was taken on, and a resume can rebuild and verify
//! it (rejecting on any mismatch, mirroring the manifest check the resume
//! runs on the parent itself).
//!
//! Two strategies are provided:
//!
//! * [`SampleStrategy::Uniform`] — classic reservoir sampling
//!   (Algorithm R) over the parent rows.
//! * [`SampleStrategy::Stratified`] — proportional allocation over the
//!   rank classes of one column (largest-remainder rounding, ties to the
//!   smaller rank), then a reservoir within each stratum. Guarantees
//!   every value class of a skewed column is represented, which
//!   stabilizes split-error estimates.
//!
//! When `rows >= parent.num_rows()` both strategies degenerate to the
//! identity sample (every parent row, original order) — the degenerate
//! case the pipeline's exactness differential is built on.

use crate::manifest::manifest_hash;
use crate::relation::{ColumnId, Relation};

/// How sample rows are drawn from the parent relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Uniform reservoir sample over all parent rows.
    Uniform,
    /// Proportional stratified sample over the rank classes of the given
    /// column (see the module docs).
    Stratified(ColumnId),
}

impl SampleStrategy {
    /// Stable tag used by dump serialization (`"uniform"` /
    /// `"stratified"`).
    pub fn label(&self) -> &'static str {
        match self {
            SampleStrategy::Uniform => "uniform",
            SampleStrategy::Stratified(_) => "stratified",
        }
    }

    /// The stratification column, when any.
    pub fn column(&self) -> Option<ColumnId> {
        match self {
            SampleStrategy::Uniform => None,
            SampleStrategy::Stratified(c) => Some(*c),
        }
    }
}

/// Requested sample: size, seed and strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Target number of sample rows (clamped to the parent's row count).
    pub rows: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
    /// Drawing strategy.
    pub strategy: SampleStrategy,
}

impl SampleSpec {
    /// Uniform spec with the given size and seed.
    pub fn uniform(rows: usize, seed: u64) -> SampleSpec {
        SampleSpec {
            rows,
            seed,
            strategy: SampleStrategy::Uniform,
        }
    }
}

/// Where a sample came from: everything needed to rebuild it from the
/// parent relation and to reject a resume against the wrong sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleProvenance {
    /// Row count of the parent relation.
    pub parent_rows: usize,
    /// Seed the rows were drawn with.
    pub seed: u64,
    /// Strategy the rows were drawn with.
    pub strategy: SampleStrategy,
    /// Sample row → parent row, ascending (parent order is preserved).
    pub row_map: Vec<u32>,
    /// [`manifest_hash`] of the materialized sample relation — the
    /// single value a resume compares to detect sampling drift.
    pub sample_manifest: u64,
}

/// A materialized sample: a rank-encoded [`Relation`] plus its
/// [`SampleProvenance`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// The sample as a first-class relation (dense ranks over the
    /// selected rows).
    pub relation: Relation,
    /// Reproducibility metadata.
    pub provenance: SampleProvenance,
}

impl Sample {
    /// Draw a deterministic sample of `spec.rows` rows from `parent`.
    ///
    /// The row map is sorted ascending after drawing, so the sample
    /// preserves parent row order; with `spec.rows >=
    /// parent.num_rows()` the map is the identity and the sample is the
    /// parent relation re-encoded (rank-identical, equal manifest).
    pub fn build(parent: &Relation, spec: &SampleSpec) -> Sample {
        let m = parent.num_rows();
        debug_assert!(
            m <= u32::MAX as usize,
            "row ids are u32 by the relation contract"
        );
        let take = spec.rows.min(m);
        let mut row_map: Vec<u32> = if take == m {
            (0..m as u32).collect()
        } else {
            match spec.strategy {
                SampleStrategy::Uniform => {
                    let mut rng = SplitMix64::new(spec.seed);
                    reservoir(&mut (0..m as u32), take, &mut rng)
                }
                SampleStrategy::Stratified(col) if col < parent.num_columns() => {
                    stratified(parent, col, take, spec.seed)
                }
                // Out-of-range stratification column: fall back to
                // uniform rather than panicking. The provenance still
                // records the requested strategy; a resume against a
                // different schema fails the manifest check it runs on
                // the parent.
                SampleStrategy::Stratified(_) => {
                    let mut rng = SplitMix64::new(spec.seed);
                    reservoir(&mut (0..m as u32), take, &mut rng)
                }
            }
        };
        row_map.sort_unstable();
        let relation = parent.select_rows(&row_map);
        let provenance = SampleProvenance {
            parent_rows: m,
            seed: spec.seed,
            strategy: spec.strategy,
            sample_manifest: manifest_hash(&relation),
            row_map,
        };
        Sample {
            relation,
            provenance,
        }
    }

    /// True when the sample contains every parent row — estimates on it
    /// are exact, and the pipeline degenerates to full-data discovery.
    pub fn is_exhaustive(&self) -> bool {
        self.provenance.row_map.len() == self.provenance.parent_rows
    }
}

/// Fully specified SplitMix64 (Steele et al.): the standard 64-bit
/// mix, stable across platforms and toolchains by construction. Dumps
/// record only the seed; this generator is part of the dump contract.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` by rejection (no modulo bias).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Algorithm R reservoir sample of `k` items from an iterator.
fn reservoir(items: &mut dyn Iterator<Item = u32>, k: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(k);
    for (i, item) in items.enumerate() {
        if out.len() < k {
            out.push(item);
        } else {
            // `below(i + 1)` is at most `i`, which may exceed usize on a
            // 32-bit host; saturate so the draw is skipped instead of the
            // index silently wrapping into the reservoir.
            let j = usize::try_from(rng.below(i as u64 + 1)).unwrap_or(usize::MAX);
            if let Some(slot) = out.get_mut(j) {
                *slot = item;
            }
        }
    }
    out
}

/// Proportional stratified sample over the rank classes of `col`:
/// largest-remainder quota per class (ties to the smaller rank), then a
/// per-class reservoir. Every non-empty class gets at least the floor of
/// its proportional share; remainders are spent on the classes with the
/// largest fractional part.
fn stratified(parent: &Relation, col: ColumnId, take: usize, seed: u64) -> Vec<u32> {
    let m = parent.num_rows();
    let codes = parent.codes(col);
    let classes = codes
        .iter()
        .copied()
        .max()
        .map_or(0, |c: u32| c as usize + 1);
    let mut counts = vec![0u64; classes];
    for &c in codes {
        if let Some(n) = counts.get_mut(c as usize) {
            *n += 1;
        }
    }
    // Allocation: one base row per non-empty class (coverage guarantee —
    // when `take` is smaller than the class count, the first `take`
    // classes in rank order get it), then the rest proportionally by
    // largest remainder.
    let mut quota = vec![0usize; classes];
    let mut spent = 0usize;
    for (class, &count) in counts.iter().enumerate() {
        if count > 0 && spent < take {
            if let Some(q) = quota.get_mut(class) {
                *q = 1;
                spent += 1;
            }
        }
    }
    let extra = take - spent;
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(classes);
    for (class, &count) in counts.iter().enumerate() {
        let exact_num = count * extra as u64;
        let floor = (exact_num / m as u64) as usize;
        if let Some(q) = quota.get_mut(class) {
            let add = floor.min((count as usize).saturating_sub(*q));
            *q += add;
            spent += add;
        }
        remainders.push((exact_num % m as u64, class));
    }
    // Spend the remainder on the largest fractional parts; ties go to
    // the smaller rank (deterministic).
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = take.saturating_sub(spent);
    for &(_, class) in remainders.iter().cycle().take(classes * 2) {
        if left == 0 {
            break;
        }
        let (Some(q), Some(&count)) = (quota.get_mut(class), counts.get(class)) else {
            continue;
        };
        if (*q as u64) < count {
            *q += 1;
            left -= 1;
        }
    }
    // One reservoir per class, single pass over the parent rows. Each
    // class gets its own generator stream (seed mixed with the rank) so
    // quota order cannot perturb the draws.
    let mut rngs: Vec<SplitMix64> = (0..classes)
        .map(|class| SplitMix64::new(seed ^ (class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let mut pools: Vec<Vec<u32>> = quota.iter().map(|&q| Vec::with_capacity(q)).collect();
    let mut seen = vec![0u64; classes];
    for (row, &code) in codes.iter().enumerate() {
        let class = code as usize;
        let (Some(pool), Some(rng), Some(n), Some(&q)) = (
            pools.get_mut(class),
            rngs.get_mut(class),
            seen.get_mut(class),
            quota.get(class),
        ) else {
            continue;
        };
        if pool.len() < q {
            // lint: allow(lossy-cast, row indexes the parent's code column and the parent holds at most u32::MAX rows)
            pool.push(row as u32);
        } else if q > 0 {
            // Same 32-bit saturation as `reservoir`: a draw past usize
            // skips the replacement rather than wrapping the index.
            let j = usize::try_from(rng.below(*n + 1)).unwrap_or(usize::MAX);
            if j < q {
                if let Some(slot) = pool.get_mut(j) {
                    // lint: allow(lossy-cast, row indexes the parent's code column and the parent holds at most u32::MAX rows)
                    *slot = row as u32;
                }
            }
        }
        *n += 1;
    }
    pools.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rel(cols: &[(&str, &[i64])]) -> Relation {
        Relation::from_columns(
            cols.iter()
                .map(|(n, vals)| (n.to_string(), vals.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap()
    }

    fn big(rows: usize) -> Relation {
        let a: Vec<i64> = (0..rows as i64).collect();
        let b: Vec<i64> = (0..rows as i64).map(|i| i % 7).collect();
        rel(&[("a", &a), ("b", &b)])
    }

    #[test]
    fn fixed_seed_draws_are_pinned() {
        // Golden draws guarding the index-arithmetic rewrite (ISSUE 10):
        // the reservoir/stratified replacement index now goes through
        // `usize::try_from(..).unwrap_or(usize::MAX)` instead of `as
        // usize`, which must not change any draw on a 64-bit host. A
        // same-seed-twice comparison cannot catch a behavioral change in
        // the rewrite itself; these literals can.
        let mut b: Vec<i64> = Vec::new();
        let a: Vec<i64> = (0..100).collect();
        for i in 0..100 {
            b.push(i % 3);
        }
        let r = rel(&[("a", &a), ("b", &b)]);
        let u = Sample::build(&r, &SampleSpec::uniform(12, 42));
        assert_eq!(
            u.provenance.row_map,
            vec![2, 18, 21, 31, 34, 35, 50, 60, 63, 83, 95, 98]
        );
        let s = Sample::build(
            &r,
            &SampleSpec {
                rows: 12,
                seed: 42,
                strategy: SampleStrategy::Stratified(1),
            },
        );
        assert_eq!(
            s.provenance.row_map,
            vec![10, 12, 17, 31, 42, 43, 51, 53, 59, 69, 70, 92]
        );
    }

    #[test]
    fn same_seed_same_sample() {
        let r = big(500);
        let spec = SampleSpec::uniform(50, 42);
        let s1 = Sample::build(&r, &spec);
        let s2 = Sample::build(&r, &spec);
        assert_eq!(s1.provenance, s2.provenance);
        assert_eq!(
            s1.provenance.sample_manifest,
            manifest_hash(&s2.relation),
            "identical draws materialize identical relations"
        );
    }

    #[test]
    fn different_seed_different_sample() {
        let r = big(500);
        let s1 = Sample::build(&r, &SampleSpec::uniform(50, 1));
        let s2 = Sample::build(&r, &SampleSpec::uniform(50, 2));
        assert_ne!(s1.provenance.row_map, s2.provenance.row_map);
        assert_ne!(s1.provenance.sample_manifest, s2.provenance.sample_manifest);
    }

    #[test]
    fn row_map_is_ascending_and_in_range() {
        let r = big(300);
        let s = Sample::build(&r, &SampleSpec::uniform(64, 9));
        assert_eq!(s.relation.num_rows(), 64);
        assert_eq!(s.provenance.row_map.len(), 64);
        assert!(s.provenance.row_map.windows(2).all(|w| w[0] < w[1]));
        assert!(s.provenance.row_map.iter().all(|&p| (p as usize) < 300));
    }

    #[test]
    fn oversized_request_is_the_identity_sample() {
        let r = big(40);
        for spec in [
            SampleSpec::uniform(40, 3),
            SampleSpec::uniform(1000, 3),
            SampleSpec {
                rows: 1000,
                seed: 3,
                strategy: SampleStrategy::Stratified(1),
            },
        ] {
            let s = Sample::build(&r, &spec);
            assert!(s.is_exhaustive());
            assert_eq!(s.provenance.row_map, (0..40).collect::<Vec<u32>>());
            assert_eq!(
                s.provenance.sample_manifest,
                manifest_hash(&r),
                "identity sample re-encodes to the same ranks"
            );
        }
    }

    #[test]
    fn sample_values_match_parent_rows() {
        let r = big(200);
        let s = Sample::build(&r, &SampleSpec::uniform(30, 7));
        for (srow, &prow) in s.provenance.row_map.iter().enumerate() {
            for col in 0..r.num_columns() {
                assert_eq!(s.relation.value(srow, col), r.value(prow as usize, col));
            }
        }
    }

    #[test]
    fn stratified_covers_every_class() {
        // Heavily skewed column: 190 rows of class 0, 10 spread over 5
        // rare classes. A 20-row uniform sample can miss rare classes;
        // the stratified one must hit each (every class's proportional
        // share rounds up to ≥ 1 via the remainder pass).
        let mut b: Vec<i64> = vec![0; 190];
        for i in 0..10 {
            b.push(1 + (i % 5));
        }
        let a: Vec<i64> = (0..200).collect();
        let r = rel(&[("a", &a), ("strat", &b)]);
        let s = Sample::build(
            &r,
            &SampleSpec {
                rows: 20,
                seed: 5,
                strategy: SampleStrategy::Stratified(1),
            },
        );
        assert_eq!(s.relation.num_rows(), 20);
        let mut seen = [false; 6];
        for &row in &s.provenance.row_map {
            seen[b[row as usize] as usize] = true;
        }
        assert!(seen.iter().all(|&v| v), "classes covered: {seen:?}");
    }

    #[test]
    fn stratified_is_deterministic_too() {
        let r = big(400);
        let spec = SampleSpec {
            rows: 60,
            seed: 11,
            strategy: SampleStrategy::Stratified(1),
        };
        assert_eq!(
            Sample::build(&r, &spec).provenance,
            Sample::build(&r, &spec).provenance
        );
    }

    #[test]
    fn reservoir_is_exact_for_small_populations() {
        let mut rng = SplitMix64::new(1);
        let out = reservoir(&mut (0..5u32), 10, &mut rng);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn splitmix_is_pinned() {
        // The generator is part of the dump contract: pin its first
        // outputs so an accidental algorithm change cannot slip through.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(SampleStrategy::Uniform.label(), "uniform");
        assert_eq!(SampleStrategy::Stratified(3).label(), "stratified");
        assert_eq!(SampleStrategy::Stratified(3).column(), Some(3));
        assert_eq!(SampleStrategy::Uniform.column(), None);
    }

    #[test]
    fn empty_parent_yields_empty_sample() {
        let r = rel(&[("a", &[]), ("b", &[])]);
        let s = Sample::build(&r, &SampleSpec::uniform(10, 1));
        assert_eq!(s.relation.num_rows(), 0);
        assert!(s.is_exhaustive());
    }
}
