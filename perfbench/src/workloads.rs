//! The four seeded workloads. Generation and CSV serialisation happen
//! here, outside every timed region: the engine only ever receives CSV
//! bytes (plus, for `append_stream`, the row batches it appends).

use ocdd_bench::approx_triage;
use ocdd_datasets::registry::{Dataset, RowScale};
use ocdd_datasets::tpch;
use ocdd_relation::{write_csv, Relation, Value};

/// Rows of the DBTESMA stand-in behind `dense_search` and `append_stream`.
const DBTESMA_ROWS: usize = 4_000;
/// Rows of the LINEITEM stand-in behind `tall_ingest`.
const LINEITEM_ROWS: usize = 60_000;
/// Rows of the triage relation behind `approx_sample`.
pub const APPROX_ROWS: usize = 200_000;
/// Data seeds of the triage relation behind `approx_sample`; the workload
/// seed picks one. They are the seeds its pinned answer was confirmed on,
/// and on each the same 5 candidates escalate to full-data checks. Other
/// seeds (and row permutations of these) move near-miss estimates across
/// the triage boundary, so 2 or 5 escalate and discovery time changes by
/// 1.2x with the input rather than with the code.
const APPROX_DATA_SEEDS: [u64; 4] = [1, 2, 3, 7];
/// Sample size of `approx_sample` (the shipped 50k-row setting).
pub const APPROX_SAMPLE: usize = 50_000;
/// Number of batches `append_stream` appends after its first half.
const APPEND_BATCHES: usize = 20;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many levels of candidate checks over a dependency-rich table.
    DenseSearch,
    /// A tall table where CSV ingest and the pairwise reduction dominate.
    TallIngest,
    /// Sample-first approximate discovery over a large relation.
    ApproxSample,
    /// Initial discovery on half the rows, then appends in batches.
    AppendStream,
}

/// The generated inputs of one workload at one seed.
pub struct Input {
    /// CSV bytes the pipeline parses.
    pub csv: String,
    /// Row batches appended after the CSV's rows (`append_stream` only).
    pub batches: Vec<Vec<Vec<Value>>>,
    /// Total rows, batches included.
    pub rows: usize,
    /// Columns.
    pub columns: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DenseSearch,
        Workload::TallIngest,
        Workload::ApproxSample,
        Workload::AppendStream,
    ];

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSearch => "dense_search",
            Workload::TallIngest => "tall_ingest",
            Workload::ApproxSample => "approx_sample",
            Workload::AppendStream => "append_stream",
        }
    }

    /// Why the workload is in the benchmark (one line, as in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DenseSearch => {
                "DBTESMA stand-in, 4k x 30: 11,006 checks over four search levels, so search, sort/scan kernels, cache and scheduler dominate"
            }
            Workload::TallIngest => {
                "LINEITEM stand-in, 60k x 16: only 376 checks, so CSV parse, rank encoding and the pairwise reduction dominate"
            }
            Workload::ApproxSample => {
                "200k-row triage relation, seeded row order, eps 0.01, 50k sample: sample build, Hoeffding triage and 5 full-data escalations, no exact search"
            }
            Workload::AppendStream => {
                "DBTESMA stand-in: discovery on 2k rows, then 20 appended batches that re-encode and re-validate held dependencies (write path)"
            }
        }
    }

    /// Generate the workload's inputs from `seed`.
    pub fn generate(self, seed: u64) -> Input {
        match self {
            Workload::DenseSearch => whole(&dbtesma(seed)),
            Workload::TallIngest => whole(&tpch::lineitem(LINEITEM_ROWS, seed)),
            Workload::ApproxSample => {
                let data_seed = APPROX_DATA_SEEDS[(seed % APPROX_DATA_SEEDS.len() as u64) as usize];
                whole(&approx_triage::workload_relation(APPROX_ROWS, data_seed))
            }
            Workload::AppendStream => {
                let rel = dbtesma(seed);
                let rows = rel.num_rows();
                let half = rows / 2;
                let head: Vec<u32> = (0..half as u32).collect();
                let batch_rows = (rows - half).div_ceil(APPEND_BATCHES);
                let batches = (half..rows)
                    .step_by(batch_rows)
                    .map(|start| {
                        (start..(start + batch_rows).min(rows))
                            .map(|r| {
                                (0..rel.num_columns())
                                    .map(|c| rel.value(r, c).clone())
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                Input {
                    csv: write_csv(&rel.select_rows(&head)),
                    batches,
                    rows,
                    columns: rel.num_columns(),
                }
            }
        }
    }
}

fn whole(rel: &Relation) -> Input {
    Input {
        csv: write_csv(rel),
        batches: Vec::new(),
        rows: rel.num_rows(),
        columns: rel.num_columns(),
    }
}

/// The registry's DBTESMA stand-in under a seeded row permutation: the
/// registry generator has a fixed seed, and row order is what a seed can
/// vary without changing the dependencies the table plants.
fn dbtesma(seed: u64) -> Relation {
    let rel = Dataset::Dbtesma.generate(RowScale::Rows(DBTESMA_ROWS));
    let mut order: Vec<u32> = (0..rel.num_rows() as u32).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    rel.select_rows(&order)
}

/// SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
