//! Incremental discovery over a growing table — the paper's §7 future-work
//! scenario ("dynamic inputs, where additional rows … may be added at
//! runtime").
//!
//! Order dependencies are anti-monotone under row insertion: new rows can
//! break dependencies but never create them, so an append only needs to
//! re-validate what currently holds (plus resume the search below any OD
//! whose Theorem 3.9 pruning no longer applies). A constant that gains a
//! second value or an equivalence class that splits re-runs discovery.
//!
//! ```text
//! cargo run --example incremental
//! ```

use ocddiscover::core::incremental::IncrementalDiscovery;
use ocddiscover::{DiscoveryConfig, Relation, Value};

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

fn print_state(label: &str, inc: &IncrementalDiscovery) {
    let rel = inc.relation();
    let result = inc.result();
    println!("\n== {label} ({} rows) ==", rel.num_rows());
    for &c in &result.constants {
        println!("  constant: {}", rel.meta(c).name);
    }
    for class in &result.equivalence_classes {
        let names: Vec<&str> = class.iter().map(|&c| rel.meta(c).name.as_str()).collect();
        println!("  equivalent: {}", names.join(" <-> "));
    }
    for ocd in &result.ocds {
        println!("  ocd: {}", ocd.display(rel));
    }
    for od in &result.ods {
        println!("  od:  {}", od.display(rel));
    }
}

fn main() {
    // A sensor feed: timestamp, a cumulative counter, a status flag that
    // starts out constant, and a clock reading that tracks the timestamp.
    let initial = Relation::from_columns(vec![
        ("ts".into(), ints(&[100, 101, 102, 103])),
        ("counter".into(), ints(&[5, 9, 9, 14])),
        ("status".into(), ints(&[0, 0, 0, 0])),
        ("clock".into(), ints(&[200, 202, 204, 206])),
    ])
    .unwrap();

    let mut inc = IncrementalDiscovery::new(&initial, DiscoveryConfig::default());
    print_state("initial discovery", &inc);

    // Batch 1: consistent rows — nothing changes.
    let delta = inc
        .append_rows(vec![ints(&[104, 14, 0, 208]), ints(&[105, 20, 0, 210])])
        .unwrap();
    println!("\nbatch 1 (consistent): delta empty = {}", delta.is_empty());
    print_state("after batch 1", &inc);

    // Batch 2: the counter resets — ts -> counter breaks.
    let delta = inc.append_rows(vec![ints(&[106, 0, 0, 212])]).unwrap();
    println!("\nbatch 2 (counter reset):");
    for od in &delta.invalidated_ods {
        println!("  invalidated od:  {}", od.display(inc.relation()));
    }
    for ocd in &delta.invalidated_ocds {
        println!("  invalidated ocd: {}", ocd.display(inc.relation()));
    }
    print_state("after batch 2", &inc);

    // Batch 3: the status flag flips — a constant demotes, forcing a full
    // re-discovery over the enlarged attribute universe.
    let delta = inc.append_rows(vec![ints(&[107, 3, 1, 214])]).unwrap();
    println!(
        "\nbatch 3 (status flips): demoted constants {:?}, full rerun = {}",
        delta.demoted_constants, delta.full_rerun
    );
    print_state("after batch 3", &inc);

    // Batch 4: the clock stalls while ts moves on — ts and clock are no
    // longer order equivalent, so the class splits and discovery re-runs.
    let delta = inc.append_rows(vec![ints(&[108, 3, 1, 214])]).unwrap();
    println!(
        "\nbatch 4 (clock stalls): split classes {:?}, full rerun = {}",
        delta.split_classes, delta.full_rerun
    );
    print_state("after batch 4", &inc);
}
