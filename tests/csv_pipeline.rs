//! CSV round-trip through the full pipeline: generated relation → CSV text
//! → parsed relation → identical discovery results.

use ocddiscover::datasets::{Dataset, RowScale};
use ocddiscover::relation::write_csv;
use ocddiscover::{discover, read_csv_str, CsvOptions, DiscoveryConfig};

#[test]
fn generated_dataset_round_trips_through_csv() {
    for &ds in &[Dataset::Yes, Dataset::Numbers, Dataset::Hepatitis] {
        let rel = ds.generate(RowScale::Rows(120));
        let text = write_csv(&rel);
        let parsed = read_csv_str(&text, &CsvOptions::default()).expect("CSV parses back");
        assert_eq!(parsed.num_rows(), rel.num_rows(), "{}", ds.name());
        assert_eq!(parsed.num_columns(), rel.num_columns());

        let before = discover(&rel, &DiscoveryConfig::default());
        let after = discover(&parsed, &DiscoveryConfig::default());
        assert_eq!(
            before.ocds,
            after.ocds,
            "{}: OCDs change after round trip",
            ds.name()
        );
        assert_eq!(before.ods, after.ods, "{}", ds.name());
        assert_eq!(before.constants, after.constants);
        assert_eq!(before.equivalence_classes, after.equivalence_classes);
    }
}

#[test]
fn csv_with_nulls_round_trips_semantics() {
    // NULLs (written as empty fields) must keep NULL-first, NULL=NULL
    // semantics after parsing.
    let text = "a,b\n,1\n,2\n5,3\n9,4\n";
    let rel = read_csv_str(text, &CsvOptions::default()).unwrap();
    assert!(rel.meta(0).has_nulls);
    let result = discover(&rel, &DiscoveryConfig::default());
    // a (NULL,NULL,5,9) and b (1,2,3,4): sorting by a groups the NULLs
    // first; b splits within the NULL tie, so no OD a -> b, but the
    // OCD a ~ b holds (no swap).
    assert!(result.ocds.iter().any(|o| o.display(&rel) == "[a] ~ [b]"));
    assert!(!result.ods.iter().any(|o| o.display(&rel) == "[a] -> [b]"));
    // b -> a holds: b is a key and a is non-decreasing along b.
    assert!(result.ods.iter().any(|o| o.display(&rel) == "[b] -> [a]"));
}

#[test]
// A throwaway input in the temp dir needs no atomic write.
#[allow(clippy::disallowed_methods)]
fn profile_arbitrary_csv_from_disk() {
    let dir = std::env::temp_dir().join("ocdd_csv_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.csv");
    std::fs::write(&path, "x,y,z\n1,10,a\n2,20,a\n3,30,b\n").unwrap();
    let rel = ocddiscover::read_csv_path(&path, &CsvOptions::default()).unwrap();
    let result = discover(&rel, &DiscoveryConfig::default());
    // x <-> y (both strictly increasing).
    assert_eq!(result.equivalence_classes, vec![vec![0, 1]]);
    std::fs::remove_file(path).ok();
}
