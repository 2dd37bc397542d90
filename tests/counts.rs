//! The table of exact counts, `tests/golden/counts.tsv`, checked whole:
//! every scenario of `tests/table` measured in this build, compared with
//! the file byte for byte.

mod table;

#[test]
fn exact_counts_match_the_golden_table() {
    table::check(None);
}
