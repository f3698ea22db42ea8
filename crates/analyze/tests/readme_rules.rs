//! The README's rule table lists exactly the rules in `RULES`, in order,
//! so the table cannot drift from the analyzer it documents.

use hbc_analyze::{workspace, RULES};
use std::path::Path;

#[test]
fn readme_rule_table_matches_the_rules_table() {
    let root = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is checked in");
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| Rule |"))
        .skip(2) // the header and its `|---|` separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_start_matches("| `").split('`').next().unwrap_or_default())
        .collect();
    let rules: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(table, rules, "README rule table differs from hbc_analyze::RULES");
}
