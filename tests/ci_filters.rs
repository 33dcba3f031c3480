//! Every test the CI workflow names must exist.
//!
//! `cargo test -- <filter>` exits 0 when the filter matches nothing, so a
//! renamed or moved test silently turns its named CI step — and its line in
//! the workflow's guard comment block — into a no-op. This reads
//! `.github/workflows/ci.yml`, collects every test name passed after `--`
//! and every `module::name` path in a comment, and checks each is a `fn`
//! somewhere in the tree (for a path: in a file named after its module).

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under the workspace's source and test directories.
fn rust_sources() -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
        for entry in fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = fs::read_to_string(&path).expect("UTF-8 source file");
                out.push((path, text));
            }
        }
    }
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests"] {
        walk(&repo_root().join(dir), &mut out);
    }
    out
}

/// The workflow with shell line continuations joined, one command a line.
fn workflow_lines() -> Vec<String> {
    let text = fs::read_to_string(repo_root().join(".github/workflows/ci.yml"))
        .expect("the CI workflow is checked in");
    let mut lines = Vec::new();
    let mut pending = String::new();
    for line in text.lines() {
        match line.trim_end().strip_suffix('\\') {
            Some(head) => pending.push_str(head),
            None => lines.push(std::mem::take(&mut pending) + line),
        }
    }
    lines
}

/// Test-name filters: the non-flag words after ` -- ` of a `cargo test`.
fn filters_after_double_dash(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|line| line.contains("cargo test"))
        .filter_map(|line| line.split_once(" -- "))
        .flat_map(|(_, filters)| filters.split_whitespace())
        .filter(|word| !word.starts_with('-'))
        .map(str::to_string)
        .collect()
}

/// `module::…::name` paths mentioned in the workflow's comments.
fn paths_in_comments(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|line| line.trim_start().strip_prefix('#'))
        .flat_map(|comment| comment.split(|c: char| c.is_whitespace() || c == ','))
        .filter(|word| word.contains("::"))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_test_the_workflow_names_exists() {
    let sources = rust_sources();
    let lines = workflow_lines();
    let filters = filters_after_double_dash(&lines);
    let paths = paths_in_comments(&lines);
    // The extraction itself must keep finding what the workflow holds today.
    assert!(filters.len() >= 10, "filters found: {filters:?}");
    assert!(paths.len() >= 5, "guard paths found: {paths:?}");

    let mut dangling = Vec::new();
    for name in filters.iter().chain(&paths) {
        let (module, function) = match name.split_once("::") {
            Some((module, rest)) => (Some(module), rest.rsplit("::").next().unwrap_or(rest)),
            None => (None, name.as_str()),
        };
        let definition = format!("fn {function}(");
        let defined = sources.iter().any(|(path, text)| {
            module.is_none_or(|module| path.file_stem().is_some_and(|stem| stem == module))
                && text.contains(&definition)
        });
        if !defined {
            dangling.push(name.as_str());
        }
    }
    assert!(
        dangling.is_empty(),
        "ci.yml names tests that do not exist: {dangling:?}"
    );
}
