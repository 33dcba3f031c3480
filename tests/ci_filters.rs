//! Every test the CI workflow and the documents name must exist.
//!
//! `cargo test -- <filter>` exits 0 when the filter matches nothing, so a
//! renamed or moved test silently turns every command that names it into a
//! no-op. Two checks hold the names:
//!
//! * `.github/workflows/ci.yml`: every test name passed after `--` and
//!   every `module::name` path in a comment is a `fn` somewhere in the tree
//!   (for a path: in a file named after its module).
//! * Every `cargo test` command in the workflow, `README.md` and
//!   `.claude/skills/verify/SKILL.md`: each filter, before or after `--`,
//!   is a substring of the path of some test in the targets the command
//!   selects, module path included — cargo's own rule, so `--test
//!   properties reassembly` matches `reassembly_properties::…` — and each
//!   `--test X` names an integration-test file of a selected package.
//!
//! The two documents are held to two more things: every backticked
//! repo-relative path exists, and the README's crate map names every
//! directory under `crates/`.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose commands and paths are checked, repo-relative.
const DOCUMENTS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                out.extend(rust_files(&path));
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out
}

/// Every `.rs` file under the workspace's source and test directories.
fn rust_sources() -> Vec<(PathBuf, String)> {
    ["crates", "src", "tests"]
        .iter()
        .flat_map(|dir| rust_files(&repo_root().join(dir)))
        .map(|path| {
            let text = read(&path);
            (path, text)
        })
        .collect()
}

/// The workflow with shell line continuations joined, one command a line.
fn workflow_lines() -> Vec<String> {
    let text = read(&repo_root().join(".github/workflows/ci.yml"));
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

// ---------------------------------------------------------------------------
// Test paths, per target.

/// One test target: `test` is the integration-test name, `None` for the
/// package's `src/` (library and binaries).
struct Target {
    package: String,
    test: Option<String>,
    /// Every test's path within the target, as `cargo test` matches it.
    paths: Vec<String>,
}

/// The names of the `#[test]` functions in `text`, each with the inline
/// modules it sits in (`a::b::name`). The tree is rustfmt-formatted, so an
/// inline `mod x {` closes at the first `}` of its own indentation.
fn tests_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut modules: Vec<(usize, String)> = Vec::new();
    let mut marked = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if trimmed == "}" && modules.last().is_some_and(|(at, _)| *at == indent) {
            modules.pop();
            continue;
        }
        let item = ["pub(crate) ", "pub "]
            .iter()
            .find_map(|vis| trimmed.strip_prefix(vis))
            .unwrap_or(trimmed);
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(" {")) {
            modules.push((indent, name.to_string()));
        } else if trimmed == "#[test]" {
            marked = true;
        } else if marked && !trimmed.starts_with("#[") {
            marked = false;
            if let Some(rest) = item.strip_prefix("fn ") {
                let name: String = rest
                    .chars()
                    .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                    .collect();
                let mut path: Vec<&str> = modules.iter().map(|(_, m)| m.as_str()).collect();
                path.push(&name);
                out.push(path.join("::"));
            }
        }
    }
    out
}

/// The module path of a file under a package's `src/`: `a/b.rs` and
/// `a/b/mod.rs` are `a::b`; the crate root and each binary are empty.
fn module_of(relative: &Path) -> Vec<String> {
    let mut parts: Vec<String> = relative
        .with_extension("")
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if parts.first().is_some_and(|first| first == "bin") {
        return Vec::new();
    }
    if parts
        .last()
        .is_some_and(|last| ["lib", "main", "mod"].contains(&last.as_str()))
    {
        parts.pop();
    }
    parts
}

/// The name of a manifest's `[package]`.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let (_, package) = text.split_once("[package]")?;
    let line = package.lines().find(|l| l.starts_with("name = "))?;
    let name = line.trim_start_matches("name = ").trim_matches('"');
    Some(name.to_string())
}

/// Every test target of the root package, the `crates/*` packages and the
/// benchmark package.
fn targets(root: &Path) -> Vec<Target> {
    let mut dirs = vec![root.to_path_buf(), root.join("perfbench")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(entry.expect("directory entry").path());
    }
    let mut out = Vec::new();
    for dir in dirs {
        let Some(package) = package_name(&dir.join("Cargo.toml")) else {
            continue;
        };
        let mut src = Vec::new();
        for file in rust_files(&dir.join("src")) {
            let module = module_of(file.strip_prefix(dir.join("src")).expect("under src/"));
            for test in tests_in(&read(&file)) {
                let mut path = module.clone();
                path.push(test);
                src.push(path.join("::"));
            }
        }
        out.push(Target {
            package: package.clone(),
            test: None,
            paths: src,
        });
        let Ok(entries) = fs::read_dir(dir.join("tests")) else {
            continue;
        };
        for entry in entries {
            let file = entry.expect("directory entry").path();
            if file.extension().is_some_and(|ext| ext == "rs") {
                out.push(Target {
                    package: package.clone(),
                    test: file.file_stem().map(|s| s.to_string_lossy().into_owned()),
                    paths: tests_in(&read(&file)),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `cargo test` commands.

/// What one `cargo test` command selects, and the filters it passes.
#[derive(Debug, Default, PartialEq)]
struct Command {
    packages: Vec<String>,
    manifest: Option<String>,
    lib: bool,
    doc: bool,
    tests: Vec<String>,
    filters: Vec<String>,
}

/// Parses the words after `cargo test` (redirections skipped).
fn parse(args: &str) -> Command {
    let mut command = Command::default();
    let mut words = args
        .split_whitespace()
        .filter(|word| !word.contains('>') && !word.contains('<'));
    let mut after_dashes = false;
    while let Some(word) = words.next() {
        let mut value = || words.next().unwrap_or_default().to_string();
        match (after_dashes, word) {
            (false, "--") => after_dashes = true,
            (false, "-p" | "--package") => command.packages.push(value()),
            (false, "--test") => command.tests.push(value()),
            (false, "--manifest-path") => command.manifest = Some(value()),
            (false, "--lib") => command.lib = true,
            (false, "--doc") => command.doc = true,
            (false, "--bin" | "--example" | "--features" | "-j" | "--target-dir") => {
                value();
            }
            (true, "--test-threads" | "--skip") => {
                value();
            }
            (_, flag) if flag.starts_with('-') => {}
            (_, filter) => command.filters.push(filter.to_string()),
        }
    }
    command
}

/// The argument strings of the `cargo test` invocations in one shell line.
fn invocations(line: &str) -> Vec<String> {
    line.split(['|', ';', '&', '(', ')'])
        .filter_map(|segment| segment.split_once("cargo test"))
        .map(|(_, args)| args.to_string())
        .collect()
}

/// A markdown document split into fenced shell lines (continuations joined,
/// `#` comments dropped) and the inline code spans of its prose.
fn markdown(text: &str) -> (Vec<String>, Vec<String>) {
    fn flush(paragraph: &mut String, spans: &mut Vec<String>) {
        let text = std::mem::take(paragraph);
        spans.extend(text.split('`').skip(1).step_by(2).map(str::to_string));
    }
    let (mut shell, mut spans) = (Vec::new(), Vec::new());
    let (mut fenced, mut pending, mut paragraph) = (false, String::new(), String::new());
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            flush(&mut paragraph, &mut spans);
        } else if fenced {
            let code = match line.trim_start().starts_with('#') {
                true => "",
                false => line.split(" #").next().unwrap_or(line),
            };
            match code.trim_end().strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => shell.push(std::mem::take(&mut pending) + code),
            }
        } else if line.trim().is_empty() {
            flush(&mut paragraph, &mut spans);
        } else {
            paragraph.push_str(line);
            paragraph.push(' ');
        }
    }
    flush(&mut paragraph, &mut spans);
    (shell, spans)
}

/// Every `cargo test` command of `source`, parsed.
fn commands_in(source: &str) -> Vec<Command> {
    let lines: Vec<String> = if source.ends_with(".md") {
        let (shell, spans) = markdown(&read(&repo_root().join(source)));
        shell.into_iter().chain(spans).collect()
    } else {
        let workflow = workflow_lines().into_iter();
        workflow
            .filter(|line| !line.trim_start().starts_with('#'))
            .collect()
    };
    let invocations = lines.iter().flat_map(|line| invocations(line));
    invocations.map(|args| parse(&args)).collect()
}

/// Why `command` runs no test it names, if it does not: a `--test` target
/// that does not exist, or a filter no selected test path contains.
fn dangling(command: &Command, targets: &[Target]) -> Vec<String> {
    let in_workspace = |t: &&Target| t.package != "quicert-perfbench";
    let selected_package = |t: &&Target| match (&command.packages[..], &command.manifest) {
        ([], None) => in_workspace(t),
        ([], Some(_)) => !in_workspace(t),
        (packages, _) => packages.contains(&t.package),
    };
    let packages: Vec<&Target> = targets.iter().filter(selected_package).collect();
    let mut out = Vec::new();
    for test in &command.tests {
        if !packages.iter().any(|t| t.test.as_ref() == Some(test)) {
            out.push(format!("--test {test}: no such integration test"));
        }
    }
    let whole = !command.lib && !command.doc && command.tests.is_empty();
    let selected = packages.iter().filter(|t| match &t.test {
        None => whole || command.lib,
        Some(test) => whole || command.tests.contains(test),
    });
    let paths: Vec<&String> = selected.flat_map(|t| &t.paths).collect();
    for filter in &command.filters {
        if !paths.iter().any(|path| path.contains(filter.as_str())) {
            out.push(format!("filter `{filter}` matches no test"));
        }
    }
    out
}

#[test]
fn every_cargo_test_command_names_tests_that_exist() {
    let targets = targets(&repo_root());
    let mut problems = Vec::new();
    for source in [".github/workflows/ci.yml", DOCUMENTS[0], DOCUMENTS[1]] {
        let commands = commands_in(source);
        // The extraction itself must keep finding what each file holds.
        assert!(
            commands.len() >= 5,
            "{source}: commands found: {commands:?}"
        );
        for command in &commands {
            for problem in dangling(command, &targets) {
                problems.push(format!("{source}: {problem} ({command:?})"));
            }
        }
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn the_command_parser_follows_cargo() {
    let command = parse(" -q --release -p quicert-core --lib reads -- --nocapture 2>/dev/null");
    let packages = vec!["quicert-core".to_string()];
    let filters = vec!["reads".to_string()];
    let want = Command {
        packages,
        lib: true,
        filters,
        ..Command::default()
    };
    assert_eq!(command, want);
    let line = "QUICERT_BLESS=1 cargo test --test a && cargo test -q --test b -- x y";
    let parsed: Vec<Command> = invocations(line).iter().map(|a| parse(a)).collect();
    assert_eq!(parsed[0].tests, ["a"]);
    assert_eq!(parsed[1].tests, ["b"]);
    assert_eq!(parsed[1].filters, ["x", "y"]);

    // A filter matches a test path by substring, module path included.
    let source = [
        "mod reassembly_properties {",
        "    proptest! {",
        "        #[test]",
        "        fn crypto_stream_matches(",
        "    }",
        "}",
        "#[test]",
        "#[should_panic]",
        "fn top() {}",
    ]
    .join("\n");
    let paths = tests_in(&source);
    assert_eq!(
        paths,
        ["reassembly_properties::crypto_stream_matches", "top"]
    );
    let targets = [Target {
        package: "quicert".to_string(),
        test: Some("properties".to_string()),
        paths,
    }];
    assert!(dangling(&parse("--test properties reassembly"), &targets).is_empty());
    assert_eq!(
        dangling(&parse("--test propertie -- nothing_by_that_name"), &targets),
        [
            "--test propertie: no such integration test",
            "filter `nothing_by_that_name` matches no test"
        ]
    );
}

// ---------------------------------------------------------------------------
// Paths and the crate map.

/// Whether a code span names a repo-relative path: a word with a `/` whose
/// first component is a top-level entry of the tree (build output aside)
/// or whose last has a file extension.
fn is_repo_path(span: &str, root: &Path) -> bool {
    let pathlike = span.contains('/')
        && !span.starts_with('/')
        && !span.starts_with("..")
        && span
            .chars()
            .all(|ch| ch.is_alphanumeric() || "_-./*".contains(ch));
    let first = span.split('/').next().unwrap_or_default();
    let last = span.rsplit('/').next().unwrap_or_default();
    pathlike
        && ((first != "target" && root.join(first).exists())
            || last.rsplit_once('.').is_some_and(|(stem, ext)| {
                !stem.is_empty() && ext.len() <= 4 && ext.chars().all(|c| c.is_alphabetic())
            }))
}

/// Whether `path` exists under `root`; one `*` in the last component
/// matches any run of characters.
fn exists(root: &Path, path: &str) -> bool {
    let path = path.trim_end_matches('/');
    let Some((dir, pattern)) = path.rsplit_once('/').filter(|_| path.contains('*')) else {
        return root.join(path).exists();
    };
    let Some((head, tail)) = pattern.split_once('*') else {
        return false;
    };
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return false;
    };
    entries.flatten().any(|entry| {
        let name = entry.file_name().to_string_lossy().into_owned();
        name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
    })
}

#[test]
fn every_path_the_documents_name_exists() {
    let root = repo_root();
    let mut missing = Vec::new();
    for document in DOCUMENTS {
        let (_, spans) = markdown(&read(&root.join(document)));
        let paths: Vec<&String> = spans.iter().filter(|s| is_repo_path(s, &root)).collect();
        assert!(paths.len() >= 5, "{document}: paths found: {paths:?}");
        missing.extend(
            paths
                .into_iter()
                .filter(|path| !exists(&root, path))
                .map(|path| format!("{document}: {path}")),
        );
    }
    assert!(missing.is_empty(), "named but absent: {missing:#?}");
    assert!(is_repo_path("crates/scaner/src/scenario.rs", &root));
    assert!(is_repo_path("crate/scanner/src/scenario.rs", &root));
    assert!(!is_repo_path("events/s", &root) && !is_repo_path("/dev/null", &root));
    assert!(exists(&root, "examples/*.rs") && !exists(&root, "examples/*.toml"));
}

#[test]
fn the_crate_map_names_every_crate() {
    let root = repo_root();
    let readme = read(&root.join("README.md"));
    let (_, map) = readme
        .split_once("## Crate map")
        .expect("README has a crate map");
    let map = map.split("\n## ").next().unwrap_or(map);
    let mut unnamed = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("a name").to_string_lossy();
        if path.is_dir() && !map.contains(&format!("`crates/{name}`")) {
            unnamed.push(name.into_owned());
        }
    }
    assert!(unnamed.is_empty(), "README crate map misses: {unnamed:?}");
}
