//! The size ledger: a ratchet on how much code each crate carries, and on
//! how long the two documents that describe it may grow.
//!
//! For every crate under `crates/` (and the root `quicert` package) this
//! counts, over the non-test part of each source file — the lines above the
//! file's first `#[cfg(test)]` at column 0, comment lines skipped for every
//! column but the first:
//!
//! * `lines`: non-test lines, comments and blanks included;
//! * `pub`: `pub` items (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//!   `static`, `mod`, `use`) — fields and `pub(crate)` are not counted;
//! * `hidden`: `#[doc(hidden)]` attributes;
//! * `global`: `MetricsRegistry::global()` calls;
//! * `unwrap`: `unwrap(` and `expect(` sites;
//! * `allow`: `#[allow(` / `#![allow(` attributes;
//! * `xpub`: `pub` items (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//!   `static`) whose name is no identifier outside the crate's own `src/` —
//!   in another crate's `src/` or `tests/`, the root `src/` or `tests/`,
//!   `examples/` or `perfbench/src`: candidates for `pub(crate)`;
//! * `fields`: `pub` named struct fields, one a line (`pub name: Type`) —
//!   `pub(crate)` fields are not counted.
//!
//! Each of [`DOCUMENTS`] is a row of its own with one column, `lines`: the
//! README and the verify skill point into module docs rather than restate
//! them, and a ratchet keeps restated prose from regrowing unseen.
//!
//! All of it is compared with `tests/golden/size_ledger.txt`. Any count
//! above the ledger fails; re-bless in the same change to put the growth
//! in review:
//!
//! ```sh
//! QUICERT_BLESS=1 cargo test --test size_ledger
//! ```
//!
//! The ledger also lists **orphans**: `pub fn`s that no non-test code names
//! but their own definition — wherever else the name appears is test code
//! (a `tests/` directory or below a `#[cfg(test)]`), if anywhere. That is
//! the next deletion's target list. Their count is ratcheted like a
//! column; the list itself is for reading.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The ledger's columns, in file order.
const COLUMNS: [&str; 8] = [
    "lines", "pub", "hidden", "global", "unwrap", "allow", "xpub", "fields",
];

/// The documents ratcheted by their line count, repo-relative.
const DOCUMENTS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

/// Item keywords a counted `pub` line declares; `xpub` counts all but the
/// last two (`mod`, `use`).
const ITEMS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// One source file: its non-test code and every line.
struct Source {
    path: PathBuf,
    /// The lines above the file's first column-0 `#[cfg(test)]`; none for
    /// a file under a `tests/` directory, which is test code throughout.
    code: Vec<String>,
    /// The whole file, test code included.
    text: Vec<String>,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn load(path: PathBuf) -> Source {
    let text: Vec<String> = fs::read_to_string(&path)
        .expect("UTF-8 source file")
        .lines()
        .map(str::to_string)
        .collect();
    let code = match path.components().any(|c| c.as_os_str() == "tests") {
        true => Vec::new(),
        false => text
            .iter()
            .take_while(|line| !line.starts_with("#[cfg(test)]"))
            .cloned()
            .collect(),
    };
    Source { path, code, text }
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The name a `pub fn/struct/enum/trait/type/const/static` line declares.
fn pub_item_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let rest = ["const fn ", "unsafe fn "]
        .iter()
        .find_map(|prefix| rest.strip_prefix(prefix))
        .or_else(|| {
            let (keyword, rest) = rest.split_once(' ')?;
            ITEMS[..7].contains(&keyword).then_some(rest)
        })?;
    let end = rest
        .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// A crate's counts, in [`COLUMNS`] order; `outside` holds the identifiers
/// named outside the crate's own `src/`.
fn counts(files: &[&Source], outside: &HashSet<&str>) -> [usize; 8] {
    let mut c = [0usize; 8];
    for line in files.iter().flat_map(|f| &f.code) {
        c[0] += 1;
        if is_comment(line) {
            continue;
        }
        let trimmed = line.trim_start();
        let mut words = trimmed.split_whitespace();
        if words.next() == Some("pub") && words.next().is_some_and(|w| ITEMS.contains(&w)) {
            c[1] += 1;
        }
        if pub_item_name(trimmed).is_some_and(|name| !outside.contains(name)) {
            c[6] += 1;
        }
        c[2] += line.matches("#[doc(hidden)]").count();
        c[3] += line.matches("MetricsRegistry::global()").count();
        c[4] += line.matches("unwrap(").count() + line.matches("expect(").count();
        c[5] += line.matches("#[allow(").count() + line.matches("#![allow(").count();
        if pub_field_name(trimmed).is_some() {
            c[7] += 1;
        }
    }
    c
}

/// The name a `pub name: Type` struct-field line declares.
fn pub_field_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let end = rest.find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))?;
    let after = &rest[end..];
    (end > 0 && after.starts_with(':') && !after.starts_with("::")).then(|| &rest[..end])
}

/// The crate a source file under `crates/` or `src/` belongs to.
fn crate_of(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next()?.as_ref() {
        "src" => Some("quicert".to_string()),
        "crates" => {
            let name = parts.next()?.into_owned();
            (parts.next()?.as_ref() == "src").then_some(name)
        }
        _ => None,
    }
}

/// The type of the `impl` block a line sits in, if any: the self type of
/// the last column-0 `impl` header above it.
fn impl_type(header: &str) -> String {
    let rest = header.trim_start_matches("impl");
    // Skip the impl's own generics.
    let rest = if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest
            .char_indices()
            .find_map(|(i, ch)| {
                match ch {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => return None,
                }
                (depth == 0).then_some(i + 1)
            })
            .unwrap_or(rest.len());
        &rest[end..]
    } else {
        rest
    };
    let target = rest.split(" for ").last().unwrap_or(rest).trim_start();
    target
        .split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
        .next()
        .unwrap_or_default()
        .to_string()
}

/// `(line index, qualified name, bare name)` of every non-test `pub fn`
/// in `source`.
fn pub_fns(source: &Source) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let mut within: Option<String> = None;
    for (index, line) in source.code.iter().enumerate() {
        if line.starts_with("impl") {
            within = Some(impl_type(line));
        } else if line.starts_with('}') {
            within = None;
        }
        let trimmed = line.trim_start();
        let Some(rest) = trimmed
            .strip_prefix("pub fn ")
            .or_else(|| trimmed.strip_prefix("pub const fn "))
        else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
            .collect();
        let qualified = match &within {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        out.push((index, qualified, name));
    }
    out
}

/// The identifiers `line` names (none in a comment line).
fn words(line: &str) -> impl Iterator<Item = &str> {
    let split = line.split(|ch: char| !(ch.is_alphanumeric() || ch == '_'));
    split.filter(move |word| !word.is_empty() && !is_comment(line))
}

/// Every identifier `lines` name outside comments.
fn identifiers(lines: &[String]) -> HashSet<&str> {
    lines.iter().flat_map(|line| words(line)).collect()
}

/// Every identifier named, test code included, in a file outside
/// `krate`'s own `src/`.
fn named_outside<'a>(root: &Path, sources: &'a [Source], krate: &str) -> HashSet<&'a str> {
    sources
        .iter()
        .filter(|s| crate_of(root, &s.path).is_none_or(|name| name != krate))
        .flat_map(|s| identifiers(&s.text))
        .collect()
}

struct Ledger {
    rows: BTreeMap<String, [usize; 8]>,
    /// Lines of each of [`DOCUMENTS`]; 0 for one the tree lacks.
    documents: BTreeMap<String, usize>,
    orphans: BTreeSet<String>,
}

fn measure() -> Ledger {
    let root = repo_root();
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    let sources: Vec<Source> = paths.into_iter().map(load).collect();

    let mut by_crate: BTreeMap<String, Vec<&Source>> = BTreeMap::new();
    for source in &sources {
        if let Some(name) = crate_of(&root, &source.path) {
            by_crate.entry(name).or_default().push(source);
        }
    }
    let rows = by_crate
        .iter()
        .map(|(name, files)| {
            let outside = named_outside(&root, &sources, name);
            (name.clone(), counts(files, &outside))
        })
        .collect();

    // Per file: the identifiers its non-test code names.
    let named: Vec<HashSet<&str>> = sources.iter().map(|s| identifiers(&s.code)).collect();
    let mut orphans = BTreeSet::new();
    for (name, files) in &by_crate {
        for source in files {
            for (index, qualified, bare) in pub_fns(source) {
                let mut elsewhere = sources
                    .iter()
                    .zip(&named)
                    .filter(|(s, _)| s.path != source.path);
                let mut own = source.code.iter().enumerate().filter(|&(i, _)| i != index);
                let in_code = elsewhere.any(|(_, code)| code.contains(bare.as_str()))
                    || own.any(|(_, line)| words(line).any(|word| word == bare));
                if !in_code {
                    orphans.insert(format!("{name}: {qualified}"));
                }
            }
        }
    }
    let documents = DOCUMENTS
        .iter()
        .map(|path| {
            let text = fs::read_to_string(root.join(path)).unwrap_or_default();
            (path.to_string(), text.lines().count())
        })
        .collect();
    Ledger {
        rows,
        documents,
        orphans,
    }
}

fn render(ledger: &Ledger) -> String {
    let mut out = String::from(
        "# Size ledger — tests/size_ledger.rs. Counts above each file's first\n\
         # #[cfg(test)], and each document's lines; any increase fails until\n\
         # re-blessed with\n\
         # QUICERT_BLESS=1 cargo test --test size_ledger\n",
    );
    let _ = write!(out, "{:<10}", "crate");
    for column in COLUMNS {
        let _ = write!(out, " {column:>7}");
    }
    out.push('\n');
    let mut total = [0usize; 8];
    for (name, row) in &ledger.rows {
        let _ = write!(out, "{name:<10}");
        for (i, count) in row.iter().enumerate() {
            let _ = write!(out, " {count:>7}");
            total[i] += count;
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<10}", "total");
    for count in total {
        let _ = write!(out, " {count:>7}");
    }
    out.push('\n');
    // A document has lines and nothing else; `-` keeps the row's columns.
    for (path, lines) in &ledger.documents {
        let _ = write!(out, "{path:<10} {lines:>7}");
        for _ in 1..COLUMNS.len() {
            let _ = write!(out, " {:>7}", "-");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "orphans {}", ledger.orphans.len());
    for orphan in &ledger.orphans {
        let _ = writeln!(out, "  {orphan}");
    }
    out
}

/// `(row label, column, count)` of every number in a rendered ledger.
fn numbers(ledger: &str) -> BTreeMap<(String, String), usize> {
    let mut out = BTreeMap::new();
    for line in ledger.lines().filter(|l| !l.starts_with('#')) {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["orphans", count] => {
                let count = count.parse().expect("orphan count");
                out.insert(("orphans".to_string(), "count".to_string()), count);
            }
            [label, counts @ ..] if counts.len() == COLUMNS.len() => {
                for (column, count) in COLUMNS.iter().zip(counts) {
                    if let Ok(count) = count.parse() {
                        out.insert((label.to_string(), column.to_string()), count);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Every number of the rendered ledger `got` above its count in `want`.
fn grown(got: &str, want: &str) -> Vec<String> {
    let ledgered = numbers(want);
    numbers(got)
        .into_iter()
        .filter_map(|(key, count)| {
            let limit = ledgered.get(&key).copied().unwrap_or(0);
            (count > limit).then(|| format!("{} {}: {limit} -> {count}", key.0, key.1))
        })
        .collect()
}

#[test]
fn no_crate_grows_past_its_ledger() {
    let golden_dir = repo_root().join("tests/golden");
    let golden_path = golden_dir.join("size_ledger.txt");
    let ledger = measure();
    let got = render(&ledger);
    // The extraction must keep finding what the tree holds.
    assert!(
        ledger.rows.len() >= 12,
        "crates found: {:?}",
        ledger.rows.keys()
    );
    assert!(ledger.rows.values().all(|row| row[0] > 0));
    assert!(ledger.rows.values().map(|row| row[1]).sum::<usize>() > 500);
    assert!(
        ledger.documents.values().all(|&lines| lines > 0),
        "documents found: {:?}",
        ledger.documents
    );

    if std::env::var_os("QUICERT_BLESS").is_some_and(|v| v != "0") {
        fs::write(&golden_path, &got).expect("write the size ledger");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing size ledger {} ({e}); run `QUICERT_BLESS=1 cargo test --test \
             size_ledger` to write it",
            golden_path.display()
        )
    });
    let grown = grown(&got, &want);
    if !grown.is_empty() {
        let _ = fs::write(golden_dir.join("size_ledger.actual.txt"), &got);
    }
    assert!(
        grown.is_empty(),
        "grew past the size ledger (tests/golden/size_ledger.actual.txt holds the \
         new counts; re-bless with QUICERT_BLESS=1 if the growth is intended): {grown:#?}"
    );
}

#[test]
fn the_ledger_counts_what_it_says() {
    let source = |path: &str, lines: &[&str]| {
        let text: Vec<String> = lines.iter().map(|line| line.to_string()).collect();
        let code = match path.contains("/tests/") {
            true => Vec::new(),
            false => text.clone(),
        };
        let path = PathBuf::from(path);
        Source { path, code, text }
    };
    let sources = [
        source(
            "crates/x/src/lib.rs",
            &[
                "//! pub fn in_a_doc() unwrap(",
                "pub struct S {",
                "    pub field: u8,",
                "    pub(crate) private_field: u8,",
                "}",
                "impl<T: Copy> From<T> for S {",
                "    #[doc(hidden)]",
                "    pub fn make() -> S { x.unwrap(); y.expect(\"z\"); unwrap_or(0) }",
                "}",
                "#[allow(dead_code)]",
                "pub(crate) fn private() { MetricsRegistry::global(); }",
                "pub const fn answer() -> u8 { 42 }",
                "pub mod inner;",
            ],
        ),
        source("crates/x/src/inner.rs", &["fn f() { answer(); make(); }"]),
        source("crates/x/tests/t.rs", &["use x::S;", "// make()"]),
        source("perfbench/src/main.rs", &["x::answer();"]),
    ];
    let outside = named_outside(Path::new(""), &sources, "x");
    // `S` is named in a tests/ file and `answer` in perfbench/src; `make`
    // only inside its crate and in a comment: it alone counts as `xpub`.
    // `field` is a counted field, `private_field` is not.
    assert_eq!(counts(&[&sources[0]], &outside), [13, 4, 1, 1, 2, 1, 1, 1]);
    assert!(outside.contains("S") && outside.contains("answer"));
    assert!(!outside.contains("make"));
    let fns: Vec<String> = pub_fns(&sources[0]).into_iter().map(|f| f.1).collect();
    assert_eq!(fns, ["S::make", "answer"]);
    let lines = ["let x = quic_services_all(y);", "    // quic_services()"].map(str::to_string);
    let seen = identifiers(&lines);
    assert!(seen.contains("quic_services_all") && seen.contains("y"));
    assert!(!seen.contains("quic_services"));

    // A document row holds its line count under `lines` and nothing else,
    // and one more line is growth.
    let ledger = |lines| Ledger {
        rows: BTreeMap::from([("x".to_string(), [1; 8])]),
        documents: BTreeMap::from([("README.md".to_string(), lines)]),
        orphans: BTreeSet::new(),
    };
    let rendered = render(&ledger(300));
    let readme: Vec<_> = numbers(&rendered)
        .into_iter()
        .filter(|((label, _), _)| label == "README.md")
        .collect();
    let key = ("README.md".to_string(), "lines".to_string());
    assert_eq!(readme, [(key, 300)]);
    assert!(grown(&rendered, &rendered).is_empty());
    assert_eq!(
        grown(&render(&ledger(301)), &rendered),
        ["README.md lines: 300 -> 301"]
    );
}
