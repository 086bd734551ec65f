//! Enforces the zero-unwrap policy on the non-test sources of the library
//! crates a request passes through: linalg, bandit, core, privacy, shuffler
//! and experiments. Request-path code surfaces typed errors, never panics.
//! Test modules (everything at and below the first `#[cfg(test)]` of a
//! file) and comment/doc lines are exempt.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates under `crates/` whose `src/` trees the gate scans.
const SCANNED_CRATES: &[&str] = &[
    "linalg",
    "bandit",
    "core",
    "privacy",
    "shuffler",
    "experiments",
];

/// Panic-path constructs forbidden outside test code. `.unwrap_or*` /
/// `.ok_or*` combinators are fine (they are the non-panicking
/// alternatives); the scan matches the exact panicking spellings.
const FORBIDDEN: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn non_test_violations(source: &str) -> Vec<(usize, String)> {
    let mut violations = Vec::new();
    for (number, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        if FORBIDDEN.iter().any(|needle| line.contains(needle)) {
            violations.push((number + 1, line.to_owned()));
        }
    }
    violations
}

/// Every `.rs` file below `dir`, recursively, in sorted order.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let entries = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .filter_map(Result::ok)
            .map(|entry| entry.path());
        for path in entries {
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn no_unwrap_or_expect_in_non_test_source() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut report = String::new();
    for name in SCANNED_CRATES {
        let src = root.join(name).join("src");
        let sources = rust_sources(&src);
        assert!(
            !sources.is_empty(),
            "no sources found under {}",
            src.display()
        );
        for path in sources {
            let source = fs::read_to_string(&path).expect("read source file");
            for (line, text) in non_test_violations(&source) {
                report.push_str(&format!("{}:{line}: {}\n", path.display(), text.trim()));
            }
        }
    }
    assert!(
        report.is_empty(),
        "panic-path constructs in non-test library code (convert to typed \
         error returns):\n{report}"
    );
}

#[test]
fn scanner_catches_the_constructs_it_claims_to() {
    let sample = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
    let violations = non_test_violations(sample);
    assert_eq!(violations.len(), 1, "test module is exempt, body is not");
    assert_eq!(violations[0].0, 1);
    // Comment and doc lines are exempt; `unwrap_or` is not a violation.
    assert!(non_test_violations("// x.unwrap()\n/// y.expect(\"\")").is_empty());
    assert!(non_test_violations("let v = x.unwrap_or(0);").is_empty());
    assert_eq!(non_test_violations("unreachable!(\"no\")").len(), 1);
}
