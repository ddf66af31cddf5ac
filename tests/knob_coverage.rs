//! Every `Session` and `ClusterConfig` field is named in test code.
//!
//! A knob that no test sets has untested non-default branches; a setting
//! with one value belongs in a constant at its reader instead. Test code is
//! `tests/`, `crates/*/tests/`, and the `#[cfg(test)]` modules under
//! `src/` and `crates/*/src/`. A field counts as named when it appears as a
//! whole word there.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

const SESSION: &str = include_str!("../crates/common/src/session.rs");
const CLUSTER_CONFIG: &str = include_str!("../crates/cluster/src/config.rs");

/// The `pub` field names in the body of `pub struct <name> { … }`.
fn pub_fields(source: &str, name: &str) -> Vec<String> {
    let start = source
        .find(&format!("pub struct {name} {{"))
        .unwrap_or_else(|| panic!("no `pub struct {name}`"));
    let body = &source[start..];
    let body = &body[..body.find("\n}").unwrap()];
    body.lines()
        .skip(1)
        .filter_map(|line| line.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(field, _)| field.trim().to_string())
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The end (exclusive) of the `{ … }` block opening at `open`.
fn block_end(text: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return open + i + 1;
                }
            }
            _ => {}
        }
    }
    text.len()
}

/// The text of every `#[cfg(test)]` module in `file`: inline bodies, and
/// the file of an out-of-line `mod name;`.
fn cfg_test_modules(file: &Path) -> String {
    let text = std::fs::read_to_string(file).unwrap();
    let mut out = String::new();
    for (at, _) in text.match_indices("#[cfg(test)]") {
        let rest = &text[at + "#[cfg(test)]".len()..];
        // Skip further attributes, e.g. `#[allow(clippy::unwrap_used)]`.
        let item = rest
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with("#["))
            .unwrap_or("");
        let Some(decl) = item.strip_prefix("mod ").or(item.strip_prefix("pub mod ")) else {
            continue;
        };
        if let Some(name) = decl.strip_suffix(';') {
            let dir = file.parent().unwrap();
            let stem = file.file_stem().unwrap();
            let dir = if stem == "mod" || stem == "lib" {
                dir.to_path_buf()
            } else {
                dir.join(stem)
            };
            out += &std::fs::read_to_string(dir.join(format!("{name}.rs"))).unwrap();
        } else {
            let open = at + text[at..].find('{').unwrap();
            out += &text[open..block_end(&text, open)];
        }
        out.push('\n');
    }
    out
}

/// All test code in the workspace, concatenated.
fn test_code(root: &Path) -> String {
    let mut tests = Vec::new();
    let mut sources = Vec::new();
    rust_files(&root.join("tests"), &mut tests);
    rust_files(&root.join("src"), &mut sources);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        rust_files(&krate.join("tests"), &mut tests);
        rust_files(&krate.join("src"), &mut sources);
    }
    let this = Path::new(file!()).file_name().unwrap();
    let mut code = String::new();
    for file in tests.iter().filter(|f| f.file_name() != Some(this)) {
        code += &std::fs::read_to_string(file).unwrap();
        code.push('\n');
    }
    for file in &sources {
        code += &cfg_test_modules(file);
    }
    code
}

fn names_word(code: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices(word).any(|(at, _)| {
        !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
    })
}

#[test]
fn every_session_and_cluster_config_field_is_named_in_test_code() {
    let code = test_code(Path::new(env!("CARGO_MANIFEST_DIR")));
    let mut unnamed = Vec::new();
    for (name, source) in [("Session", SESSION), ("ClusterConfig", CLUSTER_CONFIG)] {
        let fields = pub_fields(source, name);
        assert!(!fields.is_empty(), "no fields parsed from `{name}`");
        for field in fields {
            if !names_word(&code, &field) {
                unnamed.push(format!("{name}::{field}"));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "fields named by no test (set one in a test, or make it a constant): {unnamed:?}"
    );
}

#[test]
fn field_parser_and_word_match_see_what_they_should() {
    let session = pub_fields(SESSION, "Session");
    assert!(session.contains(&"catalog".to_string()), "{session:?}");
    assert!(
        session.contains(&"pipeline_fusion".to_string()),
        "{session:?}"
    );
    let config = pub_fields(CLUSTER_CONFIG, "ClusterConfig");
    assert!(config.contains(&"workers".to_string()), "{config:?}");
    assert!(config.contains(&"faults".to_string()), "{config:?}");
    assert!(names_word("x.spill_dir = y", "spill_dir"));
    assert!(!names_word("x.spill_dir_y", "spill_dir"));
    assert!(!names_word("my_workers", "workers"));
}
