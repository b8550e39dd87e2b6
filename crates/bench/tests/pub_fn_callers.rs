//! Every library `pub fn` has a caller outside its own file.
//!
//! The test lists each `pub fn` and `pub const fn` declared in
//! `crates/*/src` (binaries under `src/bin/` excluded) whose name, as a
//! whole word, appears in no other `.rs` file under `crates/`,
//! `examples/` or `perfbench/src`. A function that only its own module
//! and unit tests name is either dead or private in all but name: delete
//! it, or drop the `pub`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name declared by a `pub fn` / `pub const fn` line, if it is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for dir in ["crates", "examples", "perfbench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| panic!("read {}: {e}", f.display())))
        .collect();

    // The files each whole word appears in.
    let mut files_of: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (i, text) in texts.iter().enumerate() {
        for word in text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()) {
            files_of.entry(word).or_default().insert(i);
        }
    }

    let mut uncalled = Vec::new();
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let rel = file.strip_prefix(root).expect("file under the root");
        let parts: Vec<&str> = rel
            .iter()
            .map(|p| p.to_str().expect("UTF-8 path"))
            .collect();
        let library = parts.len() > 3
            && parts[0] == "crates"
            && parts[2] == "src"
            && !parts[3..parts.len() - 1].contains(&"bin");
        if !library {
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            if files_of[name].iter().all(|&j| j == i) {
                uncalled.push(format!("{}:{} {name}", parts.join("/"), n + 1));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "{} pub fns are named in no file but their own; delete each or drop its `pub`:\n{}",
        uncalled.len(),
        uncalled.join("\n")
    );
}
