//! Code size is part of the exact contract. The non-test lines of every
//! crate under `crates/*/src` — the lines before each file's first
//! `#[cfg(test)]`, the count DESIGN.md §20's wc-ledger reports — are pinned
//! per crate in `tests/pins/code_size.txt`, with their sum as the last row.
//! A change that grows or shrinks a crate re-records them with
//! `RSHUFFLE_BLESS=1 ./ci.sh`, and the pin file's diff shows by how much.

#[path = "common/pins.rs"]
mod pins;

use std::path::{Path, PathBuf};

/// Lines of `text` before its first `#[cfg(test)]` line.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut files = Vec::new();
    for path in entries.map(|entry| entry.expect("a directory entry").path()) {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn non_test_lines_per_crate_match_the_pinned_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| crates.join(name).join("src").is_dir())
        .collect();
    names.sort();
    let mut rows = Vec::new();
    let mut total = 0;
    for name in names {
        let lines: usize = rust_files(&crates.join(&name).join("src"))
            .iter()
            .map(|file| non_test_lines(&std::fs::read_to_string(file).expect("a source file")))
            .sum();
        rows.push(format!("crates/{name}/src {lines}"));
        total += lines;
    }
    rows.push(format!("crates/*/src {total}"));
    pins::check("code_size.txt", &rows);
}

#[test]
fn the_count_stops_at_the_first_test_module() {
    let text = "use a;\n\nfn f() {}\n    #[cfg(test)]\nmod tests {}\n#[cfg(test)]\n";
    assert_eq!(non_test_lines(text), 3);
    assert_eq!(non_test_lines("fn f() {}\n"), 1);
}
