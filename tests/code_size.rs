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

/// The top-level items of `text` after its first `#[cfg(test)]` line that
/// are not themselves `#[cfg(test)]`: the lines the count above would
/// miss. An item starts on an unindented line that is not an attribute,
/// a comment or a closing delimiter, and is gated by a `#[cfg(test)]`
/// among the attributes right above it.
fn ungated_items_after_the_first_test(text: &str) -> Vec<&str> {
    let mut lines = text.lines().skip(non_test_lines(text));
    let mut gated = lines.next().is_some_and(|first| first.starts_with('#'));
    let mut ungated = Vec::new();
    for line in lines {
        if line.starts_with("#[cfg(test)]") {
            gated = true;
        } else if line.is_empty() || line.starts_with([' ', '\t', '#', '/', '}', ')', ']']) {
            continue;
        } else {
            if !gated {
                ungated.push(line);
            }
            gated = false;
        }
    }
    ungated
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

/// The count above holds only if nothing but test code follows a file's
/// first `#[cfg(test)]`: a `pub use` or an item below a test module
/// would be counted as a test line.
#[test]
fn no_item_follows_the_first_test_module_ungated() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/") {
        let src = entry.expect("a directory entry").path().join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rust_files(&src) {
            let text = std::fs::read_to_string(&file).expect("a source file");
            for item in ungated_items_after_the_first_test(&text) {
                let file = file.strip_prefix(&crates).unwrap_or(&file);
                found.push(format!("crates/{}: {item}", file.display()));
            }
        }
    }
    found.sort();
    assert!(
        found.is_empty(),
        "non-test items after a file's first #[cfg(test)]:\n{}",
        found.join("\n")
    );
}

#[test]
fn an_item_after_the_test_module_is_found_unless_gated() {
    let text = "use a;\n#[cfg(test)]\nmod pins;\n\npub use b::C;\n/// Doc.\n#[cfg(test)]\n#[path = \"x.rs\"]\nmod x {\n    fn f() {}\n}\npub type N = usize;\n";
    assert_eq!(
        ungated_items_after_the_first_test(text),
        ["pub use b::C;", "pub type N = usize;"]
    );
    assert!(ungated_items_after_the_first_test("fn f() {}\n").is_empty());
    // A first `#[cfg(test)]` inside an item gates nothing at the top level.
    let nested = "impl A {\n    #[cfg(test)]\n    fn t() {}\n}\nfn g() {}\n";
    assert_eq!(ungated_items_after_the_first_test(nested), ["fn g() {}"]);
}

#[test]
fn the_count_stops_at_the_first_test_module() {
    let text = "use a;\n\nfn f() {}\n    #[cfg(test)]\nmod tests {}\n#[cfg(test)]\n";
    assert_eq!(non_test_lines(text), 3);
    assert_eq!(non_test_lines("fn f() {}\n"), 1);
}
