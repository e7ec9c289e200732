//! The documents name commands; the commands must exist. Every `--bin X`
//! in README.md, EXPERIMENTS.md, DESIGN.md, `ci.sh` and the verify skill
//! must be a file of `src/bin`, every `bench <id>` an experiment of the
//! registry, and every registered experiment must have its command in
//! EXPERIMENTS.md. README's Rust snippet must be the quickstart example.
//! DESIGN.md's inventory (§3) and dependencies (§5) must name the
//! directories of `crates/` and `vendor/`, all of them and no others, and
//! a type §3 names under a crate must be declared in that crate. README's
//! test count must be what the sources hold.

use std::collections::BTreeSet;

use rshuffle_bench::experiments::REGISTRY;

const DOCUMENTS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "ci.sh",
    ".claude/skills/verify/SKILL.md",
];

fn repo_path(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The words of a document's code: all of a shell script; of markdown,
/// the fenced blocks and the inline `code` spans. A `|` word ends every
/// line and span, so a command is never read across two of them.
fn code_words(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut code = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced || name.ends_with(".sh") {
            code += line;
        } else {
            // Odd-numbered pieces of a line split at backticks are code.
            for span in line.split('`').skip(1).step_by(2) {
                code += span;
                code += " | ";
            }
        }
        code += " | ";
    }
    code.split_whitespace().map(str::to_string).collect()
}

/// Whether a word has the shape of a binary or experiment name (and is
/// not a shell variable, a placeholder or a path).
fn is_name(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_lowercase())
        && word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The binaries a document runs with `--bin X`.
fn bins_named(words: &[String]) -> BTreeSet<String> {
    let named = words
        .windows(2)
        .filter(|w| w[0] == "--bin" && is_name(&w[1]));
    named.map(|w| w[1].clone()).collect()
}

/// The names that follow `bench` (or `…/release/bench`, or `bench --`).
fn experiments_named(words: &[String]) -> BTreeSet<String> {
    let mut named = BTreeSet::new();
    for (at, word) in words.iter().enumerate() {
        if word == "bench" || word.ends_with("/release/bench") {
            let rest = words[at + 1..].iter().skip_while(|w| *w == "--");
            named.extend(rest.take_while(|w| is_name(w)).cloned());
        }
    }
    named
}

#[test]
fn every_named_binary_exists() {
    for document in DOCUMENTS {
        for bin in bins_named(&code_words(document)) {
            let source = repo_path(&format!("crates/bench/src/bin/{bin}.rs"));
            assert!(
                std::path::Path::new(&source).exists(),
                "{document} runs `--bin {bin}`, which crates/bench/src/bin lacks"
            );
        }
    }
}

#[test]
fn every_named_experiment_is_registered() {
    for document in DOCUMENTS {
        for id in experiments_named(&code_words(document)) {
            assert!(
                REGISTRY.iter().any(|e| e.id == id),
                "{document} runs `bench {id}`, which the registry lacks"
            );
        }
    }
}

#[test]
fn every_registered_experiment_has_its_command_in_experiments_md() {
    let documented = experiments_named(&code_words("EXPERIMENTS.md"));
    for experiment in REGISTRY {
        assert!(
            documented.contains(experiment.id),
            "EXPERIMENTS.md has no `bench {}` command",
            experiment.id
        );
    }
}

/// The names `text` mentions as `{dir}/name`.
fn named_under(text: &str, dir: &str) -> BTreeSet<String> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let prefix = format!("{dir}/");
    let names = text
        .split(prefix.as_str())
        .skip(1)
        .map(|rest| rest.split(|c| !is_word(c)).next().unwrap_or(""));
    let names = names.filter(|n| !n.is_empty());
    names.map(str::to_string).collect()
}

#[test]
fn design_md_names_every_crate_and_shim_and_no_other() {
    let design = std::fs::read_to_string(repo_path("DESIGN.md")).expect("DESIGN.md");
    for (heading, dir) in [("\n## 3. ", "crates"), ("\n## 5. ", "vendor")] {
        let (_, section) = design.split_once(heading).expect("section heading");
        let section = section.split("\n## ").next().unwrap_or("");
        let on_disk: BTreeSet<String> = std::fs::read_dir(repo_path(dir))
            .expect("directory")
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.path().is_dir())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            named_under(section, dir),
            on_disk,
            "DESIGN.md section{heading}against the directories of {dir}/"
        );
    }
}

/// The `.rs` files under `dir`, read.
fn sources(dir: &str) -> Vec<String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path().to_string_lossy().into_owned();
        if entry.path().is_dir() {
            found.extend(sources(&path));
        } else if path.ends_with(".rs") {
            found.push(std::fs::read_to_string(&path).expect("source file"));
        }
    }
    found
}

/// Whether `line` declares `name`: as a type, as a variant or field-less
/// item at the head of its line, or by re-exporting it (`pub use`).
fn declares(line: &str, name: &str) -> bool {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let ends = |rest: &str| !rest.starts_with(is_word);
    let typed = ["struct ", "enum ", "trait ", "type "].iter().any(|kw| {
        let after = line
            .split_once(kw)
            .and_then(|(_, rest)| rest.strip_prefix(name));
        after.is_some_and(ends)
    });
    let reexported = line.trim_start().starts_with("pub use ")
        && line.split(|c: char| !is_word(c)).any(|word| word == name);
    typed || reexported || line.trim_start().strip_prefix(name).is_some_and(ends)
}

#[test]
fn design_md_inventory_names_types_its_crates_declare() {
    let design = std::fs::read_to_string(repo_path("DESIGN.md")).expect("DESIGN.md");
    let (_, inventory) = design.split_once("\n## 3. ").expect("section 3");
    let inventory = inventory.split("\n## ").next().unwrap_or("");
    for paragraph in inventory.split("\n### crates/").skip(1) {
        let krate = paragraph
            .split(|c: char| !c.is_ascii_lowercase())
            .next()
            .unwrap_or("");
        let sources = sources(&repo_path(&format!("crates/{krate}/src")));
        // Odd-numbered pieces of the text split at backticks are code; a
        // CamelCase word of it is a type's or a variant's name.
        for span in paragraph.split('`').skip(1).step_by(2) {
            let words = span.split(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            let names = words.filter(|w| {
                w.starts_with(|c: char| c.is_ascii_uppercase())
                    && w.contains(|c: char| c.is_ascii_lowercase())
            });
            for name in names {
                let declared = sources
                    .iter()
                    .any(|text| text.lines().any(|line| declares(line, name)));
                assert!(
                    declared,
                    "DESIGN.md §3 names `{name}` under crates/{krate}, which declares no such item"
                );
            }
        }
    }
}

/// `cargo test --workspace` runs every `#[test]` outside a file gated on a
/// feature, and every untagged code block of a doc comment.
#[test]
fn readme_test_count_is_what_the_sources_hold() {
    let mut held = 0;
    for dir in ["crates", "vendor", "src", "tests"] {
        for text in sources(&repo_path(dir)) {
            if text.lines().any(|line| line.starts_with("#![cfg(feature")) {
                continue;
            }
            let mut in_doc_block = false;
            for line in text.lines().map(str::trim) {
                let doc = line.strip_prefix("//!").or(line.strip_prefix("///"));
                let fence = doc.map(str::trim).and_then(|d| d.strip_prefix("```"));
                if let Some(tag) = fence {
                    in_doc_block = !in_doc_block;
                    held += usize::from(in_doc_block && tag.is_empty());
                }
                held += usize::from(line == "#[test]");
            }
        }
    }
    let readme = std::fs::read_to_string(repo_path("README.md")).expect("README.md");
    let command = readme
        .lines()
        .find(|line| line.starts_with("cargo test  --workspace"))
        .expect("README.md runs the workspace suite");
    let quoted = command.split("# ").nth(1).and_then(|c| c.split(' ').next());
    assert_eq!(
        quoted,
        Some(held.to_string().as_str()),
        "README.md's count beside `{command}` against the sources'"
    );
}

#[test]
fn readme_snippet_is_the_quickstart_example() {
    let read = |name: &str| {
        std::fs::read_to_string(repo_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let readme = read("README.md");
    let snippet: Vec<&str> = readme
        .lines()
        .skip_while(|line| *line != "```rust")
        .skip(1)
        .take_while(|line| *line != "```")
        .collect();
    // The example, past its `//!` header.
    let example = read("examples/quickstart.rs");
    let example: Vec<&str> = example
        .lines()
        .skip_while(|line| line.starts_with("//!") || line.is_empty())
        .collect();
    assert!(!snippet.is_empty(), "README.md has no ```rust block");
    assert_eq!(
        snippet, example,
        "README.md's Rust snippet and examples/quickstart.rs have drifted apart"
    );
}
