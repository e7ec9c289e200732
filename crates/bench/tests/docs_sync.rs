//! The documents name commands; the commands must exist. Every `--bin X`
//! in README.md, EXPERIMENTS.md, DESIGN.md, `ci.sh` and the verify skill
//! must be a file of `src/bin`, every `bench <id>` an experiment of the
//! registry, and every registered experiment must have its command in
//! EXPERIMENTS.md. README's Rust snippet must be the quickstart example.
//! DESIGN.md's inventory (§3) and dependencies (§5) must name the
//! directories of `crates/` and `vendor/`, all of them and no others.

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
