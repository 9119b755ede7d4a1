//! Markdown link and anchor checker for the repo's prose.
//!
//! Walks `README.md` and every `docs/*.md`, extracts inline links
//! (`[text](target)`), and verifies that each relative target resolves:
//! the file must exist, and if the link carries a `#fragment`, the
//! target document must contain a heading whose GitHub-style slug
//! matches. External links (`http://`, `https://`, `mailto:`) are not
//! fetched — CI must not depend on the network — but their fragments
//! are ignored for the same reason.
//!
//! The parser is deliberately small (no regex, no markdown crate — the
//! container is offline): fenced code blocks are skipped, inline code
//! spans are left alone because `[..](..)` inside backticks on one line
//! is rare enough to handle by not writing it, and only inline-style
//! links are supported. Keep the docs to that subset.
//!
//! It also checks the cargo command lines the prose gives: every
//! `--bin`, `--example` and `--bench` flag in those files and
//! in `.claude/skills/*/SKILL.md` must name a target that exists. Those
//! commands live in fenced blocks, so this scan skips no fence.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// GitHub's heading slug: lowercase, spaces and hyphens become hyphens,
/// everything else non-alphanumeric is dropped. Good enough for the
/// ASCII-plus-punctuation headings this repo writes.
fn slugify(heading: &str) -> String {
    let mut s = String::new();
    for ch in heading.trim().chars() {
        if ch.is_alphanumeric() {
            s.extend(ch.to_lowercase());
        } else if ch == ' ' || ch == '-' || ch == '_' {
            s.push(if ch == '_' { '_' } else { '-' });
        }
        // every other character (punctuation, `§`, backticks) drops out
    }
    s
}

/// Collect the anchor slugs a markdown document defines, with GitHub's
/// duplicate-suffix rule (`#name`, `#name-1`, ...).
fn anchors(text: &str) -> Vec<String> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let hashes = trimmed.chars().take_while(|&c| c == '#').count();
        if hashes == 0 || hashes > 6 || !trimmed[hashes..].starts_with(' ') {
            continue;
        }
        let slug = slugify(&trimmed[hashes + 1..]);
        let n = seen.entry(slug.clone()).or_insert(0);
        out.push(if *n == 0 {
            slug.clone()
        } else {
            format!("{slug}-{n}")
        });
        *n += 1;
    }
    out
}

/// Extract `(link target, line number)` pairs from inline-style links,
/// skipping fenced code blocks and image links' alt text brackets.
fn links(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'[' {
                i += 1;
                continue;
            }
            // find the matching `]` (no nesting in this repo's docs)
            let Some(close) = line[i..].find(']').map(|j| i + j) else {
                break;
            };
            if close + 1 >= bytes.len() || bytes[close + 1] != b'(' {
                i = close + 1;
                continue;
            }
            let Some(end) = line[close + 2..].find(')').map(|j| close + 2 + j) else {
                break;
            };
            out.push((line[close + 2..end].to_string(), lineno + 1));
            i = end + 1;
        }
    }
    out
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .expect("docs/ directory exists")
        .map(|e| e.expect("readable docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    files
}

#[test]
fn every_relative_link_and_anchor_resolves() {
    let mut failures = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().expect("doc file has a parent");
        for (target, line) in links(&text) {
            let loc = format!("{}:{line}", file.display());
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (target.as_str(), None),
            };
            // resolve the file the link points at (self for pure `#frag`)
            let resolved: PathBuf = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                failures.push(format!("{loc}: broken link `{target}` (no such file)"));
                continue;
            }
            let Some(frag) = fragment else { continue };
            if resolved.extension().is_none_or(|e| e != "md") {
                continue; // anchors into non-markdown files are not checked
            }
            let doc = std::fs::read_to_string(&resolved)
                .unwrap_or_else(|e| panic!("read {}: {e}", resolved.display()));
            if !anchors(&doc).iter().any(|a| a == frag) {
                failures.push(format!(
                    "{loc}: anchor `#{frag}` not found in {}",
                    resolved.display()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "broken documentation links:\n{}",
        failures.join("\n")
    );
}

/// Extract `(flag, target name, line number)` for every `--bin`,
/// `--example` and `--bench` flag, in either `--flag NAME` or
/// `--flag=NAME` form, fenced blocks included. Backticks before the
/// flag are ignored, and the name is the run of identifier characters
/// after it, so trailing backticks and punctuation drop out.
fn target_flags(text: &str) -> Vec<(&'static str, String, usize)> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut words = line.split_whitespace();
        while let Some(word) = words.next() {
            for flag in ["--bin", "--example", "--bench"] {
                let arg = match word.trim_start_matches('`').strip_prefix(flag) {
                    Some("") => words.clone().next(),
                    Some(rest) => rest.strip_prefix('='),
                    None => None,
                };
                let Some(arg) = arg else { continue };
                let name: String = arg
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                out.push((flag, name, lineno + 1));
            }
        }
    }
    out
}

/// The `name` of every `[[bench]]` table in the workspace manifests;
/// cargo requires one in each such table.
fn declared_benches() -> Vec<String> {
    let root = repo_root();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ directory exists");
    let manifests = std::iter::once(root.join("Cargo.toml"))
        .chain(crates.map(|e| e.expect("readable crates/ entry").path().join("Cargo.toml")));
    let mut names = Vec::new();
    for manifest in manifests.filter(|m| m.exists()) {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        for table in text.split("[[bench]]").skip(1) {
            let name = table.lines().find_map(|line| {
                line.trim()
                    .strip_prefix("name")?
                    .trim_start()
                    .strip_prefix('=')
            });
            names.extend(name.map(|n| n.trim().trim_matches('"').to_string()));
        }
    }
    names
}

#[test]
fn every_cargo_target_named_in_the_docs_exists() {
    let root = repo_root();
    let mut files = doc_files();
    if let Ok(skills) = std::fs::read_dir(root.join(".claude/skills")) {
        let mut found: Vec<_> = skills
            .map(|e| e.expect("readable skills entry").path().join("SKILL.md"))
            .filter(|p| p.exists())
            .collect();
        found.sort();
        files.extend(found);
    }
    let benches = declared_benches();
    let mut failures = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (flag, name, line) in target_flags(&text) {
            let exists = match flag {
                "--bin" => root
                    .join(format!("crates/bench/src/bin/{name}.rs"))
                    .exists(),
                "--example" => root.join(format!("examples/{name}.rs")).exists(),
                _ => benches.contains(&name),
            };
            if !exists {
                failures.push(format!(
                    "{}:{line}: `{flag} {name}` names no such target",
                    file.display()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "documented commands name missing cargo targets:\n{}",
        failures.join("\n")
    );
}

#[test]
fn target_flags_are_read_in_both_forms() {
    let text = "```sh\ncargo run -p bench --bin fig5 --bin=table2`\n```\n`--example quickstart`.\n";
    let got: Vec<_> = target_flags(text)
        .into_iter()
        .map(|(flag, name, line)| format!("{flag} {name} @{line}"))
        .collect();
    assert_eq!(
        got,
        [
            "--bin fig5 @2",
            "--bin table2 @2",
            "--example quickstart @4"
        ]
    );
}

#[test]
fn slugs_match_github_rules() {
    assert_eq!(slugify("Code lifetime"), "code-lifetime");
    assert_eq!(slugify("W^X buffer lifetime"), "wx-buffer-lifetime");
    assert_eq!(
        slugify("`EvalMode::Jit` — the knob"),
        "evalmodejit--the-knob"
    );
    assert_eq!(slugify("Environment knobs"), "environment-knobs");
}

#[test]
fn duplicate_headings_get_numeric_suffixes() {
    let text = "# A\n## Setup\ntext\n## Setup\n";
    assert_eq!(anchors(text), ["a", "setup", "setup-1"]);
}

#[test]
fn fenced_code_blocks_are_skipped() {
    let text = "# Real\n```\n# not a heading\n[not](a-link.md)\n```\n[ok](#real)\n";
    assert_eq!(anchors(text), ["real"]);
    assert_eq!(links(text), [("#real".to_string(), 6)]);
}
