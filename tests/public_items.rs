//! Every public function serves something outside its own file: a `pub fn`
//! in `crates/*/src` (the dependency shims excepted) whose name, as a
//! whole word, appears in no other `.rs` file under `crates/`, `src/`,
//! `tests/`, `examples/` or `perfbench/src/` is dead API and fails this
//! test. Matching by name is deliberately coarse: a name that another
//! file uses for anything counts as used.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The directories whose `.rs` files may use a public function.
const USERS: [&str; 5] = ["crates", "src", "tests", "examples", "perfbench/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
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

/// The identifiers of `text`, as whole words.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The names declared by `pub fn` in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.match_indices("pub fn ")
        .filter(|&(at, _)| at == 0 || !is_ident(text[..at].chars().next_back().unwrap()))
        .map(|(at, decl)| {
            let rest = &text[at + decl.len()..];
            &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in USERS {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: BTreeMap<PathBuf, String> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("a readable source file");
            (path, text)
        })
        .collect();
    let vocab: BTreeMap<&Path, BTreeSet<&str>> = texts
        .iter()
        .map(|(path, text)| (path.as_path(), words(text)))
        .collect();
    let crates = root.join("crates");
    let mut unused = Vec::new();
    for (path, text) in &texts {
        let Ok(rel) = path.strip_prefix(&crates) else {
            continue;
        };
        let krate = rel.components().next().unwrap().as_os_str();
        let in_src = rel
            .components()
            .nth(1)
            .is_some_and(|c| c.as_os_str() == "src");
        if !in_src || krate.to_string_lossy().ends_with("-shim") {
            continue;
        }
        for name in pub_fns(text) {
            let used = vocab
                .iter()
                .any(|(other, words)| *other != path.as_path() && words.contains(name));
            if !used {
                unused.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    assert!(
        texts.keys().any(|path| path.starts_with(&crates)),
        "no crate sources under {}",
        crates.display()
    );
    assert!(
        unused.is_empty(),
        "public functions no other file names:\n{}",
        unused.join("\n")
    );
}

/// One idle path: an agent skips idle bits through its stretch
/// observation, so under `crates/` only the `BitAgent` default, its `Box`
/// forwarder and perfbase's call log (which records the simulator's
/// calls) define `skip_idle`.
#[test]
fn skip_idle_is_defined_only_by_the_trait_and_its_forwarders() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    let mut defined: Vec<(String, usize)> = files
        .iter()
        .filter_map(|path| {
            let text = fs::read_to_string(path).expect("a readable source file");
            let count = text.matches("fn skip_idle(").count();
            let rel = path.strip_prefix(&crates).unwrap();
            (count > 0).then(|| (rel.display().to_string(), count))
        })
        .collect();
    defined.sort();
    assert_eq!(
        defined,
        [
            ("bench/src/bin/perfbase.rs".to_string(), 1),
            ("can-core/src/agent.rs".to_string(), 2),
        ]
    );
}

#[test]
fn the_scan_reads_declarations_and_whole_words() {
    let text = "pub fn a_b(x: u8) {}\n    pub fn c() {}\nfn private() {}\n// `pub fn`\n";
    assert_eq!(pub_fns(text), ["a_b", "c"]);
    assert!(words("x.a_b(1)").contains("a_b"));
    assert!(!words("a_bc").contains("a_b"));
}
