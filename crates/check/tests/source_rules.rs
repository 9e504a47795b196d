//! The one source rule clippy cannot express (DESIGN.md §8.4): every
//! `Ordering::Relaxed` under `crates/*/src` and `src/` is an audited site.
//! A relaxed atomic publishes no other data, so one on a flag that gates
//! memory publication is unsound, and a relaxed load followed by a store on
//! the same atomic is a lost update. A new site fails here, and so does an
//! audited site that is gone.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file, sites)`. par.rs hands out work indices with `fetch_add`; the
/// items are published by the scoped-thread join, not by this counter.
const AUDITED: [(&str, usize); 1] = [("crates/model/src/par.rs", 1)];

/// `Ordering::Relaxed` uses in `text`, skipping `//` comment lines.
fn relaxed_sites(text: &str) -> usize {
    text.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| line.matches("Ordering::Relaxed").count())
        .sum()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn relaxed_orderings_are_exactly_the_audited_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    let mut found: Vec<(String, usize)> = files
        .iter()
        .filter_map(|file| {
            let n = relaxed_sites(&fs::read_to_string(file).unwrap());
            let rel = file.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
            (n > 0).then_some((rel, n))
        })
        .collect();
    found.sort();
    let audited: Vec<(String, usize)> = AUDITED.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    assert_eq!(found, audited, "Ordering::Relaxed sites differ from the audited list");
}

#[test]
fn the_matcher_fires_on_a_relaxed_load_and_store_pair() {
    let src = concat!(
        "fn bump(&self) {\n",
        "    let s = self.state.load(Ordering::Relaxed);\n",
        "    // Ordering::Relaxed in a comment is not a site\n",
        "    self.state.store(s + 1, Ordering::Relaxed);\n",
        "}\n",
    );
    assert_eq!(relaxed_sites(src), 2);
}
