//! Structure gates, run by tier-1: one table of rules over the library
//! lines of the workspace's source files, each naming the files it reads,
//! the tokens it forbids there and the files allowed to hold them.
//!
//! A file's library lines are every line above its first `#[cfg(test)]`,
//! the whole file when it has none — the cut `ci/lib_lines.sh` makes.

use std::fs;
use std::path::Path;

/// One gate: in the library lines of every `.rs` file directly under
/// `dir` except those named in `allowed`, none of `tokens` may appear; each
/// token must appear in an allowed file, so a moved or renamed directory
/// cannot pass the gate by reading nothing.
struct Gate {
    name: &'static str,
    dir: &'static str,
    tokens: &'static [&'static str],
    allowed: &'static [&'static str],
    message: &'static str,
}

const GATES: &[Gate] = &[Gate {
    name: "One spawn site in rdx-exec",
    dir: "crates/exec/src",
    tokens: &["thread::scope", ".spawn("],
    allowed: &["pool.rs"],
    message: "a second spawn site: run the work through pool::run_workers and pool::Claims",
}];

/// The library lines of `text`, numbered from one.
fn library_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .enumerate()
        .map(|(i, line)| (i + 1, line))
}

#[test]
fn every_structure_gate_holds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for gate in GATES {
        let mut files: Vec<_> = fs::read_dir(root.join(gate.dir))
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", gate.name, gate.dir))
            .map(|entry| entry.expect("a directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .collect();
        files.sort();
        let mut seen = vec![false; gate.tokens.len()];
        for path in files {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let allowed = gate.allowed.contains(&name);
            let text = fs::read_to_string(&path).expect("a readable source file");
            for (number, line) in library_lines(&text) {
                for (t, token) in gate.tokens.iter().enumerate() {
                    if !line.contains(token) {
                        continue;
                    }
                    seen[t] |= allowed;
                    if !allowed {
                        failures.push(format!(
                            "{}: {}/{name}:{number}: {line}",
                            gate.name, gate.dir
                        ));
                    }
                }
            }
        }
        for (token, seen) in gate.tokens.iter().zip(seen) {
            if !seen {
                failures.push(format!("{}: `{token}` is in no allowed file", gate.name));
            }
        }
        if failures.iter().any(|f| f.starts_with(gate.name)) {
            failures.push(format!("{}: {}", gate.name, gate.message));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
