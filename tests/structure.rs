//! Structure gates, run by tier-1: one table of rules over the library
//! lines of the workspace's source files, each naming the directories it
//! reads, what it forbids there and the files allowed to hold it.
//!
//! A file's library lines are every line above its first `#[cfg(test)]`,
//! the whole file when it has none — the cut `ci/lib_lines.sh` makes.

use std::fs;
use std::path::Path;

/// What a gate forbids on a library line: a literal token, or a named
/// predicate for a shape no literal spells.
#[derive(Clone, Copy)]
enum Needle {
    Token(&'static str),
    Shape(&'static str, fn(&str) -> bool),
}

impl Needle {
    fn name(self) -> &'static str {
        match self {
            Needle::Token(token) => token,
            Needle::Shape(name, _) => name,
        }
    }

    fn found_in(self, line: &str) -> bool {
        match self {
            Needle::Token(token) => line.contains(token),
            Needle::Shape(_, matches) => matches(line),
        }
    }
}

/// One gate: in the library lines of every `.rs` file directly under each
/// of `dirs` except those named in `allowed`, none of `needles` may
/// appear.  Every directory must hold a source file, and when the gate
/// allows some files each needle must appear in one of them, so a moved or
/// renamed directory cannot pass the gate by reading nothing.
struct Gate {
    name: &'static str,
    dirs: &'static [&'static str],
    needles: &'static [Needle],
    allowed: &'static [&'static str],
    message: &'static str,
}

const GATES: &[Gate] = &[
    Gate {
        name: "One spawn site in rdx-exec",
        dirs: &["crates/exec/src"],
        needles: &[Needle::Token("thread::scope"), Needle::Token(".spawn(")],
        allowed: &["pool.rs"],
        message: "a second spawn site: run the work through pool::run_workers and pool::Claims",
    },
    // Every count the serving stack keeps lives in the rdx-obs registry
    // and is bumped through its `Counter` handle; the `*Stats` structs are
    // reads of it, so a `stats.<field> +=` is a second copy of a count.
    Gate {
        name: "One increment site per count in serve/net library code",
        dirs: &["crates/serve/src", "crates/net/src"],
        needles: &[Needle::Shape("stats.<field> +=", bumps_a_stats_field)],
        allowed: &[],
        message: "a count kept outside the registry — bump its rdx-obs Counter instead",
    },
];

/// Whether `line` adds to a field of something named `stats`: `stats.`,
/// a field of lower-case letters and underscores, then ` +=`.
fn bumps_a_stats_field(line: &str) -> bool {
    line.match_indices("stats.").any(|(at, prefix)| {
        let rest = &line[at + prefix.len()..];
        let field = rest
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || *b == b'_')
            .count();
        field > 0 && rest[field..].starts_with(" +=")
    })
}

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
        let mut seen = vec![false; gate.needles.len()];
        for dir in gate.dirs {
            let mut files: Vec<_> = fs::read_dir(root.join(dir))
                .unwrap_or_else(|e| panic!("{}: cannot read {dir}: {e}", gate.name))
                .map(|entry| entry.expect("a directory entry").path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
                .collect();
            if files.is_empty() {
                failures.push(format!("{}: {dir} holds no source file", gate.name));
            }
            files.sort();
            for path in files {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let allowed = gate.allowed.contains(&name);
                let text = fs::read_to_string(&path).expect("a readable source file");
                for (number, line) in library_lines(&text) {
                    for (n, needle) in gate.needles.iter().enumerate() {
                        if !needle.found_in(line) {
                            continue;
                        }
                        seen[n] |= allowed;
                        if !allowed {
                            failures.push(format!("{}: {dir}/{name}:{number}: {line}", gate.name));
                        }
                    }
                }
            }
        }
        if !gate.allowed.is_empty() {
            for (needle, seen) in gate.needles.iter().zip(seen) {
                if !seen {
                    failures.push(format!(
                        "{}: `{}` is in no allowed file",
                        gate.name,
                        needle.name()
                    ));
                }
            }
        }
        if failures.iter().any(|f| f.starts_with(gate.name)) {
            failures.push(format!("{}: {}", gate.name, gate.message));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_stats_increment_shape_is_the_one_the_gate_names() {
    for line in [
        "self.stats.accepted += 1;",
        "    stats.frames_in += n;",
        "net_stats.idle_sleeps += 1",
    ] {
        assert!(bumps_a_stats_field(line), "{line}");
    }
    for line in [
        "self.counters.accepted.inc();",
        "stats.accepted = 1;",
        "stats.accepted+= 1;",
        "stats. += 1;",
        "stats.Accepted += 1;",
        "let stats = server.stats();",
    ] {
        assert!(!bumps_a_stats_field(line), "{line}");
    }
}
