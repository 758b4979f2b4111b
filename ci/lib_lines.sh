#!/usr/bin/env bash
# Prints the library part of a Rust source file: every line above its first
# `#[cfg(test)]`, or the whole file when it has no test module.  The CI lint
# steps and the library-line ladder all cut files this way.
#
#   bash ci/lib_lines.sh crates/exec/src/pipeline.rs | wc -l
exec awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"
