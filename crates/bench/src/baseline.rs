//! # Persisted per-bench baselines
//!
//! A benchmark number is only meaningful next to the number it is being
//! compared against.  This module defines the schema'd JSON file that holds
//! that reference point — one [`Baseline`] per bench, committed at the
//! workspace root — plus the env metadata stamp ([`EnvMeta`]) that makes any
//! baseline self-describing: which machine shape, which cache geometry, how
//! many samples, which commit.
//!
//! Serialisation is a hand-rolled writer and a minimal recursive-descent JSON
//! reader (objects / arrays / strings / numbers / literals), keeping the
//! bench crate zero-dependency like the rest of the workspace.

use rdx_cache::CacheParams;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Schema version written into every baseline file; bump on breaking layout
/// changes so stale committed baselines fail loudly instead of misparsing.
pub const BASELINE_SCHEMA: u64 = 1;

/// Environment stamp carried by every baseline and bench JSON emitter:
/// enough to tell whether two measurement files are comparable at all.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvMeta {
    /// Logical CPUs visible to the process.
    pub nproc: usize,
    /// Simulated L1 capacity in bytes (from the run's [`CacheParams`]).
    pub l1_bytes: usize,
    /// Simulated last-level capacity in bytes.
    pub l2_bytes: usize,
    /// Simulated TLB entry count.
    pub tlb_entries: usize,
    /// Git commit the numbers were taken at, or `"unknown"`.
    pub commit: String,
    /// Samples per metric (0 for deterministic single-shot metrics).
    pub samples: usize,
}

impl EnvMeta {
    /// Captures the current environment: host parallelism, the simulated
    /// cache geometry in `params`, and the workspace's `HEAD` commit.
    pub fn capture(params: &CacheParams, samples: usize) -> Self {
        EnvMeta {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            l1_bytes: params.l1().capacity,
            l2_bytes: params.last_level().capacity,
            tlb_entries: params.tlb.entries,
            commit: head_commit().unwrap_or_else(|| "unknown".to_string()),
            samples,
        }
    }

    /// Renders this stamp as a JSON object fragment (no trailing comma).
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{indent}\"env\": {{\"nproc\": {}, \"l1_bytes\": {}, \"l2_bytes\": {}, \
             \"tlb_entries\": {}, \"commit\": \"{}\", \"samples\": {}}}",
            self.nproc,
            self.l1_bytes,
            self.l2_bytes,
            self.tlb_entries,
            escape(&self.commit),
            self.samples,
        )
    }
}

/// Resolves the workspace `HEAD` commit by reading `.git` directly — no
/// subprocess, so it works in sandboxes without a `git` binary on `PATH`.
fn head_commit() -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let hash = if let Some(reference) = head.strip_prefix("ref: ") {
        std::fs::read_to_string(root.join(".git").join(reference))
            .ok()?
            .trim()
            .to_string()
    } else {
        head.to_string()
    };
    (hash.len() >= 7 && hash.chars().all(|c| c.is_ascii_hexdigit())).then_some(hash)
}

/// One gated metric inside a baseline: a named scalar with its CI bounds.
/// Deterministic metrics (simulated miss counts) carry `lo == point == hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    /// Stable metric name, e.g. `"decluster.n16384.b8.w2048.l2_misses"`.
    pub name: String,
    /// Unit label, e.g. `"misses"`, `"ms"`, `"cycles"`.
    pub unit: String,
    /// Point estimate (sample median, or the exact deterministic value).
    pub point: f64,
    /// Lower CI bound.
    pub lo: f64,
    /// Upper CI bound.
    pub hi: f64,
}

impl BaselineMetric {
    /// Builds a zero-width metric for a deterministic count.
    pub fn exact(name: impl Into<String>, unit: impl Into<String>, value: f64) -> Self {
        BaselineMetric {
            name: name.into(),
            unit: unit.into(),
            point: value,
            lo: value,
            hi: value,
        }
    }

    /// View as a [`crate::stats::BootstrapCi`] for overlap classification.
    pub fn ci(&self) -> crate::stats::BootstrapCi {
        crate::stats::BootstrapCi {
            point: self.point,
            lo: self.lo,
            hi: self.hi,
            resamples: 0,
            level: 0.95,
        }
    }
}

/// A committed reference point for one bench: schema version, env stamp, and
/// the list of gated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema version (see [`BASELINE_SCHEMA`]).
    pub schema: u64,
    /// Bench name, e.g. `"perf_proxy"`.
    pub bench: String,
    /// Environment the numbers were taken in.
    pub env: EnvMeta,
    /// Gated metrics, in a stable emission order.
    pub metrics: Vec<BaselineMetric>,
}

impl Baseline {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&BaselineMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serialises to the committed JSON layout.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"bench\": \"{}\",", escape(&self.bench));
        out.push_str(&self.env.to_json("  "));
        out.push_str(",\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"point\": {}, \"lo\": {}, \"hi\": {}}}",
                escape(&m.name),
                escape(&m.unit),
                fmt_num(m.point),
                fmt_num(m.lo),
                fmt_num(m.hi),
            );
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the baseline to `path`.
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads and validates a baseline from `path`.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::from_json(&text)
    }

    /// Parses the committed JSON layout, rejecting schema mismatches.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let value = parse_json(text)?;
        let obj = value.as_object().ok_or("baseline root must be an object")?;
        let schema = get_num(obj, "schema")? as u64;
        if schema != BASELINE_SCHEMA {
            return Err(format!(
                "baseline schema {schema} != expected {BASELINE_SCHEMA}; regenerate with --write-baseline"
            ));
        }
        let env_obj = obj
            .get("env")
            .and_then(|v| v.as_object())
            .ok_or("missing env object")?;
        let env = EnvMeta {
            nproc: get_num(env_obj, "nproc")? as usize,
            l1_bytes: get_num(env_obj, "l1_bytes")? as usize,
            l2_bytes: get_num(env_obj, "l2_bytes")? as usize,
            tlb_entries: get_num(env_obj, "tlb_entries")? as usize,
            commit: get_str(env_obj, "commit")?,
            samples: get_num(env_obj, "samples")? as usize,
        };
        let metrics = obj
            .get("metrics")
            .and_then(|v| v.as_array())
            .ok_or("missing metrics array")?
            .iter()
            .map(|v| {
                let m = v.as_object().ok_or("metric must be an object")?;
                Ok(BaselineMetric {
                    name: get_str(m, "name")?,
                    unit: get_str(m, "unit")?,
                    point: get_num(m, "point")?,
                    lo: get_num(m, "lo")?,
                    hi: get_num(m, "hi")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline {
            schema,
            bench: get_str(obj, "bench")?,
            env,
            metrics,
        })
    }
}

/// Formats a number the way the writer emits it: integers bare, fractions
/// with enough digits to round-trip the gate comparisons.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the baseline layout.
// ---------------------------------------------------------------------------

/// A parsed JSON value.  Object keys use a `BTreeMap` so iteration (and the
/// derived `Debug`) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String (escapes resolved).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object view, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Array view, if this value is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Numeric view, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn get_num(obj: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("missing numeric field \"{key}\""))
}

fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field \"{key}\""))
}

/// Parses a complete JSON document, requiring all input to be consumed.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            schema: BASELINE_SCHEMA,
            bench: "perf_proxy".into(),
            env: EnvMeta {
                nproc: 8,
                l1_bytes: 16 * 1024,
                l2_bytes: 512 * 1024,
                tlb_entries: 64,
                commit: "abc123def".into(),
                samples: 0,
            },
            metrics: vec![
                BaselineMetric::exact("decluster.l2_misses", "misses", 1234.0),
                BaselineMetric {
                    name: "pipeline.wall".into(),
                    unit: "ms".into(),
                    point: 10.5,
                    lo: 9.75,
                    hi: 11.25,
                },
            ],
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = sample();
        let parsed = Baseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed, b);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"schema\": 1", "\"schema\": 99");
        let err = Baseline::from_json(&text).unwrap_err();
        assert!(err.contains("schema 99"), "got: {err}");
    }

    #[test]
    fn parser_handles_nested_structures_and_escapes() {
        let v = parse_json(r#"{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x\"y"));
        assert_eq!(obj["b"].as_object().unwrap()["c"], Json::Bool(true));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": }").is_err());
    }

    #[test]
    fn env_capture_reads_real_environment() {
        let env = EnvMeta::capture(&CacheParams::paper_pentium4(), 30);
        assert!(env.nproc >= 1);
        assert_eq!(env.l1_bytes, 16 * 1024);
        assert_eq!(env.l2_bytes, 512 * 1024);
        assert_eq!(env.tlb_entries, 64);
        assert_eq!(env.samples, 30);
        // The repo is git-initialised, so the commit should resolve.
        assert!(env.commit == "unknown" || env.commit.len() >= 7);
    }

    #[test]
    fn exact_metrics_classify_via_zero_width_cis() {
        use crate::stats::{classify, Comparison};
        let base = BaselineMetric::exact("m", "misses", 100.0);
        let worse = BaselineMetric::exact("m", "misses", 101.0);
        let same = BaselineMetric::exact("m", "misses", 100.0);
        assert_eq!(classify(&base.ci(), &worse.ci()), Comparison::Regressed);
        assert_eq!(classify(&base.ci(), &same.ci()), Comparison::Inconclusive);
    }
}
