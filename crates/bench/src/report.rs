//! The standard `BENCH_<name>.json` report schema.
//!
//! Every benchmark binary emits one machine-readable report so runs can be
//! diffed across commits. The shape is fixed:
//!
//! ```json
//! {
//!   "name": "fusion",
//!   "config": { "mode": "full", "lineitem_rows": 2000000, ... },
//!   "metrics": { "q6_speedup": 2.1, ... }
//! }
//! ```
//!
//! `config` holds the knobs that shaped the run (sizes, seeds, mode);
//! `metrics` holds what was measured. [`validate`] enforces the schema and
//! the smoke tests run it against every file the binaries emit, so a
//! report that drifts from the contract fails tier-1 rather than silently
//! breaking downstream tooling.

use presto_common::json::Json;
use std::path::{Path, PathBuf};

/// Builder for one benchmark report.
pub struct BenchReport {
    name: &'static str,
    config: Vec<(&'static str, Json)>,
    metrics: Vec<(&'static str, Json)>,
}

impl BenchReport {
    pub fn new(name: &'static str) -> BenchReport {
        BenchReport {
            name,
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// A knob that shaped this run (mode, row counts, seeds, ...).
    pub fn config(mut self, key: &'static str, value: Json) -> BenchReport {
        self.config.push((key, value));
        self
    }

    /// A measured result.
    pub fn metric(mut self, key: &'static str, value: Json) -> BenchReport {
        self.metrics.push((key, value));
        self
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("config", Json::obj(self.config.iter().cloned())),
            ("metrics", Json::obj(self.metrics.iter().cloned())),
        ])
    }

    /// Validate and write `BENCH_<name>.json` into the working directory.
    /// Panics on schema violations — a benchmark that cannot produce a
    /// valid report should fail loudly, not publish garbage.
    pub fn write(self) -> PathBuf {
        let json = self.to_json();
        if let Err(e) = validate(&json) {
            panic!("BENCH_{}.json violates the report schema: {e}", self.name);
        }
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, json.to_string())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        path
    }
}

/// Check one report against the required-keys schema: a top-level object
/// with a non-empty string `name`, an object `config`, and a non-empty
/// object `metrics`.
pub fn validate(json: &Json) -> Result<(), String> {
    let Json::Obj(top) = json else {
        return Err("top level is not an object".into());
    };
    match top.get("name") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        Some(Json::Str(_)) => return Err("'name' is empty".into()),
        Some(_) => return Err("'name' is not a string".into()),
        None => return Err("missing 'name'".into()),
    }
    match top.get("config") {
        Some(Json::Obj(_)) => {}
        Some(_) => return Err("'config' is not an object".into()),
        None => return Err("missing 'config'".into()),
    }
    match top.get("metrics") {
        Some(Json::Obj(m)) if !m.is_empty() => Ok(()),
        Some(Json::Obj(_)) => Err("'metrics' is empty".into()),
        Some(_) => Err("'metrics' is not an object".into()),
        None => Err("missing 'metrics'".into()),
    }
}

/// Parse and validate a report file; returns the parsed report. The smoke
/// tests call this on every `BENCH_*.json` a binary emits.
pub fn validate_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = presto_common::json::Json::parse(&text)
        .map_err(|e| format!("{}: parse error: {e:?}", path.display()))?;
    validate(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(json)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_valid_schema() {
        let json = BenchReport::new("example")
            .config("mode", Json::Str("smoke".into()))
            .config("rows", Json::Int(100))
            .metric("speedup", Json::Num(2.0))
            .to_json();
        validate(&json).unwrap();
        assert_eq!(json.field_str("name").unwrap(), "example");
        assert_eq!(
            json.field("config").unwrap().field_i64("rows").unwrap(),
            100
        );
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        for (text, why) in [
            ("[]", "not an object"),
            ("{}", "missing name"),
            (r#"{"name":"","config":{},"metrics":{"a":1}}"#, "empty name"),
            (r#"{"name":"x","metrics":{"a":1}}"#, "missing config"),
            (r#"{"name":"x","config":{}}"#, "missing metrics"),
            (r#"{"name":"x","config":{},"metrics":{}}"#, "empty metrics"),
            (
                r#"{"name":"x","config":[],"metrics":{"a":1}}"#,
                "config not object",
            ),
        ] {
            let json = Json::parse(text).unwrap();
            assert!(validate(&json).is_err(), "accepted malformed report: {why}");
        }
        let ok = Json::parse(r#"{"name":"x","config":{},"metrics":{"a":1}}"#).unwrap();
        validate(&ok).unwrap();
    }
}
