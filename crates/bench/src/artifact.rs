//! The one artifact writer: every `BENCH_*.json` is built as typed values
//! and rendered here, in one layout. Gates read the typed results the
//! artifact was built from, never its text.
//!
//! The layout: the top level puts one key per line at two spaces, a
//! non-empty top-level array puts one element per line at four spaces, and
//! everything deeper renders inline. Keys keep their insertion order;
//! floats carry a fixed number of decimals; strings go through
//! [`json_escape`]; pre-rendered JSON (registry snapshots, alert timelines)
//! is embedded verbatim.

use std::fmt;

use sfi_telemetry::{json_escape, json_is_valid};

/// One value of an artifact.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any integer.
    Int(i128),
    /// A float rendered with this many decimals.
    Float(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// Pre-rendered JSON, embedded verbatim.
    Raw(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Obj),
}

impl Json {
    /// Pre-rendered JSON text, embedded verbatim.
    pub fn raw(json: impl Into<String>) -> Json {
        Json::Raw(json.into())
    }
}

impl fmt::Display for Json {
    /// The inline rendering: `{"k": v, …}`, `[a, b]`, no line breaks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Raw(text) => f.write_str(text),
            Json::Array(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Object(obj) => write!(f, "{obj}"),
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from!(
    u32 => |n| Json::Int(n.into()),
    u64 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as i128),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
    Obj => |obj| Json::Object(obj),
);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// An object with keys in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `key: value`.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Appends `key: v` with `decimals` decimals.
    pub fn float(self, key: &str, v: f64, decimals: usize) -> Obj {
        self.with(key, Json::Float(v, decimals))
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("\"{}\": {v}", json_escape(k))).collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// One `BENCH_*.json` artifact: `"bench"` first, then `fields` in order.
#[derive(Debug, Clone)]
pub struct Artifact(Obj);

impl Artifact {
    /// The artifact of bench `bench` carrying `fields`.
    pub fn new(bench: &str, fields: Obj) -> Artifact {
        let mut top = Obj::new().with("bench", bench);
        top.0.extend(fields.0);
        Artifact(top)
    }

    /// The artifact's text, in the one layout (module docs).
    pub fn render(&self) -> String {
        let Artifact(Obj(fields)) = self;
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    Json::Array(items) if !items.is_empty() => {
                        let lines: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
                        format!("[\n{}\n  ]", lines.join(",\n"))
                    }
                    _ => value.to_string(),
                };
                format!("  \"{}\": {value}", json_escape(key))
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes the rendered artifact to `path` and prints `wrote <path>`.
    ///
    /// # Panics
    ///
    /// When the rendering is not valid JSON (a malformed raw embedding or a
    /// non-finite float), or the file cannot be written.
    pub fn write(&self, path: &str) {
        let text = self.render();
        assert!(json_is_valid(&text), "{path}: rendered artifact is not valid JSON");
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_one_layout_byte_for_byte() {
        let rows = vec![
            Obj::new().with("name", "a\"b\\c\u{1}").with("ok", true),
            Obj::new().with("nested", Obj::new().with("xs", vec![1u32, 2])).with("no", None::<u64>),
        ];
        let artifact = Artifact::new(
            "golden",
            Obj::new()
                .with("seed", 7u64)
                .float("ratio", 2.0 / 3.0, 3)
                .float("rate", 20_000.4, 0)
                .with("rows", rows)
                .with("empty", Vec::<Json>::new())
                .with("strings", vec!["x", "y"])
                .with("telemetry", Json::raw("{\"counters\": {\"c\": 1}}")),
        );
        let golden = r#"{
  "bench": "golden",
  "seed": 7,
  "ratio": 0.667,
  "rate": 20000,
  "rows": [
    {"name": "a\"b\\c\u0001", "ok": true},
    {"nested": {"xs": [1, 2]}, "no": null}
  ],
  "empty": [],
  "strings": [
    "x",
    "y"
  ],
  "telemetry": {"counters": {"c": 1}}
}
"#;
        assert_eq!(artifact.render(), golden);
        assert!(json_is_valid(golden));
    }
}
