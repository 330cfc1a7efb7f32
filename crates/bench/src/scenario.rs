//! Declarative scenario files: the on-disk form of [`ScenarioSpec`].
//!
//! A scenario file is one campaign workload as JSON — the workload generator
//! and its regime parameters, the population size, `k`, ε, horizon and seed,
//! plus an optional fault plan, an optional membership churn plan, an
//! optional multi-query plan and optional floor overrides. The committed
//! library under `scenarios/` is the *only* definition of the campaign:
//! `experiments --campaign` loads every file ([`load_scenario_dir`]) and runs
//! it through the one cell runner of [`crate::campaign`]. Every file is
//! stored in canonical form and named after its file stem, which is what lets
//! `BENCH_competitive.json` key its cells by name and digest a file's
//! canonical bytes.
//!
//! ## Schema (`topk-scenario/v1`, normative copy in `docs/SCENARIOS.md`)
//!
//! ```json
//! {
//!   "schema": "topk-scenario/v1",
//!   "name": "zipf-n64-k4-e1of10-s240",
//!   "generator": { "family": "zipf", "peak_load": 100000 },
//!   "n": 64,
//!   "k": 4,
//!   "eps": { "num": 1, "den": 10 },
//!   "steps": 240,
//!   "seed": 51772,
//!   "fault": { … optional … },
//!   "membership": { … optional … }
//! }
//! ```
//!
//! ## Schema `topk-scenario/v2`
//!
//! v2 is v1 plus two optional root fields; a v2 loader reads both tags, and
//! the canonical serialiser emits the `v2` tag *only* when one of the new
//! fields is present, so every v1 file stays byte-stable:
//!
//! * `"queries"` — a multi-query plan: a non-empty array of query specs
//!   (`{"k": …, "eps": {…}, "protocol": "…", "subset": [ids…]}`, `subset`
//!   omitted for a full-population query). A scenario with `queries` is run
//!   as one shared-engine multi-query cell instead of the per-protocol loop,
//!   and takes no `fault`/`membership` companion.
//! * `"floors"` — per-scenario floor/ceiling overrides
//!   ([`FloorOverride`]): integer knobs that *tighten* the corresponding bars
//!   of [`FloorTable::STANDARD`](crate::FloorTable) wherever this scenario is
//!   checked — the campaign, its ratchet and `--scenario` alike. Each bar is
//!   the stricter of the standard one and the override, so editing a file
//!   can never loosen a committed gate.
//!
//! Validation is strict and typed: unknown fields anywhere, a missing
//! required field, a wrong JSON type, an unknown generator family,
//! `ε ∉ (0, 1)` or an out-of-range parameter each produce the corresponding
//! [`ScenarioError`] variant, carrying the file and (best-effort) line/column
//! where the offending key sits. Nothing in this module panics on bad input —
//! the loaders re-check every bound the underlying constructors would
//! otherwise `assert!` on.
//!
//! Serialisation is canonical: [`scenario_to_json`] emits keys in a fixed
//! order with fixed formatting, so `parse → serialize` is the identity on
//! library files (a test holds every committed file to that).

use crate::campaign::{GeneratorSpec, MembershipPlanSpec, ProtocolKind, ScenarioSpec};
use crate::floors::{CompetitiveFloors, FloorTable};
use serde::Json;
use std::fmt;
use std::io::Read;
use std::path::Path;
use topk_model::prelude::*;

/// The v1 schema tag (single-query scenarios; emitted whenever no v2 field is
/// present, so pre-existing files stay byte-stable).
pub const SCENARIO_SCHEMA: &str = "topk-scenario/v1";

/// The v2 schema tag (adds the optional `queries` and `floors` root fields).
pub const SCENARIO_SCHEMA_V2: &str = "topk-scenario/v2";

/// Per-scenario overrides of the campaign floor table (`"floors"`, v2).
///
/// Every knob is an integer (the schema has no floats); an absent knob keeps
/// the corresponding bar of [`FloorTable::STANDARD`]. A present knob can only
/// tighten: each bar in force is the stricter of the standard bar and the
/// override, in every mode, so no JSON edit can loosen a committed gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloorOverride {
    /// Caps [`CompetitiveFloors::ceiling_headroom_permille`] (≤ 1000).
    pub ceiling_headroom_permille: Option<u64>,
    /// Caps [`CompetitiveFloors::ceiling_slack_permille`] (≤ 1000).
    pub ceiling_slack_permille: Option<u64>,
    /// Caps every poll-factor bar, stated in permille (500 = the scenario's
    /// protocols must stay under 0.5 × naive polling; 1..=10000).
    pub poll_factor_permille: Option<u64>,
    /// Caps the invalid-step bars of the fault, membership and multi-query
    /// companions, in permille of a cell's steps (≤ 1000). The clean-run bar
    /// stays hard zero.
    pub invalid_fraction_permille: Option<u64>,
}

impl FloorOverride {
    /// The floor table in force for a scenario carrying this override: every
    /// bar the stricter of `base` and the override.
    pub fn apply(&self, mut base: CompetitiveFloors) -> CompetitiveFloors {
        if let Some(v) = self.ceiling_headroom_permille {
            base.ceiling_headroom_permille = base.ceiling_headroom_permille.min(v);
        }
        if let Some(v) = self.ceiling_slack_permille {
            base.ceiling_slack_permille = base.ceiling_slack_permille.min(v);
        }
        if let Some(v) = self.poll_factor_permille {
            let bar = v as f64 / 1000.0;
            base.max_poll_factor = base.max_poll_factor.min(bar);
            base.fault_poll_factor = base.fault_poll_factor.min(bar);
            base.membership_poll_factor = base.membership_poll_factor.min(bar);
        }
        if let Some(v) = self.invalid_fraction_permille {
            base.fault_invalid_fraction_permille = base.fault_invalid_fraction_permille.min(v);
            base.membership_invalid_fraction_permille =
                base.membership_invalid_fraction_permille.min(v);
            base.multiquery_invalid_fraction_permille =
                base.multiquery_invalid_fraction_permille.min(v);
        }
        base
    }
}

/// A parsed scenario file: one workload plus its optional fault/membership
/// companions and (v2) its optional multi-query plan and floor overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// The scenario's name (also its file stem in a library directory).
    pub name: String,
    /// The workload itself.
    pub spec: ScenarioSpec,
    /// Fault plan to run the cell under, if any.
    pub fault: Option<FaultSpec>,
    /// Membership churn plan to run the cell under, if any.
    pub membership: Option<MembershipPlanSpec>,
    /// Multi-query plan (v2): when present the scenario runs as one
    /// shared-engine multi-query cell, and `fault`/`membership` are absent.
    pub queries: Option<Vec<QuerySpec>>,
    /// Per-scenario floor overrides (v2), applied wherever the file is checked.
    pub floors: Option<FloorOverride>,
}

impl ScenarioFile {
    /// The floor table this scenario is checked against: the standard table
    /// with this file's overrides (if any) applied.
    pub fn effective_floors(&self) -> CompetitiveFloors {
        let base = FloorTable::STANDARD.competitive;
        match &self.floors {
            Some(o) => o.apply(base),
            None => base,
        }
    }
}

/// Where in a file an error was found. Lines and columns are 1-based; for
/// field-level errors they point at the first occurrence of the offending
/// key (best effort — the value tree carries no spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// File path (or a synthetic origin like `<inline>`).
    pub origin: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.origin, self.line, self.col)
    }
}

/// Typed validation errors of the scenario loader.
#[derive(Debug)]
pub enum ScenarioError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The text is not well-formed JSON.
    Parse {
        /// Where parsing stopped.
        at: Context,
        /// The parser's message.
        message: String,
    },
    /// The `schema` tag is missing or not a version this loader reads.
    BadSchema {
        /// Where the tag sits (or the file start if absent).
        at: Context,
        /// The tag found, if any.
        found: Option<String>,
    },
    /// An object carries a field the schema does not define.
    UnknownField {
        /// Where the field sits.
        at: Context,
        /// Dotted path of the field (e.g. `generator.peak_load`).
        field: String,
    },
    /// A required field is absent.
    MissingField {
        /// Where the enclosing object sits.
        at: Context,
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field holds a value of the wrong JSON type.
    WrongType {
        /// Where the field sits.
        at: Context,
        /// Dotted path of the field.
        field: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// The generator `family` is not one this build knows.
    UnknownFamily {
        /// Where the family tag sits.
        at: Context,
        /// The unknown family name.
        family: String,
    },
    /// `eps` does not describe an error in `(0, 1)`.
    InvalidEpsilon {
        /// Where the `eps` object sits.
        at: Context,
        /// Offending numerator.
        num: u64,
        /// Offending denominator.
        den: u64,
    },
    /// A value parses but violates a documented bound.
    OutOfRange {
        /// Where the field sits.
        at: Context,
        /// Dotted path of the field.
        field: String,
        /// The violated bound, in words.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, source } => write!(f, "{path}: {source}"),
            ScenarioError::Parse { at, message } => write!(f, "{at}: {message}"),
            ScenarioError::BadSchema { at, found } => match found {
                Some(tag) => write!(
                    f,
                    "{at}: unsupported schema `{tag}` (expected `{SCENARIO_SCHEMA}` or `{SCENARIO_SCHEMA_V2}`)"
                ),
                None => write!(
                    f,
                    "{at}: missing `schema` tag (expected `{SCENARIO_SCHEMA}` or `{SCENARIO_SCHEMA_V2}`)"
                ),
            },
            ScenarioError::UnknownField { at, field } => {
                write!(f, "{at}: unknown field `{field}`")
            }
            ScenarioError::MissingField { at, field } => {
                write!(f, "{at}: missing required field `{field}`")
            }
            ScenarioError::WrongType {
                at,
                field,
                expected,
            } => {
                write!(f, "{at}: field `{field}` must be {expected}")
            }
            ScenarioError::UnknownFamily { at, family } => {
                write!(f, "{at}: unknown generator family `{family}`")
            }
            ScenarioError::InvalidEpsilon { at, num, den } => {
                write!(f, "{at}: eps {num}/{den} is not in (0, 1)")
            }
            ScenarioError::OutOfRange { at, field, message } => {
                write!(f, "{at}: field `{field}` out of range: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Shared parse state: the origin and raw text, for line/column lookup.
struct Loader<'a> {
    origin: &'a str,
    text: &'a str,
}

impl Loader<'_> {
    /// Best-effort context of a dotted field path: the first occurrence of
    /// its last segment as a quoted key.
    fn at(&self, field: &str) -> Context {
        let key = field.rsplit('.').next().unwrap_or(field);
        let quoted = format!("\"{key}\"");
        let byte = self.text.find(&quoted).unwrap_or(0);
        self.at_byte(byte)
    }

    fn at_byte(&self, byte: usize) -> Context {
        let byte = byte.min(self.text.len());
        let before = &self.text[..byte];
        let line = before.matches('\n').count() + 1;
        let col = byte - before.rfind('\n').map_or(0, |i| i + 1) + 1;
        Context {
            origin: self.origin.to_string(),
            line,
            col,
        }
    }

    fn obj<'j>(
        &self,
        json: &'j Json,
        path: &str,
        allowed: &[&str],
        required: &[&str],
    ) -> Result<&'j [(String, Json)], ScenarioError> {
        let Some(pairs) = json.as_object() else {
            return Err(ScenarioError::WrongType {
                at: self.at(path),
                field: path.to_string(),
                expected: "an object",
            });
        };
        for (key, _) in pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(ScenarioError::UnknownField {
                    at: self.at(key),
                    field: join(path, key),
                });
            }
        }
        for key in required {
            if !pairs.iter().any(|(k, _)| k == key) {
                return Err(ScenarioError::MissingField {
                    at: self.at(path),
                    field: join(path, key),
                });
            }
        }
        Ok(pairs)
    }

    fn u64(&self, pairs: &[(String, Json)], path: &str, key: &str) -> Result<u64, ScenarioError> {
        match get(pairs, key) {
            Some(Json::UInt(v)) => Ok(*v),
            _ => Err(ScenarioError::WrongType {
                at: self.at(key),
                field: join(path, key),
                expected: "a non-negative integer",
            }),
        }
    }

    fn usize(
        &self,
        pairs: &[(String, Json)],
        path: &str,
        key: &str,
    ) -> Result<usize, ScenarioError> {
        let raw = self.u64(pairs, path, key)?;
        usize::try_from(raw).map_err(|_| ScenarioError::OutOfRange {
            at: self.at(key),
            field: join(path, key),
            message: format!("{raw} exceeds this platform's usize"),
        })
    }

    fn u32(&self, pairs: &[(String, Json)], path: &str, key: &str) -> Result<u32, ScenarioError> {
        let raw = self.u64(pairs, path, key)?;
        u32::try_from(raw).map_err(|_| ScenarioError::OutOfRange {
            at: self.at(key),
            field: join(path, key),
            message: format!("{raw} exceeds u32"),
        })
    }

    fn permille(
        &self,
        pairs: &[(String, Json)],
        path: &str,
        key: &str,
    ) -> Result<u32, ScenarioError> {
        let v = self.u32(pairs, path, key)?;
        if v > 1000 {
            return Err(ScenarioError::OutOfRange {
                at: self.at(key),
                field: join(path, key),
                message: format!("{v} is a permille probability (at most 1000)"),
            });
        }
        Ok(v)
    }

    fn str<'j>(
        &self,
        pairs: &'j [(String, Json)],
        path: &str,
        key: &str,
    ) -> Result<&'j str, ScenarioError> {
        match get(pairs, key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(ScenarioError::WrongType {
                at: self.at(key),
                field: join(path, key),
                expected: "a string",
            }),
        }
    }

    fn out_of_range(&self, path: &str, key: &str, message: String) -> ScenarioError {
        ScenarioError::OutOfRange {
            at: self.at(key),
            field: join(path, key),
            message,
        }
    }
}

fn get<'j>(pairs: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Parses one scenario from JSON text. `origin` labels errors (a file path,
/// or something like `<inline>` for tests).
///
/// # Errors
///
/// Every [`ScenarioError`] variant except `Io`; see the module docs for the
/// validation rules.
pub fn parse_scenario(text: &str, origin: &str) -> Result<ScenarioFile, ScenarioError> {
    let loader = Loader { origin, text };
    let root: Json = serde_json::from_str(text).map_err(|e| {
        let message = e.to_string();
        // The vendored parser reports positions as "… at byte N".
        let byte = message
            .rsplit("at byte ")
            .next()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0);
        ScenarioError::Parse {
            at: loader.at_byte(byte),
            message,
        }
    })?;
    // The schema tag decides which root fields are legal, so it is read
    // before the strict field check.
    let schema = root
        .as_object()
        .and_then(|pairs| match get(pairs, "schema") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        });
    let v2 = match schema.as_deref() {
        Some(tag) if tag == SCENARIO_SCHEMA => false,
        Some(tag) if tag == SCENARIO_SCHEMA_V2 => true,
        _ => {
            return Err(ScenarioError::BadSchema {
                at: loader.at("schema"),
                found: schema,
            })
        }
    };
    let mut allowed = vec![
        "schema",
        "name",
        "generator",
        "n",
        "k",
        "eps",
        "steps",
        "seed",
        "fault",
        "membership",
    ];
    if v2 {
        allowed.extend(["queries", "floors"]);
    }
    let pairs = loader.obj(
        &root,
        "",
        &allowed,
        &[
            "schema",
            "name",
            "generator",
            "n",
            "k",
            "eps",
            "steps",
            "seed",
        ],
    )?;
    let name = loader.str(pairs, "", "name")?.to_string();
    let n = loader.usize(pairs, "", "n")?;
    let k = loader.usize(pairs, "", "k")?;
    let steps = loader.usize(pairs, "", "steps")?;
    let seed = loader.u64(pairs, "", "seed")?;
    if n == 0 {
        return Err(loader.out_of_range("", "n", "at least one node is required".into()));
    }
    // Every protocol needs a node outside its top k.
    if k == 0 || k >= n {
        return Err(loader.out_of_range("", "k", format!("k must be in 1..n (n = {n})")));
    }
    if steps == 0 {
        return Err(loader.out_of_range("", "steps", "at least one step is required".into()));
    }
    let eps = parse_eps(&loader, pairs)?;
    let generator = parse_generator(&loader, pairs, n, k)?;
    let fault = match get(pairs, "fault") {
        None => None,
        Some(json) => Some(parse_fault(&loader, json)?),
    };
    let membership = match get(pairs, "membership") {
        None => None,
        Some(json) => Some(parse_membership(&loader, json, n)?),
    };
    let queries = match get(pairs, "queries") {
        None => None,
        Some(json) => Some(parse_queries(&loader, json, n)?),
    };
    if queries.is_some() && (fault.is_some() || membership.is_some()) {
        return Err(loader.out_of_range(
            "",
            "queries",
            "a multi-query scenario takes no fault/membership companion".into(),
        ));
    }
    let floors = match get(pairs, "floors") {
        None => None,
        Some(json) => Some(parse_floors(&loader, json)?),
    };
    Ok(ScenarioFile {
        name,
        spec: ScenarioSpec {
            generator,
            n,
            k,
            eps,
            steps,
            seed,
        },
        fault,
        membership,
        queries,
        floors,
    })
}

fn parse_eps(loader: &Loader<'_>, root: &[(String, Json)]) -> Result<Epsilon, ScenarioError> {
    let json = get(root, "eps").expect("required field was checked");
    parse_eps_obj(loader, json, "eps")
}

fn parse_eps_obj(loader: &Loader<'_>, json: &Json, path: &str) -> Result<Epsilon, ScenarioError> {
    let pairs = loader.obj(json, path, &["num", "den"], &["num", "den"])?;
    let num = loader.u64(pairs, path, "num")?;
    let den = loader.u64(pairs, path, "den")?;
    let (num32, den32) = match (u32::try_from(num), u32::try_from(den)) {
        (Ok(n), Ok(d)) => (n, d),
        _ => {
            return Err(ScenarioError::InvalidEpsilon {
                at: loader.at(path),
                num,
                den,
            })
        }
    };
    Epsilon::new(num32, den32).map_err(|_| ScenarioError::InvalidEpsilon {
        at: loader.at(path),
        num,
        den,
    })
}

/// Per-family parameter tables: `(family, allowed-and-required param keys)`.
const FAMILIES: [(&str, &[&str]); 10] = [
    ("zipf", &["peak_load"]),
    ("noise", &["sigma", "z"]),
    ("random-walk", &["delta", "max_step", "move_permille"]),
    ("gap", &["high_base"]),
    ("adversarial", &["sigma", "y0"]),
    ("regime-switch", &["sigma", "z", "segment_len"]),
    (
        "correlated-burst",
        &["base_load", "factor", "group", "burst_permille"],
    ),
    ("churn", &["z", "churn_permille"]),
    ("zipf-web", &["peak_load", "period"]),
    ("noise-field", &["high", "sigma", "z"]),
];

fn parse_generator(
    loader: &Loader<'_>,
    root: &[(String, Json)],
    n: usize,
    k: usize,
) -> Result<GeneratorSpec, ScenarioError> {
    let json = get(root, "generator").expect("required field was checked");
    // First pass: the family tag decides which params are legal.
    let Some(pairs) = json.as_object() else {
        return Err(ScenarioError::WrongType {
            at: loader.at("generator"),
            field: "generator".to_string(),
            expected: "an object",
        });
    };
    let family = match get(pairs, "family") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => {
            return Err(ScenarioError::WrongType {
                at: loader.at("family"),
                field: "generator.family".to_string(),
                expected: "a string",
            })
        }
        None => {
            return Err(ScenarioError::MissingField {
                at: loader.at("generator"),
                field: "generator.family".to_string(),
            })
        }
    };
    let Some((_, params)) = FAMILIES.iter().find(|(f, _)| *f == family) else {
        return Err(ScenarioError::UnknownFamily {
            at: loader.at("family"),
            family: family.to_string(),
        });
    };
    let mut allowed = vec!["family"];
    allowed.extend_from_slice(params);
    let mut required = vec!["family"];
    required.extend_from_slice(params);
    let pairs = loader.obj(json, "generator", &allowed, &required)?;
    let g = "generator";
    let spec = match family {
        "zipf" => GeneratorSpec::Zipf {
            peak_load: loader.u64(pairs, g, "peak_load")?,
        },
        "noise" => GeneratorSpec::Noise {
            sigma: loader.usize(pairs, g, "sigma")?,
            z: loader.u64(pairs, g, "z")?,
        },
        "random-walk" => GeneratorSpec::RandomWalk {
            delta: loader.u64(pairs, g, "delta")?,
            max_step: loader.u64(pairs, g, "max_step")?,
            move_permille: loader.permille(pairs, g, "move_permille")?,
        },
        "gap" => GeneratorSpec::Gap {
            high_base: loader.u64(pairs, g, "high_base")?,
        },
        "adversarial" => {
            let sigma = loader.usize(pairs, g, "sigma")?;
            if sigma <= k || sigma > n {
                return Err(loader.out_of_range(
                    g,
                    "sigma",
                    format!("the adversary needs k < sigma <= n (k = {k}, n = {n})"),
                ));
            }
            GeneratorSpec::Adversarial {
                sigma,
                y0: loader.u64(pairs, g, "y0")?,
            }
        }
        "regime-switch" => {
            let segment_len = loader.u64(pairs, g, "segment_len")?;
            if segment_len == 0 {
                return Err(loader.out_of_range(
                    g,
                    "segment_len",
                    "a regime segment needs at least one step".into(),
                ));
            }
            GeneratorSpec::RegimeSwitch {
                sigma: loader.usize(pairs, g, "sigma")?,
                z: loader.u64(pairs, g, "z")?,
                segment_len,
            }
        }
        "correlated-burst" => {
            let group = loader.usize(pairs, g, "group")?;
            if group == 0 || group > n {
                return Err(loader.out_of_range(
                    g,
                    "group",
                    format!("burst groups must have 1..=n nodes (n = {n})"),
                ));
            }
            GeneratorSpec::CorrelatedBurst {
                base_load: loader.u64(pairs, g, "base_load")?,
                factor: loader.u64(pairs, g, "factor")?,
                group,
                burst_permille: loader.permille(pairs, g, "burst_permille")?,
            }
        }
        "churn" => GeneratorSpec::Churn {
            z: loader.u64(pairs, g, "z")?,
            churn_permille: loader.permille(pairs, g, "churn_permille")?,
        },
        "zipf-web" => {
            let period = loader.u64(pairs, g, "period")?;
            if period == 0 {
                return Err(loader.out_of_range(
                    g,
                    "period",
                    "the seasonal cycle needs at least one step".into(),
                ));
            }
            GeneratorSpec::ZipfWeb {
                peak_load: loader.u64(pairs, g, "peak_load")?,
                period,
            }
        }
        "noise-field" => {
            let high = loader.usize(pairs, g, "high")?;
            let sigma = loader.usize(pairs, g, "sigma")?;
            if sigma == 0 {
                return Err(loader.out_of_range(
                    g,
                    "sigma",
                    "at least one oscillating node is required".into(),
                ));
            }
            if high + sigma > n {
                return Err(loader.out_of_range(
                    g,
                    "sigma",
                    format!("high + sigma must not exceed n (n = {n})"),
                ));
            }
            GeneratorSpec::NoiseField {
                high,
                sigma,
                z: loader.u64(pairs, g, "z")?,
            }
        }
        _ => unreachable!("family table was checked"),
    };
    // Families that oscillate around a pivot need the pivot the generator
    // itself asserts on — re-checked here so a bad file errors, not panics.
    if let GeneratorSpec::Noise { sigma, z } | GeneratorSpec::NoiseField { sigma, z, .. } = spec {
        if z < 16 {
            return Err(loader.out_of_range(g, "z", "pivot must be at least 16".into()));
        }
        if let GeneratorSpec::Noise { .. } = spec {
            if sigma == 0 {
                return Err(loader.out_of_range(
                    g,
                    "sigma",
                    "at least one oscillating node is required".into(),
                ));
            }
            if (k / 2).max(1) + sigma > n {
                return Err(loader.out_of_range(
                    g,
                    "sigma",
                    format!("max(k/2, 1) + sigma must not exceed n (k = {k}, n = {n})"),
                ));
            }
        }
    }
    Ok(spec)
}

fn parse_fault(loader: &Loader<'_>, json: &Json) -> Result<FaultSpec, ScenarioError> {
    let pairs = loader.obj(
        json,
        "fault",
        &[
            "seed",
            "drop_upstream_permille",
            "drop_downstream_permille",
            "reorder_permille",
            "latency",
            "crash",
        ],
        &["seed"],
    )?;
    let f = "fault";
    let mut spec = FaultSpec::none();
    spec.seed = loader.u64(pairs, f, "seed")?;
    if get(pairs, "drop_upstream_permille").is_some() {
        spec.drop_upstream_permille = loader.permille(pairs, f, "drop_upstream_permille")?;
    }
    if get(pairs, "drop_downstream_permille").is_some() {
        spec.drop_downstream_permille = loader.permille(pairs, f, "drop_downstream_permille")?;
    }
    if get(pairs, "reorder_permille").is_some() {
        spec.reorder_permille = loader.permille(pairs, f, "reorder_permille")?;
    }
    if let Some(json) = get(pairs, "latency") {
        spec.latency = parse_latency(loader, json)?;
    }
    if let Some(json) = get(pairs, "crash") {
        let pairs = loader.obj(
            json,
            "fault.crash",
            &["crash_permille", "down_steps", "max_down"],
            &["crash_permille", "down_steps", "max_down"],
        )?;
        let c = "fault.crash";
        let down_steps = loader.u64(pairs, c, "down_steps")?;
        if down_steps == 0 {
            return Err(loader.out_of_range(
                c,
                "down_steps",
                "a crashed node must stay down at least one step".into(),
            ));
        }
        spec.crash = Some(CrashSpec {
            crash_permille: loader.permille(pairs, c, "crash_permille")?,
            down_steps,
            max_down: loader.usize(pairs, c, "max_down")?,
        });
    }
    Ok(spec)
}

fn parse_latency(loader: &Loader<'_>, json: &Json) -> Result<LatencySpec, ScenarioError> {
    let l = "fault.latency";
    let Some(pairs) = json.as_object() else {
        return Err(ScenarioError::WrongType {
            at: loader.at("latency"),
            field: l.to_string(),
            expected: "an object",
        });
    };
    let kind = match get(pairs, "kind") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => {
            return Err(ScenarioError::WrongType {
                at: loader.at("kind"),
                field: join(l, "kind"),
                expected: "a string",
            })
        }
        None => {
            return Err(ScenarioError::MissingField {
                at: loader.at("latency"),
                field: join(l, "kind"),
            })
        }
    };
    match kind {
        "immediate" => {
            loader.obj(json, l, &["kind"], &["kind"])?;
            Ok(LatencySpec::Immediate)
        }
        "fixed" => {
            let pairs = loader.obj(json, l, &["kind", "rounds"], &["kind", "rounds"])?;
            Ok(LatencySpec::Fixed(loader.u32(pairs, l, "rounds")?))
        }
        "uniform" => {
            let pairs = loader.obj(json, l, &["kind", "lo", "hi"], &["kind", "lo", "hi"])?;
            let lo = loader.u32(pairs, l, "lo")?;
            let hi = loader.u32(pairs, l, "hi")?;
            if lo > hi {
                return Err(loader.out_of_range(l, "lo", format!("lo ({lo}) exceeds hi ({hi})")));
            }
            Ok(LatencySpec::Uniform { lo, hi })
        }
        other => Err(ScenarioError::OutOfRange {
            at: loader.at("kind"),
            field: join(l, "kind"),
            message: format!("unknown latency kind `{other}` (immediate, fixed or uniform)"),
        }),
    }
}

fn parse_membership(
    loader: &Loader<'_>,
    json: &Json,
    n: usize,
) -> Result<MembershipPlanSpec, ScenarioError> {
    let pairs = loader.obj(
        json,
        "membership",
        &["seed", "leave_permille", "downtime", "min_live"],
        &["seed", "leave_permille", "downtime", "min_live"],
    )?;
    let m = "membership";
    let downtime = loader.u64(pairs, m, "downtime")?;
    if downtime == 0 {
        return Err(loader.out_of_range(
            m,
            "downtime",
            "a leaver must stay away at least one step".into(),
        ));
    }
    let min_live = loader.usize(pairs, m, "min_live")?;
    if min_live == 0 || min_live > n {
        return Err(loader.out_of_range(
            m,
            "min_live",
            format!("the live floor must be in 1..=n (n = {n})"),
        ));
    }
    Ok(MembershipPlanSpec {
        seed: loader.u64(pairs, m, "seed")?,
        leave_permille: loader.permille(pairs, m, "leave_permille")?,
        downtime,
        min_live,
    })
}

fn parse_queries(
    loader: &Loader<'_>,
    json: &Json,
    n: usize,
) -> Result<Vec<QuerySpec>, ScenarioError> {
    let q = "queries";
    let Some(entries) = json.as_array() else {
        return Err(ScenarioError::WrongType {
            at: loader.at(q),
            field: q.to_string(),
            expected: "an array of query specs",
        });
    };
    if entries.is_empty() {
        return Err(loader.out_of_range("", q, "at least one query is required".into()));
    }
    let mut queries = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let path = format!("queries[{i}]");
        let pairs = loader.obj(
            entry,
            &path,
            &["k", "eps", "protocol", "subset"],
            &["k", "eps", "protocol"],
        )?;
        let k = loader.usize(pairs, &path, "k")?;
        let eps = {
            let json = get(pairs, "eps").expect("required field was checked");
            parse_eps_obj(loader, json, &format!("{path}.eps"))?
        };
        let protocol = loader.str(pairs, &path, "protocol")?.to_string();
        if ProtocolKind::from_name(&protocol).is_none() {
            return Err(loader.out_of_range(
                &path,
                "protocol",
                format!("unknown protocol `{protocol}`"),
            ));
        }
        let subset = match get(pairs, "subset") {
            None => NodeSubset::All,
            Some(Json::Array(ids)) => {
                if ids.is_empty() {
                    return Err(loader.out_of_range(
                        &path,
                        "subset",
                        "a subset query must monitor at least one node".into(),
                    ));
                }
                let mut nodes = Vec::with_capacity(ids.len());
                for id in ids {
                    let Json::UInt(raw) = id else {
                        return Err(ScenarioError::WrongType {
                            at: loader.at("subset"),
                            field: join(&path, "subset"),
                            expected: "an array of node ids (non-negative integers)",
                        });
                    };
                    let id = usize::try_from(*raw)
                        .ok()
                        .filter(|&v| v < n)
                        .ok_or_else(|| {
                            loader.out_of_range(
                                &path,
                                "subset",
                                format!("node id {raw} is outside the population (n = {n})"),
                            )
                        })?;
                    // Strictly ascending: the canonical form is sorted and
                    // deduplicated, so parse → serialize stays the identity.
                    if nodes.last().is_some_and(|&NodeId(prev)| prev >= id) {
                        return Err(loader.out_of_range(
                            &path,
                            "subset",
                            "node ids must be strictly ascending".into(),
                        ));
                    }
                    nodes.push(NodeId(id));
                }
                NodeSubset::Nodes(nodes)
            }
            Some(_) => {
                return Err(ScenarioError::WrongType {
                    at: loader.at("subset"),
                    field: join(&path, "subset"),
                    expected: "an array of node ids (non-negative integers)",
                });
            }
        };
        let subset_size = subset.resolve(n).len();
        if k == 0 || k >= subset_size {
            return Err(loader.out_of_range(
                &path,
                "k",
                format!("k must be in 1..|subset| (|subset| = {subset_size})"),
            ));
        }
        queries.push(QuerySpec {
            k,
            eps,
            protocol,
            subset,
        });
    }
    Ok(queries)
}

fn parse_floors(loader: &Loader<'_>, json: &Json) -> Result<FloorOverride, ScenarioError> {
    let f = "floors";
    let pairs = loader.obj(
        json,
        f,
        &[
            "ceiling_headroom_permille",
            "ceiling_slack_permille",
            "poll_factor_permille",
            "invalid_fraction_permille",
        ],
        &[],
    )?;
    if pairs.is_empty() {
        return Err(loader.out_of_range("", f, "must override at least one bar".into()));
    }
    let mut overrides = FloorOverride::default();
    if get(pairs, "ceiling_headroom_permille").is_some() {
        let v = loader.u64(pairs, f, "ceiling_headroom_permille")?;
        if v > 1000 {
            return Err(loader.out_of_range(
                f,
                "ceiling_headroom_permille",
                format!("{v} is a permille headroom (at most 1000)"),
            ));
        }
        overrides.ceiling_headroom_permille = Some(v);
    }
    if get(pairs, "ceiling_slack_permille").is_some() {
        let v = loader.u64(pairs, f, "ceiling_slack_permille")?;
        if v > 1000 {
            return Err(loader.out_of_range(
                f,
                "ceiling_slack_permille",
                format!("{v} is a permille slack (at most 1000)"),
            ));
        }
        overrides.ceiling_slack_permille = Some(v);
    }
    if get(pairs, "poll_factor_permille").is_some() {
        let v = loader.u64(pairs, f, "poll_factor_permille")?;
        if !(1..=10_000).contains(&v) {
            return Err(loader.out_of_range(
                f,
                "poll_factor_permille",
                format!("{v} must be in 1..=10000 (a permille poll-factor bound)"),
            ));
        }
        overrides.poll_factor_permille = Some(v);
    }
    if get(pairs, "invalid_fraction_permille").is_some() {
        let v = loader.u64(pairs, f, "invalid_fraction_permille")?;
        if v > 1000 {
            return Err(loader.out_of_range(
                f,
                "invalid_fraction_permille",
                format!("{v} is a permille fraction (at most 1000)"),
            ));
        }
        overrides.invalid_fraction_permille = Some(v);
    }
    Ok(overrides)
}

// ---------------------------------------------------------------------------
// Canonical serialisation
// ---------------------------------------------------------------------------

fn uint(v: u64) -> Json {
    Json::UInt(v)
}

fn generator_json(generator: &GeneratorSpec) -> Json {
    let mut pairs = vec![("family".to_string(), Json::Str(generator.family().into()))];
    let mut push = |key: &str, v: u64| pairs.push((key.to_string(), uint(v)));
    match *generator {
        GeneratorSpec::Zipf { peak_load } => push("peak_load", peak_load),
        GeneratorSpec::Noise { sigma, z } => {
            push("sigma", sigma as u64);
            push("z", z);
        }
        GeneratorSpec::RandomWalk {
            delta,
            max_step,
            move_permille,
        } => {
            push("delta", delta);
            push("max_step", max_step);
            push("move_permille", u64::from(move_permille));
        }
        GeneratorSpec::Gap { high_base } => push("high_base", high_base),
        GeneratorSpec::Adversarial { sigma, y0 } => {
            push("sigma", sigma as u64);
            push("y0", y0);
        }
        GeneratorSpec::RegimeSwitch {
            sigma,
            z,
            segment_len,
        } => {
            push("sigma", sigma as u64);
            push("z", z);
            push("segment_len", segment_len);
        }
        GeneratorSpec::CorrelatedBurst {
            base_load,
            factor,
            group,
            burst_permille,
        } => {
            push("base_load", base_load);
            push("factor", factor);
            push("group", group as u64);
            push("burst_permille", u64::from(burst_permille));
        }
        GeneratorSpec::Churn { z, churn_permille } => {
            push("z", z);
            push("churn_permille", u64::from(churn_permille));
        }
        GeneratorSpec::ZipfWeb { peak_load, period } => {
            push("peak_load", peak_load);
            push("period", period);
        }
        GeneratorSpec::NoiseField { high, sigma, z } => {
            push("high", high as u64);
            push("sigma", sigma as u64);
            push("z", z);
        }
    }
    Json::Object(pairs)
}

fn latency_json(latency: &LatencySpec) -> Json {
    let pairs = match *latency {
        LatencySpec::Immediate => vec![("kind".to_string(), Json::Str("immediate".into()))],
        LatencySpec::Fixed(rounds) => vec![
            ("kind".to_string(), Json::Str("fixed".into())),
            ("rounds".to_string(), uint(u64::from(rounds))),
        ],
        LatencySpec::Uniform { lo, hi } => vec![
            ("kind".to_string(), Json::Str("uniform".into())),
            ("lo".to_string(), uint(u64::from(lo))),
            ("hi".to_string(), uint(u64::from(hi))),
        ],
    };
    Json::Object(pairs)
}

fn fault_json(fault: &FaultSpec) -> Json {
    let mut pairs = vec![("seed".to_string(), uint(fault.seed))];
    // Zero-valued axes are omitted: the parser defaults them, and the files
    // stay readable (a latency-only plan shows only its latency).
    if fault.drop_upstream_permille > 0 {
        pairs.push((
            "drop_upstream_permille".to_string(),
            uint(u64::from(fault.drop_upstream_permille)),
        ));
    }
    if fault.drop_downstream_permille > 0 {
        pairs.push((
            "drop_downstream_permille".to_string(),
            uint(u64::from(fault.drop_downstream_permille)),
        ));
    }
    if fault.reorder_permille > 0 {
        pairs.push((
            "reorder_permille".to_string(),
            uint(u64::from(fault.reorder_permille)),
        ));
    }
    // Structural, not semantic, comparison: `Fixed(0)` behaves like
    // `Immediate` but must survive the round trip unchanged.
    if fault.latency != LatencySpec::Immediate {
        pairs.push(("latency".to_string(), latency_json(&fault.latency)));
    }
    if let Some(crash) = fault.crash {
        pairs.push((
            "crash".to_string(),
            Json::Object(vec![
                (
                    "crash_permille".to_string(),
                    uint(u64::from(crash.crash_permille)),
                ),
                ("down_steps".to_string(), uint(crash.down_steps)),
                ("max_down".to_string(), uint(crash.max_down as u64)),
            ]),
        ));
    }
    Json::Object(pairs)
}

fn queries_json(queries: &[QuerySpec]) -> Json {
    Json::Array(
        queries
            .iter()
            .map(|q| {
                let mut pairs = vec![
                    ("k".to_string(), uint(q.k as u64)),
                    (
                        "eps".to_string(),
                        Json::Object(vec![
                            ("num".to_string(), uint(u64::from(q.eps.numerator()))),
                            ("den".to_string(), uint(u64::from(q.eps.denominator()))),
                        ]),
                    ),
                    ("protocol".to_string(), Json::Str(q.protocol.clone())),
                ];
                if let NodeSubset::Nodes(nodes) = &q.subset {
                    pairs.push((
                        "subset".to_string(),
                        Json::Array(nodes.iter().map(|id| uint(id.index() as u64)).collect()),
                    ));
                }
                Json::Object(pairs)
            })
            .collect(),
    )
}

fn floors_json(floors: &FloorOverride) -> Json {
    let mut pairs = Vec::new();
    let mut push = |key: &str, v: Option<u64>| {
        if let Some(v) = v {
            pairs.push((key.to_string(), uint(v)));
        }
    };
    push(
        "ceiling_headroom_permille",
        floors.ceiling_headroom_permille,
    );
    push("ceiling_slack_permille", floors.ceiling_slack_permille);
    push("poll_factor_permille", floors.poll_factor_permille);
    push(
        "invalid_fraction_permille",
        floors.invalid_fraction_permille,
    );
    Json::Object(pairs)
}

/// Serialises a scenario to its canonical JSON text (fixed key order, pretty
/// two-space indentation, trailing newline). `parse_scenario` of the result
/// reproduces `file` exactly. The `v2` tag is emitted only when a v2 field
/// (`queries`, `floors`) is present, so v1 files stay byte-stable.
pub fn scenario_to_json(file: &ScenarioFile) -> String {
    let spec = &file.spec;
    let schema = if file.queries.is_some() || file.floors.is_some() {
        SCENARIO_SCHEMA_V2
    } else {
        SCENARIO_SCHEMA
    };
    let mut pairs = vec![
        ("schema".to_string(), Json::Str(schema.into())),
        ("name".to_string(), Json::Str(file.name.clone())),
        ("generator".to_string(), generator_json(&spec.generator)),
        ("n".to_string(), uint(spec.n as u64)),
        ("k".to_string(), uint(spec.k as u64)),
        (
            "eps".to_string(),
            Json::Object(vec![
                ("num".to_string(), uint(u64::from(spec.eps.numerator()))),
                ("den".to_string(), uint(u64::from(spec.eps.denominator()))),
            ]),
        ),
        ("steps".to_string(), uint(spec.steps as u64)),
        ("seed".to_string(), uint(spec.seed)),
    ];
    if let Some(fault) = &file.fault {
        pairs.push(("fault".to_string(), fault_json(fault)));
    }
    if let Some(plan) = &file.membership {
        pairs.push((
            "membership".to_string(),
            Json::Object(vec![
                ("seed".to_string(), uint(plan.seed)),
                (
                    "leave_permille".to_string(),
                    uint(u64::from(plan.leave_permille)),
                ),
                ("downtime".to_string(), uint(plan.downtime)),
                ("min_live".to_string(), uint(plan.min_live as u64)),
            ]),
        ));
    }
    if let Some(queries) = &file.queries {
        pairs.push(("queries".to_string(), queries_json(queries)));
    }
    if let Some(floors) = &file.floors {
        pairs.push(("floors".to_string(), floors_json(floors)));
    }
    let mut text =
        serde_json::to_string_pretty(&Json::Object(pairs)).expect("serialisation is infallible");
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// File and directory loading
// ---------------------------------------------------------------------------

/// Loads and validates one scenario file.
///
/// # Errors
///
/// [`ScenarioError::Io`] if the file cannot be read, else any parse or
/// validation error from [`parse_scenario`].
pub fn load_scenario(path: &Path) -> Result<ScenarioFile, ScenarioError> {
    let origin = path.display().to_string();
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|source| ScenarioError::Io {
            path: origin.clone(),
            source,
        })?;
    parse_scenario(&text, &origin)
}

/// Loads every `*.json` file of a directory, sorted by file name — for
/// `scenarios/`, the whole campaign.
///
/// # Errors
///
/// [`ScenarioError::Io`] if the directory cannot be listed, else the first
/// failing file's error.
pub fn load_scenario_dir(dir: &Path) -> Result<Vec<ScenarioFile>, ScenarioError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|source| ScenarioError::Io {
            path: dir.display().to_string(),
            source,
        })?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_scenario(p)).collect()
}

/// The committed `scenarios/` library, loaded from the source tree.
#[cfg(test)]
pub(crate) fn committed_library() -> Vec<ScenarioFile> {
    load_scenario_dir(&committed_library_dir()).expect("the committed library loads")
}

#[cfg(test)]
fn committed_library_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn library_file(name: &str) -> ScenarioFile {
        committed_library()
            .into_iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("scenarios/{name}.json is committed"))
    }

    /// The `load_balancer` example: a v1 file every malformation test edits.
    fn load_balancer() -> String {
        scenario_to_json(&library_file("load_balancer"))
    }

    /// Deterministic derivation of a *valid* scenario from a few integers,
    /// sweeping every generator family and both optional companions.
    fn scenario_from(sel: u8, x: u64, y: u64) -> ScenarioFile {
        let n = 8 + (x % 64) as usize;
        let k = 1 + (y % 4) as usize;
        let eps = Epsilon::new(1 + (x % 8) as u32, 10 + (y % 90) as u32)
            .expect("num in 1..=8 < den in 10..=99");
        let generator = match sel % 10 {
            0 => GeneratorSpec::Zipf {
                peak_load: x % 1_000_000,
            },
            1 => GeneratorSpec::Noise {
                sigma: 1 + (y % (n - (k / 2).max(1)) as u64) as usize,
                z: 16 + x % 1_000_000,
            },
            2 => GeneratorSpec::RandomWalk {
                delta: x % 1_000_000,
                max_step: y % 10_000,
                move_permille: (x % 1001) as u32,
            },
            3 => GeneratorSpec::Gap {
                high_base: x % 1_000_000,
            },
            4 => GeneratorSpec::Adversarial {
                sigma: k + 1 + (x % (n - k) as u64) as usize,
                y0: 16 + y % 1_000_000,
            },
            5 => GeneratorSpec::RegimeSwitch {
                sigma: 1 + (y % (n - (k / 2).max(1)) as u64) as usize,
                z: 16 + x % 1_000_000,
                segment_len: 1 + y % 50,
            },
            6 => GeneratorSpec::CorrelatedBurst {
                base_load: 1 + x % 10_000,
                factor: 2 + y % 10,
                group: 1 + (x % n as u64) as usize,
                burst_permille: (y % 1001) as u32,
            },
            7 => GeneratorSpec::Churn {
                z: 16 + y % 1_000_000,
                churn_permille: (x % 1001) as u32,
            },
            8 => GeneratorSpec::ZipfWeb {
                peak_load: x % 1_000_000,
                period: 1 + y % 600,
            },
            _ => {
                let high = (x % (n as u64 - 1)) as usize;
                GeneratorSpec::NoiseField {
                    high,
                    sigma: 1 + (y % (n - high) as u64) as usize,
                    z: 16 + x % 1_000_000,
                }
            }
        };
        let fault = (sel & 0x10 != 0).then(|| {
            let mut spec = FaultSpec::none();
            spec.seed = x.wrapping_mul(31).wrapping_add(y);
            spec.drop_upstream_permille = (x % 1001) as u32;
            spec.drop_downstream_permille = (y % 1001) as u32;
            spec.reorder_permille = ((x ^ y) % 1001) as u32;
            spec.latency = match y % 3 {
                0 => LatencySpec::Immediate,
                1 => LatencySpec::Fixed((x % 5) as u32),
                _ => LatencySpec::Uniform {
                    lo: (x % 3) as u32,
                    hi: (x % 3 + y % 4) as u32,
                },
            };
            spec.crash = (y % 2 == 0).then_some(CrashSpec {
                crash_permille: (x % 200) as u32,
                down_steps: y % 20 + 1,
                max_down: 1 + (x % 8) as usize,
            });
            spec
        });
        let membership = (sel & 0x20 != 0 && fault.is_none()).then(|| MembershipPlanSpec {
            seed: y.wrapping_mul(37).wrapping_add(x),
            leave_permille: (y % 1001) as u32,
            downtime: 1 + x % 10,
            min_live: 1 + (y % n as u64) as usize,
        });
        let queries = (sel & 0x40 != 0 && fault.is_none() && membership.is_none()).then(|| {
            let protocols = [
                "exact_topk",
                "topk_protocol",
                "dense",
                "combined",
                "half_eps",
            ];
            (0..1 + (x % 3) as usize)
                .map(|i| {
                    // At least two nodes, and k below the subset size.
                    let subset = if (y >> i) & 1 == 0 {
                        NodeSubset::All
                    } else {
                        let start = (x as usize).wrapping_add(i) % (n - 1);
                        NodeSubset::range(start, 2 + (y as usize).wrapping_add(i) % (n - start - 1))
                    };
                    let size = subset.resolve(n).len();
                    QuerySpec {
                        k: 1 + (x as usize).wrapping_add(i) % (size - 1),
                        eps,
                        protocol: protocols[(y as usize + i) % protocols.len()].to_string(),
                        subset,
                    }
                })
                .collect::<Vec<_>>()
        });
        let floors = (sel & 0x80 != 0).then(|| FloorOverride {
            ceiling_headroom_permille: (x % 2 == 0).then_some(y % 1001),
            ceiling_slack_permille: (y % 2 == 0).then_some(x % 1001),
            // Always present: the schema rejects an empty override object.
            poll_factor_permille: Some(1 + (x ^ y) % 10_000),
            invalid_fraction_permille: (x % 3 == 0).then_some(y % 1001),
        });
        ScenarioFile {
            name: format!("prop-{}", x % 1000),
            spec: ScenarioSpec {
                generator,
                n,
                k,
                eps,
                steps: 1 + (x % 300) as usize,
                seed: x ^ y,
            },
            fault,
            membership,
            queries,
            floors,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary valid scenario → serialize → parse == original, and the
        /// canonical text is a fixed point of the round trip.
        #[test]
        fn arbitrary_scenarios_round_trip(
            sel in 0u8..255,
            x in 0u64..u64::MAX,
            y in 0u64..u64::MAX,
        ) {
            let file = scenario_from(sel, x, y);
            let text = scenario_to_json(&file);
            let back = parse_scenario(&text, "<prop>").expect("canonical text must parse");
            prop_assert_eq!(&back, &file);
            prop_assert_eq!(scenario_to_json(&back), text);
        }
    }

    #[test]
    fn canonical_files_round_trip_exactly() {
        // The committed library is what the campaign report keys and digests,
        // so every file must load, be canonical byte for byte, and be named
        // after its (therefore unique) file stem.
        let mut names = std::collections::BTreeSet::new();
        let mut paths: Vec<_> = std::fs::read_dir(committed_library_dir())
            .expect("scenarios/ is listable")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty());
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("readable file");
            let file = load_scenario(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                scenario_to_json(&file),
                text,
                "{} is not in canonical form",
                path.display()
            );
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 stem");
            assert_eq!(
                file.name,
                stem,
                "{}: name must equal the file stem",
                path.display()
            );
            assert!(names.insert(file.name), "duplicate name {stem}");
        }
    }

    #[test]
    fn v2_tag_is_emitted_exactly_when_a_v2_field_is_present() {
        let library = committed_library();
        let v1 = library.iter().find(|f| f.name == "load_balancer").unwrap();
        assert!(scenario_to_json(v1).contains(SCENARIO_SCHEMA));
        let mq = library
            .iter()
            .find(|f| f.queries.is_some())
            .expect("the library carries query plans");
        assert!(scenario_to_json(mq).contains(SCENARIO_SCHEMA_V2));
        let floored = library
            .iter()
            .find(|f| f.floors.is_some())
            .expect("the library carries the floor-override showcase");
        assert!(scenario_to_json(floored).contains(SCENARIO_SCHEMA_V2));
    }

    #[test]
    fn v1_files_reject_the_v2_fields() {
        // The v2 root fields under a v1 tag are unknown fields, not silently
        // ignored extensions.
        let text = load_balancer().replace(
            "\"seed\": 99",
            "\"seed\": 99,\n  \"floors\": {\"poll_factor_permille\": 500}",
        );
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::UnknownField { field, .. }) if field == "floors"
        ));
    }

    #[test]
    fn multiquery_scenarios_validate_their_plan() {
        let mq = committed_library()
            .into_iter()
            .find(|f| f.queries.is_some())
            .unwrap();
        let canonical = scenario_to_json(&mq);
        // Unknown protocol.
        let text = canonical.replace("\"topk_protocol\"", "\"topk_oracle\"");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field.ends_with(".protocol")
        ));
        // A query cannot ask for more positions than its subset holds.
        let text = canonical.replace("\"k\": 4,", "\"k\": 400,");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "k" || field.ends_with("].k")
        ));
        // No fault/membership companion next to a query plan.
        let text = canonical.replace("\"queries\"", "\"fault\": {\"seed\": 1},\n  \"queries\"");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "queries"
        ));
    }

    #[test]
    fn subset_ids_must_be_ascending_and_in_range() {
        let mq = committed_library()
            .into_iter()
            .find(|f| f.name.starts_with("mq-disjoint"))
            .unwrap();
        let canonical = scenario_to_json(&mq);
        let text = canonical.replace("[\n        0,", "[\n        1,");
        match parse_scenario(&text, "<inline>") {
            Err(ScenarioError::OutOfRange { field, message, .. }) => {
                assert!(field.ends_with(".subset"), "{field}");
                assert!(message.contains("ascending"), "{message}");
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        let text = canonical.replace("\n        63\n", "\n        64\n");
        match parse_scenario(&text, "<inline>") {
            Err(ScenarioError::OutOfRange { field, message, .. }) => {
                assert!(field.ends_with(".subset"), "{field}");
                assert!(message.contains("outside the population"), "{message}");
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn floor_overrides_are_bounded_and_non_empty() {
        let floored = library_file("gap-tight-floors");
        let canonical = scenario_to_json(&floored);
        let text = canonical.replace(
            "\"poll_factor_permille\": 500",
            "\"poll_factor_permille\": 0",
        );
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "floors.poll_factor_permille"
        ));
        let text = canonical.replace("{\n    \"poll_factor_permille\": 500\n  }", "{}");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "floors"
        ));
        let text = canonical.replace(
            "\"poll_factor_permille\": 500",
            "\"ceiling_headroom_permille\": 1001",
        );
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. })
                if field == "floors.ceiling_headroom_permille"
        ));
    }

    #[test]
    fn floor_overrides_apply_onto_the_standard_table() {
        let floored = library_file("gap-tight-floors");
        let floors = floored.effective_floors();
        let standard = crate::FloorTable::STANDARD.competitive;
        assert!((floors.max_poll_factor - 0.5).abs() < 1e-9);
        // Untouched bars keep their standard values.
        assert_eq!(
            floors.ceiling_headroom_permille,
            standard.ceiling_headroom_permille
        );
        assert_eq!(floors.max_invalid_steps, standard.max_invalid_steps);
        // The override caps the companion poll bars too.
        assert!(floors.fault_poll_factor <= 0.5 && floors.membership_poll_factor <= 0.5);
        // An override can only tighten: a looser knob leaves the bar as is.
        let loose = FloorOverride {
            ceiling_headroom_permille: Some(1000),
            ceiling_slack_permille: Some(1000),
            poll_factor_permille: Some(10_000),
            invalid_fraction_permille: Some(1000),
        };
        assert_eq!(loose.apply(standard), standard);
    }

    #[test]
    fn unknown_fields_are_rejected_with_context() {
        let mut text = load_balancer();
        text = text.replace("\"seed\": 99", "\"seed\": 99,\n  \"sede\": 7");
        match parse_scenario(&text, "bad.json") {
            Err(ScenarioError::UnknownField { at, field }) => {
                assert_eq!(field, "sede");
                assert_eq!(at.origin, "bad.json");
                assert!(at.line > 1, "line context must point into the file");
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn unknown_generator_params_are_rejected() {
        let text = load_balancer().replace("\"period\": 500", "\"period\": 500,\n    \"skew\": 2");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::UnknownField { field, .. }) if field == "generator.skew"
        ));
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        let text = load_balancer().replace("  \"steps\": 600,\n", "");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::MissingField { field, .. }) if field == "steps"
        ));
    }

    #[test]
    fn unknown_families_are_rejected() {
        let text = load_balancer().replace("\"zipf-web\"", "\"zipf-galaxy\"");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::UnknownFamily { family, .. }) if family == "zipf-galaxy"
        ));
    }

    #[test]
    fn out_of_unit_interval_epsilons_are_rejected() {
        for (num, den) in [(0u64, 10u64), (10, 10), (11, 10), (1, 0)] {
            let text = load_balancer().replace(
                "\"num\": 1,\n    \"den\": 10",
                &format!("\"num\": {num},\n    \"den\": {den}"),
            );
            match parse_scenario(&text, "<inline>") {
                Err(ScenarioError::InvalidEpsilon { num: n, den: d, .. }) => {
                    assert_eq!((n, d), (num, den));
                }
                other => panic!("eps {num}/{den}: expected InvalidEpsilon, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_types_and_trailing_garbage_are_rejected() {
        let canonical = load_balancer();
        let text = canonical.replace("\"n\": 64", "\"n\": \"lots\"");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::WrongType { field, .. }) if field == "n"
        ));
        let text = canonical.replace("\"n\": 64", "\"n\": -3");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::WrongType { field, .. }) if field == "n"
        ));
        let mut text = canonical.clone();
        text.push_str("garbage");
        match parse_scenario(&text, "<inline>") {
            Err(ScenarioError::Parse { message, .. }) => {
                assert!(message.contains("trailing"), "{message}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let text = "{\n  \"schema\": \"topk-scenario/v1\",\n  \"name\": oops\n}";
        match parse_scenario(text, "broken.json") {
            Err(ScenarioError::Parse { at, .. }) => {
                assert_eq!(at.origin, "broken.json");
                assert_eq!(at.line, 3, "the bad token sits on line 3");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn schema_skew_is_a_typed_error() {
        let text = load_balancer().replace(SCENARIO_SCHEMA, "topk-scenario/v9");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::BadSchema { found: Some(tag), .. }) if tag == "topk-scenario/v9"
        ));
    }

    #[test]
    fn k_must_leave_a_node_outside_the_top_k() {
        // Every protocol asserts k < n at its first step, so k = n (and
        // k = |subset| for a query) is a load error, not a run-time panic.
        let canonical = load_balancer();
        let text = canonical.replace("\"k\": 8", "\"k\": 64");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, message, .. })
                if field == "k" && message.contains("1..n")
        ));
        let below = canonical.replace("\"k\": 8", "\"k\": 63");
        assert!(parse_scenario(&below, "<inline>").is_ok());
        let query = |k: usize| {
            canonical
                .replace(SCENARIO_SCHEMA, SCENARIO_SCHEMA_V2)
                .replace(
                    "\"seed\"",
                    &format!(
                        "\"queries\": [{{\"k\": {k}, \"eps\": {{\"num\": 1, \"den\": 10}}, \
                     \"protocol\": \"topk_protocol\", \"subset\": [0, 1, 2, 3]}}],\n  \"seed\""
                    ),
                )
        };
        assert!(matches!(
            parse_scenario(&query(4), "<inline>"),
            Err(ScenarioError::OutOfRange { field, message, .. })
                if field.ends_with("].k") && message.contains("1..|subset|")
        ));
        assert!(parse_scenario(&query(3), "<inline>").is_ok());
    }

    #[test]
    fn out_of_range_bounds_error_instead_of_panicking() {
        let canonical = load_balancer();
        // k > n
        let text = canonical.replace("\"k\": 8", "\"k\": 65");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "k"
        ));
        // a permille probability over 1000
        let churn = scenario_to_json(&ScenarioFile {
            name: "x".into(),
            spec: ScenarioSpec {
                generator: GeneratorSpec::Churn {
                    z: 1 << 18,
                    churn_permille: 80,
                },
                n: 24,
                k: 4,
                eps: Epsilon::TENTH,
                steps: 10,
                seed: 1,
            },
            fault: None,
            membership: None,
            queries: None,
            floors: None,
        });
        let text = churn.replace("\"churn_permille\": 80", "\"churn_permille\": 1001");
        assert!(matches!(
            parse_scenario(&text, "<inline>"),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "generator.churn_permille"
        ));
    }

    #[test]
    fn loaded_scenarios_build_their_workloads() {
        // Every library entry must instantiate its generator (and companions)
        // without panicking — the loader's bounds are sufficient.
        for file in committed_library() {
            let spec = &file.spec;
            let _ = spec
                .generator
                .build(spec.n, spec.k, spec.eps, spec.seed)
                .as_ref();
            if let Some(plan) = &file.membership {
                let _ = plan.build(spec.n, spec.steps as u64);
            }
            if let Some(fault) = &file.fault {
                fault.validate();
            }
        }
    }
}
