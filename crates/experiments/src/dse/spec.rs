//! Declarative sweep specifications: parse, validate, expand.
//!
//! A spec is a whitespace-separated list of `key=value` tokens:
//!
//! ```text
//! base=mega rob=32..128:32 width=2,4 scheme=baseline,stt-issue threat=both replicates=3
//! ```
//!
//! Axis values are comma lists of unsigned integers and/or inclusive
//! `a..b[:step]` ranges; values are sorted and deduplicated, so two specs
//! naming the same design points in a different order are the *same* spec
//! (identical canonical string, identical sweep fingerprint). `preset=boom`
//! expands to the paper's four Table 1 configurations instead of a
//! generated cross product. There is no MSHR axis: misses in this model
//! are unbounded in flight, and `mem-ports` is the memory-level-parallelism
//! knob (it also bounds the secure schemes' broadcast bandwidth).

use sb_core::{Scheme, ThreatModel};
use sb_uarch::CoreConfig;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Hard cap on expanded `(config, scheme, threat)` points — a typo like
/// `rob=1..4096` must fail loudly instead of scheduling a month of work.
pub(crate) const MAX_POINTS: usize = 4096;

/// Replicate ceiling: enough for tight confidence intervals, small enough
/// that `replicates=300` is caught as the typo it almost certainly is.
pub(crate) const MAX_REPLICATES: usize = 32;

/// Why a sweep specification was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A token's key is not a recognized knob.
    UnknownKey(String),
    /// The same key appeared twice.
    DuplicateKey(String),
    /// A value failed to parse for its key.
    BadValue {
        /// Offending key.
        key: String,
        /// Offending raw value.
        value: String,
        /// What was wrong with it.
        why: String,
    },
    /// Mutually exclusive tokens were combined (e.g. `preset=` with axes).
    Conflict(String),
    /// An expanded configuration violates a core invariant.
    Invalid(String),
    /// The cross product is larger than [`MAX_POINTS`].
    TooManyPoints {
        /// Expanded point count.
        points: usize,
        /// The cap.
        max: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownKey(k) => write!(
                f,
                "unknown sweep key '{k}' (axes: {}; also base, preset, scheme, \
                 threat, replicates)",
                Axis::ALL
                    .iter()
                    .map(|a| a.key())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            SpecError::DuplicateKey(k) => write!(f, "sweep key '{k}' given twice"),
            SpecError::BadValue { key, value, why } => {
                write!(f, "invalid value for {key}: '{value}' ({why})")
            }
            SpecError::Conflict(msg) => write!(f, "conflicting sweep tokens: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid sweep point: {msg}"),
            SpecError::TooManyPoints { points, max } => {
                write!(f, "sweep expands to {points} points (cap {max})")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A sweepable configuration knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Reorder-buffer entries.
    Rob,
    /// Fetch/decode/rename/commit width.
    Width,
    /// Memory ports (also RTL broadcast bandwidth — the MLP knob).
    MemPorts,
    /// Issue-queue entries.
    Iq,
    /// Load-queue entries.
    Lq,
    /// Store-queue entries.
    Sq,
    /// Physical registers.
    PhysRegs,
    /// Branch tags.
    BrTags,
    /// L1D sets (power of two).
    L1Sets,
    /// L1D associativity.
    L1Ways,
    /// L2 sets (power of two).
    L2Sets,
    /// L2 associativity.
    L2Ways,
    /// L1 prefetch degree (0 disables).
    L1Prefetch,
    /// L2 prefetch degree (0 disables).
    L2Prefetch,
}

impl Axis {
    /// Every axis, in canonical (spec and name-mangling) order.
    pub const ALL: [Axis; 14] = [
        Axis::Rob,
        Axis::Width,
        Axis::MemPorts,
        Axis::Iq,
        Axis::Lq,
        Axis::Sq,
        Axis::PhysRegs,
        Axis::BrTags,
        Axis::L1Sets,
        Axis::L1Ways,
        Axis::L2Sets,
        Axis::L2Ways,
        Axis::L1Prefetch,
        Axis::L2Prefetch,
    ];

    /// The spec-grammar key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Axis::Rob => "rob",
            Axis::Width => "width",
            Axis::MemPorts => "mem-ports",
            Axis::Iq => "iq",
            Axis::Lq => "lq",
            Axis::Sq => "sq",
            Axis::PhysRegs => "phys-regs",
            Axis::BrTags => "br-tags",
            Axis::L1Sets => "l1-sets",
            Axis::L1Ways => "l1-ways",
            Axis::L2Sets => "l2-sets",
            Axis::L2Ways => "l2-ways",
            Axis::L1Prefetch => "l1-prefetch",
            Axis::L2Prefetch => "l2-prefetch",
        }
    }

    /// Short tag used in derived configuration names.
    fn tag(self) -> &'static str {
        match self {
            Axis::Rob => "rob",
            Axis::Width => "w",
            Axis::MemPorts => "mp",
            Axis::Iq => "iq",
            Axis::Lq => "lq",
            Axis::Sq => "sq",
            Axis::PhysRegs => "prf",
            Axis::BrTags => "bt",
            Axis::L1Sets => "l1s",
            Axis::L1Ways => "l1w",
            Axis::L2Sets => "l2s",
            Axis::L2Ways => "l2w",
            Axis::L1Prefetch => "l1pf",
            Axis::L2Prefetch => "l2pf",
        }
    }

    /// Sets this axis's knob of `config` to `v`, unchecked: the result may
    /// fail [`CoreConfig::check`].
    pub fn apply(self, config: &mut CoreConfig, v: usize) {
        match self {
            Axis::Rob => config.rob_entries = v,
            Axis::Width => config.width = v,
            Axis::MemPorts => config.mem_ports = v,
            Axis::Iq => config.iq_entries = v,
            Axis::Lq => config.lq_entries = v,
            Axis::Sq => config.sq_entries = v,
            Axis::PhysRegs => config.phys_regs = v,
            Axis::BrTags => config.max_br_tags = v,
            Axis::L1Sets => config.hierarchy.l1d.sets = v,
            Axis::L1Ways => config.hierarchy.l1d.ways = v,
            Axis::L2Sets => config.hierarchy.l2.sets = v,
            Axis::L2Ways => config.hierarchy.l2.ways = v,
            Axis::L1Prefetch => config.hierarchy.l1_prefetch_degree = v,
            Axis::L2Prefetch => config.hierarchy.l2_prefetch_degree = v,
        }
    }

    fn from_key(key: &str) -> Option<Axis> {
        Axis::ALL.iter().copied().find(|a| a.key() == key)
    }
}

/// One expanded `(configuration, scheme, threat model)` design point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// The expanded core configuration (name interned, unique per point).
    pub config: CoreConfig,
    /// Active scheme.
    pub scheme: Scheme,
    /// Threat model the scheme runs under.
    pub threat: ThreatModel,
}

/// A parsed, validated sweep specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    base: String,
    preset: Option<String>,
    axes: Vec<(Axis, Vec<usize>)>,
    schemes: Vec<Scheme>,
    threats: Vec<ThreatModel>,
    replicates: usize,
}

fn base_config(name: &str) -> Option<CoreConfig> {
    match name {
        "small" => Some(CoreConfig::small()),
        "medium" => Some(CoreConfig::medium()),
        "large" => Some(CoreConfig::large()),
        "mega" => Some(CoreConfig::mega()),
        "gem5-stt" => Some(CoreConfig::gem5_stt()),
        "gem5-nda" => Some(CoreConfig::gem5_nda()),
        _ => None,
    }
}

/// Interns a derived configuration name, returning a `&'static str` for
/// [`CoreConfig::name`]. Identical names share one allocation, so repeated
/// sweeps over the same spec leak nothing new.
fn intern(name: String) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().expect("name interner poisoned");
    if let Some(&existing) = set.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    set.insert(leaked);
    leaked
}

fn parse_uint(key: &str, raw: &str) -> Result<usize, SpecError> {
    raw.parse().map_err(|_| SpecError::BadValue {
        key: key.to_string(),
        value: raw.to_string(),
        why: "expected an unsigned integer".into(),
    })
}

/// Parses an axis value list: comma-separated integers and/or inclusive
/// `a..b[:step]` ranges. Sorted and deduplicated.
fn parse_values(key: &str, raw: &str) -> Result<Vec<usize>, SpecError> {
    let bad = |why: &str| SpecError::BadValue {
        key: key.to_string(),
        value: raw.to_string(),
        why: why.into(),
    };
    let mut out = Vec::new();
    for item in raw.split(',') {
        if item.is_empty() {
            return Err(bad("empty list item"));
        }
        if let Some((a, rest)) = item.split_once("..") {
            let (b, step) = match rest.split_once(':') {
                Some((b, s)) => (b, parse_uint(key, s)?),
                None => (rest, 1),
            };
            if step == 0 {
                return Err(bad("range step must be positive"));
            }
            let (lo, hi) = (parse_uint(key, a)?, parse_uint(key, b)?);
            if lo > hi {
                return Err(bad("range start exceeds range end"));
            }
            if (hi - lo) / step + 1 > MAX_POINTS {
                return Err(bad("range expands to too many values"));
            }
            out.extend((lo..=hi).step_by(step));
        } else {
            out.push(parse_uint(key, item)?);
        }
    }
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        return Err(bad("empty value list"));
    }
    Ok(out)
}

fn parse_schemes(raw: &str) -> Result<Vec<Scheme>, SpecError> {
    let bad = |why: String| SpecError::BadValue {
        key: "scheme".into(),
        value: raw.to_string(),
        why,
    };
    let wanted: Vec<Scheme> = match raw {
        "all" => Scheme::all().to_vec(),
        "secure" => Scheme::secure().to_vec(),
        list => list
            .split(',')
            .map(|k| {
                k.parse::<Scheme>().map_err(|_| {
                    bad(format!(
                        "unknown scheme '{k}' (expected baseline, stt-rename, \
                         stt-issue, nda, all or secure)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    // Canonical order: the paper's presentation order, deduplicated.
    Ok(Scheme::all()
        .into_iter()
        .filter(|s| wanted.contains(s))
        .collect())
}

fn parse_threats(raw: &str) -> Result<Vec<ThreatModel>, SpecError> {
    let wanted: Vec<ThreatModel> = match raw {
        "both" => ThreatModel::all().to_vec(),
        list => list
            .split(',')
            .map(|k| {
                k.parse::<ThreatModel>().map_err(|e| SpecError::BadValue {
                    key: "threat".into(),
                    value: raw.to_string(),
                    why: e,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(ThreatModel::all()
        .into_iter()
        .filter(|t| wanted.contains(t))
        .collect())
}

impl SweepSpec {
    /// Parses a specification string. The empty string is the minimal
    /// sweep: the base configuration under every scheme, Spectre model,
    /// one replicate.
    ///
    /// # Errors
    ///
    /// `SpecError` on unknown/duplicate keys, malformed values, or
    /// conflicting tokens. Point expansion is *not* validated here — call
    /// [`SweepSpec::points`] for that.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        let mut base: Option<String> = None;
        let mut preset: Option<String> = None;
        let mut axes: Vec<(Axis, Vec<usize>)> = Vec::new();
        let mut schemes: Option<Vec<Scheme>> = None;
        let mut threats: Option<Vec<ThreatModel>> = None;
        let mut replicates: Option<usize> = None;
        let mut seen: HashSet<String> = HashSet::new();
        for token in input.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| SpecError::UnknownKey(token.to_string()))?;
            if !seen.insert(key.to_string()) {
                return Err(SpecError::DuplicateKey(key.to_string()));
            }
            match key {
                "base" => {
                    base_config(value).ok_or_else(|| SpecError::BadValue {
                        key: "base".into(),
                        value: value.to_string(),
                        why: "expected small, medium, large, mega, gem5-stt or gem5-nda".into(),
                    })?;
                    base = Some(value.to_string());
                }
                "preset" => {
                    if !matches!(value, "boom" | "gem5") {
                        return Err(SpecError::BadValue {
                            key: "preset".into(),
                            value: value.to_string(),
                            why: "expected boom or gem5".into(),
                        });
                    }
                    preset = Some(value.to_string());
                }
                "scheme" => schemes = Some(parse_schemes(value)?),
                "threat" => threats = Some(parse_threats(value)?),
                "replicates" => {
                    let n = parse_uint("replicates", value)?;
                    if n == 0 || n > MAX_REPLICATES {
                        return Err(SpecError::BadValue {
                            key: "replicates".into(),
                            value: value.to_string(),
                            why: format!("expected 1..={MAX_REPLICATES}"),
                        });
                    }
                    replicates = Some(n);
                }
                other => match Axis::from_key(other) {
                    Some(axis) => axes.push((axis, parse_values(other, value)?)),
                    None => return Err(SpecError::UnknownKey(other.to_string())),
                },
            }
        }
        if preset.is_some() {
            if base.is_some() {
                return Err(SpecError::Conflict(
                    "preset= selects whole configurations; it cannot be combined with base=".into(),
                ));
            }
            if let Some((axis, _)) = axes.first() {
                return Err(SpecError::Conflict(format!(
                    "preset= selects whole configurations; it cannot be combined with the \
                     {} axis",
                    axis.key()
                )));
            }
        }
        // Canonical axis order, independent of spec order.
        axes.sort_by_key(|(a, _)| Axis::ALL.iter().position(|k| k == a));
        Ok(SweepSpec {
            base: base.unwrap_or_else(|| "mega".into()),
            preset,
            axes,
            schemes: schemes.unwrap_or_else(|| Scheme::all().to_vec()),
            threats: threats.unwrap_or_else(|| vec![ThreatModel::Spectre]),
            replicates: replicates.unwrap_or(1),
        })
    }

    /// The canonical form: fixed key order, sorted deduplicated values,
    /// every effective field explicit. `parse(canonical())` reproduces the
    /// spec exactly, and the sweep fingerprint hashes this string.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut parts = Vec::new();
        match &self.preset {
            Some(p) => parts.push(format!("preset={p}")),
            None => parts.push(format!("base={}", self.base)),
        }
        for (axis, values) in &self.axes {
            let list: Vec<String> = values.iter().map(ToString::to_string).collect();
            parts.push(format!("{}={}", axis.key(), list.join(",")));
        }
        let schemes: Vec<&str> = self.schemes.iter().map(|s| s.key()).collect();
        parts.push(format!("scheme={}", schemes.join(",")));
        let threats: Vec<&str> = self.threats.iter().map(|t| t.label()).collect();
        parts.push(format!("threat={}", threats.join(",")));
        parts.push(format!("replicates={}", self.replicates));
        parts.join(" ")
    }

    /// Expands the configuration cross product (or preset list), interning
    /// derived names and validating every point.
    ///
    /// # Errors
    ///
    /// `SpecError::Invalid` for points violating core invariants;
    /// `SpecError::TooManyPoints` past the cap.
    pub fn configs(&self) -> Result<Vec<CoreConfig>, SpecError> {
        if let Some(preset) = &self.preset {
            return Ok(match preset.as_str() {
                "boom" => CoreConfig::boom_sweep().to_vec(),
                _ => vec![CoreConfig::gem5_stt(), CoreConfig::gem5_nda()],
            });
        }
        let base = base_config(&self.base).expect("base validated at parse");
        let mut combos: Vec<Vec<(Axis, usize)>> = vec![Vec::new()];
        for (axis, values) in &self.axes {
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for &v in values {
                    let mut c = combo.clone();
                    c.push((*axis, v));
                    next.push(c);
                }
            }
            if next.len() > MAX_POINTS {
                return Err(SpecError::TooManyPoints {
                    points: next.len(),
                    max: MAX_POINTS,
                });
            }
            combos = next;
        }
        let mut out = Vec::with_capacity(combos.len());
        for combo in combos {
            let mut config = base.clone();
            let mut name = self.base.clone();
            for (axis, v) in combo {
                axis.apply(&mut config, v);
                name.push('+');
                name.push_str(axis.tag());
                name.push_str(&v.to_string());
            }
            if name != self.base {
                config.name = intern(name);
            }
            config
                .check()
                .map_err(|e| SpecError::Invalid(format!("config {}: {e}", config.name)))?;
            out.push(config);
        }
        Ok(out)
    }

    /// Expands every `(config, scheme, threat)` point, capped at
    /// `MAX_POINTS`.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepSpec::configs`] errors and the point cap.
    pub fn points(&self) -> Result<Vec<SweepPoint>, SpecError> {
        let configs = self.configs()?;
        let total = configs.len() * self.schemes.len() * self.threats.len();
        if total > MAX_POINTS {
            return Err(SpecError::TooManyPoints {
                points: total,
                max: MAX_POINTS,
            });
        }
        let mut out = Vec::with_capacity(total);
        for config in &configs {
            for &scheme in &self.schemes {
                for &threat in &self.threats {
                    out.push(SweepPoint {
                        config: config.clone(),
                        scheme,
                        threat,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Replicates per point (independent seeds for the bootstrap CI).
    #[must_use]
    pub fn replicates(&self) -> usize {
        self.replicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_minimal_sweep() {
        let s = SweepSpec::parse("").unwrap();
        assert_eq!(
            s.canonical(),
            "base=mega scheme=baseline,stt-rename,stt-issue,nda threat=spectre replicates=1"
        );
        let pts = s.points().unwrap();
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.config.name == "mega"));
    }

    #[test]
    fn ranges_lists_and_steps_expand_sorted_and_deduped() {
        let s = SweepSpec::parse("base=small rob=64,32..48:16,32").unwrap();
        assert_eq!(s.canonical().split(' ').nth(1), Some("rob=32,48,64"));
        let configs = s.configs().unwrap();
        assert_eq!(configs.len(), 3);
        assert_eq!(configs[0].name, "small+rob32");
        assert_eq!(configs[2].rob_entries, 64);
    }

    #[test]
    fn cross_product_covers_every_combination() {
        let s =
            SweepSpec::parse("base=mega rob=96,128 width=2,4 scheme=secure threat=both").unwrap();
        let pts = s.points().unwrap();
        // 2 robs x 2 widths x 3 schemes x 2 threats
        assert_eq!(pts.len(), 24);
        let names: HashSet<&str> = pts.iter().map(|p| p.config.name).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains("mega+rob96+w2"));
    }

    #[test]
    fn canonical_round_trips() {
        for raw in [
            "",
            "preset=boom replicates=3",
            "base=small width=1,2 l1-sets=32,64 threat=futuristic",
            "scheme=nda,baseline rob=32..64:32",
            "base=gem5-nda mem-ports=1,2 scheme=secure threat=both replicates=2",
        ] {
            let a = SweepSpec::parse(raw).unwrap();
            let b = SweepSpec::parse(&a.canonical()).unwrap();
            assert_eq!(a, b, "round trip failed for '{raw}'");
            assert_eq!(a.canonical(), b.canonical());
        }
    }

    #[test]
    fn axis_order_in_the_spec_does_not_matter() {
        let a = SweepSpec::parse("width=2,4 rob=64").unwrap();
        let b = SweepSpec::parse("rob=64 width=4,2").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn preset_boom_is_the_table1_sweep() {
        let s = SweepSpec::parse("preset=boom scheme=all").unwrap();
        let configs = s.configs().unwrap();
        let names: Vec<&str> = configs.iter().map(|c| c.name).collect();
        assert_eq!(names, ["small", "medium", "large", "mega"]);
    }

    #[test]
    fn unknown_and_duplicate_keys_are_rejected() {
        assert_eq!(
            SweepSpec::parse("mshr=4"),
            Err(SpecError::UnknownKey("mshr".into()))
        );
        assert_eq!(
            SweepSpec::parse("rob=32 rob=64"),
            Err(SpecError::DuplicateKey("rob".into()))
        );
        assert!(matches!(
            SweepSpec::parse("frobnicate"),
            Err(SpecError::UnknownKey(_))
        ));
    }

    #[test]
    fn malformed_values_are_loud_typed_errors() {
        assert!(matches!(
            SweepSpec::parse("rob=banana"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("rob=64..32"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("rob=32..64:0"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("scheme=sputnik"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("threat=sputnik"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("replicates=0"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            SweepSpec::parse("base=tiny"),
            Err(SpecError::BadValue { .. })
        ));
    }

    #[test]
    fn preset_conflicts_with_base_and_axes() {
        assert!(matches!(
            SweepSpec::parse("preset=boom base=mega"),
            Err(SpecError::Conflict(_))
        ));
        assert!(matches!(
            SweepSpec::parse("preset=boom rob=32"),
            Err(SpecError::Conflict(_))
        ));
    }

    #[test]
    fn invalid_points_are_typed_not_panics() {
        // width 8 > rob 4: violates rob >= width.
        let s = SweepSpec::parse("base=mega rob=4 width=8").unwrap();
        assert!(matches!(s.points(), Err(SpecError::Invalid(_))));
        // Non-power-of-two L1 sets.
        let s = SweepSpec::parse("base=mega l1-sets=48").unwrap();
        assert!(matches!(s.points(), Err(SpecError::Invalid(_))));
        // Too few physical registers.
        let s = SweepSpec::parse("base=mega phys-regs=8").unwrap();
        assert!(matches!(s.points(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn point_explosion_is_capped() {
        let err = SweepSpec::parse("rob=1024..6000")
            .err()
            .or_else(|| SweepSpec::parse("rob=32..1055").unwrap().points().err());
        assert!(
            matches!(
                err,
                Some(SpecError::TooManyPoints { .. }) | Some(SpecError::BadValue { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn derived_fingerprints_differ_per_point() {
        let s = SweepSpec::parse("base=mega rob=96,128 l2-ways=4,8").unwrap();
        let fps: Vec<u64> = s
            .configs()
            .unwrap()
            .iter()
            .map(CoreConfig::fingerprint)
            .collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "every swept axis must move the stats-store key");
            }
        }
    }

    #[test]
    fn interning_is_stable() {
        let a = SweepSpec::parse("base=small rob=48")
            .unwrap()
            .configs()
            .unwrap();
        let b = SweepSpec::parse("base=small rob=48")
            .unwrap()
            .configs()
            .unwrap();
        assert_eq!(a[0].name, "small+rob48");
        // Same interned pointer, not merely equal strings.
        assert!(std::ptr::eq(a[0].name, b[0].name));
    }
}
