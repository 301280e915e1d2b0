//! Run manifests: the reproduction contract of a sweep.
//!
//! Every sweep writes a `manifest.json` next to its leaderboard CSV
//! recording exactly what produced it: tool and version, the canonical
//! spec string, trace length and base seed, the sweep fingerprint, and
//! every row's point fingerprint. `sb-experiments sweep --from-manifest`
//! re-runs the sweep from those parameters alone — against a warm store
//! it performs zero simulations and reproduces the leaderboard CSV byte
//! for byte.

use super::run::SweepOutcome;
use super::spec::{SpecError, SweepSpec};
use crate::engine::RunSpec;
use crate::stats_store::{combine_fp, tag_fp};

/// Manifest schema version; bump on incompatible changes.
pub const MANIFEST_FORMAT: u64 = 1;

/// Identity of a sweep run: canonical spec × trace length × base seed.
/// Everything result-determining hashes into this (the spec's canonical
/// string covers every axis, scheme, threat and replicate count; config
/// fingerprints cover the knob values themselves).
#[must_use]
pub fn sweep_fingerprint(spec: &SweepSpec, run: &RunSpec) -> u64 {
    combine_fp([tag_fp(&spec.canonical()), run.ops as u64, run.seed])
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the manifest JSON for a sweep run.
#[must_use]
pub fn manifest_json(spec: &SweepSpec, run: &RunSpec, outcome: &SweepOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"sb-experiments\",\n");
    out.push_str(&format!(
        "  \"version\": \"{}\",\n",
        escape_json(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str(&format!("  \"format\": {MANIFEST_FORMAT},\n"));
    out.push_str(&format!(
        "  \"spec\": \"{}\",\n",
        escape_json(&spec.canonical())
    ));
    out.push_str(&format!("  \"ops\": {},\n", run.ops));
    out.push_str(&format!("  \"seed\": {},\n", run.seed));
    out.push_str(&format!(
        "  \"sweep_fingerprint\": \"{:016x}\",\n",
        sweep_fingerprint(spec, run)
    ));
    out.push_str(&format!("  \"benchmarks\": {},\n", outcome.benchmarks));
    out.push_str("  \"rows\": [\n");
    for (i, p) in outcome.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"scheme\": \"{}\", \"threat\": \"{}\", \
             \"fingerprint\": \"{:016x}\"}}{}\n",
            escape_json(p.config.name),
            p.scheme,
            p.threat.label(),
            p.fingerprint,
            if i + 1 < outcome.points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The re-runnable parameters extracted from a manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestParams {
    /// Parsed sweep spec (from the canonical string).
    pub spec: SweepSpec,
    /// Trace length.
    pub ops: usize,
    /// Base seed.
    pub seed: u64,
}

fn find_string_field(json: &str, key: &str) -> Result<String, String> {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .ok_or_else(|| format!("manifest is missing \"{key}\""))?;
    let rest = &json[at + needle.len()..];
    let open = rest
        .find('"')
        .ok_or_else(|| format!("manifest field \"{key}\" is not a string"))?;
    let body = &rest[open + 1..];
    // Unescape up to the closing quote.
    let mut out = String::new();
    let mut chars = body.chars();
    loop {
        match chars.next() {
            None => return Err(format!("manifest field \"{key}\" is unterminated")),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => return Err(format!("unsupported escape \\{other} in \"{key}\"")),
                None => return Err(format!("manifest field \"{key}\" is unterminated")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn find_u64_field(json: &str, key: &str) -> Result<u64, String> {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .ok_or_else(|| format!("manifest is missing \"{key}\""))?;
    let rest = json[at + needle.len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| format!("manifest field \"{key}\" is not an unsigned integer"))
}

/// Parses the re-runnable parameters back out of a manifest, verifying the
/// format version, the spec string, and the recorded sweep fingerprint
/// (a hand-edited spec that no longer matches its fingerprint is
/// rejected rather than silently reproducing something else).
///
/// # Errors
///
/// A human-readable message on missing/malformed fields, an unsupported
/// format version, an invalid spec, or a fingerprint mismatch.
pub fn parse_manifest(json: &str) -> Result<ManifestParams, String> {
    let format = find_u64_field(json, "format")?;
    if format > MANIFEST_FORMAT {
        return Err(format!(
            "manifest format {format} is newer than supported ({MANIFEST_FORMAT})"
        ));
    }
    let spec_str = find_string_field(json, "spec")?;
    let spec = SweepSpec::parse(&spec_str).map_err(|e: SpecError| format!("manifest spec: {e}"))?;
    let ops = usize::try_from(find_u64_field(json, "ops")?)
        .map_err(|_| "manifest \"ops\" overflows".to_string())?;
    let seed = find_u64_field(json, "seed")?;
    let recorded = find_string_field(json, "sweep_fingerprint")?;
    let expected = format!("{:016x}", sweep_fingerprint(&spec, &RunSpec { ops, seed }));
    if recorded != expected {
        return Err(format!(
            "manifest sweep_fingerprint {recorded} does not match its parameters \
             (expected {expected}); was the manifest edited?"
        ));
    }
    Ok(ManifestParams { spec, ops, seed })
}

#[cfg(test)]
mod tests {
    use super::super::run::{point_fingerprint, PointResult};
    use super::*;
    use crate::engine::RunReport;
    use sb_core::Scheme;

    fn outcome_of(spec: &SweepSpec) -> SweepOutcome {
        let points = spec
            .points()
            .unwrap()
            .into_iter()
            .map(|p| PointResult {
                fingerprint: point_fingerprint(&p.config, p.scheme, p.threat),
                config: p.config,
                scheme: p.scheme,
                threat: p.threat,
                replicates: vec![],
            })
            .collect();
        SweepOutcome {
            points,
            report: RunReport {
                simulated: 0,
                from_cache: 0,
                total: 0,
                failures: vec![],
                traces_decoded: 0,
                peak_resident_traces: 0,
            },
            benchmarks: 22,
        }
    }

    #[test]
    fn manifest_round_trips_its_parameters() {
        let spec = SweepSpec::parse("base=small rob=32,64 scheme=nda threat=both").unwrap();
        let run = RunSpec {
            ops: 5_000,
            seed: 99,
        };
        let json = manifest_json(&spec, &run, &outcome_of(&spec));
        let params = parse_manifest(&json).unwrap();
        assert_eq!(params.spec, spec);
        assert_eq!(params.ops, 5_000);
        assert_eq!(params.seed, 99);
        assert_eq!(
            sweep_fingerprint(
                &params.spec,
                &RunSpec {
                    ops: params.ops,
                    seed: params.seed
                }
            ),
            sweep_fingerprint(&spec, &run)
        );
    }

    #[test]
    fn manifest_records_every_row_fingerprint() {
        let spec = SweepSpec::parse("base=small scheme=baseline,nda").unwrap();
        let run = RunSpec::default();
        let out = outcome_of(&spec);
        let json = manifest_json(&spec, &run, &out);
        for p in &out.points {
            assert!(json.contains(&format!("{:016x}", p.fingerprint)), "{json}");
        }
        assert!(json.contains("\"tool\": \"sb-experiments\""));
        assert!(json.contains("\"format\": 1"));
    }

    #[test]
    fn sweep_fingerprint_moves_with_every_parameter() {
        let spec_a = SweepSpec::parse("base=small rob=32").unwrap();
        let spec_b = SweepSpec::parse("base=small rob=48").unwrap();
        let run = RunSpec {
            ops: 5_000,
            seed: 1,
        };
        let base = sweep_fingerprint(&spec_a, &run);
        assert_ne!(base, sweep_fingerprint(&spec_b, &run));
        assert_ne!(
            base,
            sweep_fingerprint(
                &spec_a,
                &RunSpec {
                    ops: 6_000,
                    seed: 1
                }
            )
        );
        assert_ne!(
            base,
            sweep_fingerprint(
                &spec_a,
                &RunSpec {
                    ops: 5_000,
                    seed: 2
                }
            )
        );
    }

    #[test]
    fn edited_manifests_are_rejected() {
        let spec = SweepSpec::parse("base=small").unwrap();
        let run = RunSpec::default();
        let json = manifest_json(&spec, &run, &outcome_of(&spec));
        // Tampering with the seed invalidates the fingerprint.
        let tampered = json.replace(
            &format!("\"seed\": {}", run.seed),
            &format!("\"seed\": {}", run.seed + 1),
        );
        let err = parse_manifest(&tampered).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        // Unsupported future format.
        let future = json.replace("\"format\": 1", "\"format\": 999");
        assert!(parse_manifest(&future).unwrap_err().contains("newer"));
        // Missing field.
        assert!(parse_manifest("{}").unwrap_err().contains("missing"));
    }

    #[test]
    fn manifest_threats_and_schemes_render_as_their_labels() {
        let spec = SweepSpec::parse("base=small scheme=stt-issue threat=futuristic").unwrap();
        let json = manifest_json(&spec, &RunSpec::default(), &outcome_of(&spec));
        assert!(json.contains("\"threat\": \"futuristic\""));
        assert!(json.contains(&format!("\"scheme\": \"{}\"", Scheme::SttIssue)));
    }
}
