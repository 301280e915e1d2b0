//! Property tests for the design-space-exploration layer (via the
//! offline proptest shim): random sweep specifications must round-trip
//! through their canonical form regardless of token order, and the
//! percentile-bootstrap confidence interval must be deterministic per
//! seed and bracket the sample mean within the sample range. A bounded
//! scheduler differential draws random configurations over the sweep axes
//! and checks both schedulers agree and `check()` matches construction.

use proptest::prelude::*;
use sb_core::{Scheme, ThreatModel};
use sb_experiments::dse::{replicate_seed, Axis, SweepSpec};
use sb_stats::bootstrap_ci;
use sb_uarch::{Core, PredictorConfig, SchedulerKind};
use sb_workloads::{generate, spec2017_profiles};
use std::panic::AssertUnwindSafe;

const BASES: &[&str] = &["small", "medium", "large", "mega", "gem5-stt", "gem5-nda"];

const AXIS_KEYS: &[&str] = &[
    "rob",
    "width",
    "mem-ports",
    "iq",
    "lq",
    "sq",
    "phys-regs",
    "br-tags",
    "l1-sets",
    "l1-ways",
    "l2-sets",
    "l2-ways",
    "l1-prefetch",
    "l2-prefetch",
];

const SCHEME_SETS: &[&str] = &[
    "baseline",
    "nda",
    "stt-rename,stt-issue",
    "baseline,nda",
    "all",
    "secure",
    "nda,baseline,nda",
];

const THREAT_SETS: &[&str] = &["spectre", "futuristic", "both", "futuristic,spectre"];

/// Assembles a parseable spec string from drawn parts: a base, up to
/// three distinct axes with small value lists (plus one `a..b:step`
/// range), a scheme set, a threat set and a replicate count — then
/// rotates the tokens so key order varies across cases.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    base: usize,
    axes: &std::collections::BTreeSet<usize>,
    values: &[usize],
    range: (usize, usize, usize),
    schemes: usize,
    threats: usize,
    replicates: usize,
    rotate: usize,
) -> String {
    let mut tokens = vec![format!("base={}", BASES[base % BASES.len()])];
    for (slot, axis) in axes.iter().enumerate() {
        if slot == 0 {
            // One axis gets an inclusive range with a step.
            let (lo, span, step) = range;
            tokens.push(format!(
                "{}={}..{}:{}",
                AXIS_KEYS[*axis],
                lo,
                lo + span,
                step
            ));
        } else {
            let list: Vec<String> = values.iter().map(|v| (v + slot).to_string()).collect();
            tokens.push(format!("{}={}", AXIS_KEYS[*axis], list.join(",")));
        }
    }
    tokens.push(format!(
        "scheme={}",
        SCHEME_SETS[schemes % SCHEME_SETS.len()]
    ));
    tokens.push(format!(
        "threat={}",
        THREAT_SETS[threats % THREAT_SETS.len()]
    ));
    tokens.push(format!("replicates={replicates}"));
    let len = tokens.len();
    tokens.rotate_left(rotate % len);
    tokens.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse(canonical(parse(s)))` is `parse(s)` exactly, and the
    /// canonical string is a fixpoint — the property behind hashing the
    /// canonical form into the sweep fingerprint.
    #[test]
    fn spec_round_trips_through_its_canonical_form(
        parts in (
            (0usize..6, prop::collection::btree_set(0usize..14, 0..4), prop::collection::vec(1usize..512, 1..4)),
            ((1usize..64, 1usize..96, 1usize..32), 0usize..7, 0usize..4),
            (1usize..33, 0usize..8),
        )
    ) {
        let ((base, axes, values), (range, schemes, threats), (replicates, rotate)) = parts;
        let input = build_spec(base, &axes, &values, range, schemes, threats, replicates, rotate);
        let spec = SweepSpec::parse(&input)
            .map_err(|e| TestCaseError::fail(format!("{input}: {e}")))?;
        let canonical = spec.canonical();
        let reparsed = SweepSpec::parse(&canonical)
            .map_err(|e| TestCaseError::fail(format!("{canonical}: {e}")))?;
        prop_assert_eq!(&reparsed, &spec, "canonical form must reparse to the same spec");
        prop_assert_eq!(reparsed.canonical(), canonical, "canonical form must be a fixpoint");
    }

    /// Token order never changes the parsed spec: the same tokens under
    /// any rotation yield the same canonical form.
    #[test]
    fn spec_parsing_is_token_order_independent(
        parts in (
            (0usize..6, prop::collection::btree_set(0usize..14, 0..4), prop::collection::vec(1usize..512, 1..4)),
            ((1usize..64, 1usize..96, 1usize..32), 0usize..7, 0usize..4),
            1usize..33,
        )
    ) {
        let ((base, axes, values), (range, schemes, threats), replicates) = parts;
        let a = build_spec(base, &axes, &values, range, schemes, threats, replicates, 0);
        let b = build_spec(base, &axes, &values, range, schemes, threats, replicates, 3);
        let spec_a = SweepSpec::parse(&a).map_err(|e| TestCaseError::fail(format!("{a}: {e}")))?;
        let spec_b = SweepSpec::parse(&b).map_err(|e| TestCaseError::fail(format!("{b}: {e}")))?;
        prop_assert_eq!(spec_a, spec_b);
    }

    /// The percentile bootstrap is deterministic per seed, brackets the
    /// sample mean, and never leaves the sample range (resample means
    /// are convex combinations of the samples).
    #[test]
    fn bootstrap_ci_is_deterministic_and_brackets_the_mean(
        raw in prop::collection::vec(0u64..1_000_000, 1..24),
        seed in 0u64..1_000,
    ) {
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 1_000.0).collect();
        let ci = bootstrap_ci(&samples, 200, 0.95, seed);
        let again = bootstrap_ci(&samples, 200, 0.95, seed);
        prop_assert_eq!(ci.lo.to_bits(), again.lo.to_bits(), "CI must be deterministic per seed");
        prop_assert_eq!(ci.hi.to_bits(), again.hi.to_bits());

        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!(ci.lo <= ci.hi, "lo {} > hi {}", ci.lo, ci.hi);
        prop_assert!(
            ci.lo <= mean && mean <= ci.hi,
            "CI [{}, {}] must bracket the mean {mean}",
            ci.lo,
            ci.hi
        );
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            ci.lo >= min && ci.hi <= max,
            "CI [{}, {}] must stay within the sample range [{min}, {max}]",
            ci.lo,
            ci.hi
        );
    }

    /// Replicate seeds: replicate 0 preserves the base seed (a
    /// one-replicate sweep shares cache entries with the plain grid) and
    /// all replicates of one base are pairwise distinct.
    #[test]
    fn replicate_seeds_are_distinct_and_anchor_at_the_base(base in 0u64..u64::MAX) {
        prop_assert_eq!(replicate_seed(base, 0), base);
        let seeds: Vec<u64> = (0..32).map(|r| replicate_seed(base, r)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                prop_assert!(
                    seeds[i] != seeds[j],
                    "replicates {i} and {j} of base {base} collide"
                );
            }
        }
    }
}

/// Candidate values per sweep axis, in [`Axis::ALL`] order. Entry 0 is a
/// value `CoreConfig::check` rejects: outright, or (ROB, physical
/// registers) for a wide enough core. The prefetch axes have no invalid
/// value; their entry 0 just disables the prefetcher.
const AXIS_VALUES: [&[usize]; 14] = [
    &[1, 8, 16, 32, 64, 96, 128, 192],
    &[0, 1, 2, 3, 4, 6, 8],
    &[0, 1, 2, 3, 4],
    &[0, 4, 8, 16, 32, 64],
    &[0, 4, 8, 16, 32, 48],
    &[0, 4, 8, 16, 32, 40],
    &[64, 72, 80, 96, 128, 192, 256],
    &[0, 1, 4, 8, 16, 24],
    &[48, 16, 32, 64, 128],
    &[0, 1, 2, 4, 8],
    &[384, 128, 256, 512, 1024],
    &[0, 1, 4, 8, 16],
    &[0, 1, 2, 4],
    &[0, 1, 2, 4],
];

/// Predictor PHT entries, BTB entries and GHR bits; entry 0 is invalid.
const PREDICTOR_VALUES: [&[usize]; 3] = [&[48, 64, 256, 1024], &[12, 16, 64], &[40, 0, 8, 16]];

/// Draws entry `pick` of `values`, skipping the invalid entry 0 unless
/// `risky`.
fn draw(values: &[usize], pick: usize, risky: bool) -> usize {
    if risky {
        values[pick % values.len()]
    } else {
        values[1 + pick % (values.len() - 1)]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random configurations over every sweep axis plus the predictor, on
    /// random profiles, schemes and threat models. In each case at most
    /// one knob (`risky`: an axis, the predictor, or none) may take a
    /// value `check()` rejects. `check()` and the sweep accept exactly the
    /// configurations `Core::new` builds, and on every one of them the
    /// event-wheel and reference schedulers produce identical `SimStats`.
    #[test]
    fn random_configs_schedule_identically_and_check_matches_construction(
        point in (0usize..BASES.len(), 0usize..22, 0usize..4, 0usize..2),
        picks in prop::collection::vec(0usize..1_000, 17..18),
        risky in 0usize..16,
        run in (100usize..401, 0u64..u64::MAX, any::<bool>()),
    ) {
        let (base, profile, scheme, threat) = point;
        let (ops, seed, predictor) = run;
        let mut config = SweepSpec::parse(&format!("base={}", BASES[base]))
            .and_then(|s| s.configs())
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .remove(0);
        let mut tokens = vec![format!("base={}", BASES[base])];
        for (i, axis) in Axis::ALL.into_iter().enumerate() {
            let v = draw(AXIS_VALUES[i], picks[i], risky == i);
            axis.apply(&mut config, v);
            tokens.push(format!("{}={v}", axis.key()));
        }
        let valid = config.check().is_ok();
        let swept = SweepSpec::parse(&tokens.join(" "))
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .configs();
        prop_assert_eq!(swept.is_ok(), valid, "sweep and check() disagree on {:?}", tokens);
        if predictor {
            let [pht, btb, ghr] = [0, 1, 2].map(|k| draw(PREDICTOR_VALUES[k], picks[14 + k], risky == 14));
            config.predictor = PredictorConfig::enabled(pht, btb, ghr as u32);
        }
        let valid = config.check().is_ok();
        let profile = spec2017_profiles()[profile];
        let trace = generate(&profile, ops, seed);
        let scheme_cfg = config
            .scheme_config(Scheme::all()[scheme])
            .with_threat_model(ThreatModel::all()[threat]);
        let build = |scheduler: SchedulerKind| {
            let mut config = config.clone();
            config.scheduler = scheduler;
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                Core::new(config, scheme_cfg, trace.clone())
            }))
        };
        let wheel = build(SchedulerKind::EventWheel);
        prop_assert_eq!(wheel.is_ok(), valid, "check() and Core::new disagree on {:?}", config);
        let Ok(mut wheel) = wheel else {
            return Ok(());
        };
        let mut reference = build(SchedulerKind::Reference)
            .map_err(|_| TestCaseError::fail(format!("Core::new panicked on {config:?}")))?;
        for core in [&mut wheel, &mut reference] {
            core.run(10_000_000);
            prop_assert!(core.is_done(), "{} did not finish on {:?}", profile.name, config);
        }
        prop_assert_eq!(
            wheel.stats(),
            reference.stats(),
            "schedulers diverge on {:?} ({}, {:?})",
            config,
            profile.name,
            scheme_cfg
        );
    }
}
