//! The 22 SPEC CPU2017 benchmark profiles of Figure 6.
//!
//! Parameter values are derived from the public characterisation of
//! SPEC CPU2017 (instruction mixes, MPKI, and footprints are widely
//! reported) and from the behaviours the paper itself attributes to
//! specific benchmarks (§8.1, §9.2). They are *workload models*, not
//! measurements. To see how far the models land from the paper, run
//! `sb-experiments all` (README, "Reproducing the paper's evaluation"):
//! table 1, figure 6 and the later reports print the paper's values
//! beside the measured ones.

/// Memory access pattern of a profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Sequential unit-stride streaming (prefetch covers it).
    Streaming,
    /// Constant non-unit stride.
    Strided {
        /// Stride in bytes between consecutive accesses.
        stride: u64,
    },
    /// Uniform random within the footprint.
    Random,
    /// Loads feed the next load's address (dependent chains through
    /// memory; the prefetcher cannot help).
    PointerChase,
}

/// A synthetic stand-in for one SPEC CPU2017 benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// SPEC-style name, e.g. `548.exchange2`.
    pub name: &'static str,
    /// Fraction of micro-ops that are loads.
    pub load_frac: f64,
    /// Fraction of micro-ops that are stores.
    pub store_frac: f64,
    /// Fraction of micro-ops that are conditional branches.
    pub branch_frac: f64,
    /// Of the compute ops, the fraction that are floating point.
    pub fp_frac: f64,
    /// Probability a branch is mispredicted (drives the frontend stalls).
    pub mispredict_rate: f64,
    /// Working-set size in bytes (drives cache behaviour).
    pub footprint: u64,
    /// Access pattern within the footprint.
    pub access: AccessPattern,
    /// Serialization of the compute: probability a compute op reads the
    /// previous compute result (1.0 = a single dependency chain).
    pub dep_serial: f64,
    /// Probability a compute op reads the most recent load's destination
    /// (how load-use-bound the code is; what NDA's delayed broadcast hurts).
    pub load_use: f64,
    /// Probability a load aliases a recently stored address (store-to-load
    /// forwarding traffic; `exchange2` lives here, §9.2).
    pub alias_rate: f64,
    /// Probability a store's *data* operand comes from a recent load
    /// (tainted store data — the STT-Rename partial-issue pathology, §9.2).
    pub store_data_from_load: f64,
    /// Temporal locality: fraction of random/pointer accesses confined to a
    /// hot region (real workloads are strongly cache-friendly; the
    /// remainder spills across the full footprint).
    pub hot_frac: f64,
    /// Probability a load's address register comes from the compute chain
    /// (computed indices) rather than a ready base pointer. This is what
    /// serializes loads behind delayed data under NDA, and what exposes
    /// loads to address-taint blocking under STT.
    pub addr_from_compute: f64,
}

impl WorkloadProfile {
    /// A stable fingerprint of everything besides `(ops, seed)` that
    /// determines generated trace content: every profile parameter plus the
    /// generator revision. The trace store folds it into cache keys, so
    /// recalibrating a profile or changing the generator's output mapping
    /// invalidates stale persisted entries instead of silently serving
    /// traces generated by old code.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let fold = |h: &mut u64, v: u64| *h = sb_isa::fnv::fold(*h, v);
        let mut h = sb_isa::fnv::hash_str(self.name) ^ crate::generator::GENERATOR_REVISION;
        for f in [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.fp_frac,
            self.mispredict_rate,
            self.dep_serial,
            self.load_use,
            self.alias_rate,
            self.store_data_from_load,
            self.hot_frac,
            self.addr_from_compute,
        ] {
            fold(&mut h, f.to_bits());
        }
        fold(&mut h, self.footprint);
        match self.access {
            AccessPattern::Streaming => fold(&mut h, 1),
            AccessPattern::Strided { stride } => {
                fold(&mut h, 2);
                fold(&mut h, stride);
            }
            AccessPattern::Random => fold(&mut h, 3),
            AccessPattern::PointerChase => fold(&mut h, 4),
        }
        h
    }

    /// Validates that all fractions are probabilities and the mix fits.
    ///
    /// # Panics
    ///
    /// Panics on an invalid profile.
    pub(crate) fn validate(&self) {
        let fracs = [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.fp_frac,
            self.mispredict_rate,
            self.dep_serial,
            self.load_use,
            self.alias_rate,
            self.store_data_from_load,
            self.hot_frac,
            self.addr_from_compute,
        ];
        for f in fracs {
            assert!(
                (0.0..=1.0).contains(&f),
                "{}: fraction {f} out of range",
                self.name
            );
        }
        assert!(
            self.load_frac + self.store_frac + self.branch_frac < 1.0,
            "{}: memory+branch mix leaves no compute",
            self.name
        );
        assert!(self.footprint >= 4096, "{}: footprint too small", self.name);
    }
}

/// All 22 profiles, in the order Figure 6 plots them.
#[must_use]
pub fn spec2017_profiles() -> Vec<WorkloadProfile> {
    use AccessPattern::{PointerChase, Random, Streaming, Strided};
    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;
    vec![
        WorkloadProfile {
            name: "500.perlbench",
            load_frac: 0.26,
            store_frac: 0.11,
            branch_frac: 0.15,
            fp_frac: 0.0,
            mispredict_rate: 0.020,
            footprint: 2 * MB,
            access: Random,
            dep_serial: 0.27,
            load_use: 0.35,
            alias_rate: 0.10,
            store_data_from_load: 0.25,
            hot_frac: 0.93,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "502.gcc",
            load_frac: 0.25,
            store_frac: 0.12,
            branch_frac: 0.16,
            fp_frac: 0.0,
            mispredict_rate: 0.022,
            footprint: 4 * MB,
            access: Random,
            dep_serial: 0.27,
            load_use: 0.35,
            alias_rate: 0.08,
            store_data_from_load: 0.25,
            hot_frac: 0.92,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "503.bwaves",
            load_frac: 0.32,
            store_frac: 0.07,
            branch_frac: 0.03,
            fp_frac: 0.85,
            mispredict_rate: 0.001,
            footprint: 32 * MB,
            access: Streaming,
            dep_serial: 0.15,
            load_use: 0.20,
            alias_rate: 0.0,
            store_data_from_load: 0.05,
            hot_frac: 0.99,
            addr_from_compute: 0.01,
        },
        WorkloadProfile {
            name: "505.mcf",
            load_frac: 0.32,
            store_frac: 0.09,
            branch_frac: 0.17,
            fp_frac: 0.0,
            mispredict_rate: 0.035,
            footprint: 24 * MB,
            access: PointerChase,
            dep_serial: 0.33,
            load_use: 0.55,
            alias_rate: 0.03,
            store_data_from_load: 0.20,
            hot_frac: 0.62,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "507.cactuBSSN",
            load_frac: 0.30,
            store_frac: 0.10,
            branch_frac: 0.02,
            fp_frac: 0.90,
            mispredict_rate: 0.002,
            footprint: 8 * MB,
            access: Strided { stride: 192 },
            dep_serial: 0.30,
            load_use: 0.55,
            alias_rate: 0.01,
            store_data_from_load: 0.10,
            hot_frac: 0.9,
            addr_from_compute: 0.06,
        },
        WorkloadProfile {
            name: "508.namd",
            load_frac: 0.28,
            store_frac: 0.07,
            branch_frac: 0.04,
            fp_frac: 0.92,
            mispredict_rate: 0.003,
            footprint: MB,
            access: Strided { stride: 128 },
            dep_serial: 0.24,
            load_use: 0.40,
            alias_rate: 0.01,
            store_data_from_load: 0.05,
            hot_frac: 0.97,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "510.parest",
            load_frac: 0.30,
            store_frac: 0.08,
            branch_frac: 0.06,
            fp_frac: 0.85,
            mispredict_rate: 0.005,
            footprint: 4 * MB,
            access: Strided { stride: 96 },
            dep_serial: 0.27,
            load_use: 0.45,
            alias_rate: 0.02,
            store_data_from_load: 0.08,
            hot_frac: 0.93,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "511.povray",
            load_frac: 0.26,
            store_frac: 0.11,
            branch_frac: 0.12,
            fp_frac: 0.70,
            mispredict_rate: 0.012,
            footprint: 256 * KB,
            access: Random,
            dep_serial: 0.30,
            load_use: 0.40,
            alias_rate: 0.08,
            store_data_from_load: 0.15,
            hot_frac: 0.96,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "519.lbm",
            load_frac: 0.32,
            store_frac: 0.11,
            branch_frac: 0.01,
            fp_frac: 0.92,
            mispredict_rate: 0.001,
            footprint: 32 * MB,
            access: Streaming,
            dep_serial: 0.18,
            load_use: 0.30,
            alias_rate: 0.0,
            store_data_from_load: 0.10,
            hot_frac: 0.99,
            addr_from_compute: 0.02,
        },
        WorkloadProfile {
            name: "520.omnetpp",
            load_frac: 0.29,
            store_frac: 0.12,
            branch_frac: 0.16,
            fp_frac: 0.0,
            mispredict_rate: 0.025,
            footprint: 16 * MB,
            access: PointerChase,
            dep_serial: 0.30,
            load_use: 0.45,
            alias_rate: 0.06,
            store_data_from_load: 0.20,
            hot_frac: 0.72,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "521.wrf",
            load_frac: 0.29,
            store_frac: 0.09,
            branch_frac: 0.06,
            fp_frac: 0.85,
            mispredict_rate: 0.006,
            footprint: 8 * MB,
            access: Strided { stride: 128 },
            dep_serial: 0.24,
            load_use: 0.40,
            alias_rate: 0.02,
            store_data_from_load: 0.08,
            hot_frac: 0.92,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "523.xalancbmk",
            load_frac: 0.30,
            store_frac: 0.09,
            branch_frac: 0.17,
            fp_frac: 0.0,
            mispredict_rate: 0.018,
            footprint: 8 * MB,
            access: PointerChase,
            dep_serial: 0.30,
            load_use: 0.50,
            alias_rate: 0.05,
            store_data_from_load: 0.15,
            hot_frac: 0.78,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "525.x264",
            load_frac: 0.30,
            store_frac: 0.10,
            branch_frac: 0.08,
            fp_frac: 0.10,
            mispredict_rate: 0.010,
            footprint: 2 * MB,
            access: Strided { stride: 64 },
            dep_serial: 0.21,
            load_use: 0.35,
            alias_rate: 0.05,
            store_data_from_load: 0.20,
            hot_frac: 0.95,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "527.cam4",
            load_frac: 0.28,
            store_frac: 0.10,
            branch_frac: 0.08,
            fp_frac: 0.80,
            mispredict_rate: 0.008,
            footprint: 8 * MB,
            access: Strided { stride: 160 },
            dep_serial: 0.24,
            load_use: 0.40,
            alias_rate: 0.02,
            store_data_from_load: 0.10,
            hot_frac: 0.92,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "531.deepsjeng",
            load_frac: 0.25,
            store_frac: 0.09,
            branch_frac: 0.15,
            fp_frac: 0.0,
            mispredict_rate: 0.030,
            footprint: 4 * MB,
            access: Random,
            dep_serial: 0.27,
            load_use: 0.40,
            alias_rate: 0.12,
            store_data_from_load: 0.25,
            hot_frac: 0.92,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "538.imagick",
            load_frac: 0.24,
            store_frac: 0.06,
            branch_frac: 0.06,
            fp_frac: 0.80,
            mispredict_rate: 0.002,
            footprint: 512 * KB,
            access: Strided { stride: 64 },
            dep_serial: 0.33,
            load_use: 0.65,
            alias_rate: 0.01,
            store_data_from_load: 0.05,
            hot_frac: 0.985,
            addr_from_compute: 0.07,
        },
        WorkloadProfile {
            name: "541.leela",
            load_frac: 0.26,
            store_frac: 0.08,
            branch_frac: 0.14,
            fp_frac: 0.0,
            mispredict_rate: 0.028,
            footprint: MB,
            access: Random,
            dep_serial: 0.27,
            load_use: 0.40,
            alias_rate: 0.10,
            store_data_from_load: 0.20,
            hot_frac: 0.94,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "544.nab",
            load_frac: 0.28,
            store_frac: 0.08,
            branch_frac: 0.07,
            fp_frac: 0.85,
            mispredict_rate: 0.005,
            footprint: MB,
            access: Strided { stride: 96 },
            dep_serial: 0.27,
            load_use: 0.45,
            alias_rate: 0.02,
            store_data_from_load: 0.08,
            hot_frac: 0.96,
            addr_from_compute: 0.05,
        },
        WorkloadProfile {
            name: "548.exchange2",
            load_frac: 0.24,
            store_frac: 0.14,
            branch_frac: 0.14,
            fp_frac: 0.0,
            mispredict_rate: 0.008,
            footprint: 16 * KB,
            access: Random,
            dep_serial: 0.24,
            load_use: 0.35,
            alias_rate: 0.45,
            store_data_from_load: 0.60,
            hot_frac: 1.0,
            addr_from_compute: 0.04,
        },
        WorkloadProfile {
            name: "549.fotonik3d",
            load_frac: 0.32,
            store_frac: 0.09,
            branch_frac: 0.02,
            fp_frac: 0.90,
            mispredict_rate: 0.001,
            footprint: 24 * MB,
            access: Streaming,
            dep_serial: 0.18,
            load_use: 0.30,
            alias_rate: 0.0,
            store_data_from_load: 0.05,
            hot_frac: 0.99,
            addr_from_compute: 0.01,
        },
        WorkloadProfile {
            name: "554.roms",
            load_frac: 0.31,
            store_frac: 0.09,
            branch_frac: 0.04,
            fp_frac: 0.88,
            mispredict_rate: 0.002,
            footprint: 16 * MB,
            access: Streaming,
            dep_serial: 0.18,
            load_use: 0.30,
            alias_rate: 0.0,
            store_data_from_load: 0.05,
            hot_frac: 0.99,
            addr_from_compute: 0.01,
        },
        WorkloadProfile {
            name: "557.xz",
            load_frac: 0.27,
            store_frac: 0.09,
            branch_frac: 0.13,
            fp_frac: 0.0,
            mispredict_rate: 0.022,
            footprint: 8 * MB,
            access: Random,
            dep_serial: 0.30,
            load_use: 0.45,
            alias_rate: 0.06,
            store_data_from_load: 0.20,
            hot_frac: 0.88,
            addr_from_compute: 0.05,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_profiles_in_figure6_order() {
        let p = spec2017_profiles();
        assert_eq!(p.len(), 22);
        assert_eq!(p[0].name, "500.perlbench");
        assert_eq!(p[21].name, "557.xz");
    }

    #[test]
    fn all_profiles_validate() {
        for p in spec2017_profiles() {
            p.validate();
        }
    }

    #[test]
    fn names_are_unique() {
        let p = spec2017_profiles();
        let mut names: Vec<_> = p.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn paper_called_out_characteristics() {
        let p = spec2017_profiles();
        let by = |n: &str| *p.iter().find(|w| w.name.contains(n)).unwrap();
        // §8.1: bwaves is insensitive -> streaming, predictable.
        assert_eq!(by("bwaves").access, AccessPattern::Streaming);
        assert!(by("bwaves").mispredict_rate < 0.005);
        // §8.1: imagick is compute-bound with heavy load-use.
        assert!(by("imagick").load_use > 0.5);
        // §9.2: exchange2 spans very small memory with heavy forwarding.
        assert!(by("exchange2").footprint <= 64 * 1024);
        assert!(by("exchange2").alias_rate > 0.3);
        assert!(by("exchange2").store_data_from_load > 0.5);
        // mcf chases pointers.
        assert_eq!(by("mcf").access, AccessPattern::PointerChase);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_fraction_rejected() {
        let mut p = spec2017_profiles()[0];
        p.load_frac = 1.5;
        p.validate();
    }
}
