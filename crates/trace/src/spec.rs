//! Profiles for the paper's 16 SPEC2K benchmarks (8 INT + 8 FP).
//!
//! The paper uses proprietary sampled PowerPC traces; each profile here is
//! a statistical stand-in whose knobs were chosen (and then calibrated, see
//! `ramp-bench`'s `calibrate` binary) so the timing simulator reproduces
//! the benchmark's published Table-3 IPC, and the power model its published
//! average power. `published` carries the Table-3 reference values.
//!
//! Knob rationale per benchmark (from well-known SPEC2K characterisations):
//!
//! * `mean_dep_distance` — instruction-level parallelism; the calibrated
//!   degree of freedom for IPC.
//! * memory fractions — `ammp`/`applu`/`twolf`/`vpr` are cache-hungry;
//!   `crafty`/`bzip2`/`perlbmk` are L1-friendly.
//! * `random_fraction` — `gcc`/`twolf`/`vpr` mispredict noticeably more
//!   than loop-dominated FP codes.
//! * `power_residual` — per-benchmark multiplier standing in for
//!   circuit-level detail PowerTimer captured and our structural model
//!   cannot; fitted against Table-3 power (see DESIGN.md §3).

use crate::profile::{
    BenchmarkProfile, BranchModel, InstructionMix, MemoryModel, PhaseModel, PublishedStats,
    Suite,
};

/// Names of the 8 SPECfp2000 benchmarks used by the paper, in Table-3 order.
pub const SPEC_FP: [&str; 8] = [
    "ammp", "applu", "sixtrack", "mgrid", "mesa", "facerec", "wupwise", "apsi",
];

/// Names of the 8 SPECint2000 benchmarks used by the paper, in Table-3 order.
pub const SPEC_INT: [&str; 8] = [
    "vpr", "bzip2", "twolf", "gzip", "perlbmk", "gap", "gcc", "crafty",
];

/// Raw per-benchmark knob table; converted to [`BenchmarkProfile`] by
/// [`profile`].
struct Row {
    name: &'static str,
    suite: Suite,
    /// (ipc, power W) from Table 3.
    published: (f64, f64),
    /// FP fraction of the instruction mix (0 for INT codes).
    fp_frac: f64,
    /// Load / store / branch fractions of the mix.
    load: f64,
    store: f64,
    branch: f64,
    /// Mean register dependency distance (calibrated knob).
    dep: f64,
    /// Memory locality: (hot, warm) fractions; cold is the remainder.
    locality: (f64, f64),
    /// Fraction of sequential (striding) accesses.
    seq: f64,
    /// Fraction of unlearnable branch sites.
    random_br: f64,
    /// Code footprint in KiB.
    code_kib: u64,
    /// Power residual multiplier (calibrated against Table-3 power).
    power_residual: f64,
}

/// The knob table. `dep` and `power_residual` carry calibrated values
/// produced by `cargo run -p ramp-bench --bin calibrate`; the rest encode
/// benchmark character.
const ROWS: [Row; 16] = [
    // ---- SPECfp2000 -----------------------------------------------------
    Row {
        name: "ammp",
        suite: Suite::Fp,
        published: (1.06, 26.08),
        fp_frac: 0.32,
        load: 0.30,
        store: 0.09,
        branch: 0.05,
        dep: 11.0177,
        locality: (0.875, 0.105),
        seq: 0.45,
        random_br: 0.05,
        code_kib: 24,
        power_residual: 0.9953,
    },
    Row {
        name: "applu",
        suite: Suite::Fp,
        published: (1.17, 26.94),
        fp_frac: 0.38,
        load: 0.29,
        store: 0.10,
        branch: 0.03,
        dep: 9.0728,
        locality: (0.900, 0.085),
        seq: 0.70,
        random_br: 0.02,
        code_kib: 28,
        power_residual: 1.0133,
    },
    Row {
        name: "sixtrack",
        suite: Suite::Fp,
        published: (1.38, 27.32),
        fp_frac: 0.40,
        load: 0.26,
        store: 0.09,
        branch: 0.04,
        dep: 10.0453,
        locality: (0.965, 0.030),
        seq: 0.65,
        random_br: 0.03,
        code_kib: 48,
        power_residual: 0.977,
    },
    Row {
        name: "mgrid",
        suite: Suite::Fp,
        published: (1.71, 27.78),
        fp_frac: 0.44,
        load: 0.31,
        store: 0.08,
        branch: 0.02,
        dep: 16.8525,
        locality: (0.940, 0.055),
        seq: 0.80,
        random_br: 0.01,
        code_kib: 16,
        power_residual: 0.9226,
    },
    Row {
        name: "mesa",
        suite: Suite::Fp,
        published: (1.75, 29.21),
        fp_frac: 0.30,
        load: 0.26,
        store: 0.11,
        branch: 0.08,
        dep: 14.9076,
        locality: (0.980, 0.018),
        seq: 0.60,
        random_br: 0.04,
        code_kib: 64,
        power_residual: 0.9328,
    },
    Row {
        name: "facerec",
        suite: Suite::Fp,
        published: (1.79, 29.60),
        fp_frac: 0.36,
        load: 0.28,
        store: 0.08,
        branch: 0.04,
        dep: 14.9076,
        locality: (0.965, 0.031),
        seq: 0.75,
        random_br: 0.02,
        code_kib: 32,
        power_residual: 0.9665,
    },
    Row {
        name: "wupwise",
        suite: Suite::Fp,
        published: (1.66, 30.50),
        fp_frac: 0.42,
        load: 0.27,
        store: 0.10,
        branch: 0.03,
        dep: 15.3938,
        locality: (0.955, 0.040),
        seq: 0.70,
        random_br: 0.02,
        code_kib: 24,
        power_residual: 1.0232,
    },
    Row {
        name: "apsi",
        suite: Suite::Fp,
        published: (1.64, 30.65),
        fp_frac: 0.40,
        load: 0.28,
        store: 0.09,
        branch: 0.04,
        dep: 15.1507,
        locality: (0.950, 0.044),
        seq: 0.70,
        random_br: 0.03,
        code_kib: 40,
        power_residual: 1.0296,
    },
    // ---- SPECint2000 ----------------------------------------------------
    Row {
        name: "vpr",
        suite: Suite::Int,
        published: (1.38, 26.93),
        fp_frac: 0.02,
        load: 0.28,
        store: 0.10,
        branch: 0.15,
        dep: 16.6094,
        locality: (0.935, 0.058),
        seq: 0.40,
        random_br: 0.10,
        code_kib: 40,
        power_residual: 0.8705,
    },
    Row {
        name: "bzip2",
        suite: Suite::Int,
        published: (2.31, 27.71),
        fp_frac: 0.0,
        load: 0.26,
        store: 0.11,
        branch: 0.13,
        dep: 15.6369,
        locality: (0.990, 0.009),
        seq: 0.70,
        random_br: 0.02,
        code_kib: 24,
        power_residual: 0.7876,
    },
    Row {
        name: "twolf",
        suite: Suite::Int,
        published: (1.26, 28.44),
        fp_frac: 0.03,
        load: 0.29,
        store: 0.09,
        branch: 0.14,
        dep: 12.2333,
        locality: (0.920, 0.072),
        seq: 0.35,
        random_br: 0.12,
        code_kib: 48,
        power_residual: 0.9585,
    },
    Row {
        name: "gzip",
        suite: Suite::Int,
        published: (1.85, 28.69),
        fp_frac: 0.0,
        load: 0.25,
        store: 0.12,
        branch: 0.14,
        dep: 7.8572,
        locality: (0.970, 0.029),
        seq: 0.75,
        random_br: 0.05,
        code_kib: 16,
        power_residual: 0.8836,
    },
    Row {
        name: "perlbmk",
        suite: Suite::Int,
        published: (2.25, 30.59),
        fp_frac: 0.0,
        load: 0.28,
        store: 0.10,
        branch: 0.13,
        dep: 15.1507,
        locality: (0.992, 0.007),
        seq: 0.55,
        random_br: 0.02,
        code_kib: 24,
        power_residual: 0.8811,
    },
    Row {
        name: "gap",
        suite: Suite::Int,
        published: (1.76, 31.24),
        fp_frac: 0.01,
        load: 0.27,
        store: 0.11,
        branch: 0.13,
        dep: 10.5315,
        locality: (0.960, 0.036),
        seq: 0.55,
        random_br: 0.05,
        code_kib: 32,
        power_residual: 0.9668,
    },
    Row {
        name: "gcc",
        suite: Suite::Int,
        published: (1.24, 31.73),
        fp_frac: 0.0,
        load: 0.28,
        store: 0.13,
        branch: 0.16,
        dep: 18.5543,
        locality: (0.930, 0.063),
        seq: 0.45,
        random_br: 0.14,
        code_kib: 256,
        power_residual: 1.1062,
    },
    Row {
        name: "crafty",
        suite: Suite::Int,
        published: (2.25, 31.95),
        fp_frac: 0.0,
        load: 0.27,
        store: 0.09,
        branch: 0.14,
        dep: 19.5268,
        locality: (0.990, 0.009),
        seq: 0.50,
        random_br: 0.04,
        code_kib: 32,
        power_residual: 0.9115,
    },
];

impl Row {
    fn to_profile(&self) -> BenchmarkProfile {
        let other = 1.0 - self.fp_frac - self.load - self.store - self.branch;
        assert!(
            other > 0.0,
            "benchmark {} mix fractions exceed 1",
            self.name
        );
        // Split the FP share across add/mul/div and the integer share across
        // alu/mul/div/cr with fixed intra-class proportions typical of
        // SPEC2K instruction profiles.
        let mix = InstructionMix {
            int_alu: other * 0.93,
            int_mul: other * 0.05,
            int_div: other * 0.02 * 0.15,
            fp_add: self.fp_frac * 0.48,
            fp_mul: self.fp_frac * 0.46,
            fp_div: self.fp_frac * 0.06,
            load: self.load,
            store: self.store,
            branch: self.branch,
            cond_reg: other * 0.02 * 0.85,
        };
        BenchmarkProfile {
            name: self.name.to_string(),
            suite: self.suite,
            mix,
            mean_dep_distance: self.dep,
            memory: MemoryModel {
                hot_fraction: self.locality.0,
                warm_fraction: self.locality.1,
                hot_bytes: 16 << 10,
                warm_bytes: 768 << 10,
                cold_bytes: 64 << 20,
                sequential_fraction: self.seq,
            },
            branches: BranchModel {
                static_sites: 512,
                random_fraction: self.random_br,
                taken_bias: 0.97,
            },
            code_bytes: self.code_kib << 10,
            phases: PhaseModel::standard(),
            published: PublishedStats {
                ipc: self.published.0,
                power_w: self.published.1,
            },
            seed: seed_for(self.name),
        }
    }
}

/// Stable 64-bit seed derived from the benchmark name (FNV-1a), so each
/// benchmark's trace is fixed forever and independent of table order.
fn seed_for(name: &str) -> u64 {
    ramp_obs::fnv1a_64(name)
}

/// Per-benchmark power residual (see module docs); 1.0 means the structural
/// power model already matches Table 3 exactly.
#[must_use]
pub fn power_residual(name: &str) -> Option<f64> {
    ROWS.iter()
        .find(|r| r.name == name)
        .map(|r| r.power_residual)
}

/// Returns the profile for a benchmark by SPEC2K short name.
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] if the name is not one of the paper's 16.
///
/// # Examples
///
/// ```
/// use ramp_trace::spec;
/// let crafty = spec::profile("crafty")?;
/// assert_eq!(crafty.suite, ramp_trace::Suite::Int);
/// assert!(spec::profile("linpack").is_err());
/// # Ok::<(), ramp_trace::spec::UnknownBenchmark>(())
/// ```
pub fn profile(name: &str) -> Result<BenchmarkProfile, UnknownBenchmark> {
    ROWS.iter()
        .find(|r| r.name == name)
        .map(Row::to_profile)
        .ok_or_else(|| UnknownBenchmark {
            name: name.to_string(),
        })
}

/// All 16 profiles, SpecFP first, each suite in Table-3 order.
#[must_use]
pub fn all_profiles() -> Vec<BenchmarkProfile> {
    ROWS.iter().map(Row::to_profile).collect()
}

/// Profiles of one suite, in Table-3 order.
#[must_use]
pub fn suite_profiles(suite: Suite) -> Vec<BenchmarkProfile> {
    ROWS.iter()
        .filter(|r| r.suite == suite)
        .map(Row::to_profile)
        .collect()
}

/// Error returned by [`profile`] for a name outside the paper's workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBenchmark {
    /// The unrecognised name.
    pub name: String,
}

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark `{}` (expected one of the paper's 16 SPEC2K programs)", self.name)
    }
}

impl std::error::Error for UnknownBenchmark {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_seeds_are_pinned() {
        // Every trace, and so every published number, derives from these
        // seeds: a change to the shared FNV-1a must fail here first.
        assert_eq!(ramp_obs::fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            ramp_obs::fnv1a_64("The Impact of Technology Scaling on Lifetime Reliability"),
            0x0e9c_eba7_4d0d_c422
        );
        let pinned: [(&str, u64); 16] = [
            ("ammp", 0x8c7e_9483_af1a_845e),
            ("applu", 0xf74a_72a4_58bf_18ef),
            ("sixtrack", 0x1b17_9b1b_9294_ed2a),
            ("mgrid", 0xdc18_1dda_0aa1_40d8),
            ("mesa", 0x4324_11a2_e331_2607),
            ("facerec", 0x0c7c_7e7f_5588_065a),
            ("wupwise", 0x5707_e22a_26a5_c25b),
            ("apsi", 0x76e6_d484_3406_72a4),
            ("vpr", 0x693e_1a19_4f02_d8eb),
            ("bzip2", 0x4507_745f_4e8e_ce72),
            ("twolf", 0x7a39_57bf_a0fd_671b),
            ("gzip", 0x3ffc_eb72_6a92_1155),
            ("perlbmk", 0x9c04_4d03_4581_4196),
            ("gap", 0xd4f0_5718_fab6_a2ef),
            ("gcc", 0xd4e9_7818_fab0_bc54),
            ("crafty", 0x3cf5_02c7_20cf_d8e8),
        ];
        assert_eq!(ROWS.len(), pinned.len());
        for (row, (name, seed)) in ROWS.iter().zip(pinned) {
            assert_eq!(row.name, name);
            assert_eq!(seed_for(name), seed, "{name}");
            assert_eq!(profile(name).unwrap().seed, seed, "{name}");
        }
    }

    #[test]
    fn sixteen_profiles_all_valid() {
        let all = all_profiles();
        assert_eq!(all.len(), 16);
        for p in &all {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn suites_have_eight_each() {
        assert_eq!(suite_profiles(Suite::Fp).len(), 8);
        assert_eq!(suite_profiles(Suite::Int).len(), 8);
    }

    #[test]
    fn names_match_table3_order() {
        let fp: Vec<_> = suite_profiles(Suite::Fp)
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(fp, SPEC_FP);
        let int: Vec<_> = suite_profiles(Suite::Int)
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(int, SPEC_INT);
    }

    #[test]
    fn published_table3_averages() {
        // Table 3: SpecFP average IPC 1.52, power 28.51 W;
        //          SpecInt average IPC 1.79, power 29.66 W.
        let avg = |s: Suite, f: fn(&BenchmarkProfile) -> f64| {
            let v = suite_profiles(s);
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        assert!((avg(Suite::Fp, |p| p.published.ipc) - 1.52).abs() < 0.005);
        assert!((avg(Suite::Int, |p| p.published.ipc) - 1.79).abs() < 0.005);
        assert!((avg(Suite::Fp, |p| p.published.power_w) - 28.51).abs() < 0.005);
        assert!((avg(Suite::Int, |p| p.published.power_w) - 29.66).abs() < 0.005);
    }

    #[test]
    fn fp_benchmarks_are_fp_heavy_and_int_are_not() {
        for p in suite_profiles(Suite::Fp) {
            assert!(p.fp_intensity() > 0.25, "{} fp intensity", p.name);
        }
        for p in suite_profiles(Suite::Int) {
            assert!(p.fp_intensity() < 0.05, "{} fp intensity", p.name);
        }
    }

    #[test]
    fn unknown_name_is_error() {
        let err = profile("linpack").unwrap_err();
        assert!(err.to_string().contains("linpack"));
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<_> = all_profiles().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn hottest_apps_have_highest_power() {
        // Figure 2/Table 3 correlation the paper calls out: wupwise & apsi
        // are the hottest FP apps, crafty the hottest INT app.
        let fp = suite_profiles(Suite::Fp);
        let max_fp = fp
            .iter()
            .max_by(|a, b| a.published.power_w.total_cmp(&b.published.power_w))
            .unwrap();
        assert_eq!(max_fp.name, "apsi");
        let int = suite_profiles(Suite::Int);
        let max_int = int
            .iter()
            .max_by(|a, b| a.published.power_w.total_cmp(&b.published.power_w))
            .unwrap();
        assert_eq!(max_int.name, "crafty");
    }
}
