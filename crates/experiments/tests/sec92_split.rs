//! §9.2's split-store-taint ablation must run the same exchange2 trace as
//! the scheme rows it is compared against: the grid's `bench_trace`.
//! Recomputes the `stt-rename-split` row from that trace directly and
//! checks the report prints exactly it.

use sb_core::Scheme;
use sb_experiments::{bench_trace, sec92_report, RunSpec};
use sb_uarch::{Core, CoreConfig};
use sb_workloads::spec2017_profiles;

#[test]
fn split_row_runs_the_exchange2_grid_trace() {
    let spec = RunSpec {
        ops: 3_000,
        seed: 2025,
    };
    let exchange2 = spec2017_profiles()
        .into_iter()
        .find(|p| p.name == "548.exchange2")
        .expect("exchange2 profile");
    let mega = CoreConfig::mega();
    let mut split = mega.scheme_config(Scheme::SttRename);
    split.split_store_taints = true;
    let mut core = Core::new(mega, split, bench_trace(&exchange2, &spec));
    core.run_to_completion(400_000_000);
    let want = format!(
        "stt-rename-split,{:.4},{}",
        core.stats().ipc(),
        core.stats().forwarding_errors.get()
    );
    let report = sec92_report(&spec);
    let csv = &report.csv[0].1;
    assert!(
        csv.lines().any(|l| l == want),
        "expected row {want:?} in:\n{csv}"
    );
}
