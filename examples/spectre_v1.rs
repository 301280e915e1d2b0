//! Spectre-v1 attack demo (the paper's §7 BOOM-attacks check): a
//! mispredicted bounds check transiently loads a secret and encodes it into
//! a cache probe array; the leakage observer records which probe slots the
//! squashed instructions left changed in the cache.
//!
//! The unsafe baseline leaks the secret. STT-Rename, STT-Issue and NDA all
//! block the transmitting load, so no probe slot changes transiently.
//!
//! ```sh
//! cargo run --release --example spectre_v1
//! ```

use shadowbinding::core::Scheme;
use shadowbinding::isa::Trace;
use shadowbinding::uarch::{Core, CoreConfig};
use shadowbinding::workloads::{spectre_v1_kernel, ssb_kernel, PROBE_BASE, PROBE_STRIDE};

fn main() {
    let secret = 13usize;
    println!("victim secret: {secret}\n");

    println!("== Spectre v1 (C-shadow: mispredicted bounds check) ==");
    for scheme in Scheme::all() {
        report(
            scheme.label(),
            &leaked_slots(scheme, spectre_v1_kernel(secret).trace),
            secret,
        );
    }

    // The replay after the forwarding-error flush commits, so the line it
    // touches is not transient: the run can go to completion.
    println!("\n== Speculative Store Bypass (D-shadow: late store address) ==");
    for scheme in Scheme::all() {
        report(
            scheme.label(),
            &leaked_slots(scheme, ssb_kernel(secret).trace),
            secret,
        );
    }
}

/// Runs `trace` on the mega core under `scheme` and returns the probe
/// slots whose cache state squashed instructions changed.
fn leaked_slots(scheme: Scheme, trace: Trace) -> Vec<usize> {
    let mut core = Core::with_scheme(CoreConfig::mega(), scheme, trace);
    core.memory_mut().attach_leakage_observer();
    core.run(1_000_000);
    core.memory()
        .leakage_observer()
        .expect("observer attached before the run")
        .transient_slots(PROBE_BASE, PROBE_STRIDE, 16)
        .into_iter()
        .collect()
}

fn report(scheme: &str, slots: &[usize], secret: usize) {
    match *slots {
        [v] if v == secret => {
            println!("{scheme:<12} LEAKED: attacker recovered {v} via the cache side channel");
        }
        [] => println!("{scheme:<12} blocked: no probe slot changed transiently"),
        _ => println!("{scheme:<12} noisy channel (probe slots {slots:?}, not the secret alone)"),
    }
}
