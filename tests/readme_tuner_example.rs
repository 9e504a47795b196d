//! The README "Auto-tuning" example, compiled and run verbatim so the docs
//! cannot rot (they once documented a selection the code did not make).

use bruck_core::EngineConfig;
use bruck_model::{AutoTuner, MachineModel};
use bruck_workload::Distribution;

#[test]
fn readme_auto_tuning_example() {
    let tuner = AutoTuner::new(MachineModel::theta_like());
    let candidates: Vec<EngineConfig> =
        EngineConfig::named_points().iter().map(|(c, _)| *c).collect();
    // Every candidate with its predicted seconds, cheapest first. The cost is
    // the time of the config's byte-exact trace — the one cost function that
    // `refit` calibrates and `select`, `predict` and the figures all use.
    let ranked = tuner.select(&candidates, Distribution::Uniform, 1, 4096, 256);
    let (cfg, predicted_s) = ranked[0];
    // The paper's headline regime: two-phase Bruck wins at P = 4096, N = 256.
    assert_eq!(cfg.key(), "bruck:r=2:layout=mono:split=meta:pad=never");
    assert!(predicted_s < ranked[1].1);
}
