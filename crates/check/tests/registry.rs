//! The registry's own contract: what it covers, how much of it there is,
//! and that a cell survives a trace file.

use std::collections::BTreeSet;

use bruck_check::cells::{
    decode_meta, encode_meta, expected_classes, registry, rows, Faults, Family, Fixpoint, Harness,
    Op, PhaseClass, Row, Tier, DEFAULT_SEEDS, VERIFY_CLASSES,
};
use bruck_comm::ReduceOp;
use bruck_core::{
    AlltoallAlgorithm, AlltoallvAlgorithm, EngineConfig, EngineTopology, IntermediateLayout,
    PaddingRule,
};

fn family(family: Family, tier: Tier) -> Vec<Row> {
    rows(family, tier, &DEFAULT_SEEDS)
}

/// `op` with its free parameter (block size, reduce operator) normalized,
/// so "is this algorithm covered" ignores which value a cell picked.
fn shape(op: Op) -> Op {
    match op {
        Op::Alltoall(a, _) => Op::Alltoall(a, 0),
        Op::ReduceScatter(a, _) => Op::ReduceScatter(a, ReduceOp::Sum),
        Op::Allreduce(a, _) => Op::Allreduce(a, ReduceOp::Sum),
        Op::Discover(_) => Op::Discover(AlltoallvAlgorithm::Reference),
        Op::Alltoallv(_) | Op::Allgatherv(_) | Op::Fixpoint(..) => op,
    }
}

/// Adding a `*Algorithm` variant, an `EngineConfig` knob value or a fault
/// plan must land in every harness that should see it: the exhaustive
/// matches in `cells.rs` stop compiling, or this test fails.
#[test]
fn registry_covers_every_public_point() {
    let schedules = Op::schedules(ReduceOp::Sum);
    let mut surface: Vec<Op> = AlltoallAlgorithm::ALL.map(|a| Op::Alltoall(a, 0)).to_vec();
    surface.extend(AlltoallvAlgorithm::ALL.map(Op::named));
    surface.push(Op::Discover(AlltoallvAlgorithm::Reference));
    surface.extend(&schedules);
    assert_eq!(schedules.len(), 3 + 3 + 2, "one schedule per *Algorithm::ALL entry");
    let bruck = |c: &EngineConfig| c.topology == EngineTopology::Bruck;
    let direct = |c: &EngineConfig| c.topology == EngineTopology::Direct;
    // Every engine dimension, both sides.
    let knobs: [(&str, &dyn Fn(&EngineConfig) -> bool); 15] = [
        ("topology oracle", &|c| c.topology == EngineTopology::Oracle),
        ("topology direct", &direct),
        ("topology bruck", &bruck),
        ("topology leader", &|c| matches!(c.topology, EngineTopology::Leader { .. })),
        ("radix 2", &|c| bruck(c) && c.radix == 2),
        ("radix > 2", &|c| bruck(c) && c.radix > 2),
        ("no throttle", &|c| direct(c) && c.throttle_window.is_none()),
        ("a throttle window", &|c| direct(c) && c.throttle_window.is_some()),
        ("padding never", &|c| c.padding == PaddingRule::Never),
        ("padding always", &|c| c.padding == PaddingRule::Always),
        ("padding threshold", &|c| matches!(c.padding, PaddingRule::Threshold(_))),
        ("monolithic layout", &|c| bruck(c) && c.layout == IntermediateLayout::Monolithic),
        ("block-view layout", &|c| bruck(c) && c.layout == IntermediateLayout::BlockViews),
        ("split metadata", &|c| bruck(c) && c.two_phase_split),
        ("combined payload", &|c| bruck(c) && !c.two_phase_split),
    ];
    for fam in [Family::Check, Family::Sim, Family::Chaos] {
        let ops: Vec<Op> = family(fam, Tier::Smoke).iter().map(|r| r.cell.op).collect();
        for want in &surface {
            assert!(ops.iter().any(|op| shape(*op) == *want), "{fam:?}: no {}", want.label());
        }
        for (what, knob) in &knobs {
            let hit = ops.iter().any(|op| matches!(op, Op::Alltoallv(c) if knob(c)));
            assert!(hit, "{fam:?} has no alltoallv cell with {what}");
        }
    }
    // The multi-epoch tenants are recorded and schedule-fuzzed through every
    // way a round finds its counts — the Bruck frames (two-phase), message
    // lengths (vendor), a counts exchange (padded Bruck) — and, over
    // two-phase, model-checked (the closure, bounded) and run through the
    // reliable stack by chaos (below).
    let ways =
        [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::Vendor, AlltoallvAlgorithm::PaddedBruck];
    for app in Fixpoint::ALL {
        for want in ways.map(|algo| Op::Fixpoint(app, algo)) {
            for fam in [Family::Check, Family::Sim] {
                let hit = family(fam, Tier::Smoke).iter().any(|r| r.cell.op == want);
                assert!(hit, "{fam:?}: no {}", want.label());
            }
        }
    }
    let tc = Op::Fixpoint(Fixpoint::Tc, AlltoallvAlgorithm::TwoPhaseBruck);
    assert!(family(Family::Verify, Tier::Smoke).iter().any(|r| r.cell.op == tc && r.cell.p == 2));
    // The schedule families are model-checked too, at P = 2 and P = 3.
    let verify = family(Family::Verify, Tier::Smoke);
    for want in AlltoallvAlgorithm::ALL.map(Op::named).iter().chain(&schedules) {
        for p in [2, 3] {
            let hit = verify.iter().any(|r| r.cell.op == *want && r.cell.p == p);
            assert!(hit, "no P = {p} DPOR cell for {}", want.label());
        }
    }
    // Every fault plan is exercised; the whole battery hits the paper's
    // algorithm and the direct baseline under every seed, and the plan trio
    // every collective schedule.
    let chaos = family(Family::Chaos, Tier::Smoke);
    let hit = |op: Op, f: Faults, seed: Option<u64>| {
        chaos.iter().any(|r| r.cell.op == op && r.faults == f && seed.map_or(true, |s| r.seed == s))
    };
    for f in Faults::ALL {
        assert!(chaos.iter().any(|r| r.faults == f), "no chaos cell under {}", f.name());
    }
    for algo in [AlltoallvAlgorithm::TwoPhaseBruck, AlltoallvAlgorithm::SpreadOut] {
        for (seed, &f) in DEFAULT_SEEDS.iter().flat_map(|s| Faults::ALL[1..].iter().map(move |f| (*s, f))) {
            assert!(hit(Op::named(algo), f, Some(seed)), "{} misses {}", algo.name(), f.name());
        }
    }
    for &op in &schedules {
        for f in [Faults::Clean, Faults::Lossy, Faults::Crash] {
            assert!(hit(op, f, None), "{} misses {}", op.label(), f.name());
        }
    }
}

/// Unweakened by count: no harness runs fewer smoke cells than it did
/// before the registry existed, and exactly three chaos cells need a real
/// clock.
#[test]
fn smoke_cell_counts_are_pinned() {
    let count = |fam| family(fam, Tier::Smoke).len();
    // 385 single operations + 13 two-phase fixpoints + the two fixpoints
    // over vendor and over padded Bruck.
    assert_eq!(count(Family::Check), 402);
    // 49 single operations + the two fixpoints over two-phase at two seeds,
    // and over vendor and padded Bruck at one.
    assert_eq!(count(Family::Sim), 57);
    // 94 single operations + the two fixpoints under clean / lossy / crash.
    assert_eq!(count(Family::Chaos), 100);
    let chaos = family(Family::Chaos, Tier::Smoke);
    for app in Fixpoint::ALL {
        for f in [Faults::Clean, Faults::Lossy, Faults::Crash] {
            let op = Op::Fixpoint(app, AlltoallvAlgorithm::TwoPhaseBruck);
            let hit = |r: &Row| r.cell.op == op && r.faults == f && r.cell.p == 5;
            assert!(chaos.iter().any(hit), "{app:?} misses {}", f.name());
        }
    }
    // 17 alltoallv DPOR cells + the eight schedules at P = 2 and P = 3, and
    // one fixpoint on top.
    assert!(count(Family::Verify) > 17 + 16, "verify: {}", count(Family::Verify));
    assert_eq!(bruck_check::wakeup_audit::EventScenario::ALL.len(), 5);
    // Eight `alltoallv`s, the closure and the eight schedules, each crashed
    // at four points.
    assert_eq!(count(Family::Recovery), 68);
    let canaries = family(Family::Chaos, Tier::Full)
        .iter()
        .filter(|r| r.harness == Harness::Chaos { threads: true })
        .count();
    assert_eq!(canaries, 3);
    // The full tier is a superset.
    for fam in [Family::Check, Family::Sim, Family::Verify, Family::Chaos, Family::Recovery] {
        assert!(family(fam, Tier::Full).len() >= count(fam));
    }
}

/// The recovery labels are the keys of the committed `BENCH_PR8.json`,
/// byte for byte and in order.
#[test]
fn recovery_labels_match_the_committed_baseline() {
    let baseline = include_str!("../../../BENCH_PR8.json");
    let committed: Vec<&str> = baseline
        .lines()
        .filter_map(|l| l.strip_prefix("{\"cell\":\"")?.split('"').next())
        .collect();
    let labels: Vec<String> = family(Family::Recovery, Tier::Smoke).iter().map(Row::label).collect();
    assert_eq!(labels, committed);
    assert_eq!(labels[2], format!("Reference/{}/seed1", PhaseClass::Half.name()));
}

#[test]
fn every_registry_cell_survives_a_trace_meta_line() {
    let mut seen = BTreeSet::new();
    for row in registry(&DEFAULT_SEEDS) {
        let meta = encode_meta(&row.cell, row.faults, row.seed);
        assert_eq!(decode_meta(&meta), Ok((row.cell, row.faults, row.seed)), "{meta}");
        seen.insert(meta);
    }
    assert!(seen.len() > 500, "registry shrank: {} distinct cells", seen.len());
}

/// A misspelt or hand-edited trace must not replay as some other cell.
#[test]
fn decode_rejects_unknown_tokens_by_name() {
    let good = "cell op=alltoallv:Two-phaseBruck dist=uniform p=5 n=24 wseed=11 sseed=1 fault=none";
    assert!(decode_meta(good).is_ok());
    let err = decode_meta(&good.replace("fault=none", "fault=losy")).unwrap_err();
    assert!(err.contains("losy"), "{err}");
    let err = decode_meta(&good.replace("op=alltoallv:Two-phaseBruck", "op=alltoallv:5")).unwrap_err();
    assert!(err.contains("alltoallv:5"), "{err}");
    for bad in [
        "op=ar/rsag:avg",
        "op=agv/rng",
        "op=engine:bruck:r=x",
        "op=fixpoint/cc",
        "dist=zipf",
        "algo=5",
    ] {
        let meta = good.replace("op=alltoallv:Two-phaseBruck", bad);
        assert!(decode_meta(&meta).is_err(), "{meta} decoded");
    }
    assert!(decode_meta("not a cell").is_err());
    // A fault plan scripts rank 1 and rank p − 1: it needs a second rank.
    assert!(decode_meta(&good.replace("p=5", "p=1").replace("fault=none", "fault=crash")).is_err());
}

#[test]
fn every_exhaustive_verify_row_has_exactly_one_class_count() {
    let exhaustive: Vec<Row> = family(Family::Verify, Tier::Full)
        .into_iter()
        .filter(|r| matches!(r.harness, Harness::Verify { exhaustive: true, .. }))
        .collect();
    for row in &exhaustive {
        assert!(expected_classes(row).is_some(), "{}: no expected class count", row.label());
    }
    // No stale or duplicate entry: each names one exhaustive row's cell.
    for (cell, _) in VERIFY_CLASSES {
        let rows = exhaustive.iter().filter(|r| r.cell.label() == cell).count();
        assert_eq!(rows, 1, "{cell}");
    }
    assert_eq!(VERIFY_CLASSES.len(), exhaustive.len());
}
