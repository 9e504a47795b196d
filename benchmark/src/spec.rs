//! What the benchmark measures: the three workloads with their fixed sizes,
//! and the registry of metric names. `BENCHMARK.json` declares the same
//! names; `tests/schema.rs` keeps the two in step.
//!
//! Every size below is a constant. Nothing is calibrated at run time, so the
//! amount of work in a round never depends on the code under test.

use bruck_core::AllreduceAlgorithm;
use bruck_workload::Distribution;

/// Which communicator the workload's ranks run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `EventComm`, one worker thread.
    Event,
    /// `ThreadComm`, one OS thread per rank.
    Thread,
    /// `ThreadComm` under `Metered(Deadline(Reliable(Fault(no faults))))`.
    ThreadStack,
}

/// One workload: a backend plus the fixed size of each of its cells.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line; the long form is in README.md).
    pub why: &'static str,
    /// Communicator stack under every cell.
    pub backend: Backend,
    /// World size of the exchange and collective cells.
    pub p: usize,
    /// World size of the application cells.
    pub app_p: usize,
    /// Block-size distribution of the exchange cells.
    pub dist: Distribution,
    /// Largest block of the exchange cells, bytes.
    pub n_max: usize,
    /// Calls per sample in exchange and collective cells.
    pub k: usize,
    /// `allgatherv` contribution sizes are uniform in this range, bytes.
    pub gv_bytes: (usize, usize),
    /// `allreduce` vector length, `u64` elements.
    pub ar_len: usize,
    /// `allreduce` schedule.
    pub ar_algo: AllreduceAlgorithm,
    /// `graph1_like(chains, chain_len, shortcuts, seed)`.
    pub tc_deep: (usize, usize, usize),
    /// `graph2_like(vertices, edges, seed)`.
    pub tc_bushy: (usize, usize),
    /// `KcfaConfig { iterations, base_facts, seed }`.
    pub kcfa: (usize, usize),
}

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "event-latency",
        why: "EventComm, 1 worker, P=256, 64 B blocks: latency-bound; time is scheduler \
              park/wake/replay and mailbox matching, not copying",
        backend: Backend::Event,
        p: 256,
        app_p: 8,
        dist: Distribution::Uniform,
        n_max: 64,
        k: 1,
        gv_bytes: (0, 64),
        ar_len: 64,
        ar_algo: AllreduceAlgorithm::RecursiveDoubling,
        tc_deep: (2, 10, 2),
        tc_bushy: (32, 80),
        kcfa: (6, 16),
    },
    Workload {
        name: "thread-bandwidth",
        why: "ThreadComm, P=8, 16 KiB blocks: bandwidth-bound; time is pack/rotate/scatter \
              copies and MsgBuf traffic, none of it the event runtime",
        backend: Backend::Thread,
        p: 8,
        app_p: 8,
        dist: Distribution::Uniform,
        n_max: 16 << 10,
        k: 80,
        gv_bytes: (4 << 10, 28 << 10),
        ar_len: 8_192,
        ar_algo: AllreduceAlgorithm::ReduceScatterAllgather,
        tc_deep: (4, 100, 20),
        tc_bushy: (150, 750),
        kcfa: (160, 16),
    },
    Workload {
        name: "thread-stack",
        why: "ThreadComm, P=8, power-law 1 KiB blocks under the full wrapper stack: per-message \
              overhead of Metered/Deadline/Reliable/Fault dominates",
        backend: Backend::ThreadStack,
        p: 8,
        app_p: 8,
        dist: Distribution::POWER_LAW_STEEP,
        n_max: 1 << 10,
        k: 40,
        gv_bytes: (0, 1 << 10),
        ar_len: 128,
        ar_algo: AllreduceAlgorithm::RecursiveDoubling,
        tc_deep: (4, 20, 8),
        tc_bushy: (160, 640),
        kcfa: (20, 16),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Module the number belongs to (`end-to-end` for the public entry points).
    pub layer: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A count the program makes, which must repeat exactly between runs.
    pub exact: bool,
}

fn metric(name: impl Into<String>, unit: &'static str, layer: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        layer,
        better: Better::Lower,
        exact: false,
    }
}

fn count(name: impl Into<String>, layer: &'static str) -> Metric {
    Metric {
        exact: true,
        ..metric(name, "count", layer)
    }
}

fn higher(m: Metric) -> Metric {
    Metric {
        better: Better::Higher,
        ..m
    }
}

/// Regression bound of every end-to-end metric, as a share of the parent's
/// median: the widest the contract allows. The acceptance rule wants the
/// quartiles of ten runs of one build within a third of it (8.3 %), and the
/// least steady cells (`padded_bruck_ms` and `tc_bushy_ms` on `thread-stack`,
/// whose samples fall into two modes a tenth apart) need all of that; the
/// medians of two sets of ten runs agree within 3 % on every row (AA_REPORT.md).
pub const BOUND: f64 = 0.25;

/// The end-to-end metrics: the same nine names in every workload.
pub fn end_to_end() -> Vec<Metric> {
    const L: &str = "end-to-end";
    vec![
        metric("vendor_ms", "ms/exchange", L),
        metric("padded_bruck_ms", "ms/exchange", L),
        metric("two_phase_ms", "ms/exchange", L),
        metric("allgatherv_ms", "ms/call", L),
        metric("allreduce_ms", "ms/call", L),
        metric("tc_deep_ms", "ms/fixpoint", L),
        metric("tc_bushy_ms", "ms/fixpoint", L),
        metric("kcfa_ms", "ms/run", L),
        metric("setup_s", "s", L),
    ]
}

/// Short names of the three exchange algorithms the per-layer metrics cover.
pub const EXCHANGES: [&str; 3] = ["vendor", "padded_bruck", "two_phase"];
/// Short names of the three applications.
pub const APPS: [&str; 3] = ["tc_deep", "tc_bushy", "kcfa"];
/// `(family, schedule)` of the eight collective schedules.
pub const COLLECTIVES: [(&str, &str); 8] = [
    ("allgatherv", "ring"),
    ("allgatherv", "bruck"),
    ("allgatherv", "pat"),
    ("reduce_scatter", "pairwise"),
    ("reduce_scatter", "halving"),
    ("reduce_scatter", "pat"),
    ("allreduce", "doubling"),
    ("allreduce", "rsag"),
];
/// `(metric suffix, probe span)` of the phase times read from `bruck_core::probe`.
pub const PHASES: [(&str, &str); 10] = [
    ("nonuniform.two_phase.allreduce_us", "two_phase.allreduce"),
    ("nonuniform.two_phase.meta_us", "two_phase.meta"),
    ("nonuniform.two_phase.pack_us", "two_phase.pack"),
    ("nonuniform.two_phase.data_us", "two_phase.data"),
    ("nonuniform.two_phase.scatter_us", "two_phase.scatter"),
    ("nonuniform.padded.allreduce_us", "padded.allreduce"),
    ("nonuniform.padded.pad_us", "padded.pad"),
    ("nonuniform.padded.exchange_us", "padded.exchange"),
    ("nonuniform.padded.scan_us", "padded.scan"),
    ("nonuniform.vendor.window_us", "vendor.window"),
];

/// The per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();

    const RT: &str = "comm::runtime";
    m.push(count("runtime.executions", RT));
    m.push(metric("runtime.replay_amplification", "ratio", RT));
    m.push(count("runtime.messages", RT));
    m.push(higher(metric("runtime.msgs_per_s", "1/s", RT)));
    m.push(metric("runtime.spawn_us", "us", RT));
    m.push(metric("runtime.pingpong_us", "us", RT));
    m.push(count("runtime.leaked_messages", RT));

    const TC: &str = "comm::thread_comm";
    m.push(metric("thread_comm.spawn_us", "us", TC));
    m.push(metric("thread_comm.pingpong_us", "us", TC));
    m.push(metric("thread_comm.barrier_us", "us", TC));

    m.push(metric("mailbox.deep_match_us", "us", "comm::mailbox"));

    m.push(metric("msgbuf.slice_ns", "ns", "comm::msgbuf"));
    m.push(higher(metric("msgbuf.copy_gbps", "GB/s", "comm::msgbuf")));

    const WR: &str = "comm wrappers";
    m.push(metric("wrappers.bare_ms", "ms/exchange", WR));
    m.push(metric("wrappers.metered_ratio", "ratio", WR));
    m.push(metric("wrappers.reliable_ratio", "ratio", WR));
    m.push(metric("wrappers.stack_ratio", "ratio", WR));
    m.push(count("wrappers.logical_msgs", WR));
    m.push(count("wrappers.wire_msgs", WR));

    const NU: &str = "core::nonuniform";
    for a in EXCHANGES {
        m.push(count(format!("nonuniform.{a}.msgs"), NU));
        m.push(count(format!("nonuniform.{a}.bytes"), NU));
        m.push(count(format!("nonuniform.{a}.bytes_copied"), NU));
    }
    for (name, _) in PHASES {
        m.push(metric(name, "us", NU));
    }
    for a in EXCHANGES {
        m.push(metric(
            format!("engine.general_over_legacy.{a}"),
            "ratio",
            NU,
        ));
    }

    const CO: &str = "core::collectives";
    for (family, schedule) in COLLECTIVES {
        m.push(metric(
            format!("collectives.{family}.{schedule}_ms"),
            "ms/call",
            CO,
        ));
        m.push(count(format!("collectives.{family}.{schedule}.msgs"), CO));
        m.push(count(format!("collectives.{family}.{schedule}.bytes"), CO));
    }

    m.push(metric(
        "uniform.zero_rotation_ms",
        "ms/exchange",
        "core::uniform",
    ));
    m.push(metric(
        "uniform.spread_out_ms",
        "ms/exchange",
        "core::uniform",
    ));

    m.push(higher(metric("datatype.pack_gbps", "GB/s", "datatype")));
    m.push(higher(metric("datatype.memcpy_gbps", "GB/s", "datatype")));

    for c in APPS {
        m.push(count(format!("bpra.{c}.iterations"), "bpra"));
        m.push(metric(format!("bpra.{c}.exchange_share"), "ratio", "bpra"));
        m.push(metric(format!("bpra.{c}.sequential_ms"), "ms", "bpra"));
    }

    for a in EXCHANGES {
        // Target is 1.0; "lower" is nominal (no bound applies to per-layer numbers).
        m.push(metric(
            format!("model.predicted_over_measured.{a}"),
            "ratio",
            "model",
        ));
    }
    m.push(metric("model.tracegen_ms", "ms", "model"));

    m.push(metric("workload.generate_ms", "ms", "workload"));

    m.push(metric("process.peak_rss_mb", "MB", "process"));
    m.push(metric("process.minor_faults", "count", "process"));
    m.push(metric("trace.overhead_ratio", "ratio", "process"));
    m
}
