//! What a run prints: a header describing the machine and the workload, one
//! line per metric with its unit, and, as the last line of standard output,
//! the result object the benchmark contract prescribes.

use crate::bench::{Report, MIN_ROUNDS};
use crate::json::{escape, number};
use crate::spans::SelfTime;
use crate::spec::{self, Workload};
use crate::sysinfo;

/// The header: machine, allocator environment, protocol and input sizes.
pub fn header(w: &Workload, seed: u64, seconds: f64, traced: bool) -> String {
    let tunables =
        std::env::var("GLIBC_TUNABLES").unwrap_or_else(|_| "(unset: run through run.sh)".into());
    let exchange_bytes = w.dist.mean_size(w.n_max, w.p) * (w.p * w.p) as f64;
    format!(
        "# bruck-benchmark  workload={} seed={seed} seconds={seconds} mode={}\n\
         # why: {}\n\
         # machine: nproc={} (cpus allowed: {}; run.sh pins the run to one) caches: {}\n\
         # allocator: GLIBC_TUNABLES={tunables}\n\
         # protocol: closed loop, one operation in flight; rounds of all cells in fixed order; \
         value = mean of the best twentieth of a cell's samples / k; one CPU; EventComm with 1 worker\n\
         # sizes: backend={:?} P={} dist={} N={} B k={} (world moves ~{:.0} KiB per exchange); \
         allgatherv {}..{} B; allreduce {} x u64 ({}); apps at P={}: graph1_like{:?}+chain, \
         graph2_like{:?}, kcfa{:?}",
        w.name,
        if traced {
            "traced (per-layer)"
        } else {
            "end-to-end"
        },
        w.why,
        sysinfo::nproc(),
        sysinfo::cpus_allowed(),
        sysinfo::caches(),
        w.backend,
        w.p,
        w.dist.label(),
        w.n_max,
        w.k,
        exchange_bytes / 1024.0,
        w.gv_bytes.0,
        w.gv_bytes.1,
        w.ar_len,
        w.ar_algo.name(),
        w.app_p,
        w.tc_deep,
        w.tc_bushy,
        w.kcfa,
    )
}

/// The table of metrics and the accounting line.
pub fn table(report: &Report) -> String {
    let mut out = format!(
        "{:<42} {:>14}  {:<12} {:>12} {:>12} {:>12} {:>5}  {}\n",
        "metric", "value", "unit", ".median", ".p90", ".min", ".n", "layer"
    );
    for r in &report.values {
        let spread = r.spread.map_or_else(
            || format!("{:>12} {:>12} {:>12} {:>5}", "-", "-", "-", "-"),
            |s| {
                format!(
                    "{:>12.4} {:>12.4} {:>12.4} {:>5}",
                    s.median, s.p90, s.min, s.n
                )
            },
        );
        out.push_str(&format!(
            "{:<42} {:>14.4}  {:<12} {spread}  {}\n",
            r.metric.name, r.value, r.metric.unit, r.metric.layer
        ));
    }
    out.push_str(&format!(
        "rounds={} ops_attempted={} ops_failed={} first_setup_s={:.4}\n",
        report.rounds, report.attempted, report.failed, report.first_setup_s
    ));
    if report.rounds < MIN_ROUNDS && report.values.iter().any(|r| r.metric.layer == "end-to-end") {
        out.push_str(&format!(
            "# warning: {} rounds, fewer than the {MIN_ROUNDS} wanted; use a longer --seconds\n",
            report.rounds
        ));
    }
    out
}

/// The contract's result object, on one line.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .values
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&r.metric.name),
                number(r.value),
                escape(r.metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The traced run's table file: self times per span name and the per-layer metrics.
pub fn layers_json(
    report: &Report,
    self_times: &std::collections::BTreeMap<String, SelfTime>,
) -> String {
    let spans: Vec<String> = self_times
        .iter()
        .map(|(name, t)| {
            format!(
                "    {{\"span\": \"{}\", \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                escape(name),
                t.count,
                number(t.total_ns as f64 / 1e6),
                number(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    let metrics: Vec<String> = report
        .values
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"layer\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                escape(&r.metric.name),
                escape(r.metric.layer),
                number(r.value),
                escape(r.metric.unit)
            )
        })
        .collect();
    format!(
        "{{\n  \"rounds\": {},\n  \"self_times\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        report.rounds,
        spans.join(",\n"),
        metrics.join(",\n")
    )
}

/// `--list`: every declared metric with unit, direction and layer.
pub fn list() -> String {
    let mut out = format!(
        "{:<10} {:<42} {:<12} {:<7} {}\n",
        "kind", "metric", "unit", "better", "layer"
    );
    for (kind, metrics) in [
        ("end-to-end", spec::end_to_end()),
        ("per-layer", spec::per_layer()),
    ] {
        for m in metrics {
            out.push_str(&format!(
                "{kind:<10} {:<42} {:<12} {:<7} {}\n",
                m.name,
                m.unit,
                m.better.word(),
                m.layer
            ));
        }
    }
    for w in &spec::WORKLOADS {
        out.push_str(&format!("workload   {:<42} {}\n", w.name, w.why));
    }
    out
}
