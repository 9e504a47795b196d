//! Name and schema guard: `BENCHMARK.json`, the metric registry in `spec.rs`
//! and what the runner prints must name the same things, inside the limits
//! the benchmark contract sets.

use std::collections::BTreeSet;

use bruck_benchmark::bench::run_end_to_end;
use bruck_benchmark::json::{self, Value};
use bruck_benchmark::spec::{self, Metric};
use bruck_benchmark::{layers, output, spans};

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(word)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(word)
}

/// `(name, unit, better)` rows of one section of `BENCHMARK.json`.
fn rows(doc: &Value, section: &str) -> BTreeSet<(String, String, String)> {
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
    doc.get(section)
        .expect(section)
        .items()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn registry(metrics: &[Metric]) -> BTreeSet<(String, String, String)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                m.unit.to_string(),
                m.better.word().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = declared();
    let (e2e, layer) = (spec::end_to_end(), spec::per_layer());
    assert_eq!(rows(&doc, "end_to_end"), registry(&e2e));
    assert_eq!(rows(&doc, "per_layer"), registry(&layer));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, spec::WORKLOADS.map(|w| w.name));
    for w in doc.get("workloads").expect("workloads").items() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of one line: {why}"
        );
    }

    assert_eq!(
        doc.get("paths").expect("paths").items(),
        [Value::Str("benchmark".into())]
    );
    for m in doc.get("end_to_end").expect("end_to_end").items() {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound, spec::BOUND, "{name}");
        assert!(bound <= 0.25);
    }
}

#[test]
fn names_units_and_counts_are_inside_the_limits() {
    let (e2e, layer) = (spec::end_to_end(), spec::per_layer());
    assert_eq!(spec::WORKLOADS.len(), 3);
    assert!(
        e2e.len() <= 16 && layer.len() <= 128,
        "{} / {}",
        e2e.len(),
        layer.len()
    );
    let mut seen = BTreeSet::new();
    for m in e2e.iter().chain(&layer) {
        assert!(name_ok(&m.name), "bad name {}", m.name);
        assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name.as_str()), "{} is declared twice", m.name);
    }
    for w in &spec::WORKLOADS {
        assert!(name_ok(w.name), "bad name {}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(w.why.len() <= 200);
    }
    let setup = e2e
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let listed = output::list();
    assert!(e2e.iter().chain(&layer).all(|m| listed.contains(&m.name)));
}

fn printed_names(line: &str) -> BTreeSet<String> {
    let doc = json::parse(line).expect("the result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(doc.get(key).is_some(), "result line lacks {key}");
    }
    match doc.get("metrics") {
        Some(Value::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("metrics is {other:?}"),
    }
}

#[test]
fn the_runner_prints_exactly_the_declared_end_to_end_metrics() {
    let report = run_end_to_end(&spec::WORKLOADS[2], 5, 0.2);
    assert_eq!(report.failed, 0);
    assert!(report.rounds >= 1 && report.attempted >= 18);
    let names: BTreeSet<String> = spec::end_to_end().into_iter().map(|m| m.name).collect();
    assert_eq!(printed_names(&output::result_line(&report)), names);
    assert!(
        report.values.iter().all(|r| r.value > 0.0),
        "end-to-end metrics are never 0"
    );
}

/// Two traced runs of the same seed must make every count identically, on
/// every workload; the time box is short because only counts are compared.
/// Slow in a debug build: run with `cargo test --release`.
#[test]
fn counts_repeat_exactly_between_traced_runs() {
    let names: BTreeSet<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
    for w in &spec::WORKLOADS {
        let counts = |_| {
            let rec = spans::Recorder::new();
            let report = layers::run_traced(w, 3, 2.0, &rec);
            assert_eq!(report.failed, 0, "{}", w.name);
            assert_eq!(
                printed_names(&output::result_line(&report)),
                names,
                "{}",
                w.name
            );
            assert!(rec.chrome_trace().contains("\"cell.two_phase\""));
            assert!(rec.self_times().contains_key("setup.oracle"));
            let exact: Vec<(String, f64)> = report
                .values
                .into_iter()
                .filter(|r| r.metric.exact)
                .map(|r| (r.metric.name, r.value))
                .collect();
            assert!(exact.len() >= 30, "{} exact counts", exact.len());
            exact
        };
        assert_eq!(counts(1), counts(2), "{}", w.name);
    }
}
