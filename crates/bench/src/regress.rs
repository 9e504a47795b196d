//! The one cell schema, artifact and comparator of the `bruck-bench` bin.
//!
//! A [`Cell`] is one config on the event runtime at one `(P, n)`. The
//! artifact is a JSON document with one cell per line, so the comparator
//! ([`judge`]) can find a baseline row by its leading identity fields without
//! a JSON parser:
//!
//! ```text
//! {"schema":"bruck-bench/cells","workers":4,"fit_log_mse":0.1,"selections":[…],"cells":[
//! {"suite":"scale","key":"bruck:r=2:…","p":4096,"n":4,"workers":4,"wall_s":8.5,"messages":98304,"scheduler":{…}},
//! {"suite":"tune","key":"oracle","p":8,"n":4,"workers":4,"wall_s":0.0004,"messages":56}
//! ]}
//! ```
//!
//! The committed baseline is `crates/bench/baseline.json`, regenerated with
//! `bruck-bench --smoke --out crates/bench/baseline.json`.

use bruck_core::{AlltoallvAlgorithm, EngineConfig};

use crate::export::json_escape;
use crate::tune_candidates;

/// Wall-clock slowdown against the baseline that prints an advisory.
pub const ADVISORY_SLOWDOWN: f64 = 1.6;
/// Wall-clock slowdown against the baseline that fails the gate: shared-CI
/// wall clock is noisy, so the bar only catches structural regressions (an
/// O(P) scan reintroduced on the deposit or dispatch path), not 20 % jitter.
pub const FATAL_SLOWDOWN: f64 = 8.0;
/// Replay amplification (`scheduler.executions / p`, scale rows) against the
/// baseline row's that fails the gate. It is a count, not a clock: on the
/// P = 4,096 two-phase cell one worker reads 3.00 exactly and the gate's four
/// read 4.24–4.30 run to run, while ranks served in arrival order cost the
/// same cell 9.3–12.0 — a slowdown the wall-clock bars would only advise on.
pub const FATAL_AMPLIFICATION: f64 = 1.5;
/// Baseline wall clock below which no ratio is judged: the same commit reads
/// sub-millisecond cells an order of magnitude apart run to run.
pub const JUDGED_WALL_S: f64 = 1.0;

/// Which sweep a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Event-runtime scale: named points at P ≥ 4096, `n`-byte uniform blocks.
    Scale,
    /// The tuner's inputs: every [`tune_candidates`] member at small P on a
    /// U(0, `n`) size matrix.
    Tune,
}

impl Suite {
    /// The `suite` field of a row.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Scale => "scale",
            Suite::Tune => "tune",
        }
    }
}

/// What one cell runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Sweep.
    pub suite: Suite,
    /// Engine config (a named point is a config).
    pub config: EngineConfig,
    /// World size.
    pub p: usize,
    /// Block size: exact for [`Suite::Scale`], the cap for [`Suite::Tune`].
    pub n: usize,
}

/// Block size of every scale cell.
const SCALE_BLOCK: usize = 4;

/// The scale sweep. Smoke: the two P = 4096 log-phase cells — heavy enough to
/// exercise multiplexed park/replay at scale, fast enough for a verify.sh
/// stage (the pairwise/eager regimes' P = 4096 cells alone take tens of
/// minutes). Full: every named point at each of `ps`.
pub fn scale_matrix(smoke: bool, ps: &[usize]) -> Vec<Spec> {
    let (ps, algos): (&[usize], &[AlltoallvAlgorithm]) = if smoke {
        (&[4096], &[AlltoallvAlgorithm::PaddedBruck, AlltoallvAlgorithm::TwoPhaseBruck])
    } else {
        (ps, &AlltoallvAlgorithm::ALL)
    };
    let spec = |p, algo: AlltoallvAlgorithm| Spec {
        suite: Suite::Scale,
        config: algo.into(),
        p,
        n: SCALE_BLOCK,
    };
    ps.iter().flat_map(|&p| algos.iter().map(move |&algo| spec(p, algo))).collect()
}

/// The tune sweep: every candidate at each world size and block cap. Smoke
/// keeps one tiny world with two block scales; full adds larger worlds.
pub fn tune_matrix(smoke: bool, ps: &[usize]) -> Vec<Spec> {
    let (ps, ns): (&[usize], &[usize]) = if smoke { (&[8], &[4, 64]) } else { (ps, &[4, 64, 512]) };
    let mut out = Vec::new();
    for &p in ps {
        for &n in ns {
            out.extend(
                tune_candidates().into_iter().map(|config| Spec { suite: Suite::Tune, config, p, n }),
            );
        }
    }
    out
}

/// One row of the artifact: a measured cell, or a recorded skip.
#[derive(Debug, Clone)]
pub struct Cell {
    /// What ran.
    pub spec: Spec,
    /// Pool threads the world ran on.
    pub workers: usize,
    /// Whole-world wall seconds (the median over repetitions, if repeated).
    pub wall_s: f64,
    /// Transport deposits of one world — deterministic per `(key, p, n)`.
    pub messages: usize,
    /// [`crate::export::scheduler_report_json`] of the run (scale rows).
    pub scheduler: Option<String>,
    /// Why the cell was refused instead of run.
    pub skip_reason: Option<String>,
}

impl Cell {
    /// The leading identity fields of this cell's row, as rendered.
    fn id_json(&self) -> String {
        let Spec { suite, config, p, n } = self.spec;
        format!("{{\"suite\":\"{}\",\"key\":\"{}\",\"p\":{p},\"n\":{n},", suite.name(), config.key())
    }

    /// Transport deposits per wall second.
    pub fn msgs_per_s(&self) -> f64 {
        if self.wall_s > 0.0 { self.messages as f64 / self.wall_s } else { 0.0 }
    }

    /// This cell's one-line row.
    pub fn to_json_line(&self) -> String {
        let outcome = match &self.skip_reason {
            Some(reason) => {
                format!(",\"skipped\":true,\"skip_reason\":\"{}\"", json_escape(reason))
            }
            None => format!(",\"wall_s\":{:.6},\"messages\":{}", self.wall_s, self.messages),
        };
        let scheduler =
            self.scheduler.as_ref().map_or(String::new(), |s| format!(",\"scheduler\":{s}"));
        format!("{}\"workers\":{}{outcome}{scheduler}}}", self.id_json(), self.workers)
    }
}

/// One tuner selection: the winner for a `(P, distribution)` workload.
#[derive(Debug, Clone)]
pub struct Selection {
    /// World size the candidates were ranked at.
    pub p: usize,
    /// Distribution label.
    pub dist: String,
    /// Winning config.
    pub config: EngineConfig,
    /// Its predicted seconds.
    pub predicted_s: f64,
}

/// Render the artifact: header, the tune suite's fit quality and selections
/// (when it ran), one cell per line.
pub fn artifact_json(workers: usize, tuned: Option<(f64, &[Selection])>, cells: &[Cell]) -> String {
    let mut out = format!("{{\"schema\":\"bruck-bench/cells\",\"workers\":{workers},");
    if let Some((fit_log_mse, selections)) = tuned {
        let rows: Vec<String> = selections
            .iter()
            .map(|s| {
                format!(
                    "{{\"p\":{},\"dist\":\"{}\",\"config\":\"{}\",\"predicted_s\":{:e}}}",
                    s.p,
                    json_escape(&s.dist),
                    s.config.key(),
                    s.predicted_s
                )
            })
            .collect();
        out.push_str(&format!(
            "\"fit_log_mse\":{fit_log_mse:.6},\"selections\":[{}],",
            rows.join(",")
        ));
    }
    out.push_str("\"cells\":[\n");
    let rows: Vec<String> = cells.iter().map(Cell::to_json_line).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Pull `"field":<number>` out of a single row.
fn field_f64(line: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The baseline row with `cell`'s identity.
fn find_cell_line<'t>(baseline: &'t str, cell: &Cell) -> Option<&'t str> {
    let id = cell.id_json();
    baseline.lines().find(|l| l.starts_with(&id))
}

/// Judge one measured cell against the baseline document. `Err` fails the
/// gate: no baseline row (a cell the committed file does not cover is never
/// "new coverage"), a baseline row without a measurement, a `messages` count
/// that differs at all (it is deterministic — this is what gates the
/// engine's dispatch), a scheduler report with more than
/// [`FATAL_AMPLIFICATION`]× the baseline's executions, or a judged wall clock
/// more than [`FATAL_SLOWDOWN`]× the baseline's. `Ok(Some(ratio))` is the
/// measured / baseline wall ratio where it is judged — only where the
/// baseline took at least [`JUDGED_WALL_S`]; `Ok(None)` is a row whose wall
/// clock is below that.
pub fn judge(baseline: &str, cell: &Cell) -> Result<Option<f64>, String> {
    let line = find_cell_line(baseline, cell).ok_or("no baseline row")?;
    let (Some(base_messages), Some(base_wall_s)) =
        (field_f64(line, "messages"), field_f64(line, "wall_s"))
    else {
        return Err("baseline row holds no measurement".to_string());
    };
    if base_messages != cell.messages as f64 {
        return Err(format!("{} messages, baseline has {base_messages}", cell.messages));
    }
    let executions = |row: &str| field_f64(row, "executions");
    if let (Some(base), Some(now)) =
        (executions(line), cell.scheduler.as_deref().and_then(executions))
    {
        if now > FATAL_AMPLIFICATION * base {
            let p = cell.spec.p as f64;
            return Err(format!(
                "{:.2} executions per rank, baseline has {:.2}: replay amplification up {:.2}x",
                now / p,
                base / p,
                now / base
            ));
        }
    }
    if base_wall_s < JUDGED_WALL_S {
        return Ok(None);
    }
    let ratio = cell.wall_s / base_wall_s;
    if ratio > FATAL_SLOWDOWN {
        return Err(format!(
            "{:.2} s vs baseline {base_wall_s:.2} s: {ratio:.2}x slower",
            cell.wall_s
        ));
    }
    Ok(Some(ratio))
}

/// [`judge`] every measured cell, print one verdict line each, and return
/// the number that fail the gate.
pub fn check_against(baseline: &str, cells: &[Cell]) -> usize {
    let mut failures = 0;
    for cell in cells.iter().filter(|c| c.skip_reason.is_none()) {
        let Spec { suite, config, p, n } = cell.spec;
        let verdict = match judge(baseline, cell) {
            Ok(None) => format!("{} messages exact; wall clock not judged [ok]", cell.messages),
            Ok(Some(ratio)) => format!(
                "{} messages exact; {:.2} s, {ratio:.2}x the baseline [{}]",
                cell.messages,
                cell.wall_s,
                if ratio > ADVISORY_SLOWDOWN { "advisory" } else { "ok" }
            ),
            Err(reason) => {
                failures += 1;
                format!("{reason} [FATAL]")
            }
        };
        println!("  {} {} p={p} n={n}: {verdict}", suite.name(), config.key());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(spec: Spec, wall_s: f64, messages: usize) -> Cell {
        Cell { spec, workers: 2, wall_s, messages, scheduler: None, skip_reason: None }
    }

    /// The two cells the fixtures below hold a row for.
    fn fixture_specs() -> (Spec, Spec) {
        (scale_matrix(true, &[])[1], tune_matrix(true, &[])[0])
    }

    const FIXTURE: &str = "{\"schema\":\"bruck-bench/cells\",\"workers\":2,\"cells\":[\n\
        {\"suite\":\"scale\",\"key\":\"bruck:r=2:layout=mono:split=meta:pad=never\",\"p\":4096,\
         \"n\":4,\"workers\":2,\"wall_s\":10.000000,\"messages\":147456,\
         \"scheduler\":{\"messages\":1,\"executions\":12288}},\n\
        {\"suite\":\"tune\",\"key\":\"oracle\",\"p\":8,\"n\":4,\"workers\":2,\"wall_s\":0.000500,\
         \"messages\":56}\n]}\n";

    #[test]
    fn rows_round_trip_through_the_comparator() {
        let (scale, tune) = fixture_specs();
        let mut measured = cell(scale, 9.0, 147_456);
        measured.scheduler = Some("{\"messages\":7}".to_string());
        let doc = artifact_json(2, None, &[measured.clone(), cell(tune, 4e-4, 56)]);
        assert_eq!(judge(&doc, &measured), Ok(Some(1.0)));
        assert_eq!(judge(&doc, &cell(tune, 1.0, 56)), Ok(None));
        // The embedded scheduler report's own `messages` is not the row's.
        assert_eq!(judge(FIXTURE, &measured), Ok(Some(0.9)));
    }

    #[test]
    fn a_cell_absent_from_the_baseline_fails() {
        let (scale, tune) = fixture_specs();
        // Same key and P at another n, another suite's key, an empty baseline.
        let other_n = Spec { n: 64, ..tune };
        for (baseline, spec) in [(FIXTURE, other_n), ("", scale), ("not json at all", tune)] {
            assert_eq!(judge(baseline, &cell(spec, 1.0, 56)), Err("no baseline row".to_string()));
            assert_eq!(check_against(baseline, &[cell(spec, 1.0, 56)]), 1);
        }
    }

    #[test]
    fn a_message_count_off_by_one_fails() {
        let (scale, tune) = fixture_specs();
        assert!(judge(FIXTURE, &cell(tune, 5e-4, 57)).unwrap_err().contains("57 messages"));
        assert!(judge(FIXTURE, &cell(scale, 10.0, 147_455)).is_err());
        assert_eq!(check_against(FIXTURE, &[cell(tune, 5e-4, 57), cell(tune, 5e-4, 56)]), 1);
    }

    #[test]
    fn a_judged_wall_clock_past_the_fatal_bar_fails() {
        let (scale, _) = fixture_specs();
        assert!(judge(FIXTURE, &cell(scale, 100.0, 147_456)).unwrap_err().contains("10.00x"));
        assert_eq!(check_against(FIXTURE, &[cell(scale, 100.0, 147_456)]), 1);
        // Between the bars: advisory, not a failure.
        assert_eq!(judge(FIXTURE, &cell(scale, 20.0, 147_456)), Ok(Some(2.0)));
        assert_eq!(check_against(FIXTURE, &[cell(scale, 20.0, 147_456)]), 0);
    }

    #[test]
    fn replay_amplification_past_its_bar_fails_whatever_the_wall_clock() {
        let (scale, _) = fixture_specs();
        let with_executions = |executions: u64| {
            let mut c = cell(scale, 5.0, 147_456);
            c.scheduler = Some(format!("{{\"messages\":7,\"executions\":{executions}}}"));
            c
        };
        // The fixture row holds 3.00 per rank. A 4-worker run's 4.28 passes;
        // a scheduler back to 12.00 fails although it ran in half the time.
        assert_eq!(judge(FIXTURE, &with_executions(17_531)), Ok(Some(0.5)));
        let reason = judge(FIXTURE, &with_executions(49_152)).unwrap_err();
        assert!(reason.contains("12.00 executions per rank, baseline has 3.00"), "{reason}");
        assert_eq!(check_against(FIXTURE, &[with_executions(49_152)]), 1);
    }

    #[test]
    fn a_sub_second_baseline_is_not_judged() {
        let (_, tune) = fixture_specs();
        // 0.5 ms committed, 5 ms (10x) measured: inside the same-commit spread.
        assert_eq!(judge(FIXTURE, &cell(tune, 5e-3, 56)), Ok(None));
        assert_eq!(check_against(FIXTURE, &[cell(tune, 5e-3, 56)]), 0);
    }

    #[test]
    fn skipped_cells_are_recorded_but_not_judged() {
        let (scale, _) = fixture_specs();
        let mut skipped = cell(scale, 0.0, 0);
        skipped.skip_reason = Some("estimated \"9\" s".to_string());
        let row = skipped.to_json_line();
        assert!(row.ends_with("\"skipped\":true,\"skip_reason\":\"estimated \\\"9\\\" s\"}"), "{row}");
        assert_eq!(check_against(FIXTURE, &[skipped.clone()]), 0);
        // …and a skip marker is not a baseline measurement.
        let doc = artifact_json(2, None, &[skipped]);
        assert!(judge(&doc, &cell(scale, 9.0, 147_456)).unwrap_err().contains("no measurement"));
    }

    /// The committed baseline holds a measured row for every cell the
    /// `--smoke` matrix enumerates, so the file can never again drift away
    /// from what the gate measures.
    #[test]
    fn the_committed_baseline_covers_the_smoke_matrix() {
        let baseline = include_str!("../baseline.json");
        let smoke: Vec<Spec> =
            scale_matrix(true, &[]).into_iter().chain(tune_matrix(true, &[])).collect();
        assert_eq!(smoke.len(), 2 + 24);
        for spec in smoke {
            let probe = cell(spec, 0.0, 0);
            let line = find_cell_line(baseline, &probe)
                .unwrap_or_else(|| panic!("no baseline row for {}", probe.id_json()));
            assert!(field_f64(line, "messages").is_some_and(|m| m > 0.0), "{line}");
            assert!(field_f64(line, "wall_s").is_some_and(|s| s > 0.0), "{line}");
        }
        assert!(field_f64(baseline, "fit_log_mse").is_some(), "the tune suite's fit is recorded");
    }
}
