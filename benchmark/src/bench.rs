//! The measurement protocol: set-up, one untimed warm-up round, then rounds
//! until the time box closes. A round runs every cell of the workload once,
//! in a fixed order, so each cell's samples are spread evenly over the whole
//! window and a slow phase of the machine hits all cells alike.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bruck_core::{AllgathervAlgorithm, AlltoallvAlgorithm};

use crate::backend::{bounce_world, run, Place, Run, Stack};
use crate::cells::{AppResult, Closure, Dispatch, Exchange, Gather, Kcfa, Reduce};
use crate::inputs::Inputs;
use crate::spans::Recorder;
use crate::spec::{Backend, Metric, Workload};
use crate::stats::{summarize, Summary};

/// A run needs this many rounds for the best twentieth to hold three samples
/// of its own; the fixed sizes in `spec.rs` aim well above it.
pub const MIN_ROUNDS: usize = 64;

/// The nine end-to-end cells, in round order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E2e {
    /// `alltoallv(Vendor)`
    Vendor,
    /// `alltoallv(PaddedBruck)`
    PaddedBruck,
    /// `alltoallv(TwoPhaseBruck)`
    TwoPhase,
    /// `allgatherv(Bruck)`
    Allgatherv,
    /// `allreduce(workload's schedule)`
    Allreduce,
    /// `transitive_closure` on the deep graph
    TcDeep,
    /// `transitive_closure` on the bushy graph
    TcBushy,
    /// `kcfa_like_run`
    Kcfa,
    /// The set-up procedure itself
    Setup,
}

impl E2e {
    /// Round order.
    pub const ALL: [E2e; 9] = [
        E2e::Vendor,
        E2e::PaddedBruck,
        E2e::TwoPhase,
        E2e::Allgatherv,
        E2e::Allreduce,
        E2e::TcDeep,
        E2e::TcBushy,
        E2e::Kcfa,
        E2e::Setup,
    ];

    /// Short name: `cell.<short>` spans, `nonuniform.<short>.*` metrics.
    pub fn short(self) -> &'static str {
        match self {
            E2e::Vendor => "vendor",
            E2e::PaddedBruck => "padded_bruck",
            E2e::TwoPhase => "two_phase",
            E2e::Allgatherv => "allgatherv",
            E2e::Allreduce => "allreduce",
            E2e::TcDeep => "tc_deep",
            E2e::TcBushy => "tc_bushy",
            E2e::Kcfa => "kcfa",
            E2e::Setup => "setup",
        }
    }

    /// The end-to-end metric this cell feeds.
    pub fn metric(self) -> &'static str {
        match self {
            E2e::Vendor => "vendor_ms",
            E2e::PaddedBruck => "padded_bruck_ms",
            E2e::TwoPhase => "two_phase_ms",
            E2e::Allgatherv => "allgatherv_ms",
            E2e::Allreduce => "allreduce_ms",
            E2e::TcDeep => "tc_deep_ms",
            E2e::TcBushy => "tc_bushy_ms",
            E2e::Kcfa => "kcfa_ms",
            E2e::Setup => "setup_s",
        }
    }

    /// The exchange algorithm of the three exchange cells.
    pub fn algorithm(self) -> Option<AlltoallvAlgorithm> {
        match self {
            E2e::Vendor => Some(AlltoallvAlgorithm::Vendor),
            E2e::PaddedBruck => Some(AlltoallvAlgorithm::PaddedBruck),
            E2e::TwoPhase => Some(AlltoallvAlgorithm::TwoPhaseBruck),
            _ => None,
        }
    }
}

/// One sample of one end-to-end cell, reduced to what the reports need.
#[derive(Debug, Clone, Default)]
pub struct Sampled {
    /// The metric's value for this sample (ms per operation; s for set-up).
    pub value: f64,
    /// Output equal to the oracle, nothing leaked.
    pub ok: bool,
    /// Calls per rank in the sample.
    pub calls: usize,
    /// Per rank, the `bruck_core::probe` events of all calls (traced `ThreadComm`).
    pub phases: Vec<Vec<bruck_core::probe::PhaseEvent>>,
    /// Rank 0's application result (application cells).
    pub app: Option<AppResult>,
    /// Whole-sample seconds.
    pub secs: f64,
}

/// Named series of samples.
#[derive(Debug, Default)]
pub struct Series(BTreeMap<String, Vec<f64>>);

impl Series {
    /// Append a sample to series `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(v) => v.push(value),
            None => {
                self.0.insert(name.to_string(), vec![value]);
            }
        }
    }

    /// Summary of series `name`; panics if nothing was pushed (a metric the
    /// runner forgot to measure must not pass silently).
    pub fn summary(&self, name: &str) -> Summary {
        summarize(
            self.0
                .get(name)
                .unwrap_or_else(|| panic!("no samples for {name}")),
        )
    }

    /// Value of series `name`: the mean of its best twentieth.
    pub fn value(&self, name: &str) -> f64 {
        self.summary(name).best
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Reported {
    /// The declared metric.
    pub metric: Metric,
    /// Its value.
    pub value: f64,
    /// The other statistics of the samples behind a sampled value (for the
    /// reader; never compared).
    pub spread: Option<Summary>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Every declared metric of the mode that ran, in declaration order.
    pub values: Vec<Reported>,
    /// Samples taken in the window (`ops_attempted`).
    pub attempted: u64,
    /// Samples with a wrong output or a leaked message (`ops_failed`).
    pub failed: u64,
    /// Rounds completed in the window.
    pub rounds: usize,
    /// Seconds the very first set-up took (single shot, for the reader).
    pub first_setup_s: f64,
}

/// A workload with its inputs generated: what the cells run on.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub w: &'static Workload,
    /// The seed every generator was driven by.
    pub seed: u64,
    /// Inputs and oracles.
    pub inputs: Inputs,
}

impl Bench {
    /// Run the set-up procedure for real.
    pub fn set_up(w: &'static Workload, seed: u64) -> Bench {
        let inputs = Inputs::generate(w, seed, None);
        bounce_world(w.backend == Backend::Event, w.p, None);
        Bench { w, seed, inputs }
    }

    /// Where the workload's cells run: exchange and collective cells at `p`,
    /// application cells at `app_p`.
    pub fn place(&self, app: bool) -> Place {
        Place {
            event: self.w.backend == Backend::Event,
            p: if app { self.w.app_p } else { self.w.p },
            stack: if self.w.backend == Backend::ThreadStack {
                Stack::Full
            } else {
                Stack::Bare
            },
        }
    }

    /// Take one sample of `cell`; spans go to `rec` in the traced run.
    pub fn sample(&self, cell: E2e, rec: Option<&Recorder>) -> Sampled {
        let (w, i) = (self.w, &self.inputs);
        let root = rec.map(|r| r.sample().open(format!("cell.{}", cell.short())));
        let ctx = root.as_ref().map(|span| span.ctx());
        if let Some(algo) = cell.algorithm() {
            let exchange = Exchange {
                input: &i.exchange,
                how: Dispatch::Algorithm(algo),
            };
            return reduce_run(run(&exchange, self.place(false), w.k, ctx), w.k);
        }
        match cell {
            E2e::Allgatherv => {
                let gather = Gather {
                    input: &i.gather,
                    algo: AllgathervAlgorithm::Bruck,
                };
                reduce_run(run(&gather, self.place(false), w.k, ctx), w.k)
            }
            E2e::Allreduce => {
                let reduce = Reduce {
                    input: &i.reduce,
                    algo: w.ar_algo,
                };
                reduce_run(run(&reduce, self.place(false), w.k, ctx), w.k)
            }
            E2e::TcDeep => app_run(run(&Closure { input: &i.deep }, self.place(true), 1, ctx)),
            E2e::TcBushy => app_run(run(&Closure { input: &i.bushy }, self.place(true), 1, ctx)),
            E2e::Kcfa => app_run(run(&Kcfa { input: i.kcfa }, self.place(true), 1, ctx)),
            _ => {
                let start = Instant::now();
                let inputs = Inputs::generate(w, self.seed, ctx);
                bounce_world(w.backend == Backend::Event, w.p, ctx);
                let secs = start.elapsed().as_secs_f64();
                black_box(inputs);
                Sampled {
                    value: secs,
                    ok: true,
                    calls: 1,
                    secs,
                    ..Sampled::default()
                }
            }
        }
    }
}

fn reduce_run<S>((run, _): (Run, Vec<S>), calls: usize) -> Sampled {
    Sampled {
        value: run.secs * 1e3 / calls as f64,
        ok: run.ok,
        calls,
        phases: run.phases,
        app: None,
        secs: run.secs,
    }
}

fn app_run((run, states): (Run, Vec<AppResult>)) -> Sampled {
    Sampled {
        app: states.first().copied(),
        ..reduce_run((run, states), 1)
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let first = Instant::now();
    let bench = Bench::set_up(w, seed);
    let first_setup_s = first.elapsed().as_secs_f64();

    let (mut attempted, mut failed) = (0u64, 0u64);
    for cell in E2e::ALL {
        failed += u64::from(!bench.sample(cell, None).ok);
        attempted += 1;
    }

    let mut series = Series::default();
    let mut rounds = 0;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        for cell in E2e::ALL {
            let s = bench.sample(cell, None);
            series.push(cell.metric(), s.value);
            attempted += 1;
            failed += u64::from(!s.ok);
        }
        rounds += 1;
    }

    let values = crate::spec::end_to_end()
        .into_iter()
        .map(|metric| {
            let s = series.summary(&metric.name);
            Reported {
                metric,
                value: s.best,
                spread: Some(s),
            }
        })
        .collect();
    Report {
        values,
        attempted,
        failed,
        rounds,
        first_setup_s,
    }
}
