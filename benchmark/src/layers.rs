//! The traced run: the workload's cells with spans recorded, plus one probe
//! per layer, and from them the per-layer metrics.
//!
//! Counts (messages, bytes, bytes copied, executions, iterations) are made
//! once, before the clock starts: they are exact and repeat bit for bit.
//! Times are sampled in rounds like the end-to-end metrics and reported the
//! same way, as the mean of the best twentieth. Every probe goes through a
//! layer's public functions only.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bruck_bpra::{kcfa_like_run, sequential_closure};
use bruck_comm::{Communicator, EventComm, MsgBuf, ThreadComm};
use bruck_core::{
    AllgathervAlgorithm, AllreduceAlgorithm, AlltoallAlgorithm, EngineConfig,
    ReduceScatterAlgorithm,
};
use bruck_datatype::IndexedBlocks;
use bruck_model::{
    nonuniform_trace, DistSource, MachineModel, MatrixSource, NonuniformAlgo, RankSample,
};
use bruck_workload::{Distribution, SizeMatrix};

use crate::backend::{fatal, run, Place, Run, Stack};
use crate::bench::{Bench, E2e, Report, Reported, Series};
use crate::cells::{
    Cell, Closure, Dispatch, Exchange, Gather, Kcfa, Reduce, Scatter, Uniform, APP_ALGORITHM,
};
use crate::inputs::{ExchangeInput, GatherInput, ReduceInput};
use crate::spans::{Ctx, Recorder};
use crate::spec::{self, Backend, Workload, APPS, COLLECTIVES, EXCHANGES, PHASES, WORKLOADS};
use crate::sysinfo;

const EXCHANGE_CELLS: [E2e; 3] = [E2e::Vendor, E2e::PaddedBruck, E2e::TwoPhase];

/// Calls per sample of the probes that do not run at the workload's own `k`.
const PROBE_CALLS: usize = 20;
/// Ranks of the empty `EventComm` world `runtime.spawn_us` brings up.
const SPAWN_RANKS: usize = 256;
/// Round trips per `*.pingpong_us` sample; the event runtime replays the
/// closure's prefix on every wake, so its count stays small.
const EVENT_ROUND_TRIPS: usize = 32;
const THREAD_ROUND_TRIPS: usize = 500;
/// Barriers per `thread_comm.barrier_us` sample.
const BARRIERS: usize = 100;
/// Distinct-tag messages queued before `mailbox.deep_match_us` drains them.
const DEEP_QUEUE: u32 = 4096;
/// Source size of the copy probes: cache-resident, like the buffers of the
/// `thread-bandwidth` exchange. Not a DRAM bandwidth figure.
const COPY_BYTES: usize = 1 << 20;
/// World size of the collective probes on `EventComm`: pairwise
/// reduce-scatter replays O(P^3) operations there and takes 1.2 s at P = 256.
const EVENT_COLLECTIVE_RANKS: usize = 64;
/// World size of the trace `model.tracegen_ms` generates.
const TRACEGEN_RANKS: usize = 4096;

/// State of one traced run.
struct Layers<'a> {
    bench: &'a Bench,
    rec: &'a Recorder,
    series: Series,
    counts: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// The `thread-stack` exchange, which the wrapper ratios are taken on in
    /// every workload.
    stack_input: &'a ExchangeInput,
    /// A `ThreadComm`-sized copy of the exchange for the phase-time probes of
    /// `event-latency`, whose own cells cannot hold a `probe` recorder.
    shadow_input: Option<&'a ExchangeInput>,
    /// Inputs of the collective probes: the workload's own, except on
    /// `event-latency`, where they are cut to [`EVENT_COLLECTIVE_RANKS`].
    gather: &'a GatherInput,
    reduce: &'a ReduceInput,
}

/// Nanoseconds per phase name of one rank's events, divided by `calls`, then
/// the slowest rank: the phase's share of one call.
fn phase_us(phases: &[Vec<bruck_core::probe::PhaseEvent>], name: &str, calls: usize) -> f64 {
    phases
        .iter()
        .map(|rank| {
            rank.iter()
                .filter(|e| e.name == name)
                .map(|e| e.dur_ns)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0) as f64
        / 1e3
        / calls as f64
}

fn secs_of<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn check<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| fatal(&format!("{what}: {e}")))
}

impl<'a> Layers<'a> {
    fn w(&self) -> &'static Workload {
        self.bench.w
    }

    fn on_event(&self) -> bool {
        self.bench.w.backend == Backend::Event
    }

    /// The workload's place with another wrapper stack.
    fn place(&self, stack: Stack) -> Place {
        Place {
            stack,
            ..self.bench.place(false)
        }
    }

    /// Run one probe sample of `cell` under a `probe.<name>` span and account for it.
    fn probe<Ce: Cell>(&mut self, name: &str, cell: &Ce, place: Place, k: usize) -> Run {
        let span = self.rec.sample().open(format!("probe.{name}"));
        let (run, _) = run(cell, place, k, Some(span.ctx()));
        self.attempted += 1;
        self.failed += u64::from(!run.ok);
        run
    }

    /// Run collective schedule `which` of [`COLLECTIVES`], `k` calls per rank.
    fn collective(&mut self, which: usize, stack: Stack, k: usize) -> Run {
        let (family, schedule) = COLLECTIVES[which];
        let name = format!("{family}.{schedule}");
        let place = Place {
            p: self.gather.counts.len(),
            ..self.place(stack)
        };
        let (gather, reduce) = (self.gather, self.reduce);
        match which {
            0..=2 => {
                let algo = AllgathervAlgorithm::ALL[which];
                self.probe(
                    &name,
                    &Gather {
                        input: gather,
                        algo,
                    },
                    place,
                    k,
                )
            }
            3..=5 => {
                let algo = ReduceScatterAlgorithm::ALL[which - 3];
                self.probe(&name, &Scatter::new(reduce, algo), place, k)
            }
            _ => {
                let algo = AllreduceAlgorithm::ALL[which - 6];
                self.probe(
                    &name,
                    &Reduce {
                        input: reduce,
                        algo,
                    },
                    place,
                    k,
                )
            }
        }
    }

    /// The exact counts, made once.
    fn count_pass(&mut self) {
        let bench = self.bench;
        for (cell, a) in EXCHANGE_CELLS.into_iter().zip(EXCHANGES) {
            let how = Dispatch::Algorithm(cell.algorithm().expect("an exchange cell"));
            let ex = Exchange {
                input: &bench.inputs.exchange,
                how,
            };
            let metered = self.probe("count", &ex, self.place(Stack::Metered), 1);
            let counting = self.probe("count", &ex, self.place(Stack::Counting), 1);
            self.counts
                .insert(format!("nonuniform.{a}.msgs"), metered.sent_msgs as f64);
            self.counts
                .insert(format!("nonuniform.{a}.bytes"), metered.sent_bytes as f64);
            self.counts.insert(
                format!("nonuniform.{a}.bytes_copied"),
                counting.bytes_copied as f64,
            );
        }
        for (which, (family, schedule)) in COLLECTIVES.into_iter().enumerate() {
            let metered = self.collective(which, Stack::Metered, 1);
            self.counts.insert(
                format!("collectives.{family}.{schedule}.msgs"),
                metered.sent_msgs as f64,
            );
            self.counts.insert(
                format!("collectives.{family}.{schedule}.bytes"),
                metered.sent_bytes as f64,
            );
        }

        let on_event = self.event_two_phase();
        self.counts
            .insert("runtime.executions".into(), on_event.executions as f64);
        self.counts
            .insert("runtime.messages".into(), on_event.wire_msgs as f64);
        self.counts
            .insert("runtime.leaked_messages".into(), on_event.leaked as f64);

        let two_phase = Exchange {
            input: self.stack_input,
            how: Dispatch::Algorithm(APP_ALGORITHM),
        };
        let thread = |stack| Place::threads(WORKLOADS[2].p, stack);
        let (bare, full) = (thread(Stack::Bare), thread(Stack::Full));
        let logical = self.probe("count", &two_phase, bare, 1).wire_msgs;
        let wire = self.probe("count", &two_phase, full, 1).wire_msgs;
        self.counts
            .insert("wrappers.logical_msgs".into(), logical as f64);
        self.counts.insert("wrappers.wire_msgs".into(), wire as f64);
    }

    /// The workload's two-phase exchange on `EventComm`, whatever the
    /// workload's own backend: the subject of the `runtime.*` numbers.
    fn event_two_phase(&mut self) -> Run {
        let how = Dispatch::Algorithm(APP_ALGORITHM);
        let bench = self.bench;
        let ex = Exchange {
            input: &bench.inputs.exchange,
            how,
        };
        let place = Place {
            event: true,
            p: self.w().p,
            stack: Stack::Bare,
        };
        self.probe("runtime.two_phase", &ex, place, 1)
    }

    /// One round: every cell traced, then every timed probe.
    fn round(&mut self, round: usize) {
        let w = self.w();

        for cell in E2e::ALL {
            let s = self.bench.sample(cell, Some(self.rec));
            self.attempted += 1;
            self.failed += u64::from(!s.ok);
            self.series
                .push(&format!("traced.{}", cell.short()), s.value);
            if let Some(app) = s.app {
                self.counts.insert(
                    format!("bpra.{}.iterations", cell.short()),
                    app.iterations as f64,
                );
                if !self.on_event() {
                    let share = app.exchange_secs / s.secs;
                    self.series
                        .push(&format!("bpra.{}.exchange_share", cell.short()), share);
                }
            }
            if self.shadow_input.is_none() && cell.algorithm().is_some() {
                self.push_phases(&s.phases, s.calls);
            }
        }
        let untraced = self.bench.sample(E2e::TwoPhase, None);
        self.series.push("untraced.two_phase", untraced.value);
        let on_event = if self.on_event() {
            untraced.secs
        } else {
            self.event_two_phase().secs
        };
        self.series.push("runtime.two_phase_s", on_event);
        if self.on_event() {
            // The runtime replays the application's own stopwatch, so its
            // exchange share is read from the same input on bare ThreadComm.
            let place = Place::threads(w.app_p, Stack::Bare);
            let i = &self.bench.inputs;
            for (c, (app, states)) in APPS.into_iter().zip([
                run(&Closure { input: &i.deep }, place, 1, None),
                run(&Closure { input: &i.bushy }, place, 1, None),
                run(&Kcfa { input: i.kcfa }, place, 1, None),
            ]) {
                self.attempted += 1;
                self.failed += u64::from(!app.ok);
                let share = states[0].exchange_secs / app.secs;
                self.series.push(&format!("bpra.{c}.exchange_share"), share);
            }
        }

        if let Some(shadow) = self.shadow_input {
            let place = Place::threads(w.app_p, Stack::Bare);
            for cell in EXCHANGE_CELLS {
                let how = Dispatch::Algorithm(cell.algorithm().expect("an exchange cell"));
                let run = self.probe(
                    "phases",
                    &Exchange { input: shadow, how },
                    place,
                    PROBE_CALLS,
                );
                self.push_phases(&run.phases, PROBE_CALLS);
            }
        }

        for (cell, a) in EXCHANGE_CELLS.into_iter().zip(EXCHANGES) {
            let cfg = EngineConfig::for_algorithm(cell.algorithm().expect("an exchange cell"));
            let bench = self.bench;
            let input = &bench.inputs.exchange;
            let place = self.place(Stack::Bare);
            let legacy = self.probe(
                "engine.legacy",
                &Exchange {
                    input,
                    how: Dispatch::Legacy(cfg),
                },
                place,
                w.k,
            );
            let general = self.probe(
                "engine.general",
                &Exchange {
                    input,
                    how: Dispatch::General(cfg),
                },
                place,
                w.k,
            );
            self.series.push(&format!("legacy.{a}"), legacy.secs);
            self.series.push(&format!("general.{a}"), general.secs);
        }

        for (which, (family, schedule)) in COLLECTIVES.into_iter().enumerate() {
            let run = self.collective(which, Stack::Bare, w.k);
            let name = format!("collectives.{family}.{schedule}_ms");
            self.series.push(&name, run.secs * 1e3 / w.k as f64);
        }

        for (algo, name) in [
            (
                AlltoallAlgorithm::ZeroRotationBruck,
                "uniform.zero_rotation_ms",
            ),
            (AlltoallAlgorithm::SpreadOut, "uniform.spread_out_ms"),
        ] {
            let cell = Uniform::new(algo, w.p, (w.n_max / 2).max(1));
            let run = self.probe("uniform", &cell, self.place(Stack::Bare), w.k);
            self.series.push(name, run.secs * 1e3 / w.k as f64);
        }

        let two_phase = Exchange {
            input: self.stack_input,
            how: Dispatch::Algorithm(APP_ALGORITHM),
        };
        for (stack, name) in [
            (Stack::Bare, "wrappers.bare"),
            (Stack::Metered, "wrappers.metered"),
            (Stack::Reliable, "wrappers.reliable"),
            (Stack::Full, "wrappers.stack"),
        ] {
            let place = Place::threads(WORKLOADS[2].p, stack);
            let run = self.probe(name, &two_phase, place, PROBE_CALLS);
            self.series.push(name, run.secs * 1e3 / PROBE_CALLS as f64);
        }

        self.primitives(self.rec.sample());
        self.rec.fold_round(round);
    }

    fn push_phases(&mut self, phases: &[Vec<bruck_core::probe::PhaseEvent>], calls: usize) {
        for (metric, span) in PHASES {
            if phases
                .iter()
                .any(|rank| rank.iter().any(|e| e.name == span))
            {
                self.series.push(metric, phase_us(phases, span, calls));
            }
        }
    }

    /// Probes of single primitives: worlds, point-to-point, copies, generators.
    fn primitives(&mut self, ctx: Ctx<'_>) {
        let seed = self.bench.seed;
        let timed = |series: &mut Series, name: &str, scale: f64, f: &mut dyn FnMut() -> f64| {
            let _span = ctx.open(format!("probe.{name}"));
            series.push(name, f() * scale);
        };
        let s = &mut self.series;

        timed(s, "runtime.spawn_us", 1e6, &mut || {
            secs_of(|| EventComm::run_pooled(SPAWN_RANKS, 1, |_| ()))
        });
        timed(
            s,
            "runtime.pingpong_us",
            1e6 / EVENT_ROUND_TRIPS as f64,
            &mut || secs_of(|| EventComm::run_pooled(2, 1, |c| ping_pong(c, EVENT_ROUND_TRIPS))),
        );
        timed(s, "thread_comm.spawn_us", 1e6, &mut || {
            secs_of(|| ThreadComm::run(WORKLOADS[1].p, |_| ()))
        });
        timed(
            s,
            "thread_comm.pingpong_us",
            1e6 / THREAD_ROUND_TRIPS as f64,
            &mut || {
                let per_rank = ThreadComm::run(2, |c| {
                    check(c.barrier(), "barrier");
                    secs_of(|| ping_pong(c, THREAD_ROUND_TRIPS))
                });
                per_rank.into_iter().fold(0.0, f64::max)
            },
        );
        timed(
            s,
            "thread_comm.barrier_us",
            1e6 / BARRIERS as f64,
            &mut || {
                let per_rank = ThreadComm::run(WORKLOADS[1].p, |c| {
                    check(c.barrier(), "barrier");
                    secs_of(|| (0..BARRIERS).for_each(|_| check(c.barrier(), "barrier")))
                });
                per_rank.into_iter().fold(0.0, f64::max)
            },
        );
        timed(
            s,
            "mailbox.deep_match_us",
            1e6 / f64::from(DEEP_QUEUE),
            &mut || {
                let per_rank = ThreadComm::run(2, |c| {
                    if c.rank() == 0 {
                        let payload = MsgBuf::from_vec(vec![7u8; 32]);
                        (0..DEEP_QUEUE)
                            .for_each(|tag| check(c.send_buf(1, tag, payload.clone()), "send"));
                        check(c.barrier(), "barrier");
                        0.0
                    } else {
                        check(c.barrier(), "barrier");
                        secs_of(|| {
                            (0..DEEP_QUEUE)
                                .rev()
                                .for_each(|tag| drop(check(c.recv_buf(0, tag), "recv")))
                        })
                    }
                });
                per_rank.into_iter().fold(0.0, f64::max)
            },
        );

        let source = vec![0x5Au8; COPY_BYTES];
        const SLICES: usize = 100_000;
        timed(s, "msgbuf.slice_ns", 1e9 / SLICES as f64, &mut || {
            let buf = MsgBuf::from_vec(vec![1u8; 1 << 16]);
            secs_of(|| {
                (0..SLICES).for_each(|i| drop(black_box(buf.slice(i % 1024..i % 1024 + 64))))
            })
        });
        timed(s, "msgbuf.copy_s", 1.0, &mut || {
            secs_of(|| MsgBuf::copy_from_slice(&source))
        });
        let layout = check(IndexedBlocks::strided(COPY_BYTES / 256, 128, 256), "layout");
        let mut packed = vec![0u8; layout.packed_len()];
        timed(s, "datatype.pack_s", 1.0, &mut || {
            secs_of(|| check(layout.pack_into(&source, &mut packed), "pack"))
        });
        let half = COPY_BYTES / 2;
        timed(s, "datatype.memcpy_s", 1.0, &mut || {
            secs_of(|| packed.copy_from_slice(black_box(&source[..half])))
        });

        let i = &self.bench.inputs;
        timed(s, "bpra.tc_deep.sequential_ms", 1e3, &mut || {
            secs_of(|| sequential_closure(&i.deep.edges))
        });
        timed(s, "bpra.tc_bushy.sequential_ms", 1e3, &mut || {
            secs_of(|| sequential_closure(&i.bushy.edges))
        });
        timed(s, "bpra.kcfa.sequential_ms", 1e3, &mut || {
            secs_of(|| {
                ThreadComm::run(1, |c| {
                    check(kcfa_like_run(c, APP_ALGORITHM, &i.kcfa.cfg), "kcfa").facts_received
                })
            })
        });

        timed(s, "model.tracegen_ms", 1e3, &mut || {
            let source = DistSource::new(
                Distribution::Uniform,
                seed,
                TRACEGEN_RANKS,
                WORKLOADS[0].n_max,
            );
            secs_of(|| {
                nonuniform_trace(
                    NonuniformAlgo::TwoPhaseBruck,
                    &source,
                    &RankSample::auto(TRACEGEN_RANKS),
                )
            })
        });
        timed(s, "workload.generate_ms", 1e3, &mut || {
            secs_of(|| {
                SizeMatrix::generate(
                    Distribution::Uniform,
                    seed,
                    WORKLOADS[0].p,
                    WORKLOADS[0].n_max,
                )
            })
        });
    }

    /// Turn series and counts into the declared per-layer metrics.
    fn finish(mut self, rounds: usize) -> Report {
        // Counts, then everything derived from several series or read once.
        let mut fixed = std::mem::take(&mut self.counts);
        let executions = fixed["runtime.executions"];
        let messages = fixed["runtime.messages"];
        let s = &self.series;
        let mut put = |name: &str, v: f64| {
            fixed.insert(name.to_string(), v);
        };

        let p = self.w().p as f64;
        put("runtime.replay_amplification", executions / p);
        put(
            "runtime.msgs_per_s",
            messages / s.value("runtime.two_phase_s"),
        );
        put(
            "msgbuf.copy_gbps",
            COPY_BYTES as f64 / s.value("msgbuf.copy_s") / 1e9,
        );
        put(
            "datatype.pack_gbps",
            (COPY_BYTES / 2) as f64 / s.value("datatype.pack_s") / 1e9,
        );
        put(
            "datatype.memcpy_gbps",
            (COPY_BYTES / 2) as f64 / s.value("datatype.memcpy_s") / 1e9,
        );

        let bare = s.value("wrappers.bare");
        put("wrappers.bare_ms", bare);
        for layer in ["metered", "reliable", "stack"] {
            put(
                &format!("wrappers.{layer}_ratio"),
                s.value(&format!("wrappers.{layer}")) / bare,
            );
        }

        let model = MachineModel::theta_like();
        let matrix = MatrixSource(&self.bench.inputs.exchange.matrix);
        let sample = RankSample::all(self.w().p);
        for (a, algo) in EXCHANGES.into_iter().zip([
            NonuniformAlgo::Vendor,
            NonuniformAlgo::PaddedBruck,
            NonuniformAlgo::TwoPhaseBruck,
        ]) {
            put(
                &format!("engine.general_over_legacy.{a}"),
                s.value(&format!("general.{a}")) / s.value(&format!("legacy.{a}")),
            );
            let predicted_ms = nonuniform_trace(algo, &matrix, &sample).time(&model) * 1e3;
            put(
                &format!("model.predicted_over_measured.{a}"),
                predicted_ms / s.value(&format!("traced.{a}")),
            );
        }
        put(
            "trace.overhead_ratio",
            s.value("traced.two_phase") / s.value("untraced.two_phase"),
        );
        put("process.peak_rss_mb", sysinfo::peak_rss_mb());
        put("process.minor_faults", sysinfo::minor_faults() as f64);

        let values = spec::per_layer()
            .into_iter()
            .map(|metric| {
                let name = &metric.name;
                match fixed.get(name) {
                    Some(&value) => Reported {
                        metric,
                        value,
                        spread: None,
                    },
                    None => {
                        let sum = self.series.summary(name);
                        Reported {
                            metric,
                            value: sum.best,
                            spread: Some(sum),
                        }
                    }
                }
            })
            .collect();
        Report {
            values,
            attempted: self.attempted,
            failed: self.failed,
            rounds,
            first_setup_s: 0.0,
        }
    }
}

/// `round_trips` 32-byte round trips between ranks 0 and 1.
fn ping_pong<C: Communicator + ?Sized>(comm: &C, round_trips: usize) {
    let payload = MsgBuf::from_vec(vec![9u8; 32]);
    let peer = 1 - comm.rank();
    for _ in 0..round_trips {
        if comm.rank() == 0 {
            check(
                comm.sendrecv_buf(peer, 1, payload.clone(), peer, 1),
                "sendrecv",
            );
        } else {
            let got = check(comm.recv_buf(peer, 1), "recv");
            check(comm.send_buf(peer, 1, got), "send");
        }
    }
}

/// The traced run: per-layer metrics, and the recorder holding the spans.
pub fn run_traced(w: &'static Workload, seed: u64, seconds: f64, rec: &Recorder) -> Report {
    let first = Instant::now();
    let bench = Bench::set_up(w, seed);
    let first_setup_s = first.elapsed().as_secs_f64();

    let stack = &WORKLOADS[2];
    let stack_input = ExchangeInput::generate(stack.dist, seed, stack.p, stack.n_max).solved();
    let on_event = w.backend == Backend::Event;
    let shadow_input =
        on_event.then(|| ExchangeInput::generate(w.dist, seed, w.app_p, w.n_max).solved());
    let cut = on_event.then(|| {
        (
            GatherInput::generate(seed, EVENT_COLLECTIVE_RANKS, w.gv_bytes).solved(),
            ReduceInput::generate(seed, EVENT_COLLECTIVE_RANKS, w.ar_len).solved(),
        )
    });
    let (gather, reduce) = cut
        .as_ref()
        .map_or((&bench.inputs.gather, &bench.inputs.reduce), |(g, r)| {
            (g, r)
        });
    let mut layers = Layers {
        bench: &bench,
        rec,
        series: Series::default(),
        counts: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        stack_input: &stack_input,
        shadow_input: shadow_input.as_ref(),
        gather,
        reduce,
    };
    layers.count_pass();
    rec.fold_round(usize::MAX);

    let mut rounds = 0;
    let window = Instant::now();
    while rounds == 0 || window.elapsed().as_secs_f64() < seconds {
        layers.round(rounds);
        rounds += 1;
    }
    Report {
        first_setup_s,
        ..layers.finish(rounds)
    }
}
