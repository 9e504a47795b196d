//! Command line of the benchmark; `run.sh` builds this and starts it in a
//! fresh process with the allocator environment pinned.
//!
//! ```text
//! bruck-benchmark [--workload] NAME [--seed S] [--seconds T] [--trace 0|1|FILE] [--out DIR]
//! bruck-benchmark --list
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bruck_benchmark::bench::run_end_to_end;
use bruck_benchmark::layers::run_traced;
use bruck_benchmark::spans::Recorder;
use bruck_benchmark::{output, spec};

const USAGE: &str = "usage: run.sh [--workload] <event-latency|thread-bandwidth|thread-stack> \
                     [--seed S] [--seconds T] [--trace 0|1|FILE]\n       run.sh --list";

struct Args {
    workload: &'static spec::Workload,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 1u64, 60.0f64, "0".to_string(), PathBuf::from("out"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => return Ok(None),
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value("--trace")?,
            "--out" => out = PathBuf::from(value("--out")?),
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("no workload named")?;
    let workload = spec::workload(&name).ok_or(format!("unknown workload {name}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match trace.as_str() {
        "0" => None,
        "1" => Some(out.join(format!("{}.trace.json", workload.name))),
        file => Some(PathBuf::from(file)),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn write(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", output::list());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bruck-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    println!(
        "{}",
        output::header(workload, seed, seconds, trace.is_some())
    );

    let report = match &trace {
        None => run_end_to_end(workload, seed, seconds),
        Some(path) => {
            let rec = Recorder::new();
            let report = run_traced(workload, seed, seconds, &rec);
            let table = path.with_extension("layers.json");
            let written = write(path, &rec.chrome_trace())
                .and_then(|()| write(&table, &output::layers_json(&report, &rec.self_times())));
            if let Err(e) = written {
                eprintln!("bruck-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "# chrome trace: {}\n# self times and per-layer table: {}",
                path.display(),
                table.display()
            );
            report
        }
    };
    print!("{}", output::table(&report));
    println!("{}", output::result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bruck-benchmark: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
