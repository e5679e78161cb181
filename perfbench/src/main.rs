//! Wall-clock benchmark of the real pipeline and the campaign service.
//!
//! ```text
//! perfbench --workload <real_dense|real_fullsize|service_storm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about
//! `--seconds`, checks every pass's output, and prints a table of metrics
//! followed by one JSON result line. An untraced run (`--trace 0`) reports
//! the end-to-end metrics; a traced run (`--trace 1`) times each layer's
//! public calls inside spans and reports the per-layer metrics, writing
//! the spans to `.perfbench/traces/`. Scratch files live under
//! `.perfbench/` in the working directory and are removed at exit.

mod inputs;
mod layers;
mod realrun;
mod report;
mod stats;
mod storm;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Directory, relative to the working directory, for scratch and traces.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    RealDense,
    RealFullsize,
    ServiceStorm,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("real_dense", Workload::RealDense),
        ("real_fullsize", Workload::RealFullsize),
        ("service_storm", Workload::ServiceStorm),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(found.ok_or(format!("unknown workload {value:?}"))?.1);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad trace flag {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Untraced run: the workload's own passes; end-to-end metrics.
fn untraced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    match args.workload {
        Workload::RealDense => {
            realrun::untraced(&inputs::real_dense(args.seed), scratch, args.seconds)
        }
        Workload::RealFullsize => {
            realrun::untraced(&inputs::real_fullsize(args.seed), scratch, args.seconds)
        }
        Workload::ServiceStorm => {
            storm::untraced(&inputs::service_storm(args.seed), scratch, args.seconds)
        }
    }
}

/// Traced run: every layer, measured on this workload's inputs. A real
/// workload also drains a small tenant population so the service layer is
/// measured; the service workload also runs a small real batch so the data
/// layers are. The workload's own passes fill the remaining time.
fn traced(args: &Args, scratch: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let pipeline_dir = scratch.join("pipeline");
    let service_dir = scratch.join("service");
    let mut out = Outcome::default();
    let journal = match args.workload {
        Workload::RealDense | Workload::RealFullsize => {
            let batch = match args.workload {
                Workload::RealDense => inputs::real_dense(args.seed),
                _ => inputs::real_fullsize(args.seed),
            };
            let (service, _) = storm::traced(
                &inputs::mini_storm(args.seed),
                &service_dir,
                tracer,
                Instant::now(),
            )?;
            out.absorb(service);
            let (real, journal) = realrun::traced(&batch, &pipeline_dir, tracer, deadline, 1)?;
            out.absorb(real);
            journal
        }
        Workload::ServiceStorm => {
            let mini = inputs::mini_dense(args.seed);
            let (real, _) = realrun::traced(&mini, &pipeline_dir, tracer, Instant::now(), 3)?;
            out.absorb(real);
            let (service, journal) = storm::traced(
                &inputs::service_storm(args.seed),
                &service_dir,
                tracer,
                deadline,
            )?;
            out.absorb(service);
            Some(journal)
        }
    };
    // A workload without a journal of its own reports the counts of the
    // journal layer's own appends.
    let (appends, own) = layers::journal(tracer, &scratch.join("journal"))?;
    out.absorb(appends);
    journal.unwrap_or(own).report(&mut out);
    out.absorb(layers::simulator(tracer)?);
    Ok(out)
}

fn run(args: &Args, scratch: &Path) -> Result<(String, String), String> {
    if !args.trace {
        return untraced(args, scratch)?.render(END_TO_END);
    }
    let tracer = Tracer::on();
    let out = traced(args, scratch, &tracer)?;
    let spans = Path::new(OUT_DIR).join("traces").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.render(PER_LAYER)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <real_dense|real_fullsize|service_storm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(OUT_DIR); // only when no traces were kept
    match result {
        Ok((table, line)) => {
            println!(
                "workload {} seed {} trace {} ({} worker threads)",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                realrun::WORKERS
            );
            print!("{table}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload service_storm --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServiceStorm);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload real_dense --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload real_dense --seed 1 --seconds 1").is_err());
        assert!(args("--workload real_dense --seed 1 --seconds 0 --trace 0").is_err());
    }
}
