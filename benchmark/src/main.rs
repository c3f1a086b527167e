//! The repo benchmark: per-core cost per packet, end to end and layer by
//! layer, on five workloads. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! Invoked through `benchmark/run.sh`, from the repo root:
//!
//! ```text
//! run.sh [--seed N] [--seconds S]            every workload, both passes
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!                                            one workload, one pass; the
//!                                            last stdout line is the
//!                                            result as JSON
//! run.sh --repeat-check [--seed N]           the whole set twice, compared
//! run.sh --print-contract                    BENCHMARK.json from spec.rs
//! run.sh --describe                          the metric tables, as markdown
//! run.sh --self-test                         this crate's unit tests
//! ```

#![warn(missing_docs)]

mod alloc;
mod clock;
mod e2e;
mod layers;
mod parity;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use e2e::{E2e, Options};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where run artefacts go, relative to the repo root.
const RESULTS_DIR: &str = "benchmark/results";
/// Timed repetitions taken even when `--seconds` is already spent.
const MIN_REPS: usize = 5;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
    print_contract: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat_check: false,
        print_contract: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => args.repeat_check = true,
            "--print-contract" => args.print_contract = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn options(args: &Args) -> Options {
    Options {
        seed: args.seed,
        seconds: args.seconds,
        shrink: 1,
        min_reps: MIN_REPS,
    }
}

fn print_problems(problems: &[String]) {
    for p in problems {
        eprintln!("CHECK FAILED: {p}");
    }
}

/// The end-to-end pass of one workload, printed.
fn end_to_end(w: &Workload, prepared: &e2e::Prepared, opts: &Options) -> E2e {
    let e = e2e::run(w, prepared, opts);
    if e.reps.is_empty() {
        return e;
    }
    let ns = e.ns_per_pkt();
    println!(
        "{}: end to end, seed {}, {} packets x {} repetitions (tracing off)",
        w.name, opts.seed, e.packets, ns.n
    );
    report::print_metrics(&e.metrics());
    println!(
        "  {:<40} {:>16.4} ns   (q1 {:.4}, q3 {:.4}, n = {})",
        "ns_per_pkt quartiles", ns.median, ns.q1, ns.q3, ns.n
    );
    println!(
        "  {:<40} {:>16.4} ratio (1.00 = the thread was never off the CPU)",
        "wall / on-CPU time",
        e.wall_over_cpu()
    );
    println!("  {:<40} {:>16.6} ratio", "failed_share", e.failed_share());
    e
}

/// The traced pass of one workload, printed, with its trace written out.
fn traced(w: &Workload, prepared: &e2e::Prepared, opts: &Options) -> layers::Traced {
    let t = layers::run(w, prepared, opts);
    println!("{}: per layer, seed {} (traced pass)", w.name, opts.seed);
    report::print_metrics(&t.metrics);
    report::print_layers(&t.recorder, t.cycles_per_ns);
    let path = format!("{RESULTS_DIR}/trace_{}.json", w.name);
    match std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&path, t.recorder.to_json(t.cycles_per_ns)))
    {
        Ok(()) => println!("  {} spans written to {path}", t.recorder.spans().len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    t
}

/// One workload, one pass: the interface the benchmark driver calls.
fn single(w: &Workload, args: &Args) -> ExitCode {
    let opts = options(args);
    let prepared = e2e::prepare(w, &opts);
    let (correct, line) = if args.trace {
        let t = traced(w, &prepared, &opts);
        print_problems(&t.problems);
        if let Err(e) = report::check_emitted(&t.metrics, spec::PER_LAYER) {
            eprintln!("benchmark bug: {e}");
            return ExitCode::from(2);
        }
        let correct = t.problems.is_empty();
        (
            correct,
            report::result_json(correct, t.attempted, t.failed, &t.metrics),
        )
    } else {
        let e = end_to_end(w, &prepared, &opts);
        print_problems(&e.problems);
        if e.reps.is_empty() {
            eprintln!("no repetition completed: nothing to report");
            return ExitCode::FAILURE;
        }
        let correct = e.problems.is_empty();
        (
            correct,
            report::result_json(correct, e.attempted, e.failed, &e.metrics()),
        )
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both passes, and a results file.
fn full(args: &Args) -> ExitCode {
    let opts = options(args);
    let mut ok = true;
    let mut results = format!("{{\"seed\": {}, \"workloads\": {{", args.seed);
    for (i, w) in WORKLOADS.iter().enumerate() {
        let prepared = e2e::prepare(w, &opts);
        let e = end_to_end(w, &prepared, &opts);
        print_problems(&e.problems);
        if e.reps.is_empty() {
            return ExitCode::FAILURE;
        }
        let t = traced(w, &prepared, &opts);
        print_problems(&t.problems);
        let correct = e.problems.is_empty() && t.problems.is_empty();
        ok &= correct;
        let _ = write!(
            results,
            "{}\n\"{}\": {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            if i > 0 { "," } else { "" },
            w.name,
            e.attempted + t.attempted,
            e.failed + t.failed,
            report::metrics_json(&e.metrics()),
            report::metrics_json(&t.metrics),
        );
        println!();
    }
    results.push_str("\n}}\n");
    let path = format!("{RESULTS_DIR}/results_seed{}.json", args.seed);
    match std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, results)) {
        Ok(()) => println!("results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if ok {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("OUTPUT CHECKS FAILED");
        ExitCode::FAILURE
    }
}

/// Runs the end-to-end pass of the whole set twice and compares the two
/// sets metric by metric against the benchmark's own bounds. This is
/// also the tool for a later change's parent-vs-change runs: same seed,
/// same seconds, one binary per side.
fn repeat_check(args: &Args) -> ExitCode {
    let opts = options(args);
    let mut sets: Vec<Vec<E2e>> = Vec::new();
    for set in 0..2 {
        println!("--- set {} ---", set + 1);
        sets.push(
            WORKLOADS
                .iter()
                .map(|w| end_to_end(w, &e2e::prepare(w, &opts), &opts))
                .collect(),
        );
    }
    println!("\n--- repeat check, seed {} ---", args.seed);
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "first", "second", "ratio", "spread", "bound"
    );
    let mut ok = true;
    for (w, (a, b)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        if a.reps.is_empty() || b.reps.is_empty() {
            println!("{:<20} no repetition completed  FAIL", w.name);
            ok = false;
            continue;
        }
        // Spread inside a set: quartile distance of the repetition times
        // (and of the set-up passes); the counts have none.
        let spreads = |e: &E2e| {
            [
                e.ns_per_pkt().spread(),
                0.0,
                0.0,
                0.0,
                stats::summarize(&e.setup_s).spread(),
            ]
        };
        let (sa, sb) = (spreads(a), spreads(b));
        for (i, ((name, first), (_, second))) in
            a.metrics().into_iter().zip(b.metrics()).enumerate()
        {
            let bound = spec::find(name)
                .and_then(|d| d.bound)
                .expect("end-to-end metric");
            let ratio = second / first;
            let spread = sa[i].max(sb[i]);
            let verdict = if ratio.max(1.0 / ratio) - 1.0 > bound {
                ok = false;
                "FAIL"
            } else if spread > bound {
                "UNRESOLVED"
            } else {
                "PASS"
            };
            println!(
                "{:<20} {name:<20} {first:>14.4} {second:>14.4} {ratio:>8.4} {spread:>7.4} {bound:>7.2}  {verdict}",
                w.name
            );
        }
        let failed = a.failed + b.failed;
        let verdict = if failed == 0 && a.problems.is_empty() && b.problems.is_empty() {
            "PASS"
        } else {
            ok = false;
            "FAIL"
        };
        println!(
            "{:<20} {:<20} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {verdict}",
            w.name,
            "failed_share",
            a.failed_share(),
            b.failed_share(),
            "-",
            "-",
            "0"
        );
        print_problems(&a.problems);
        print_problems(&b.problems);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", spec::contract_json());
        return ExitCode::SUCCESS;
    }
    if args.describe {
        print!("{}", spec::describe_markdown());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = parity::check() {
        eprintln!("build-parity guard (run from the repo root, via benchmark/run.sh):\n{e}");
        return ExitCode::from(2);
    }
    if args.repeat_check {
        repeat_check(&args)
    } else if let Some(w) = args.workload {
        single(w, &args)
    } else {
        full(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric named in `BENCHMARK.json` (held equal to the spec
    /// tables by `spec::tests`) is emitted exactly once per workload, and
    /// every output check passes — on a 40th of the traffic, one
    /// repetition past the warm-up.
    #[test]
    fn every_contract_metric_is_emitted_once_per_workload() {
        let opts = Options {
            seed: 3,
            seconds: 0.0,
            shrink: 40,
            min_reps: 2,
        };
        for w in &WORKLOADS {
            let prepared = e2e::prepare(w, &opts);
            let e = e2e::run(w, &prepared, &opts);
            assert_eq!(e.problems, Vec::<String>::new(), "{}", w.name);
            assert_eq!(e.failed, 0);
            assert!(e.attempted >= e.packets * 3);
            report::check_emitted(&e.metrics(), spec::END_TO_END).unwrap();
            for (name, value) in e.metrics() {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{}: {name} = {value}",
                    w.name
                );
            }

            let t = layers::run(w, &prepared, &opts);
            assert_eq!(t.problems, Vec::<String>::new(), "{}", w.name);
            report::check_emitted(&t.metrics, spec::PER_LAYER).unwrap();
            // In contract order, so the printed report reads like the table.
            let names: Vec<&str> = t.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let table: Vec<&str> = spec::PER_LAYER.iter().map(|d| d.name).collect();
            assert_eq!(names, table);
            assert!(t.metrics.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
            assert!(t.recorder.spans().iter().all(|s| s.end >= s.start));
            retina_telemetry::json::parse(&t.recorder.to_json(t.cycles_per_ns)).unwrap();
            retina_telemetry::json::parse(&report::result_json(true, 1, 0, &t.metrics)).unwrap();
        }
    }
}
