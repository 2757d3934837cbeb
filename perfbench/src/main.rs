//! The repository benchmark: four workloads driven through the public
//! API of the P toolchain, with every output checked.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_seq --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! plain passes with passes that record a span around every call into a
//! layer, and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it is the run's
//! provenance. `--quick` (one short pass, no warm-up) and
//! `--plant-failure` (one pinned expectation off by one) exist for the
//! benchmark's own tests. See `perfbench/README.md`.

mod checker;
mod runtime;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use p_core::telemetry::json::{self, JsonValue};

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("verdict_s", "s"),
    ("events_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Every per-layer metric with its unit. A workload reports 0 for the
/// metrics of a layer it does not run.
const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("typecheck.check_ms", "ms"),
    ("semantics.lower_ms", "ms"),
    ("frontend.share", "ratio"),
    ("checker.explore_s", "s"),
    ("checker.replay_ms", "ms"),
    ("checker.exec_s", "s"),
    ("checker.digest_s", "s"),
    ("checker.clone_s", "s"),
    ("checker.canon_s", "s"),
    ("checker.table_s", "s"),
    ("checker.phase_coverage", "ratio"),
    ("checker.states", "count"),
    ("checker.transitions", "count"),
    ("checker.dedup_hits", "count"),
    ("checker.admit_ratio", "ratio"),
    ("checker.sched_nodes", "count"),
    ("checker.states_per_node", "ratio"),
    ("checker.stored_mib", "MiB"),
    ("runtime.inject_us_p50", "us"),
    ("runtime.inject_us_p99", "us"),
    ("runtime.residence_us_p50", "us"),
    ("runtime.residence_us_p99", "us"),
    ("runtime.tick_p99_us", "us"),
    ("runtime.ring_p99_us", "us"),
    ("runtime.runs_per_injection", "ratio"),
    ("runtime.steals", "count"),
    ("runtime.batches", "count"),
    ("runtime.max_mailbox_depth", "count"),
    ("runtime.add_event_us", "us"),
    ("runtime.create_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub plant: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            quick: false,
            plant: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    }
                }
                "--quick" => args.quick = true,
                "--plant-failure" => args.plant = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// How many times set-up runs: `reps`, or once in quick mode.
    pub fn setup_reps(&self, reps: usize) -> usize {
        if self.quick {
            1
        } else {
            reps
        }
    }
}

/// The timed passes of one run: plain ones and, with `--trace 1`,
/// traced ones.
#[derive(Debug)]
pub struct Passes<P> {
    pub plain: Vec<P>,
    pub traced: Vec<P>,
}

impl<P> Passes<P> {
    /// One untimed warm-up pass (none in quick mode), then passes back to
    /// back until `--seconds` have passed: at least one plain pass and,
    /// with `--trace 1`, traced passes alternating with plain ones.
    /// `pass(traced)` runs one pass.
    pub fn run(args: &Args, mut pass: impl FnMut(bool) -> P) -> Passes<P> {
        if !args.quick {
            pass(false);
        }
        let mut passes = Passes {
            plain: Vec::new(),
            traced: Vec::new(),
        };
        let window = Instant::now();
        while passes.plain.is_empty()
            || (args.trace && passes.traced.is_empty())
            || (!args.quick && stats::secs(window.elapsed()) < args.seconds)
        {
            let traced = args.trace && passes.plain.len() > passes.traced.len();
            let p = pass(traced);
            if traced {
                passes.traced.push(p);
            } else {
                passes.plain.push(p);
            }
        }
        passes
    }

    /// `f` of every plain pass.
    pub fn plain(&self, f: impl Fn(&P) -> f64) -> Vec<f64> {
        self.plain.iter().map(f).collect()
    }

    /// `f` of every traced pass.
    pub fn traced(&self, f: impl Fn(&P) -> f64) -> Vec<f64> {
        self.traced.iter().map(f).collect()
    }

    /// The tracing overhead: (traced − plain) / plain, on the median
    /// pass `seconds`.
    pub fn overhead(&self, seconds: impl Fn(&P) -> f64) -> Metric {
        let plain = stats::median(&self.plain(&seconds));
        let traced = stats::median(&self.traced(&seconds));
        Metric::value(
            "trace_overhead_frac",
            (traced - plain) / plain,
            self.traced.len(),
        )
    }
}

/// Worker threads for the parallel checker and executor shards.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Correctness checks: every operation attempted, and those that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    findings: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.findings.len() < 10 {
                self.findings.push(what());
            }
        }
    }
}

/// One metric: its value, and the per-pass values it is the median of
/// (the within-run spread is computed from those).
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    per_pass: Vec<f64>,
    samples: usize,
}

impl Metric {
    /// The median of per-pass values.
    pub fn series(name: &'static str, per_pass: Vec<f64>) -> Metric {
        Metric {
            name,
            value: stats::median(&per_pass),
            samples: per_pass.len(),
            per_pass,
        }
    }

    /// A value computed over `samples` samples at once.
    pub fn value(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            per_pass: Vec::new(),
            samples,
        }
    }
}

/// What a workload hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the library sources, so a result names the code it
/// measured even where the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "p" || e == "toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

/// Where a result came from, so a later comparison can name its host,
/// and how many samples each metric rests on and how far they spread.
fn provenance(args: &Args, out: &Outcome) -> JsonValue {
    let t = &out.tally;
    let mut fields = vec![
        ("workload", json::str(&args.workload)),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", json::num(nproc() as f64)),
        ("rustc", json::str(&command_output("rustc", &["-V"]))),
        (
            "git_rev",
            json::str(&command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest", json::str(&source_digest())),
    ];
    fields.extend(out.notes.iter().map(|(k, v)| (*k, json::str(v))));
    fields.push((
        "failed_frac",
        json::num(t.failed as f64 / t.attempted.max(1) as f64),
    ));
    let findings = t.findings.iter().map(|f| json::str(f)).collect();
    fields.push(("findings", JsonValue::Arr(findings)));
    let per_metric = out
        .metrics
        .iter()
        .map(|m| {
            let detail = vec![
                ("samples", json::num(m.samples as f64)),
                ("spread", json::num(stats::spread(&m.per_pass))),
            ];
            (m.name, json::obj(detail))
        })
        .collect();
    fields.push(("metrics", json::obj(per_metric)));
    json::obj(vec![("provenance", json::obj(fields))])
}

/// The result object: every metric of the catalogue the run prints.
fn result(args: &Args, out: &Outcome) -> JsonValue {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for m in &out.metrics {
        assert!(
            catalogue.iter().any(|(name, _)| *name == m.name),
            "metric {} is not in the catalogue",
            m.name
        );
    }
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            let entry = vec![("value", json::num(value)), ("unit", json::str(unit))];
            (name, json::obj(entry))
        })
        .collect();
    let t = &out.tally;
    json::obj(vec![
        ("correct", JsonValue::Bool(t.failed == 0 && t.attempted > 0)),
        ("attempted", json::num(t.attempted.max(1) as f64)),
        ("failed", json::num(t.failed as f64)),
        ("metrics", json::obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(out) = checker::run(&args).or_else(|| runtime::run(&args)) else {
        eprintln!(
            "perfbench: unknown workload {:?} (verify_seq, verify_par, delay_bounded, runtime_mix)",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!("{}", provenance(&args, &out).render());
    println!("{}", result(&args, &out).render());
    ExitCode::SUCCESS
}
