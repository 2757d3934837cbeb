//! The three checker workloads: source text in, checked verdict out.
//!
//! One pass verifies every program of the workload once, the way
//! `p verify` does: parse, typecheck, lower, search, and replay the
//! counterexample when there is one. The seed permutes the top-level
//! event and machine declarations of every program (the front end
//! accepts any order), and every pass checks the verdict and the space
//! counts against the figures pinned below, which are those of the
//! unpermuted programs.

use std::time::{Duration, Instant};

use p_core::checker::{PhaseNanos, Verifier};
use p_core::{ast, corpus, parser, semantics, typecheck, Program};

use crate::stats::{percentile, secs, sorted, Rng};
use crate::{Args, Metric, Outcome, Passes, Tally};

/// How one program is searched.
#[derive(Debug, Clone, Copy)]
enum Search {
    /// `Verifier::check_exhaustive` (jobs = 1).
    Sequential,
    /// `Verifier::check_exhaustive_parallel` with one worker per core.
    Parallel,
    /// `Verifier::check_delay_bounded` at this delay bound.
    Delay(usize),
}

/// The verdict a program must give.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Passes, with these space counts: unique states, transitions and,
    /// for the delay-bounded search, scheduler nodes (0 otherwise). All
    /// three are properties of the state space, independent of the
    /// search order and of the worker count.
    Pass {
        states: usize,
        transitions: usize,
        nodes: usize,
    },
    /// Fails, and `Verifier::replay` reproduces the counterexample. The
    /// counts at the violation depend on the search order, so they are
    /// not pinned.
    Violation,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    name: &'static str,
    program: fn() -> Program,
    search: Search,
    expect: Expect,
}

const GERMAN5: Expect = Expect::Pass {
    states: 155_967,
    transitions: 680_224,
    nodes: 0,
};
const SWITCH_LED: Expect = Expect::Pass {
    states: 180_625,
    transitions: 633_343,
    nodes: 0,
};

fn jobs(workload: &str) -> Option<Vec<Job>> {
    let job = |name, program, search, expect| Job {
        name,
        program,
        search,
        expect,
    };
    Some(match workload {
        "verify_seq" => vec![
            job("german5", corpus::german5, Search::Sequential, GERMAN5),
            job(
                "switch_led",
                corpus::switch_led,
                Search::Sequential,
                SWITCH_LED,
            ),
            job(
                "german_buggy",
                corpus::german_buggy,
                Search::Sequential,
                Expect::Violation,
            ),
            job(
                "elevator_buggy",
                corpus::elevator_buggy,
                Search::Sequential,
                Expect::Violation,
            ),
            job(
                "switch_led_buggy",
                corpus::switch_led_buggy,
                Search::Sequential,
                Expect::Violation,
            ),
        ],
        "verify_par" => vec![
            job("german5", corpus::german5, Search::Parallel, GERMAN5),
            job(
                "switch_led",
                corpus::switch_led,
                Search::Parallel,
                SWITCH_LED,
            ),
        ],
        // switch_led at bound 5 is the §5 scheduler on a large program;
        // german and elevator at 8 and 6 reach every configuration the
        // exhaustive search reaches.
        "delay_bounded" => vec![
            job(
                "switch_led@5",
                corpus::switch_led,
                Search::Delay(5),
                Expect::Pass {
                    states: 77_140,
                    transitions: 452_544,
                    nodes: 256_705,
                },
            ),
            job(
                "german@8",
                corpus::german,
                Search::Delay(8),
                Expect::Pass {
                    states: 2_795,
                    transitions: 57_783,
                    nodes: 25_831,
                },
            ),
            job(
                "elevator@6",
                corpus::elevator,
                Search::Delay(6),
                Expect::Pass {
                    states: 2_460,
                    transitions: 43_970,
                    nodes: 19_195,
                },
            ),
        ],
        _ => return None,
    })
}

/// Set-ups before the timed window. Set-up (input generation) takes
/// about a millisecond, so it is also repeated after every timed pass:
/// the median then samples the host over the whole run, not one moment.
const SETUP_REPS: usize = 5;

/// Input generation: each program's source with its top-level
/// declarations shuffled by the seed.
fn generate(jobs: &[Job], seed: u64) -> Vec<String> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let mut program = (job.program)();
            let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(i as u64));
            rng.shuffle(&mut program.events);
            rng.shuffle(&mut program.machines);
            ast::print_program(&program)
        })
        .collect()
}

/// What one program's source-to-verdict run produced. The layer times
/// are spans around the calls into each crate, filled only on traced
/// passes.
#[derive(Debug, Default)]
struct JobRun {
    states: usize,
    transitions: usize,
    dedup_hits: usize,
    nodes: usize,
    stored_mib: f64,
    phases: PhaseNanos,
    parse: Duration,
    check: Duration,
    lower: Duration,
    explore: Duration,
    replay: Duration,
}

/// Times `f` into `slot` when tracing; calls it bare otherwise.
fn span<T>(traced: bool, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *slot = start.elapsed();
    out
}

fn run_job(job: &Job, source: &str, traced: bool, plant: bool, tally: &mut Tally) -> JobRun {
    let mut run = JobRun::default();
    let verdict = (|| -> Result<(), String> {
        let program = span(traced, &mut run.parse, || parser::parse(source))
            .map_err(|e| format!("parse: {}", e.render(source)))?;
        span(traced, &mut run.check, || typecheck::check(&program))
            .map_err(|e| format!("typecheck: {e}"))?;
        let lowered = span(traced, &mut run.lower, || semantics::lower(&program))
            .map_err(|e| format!("lower: {e}"))?;
        let verifier = Verifier::new(&lowered);
        let (report, nodes) = span(traced, &mut run.explore, || match job.search {
            Search::Sequential => (verifier.check_exhaustive(), 0),
            Search::Parallel => (verifier.check_exhaustive_parallel(crate::nproc()), 0),
            Search::Delay(bound) => {
                let d = verifier.check_delay_bounded(bound);
                (d.report, d.scheduler_nodes)
            }
        });
        let stats = &report.stats;
        run.states = stats.unique_states;
        run.transitions = stats.transitions;
        run.dedup_hits = stats.dedup_hits;
        run.nodes = nodes;
        run.stored_mib = stats.stored_mib();
        run.phases = stats.phases;
        match (job.expect, &report.counterexample) {
            (Expect::Violation, Some(cex)) => {
                let outcome = span(traced, &mut run.replay, || verifier.replay(cex));
                if !outcome.reproduced() {
                    return Err(format!("counterexample did not replay: {outcome:?}"));
                }
            }
            (Expect::Violation, None) => return Err("expected a violation, got PASSED".into()),
            (Expect::Pass { .. }, Some(cex)) => {
                return Err(format!("unexpected violation: {}", cex.error))
            }
            (
                Expect::Pass {
                    states,
                    transitions,
                    nodes: want_nodes,
                },
                None,
            ) => {
                let states = states + usize::from(plant);
                let got = (run.states, run.transitions, nodes, report.complete);
                if got != (states, transitions, want_nodes, true) {
                    return Err(format!(
                        "(states, transitions, nodes, complete) = {got:?}, expected \
                         ({states}, {transitions}, {want_nodes}, true)"
                    ));
                }
            }
        }
        Ok(())
    })();
    tally.check(verdict.is_ok(), || {
        format!(
            "{}: {}",
            job.name,
            verdict.as_ref().err().map_or("", String::as_str)
        )
    });
    run
}

/// Per-pass sums of every quantity the metrics are built from.
#[derive(Debug, Default, Clone)]
struct Pass {
    seconds: f64,
    transitions: f64,
    states: f64,
    dedup_hits: f64,
    nodes: f64,
    stored_mib: f64,
    latency_us: Vec<f64>,
    parse: f64,
    check: f64,
    lower: f64,
    explore: f64,
    replay: f64,
    phases: [f64; 5],
}

fn run_pass(
    jobs: &[Job],
    sources: &[String],
    traced: bool,
    args: &Args,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for (job, source) in jobs.iter().zip(sources) {
        let r = run_job(job, source, traced, args.plant, tally);
        // The programs of a pass are submitted together, as a list of
        // files to `p verify` is: each waits from the pass start.
        pass.latency_us.push(secs(start.elapsed()) * 1e6);
        pass.transitions += r.transitions as f64;
        pass.states += r.states as f64;
        pass.dedup_hits += r.dedup_hits as f64;
        pass.nodes += r.nodes as f64;
        pass.stored_mib = pass.stored_mib.max(r.stored_mib);
        pass.parse += secs(r.parse);
        pass.check += secs(r.check);
        pass.lower += secs(r.lower);
        pass.explore += secs(r.explore);
        pass.replay += secs(r.replay);
        let p = r.phases;
        for (acc, ns) in pass
            .phases
            .iter_mut()
            .zip([p.exec, p.digest, p.clone, p.canon, p.table])
        {
            *acc += ns as f64 / 1e9;
        }
    }
    pass.seconds = secs(start.elapsed());
    pass
}

/// Runs a checker workload; `None` for a name that is not one.
pub fn run(args: &Args) -> Option<Outcome> {
    let jobs = jobs(&args.workload)?;
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let sources = generate(&jobs, args.seed);
        setups.push(secs(start.elapsed()));
        sources
    };
    let mut sources = Vec::new();
    for _ in 0..args.setup_reps(SETUP_REPS) {
        sources = set_up();
    }

    let passes = Passes::run(args, |traced| {
        let pass = run_pass(&jobs, &sources, traced, args, &mut tally);
        set_up();
        pass
    });

    let mut out = Outcome::new(tally);
    out.note(
        "programs",
        jobs.iter().map(|j| j.name).collect::<Vec<_>>().join(","),
    );
    out.note("passes_untraced", passes.plain.len().to_string());
    out.note("passes_traced", passes.traced.len().to_string());
    out.note("setup_reps", setups.len().to_string());
    if !args.trace {
        let pct = |p: &Pass, q: f64| percentile(&sorted(&p.latency_us), q);
        out.metric(Metric::series("verdict_s", passes.plain(|p| p.seconds)));
        out.metric(Metric::series(
            "events_per_s",
            passes.plain(|p| p.transitions / p.seconds),
        ));
        out.metric(Metric::series(
            "latency_p50_us",
            passes.plain(|p| pct(p, 0.50)),
        ));
        out.metric(Metric::series(
            "latency_p99_us",
            passes.plain(|p| pct(p, 0.99)),
        ));
        out.metric(Metric::value(
            "peak_rss_mib",
            crate::stats::peak_rss_mib(),
            1,
        ));
        out.metric(Metric::series("setup_s", setups));
        return Some(out);
    }
    let t = |f: &dyn Fn(&Pass) -> f64| passes.traced(f);
    out.metric(Metric::series("parser.parse_ms", t(&|p| p.parse * 1e3)));
    out.metric(Metric::series("typecheck.check_ms", t(&|p| p.check * 1e3)));
    out.metric(Metric::series("semantics.lower_ms", t(&|p| p.lower * 1e3)));
    out.metric(Metric::series(
        "frontend.share",
        t(&|p| (p.parse + p.check + p.lower) / p.seconds),
    ));
    out.metric(Metric::series("checker.explore_s", t(&|p| p.explore)));
    out.metric(Metric::series("checker.replay_ms", t(&|p| p.replay * 1e3)));
    for (i, name) in [
        "checker.exec_s",
        "checker.digest_s",
        "checker.clone_s",
        "checker.canon_s",
        "checker.table_s",
    ]
    .into_iter()
    .enumerate()
    {
        out.metric(Metric::series(name, t(&|p| p.phases[i])));
    }
    out.metric(Metric::series(
        "checker.phase_coverage",
        t(&|p| p.phases.iter().sum::<f64>() / p.explore),
    ));
    out.metric(Metric::series("checker.states", t(&|p| p.states)));
    out.metric(Metric::series("checker.transitions", t(&|p| p.transitions)));
    out.metric(Metric::series("checker.dedup_hits", t(&|p| p.dedup_hits)));
    out.metric(Metric::series(
        "checker.admit_ratio",
        t(&|p| p.states / p.transitions),
    ));
    out.metric(Metric::series("checker.sched_nodes", t(&|p| p.nodes)));
    out.metric(Metric::series(
        "checker.states_per_node",
        t(&|p| {
            if p.nodes > 0.0 {
                p.states / p.nodes
            } else {
                0.0
            }
        }),
    ));
    out.metric(Metric::series("checker.stored_mib", t(&|p| p.stored_mib)));
    out.metric(passes.overhead(|p| p.seconds));
    Some(out)
}
