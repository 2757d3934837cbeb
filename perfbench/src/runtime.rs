//! The `runtime_mix` workload: the sharded executor in a closed loop.
//!
//! One generator thread (this one) keeps [`WINDOW`] requests in flight
//! and issues the next only when one completes, as callers that await
//! their reply do. It blocks on a condition variable while it waits, so
//! it takes no core from the shards. Completion is observed through a
//! foreign function `done`, registered with `ExecutorBuilder::foreign`,
//! which each request's last machine run calls with the request id.
//!
//! Two request classes carry comparable shares of machine runs: `tick`
//! to one of [`COUNTERS`] Counter machines is one run through the
//! mailbox path; `go` to a ring of [`RING_LEN`] Relay machines cascades
//! [`RING_HOPS`] in-program sends inside one delivery (23 runs in all
//! on the runtime this benchmark was written against). The seed picks
//! the class order and the targets.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use p_core::runtime::{Executor, Injection};
use p_core::{parser, MachineId, Program, Runtime, Value};

use crate::stats::{percentile, secs, sorted, Rng};
use crate::{Args, Metric, Outcome, Passes, Tally};

const PROGRAM: &str = r#"
    event tick : int;
    event go : int;
    event wire : id;
    machine Counter {
        var n : int;
        var r : int;
        foreign fn done(int) : int;
        state Run { on tick do bump; }
        action bump { n := n + 1; r := done(arg); }
    }
    machine Relay {
        var next : id;
        var hits : int;
        var r : int;
        foreign fn done(int) : int;
        state Run {
            on wire do setnext;
            on go do forward;
        }
        action setnext { next := arg; r := done(0); }
        action forward {
            hits := hits + 1;
            if (arg - (arg / 32) * 32 > 0) {
                send(next, go, arg - 1);
            } else {
                r := done(arg / 32);
            }
        }
    }
    main Counter();
"#;

const COUNTERS: usize = 10_000;
const RINGS: usize = 128;
const RING_LEN: usize = 8;
/// Relay deliveries one ring request makes: the `go` payload is
/// `id * 32 + hops`, and each delivery forwards with one hop less until
/// zero (two laps).
const RING_HOPS: u64 = 16;
/// One request in `RING_EVERY` is a ring request, so the ring class
/// carries about as many deliveries as the tick class.
const RING_EVERY: usize = 17;
/// Requests in flight in the closed loop.
const WINDOW: usize = 64;
/// Requests in one timed pass: enough that each pass's 99th percentile
/// has at least ten samples beyond it, for the ring class too.
const PASS_REQUESTS: usize = 20_400;
/// Set-ups before the timed window; one more runs (and is shut down)
/// after every [`RESETUP_EVERY`] passes, so that `setup_s`, their
/// median, samples the host over the whole run, not one moment.
const SETUP_REPS: usize = 3;
const RESETUP_EVERY: usize = 16;
/// A request not completed within this time counts as missing.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(10);

/// Completions reported by `done`, handed to the generator.
#[derive(Debug, Default)]
struct Completions {
    queue: Mutex<Vec<(i64, Instant)>>,
    ready: Condvar,
}

impl Completions {
    fn push(&self, id: i64) {
        let now = Instant::now();
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((id, now));
        self.ready.notify_one();
    }

    /// Blocks until at least one completion is queued (or the timeout
    /// passes), then swaps the queue into `buf`.
    fn take(&self, buf: &mut Vec<(i64, Instant)>) {
        buf.clear();
        let guard = self.queue.lock().expect("completion queue poisoned");
        let (mut guard, _) = self
            .ready
            .wait_timeout_while(guard, COMPLETION_TIMEOUT, |q| q.is_empty())
            .expect("completion queue poisoned");
        std::mem::swap(&mut *guard, buf);
    }
}

fn done_fn(completions: &Arc<Completions>) -> impl Fn(&[Value]) -> Value + Send + Sync + 'static {
    let completions = Arc::clone(completions);
    move |args: &[Value]| {
        let id = match args.first() {
            Some(Value::Int(id)) => *id,
            _ => -1,
        };
        completions.push(id);
        Value::Int(0)
    }
}

/// A started executor with every machine created and every ring wired.
struct Fleet {
    exec: Executor,
    counters: Vec<MachineId>,
    heads: Vec<MachineId>,
    relays: Vec<MachineId>,
    create: Duration,
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

const COUNTER_INITS: &[(&str, Value)] = &[("n", Value::Int(0)), ("r", Value::Int(0))];

/// Creates one ring of Relays through `create`, each pointing at the
/// one created before it; the head (first) still has to be wired to
/// the tail (last) with a `wire` event.
fn ring<E>(
    mut create: impl FnMut(&[(&str, Value)]) -> Result<MachineId, E>,
) -> Result<Vec<MachineId>, E> {
    let mut members = vec![create(&[("hits", int(0)), ("r", int(0))])?];
    for _ in 1..RING_LEN {
        let prev = Value::Machine(members[members.len() - 1]);
        members.push(create(&[("hits", int(0)), ("r", int(0)), ("next", prev)])?);
    }
    Ok(members)
}

fn setup(program: &Program, completions: &Arc<Completions>) -> Result<Fleet, String> {
    let exec = Executor::builder(program)
        .map_err(|e| format!("executor: {e}"))?
        .shards(crate::nproc())
        .foreign("done", done_fn(completions))
        .start();
    let start = Instant::now();
    let err = |e: p_core::runtime::RuntimeError| format!("setup: {e}");
    let counters = (0..COUNTERS)
        .map(|_| exec.create_machine("Counter", COUNTER_INITS))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let (mut heads, mut tails, mut relays) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..RINGS {
        // A ring's `next` links are in-program machine references,
        // which must stay on one shard.
        let shard = r % exec.shards();
        let members = ring(|inits| exec.create_machine_on(shard, "Relay", inits)).map_err(err)?;
        heads.push(members[0]);
        tails.push(members[RING_LEN - 1]);
        relays.extend(members);
    }
    let create = start.elapsed();
    // Close every ring, and wait until each `wire` ran (it reports
    // `done(0)`), so no set-up run leaks into a timed window.
    for (&head, &tail) in heads.iter().zip(&tails) {
        exec.inject(Injection::new(head, "wire", Value::Machine(tail)))
            .map_err(err)?;
    }
    let mut wired = 0;
    let mut buf = Vec::new();
    while wired < RINGS {
        completions.take(&mut buf);
        if buf.is_empty() {
            return Err("setup: ring wiring did not complete".into());
        }
        wired += buf.iter().filter(|(id, _)| *id == 0).count();
    }
    Ok(Fleet {
        exec,
        counters,
        heads,
        relays,
        create,
    })
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: i64,
    ring: bool,
    start: Instant,
    returned: Instant,
}

/// What one pass measured; the traced-only series are empty otherwise.
#[derive(Debug, Default)]
struct Pass {
    seconds: f64,
    runs: u64,
    injections: u64,
    steals: u64,
    batches: u64,
    latency_us: Vec<f64>,
    inject_us: Vec<f64>,
    residence_us: Vec<f64>,
    tick_us: Vec<f64>,
    ring_us: Vec<f64>,
}

/// The closed-loop generator and everything it must account for.
struct Generator<'a> {
    fleet: &'a Fleet,
    completions: &'a Completions,
    rng: Rng,
    seq: Vec<i64>,
    slots: Vec<Option<InFlight>>,
    ticks_sent: i64,
    rings_sent: i64,
    injected: u64,
    tally: &'a mut Tally,
}

impl Generator<'_> {
    fn runs(&self) -> u64 {
        (0..self.fleet.exec.shards())
            .filter_map(|s| self.fleet.exec.shard_runtime(s))
            .map(Runtime::runs_executed)
            .sum()
    }

    /// Issues the next request in `slot`; false when `inject` refused it.
    fn issue(&mut self, slot: usize, traced: bool) -> bool {
        let id = self.seq[slot] * WINDOW as i64 + slot as i64 + 1;
        self.seq[slot] += 1;
        let ring = self.rng.below(RING_EVERY) == 0;
        let injection = if ring {
            let head = self.fleet.heads[self.rng.below(RINGS)];
            Injection::new(head, "go", int(id * 32 + RING_HOPS as i64 - 1))
        } else {
            let counter = self.fleet.counters[self.rng.below(COUNTERS)];
            Injection::new(counter, "tick", int(id))
        };
        let start = Instant::now();
        let result = self.fleet.exec.inject(injection);
        let returned = if traced { Instant::now() } else { start };
        // A request counts once: here if it is refused, else when it
        // completes or goes missing.
        if let Err(e) = result {
            self.tally.check(false, || format!("inject refused: {e}"));
            return false;
        }
        self.injected += 1;
        if ring {
            self.rings_sent += 1;
        } else {
            self.ticks_sent += 1;
        }
        self.slots[slot] = Some(InFlight {
            id,
            ring,
            start,
            returned,
        });
        true
    }

    fn pass(&mut self, requests: usize, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let runs_before = self.runs();
        let stats_before = self.fleet.exec.stats();
        let injected_before = self.injected;
        let start = Instant::now();
        let (mut issued, mut finished) = (0, 0);
        for slot in 0..WINDOW.min(requests) {
            issued += 1;
            if !self.issue(slot, traced) {
                finished += 1;
            }
        }
        let mut buf = Vec::with_capacity(WINDOW);
        while finished < requests {
            self.completions.take(&mut buf);
            if buf.is_empty() {
                let missing = self.slots.iter_mut().filter_map(Option::take).count();
                for _ in 0..missing {
                    self.tally.check(false, || "request never completed".into());
                }
                break;
            }
            for &(id, at) in &buf {
                let slot = ((id - 1).rem_euclid(WINDOW as i64)) as usize;
                let request = self
                    .slots
                    .get_mut(slot)
                    .and_then(|s| s.take_if(|r| r.id == id));
                let Some(request) = request else {
                    self.tally
                        .check(false, || format!("done({id}) for no request in flight"));
                    continue;
                };
                self.tally.check(true, String::new);
                finished += 1;
                let us = |from: Instant| secs(at.saturating_duration_since(from)) * 1e6;
                pass.latency_us.push(us(request.start));
                if traced {
                    pass.inject_us
                        .push(secs(request.returned - request.start) * 1e6);
                    pass.residence_us.push(us(request.returned));
                    if request.ring {
                        &mut pass.ring_us
                    } else {
                        &mut pass.tick_us
                    }
                    .push(us(request.start));
                }
                while issued < requests {
                    issued += 1;
                    if self.issue(slot, traced) {
                        break;
                    }
                    finished += 1;
                }
            }
        }
        pass.seconds = secs(start.elapsed());
        pass.runs = self.runs() - runs_before;
        pass.injections = self.injected - injected_before;
        let stats = self.fleet.exec.stats();
        pass.steals = stats.steals - stats_before.steals;
        pass.batches = stats.batches - stats_before.batches;
        pass
    }
}

/// Per-call time of `Runtime::add_event` on one directly driven runtime
/// holding the same machines, under the same request mix; one value per
/// chunk of calls.
fn add_event_us(program: &Program, seed: u64, calls: usize, tally: &mut Tally) -> Vec<f64> {
    let mut builder = match Runtime::builder(program) {
        Ok(b) => b,
        Err(e) => {
            tally.check(false, || format!("runtime: {e}"));
            return Vec::new();
        }
    };
    builder.foreign("done", |_| Value::Int(0));
    let rt = builder.start();
    let run = || -> Result<Vec<f64>, p_core::runtime::RuntimeError> {
        let counters = (0..COUNTERS)
            .map(|_| rt.create_machine("Counter", COUNTER_INITS))
            .collect::<Result<Vec<_>, _>>()?;
        let mut heads = Vec::new();
        for _ in 0..RINGS {
            let members = ring(|inits| rt.create_machine("Relay", inits))?;
            rt.add_event(members[0], "wire", Value::Machine(members[RING_LEN - 1]))?;
            heads.push(members[0]);
        }
        let mut rng = Rng::new(seed ^ 0xADD);
        let chunk = 10_000.min(calls);
        let mut per_call = Vec::new();
        for _ in 0..calls / chunk {
            let start = Instant::now();
            for i in 0..chunk {
                if rng.below(RING_EVERY) == 0 {
                    let head = heads[rng.below(RINGS)];
                    rt.add_event(head, "go", int(i as i64 * 32 + RING_HOPS as i64 - 1))?;
                } else {
                    rt.add_event(counters[rng.below(COUNTERS)], "tick", int(i as i64 + 1))?;
                }
            }
            per_call.push(secs(start.elapsed()) * 1e6 / chunk as f64);
        }
        Ok(per_call)
    };
    let result = run();
    tally.check(result.is_ok(), || format!("add_event: {result:?}"));
    result.unwrap_or_default()
}

/// Shuts down a set-up-only executor, which ran no requests.
fn retire(fleet: Fleet, tally: &mut Tally) {
    let report = fleet.exec.shutdown();
    tally.check(report.is_ok(), || {
        format!("set-up executor shutdown: {report:?}")
    });
}

/// Runs `runtime_mix`; `None` for another workload name.
pub fn run(args: &Args) -> Option<Outcome> {
    if args.workload != "runtime_mix" {
        return None;
    }
    let mut tally = Tally::default();
    let program = parser::parse(PROGRAM).expect("the runtime_mix program parses");
    let completions = Arc::new(Completions::default());

    let (mut setups, mut creates) = (Vec::new(), Vec::new());
    let mut set_up = |tally: &mut Tally| {
        let start = Instant::now();
        let fleet = setup(&program, &completions);
        match &fleet {
            Ok(f) => {
                setups.push(secs(start.elapsed()));
                creates.push(secs(f.create) * 1e3);
            }
            Err(e) => tally.check(false, || e.clone()),
        }
        fleet.ok()
    };
    let mut fleet = None;
    for _ in 0..args.setup_reps(SETUP_REPS) {
        if let Some(old) = fleet.take() {
            retire(old, &mut tally);
        }
        fleet = set_up(&mut tally);
        if fleet.is_none() {
            break;
        }
    }
    let Some(fleet) = fleet else {
        return Some(Outcome::new(tally));
    };

    let requests = if args.quick {
        PASS_REQUESTS / 4
    } else {
        PASS_REQUESTS
    };
    let mut gen = Generator {
        fleet: &fleet,
        completions: &completions,
        rng: Rng::new(args.seed),
        seq: vec![0; WINDOW],
        slots: vec![None; WINDOW],
        ticks_sent: 0,
        rings_sent: 0,
        injected: 0,
        tally: &mut tally,
    };
    let mut peak_rss = None;
    let mut count = 0;
    let passes = Passes::run(args, |traced| {
        let pass = gen.pass(requests, traced);
        count += 1;
        if count % RESETUP_EVERY == 0 {
            // A spare executor coexists with the measured one; the peak
            // is the measured one's, taken before the first spare.
            peak_rss.get_or_insert_with(crate::stats::peak_rss_mib);
            if let Some(spare) = set_up(gen.tally) {
                retire(spare, gen.tally);
            }
        }
        pass
    });
    let (ticks, rings, injected) = (gen.ticks_sent, gen.rings_sent, gen.injected);

    // The checks read the executor after shutdown: its `delivered`
    // counter is bumped after a run returns, so it can lag the `done`
    // callback of the last request.
    let runtimes: Vec<Runtime> = (0..fleet.exec.shards())
        .filter_map(|s| fleet.exec.shard_runtime(s).cloned())
        .collect();
    let home = |ids: &[MachineId]| -> Vec<(usize, MachineId)> {
        ids.iter().filter_map(|&id| fleet.exec.locate(id)).collect()
    };
    let (counters, relays) = (home(&fleet.counters), home(&fleet.relays));
    let start = Instant::now();
    let report = fleet.exec.shutdown();
    let shutdown_ms = secs(start.elapsed()) * 1e3;
    let sum = |homes: &[(usize, MachineId)], var: &str| -> i64 {
        homes
            .iter()
            .map(
                |&(shard, local)| match runtimes[shard].read_var(local, var) {
                    Some(Value::Int(v)) => v,
                    _ => 0,
                },
            )
            .sum()
    };
    // Every request ran exactly its deliveries: Counter `n` and Relay
    // `hits` sum to the requests sent, and the executor delivered (and
    // neither dropped nor failed) every injection, the ring wiring
    // included.
    let want_n = ticks + i64::from(args.plant);
    let n = sum(&counters, "n");
    tally.check(n == want_n, || {
        format!("Counter n sum {n}, expected {want_n}")
    });
    let want_hits = rings * RING_HOPS as i64;
    let hits = sum(&relays, "hits");
    tally.check(hits == want_hits, || {
        format!("Relay hits sum {hits}, expected {want_hits}")
    });
    let want_delivered = injected + RINGS as u64;
    let mut max_depth = 0;
    match report {
        Ok(report) => {
            let stats = &report.stats;
            max_depth = stats
                .shards
                .iter()
                .map(|s| s.max_mailbox_depth)
                .max()
                .unwrap_or(0);
            let ok = report.delivered == want_delivered && stats.dropped == 0 && stats.failed == 0;
            tally.check(ok, || {
                format!(
                    "delivered {} (expected {want_delivered}), dropped {}, failed {}",
                    report.delivered, stats.dropped, stats.failed
                )
            });
        }
        Err(e) => tally.check(false, || format!("shutdown: {e}")),
    }

    let add_event = if args.trace {
        let calls = if args.quick { 10_000 } else { 100_000 };
        add_event_us(&program, args.seed, calls, &mut tally)
    } else {
        Vec::new()
    };

    let mut out = Outcome::new(tally);
    out.note("shards", crate::nproc().to_string());
    out.note("counters", COUNTERS.to_string());
    out.note("rings", format!("{RINGS}x{RING_LEN}"));
    out.note("window", WINDOW.to_string());
    out.note("requests_per_pass", requests.to_string());
    out.note("passes_untraced", passes.plain.len().to_string());
    out.note("passes_traced", passes.traced.len().to_string());
    out.note("setup_reps", setups.len().to_string());
    out.note("ticks_sent", ticks.to_string());
    out.note("rings_sent", rings.to_string());
    let pct = |v: &[f64], q: f64| percentile(&sorted(v), q);
    if !args.trace {
        out.metric(Metric::series("verdict_s", passes.plain(|p| p.seconds)));
        out.metric(Metric::series(
            "events_per_s",
            passes.plain(|p| p.runs as f64 / p.seconds),
        ));
        out.metric(Metric::series(
            "latency_p50_us",
            passes.plain(|p| pct(&p.latency_us, 0.50)),
        ));
        out.metric(Metric::series(
            "latency_p99_us",
            passes.plain(|p| pct(&p.latency_us, 0.99)),
        ));
        let peak_rss = peak_rss.unwrap_or_else(crate::stats::peak_rss_mib);
        out.metric(Metric::value("peak_rss_mib", peak_rss, 1));
        out.metric(Metric::series("setup_s", setups));
        return Some(out);
    }
    let t = |f: &dyn Fn(&Pass) -> f64| passes.traced(f);
    out.metric(Metric::series(
        "runtime.inject_us_p50",
        t(&|p| pct(&p.inject_us, 0.50)),
    ));
    out.metric(Metric::series(
        "runtime.inject_us_p99",
        t(&|p| pct(&p.inject_us, 0.99)),
    ));
    out.metric(Metric::series(
        "runtime.residence_us_p50",
        t(&|p| pct(&p.residence_us, 0.50)),
    ));
    out.metric(Metric::series(
        "runtime.residence_us_p99",
        t(&|p| pct(&p.residence_us, 0.99)),
    ));
    out.metric(Metric::series(
        "runtime.tick_p99_us",
        t(&|p| pct(&p.tick_us, 0.99)),
    ));
    out.metric(Metric::series(
        "runtime.ring_p99_us",
        t(&|p| pct(&p.ring_us, 0.99)),
    ));
    out.metric(Metric::series(
        "runtime.runs_per_injection",
        t(&|p| p.runs as f64 / p.injections as f64),
    ));
    out.metric(Metric::series("runtime.steals", t(&|p| p.steals as f64)));
    out.metric(Metric::series("runtime.batches", t(&|p| p.batches as f64)));
    out.metric(Metric::value(
        "runtime.max_mailbox_depth",
        max_depth as f64,
        1,
    ));
    out.metric(Metric::series("runtime.add_event_us", add_event));
    out.metric(Metric::series("runtime.create_ms", creates));
    out.metric(Metric::value("runtime.shutdown_ms", shutdown_ms, 1));
    out.metric(passes.overhead(|p| p.seconds));
    Some(out)
}
