//! The closed-loop measurement: one client, one solve outstanding, the next
//! solve issued when the previous one returns.  Every solve is checked
//! outside its timed region.

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parallel_dp::parutils::Metrics;
use parallel_dp::parutils::{round_min_grain, with_grain_policy, with_threads, GrainPolicy};

use crate::alloc;
use crate::trace::{self, Plain, Runner, SolveTrace, Traced};
use crate::workloads::{SolveError, Solved, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.  The p90 solve time is
/// measured too but reported with the samples, not gated: on a shared
/// two-core host its run-to-run spread exceeds any usable bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_ms_p50", "ms"),
    ("solve_1t_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("build.ms", "ms"),
    ("cordon.new_ms", "ms"),
    ("core.driver_self_ms", "ms"),
    ("core.driver_self_us_per_round", "us"),
    ("core.rounds", "count"),
    ("round.total_ms", "ms"),
    ("round.us_p50", "us"),
    ("round.us_p99", "us"),
    ("round.frontier_p50", "count"),
    ("round.frontier_max", "count"),
    ("finish.ms", "ms"),
    ("reconstruct.ms", "ms"),
    ("grain.us_per_round", "us"),
    ("metrics.states_finalized", "count"),
    ("metrics.edges_relaxed", "count"),
    ("metrics.probes", "count"),
    ("metrics.wasted_states", "count"),
    ("metrics.useful_frac", "ratio"),
    ("metrics.work_ratio", "ratio"),
    ("pool.injector_pushes", "count"),
    ("pool.wakeups", "count"),
    ("pool.pushes_per_round", "count"),
    ("alloc.per_solve", "count"),
    ("alloc.round_per_round", "count"),
    ("alloc.driver_per_round", "count"),
    ("ref.seq_ms_p50", "ms"),
    ("ref.speedup_vs_seq", "ratio"),
    ("ref.scaling_1t_over_nt", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up repetitions per run (their median is `setup_s`).
const SETUP_REPS: usize = 9;
/// Warmup solves at `threads = nproc` inside each set-up.
const WARMUP_SOLVES: usize = 2;
/// Fewest `nproc`-thread solves: ten samples lie beyond the p90.
const MIN_NT_SOLVES: usize = 100;
/// Fewest samples behind any other median.
const MIN_SAMPLES: usize = 11;
/// Traced solves whose spans go into the Chrome trace file.
const KEEP_TRACES: usize = 8;
/// Replays of the frontier log through a fresh grain policy.
const GRAIN_REPLAYS: usize = 21;
/// No run measures longer than this, whatever the minimum sample counts.
const HARD_CAP: Duration = Duration::from_secs(120);

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Instance seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Thread count of the parallel series (`nproc`).
    pub threads: usize,
}

impl Config {
    /// Settings for `seed`.
    pub fn new(seed: u64, seconds: f64, trace: bool, threads: usize) -> Self {
        Config {
            seed,
            seconds,
            trace,
            threads,
        }
    }
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Solves (and traced-versus-untraced comparisons) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Metric name, value, unit — exactly the set the mode reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and diagnostics, as `"key":value` JSON members.
    pub samples: Vec<(&'static str, f64)>,
    /// Raw per-solve times behind the metrics, in the order measured.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Chrome trace of the kept traced solves (traced run only).
    pub chrome_trace: Option<String>,
}

impl Report {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(message);
        }
    }
}

type Attempt<A> = std::thread::Result<Result<Solved<A>, SolveError>>;

/// One solve on a pool of `threads`, timed around everything the caller
/// waits for.  Panics are caught so they are counted, not fatal.
fn solve_on<W: Workload, R: Runner + Send>(
    w: &W,
    input: &W::Input,
    threads: usize,
    runner: &mut R,
) -> (f64, Attempt<W::Answer>) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        with_threads(threads, || w.solve(input, runner))
    }));
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// One traced solve; the spans land in `traced.trace`.
fn traced_solve_on<W: Workload>(
    w: &W,
    input: &W::Input,
    threads: usize,
    traced: &mut Traced,
) -> (f64, Attempt<W::Answer>) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        with_threads(threads, || traced.solve(|r| w.solve(input, r)))
    }));
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// The correctness gate: count the attempt, and return the answer only when
/// it solved and matches the reference.
fn gate<W: Workload>(
    w: &W,
    input: &W::Input,
    reference: &W::Reference,
    attempt: Attempt<W::Answer>,
    report: &mut Report,
) -> Option<Solved<W::Answer>> {
    report.attempted += 1;
    let failure = match attempt {
        Ok(Ok(solved)) => match w.check(input, reference, &solved.answer) {
            Ok(()) => return Some(solved),
            Err(msg) => format!("wrong answer: {msg}"),
        },
        Ok(Err(err)) => err.to_string(),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string payload".into());
            format!("panic: {msg}")
        }
    };
    report.fail(format!("{}: {failure}", w.name()));
    None
}

/// Call `step(0)`, `step(1)`, ... until `deadline` has passed and the last
/// step reported that every minimum sample count is met, or until `cap`
/// has passed.
fn repeat(deadline: Instant, cap: Instant, mut step: impl FnMut(usize) -> bool) {
    let mut enough = false;
    for i in 0.. {
        let now = Instant::now();
        if (now >= deadline && enough) || now >= cap {
            return;
        }
        enough = step(i);
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The process's high-water resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything set-up produces.
struct Setup<W: Workload> {
    input: W::Input,
    reference: W::Reference,
    reference_metrics: Metrics,
    /// Set-up durations, seconds (the first timed from process start).
    setup_s: Vec<f64>,
    /// Instance generation times, ms.
    gen_ms: Vec<f64>,
}

/// Generate the instance, solve the reference, spin up the pool and warm
/// up; `SETUP_REPS` times, keeping the last instance.  Each repetition
/// frees the previous instance first, so only one is ever resident, and
/// each builds its own pools (`with_threads` spins one up per call).
fn set_up<W: Workload>(
    w: &W,
    cfg: &Config,
    process_start: Instant,
    report: &mut Report,
) -> Setup<W> {
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let gen_start = Instant::now();
        let input = w.generate(cfg.seed);
        gen_ms.push(gen_start.elapsed().as_secs_f64() * 1e3);
        let (reference, reference_metrics) = w.reference(&input);
        with_threads(cfg.threads, || rayon::join(|| (), || ()));
        for _ in 0..WARMUP_SOLVES {
            let (_, attempt) = solve_on(w, &input, cfg.threads, &mut Plain);
            gate(w, &input, &reference, attempt, report);
        }
        let (_, attempt) = solve_on(w, &input, 1, &mut Plain);
        gate(w, &input, &reference, attempt, report);
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some((input, reference, reference_metrics));
    }
    let (input, reference, reference_metrics) = last.expect("at least one set-up repetition");
    Setup {
        input,
        reference,
        reference_metrics,
        setup_s,
        gen_ms,
    }
}

/// The untraced solves of one thread count: times of the solves that passed
/// the gate.
struct Series {
    threads: usize,
    times: Vec<f64>,
}

impl Series {
    fn new(threads: usize) -> Self {
        Series {
            threads,
            times: Vec::new(),
        }
    }

    /// One untraced, gated solve; returns its answer if it passed.
    fn solve<W: Workload>(
        &mut self,
        w: &W,
        s: &Setup<W>,
        report: &mut Report,
    ) -> Option<Solved<W::Answer>> {
        let (ms, attempt) = solve_on(w, &s.input, self.threads, &mut Plain);
        let solved = gate(w, &s.input, &s.reference, attempt, report)?;
        self.times.push(ms);
        Some(solved)
    }
}

/// Run workload `w` under `cfg`.
pub fn run<W: Workload>(w: &W, cfg: &Config, process_start: Instant) -> Report {
    let mut report = Report::default();
    let s = set_up(w, cfg, process_start, &mut report);
    if cfg.trace {
        traced_run(w, cfg, &s, &mut report);
    } else {
        end_to_end_run(w, cfg, &s, &mut report);
    }
    report
}

fn end_to_end_run<W: Workload>(w: &W, cfg: &Config, s: &Setup<W>, report: &mut Report) {
    let start = Instant::now();
    let window = Duration::from_secs_f64(cfg.seconds);
    let cap = start + HARD_CAP.max(window);
    // Alternate the two series so both sample the whole window.
    let mut nt = Series::new(cfg.threads);
    let mut one = Series::new(1);
    repeat(start + window, cap, |i| {
        let series = if i % 2 == 0 { &mut nt } else { &mut one };
        // Dropped at once, so no answer inflates the peak RSS.
        series.solve(w, s, report);
        nt.times.len() >= MIN_NT_SOLVES && one.times.len() >= MIN_SAMPLES
    });
    let (nt, one) = (nt.times, one.times);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    report.metrics = vec![
        ("solve_ms_p50", median(&nt), "ms"),
        ("solve_1t_ms_p50", median(&one), "ms"),
        ("peak_rss_mb", rss, "MB"),
        ("setup_s", median(&s.setup_s), "s"),
    ];
    let rank90 = (0.9 * nt.len() as f64).ceil() as usize;
    report.samples = vec![
        ("solve_ms_p90", percentile(&nt, 90.0)),
        ("solves_nt", nt.len() as f64),
        ("solves_1t", one.len() as f64),
        ("samples_beyond_p90", nt.len().saturating_sub(rank90) as f64),
        ("setup_reps", s.setup_s.len() as f64),
    ];
    report.series = vec![
        ("solve_nt_ms", nt),
        ("solve_1t_ms", one),
        ("setup_s", s.setup_s.clone()),
    ];
}

/// Per-solve layer numbers from one traced solve.
#[derive(Debug, Clone, Copy)]
struct LayerSample {
    solve_ms: f64,
    build_ms: f64,
    cordon_new_ms: f64,
    driver_self_ms: f64,
    round_total_ms: f64,
    round_us_p50: f64,
    round_us_p99: f64,
    finish_ms: f64,
    reconstruct_ms: f64,
    unaccounted_ms: f64,
    pushes: f64,
    wakeups: f64,
    allocs: f64,
    round_allocs: f64,
    driver_allocs: f64,
}

impl LayerSample {
    fn of(t: &SolveTrace) -> Self {
        let round_us: Vec<f64> = t.rounds.iter().map(|r| r.span.ms() * 1e3).collect();
        let solve = t.solve.expect("a traced solve records its span");
        LayerSample {
            solve_ms: solve.ms(),
            build_ms: trace::ms(t.build),
            cordon_new_ms: trace::ms(t.cordon_new),
            driver_self_ms: t.driver_self_ms(),
            round_total_ms: t.round_ms(),
            round_us_p50: percentile(&round_us, 50.0),
            round_us_p99: percentile(&round_us, 99.0),
            finish_ms: trace::ms(t.finish),
            reconstruct_ms: trace::ms(t.reconstruct),
            unaccounted_ms: t.unaccounted_ms(),
            pushes: solve.pushes() as f64,
            wakeups: solve.wakeups() as f64,
            allocs: solve.allocs() as f64,
            round_allocs: t.round_allocs() as f64,
            driver_allocs: t.driver_allocs() as f64,
        }
    }
}

fn median_of(samples: &[LayerSample], field: impl Fn(&LayerSample) -> f64) -> f64 {
    median(&samples.iter().map(field).collect::<Vec<_>>())
}

/// Replay a run's frontier log through a fresh grain policy the way the
/// driver does (install the hint for the round, then observe); returns the
/// mean cost per round in microseconds.
fn grain_replay_us(frontiers: &[u64]) -> f64 {
    let start = Instant::now();
    let mut policy = GrainPolicy::new();
    for &f in frontiers {
        let len = black_box(f as usize);
        black_box(with_grain_policy(&policy, || round_min_grain(len)));
        policy.observe(f);
    }
    start.elapsed().as_secs_f64() * 1e6 / frontiers.len().max(1) as f64
}

fn traced_run<W: Workload>(w: &W, cfg: &Config, s: &Setup<W>, report: &mut Report) {
    let start = Instant::now();
    let window = Duration::from_secs_f64(cfg.seconds);
    let cap = start + HARD_CAP.max(window);
    let at = |share: f64| start + window.mul_f64(share);

    // Rotate untraced solves at `threads` and at one thread (the bases of
    // the overhead and scaling ratios) with traced solves at `threads`.
    let mut nt = Series::new(cfg.threads);
    let mut one = Series::new(1);
    let mut traced = Traced::new();
    let mut layers = Vec::new();
    let mut traced_ms = Vec::new();
    let mut kept = Vec::new();
    let mut traced_metrics = None;
    let mut baseline = None;
    repeat(at(0.85), cap, |i| {
        match i % 3 {
            0 => {
                let solved = nt.solve(w, s, report);
                if baseline.is_none() {
                    baseline = solved;
                }
            }
            1 => {
                one.solve(w, s, report);
            }
            _ => {
                alloc::set_counting(true);
                let (ms, attempt) = traced_solve_on(w, &s.input, cfg.threads, &mut traced);
                alloc::set_counting(false);
                if let Some(solved) = gate(w, &s.input, &s.reference, attempt, report) {
                    traced_ms.push(ms);
                    layers.push(LayerSample::of(&traced.trace));
                    if kept.len() < KEEP_TRACES {
                        kept.push(traced.trace.clone());
                    }
                    // Faithfulness: the adapter must change neither the
                    // answer nor any engine counter.
                    if let Some(base) = &baseline {
                        report.attempted += 1;
                        if solved.answer != base.answer || solved.metrics != base.metrics {
                            report.fail(format!(
                                "{}: traced solve differs from untraced (rounds {} vs {})",
                                w.name(),
                                solved.metrics.rounds,
                                base.metrics.rounds
                            ));
                        }
                    }
                    traced_metrics.get_or_insert(solved.metrics);
                }
            }
        }
        [nt.times.len(), one.times.len(), layers.len()]
            .iter()
            .all(|&n| n >= MIN_SAMPLES)
    });
    let (nt, one) = (nt.times, one.times);
    // One traced solve pinned to one thread: no pool traffic at all.
    alloc::set_counting(true);
    let (_, attempt) = traced_solve_on(w, &s.input, 1, &mut traced);
    alloc::set_counting(false);
    if gate(w, &s.input, &s.reference, attempt, report).is_some() {
        let solve = traced.trace.solve.expect("a traced solve records its span");
        report.attempted += 1;
        if solve.pushes() != 0 || solve.wakeups() != 0 {
            report.fail(format!(
                "{}: {} pushes and {} wakeups at 1 thread",
                w.name(),
                solve.pushes(),
                solve.wakeups()
            ));
        }
    }

    // The sequential reference, timed.
    let mut seq_ms = Vec::new();
    repeat(start + window, cap, |_| {
        let t = Instant::now();
        black_box(w.reference(&s.input));
        seq_ms.push(t.elapsed().as_secs_f64() * 1e3);
        seq_ms.len() >= 5
    });

    let m = traced_metrics.unwrap_or_default();
    let rounds = m.rounds.max(1) as f64;
    let grain: Vec<f64> = (0..GRAIN_REPLAYS)
        .map(|_| grain_replay_us(&m.frontier_sizes))
        .collect();
    let nt_p50 = median(&nt);
    let one_p50 = median(&one);
    let seq_p50 = median(&seq_ms);
    let med = |f: fn(&LayerSample) -> f64| median_of(&layers, f);
    let driver_self_ms = med(|l| l.driver_self_ms);
    let states = m.states_finalized as f64;
    let pushes = med(|l| l.pushes);
    report.metrics = vec![
        ("workloads.gen_ms", median(&s.gen_ms), "ms"),
        ("build.ms", med(|l| l.build_ms), "ms"),
        ("cordon.new_ms", med(|l| l.cordon_new_ms), "ms"),
        ("core.driver_self_ms", driver_self_ms, "ms"),
        (
            "core.driver_self_us_per_round",
            driver_self_ms * 1e3 / rounds,
            "us",
        ),
        ("core.rounds", m.rounds as f64, "count"),
        ("round.total_ms", med(|l| l.round_total_ms), "ms"),
        ("round.us_p50", med(|l| l.round_us_p50), "us"),
        ("round.us_p99", med(|l| l.round_us_p99), "us"),
        (
            "round.frontier_p50",
            m.frontier_percentile(50.0) as f64,
            "count",
        ),
        ("round.frontier_max", m.max_frontier() as f64, "count"),
        ("finish.ms", med(|l| l.finish_ms), "ms"),
        ("reconstruct.ms", med(|l| l.reconstruct_ms), "ms"),
        ("grain.us_per_round", median(&grain), "us"),
        ("metrics.states_finalized", states, "count"),
        ("metrics.edges_relaxed", m.edges_relaxed as f64, "count"),
        ("metrics.probes", m.probes as f64, "count"),
        ("metrics.wasted_states", m.wasted_states as f64, "count"),
        (
            "metrics.useful_frac",
            states / (states + m.wasted_states as f64).max(1.0),
            "ratio",
        ),
        (
            "metrics.work_ratio",
            m.work_proxy() as f64 / s.reference_metrics.work_proxy().max(1) as f64,
            "ratio",
        ),
        ("pool.injector_pushes", pushes, "count"),
        ("pool.wakeups", med(|l| l.wakeups), "count"),
        ("pool.pushes_per_round", pushes / rounds, "count"),
        ("alloc.per_solve", med(|l| l.allocs), "count"),
        (
            "alloc.round_per_round",
            med(|l| l.round_allocs) / rounds,
            "count",
        ),
        (
            "alloc.driver_per_round",
            med(|l| l.driver_allocs) / rounds,
            "count",
        ),
        ("ref.seq_ms_p50", seq_p50, "ms"),
        ("ref.speedup_vs_seq", seq_p50 / nt_p50, "ratio"),
        ("ref.scaling_1t_over_nt", one_p50 / nt_p50, "ratio"),
        (
            "trace.overhead_frac",
            median(&traced_ms) / nt_p50 - 1.0,
            "ratio",
        ),
    ];
    report.samples = vec![
        ("solves_nt_untraced", nt.len() as f64),
        ("solves_1t_untraced", one.len() as f64),
        ("solves_nt_traced", layers.len() as f64),
        ("seq_reference_runs", seq_ms.len() as f64),
        ("traced_solve_ms_p50", median(&traced_ms)),
        ("span_solve_ms_p50", med(|l| l.solve_ms)),
        (
            "span_unaccounted_frac",
            med(|l| l.unaccounted_ms) / med(|l| l.solve_ms),
        ),
    ];
    report.series = vec![
        ("solve_nt_ms", nt),
        ("solve_1t_ms", one),
        ("traced_solve_nt_ms", traced_ms),
        ("seq_reference_ms", seq_ms),
    ];
    report.chrome_trace = Some(trace::chrome_trace(&kept, start, w.name()));
}

/// Render `report` as the benchmark's result line:
/// `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(report)
    )
}

/// The metrics as a JSON object of `{"value", "unit"}` members.
pub fn metrics_json(report: &Report) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push('}');
    out
}

/// A finite number as JSON; `null` otherwise.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
