//! Spans around the calls a solve makes into each layer.
//!
//! A solve is written once, generic over a [`Runner`].  [`Plain`] runs every
//! step bare through the facade's `CordonSolver` (the untraced, end-to-end
//! path).  [`Traced`] stamps a [`Mark`] (clock, allocation count and pool
//! dispatch counters) at each step boundary and wraps the cordon in
//! [`Timed`], which stamps every `round_with` call and the `finish` call made
//! by the real driver.  All spans stay in memory; [`chrome_trace`] writes the
//! kept solves as Chrome trace-event JSON at exit.

use std::fmt::Write as _;
use std::time::Instant;

use parallel_dp::core::{FrontierArena, PhaseParallel, StallError};
use parallel_dp::parutils::MetricsCollector;
use parallel_dp::{CordonOutcome, CordonSolver};

use crate::alloc;

/// Counters sampled at one span boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Wall clock.
    pub at: Instant,
    /// Heap allocations so far (see [`crate::alloc`]).
    pub allocs: u64,
    /// Pool injector pushes so far (`rayon::dispatch_diagnostics().0`).
    pub pushes: u64,
    /// Pool worker wakeups so far (`rayon::dispatch_diagnostics().1`).
    pub wakeups: u64,
}

impl Mark {
    /// Sample every counter now.
    #[inline]
    pub fn now() -> Self {
        let (pushes, wakeups) = rayon::dispatch_diagnostics();
        Mark {
            at: Instant::now(),
            allocs: alloc::allocations(),
            pushes,
            wakeups,
        }
    }
}

/// A closed interval between two marks.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Opening mark.
    pub start: Mark,
    /// Closing mark.
    pub end: Mark,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.at.duration_since(self.start.at).as_secs_f64() * 1e3
    }

    /// Allocations inside the span.
    pub fn allocs(&self) -> u64 {
        self.end.allocs - self.start.allocs
    }

    /// Pool injector pushes inside the span.
    pub fn pushes(&self) -> u64 {
        self.end.pushes - self.start.pushes
    }

    /// Pool worker wakeups inside the span.
    pub fn wakeups(&self) -> u64 {
        self.end.wakeups - self.start.wakeups
    }

    fn timed<R>(f: impl FnOnce() -> R) -> (Span, R) {
        let start = Mark::now();
        let out = f();
        (
            Span {
                start,
                end: Mark::now(),
            },
            out,
        )
    }
}

/// One `round_with` call.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpan {
    /// The call's interval.
    pub span: Span,
    /// States it finalized.
    pub frontier: usize,
}

/// The named steps of a solve outside the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Build the problem object from the raw inputs.
    Build,
    /// Construct the cordon (including any router probe).
    CordonNew,
    /// Reconstruct the answer from the driver's output.
    Reconstruct,
}

/// Every span of one traced solve.
#[derive(Debug, Clone)]
pub struct SolveTrace {
    /// The whole solve.
    pub solve: Option<Span>,
    /// Problem construction.
    pub build: Option<Span>,
    /// Cordon construction.
    pub cordon_new: Option<Span>,
    /// The `CordonSolver::try_run` call (rounds and finish are inside it).
    pub run: Option<Span>,
    /// Every `round_with` call, in order.
    pub rounds: Vec<RoundSpan>,
    /// The instance's `finish` call.
    pub finish: Option<Span>,
    /// Answer reconstruction.
    pub reconstruct: Option<Span>,
}

/// Round-log capacity reserved when the cordon declares no round budget.
const DEFAULT_ROUND_RESERVE: usize = 4096;
/// Upper bound on the reserved round-log capacity (budgets such as GLWS's
/// `n` are far above the rounds actually run).
const MAX_ROUND_RESERVE: usize = 1 << 16;

impl SolveTrace {
    /// Empty trace.
    pub fn new() -> Self {
        SolveTrace {
            solve: None,
            build: None,
            cordon_new: None,
            run: None,
            rounds: Vec::with_capacity(DEFAULT_ROUND_RESERVE),
            finish: None,
            reconstruct: None,
        }
    }

    fn clear(&mut self) {
        self.solve = None;
        self.build = None;
        self.cordon_new = None;
        self.run = None;
        self.rounds.clear();
        self.finish = None;
        self.reconstruct = None;
    }

    /// Sum of the `round_with` spans, in milliseconds.
    pub fn round_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.span.ms()).sum()
    }

    /// Allocations inside `round_with` calls.
    pub fn round_allocs(&self) -> u64 {
        self.rounds.iter().map(|r| r.span.allocs()).sum()
    }

    /// Driver self time: the run span minus its round and finish children.
    pub fn driver_self_ms(&self) -> f64 {
        ms(self.run) - self.round_ms() - ms(self.finish)
    }

    /// Allocations made by the driver between and around rounds.
    pub fn driver_allocs(&self) -> u64 {
        allocs(self.run) - self.round_allocs() - allocs(self.finish)
    }

    /// The solve span minus the spans of its children; the part of a solve
    /// no span explains.
    pub fn unaccounted_ms(&self) -> f64 {
        ms(self.solve) - ms(self.build) - ms(self.cordon_new) - ms(self.run) - ms(self.reconstruct)
    }
}

impl Default for SolveTrace {
    fn default() -> Self {
        Self::new()
    }
}

/// Milliseconds of an optional span (0 when absent).
pub fn ms(span: Option<Span>) -> f64 {
    span.map_or(0.0, |s| s.ms())
}

/// Allocations of an optional span (0 when absent).
pub fn allocs(span: Option<Span>) -> u64 {
    span.map_or(0, |s| s.allocs())
}

/// How a solve executes its steps and its cordon run.
pub trait Runner {
    /// Execute one named step.
    fn step<R>(&mut self, step: Step, f: impl FnOnce() -> R) -> R;

    /// Run `cordon` to completion through the facade's `CordonSolver`.
    fn run<P: PhaseParallel>(&mut self, cordon: P) -> Result<CordonOutcome<P::Output>, StallError>;
}

/// The untraced runner: no clocks, no adapter.
pub struct Plain;

impl Runner for Plain {
    #[inline]
    fn step<R>(&mut self, _step: Step, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline]
    fn run<P: PhaseParallel>(&mut self, cordon: P) -> Result<CordonOutcome<P::Output>, StallError> {
        CordonSolver::new().try_run(cordon)
    }
}

/// The traced runner: records every step into a reused [`SolveTrace`].
pub struct Traced {
    /// Spans of the solve in progress (or the last one finished).
    pub trace: SolveTrace,
}

impl Traced {
    /// Runner with an empty, pre-reserved trace.
    pub fn new() -> Self {
        Traced {
            trace: SolveTrace::new(),
        }
    }

    /// Run `solve` as one traced solve, replacing the previous trace.
    pub fn solve<R>(&mut self, solve: impl FnOnce(&mut Self) -> R) -> R {
        self.trace.clear();
        let start = Mark::now();
        let out = solve(self);
        self.trace.solve = Some(Span {
            start,
            end: Mark::now(),
        });
        out
    }
}

impl Default for Traced {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner for Traced {
    fn step<R>(&mut self, step: Step, f: impl FnOnce() -> R) -> R {
        let (span, out) = Span::timed(f);
        let slot = match step {
            Step::Build => &mut self.trace.build,
            Step::CordonNew => &mut self.trace.cordon_new,
            Step::Reconstruct => &mut self.trace.reconstruct,
        };
        *slot = Some(span);
        out
    }

    fn run<P: PhaseParallel>(&mut self, cordon: P) -> Result<CordonOutcome<P::Output>, StallError> {
        // Reserve the round log before the run span opens, so the adapter's
        // pushes never allocate inside the measured rounds.
        let want = cordon
            .round_budget()
            .map_or(DEFAULT_ROUND_RESERVE, |b| b as usize)
            .min(MAX_ROUND_RESERVE);
        self.trace.rounds.reserve(want);
        let mut finish = None;
        let timed = Timed {
            inner: cordon,
            rounds: &mut self.trace.rounds,
            finish: &mut finish,
        };
        let (span, out) = Span::timed(|| CordonSolver::new().try_run(timed));
        self.trace.run = Some(span);
        self.trace.finish = finish;
        out
    }
}

/// Forwarding [`PhaseParallel`] adapter that stamps each `round_with` and
/// the `finish` call.  It changes nothing the driver sees: every method
/// forwards to the wrapped cordon, and the round log it appends to is
/// reserved before the run.
pub struct Timed<'t, P> {
    inner: P,
    rounds: &'t mut Vec<RoundSpan>,
    finish: &'t mut Option<Span>,
}

impl<P: PhaseParallel> Timed<'_, P> {
    #[inline]
    fn stamp(&mut self, round: impl FnOnce(&mut P) -> usize) -> usize {
        let start = Mark::now();
        let frontier = round(&mut self.inner);
        let span = Span {
            start,
            end: Mark::now(),
        };
        self.rounds.push(RoundSpan { span, frontier });
        frontier
    }
}

impl<P: PhaseParallel> PhaseParallel for Timed<'_, P> {
    type Output = P::Output;

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.stamp(|inner| inner.round(metrics))
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        self.stamp(|inner| inner.round_with(metrics, arena))
    }

    fn finish(self) -> Self::Output {
        let (span, out) = Span::timed(|| self.inner.finish());
        *self.finish = Some(span);
        out
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

/// Chrome trace-event JSON (`{"traceEvents": [...]}`) for `solves`, one
/// complete event per span with its allocation and pool counts as `args`.
/// Timestamps are microseconds since `epoch`.  Opens offline in Perfetto and
/// `chrome://tracing`.
pub fn chrome_trace(solves: &[SolveTrace], epoch: Instant, workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"perfbench {workload}\"}}}}"
    );
    let mut event = |name: &str, span: Span, extra: &str| {
        let ts = span.start.at.duration_since(epoch).as_secs_f64() * 1e6;
        let dur = span.end.at.duration_since(span.start.at).as_secs_f64() * 1e6;
        let _ = write!(
            out,
            ",\n{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\
             \"dur\":{dur:.3},\"args\":{{\"allocs\":{},\"pushes\":{},\"wakeups\":{}{extra}}}}}",
            span.allocs(),
            span.pushes(),
            span.wakeups()
        );
    };
    for (idx, solve) in solves.iter().enumerate() {
        let steps = [
            ("solve", solve.solve),
            ("build", solve.build),
            ("cordon_new", solve.cordon_new),
            ("run", solve.run),
            ("finish", solve.finish),
            ("reconstruct", solve.reconstruct),
        ];
        for (name, span) in steps {
            if let Some(span) = span {
                event(name, span, &format!(",\"solve\":{idx}"));
            }
        }
        for (i, round) in solve.rounds.iter().enumerate() {
            event(
                &format!("round[{i}]"),
                round.span,
                &format!(",\"solve\":{idx},\"frontier\":{}", round.frontier),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
