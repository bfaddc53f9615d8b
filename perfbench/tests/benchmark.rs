//! Quick-size checks of the benchmark itself: instances follow the seed,
//! deterministic counters repeat exactly, the timing adapter is faithful,
//! the gate rejects a wrong answer, and each mode reports exactly the
//! metric names `BENCHMARK.json` declares.
//!
//! One test function: pool counters are process-wide, so the workloads run
//! one after another rather than on parallel test threads.

use std::time::Instant;

use parallel_dp::parutils::with_threads;
use pardp_perfbench::bench::{self, Config, END_TO_END, PER_LAYER};
use pardp_perfbench::trace::{Plain, Traced};
use pardp_perfbench::workloads::{GapDeep, GlwsFig7, LcsWide, OatValley, Workload};

fn check_workload<W: Workload>(w: &W) {
    let name = w.name();
    let input = w.generate(1);
    assert!(input == w.generate(1), "{name}: one seed, one instance");
    let other = w.generate(2);
    assert!(
        input != other,
        "{name}: a second seed gives another instance"
    );
    let (reference, _) = w.reference(&input);

    let solve = || with_threads(2, || w.solve(&input, &mut Plain)).expect("solves");
    let (first, second) = (solve(), solve());
    w.check(&input, &reference, &first.answer)
        .unwrap_or_else(|e| panic!("{name}: gate rejects a correct answer: {e}"));
    assert_eq!(first.answer, second.answer, "{name}: answers repeat");
    assert_eq!(first.metrics, second.metrics, "{name}: counters repeat");

    // The adapter changes neither the answer nor any engine counter, and
    // logs one span per round with the driver's frontier.
    let mut traced = Traced::new();
    let run = with_threads(2, || traced.solve(|r| w.solve(&input, r))).expect("solves");
    assert_eq!(run.answer, first.answer, "{name}: traced answer");
    assert_eq!(run.metrics, first.metrics, "{name}: traced counters");
    let frontiers: Vec<u64> = traced
        .trace
        .rounds
        .iter()
        .map(|r| r.frontier as u64)
        .collect();
    assert_eq!(
        frontiers, first.metrics.frontier_sizes,
        "{name}: frontier log"
    );
    assert!(
        traced.trace.driver_self_ms() >= 0.0,
        "{name}: driver self time"
    );

    // Pinned to one thread the pool sees no traffic at all.
    let pinned = with_threads(1, || traced.solve(|r| w.solve(&input, r))).expect("solves");
    assert_eq!(pinned.answer, first.answer, "{name}: 1-thread answer");
    let span = traced.trace.solve.expect("solve span");
    assert_eq!(
        (span.pushes(), span.wakeups()),
        (0, 0),
        "{name}: 1-thread pool"
    );

    // The gate fails an answer checked against another instance's reference.
    let (other_reference, _) = w.reference(&other);
    assert!(
        w.check(&input, &other_reference, &first.answer).is_err(),
        "{name}: gate accepts a wrong answer"
    );
}

fn names(report: &bench::Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn workloads_are_seeded_deterministic_and_gated() {
    check_workload(&GapDeep {
        n: 60,
        m: 60,
        alphabet: 4,
    });
    check_workload(&LcsWide { l: 20_000, k: 20 });
    check_workload(&GlwsFig7 { n: 5_000, k: 50 });
    check_workload(&OatValley {
        n: 500,
        max_weight: 1 << 16,
    });

    // Each mode reports exactly its declared metrics, with no failures.
    let w = GapDeep {
        n: 40,
        m: 40,
        alphabet: 4,
    };
    let e2e = bench::run(&w, &Config::new(1, 0.2, false, 2), Instant::now());
    assert_eq!(e2e.failed, 0, "{:?}", e2e.failures);
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names(&e2e), declared);
    assert!(e2e.metrics.iter().all(|m| m.1 > 0.0), "{:?}", e2e.metrics);
    let layers = bench::run(&w, &Config::new(1, 0.2, true, 2), Instant::now());
    assert_eq!(layers.failed, 0, "{:?}", layers.failures);
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(&layers), declared);
    let line = bench::result_line(&layers);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
