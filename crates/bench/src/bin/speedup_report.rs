//! Reports the Sec. 1 / Sec. 6 headline numbers: parallel-vs-sequential
//! behaviour as the DP-DAG depth varies, including the paper's Figs. 6
//! and 7 and the work-ratio (parallel work / sequential work) used to
//! validate work-efficiency on machines with few cores — and emits the
//! machine-readable speedup trajectory as `BENCH_speedup.json`.
//!
//! Usage: `speedup_report [--quick] [--out PATH]`
//!
//! * `--quick` shrinks every instance for smoke-test use (CI).
//! * `--out PATH` sets the JSON output path (default `BENCH_speedup.json`
//!   in the current directory).

use pardp_bench::{merge_by_problem, print_speedup, run_speedup, speedup_rows_to_json};

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_speedup.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.expect_value("--out");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: speedup_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    // A pool's worker set never shrinks, so time every problem at 1 and 2
    // threads before any 4- or 8-thread row grows it past the one worker a
    // 2-thread program has.
    let rows = merge_by_problem(run_speedup(quick, &[1, 2]), run_speedup(quick, &[4, 8]));
    print_speedup(&rows);
    let json = speedup_rows_to_json(&rows, quick);
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("writing {out}: {e}");
        std::process::exit(1);
    }
    println!();
    println!("wrote {out} ({} rows)", rows.len());
}

/// Tiny helper so `--out` errors read well without pulling in a CLI crate.
trait ExpectValue {
    fn expect_value(&mut self, flag: &str) -> String;
}

impl<I: Iterator<Item = String>> ExpectValue for I {
    fn expect_value(&mut self, flag: &str) -> String {
        self.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    }
}
