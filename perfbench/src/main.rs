//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed loop and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  A stamped copy of the result (and, when traced, a Chrome
//! trace) is written under `--out` (default `perfbench/out`).  Exits 1 when
//! any solve failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pardp_perfbench::bench::{self, json_number, json_string, Config, Report};
use pardp_perfbench::workloads::{GapDeep, GlwsFig7, LcsWide, OatValley, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <gap_deep|lcs_wide|glws_fig7|oat_valley> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

const GAP_DEEP: GapDeep = GapDeep {
    n: 500,
    m: 500,
    alphabet: 4,
};
const LCS_WIDE: LcsWide = LcsWide {
    l: 1_000_000,
    k: 100,
};
const GLWS_FIG7: GlwsFig7 = GlwsFig7 {
    n: 300_000,
    k: 1_000,
};
const OAT_VALLEY: OatValley = OatValley {
    n: 10_000,
    max_weight: 1 << 16,
};

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "gap_deep" => measure(&GAP_DEEP, &args, process_start),
        "lcs_wide" => measure(&LCS_WIDE, &args, process_start),
        "glws_fig7" => measure(&GLWS_FIG7, &args, process_start),
        "oat_valley" => measure(&OAT_VALLEY, &args, process_start),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn measure<W: Workload>(w: &W, args: &Args, process_start: Instant) -> ExitCode {
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cfg = Config::new(args.seed, args.seconds, args.trace, available);
    let report = bench::run(w, &cfg, process_start);

    for (name, value, unit) in &report.metrics {
        println!(
            "{:<40} {value:>14.4} {unit}",
            format!("{}.{name}", w.name())
        );
    }
    for (name, value) in &report.samples {
        println!(
            "{:<40} {value:>14.4} (not gated)",
            format!("{}.{name}", w.name())
        );
    }
    println!(
        "{:<40} {:>14}/{}",
        format!("{}.failed", w.name()),
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    if let Err(e) = write_outputs(w, args, &cfg, &report) {
        eprintln!("could not write results under {}: {e}", args.out.display());
    }
    println!("{}", bench::result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The stamped result document and, for a traced run, the Chrome trace.
fn write_outputs<W: Workload>(
    w: &W,
    args: &Args,
    cfg: &Config,
    report: &Report,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!("{}-seed{}", w.name(), args.seed);
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    let series: Vec<String> = report
        .series
        .iter()
        .map(|(k, v)| {
            let values: Vec<String> = v.iter().map(|x| json_number(*x)).collect();
            format!("\"{k}\": [{}]", values.join(", "))
        })
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json_string(f)).collect();
    let doc = format!(
        "{{\n  \"schema\": \"pardp-perfbench-v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \
         \"trace\": {},\n  \"seconds\": {},\n  \"stamp\": {{\"nproc\": {}, \
         \"available_parallelism\": {}, \"rustc\": {}, \"commit\": {}, \"threads\": [{}, 1]}},\n  \
         \"params\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"fail_frac\": {},\n  \
         \"failures\": [{}],\n  \"samples\": {{{}}},\n  \"metrics\": {},\n  \"series\": {{{}}}\n}}\n",
        w.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        json_string(&env("PERFBENCH_NPROC")),
        cfg.threads,
        json_string(&env("PERFBENCH_RUSTC")),
        json_string(&env("PERFBENCH_COMMIT")),
        cfg.threads,
        w.params_json(),
        report.attempted,
        report.failed,
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        failures.join(", "),
        samples.join(", "),
        bench::metrics_json(report),
        series.join(",\n    "),
    );
    let mode = if args.trace { "layers" } else { "e2e" };
    std::fs::write(args.out.join(format!("{stem}.{mode}.json")), doc)?;
    if let Some(trace) = &report.chrome_trace {
        std::fs::write(args.out.join(format!("{stem}.trace.json")), trace)?;
    }
    Ok(())
}
