//! The benchmark of record. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line printed is the result
//! benchmark [--seed N] [--seconds S]
//!     every workload, untraced then traced, each in a child process
//! benchmark --self-check [--seed N] [--seconds S]
//!     the whole set twice: spread of each end-to-end metric against its
//!     bound, and whether every count repeats exactly
//! benchmark --write-golden      regenerate golden/seed42.txt
//! benchmark --print-contract    print BENCHMARK.json
//! ```

mod calibrate;
mod check;
mod json;
mod layers;
mod requests;
mod sysinfo;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 42;

/// Name, unit, better direction and regression bound of every end-to-end
/// metric. The bound is the share of the parent's median a metric may
/// worsen by.
///
/// The issue asked for 10-15 % on the timing metrics. Ten runs on ten
/// seeds spread by up to 5.3 % of their median on the box this was written
/// on (memory of `serve-mix` by 7.8 %), in a calm hour and after
/// calibration (see `calibrate`), and the contract wants a spread under a
/// third of the bound: hence 20-25 %.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_req", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    SelfCheck,
    WriteGolden,
    PrintContract,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-check" => args.mode = Mode::SelfCheck,
            "--write-golden" => args.mode = Mode::WriteGolden,
            "--print-contract" => args.mode = Mode::PrintContract,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if w != "all" && !workloads::WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {w}; choose one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when run from the root of a checkout, as the contract has
/// it, and otherwise where the package was built.
fn bench_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark");
    if from_root.join("Cargo.toml").is_file() {
        from_root
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn write_out(name: &str, contents: &str) {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    std::fs::write(dir.join(name), contents).expect("write under benchmark/out");
}

fn contract() -> Json {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        let mut fields = metric(name, unit, better);
                        fields.push(("bound", Json::Num(*bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| Json::obj(metric(name, unit, better)))
                    .collect(),
            ),
        ),
    ])
}

/// What one run has to report.
struct Outcome<'a> {
    counts: Vec<(&'a str, u64)>,
    /// Name, unit and value of what the clock read before calibration;
    /// empty for a traced run, whose metrics are as measured.
    raw: Vec<(&'a str, &'a str, f64)>,
    /// Name, unit and value.
    metrics: Vec<(&'a str, &'a str, f64)>,
    attempted: u64,
    failed: u64,
    problems: &'a [String],
}

/// Print one run's result: every metric by name with its unit, then the
/// contract's result object as the last line. Returns what goes into the
/// run's file under `out/`.
fn report(workload: &str, args: &Args, outcome: &Outcome) -> Json {
    let Outcome {
        counts,
        raw,
        metrics,
        attempted,
        failed,
        problems,
    } = outcome;
    let environment = sysinfo::environment(args.seed, args.seconds);
    if let Json::Obj(fields) = &environment {
        for (key, value) in fields {
            println!("env {key} {}", value.render());
        }
    }
    println!("workload {workload} trace {}", u8::from(args.trace));
    for (name, value) in counts {
        println!("count {name} {value}");
    }
    for (name, unit, value) in raw {
        println!("raw {name} {value} {unit}");
    }
    for (name, unit, value) in metrics {
        println!("metric {name} {value} {unit}");
    }
    for p in problems.iter() {
        println!("problem {p}");
    }
    let correct = *failed == 0 && problems.is_empty();
    let as_json = |values: &[(&str, &str, f64)]| {
        Json::obj(values.iter().map(|(name, unit, value)| {
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(*attempted)),
        ("failed", Json::Int(*failed)),
        ("metrics", as_json(metrics)),
    ]);
    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("environment", environment),
        (
            "counts",
            Json::obj(counts.iter().map(|(k, v)| (*k, Json::Int(*v)))),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
        ),
        ("raw", as_json(raw)),
        ("result", result.clone()),
    ]);
    println!("{}", result.render());
    file
}

/// One workload in this process.
fn run_one(workload: &str, args: &Args) {
    if args.trace {
        let layers = layers::run(workload, args.seed);
        let metrics: Vec<(&str, &str, f64)> = layers::PER_LAYER
            .iter()
            .zip(&layers.metrics)
            .map(|((name, unit, _), (_, value))| (*name, *unit, *value))
            .collect();
        let coverage = layers
            .metrics
            .last()
            .expect("trace.coverage is listed last")
            .1;
        if !(0.9..=1.1).contains(&coverage) {
            println!(
                "note trace.coverage is {coverage:.3}: the breakdown does not explain the request"
            );
        }
        let outcome = Outcome {
            counts: vec![
                ("spans", layers.recorder.spans().len() as u64),
                ("serve_workers", workloads::serve_workers() as u64),
            ],
            raw: Vec::new(),
            metrics,
            attempted: layers.attempted,
            failed: layers.failed,
            problems: &layers.problems,
        };
        let file = report(workload, args, &outcome);
        write_out(&format!("layers-{workload}.json"), &file.render_pretty());
        write_out(
            &format!("trace-{workload}.json"),
            &layers.recorder.to_json().render(),
        );
    } else {
        let e = workloads::run(workload, args.seed, args.seconds);
        let mut raw = vec![
            ("calibration_kernel_ms", "ms", e.kernel_ms),
            ("calibration_factor", "ratio", e.calibration()),
        ];
        raw.extend(
            END_TO_END
                .iter()
                .zip(e.raw())
                .map(|((name, unit, _, _), value)| (*name, *unit, value)),
        );
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(e.calibrated())
            .map(|((name, unit, _, _), value)| (*name, *unit, value))
            .collect();
        let outcome = Outcome {
            counts: vec![
                ("rounds", e.rounds as u64),
                ("requests_per_round", e.requests_per_round as u64),
                ("latency_samples", e.samples as u64),
            ],
            raw,
            metrics,
            attempted: e.attempted,
            failed: e.failed,
            problems: &e.problems,
        };
        let file = report(workload, args, &outcome);
        write_out(&format!("result-{workload}.json"), &file.render_pretty());
    }
}

/// The `metric`, `raw` and `count` lines a child printed, and whether it
/// reported success.
struct ChildRun {
    /// Kind, name, value and unit of each line.
    lines: Vec<(String, String, f64, String)>,
    ok: bool,
}

impl ChildRun {
    fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (&'a str, f64, &'a str)> {
        self.lines
            .iter()
            .filter(move |l| l.0 == kind)
            .map(|(_, name, value, unit)| (name.as_str(), *value, unit.as_str()))
    }

    fn to_json(&self, kind: &str) -> Json {
        Json::obj(self.of_kind(kind).map(|(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }
}

/// Run one workload in a child process, echoing what it prints.
fn run_child(workload: &str, args: &Args, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this program");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("start child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = Vec::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split(' ').collect();
        match words.as_slice() {
            [kind @ ("metric" | "raw" | "count"), name, value, unit @ ..] => {
                let unit = unit.first().copied().unwrap_or("count");
                println!("  {kind:<6} {name:<32} {value:>22} {unit}");
                let value = value.parse().expect("a child prints numbers");
                lines.push((kind.to_string(), name.to_string(), value, unit.to_string()));
            }
            ["problem", ..] | ["note", ..] => println!("  {line}"),
            _ => {}
        }
    }
    // A child that measured something exits with 0 and states in its result
    // object whether every check passed.
    let correct = stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true,"));
    ChildRun {
        lines,
        ok: output.status.success() && correct,
    }
}

/// Every workload, untraced then traced; returns the runs by workload.
fn run_set(args: &Args) -> Vec<(&'static str, ChildRun, ChildRun)> {
    workloads::WORKLOADS
        .iter()
        .map(|(workload, _)| {
            println!("== {workload}: end to end");
            let untraced = run_child(workload, args, false);
            println!("== {workload}: per layer (traced)");
            let traced = run_child(workload, args, true);
            (*workload, untraced, traced)
        })
        .collect()
}

fn run_all(args: &Args) -> bool {
    let set = run_set(args);
    let summary = Json::obj([
        ("environment", sysinfo::environment(args.seed, args.seconds)),
        (
            "workloads",
            Json::obj(set.iter().map(|(workload, untraced, traced)| {
                (
                    *workload,
                    Json::obj([
                        ("counts", untraced.to_json("count")),
                        ("end_to_end", untraced.to_json("metric")),
                        ("end_to_end_raw", untraced.to_json("raw")),
                        ("trace_counts", traced.to_json("count")),
                        ("per_layer", traced.to_json("metric")),
                    ]),
                )
            })),
        ),
    ]);
    write_out("summary.json", &summary.render_pretty());
    println!(
        "summary written to {}",
        bench_dir().join("out/summary.json").display()
    );
    set.iter()
        .all(|(_, untraced, traced)| untraced.ok && traced.ok)
}

/// Run the set twice and compare. Two runs give a difference, not a
/// spread over quartiles; the ten-seed spread is in the README.
fn self_check(args: &Args) -> bool {
    let first = run_set(args);
    let second = run_set(args);
    let mut ok = true;
    println!("\n== self-check: second run against first");
    for ((workload, a, a_traced), (_, b, b_traced)) in first.iter().zip(&second) {
        ok &= a.ok && b.ok && a_traced.ok && b_traced.ok;
        for ((name, x, unit), (_, y, _)) in a.of_kind("metric").zip(b.of_kind("metric")) {
            let (_, _, better, bound) = END_TO_END
                .iter()
                .find(|(n, ..)| *n == name)
                .expect("a child prints the end-to-end metrics");
            // How much worse the second run is, as a share of the first.
            let worse = if *better == "lower" { y - x } else { x - y } / x;
            let verdict = if worse <= *bound { "within" } else { "OUTSIDE" };
            ok &= worse <= *bound;
            println!(
                "{workload:<12} {name:<16} {x:>12.4} {y:>12.4} {unit:<4} worse by {:>5.1}% bound {:>3.0}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        // Counts made with one client and no timers must repeat exactly.
        for ((name, x, unit), (_, y, _)) in
            a_traced.of_kind("metric").zip(b_traced.of_kind("metric"))
        {
            let exact = matches!(unit, "count" | "bytes") && !name.starts_with("serve.");
            if exact && x != y {
                ok = false;
                println!("{workload:<12} {name} does not repeat: {x} then {y}");
            }
        }
    }
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// Regenerate the golden file: fingerprints of every request's results
/// under the default configuration at seed 42.
fn write_golden() {
    let seed = check::GOLDEN_SEED;
    let mut lines = Vec::new();
    for workload in ["share-batch", "opt-heavy", "no-share", "serve-mix"] {
        let reqs = requests::sql_round(workload, seed);
        let session = workloads::build_session(&reqs);
        let fingerprints: Vec<_> = workloads::run_all(&session, &reqs)
            .iter()
            .map(|r| check::fingerprint(r))
            .collect();
        lines.extend(check::golden_lines(
            workload,
            &workloads::golden_entries(&reqs, &fingerprints),
        ));
    }
    let ops = requests::maint_round(seed, workloads::customer_count());
    let base = workloads::build_views(&ops);
    let (_, results) = workloads::maint_round(&base, &cse_core::CseConfig::default(), &ops, None);
    lines.extend(check::golden_lines(
        "view-maint",
        &workloads::maint_golden_entries(&results),
    ));
    let path = bench_dir().join("golden/seed42.txt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write golden file");
    println!("{} entries written to {}", lines.len(), path.display());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.mode, args.workload.as_deref()) {
        (Mode::PrintContract, _) => {
            print!("{}", contract().render_pretty());
            true
        }
        (Mode::WriteGolden, _) => {
            write_golden();
            true
        }
        (Mode::SelfCheck, _) => self_check(&args),
        (Mode::Run, None | Some("all")) => run_all(&args),
        // The contract: a run that printed a result exits with 0; whether
        // the result is correct is in the result.
        (Mode::Run, Some(workload)) => {
            run_one(workload, &args);
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_contract_is_the_one_the_code_describes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            contract().render_pretty(),
            "regenerate with --print-contract"
        );
    }

    #[test]
    fn contract_stays_inside_its_limits() {
        assert!(END_TO_END
            .iter()
            .all(|(_, _, _, bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(name, unit, better, _)| {
            (*name, *unit, *better) == ("setup_s", "s", "lower")
        }));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(layers::PER_LAYER.iter().map(|m| m.0))
            .chain(workloads::WORKLOADS.iter().map(|w| w.0))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used once");
        assert!(layers::PER_LAYER.len() <= 128);
        assert!(workloads::WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(contract().render_pretty().len() <= 64 * 1024);
    }
}
