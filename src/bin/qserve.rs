//! `qserve` — drive the concurrent batch server from the command line,
//! preloaded with a TPC-H instance.
//!
//! ```text
//! cargo run --release --bin qserve -- [--sf 0.01] [--workers N] [--queue N]
//!     [--block] [--deadline-ms N] [--retries N]
//!     [--mem-budget BYTES[k|m|g]] [--arrival-rps N] [--data-dir DIR]
//!     [--fail <site>:<prob>[:<seed>]] [file.sql ...]
//! ```
//!
//! Each input file (or stdin when no files are given) is split into
//! *requests* on blank lines; each request is a batch of `;`-separated
//! statements that is optimized **together**, so similar subexpressions
//! across its statements are detected and shared. All requests are
//! submitted up front and served concurrently by the worker pool.
//!
//! Per-request outcomes go to stdout, one line each:
//!
//! ```text
//! req 3: done 2 stmt(s) [14 rows] rung=full-cse retries=0 in 11.2ms
//! req 7: rejected [EXEC_FAULT] retries exhausted (2): injected fault ...
//! ```
//!
//! The final server counters (completed/shed/retries/breaker) go to
//! stderr, keeping stdout machine-consumable.
//!
//! A transient failure (an injected fault, a refused memory reservation, an
//! expired `--deadline-ms`) is retried as a whole new attempt, up to
//! `--retries` times; a request that exhausts them is rejected with its
//! reason code.
//!
//! With `--data-dir DIR` the catalog is durable: mutations are journaled
//! to a checksummed WAL under DIR (group commit), snapshots bound replay,
//! and a restart recovers the catalog from disk — refusing to serve if
//! the recovered state fails verification. SIGINT triggers a clean drain
//! (in-flight requests finish, the WAL is flushed) before the final
//! stats are printed.

use similar_subexpr::durable::snapshot::catalog_as_mutations;
use similar_subexpr::prelude::*;
use similar_subexpr::storage::CatalogMutation;
use std::io::Read as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Set by the SIGINT handler; the submit loop polls it and falls through
/// to the drain path, so ^C produces a flushed WAL and final stats
/// instead of a mid-write kill.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

fn install_sigint_handler() {
    // Minimal libc-free signal(2) binding; SIGINT is 2 on every platform
    // this builds on. The handler only flips an atomic flag, which is
    // async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Which table (lower-cased) a mutation creates or depends on, for
/// idempotent seeding: a mutation targeting a table that already survived
/// recovery must not be re-applied.
fn mutation_target(m: &CatalogMutation) -> Option<String> {
    match m {
        CatalogMutation::RegisterTable { table } | CatalogMutation::ReplaceTable { table } => {
            Some(table.name().to_ascii_lowercase())
        }
        CatalogMutation::CreateBtreeIndex { table: name, .. }
        | CatalogMutation::CreateHashIndex { table: name, .. }
        | CatalogMutation::RegisterView { name, .. } => Some(name.to_ascii_lowercase()),
        CatalogMutation::ApplyDelta { .. } => None,
    }
}

/// Print `problem` and the usage on stderr, and exit with status 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}; usage: qserve [--sf N] [--workers N] [--queue N] [--block] \
         [--deadline-ms N] [--retries N] [--mem-budget BYTES[k|m|g]] \
         [--arrival-rps N] [--data-dir DIR] [--fail site:prob[:seed]] [file.sql ...]"
    );
    std::process::exit(2);
}

fn main() {
    let mut sf = 0.01f64;
    let mut workers = 4usize;
    let mut queue = 64usize;
    let mut admit = AdmitPolicy::Shed;
    let mut deadline_ms: Option<u64> = None;
    let mut retries = 2u32;
    let mut mem_budget: Option<usize> = None;
    let mut arrival_rps: Option<f64> = None;
    let mut data_dir: Option<String> = None;
    let mut fail_specs: Vec<FailSpec> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sf" => {
                sf = args
                    .next()
                    .as_deref()
                    .and_then(similar_subexpr::tpch::parse_scale)
                    .unwrap_or_else(|| usage("--sf expects a finite scale factor above 0"));
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers expects an integer");
            }
            "--queue" => {
                queue = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queue expects an integer");
            }
            // Block submitters on a full queue instead of shedding.
            "--block" => admit = AdmitPolicy::Block,
            // Per-attempt deadline.
            "--deadline-ms" => {
                deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--deadline-ms expects an integer"),
                );
            }
            "--retries" => {
                retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--retries expects an integer");
            }
            // Global memory budget (bytes, k/m/g suffixes); enables the
            // memory governor: reservations, baseline planning under
            // pressure, SHED_MEMORY.
            "--mem-budget" => {
                let v = args.next().expect("--mem-budget expects bytes[k|m|g]");
                mem_budget = Some(parse_bytes(&v).unwrap_or_else(|| {
                    eprintln!("--mem-budget: cannot parse {v:?} (expect e.g. 64m, 512k, 8388608)");
                    std::process::exit(2);
                }));
            }
            // Open-loop submission: Poisson arrivals at this rate instead
            // of submitting every request up front.
            "--arrival-rps" => {
                arrival_rps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &f64| *r > 0.0)
                        .expect("--arrival-rps expects a positive number"),
                );
            }
            // Durable catalog rooted at this directory: WAL + snapshots,
            // recovered (and verified) on startup.
            "--data-dir" => {
                data_dir = Some(args.next().expect("--data-dir expects a directory"));
            }
            // Failpoint grammar: comma-separated site:prob[:seed] specs,
            // unknown sites rejected.
            "--fail" => {
                let spec = args.next().expect("--fail expects site:prob[:seed]");
                match similar_subexpr::govern::parse_fail_specs(&spec) {
                    Ok(s) => fail_specs.extend(s),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            file => files.push(file.to_string()),
        }
    }

    let requests = read_requests(&files);
    if requests.is_empty() {
        eprintln!("no requests (empty input)");
        return;
    }

    install_sigint_handler();

    eprintln!("loading TPC-H at SF={sf} ...");
    let generated = generate_catalog(&TpchConfig::new(sf));
    let mut cse = CseConfig::default();
    for s in fail_specs {
        cse.failpoints.arm(s);
    }

    // With --data-dir, recover the durable catalog from disk and seed any
    // TPC-H tables it does not hold yet through the journal; without it,
    // the generated catalog is served from memory as before.
    let mut durable: Option<Arc<Mutex<DurableCatalog<FileStore>>>> = None;
    let catalog: Arc<Catalog> = match &data_dir {
        None => Arc::new(generated),
        Some(dir) => {
            let store = match FileStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("--data-dir {dir}: {e}");
                    std::process::exit(1);
                }
            };
            let had_state = store.has_state();
            let opened =
                DurableCatalog::open(store, DurableOptions::default(), cse.failpoints.clone());
            let (mut dc, info) = match opened {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("recovery of {dir} failed: {e}");
                    std::process::exit(1);
                }
            };
            if had_state {
                eprintln!(
                    "-- recovered {dir}: snapshot lsn {}, replayed {}, skipped {}, tail {}, \
                     verify {}",
                    info.snapshot_lsn,
                    info.replayed,
                    info.skipped,
                    info.tail.code(),
                    if info.verify.is_clean() {
                        "clean".to_string()
                    } else {
                        info.verify.render()
                    }
                );
            }
            let existing: Vec<String> = dc
                .catalog()
                .table_names()
                .map(|n| n.to_ascii_lowercase())
                .collect();
            let mut seeded = 0usize;
            for m in catalog_as_mutations(&generated) {
                if mutation_target(&m).is_some_and(|t| existing.contains(&t)) {
                    continue;
                }
                if let Err(e) = dc.apply(&m) {
                    eprintln!("seeding {dir} failed: {e}");
                    std::process::exit(1);
                }
                seeded += 1;
            }
            // Group commit batches the fsyncs during seeding; one final
            // barrier makes the whole seed durable.
            if let Err(e) = dc.flush() {
                eprintln!("seeding {dir} failed: {e}");
                std::process::exit(1);
            }
            if seeded > 0 {
                eprintln!("-- seeded {seeded} catalog mutation(s) into {dir}");
            }
            let served = Arc::new(dc.catalog().clone());
            durable = Some(Arc::new(Mutex::new(dc)));
            served
        }
    };
    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        admit,
        deadline: deadline_ms.map(Duration::from_millis),
        max_retries: retries,
        mem_budget,
        cse,
        ..ServerConfig::default()
    };
    let mut server = Server::new(catalog, config);
    if let Some(dc) = durable.clone() {
        // Flush the journal once the workers have quiesced: everything
        // the server acknowledged is on disk before the process exits.
        server.set_drain_hook(Box::new(move || {
            let mut guard = dc.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = guard.flush() {
                eprintln!("-- drain: WAL flush failed: {e}");
            }
        }));
    }
    eprintln!(
        "serving {} request(s) on {workers} worker(s), queue={queue}{}{} ...",
        requests.len(),
        match mem_budget {
            Some(b) => format!(", mem-budget={b}B"),
            None => String::new(),
        },
        match arrival_rps {
            Some(r) => format!(", arrivals={r}/s"),
            None => String::new(),
        }
    );

    // Deterministic Poisson pacing for --arrival-rps (exponential
    // inter-arrival times off the testkit PRNG, seed fixed).
    let mut rng = similar_subexpr::storage::testkit::TestRng::new(42);
    let started = std::time::Instant::now();
    let mut next_at = Duration::ZERO;
    let mut tickets = Vec::new();
    for sql in &requests {
        if INTERRUPTED.load(Ordering::SeqCst) {
            eprintln!("-- interrupted: stopping submissions, draining ...");
            break;
        }
        if let Some(rate) = arrival_rps {
            let u = rng.range_f64(0.0, 1.0).min(0.999_999);
            next_at += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
            let now = started.elapsed();
            if next_at > now {
                std::thread::sleep(next_at - now);
            }
        }
        match server.submit(sql) {
            Ok(t) => tickets.push(Ok(t)),
            Err(r) => tickets.push(Err(r)),
        }
    }
    let mut failed = 0usize;
    for t in tickets {
        let outcome = match t {
            Ok(ticket) => ticket.wait(),
            Err(r) => Outcome::Rejected(r),
        };
        match outcome {
            Outcome::Done(reply) => {
                let rows: usize = reply.results.iter().map(|r| r.rows.len()).sum();
                println!(
                    "req {}: done {} stmt(s) [{} rows] rung={} retries={} in {:.1?}",
                    reply.id,
                    reply.results.len(),
                    rows,
                    reply.rung.as_str(),
                    reply.retries,
                    reply.latency
                );
                for ev in &reply.events {
                    eprintln!("-- req {} degraded: {ev}", reply.id);
                }
            }
            Outcome::Rejected(r) => {
                failed += 1;
                println!(
                    "req {}: rejected [{}] {} (retries={})",
                    r.id,
                    r.reason.code(),
                    r.detail,
                    r.retries
                );
            }
        }
    }
    let governor = server.memory_governor().cloned();
    let stats = server.drain();
    if let Some(dc) = &durable {
        let guard = dc.lock().unwrap_or_else(|p| p.into_inner());
        eprintln!(
            "-- durable: last lsn {}, snapshot lsn {}, unsynced {}",
            guard.last_lsn(),
            guard.snapshot_lsn(),
            guard.unsynced()
        );
    }
    // Report the pool after drain, once every worker has released its
    // grants — a nonzero figure here is a leak, not an in-flight request.
    if let Some(gov) = governor {
        eprintln!(
            "-- memory pool: budget {}B, reserved {}B, pressure {}",
            gov.budget(),
            gov.reserved(),
            gov.pressure()
        );
    }
    eprintln!(
        "-- served {}/{} (degraded {}), rejected {} (shed {}, shed-memory {}), retries {}, \
         breaker: {} (trips {}, probes {}, baseline-served {})",
        stats.completed,
        stats.submitted,
        stats.degraded,
        stats.rejected,
        stats.shed,
        stats.shed_memory,
        stats.retries,
        stats.breaker.state.as_str(),
        stats.breaker.trips,
        stats.breaker.probes,
        stats.breaker.baseline_served
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Parse a byte count with an optional k/m/g suffix (binary multiples).
fn parse_bytes(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => match t.as_bytes()[t.len() - 1] {
            b'k' => (d, 1usize << 10),
            b'm' => (d, 1 << 20),
            _ => (d, 1 << 30),
        },
        None => (t.as_str(), 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Split input into requests on blank lines; `--`-prefixed lines are
/// comments. No files means stdin.
fn read_requests(files: &[String]) -> Vec<String> {
    let mut texts = Vec::new();
    if files.is_empty() {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
        texts.push(buf);
    } else {
        for f in files {
            texts.push(std::fs::read_to_string(f).unwrap_or_else(|e| {
                eprintln!("cannot read {f}: {e}");
                std::process::exit(2);
            }));
        }
    }
    let mut requests = Vec::new();
    for text in texts {
        for block in text.split("\n\n") {
            let sql: String = block
                .lines()
                .filter(|l| !l.trim_start().starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n");
            if !sql.trim().is_empty() {
                requests.push(sql);
            }
        }
    }
    requests
}
