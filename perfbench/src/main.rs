//! Serving benchmark for the gpa analysis service.
//!
//! ```text
//! gpa-perfbench --workload zoo_mix --seed 1 --seconds 25 --trace 0 \
//!     --serve-bin <path to gpa-serve> --work-dir <scratch directory>
//! ```
//!
//! `--trace 0` is the end-to-end run: a spawned `gpa-serve`, driven in a
//! closed loop over one kept-alive loopback connection. `--trace 1` is
//! the traced run: the per-layer ledger, timed in process around each
//! layer's public functions. Both print a human-readable ledger and, as
//! the last stdout line, one JSON object with the run's metrics. See
//! `README.md` beside this crate for the workloads and metrics.

mod layers;
mod serve;
mod workloads;

use gpa_hw::Machine;
use gpa_service::{AnalysisReport, Analyzer};
use gpa_ubench::MeasureOpts;
use serve::{request_bytes, Connection, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Case, Workload};

/// Server start-ups per run; `setup_s` is their median. Half of them
/// run before the timed window and half after it: the host's speed
/// drifts in spells of seconds, and one spell should not set the median.
const SETUP_REPS: usize = 8;

/// Length of the slices the timed window is screened in for host steal.
const SLICE: Duration = Duration::from_secs(1);

/// Highest share of CPU time the hypervisor may steal in a slice that
/// the metrics use (see [`clean_slices`]).
const CLEAN_STEAL_PCT: f64 = 2.0;

/// Highest latency percentile reported: every workload leaves at least
/// ten samples beyond it in a run.
const TAIL_PERCENTILE: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        serve_bin: get("--serve-bin")?.into(),
        work_dir: get("--work-dir")?.into(),
    };
    Ok(args)
}

/// One reported number. `value: None` marks a layer the workload does
/// not exercise; it prints as absent, never as zero.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    /// Samples behind the value.
    samples: usize,
    /// Whether the metric goes into the JSON result line (the set
    /// `BENCHMARK.json` declares for this mode).
    json: bool,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value: Some(value),
            unit,
            samples,
            json: true,
            note: String::new(),
        }
    }

    fn absent(name: &'static str, unit: &'static str) -> Metric {
        Metric {
            value: None,
            samples: 0,
            ..Metric::new(name, 0.0, unit, 0)
        }
    }

    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    fn ledger_only(mut self) -> Metric {
        self.json = false;
        self
    }
}

/// The outcome of one run: the request tally and its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra ledger lines.
    notes: Vec<String>,
}

/// A per-run scratch directory inside the work dir, removed on drop.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile of unsorted samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reference answers, computed in process against the curves the server
/// calibrated into `cache_dir`, so both sides use bit-identical curves.
struct References {
    analyzer: Analyzer,
    /// `Analyzer::analyze(..).to_json()` per case.
    json: Vec<String>,
    reports: Vec<AnalysisReport>,
}

fn references(cases: &[Case], cache_dir: &Path) -> Result<References, String> {
    let machine = Machine::gtx285();
    let curves = gpa_ubench::cache::load_or_measure(cache_dir, &machine, MeasureOpts::quick());
    let mut analyzer = Analyzer::new();
    analyzer
        .install(machine, curves)
        .map_err(|e| format!("installing the server's curves: {e}"))?;
    let mut json = Vec::new();
    let mut reports = Vec::new();
    for case in cases {
        let report = analyzer
            .analyze(&case.request)
            .map_err(|e| format!("{}: {e}", case.label))?;
        let text = report.to_json();
        if let Some(twin) = &case.named_twin {
            let named = analyzer
                .analyze(twin)
                .map_err(|e| format!("{} named twin: {e}", case.label))?;
            if named.to_json() != text {
                return Err(format!(
                    "{}: custom twin differs from its named report",
                    case.label
                ));
            }
        }
        json.push(text);
        reports.push(report);
    }
    Ok(References {
        analyzer,
        json,
        reports,
    })
}

/// A started server that is ready for the workload: listening, answering
/// on a kept-alive connection, and, with a report cache, holding every
/// distinct answer.
struct Ready {
    server: Server,
    conn: Connection,
    cache_dir: PathBuf,
    /// The set-up pass's answers (empty without a report cache).
    fill: Vec<Vec<u8>>,
    seconds: f64,
}

/// The complete `POST /v1/analyze` bytes of each case.
fn analyze_requests(cases: &[Case]) -> Vec<Vec<u8>> {
    cases
        .iter()
        .map(|c| request_bytes("POST", "/v1/analyze", &c.body))
        .collect()
}

impl Ready {
    /// Cache-filling answers that differ from their references.
    fn fill_failures(&self, refs: &[String]) -> u64 {
        let wrong = self
            .fill
            .iter()
            .zip(refs)
            .filter(|(a, r)| a[..] != *r.as_bytes());
        wrong.count() as u64
    }
}

fn set_up(args: &Args, dir: &Path, raw: &[Vec<u8>]) -> Result<Ready, String> {
    let start = Instant::now();
    let server = Server::spawn(&args.serve_bin, dir, args.workload.report_cache())
        .map_err(|e| e.to_string())?;
    let mut conn = Connection::new(&server.addr);
    conn.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
    let mut fill = Vec::new();
    if args.workload.report_cache() {
        for request in raw {
            let (answer, _) = conn
                .roundtrip(request)
                .map_err(|e| format!("cache fill: {e}"))?;
            fill.push(answer.body);
        }
    }
    Ok(Ready {
        server,
        conn,
        cache_dir: dir.to_owned(),
        fill,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The end-to-end run.
fn end_to_end(args: &Args, run_dir: &Path, cases: &[Case]) -> Result<Outcome, String> {
    let raw = analyze_requests(cases);
    let mut setup_times = Vec::new();
    let mut ready = None;
    // Each start-up gets an empty cache directory, so every one pays the
    // cold calibration; only the last one before the window is kept.
    for i in 0..SETUP_REPS / 2 {
        drop(ready.take());
        let r = set_up(args, &run_dir.join(format!("setup-{i}")), &raw)?;
        setup_times.push(r.seconds);
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let refs = references(cases, &ready.cache_dir)?;
    let mut attempted = ready.fill.len() as u64;
    let mut failed = ready.fill_failures(&refs.json);
    let Ready {
        server, mut conn, ..
    } = ready;

    let order = workloads::cycle_order(cases.len(), args.seed);
    let send = |idx: usize, conn: &mut Connection| -> Option<Duration> {
        match conn.roundtrip(&raw[idx]) {
            Ok((a, dt)) if a.status == 200 && a.body == refs.json[idx].as_bytes() => Some(dt),
            _ => None,
        }
    };
    // One untimed pass lets lazy state in the server and the client settle.
    for &idx in &order {
        attempted += 1;
        failed += u64::from(send(idx, &mut conn).is_none());
    }

    conn.ensure_open().map_err(|e| format!("connect: {e}"))?;
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut slices = Vec::new();
    let mut slice = Slice::default();
    let mut slice_start = start;
    let mut slice_steal = host_steal();
    let mut timed_failed = 0u64;
    let mut i = 0;
    while start.elapsed() < window {
        let idx = order[i % order.len()];
        i += 1;
        match send(idx, &mut conn) {
            Some(dt) => slice.latencies.push(ms(dt)),
            None => timed_failed += 1,
        }
        // Reopening after the server ends a keep-alive connection counts
        // in the window but in no request's latency.
        let _ = conn.ensure_open();
        let now = Instant::now();
        if now - slice_start >= SLICE || now - start >= window {
            let steal = host_steal();
            slice.seconds = (now - slice_start).as_secs_f64();
            slice.steal = steal_share(slice_steal, steal);
            slices.push(std::mem::take(&mut slice));
            (slice_start, slice_steal) = (now, steal);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = server.peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;
    drop(server);
    for i in SETUP_REPS / 2..SETUP_REPS {
        let r = set_up(args, &run_dir.join(format!("setup-{i}")), &raw)?;
        setup_times.push(r.seconds);
    }
    attempted += i as u64;
    failed += timed_failed;
    let kept = clean_slices(&slices);
    let latencies: Vec<f64> = kept.iter().flat_map(|s| s.latencies.clone()).collect();
    let kept_seconds: f64 = kept.iter().map(|s| s.seconds).sum();
    if latencies.is_empty() {
        return Err("no request was answered in the timed window".into());
    }
    let answered: usize = slices.iter().map(|s| s.latencies.len()).sum();
    let window_steal: Vec<f64> = slices.iter().filter_map(|s| s.steal).collect();

    let n = latencies.len();
    let beyond_tail = ((n as f64) * (1.0 - TAIL_PERCENTILE / 100.0)).floor() as usize;
    let mape = refs
        .reports
        .iter()
        .map(|r| r.model_error().abs())
        .sum::<f64>()
        / refs.reports.len() as f64
        * 100.0;
    let sent = i as u64;
    let metrics = vec![
        Metric::new("throughput_rps", n as f64 / kept_seconds, "1/s", n).note(format!(
            "{n} answered in the kept {kept_seconds:.3} s; all {answered} in {elapsed:.3} s = \
             {:.4}/s",
            answered as f64 / elapsed
        )),
        Metric::new("latency_p50_ms", median(&latencies), "ms", n),
        Metric::new(
            "latency_p90_ms",
            percentile(&latencies, TAIL_PERCENTILE),
            "ms",
            n,
        )
        .note(if beyond_tail >= 10 {
            format!("{beyond_tail} samples beyond")
        } else {
            format!("only {beyond_tail} samples beyond: unsupported at this run length")
        }),
        Metric::new("setup_s", median(&setup_times), "s", setup_times.len()).note(format!(
            "median of {} cold starts: {}",
            setup_times.len(),
            setup_times
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        )),
        Metric::new("peak_rss_mb", rss, "MB", 1).note("VmHWM of the measured server"),
        Metric::new("model_mape_pct", mape, "%", cases.len())
            .note("mean |predicted - simulated| / simulated over the distinct requests"),
        Metric::new(
            "failed_pct",
            timed_failed as f64 / sent as f64 * 100.0,
            "%",
            sent as usize,
        )
        .ledger_only()
        .note(format!(
            "{timed_failed} of {sent} timed requests; {failed} of {attempted} in the whole run; \
             {} connections",
            conn.connects
        )),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "kept {} of {} one-second slices (host steal <= {CLEAN_STEAL_PCT}%, or the least-stolen \
             half); steal per slice: median {}, max {}",
            kept.len(),
            slices.len(),
            pct(&window_steal, 50.0),
            pct(&window_steal, 100.0),
        )],
    })
}

fn pct(values: &[f64], p: f64) -> String {
    if values.is_empty() {
        return "unknown".into();
    }
    format!("{:.1}%", percentile(values, p))
}

/// One slice of the timed window: the roundtrips that completed in it,
/// its length, and how much CPU time the hypervisor gave to other
/// tenants meanwhile.
#[derive(Default)]
struct Slice {
    latencies: Vec<f64>,
    seconds: f64,
    steal: Option<f64>,
}

/// The slices the metrics are computed from. Steal is contention the
/// program did not cause, so slices where the host stole more than
/// [`CLEAN_STEAL_PCT`] are left out, as long as at least half of the
/// window remains; otherwise the least-stolen half is kept.
fn clean_slices(slices: &[Slice]) -> Vec<&Slice> {
    let steal = |s: &Slice| s.steal.unwrap_or(0.0);
    let clean: Vec<&Slice> = slices
        .iter()
        .filter(|s| steal(s) <= CLEAN_STEAL_PCT)
        .collect();
    if 2 * clean.len() >= slices.len() {
        return clean;
    }
    let mut by_steal: Vec<&Slice> = slices.iter().collect();
    by_steal.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    by_steal.truncate(slices.len().div_ceil(2));
    by_steal
}

/// `(steal, total)` CPU jiffies of the host so far, from `/proc/stat`.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Percentage of CPU time the hypervisor gave to other tenants between
/// two [`host_steal`] readings: contention the program did not cause.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
}

fn print_outcome(args: &Args, cases: usize, outcome: &Outcome) {
    println!(
        "{} run · workload {} · seed {} · {} distinct requests · {:.0} s",
        if args.trace { "traced" } else { "end-to-end" },
        args.workload.name(),
        args.seed,
        cases,
        args.seconds
    );
    for m in &outcome.metrics {
        let value = match m.value {
            Some(v) => format!("{v:>12.4} {:<5}", m.unit),
            None => format!("{:>12} {:<5}", "absent", ""),
        };
        println!("  {:<30} {value} n={:<6} {}", m.name, m.samples, m.note);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.expect("JSON metrics are always measured"),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gpa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = RunDir(args.work_dir.join(format!("run-{}", std::process::id())));
    let cases = workloads::cases(args.workload, args.seed);
    let outcome = if args.trace {
        layers::traced(&args, &run_dir.0, &cases)
    } else {
        end_to_end(&args, &run_dir.0, &cases)
    };
    match outcome {
        Ok(outcome) => {
            print_outcome(&args, cases.len(), &outcome);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gpa-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
