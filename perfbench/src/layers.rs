//! The traced run: the per-layer ledger.
//!
//! A short served window against a spawned `gpa-serve` gives the
//! numbers only the server has (the keep-alive floor and the report
//! cache's hit ratio at `/v1/metrics`). Everything else is timed in
//! process, around calls into each layer's public functions, in rounds
//! over the workload's distinct requests until the run's time is spent.
//! Where the program already records a phase through
//! `gpa_telemetry::trace`, a `RequestTrace` is installed around the call
//! and the phase read back.

use crate::serve::{prometheus_value, request_bytes, Connection};
use crate::workloads::{self, Case};
use crate::{analyze_requests, median, ms, references, set_up, Args, Metric, Outcome, Ready};
use gpa_apps::workflow::run_study;
use gpa_core::{extract, Model};
use gpa_hw::Machine;
use gpa_service::{AnalysisReport, AnalysisRequest, Analyzer, KernelSpec, ReportCacheConfig};
use gpa_sim::stats::GRAN_GT200;
use gpa_telemetry::{phase, trace, RequestTrace};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Keep-alive `GET /healthz` roundtrips behind `server.keepalive_floor_us`.
const FLOOR_SAMPLES: usize = 200;

/// Share of the run spent on the served window.
const SERVED_SHARE: f64 = 0.2;

/// At least this many in-process rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// The exact simulated work of one request: counts that any change
/// which only makes the program faster must leave as they are.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Work {
    warp_instrs: u64,
    timing_cycles: f64,
    gmem_transactions: u64,
    smem_half_txns: u64,
    atomic_half_txns: u64,
}

/// Samples per layer metric, for one distinct request.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed())
}

/// The served part: set-up, the keep-alive floor, and a closed-loop
/// window whose report-cache counters are read from `/v1/metrics`.
struct Served {
    attempted: u64,
    failed: u64,
    floor_us: Vec<f64>,
    /// `(hits, lookups)` over the window, `None` without a report cache.
    cache: Option<(f64, f64)>,
}

fn served(args: &Args, ready: Ready, raw: &[Vec<u8>], refs: &[String]) -> Result<Served, String> {
    let mut attempted = ready.fill.len() as u64;
    let mut failed = ready.fill_failures(refs);
    let mut conn = ready.conn;

    let healthz = request_bytes("GET", "/healthz", "");
    let mut floor_us = Vec::with_capacity(FLOOR_SAMPLES);
    while floor_us.len() < FLOOR_SAMPLES {
        conn.ensure_open().map_err(|e| format!("connect: {e}"))?;
        let (answer, dt) = conn
            .roundtrip(&healthz)
            .map_err(|e| format!("healthz: {e}"))?;
        if answer.status != 200 {
            return Err(format!("healthz answered {}", answer.status));
        }
        floor_us.push(us(dt));
    }

    let counters = |conn: &mut Connection| -> Result<Option<(f64, f64)>, String> {
        let text = conn
            .get("/v1/metrics")
            .map_err(|e| format!("metrics: {e}"))?;
        let hits = prometheus_value(&text, "gpa_report_cache_hits_total");
        let misses = prometheus_value(&text, "gpa_report_cache_misses_total");
        Ok(hits.zip(misses))
    };
    let before = counters(&mut conn)?;
    let order = workloads::cycle_order(raw.len(), args.seed);
    let window = Duration::from_secs_f64(args.seconds * SERVED_SHARE);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window || i < order.len() {
        let idx = order[i % order.len()];
        i += 1;
        attempted += 1;
        let ok = conn.ensure_open().is_ok()
            && matches!(conn.roundtrip(&raw[idx]),
                Ok((a, _)) if a.status == 200 && a.body == refs[idx].as_bytes());
        failed += u64::from(!ok);
    }
    let after = counters(&mut conn)?;
    let cache = match (before, after) {
        (Some((h0, m0)), Some((h1, m1))) => Some((h1 - h0, (h1 - h0) + (m1 - m0))),
        _ => None,
    };
    Ok(Served {
        attempted,
        failed,
        floor_us,
        cache,
    })
}

/// What the in-process rounds call into.
struct Layers<'a> {
    machine: &'a Machine,
    curves: &'a ThroughputCurves,
    /// Calibrated like the server, without a report cache.
    analyzer: &'a Analyzer,
    /// The same, with a warm in-memory report cache.
    cached: &'a Analyzer,
}

impl Layers<'_> {
    /// Time every layer once for one distinct request; returns the
    /// request's exact simulated work.
    fn round(
        &self,
        case: &Case,
        raw: &[u8],
        reference: &str,
        samples: &mut Samples,
    ) -> Result<Work, String> {
        let Layers {
            machine,
            curves,
            analyzer,
            cached,
        } = *self;
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", case.label);

        let (parsed, dt) = timed(|| gpa_server::http::read_request(&mut &raw[..], raw.len()));
        parsed.map_err(|e| err(&e.message()))?;
        samples.push("server.http_parse_us", us(dt));

        let (decoded, dt) = timed(|| AnalysisRequest::from_json(&case.body));
        let request = decoded.map_err(|e| err(&e))?;
        samples.push("wire.request_decode_us", us(dt));

        if let KernelSpec::Custom(custom) = &request.kernel {
            let (kernel, dt) = timed(|| gpa_isa::asm::parse_kernel(&custom.asm));
            kernel.map_err(|e| err(&e))?;
            samples.push("isa.asm_parse_us", us(dt));
        }

        let (study, dt) = timed(|| request.kernel.build());
        let mut study = study.map_err(|e| err(&e))?;
        samples.push("apps.build_us", us(dt));

        // As the Analyzer runs it: a fresh model per request.
        let (run, dt) = timed(|| {
            let mut model = Model::with_curves(machine, curves);
            run_study(
                machine,
                &mut model,
                &mut study,
                request.options.threads,
                request.options.fuel,
            )
        });
        let run = run.map_err(|e| err(&e))?;
        samples.push("apps.run_study_ms", ms(dt));
        let total = run.input.stats.total();
        let work = Work {
            warp_instrs: total.instr_by_class.iter().sum(),
            timing_cycles: run.timing.cycles,
            gmem_transactions: total.gmem[GRAN_GT200].transactions,
            smem_half_txns: total.smem_half_txns,
            atomic_half_txns: total.atomic_half_txns,
        };

        let stats = run.input.stats.clone();
        let (input, dt) = timed(|| {
            extract(
                machine,
                run.input.kernel_name.clone(),
                run.input.launch,
                run.input.resources,
                stats,
            )
        });
        let input = input.map_err(|e| err(&e))?;
        samples.push("core.extract_us", us(dt));

        let mut model = Model::with_curves(machine, curves);
        let (_, dt) = timed(|| model.analyze(&input));
        samples.push("core.model_fresh_us", us(dt));
        let (_, dt) = timed(|| model.analyze(&input));
        samples.push("core.model_warm_us", us(dt));

        let (report, dt) = timed(|| analyzer.analyze(&request));
        report.map_err(|e| err(&e))?;
        samples.push("service.analyze_ms", ms(dt));

        let pool_before = gpa_sim::trace_pool::reuses();
        trace::install(RequestTrace::new());
        let (report, dt) = timed(|| analyzer.analyze(&request));
        let recorded = trace::take().expect("installed above");
        let report = report.map_err(|e| err(&e))?;
        samples.push(
            "sim.trace_pool_reuses",
            (gpa_sim::trace_pool::reuses() - pool_before) as f64,
        );
        samples.push("service.analyze_traced_ms", ms(dt));
        let phase_us = |name: &str| {
            recorded
                .phases()
                .iter()
                .find(|p| p.0 == name)
                .map(|p| p.1 as f64)
        };
        let func_ms =
            phase_us(phase::FUNCTIONAL_SIM).ok_or_else(|| err(&"no functional_sim phase"))? / 1e3;
        samples.push("sim.func_ms", func_ms);
        samples.push(
            "sim.func_ns_per_warp_instr",
            func_ms * 1e6 / work.warp_instrs as f64,
        );
        if let Some(t) = phase_us(phase::TIMING_REPLAY) {
            samples.push("sim.timing_ms", t / 1e3);
        }
        let covered: f64 = recorded.phases().iter().map(|p| p.1 as f64).sum();
        samples.push(
            "service.unattributed_pct",
            (1.0 - covered / us(dt)).max(0.0) * 100.0,
        );

        let (json, dt) = timed(|| report.to_json());
        samples.push("wire.report_encode_us", us(dt));
        if json != reference {
            return Err(err(&"in-process answer differs from the reference"));
        }
        let (decoded, dt) = timed(|| AnalysisReport::from_json(reference));
        decoded.map_err(|e| err(&e))?;
        samples.push("wire.report_decode_us", us(dt));

        trace::install(RequestTrace::new());
        let (hit, dt) = timed(|| cached.analyze(&request));
        let hit_trace = trace::take().expect("installed above");
        hit.map_err(|e| err(&e))?;
        if hit_trace.cache_hit() != Some(true) {
            return Err(err(&"warm report cache missed"));
        }
        samples.push("report_cache.hit_us", us(dt));
        Ok(work)
    }
}

/// The median of some body sizes, in KB.
fn size_kb(name: &'static str, sizes: impl Iterator<Item = usize>) -> Metric {
    let kb: Vec<f64> = sizes.map(|b| b as f64 / 1024.0).collect();
    Metric::new(name, median(&kb), "KB", kb.len()).note("median body")
}

/// FNV-1a over the reference answers, in canonical request order.
fn digest(refs: &[String]) -> u64 {
    let mut joined = Vec::new();
    for r in refs {
        joined.extend_from_slice(r.as_bytes());
        joined.push(0);
    }
    gpa_ubench::cache::fnv1a(&joined)
}

pub fn traced(args: &Args, run_dir: &Path, cases: &[Case]) -> Result<Outcome, String> {
    let start = Instant::now();
    let machine = Machine::gtx285();
    // The served window first: the server calibrates into a fresh cache
    // dir, and the in-process references load those same curves.
    let raw = analyze_requests(cases);
    let ready = set_up(args, &run_dir.join("served"), &raw)?;
    let refs = references(cases, &ready.cache_dir)?;
    let served = served(args, ready, &raw, &refs.json)?;

    let curves = refs
        .analyzer
        .curves("gtx285")
        .map_err(|e| e.to_string())?
        .clone();
    let mut cached = refs.analyzer.clone();
    cached.enable_report_cache(ReportCacheConfig {
        disk_dir: None,
        ..ReportCacheConfig::default()
    });
    for case in cases {
        cached.analyze(&case.request).map_err(|e| e.to_string())?;
    }

    let layers = Layers {
        machine: &machine,
        curves: &curves,
        analyzer: &refs.analyzer,
        cached: &cached,
    };
    let mut samples: Vec<Samples> = cases.iter().map(|_| Samples::default()).collect();
    let mut work: Vec<Option<Work>> = vec![None; cases.len()];
    let mut calibrate_ms = Vec::new();
    let mut work_mismatches = 0u64;
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < deadline {
        rounds += 1;
        for (i, case) in cases.iter().enumerate() {
            let w = layers.round(case, &raw[i], &refs.json[i], &mut samples[i])?;
            match work[i] {
                None => work[i] = Some(w),
                Some(first) => work_mismatches += u64::from(first != w),
            }
        }
        let (calibrated, dt) =
            timed(|| ThroughputCurves::measure_with(&machine, MeasureOpts::quick()));
        if calibrated != curves {
            return Err("a cold calibration measured different curves".into());
        }
        calibrate_ms.push(ms(dt));
    }

    // Per metric: the median over rounds for each request, then the
    // median over the requests that exercise the layer.
    let per_request = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .filter_map(|s| s.0.get(name).map(|v| median(v)))
            .collect()
    };
    let layer = |name: &'static str, unit: &'static str| -> Metric {
        let values = per_request(name);
        let n = samples
            .iter()
            .filter_map(|s| s.0.get(name))
            .map(Vec::len)
            .sum();
        if values.is_empty() {
            return Metric::absent(name, unit).note("no request of this workload runs the layer");
        }
        Metric::new(name, median(&values), unit, n)
            .note(format!("median over {} requests", values.len()))
    };
    let work: Vec<Work> = work
        .into_iter()
        .map(|w| w.expect("at least one round"))
        .collect();
    let total = |f: fn(&Work) -> f64| work.iter().map(f).sum::<f64>();
    let count = |name: &'static str, unit: &'static str, value: f64| {
        Metric::new(name, value, unit, cases.len()).note("exact, summed over the distinct requests")
    };

    let metrics = vec![
        layer("server.http_parse_us", "us"),
        Metric::new(
            "server.keepalive_floor_us",
            median(&served.floor_us),
            "us",
            served.floor_us.len(),
        )
        .note("GET /healthz on the kept-alive connection"),
        layer("wire.request_decode_us", "us"),
        layer("wire.report_encode_us", "us"),
        layer("wire.report_decode_us", "us"),
        size_kb("wire.request_kb", cases.iter().map(|c| c.body.len())),
        size_kb("wire.report_kb", refs.json.iter().map(String::len)),
        layer("report_cache.hit_us", "us"),
        match served.cache {
            Some((hits, lookups)) if lookups > 0.0 => Metric::new(
                "report_cache.hit_ratio",
                hits / lookups,
                "ratio",
                lookups as usize,
            )
            .note(format!(
                "{hits} hits / {lookups} lookups in the served window"
            )),
            _ => Metric::absent("report_cache.hit_ratio", "ratio")
                .note("no report-cache lookups in the served window"),
        }
        .ledger_only(),
        layer("isa.asm_parse_us", "us").ledger_only(),
        layer("apps.build_us", "us"),
        layer("apps.run_study_ms", "ms"),
        layer("sim.func_ms", "ms"),
        layer("sim.timing_ms", "ms"),
        count("sim.warp_instrs", "count", total(|w| w.warp_instrs as f64)),
        count("sim.timing_cycles", "cycles", total(|w| w.timing_cycles)),
        layer("sim.func_ns_per_warp_instr", "ns"),
        layer("sim.trace_pool_reuses", "count"),
        count(
            "mem.gmem_transactions",
            "count",
            total(|w| w.gmem_transactions as f64),
        ),
        count(
            "mem.smem_half_txns",
            "count",
            total(|w| w.smem_half_txns as f64),
        ),
        count(
            "mem.atomic_half_txns",
            "count",
            total(|w| w.atomic_half_txns as f64),
        ),
        layer("core.extract_us", "us"),
        layer("core.model_fresh_us", "us"),
        layer("core.model_warm_us", "us"),
        Metric::new(
            "ubench.calibrate_ms",
            median(&calibrate_ms),
            "ms",
            calibrate_ms.len(),
        )
        .note("cold quick calibration of gtx285"),
        layer("service.analyze_ms", "ms"),
        layer("service.analyze_traced_ms", "ms"),
        layer("service.unattributed_pct", "%"),
        Metric::new(
            "service.trace_overhead_pct",
            (median(&per_request("service.analyze_traced_ms"))
                / median(&per_request("service.analyze_ms"))
                - 1.0)
                * 100.0,
            "%",
            cases.len(),
        )
        .ledger_only()
        .note("analyze with a RequestTrace installed vs without"),
    ];

    // The report cache must answer every repeat_hits request and must
    // not be consulted at all on the miss workloads.
    let cache_ok = match (args.workload.report_cache(), served.cache) {
        (true, Some((hits, lookups))) => lookups > 0.0 && hits == lookups,
        (false, None) => true,
        _ => false,
    };
    Ok(Outcome {
        attempted: served.attempted,
        failed: served.failed + work_mismatches + u64::from(!cache_ok),
        metrics,
        notes: vec![format!(
            "answers fnv1a {:016x} over the {} reference answers",
            digest(&refs.json),
            cases.len()
        )],
    })
}
