//! The shared case-study driver: the paper's Figure 1 workflow end to end.
//!
//! Two layers live here:
//!
//! * [`run_case`] — the raw pipeline for one kernel launch (functional
//!   simulation → info extraction → model analysis → timing measurement);
//! * [`CaseStudy`] + [`run_study`] — a *portable description* of one
//!   prepared case study (kernel, launch, device memory image, regions,
//!   canonical trace mode, verification oracle). The per-application
//!   `case()` constructors ([`crate::matmul::case`],
//!   [`crate::tridiag::case`], [`crate::spmv::case`]) build these, and
//!   both the in-crate `run`/`run_with_threads` drivers and the
//!   `gpa-service` `Analyzer` execute them through the same code path, so
//!   a service request and a direct driver call produce bit-identical
//!   results.

use gpa_core::{extract, Analysis, InputError, Model, ModelInput};
use gpa_hw::Machine;
use gpa_isa::Kernel;
use gpa_sim::{
    FunctionalSim, GlobalMemory, LaunchConfig, SimError, Threads, TimingResult, TimingSim,
    TraceSource,
};
use std::fmt;
use std::sync::Arc;

/// How timing traces are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// All blocks behave identically (same instruction stream, conflict
    /// degrees, and transaction shapes): trace block 0 once and simulate
    /// only the most-loaded cluster. Exact for homogeneous grids and far
    /// cheaper.
    Homogeneous,
    /// Trace every block (data-dependent kernels, texture-cached gathers).
    PerBlock,
    /// Detect per-block divergence instead of assuming either answer:
    /// trace every block once, and when all traces are pairwise
    /// shape-equal ([`gpa_sim::BlockTrace::shape_eq`]) time the grid
    /// from block 0's trace exactly as [`TraceMode::Homogeneous`] would;
    /// otherwise fall back to [`TraceMode::PerBlock`]. Texture-cached
    /// kernels always take the per-block path (replay consults real
    /// addresses, which shape equality deliberately ignores). This is
    /// the safe default for kernels whose behavior is not known ahead
    /// of time — wire-submitted custom kernels use it.
    Auto,
}

/// Options for [`run_case`]: how traces are obtained, how many worker
/// threads the simulation engine shards blocks across, and the optional
/// fuel budget.
///
/// `From<TraceMode>` keeps the common call sites terse:
/// `run_case(…, TraceMode::Homogeneous)` runs with the default options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseOpts {
    /// Trace acquisition strategy.
    pub mode: TraceMode,
    /// Worker threads for block execution. Results are bit-identical for
    /// every selection (see [`gpa_sim::engine::SimEngine`]), so the
    /// default is [`Threads::Auto`].
    pub threads: Threads,
    /// Warp-instruction fuel budget (runaway-loop guard); `None` keeps
    /// the simulator's default. **Accounting granularity depends on
    /// threading**: a sequential run spends one budget across the whole
    /// grid, a sharded run one budget *per shard* — a grid that exhausts
    /// fuel sequentially may complete in parallel, never the reverse for
    /// per-block-affordable kernels (see [`gpa_sim::engine`]).
    pub fuel: Option<u64>,
}

impl CaseOpts {
    /// Options with an explicit thread selection (plain `usize` counts
    /// convert: `0` = auto, `n` = exactly `n` workers).
    pub fn new(mode: TraceMode, threads: impl Into<Threads>) -> CaseOpts {
        CaseOpts {
            mode,
            threads: threads.into(),
            fuel: None,
        }
    }

    /// The same options with an explicit fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> CaseOpts {
        self.fuel = Some(fuel);
        self
    }
}

impl Default for CaseOpts {
    fn default() -> Self {
        CaseOpts {
            mode: TraceMode::Homogeneous,
            threads: Threads::Auto,
            fuel: None,
        }
    }
}

impl From<TraceMode> for CaseOpts {
    fn from(mode: TraceMode) -> CaseOpts {
        CaseOpts {
            mode,
            ..CaseOpts::default()
        }
    }
}

/// Why a case run failed: the simulation itself, or assembling the
/// model's input from inconsistent pieces. The drivers used to panic on
/// the latter; the service API surfaces both as values.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseError {
    /// The functional simulation failed.
    Sim(SimError),
    /// The extracted statistics do not describe the launch.
    Input(InputError),
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::Sim(e) => write!(f, "simulation failed: {e}"),
            CaseError::Input(e) => write!(f, "info extraction failed: {e}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl From<SimError> for CaseError {
    fn from(e: SimError) -> CaseError {
        CaseError::Sim(e)
    }
}

impl From<InputError> for CaseError {
    fn from(e: InputError) -> CaseError {
        CaseError::Input(e)
    }
}

/// A named global region to attribute traffic to.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name (e.g. `"vector"`).
    pub name: String,
    /// Device base address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Route loads from this region through the texture cache.
    pub texture: bool,
}

impl Region {
    /// A plain (non-texture) region.
    pub fn new(name: impl Into<String>, base: u64, len: u64) -> Region {
        Region {
            name: name.into(),
            base,
            len,
            texture: false,
        }
    }

    /// A texture-cached region.
    pub fn texture(name: impl Into<String>, base: u64, len: u64) -> Region {
        Region {
            name: name.into(),
            base,
            len,
            texture: true,
        }
    }
}

/// Everything one workflow run produces: dynamic statistics and model
/// analysis ("simulated") plus the timing-simulator result ("measured").
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// The extracted model input (launch, occupancy, statistics).
    pub input: ModelInput,
    /// The model's analysis.
    pub analysis: Analysis,
    /// The timing simulator's end-to-end measurement.
    pub timing: TimingResult,
}

impl CaseRun {
    /// Measured wall time in seconds.
    pub fn measured_seconds(&self) -> f64 {
        self.timing.seconds
    }

    /// Model prediction in seconds.
    pub fn predicted_seconds(&self) -> f64 {
        self.analysis.predicted_seconds
    }

    /// Signed relative model error vs the measurement (the paper reports
    /// 5–15% magnitudes).
    pub fn model_error(&self) -> f64 {
        (self.predicted_seconds() - self.measured_seconds()) / self.measured_seconds()
    }

    /// GFLOP/s at the measured time for a workload of `flops` operations.
    pub fn measured_gflops(&self, flops: u64) -> f64 {
        flops as f64 / self.measured_seconds() / 1e9
    }
}

/// Verification oracle of a [`CaseStudy`]: inspects the post-run global
/// memory and reports the first mismatch against the CPU reference.
pub type Verifier = Box<dyn Fn(&GlobalMemory) -> Result<(), String> + Send + Sync>;

/// One prepared case study: everything [`run_study`] needs to execute the
/// full workflow, plus the CPU-reference oracle to check the result.
///
/// Built by [`crate::matmul::case`], [`crate::tridiag::case`], and
/// [`crate::spmv::case`]; consumed by the in-crate drivers and by
/// `gpa-service`'s `Analyzer` through the same code path.
pub struct CaseStudy {
    /// Human-readable label (e.g. `"matmul16x16 n=256"`).
    pub label: String,
    /// The kernel to launch.
    pub kernel: Kernel,
    /// Launch shape.
    pub launch: LaunchConfig,
    /// Kernel parameter words.
    pub params: Vec<u32>,
    /// The prepared device-memory image; mutated in place by the run.
    pub gmem: GlobalMemory,
    /// Named regions for traffic attribution (and texture binding).
    pub regions: Vec<Region>,
    /// The case's canonical trace mode (callers may override).
    pub mode: TraceMode,
    /// Floating-point operations of the workload (`0` = not meaningful).
    pub flops: u64,
    verify: Option<Verifier>,
}

impl fmt::Debug for CaseStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CaseStudy")
            .field("label", &self.label)
            .field("kernel", &self.kernel.name)
            .field("launch", &self.launch)
            .field("mode", &self.mode)
            .field("flops", &self.flops)
            .field("verified", &self.verify.is_some())
            .finish_non_exhaustive()
    }
}

impl CaseStudy {
    /// Construct a study; `verify` is the optional CPU-reference oracle.
    // One argument per field; the per-app `case()` constructors are the
    // only callers and already have every piece in hand.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        kernel: Kernel,
        launch: LaunchConfig,
        params: Vec<u32>,
        gmem: GlobalMemory,
        regions: Vec<Region>,
        mode: TraceMode,
        flops: u64,
        verify: Option<Verifier>,
    ) -> CaseStudy {
        CaseStudy {
            label: label.into(),
            kernel,
            launch,
            params,
            gmem,
            regions,
            mode,
            flops,
            verify,
        }
    }

    /// An ad-hoc study around an arbitrary kernel: no verification oracle
    /// and no declared flop count (`flops: 0`, so consumers fall back to
    /// the simulator's dynamic count). This is how wire-built kernels —
    /// `gpa-service`'s `KernelSpec::Custom` — enter the same
    /// [`run_study`] path as the case studies.
    pub fn adhoc(
        kernel: Kernel,
        launch: LaunchConfig,
        params: Vec<u32>,
        gmem: GlobalMemory,
        regions: Vec<Region>,
        mode: TraceMode,
    ) -> CaseStudy {
        CaseStudy {
            label: kernel.name.clone(),
            kernel,
            launch,
            params,
            gmem,
            regions,
            mode,
            flops: 0,
            verify: None,
        }
    }

    /// Whether this study carries a verification oracle.
    pub fn has_verifier(&self) -> bool {
        self.verify.is_some()
    }

    /// Check the current memory image against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch. Studies without an
    /// oracle trivially pass.
    pub fn check(&self) -> Result<(), String> {
        match &self.verify {
            Some(v) => v(&self.gmem),
            None => Ok(()),
        }
    }
}

/// Run the full workflow for one prepared [`CaseStudy`]: the study's
/// canonical trace mode with `threads`/`fuel` from `opts` (the study's
/// memory image is mutated in place, so [`CaseStudy::check`] can verify
/// afterwards).
///
/// # Errors
///
/// Propagates simulation and info-extraction errors.
pub fn run_study(
    machine: &Machine,
    model: &mut Model<'_>,
    study: &mut CaseStudy,
    threads: Threads,
    fuel: Option<u64>,
) -> Result<CaseRun, CaseError> {
    let opts = CaseOpts {
        mode: study.mode,
        threads,
        fuel,
    };
    run_case(
        machine,
        model,
        &study.kernel,
        study.launch,
        &study.params,
        &mut study.gmem,
        &study.regions,
        opts,
    )
}

/// Run the full workflow for one kernel launch.
///
/// The functional simulation runs every block (verifying memory safety and
/// producing `gmem` side effects callers can check against references);
/// trace acquisition, block-level parallelism, and the fuel budget follow
/// `opts` — pass a bare [`TraceMode`] for the defaults, or a [`CaseOpts`]
/// to pick them explicitly. Results are bit-identical for every thread
/// selection.
///
/// # Errors
///
/// Propagates functional-simulation errors and info-extraction errors.
// One argument per pipeline stage input; bundling them into a struct would
// just move the same list into a builder at every call site.
#[allow(clippy::too_many_arguments)]
pub fn run_case(
    machine: &Machine,
    model: &mut Model<'_>,
    kernel: &Kernel,
    launch: LaunchConfig,
    params: &[u32],
    gmem: &mut GlobalMemory,
    regions: &[Region],
    opts: impl Into<CaseOpts>,
) -> Result<CaseRun, CaseError> {
    let opts = opts.into();
    let configure = |sim: &mut FunctionalSim<'_>| {
        sim.set_params(params).set_threads(opts.threads);
        if let Some(fuel) = opts.fuel {
            sim.set_fuel(fuel);
        }
        for r in regions {
            if r.texture {
                sim.add_texture_region(r.name.clone(), r.base, r.len);
            } else {
                sim.add_region(r.name.clone(), r.base, r.len);
            }
        }
    };

    let mut timing = TimingSim::new(machine);
    let tex: Vec<(u64, u64)> = regions
        .iter()
        .filter(|r| r.texture)
        .map(|r| (r.base, r.len))
        .collect();
    if !tex.is_empty() {
        timing.set_texture_regions(tex);
    }

    let (timing_result, stats) = match opts.mode {
        TraceMode::Homogeneous => {
            // Trace block 0 from a pristine copy of memory, then run the
            // functional pass (all blocks, real side effects) separately.
            let mut trace_mem = gmem.clone();
            let mut tracer = FunctionalSim::new(machine, kernel, launch)?;
            configure(&mut tracer);
            tracer.collect_traces(true);
            let mut scratch = tracer.fresh_stats();
            let trace = tracer
                .run_block(&mut trace_mem, 0, &mut scratch)?
                .expect("trace collection enabled");
            timing.assume_uniform_clusters(true);
            let src = TraceSource::Homogeneous(Arc::new(trace));
            let t = timing.run(&src, &launch, kernel.resources);
            // The replay is done with the trace: recycle its buffers for
            // the next traced run (a no-op if anyone still holds it).
            gpa_sim::trace_pool::reclaim(src);

            let mut func = FunctionalSim::new(machine, kernel, launch)?;
            configure(&mut func);
            (t, func.run(gmem)?.stats)
        }
        TraceMode::PerBlock => {
            // One engine pass produces the statistics, the per-block
            // traces (batched per shard when sharded), and the gmem side
            // effects all at once.
            let mut func = FunctionalSim::new(machine, kernel, launch)?;
            configure(&mut func);
            func.collect_traces(true);
            let out = func.run(gmem)?;
            let traces = out.traces.expect("trace collection enabled");
            let src = TraceSource::from_blocks(traces);
            let t = timing.run(&src, &launch, kernel.resources);
            gpa_sim::trace_pool::reclaim(src);
            (t, out.stats)
        }
        TraceMode::Auto => {
            // One traced pass answers both questions at once: the
            // dynamic statistics, and whether the blocks actually
            // diverge.
            let mut func = FunctionalSim::new(machine, kernel, launch)?;
            configure(&mut func);
            func.collect_traces(true);
            let out = func.run(gmem)?;
            let mut traces = out.traces.expect("trace collection enabled");
            let uniform = !regions.iter().any(|r| r.texture)
                && traces.windows(2).all(|w| w[0].shape_eq(&w[1]));
            let src = if uniform {
                // Block 0 executes against pre-launch memory in every
                // engine configuration, so its trace here is exactly
                // the trace the Homogeneous arm collects — this branch
                // reproduces TraceMode::Homogeneous bit for bit.
                timing.assume_uniform_clusters(true);
                for extra in traces.split_off(1) {
                    gpa_sim::trace_pool::give_block(extra);
                }
                TraceSource::Homogeneous(Arc::new(
                    traces.pop().expect("a launch has at least one block"),
                ))
            } else {
                TraceSource::from_blocks(traces)
            };
            let t = timing.run(&src, &launch, kernel.resources);
            gpa_sim::trace_pool::reclaim(src);
            (t, out.stats)
        }
    };

    let input = extract(machine, &kernel.name, launch, kernel.resources, stats)?;
    let analysis = model.analyze(&input);

    Ok(CaseRun {
        input,
        analysis,
        timing: timing_result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_ubench::ThroughputCurves;

    /// Synthetic curves: the runs below never consult real measurements.
    fn model(machine: &Machine) -> Model<'_> {
        Model::new(
            machine,
            ThroughputCurves {
                machine_name: machine.name.clone(),
                warps: vec![1, 32],
                instr: std::array::from_fn(|_| vec![1e9, 1e10]),
                smem: vec![1e10, 1e11],
            },
        )
    }

    #[test]
    fn repeated_runs_recycle_trace_buffers() {
        let machine = Machine::gtx285();
        let mut model = model(&machine);

        // Two warm-up rounds: the first analyze lazily builds model
        // state that itself runs a traced simulation and retains those
        // buffers, so steady-state recycling starts one round later.
        for _ in 0..2 {
            let mut study = crate::matmul::case(64, 16);
            run_study(&machine, &mut model, &mut study, Threads::from(1), None).unwrap();
        }

        // The steady-state run must draw from the pool rather than
        // allocate fresh buffers. The counter is global and monotone, so
        // assert the delta (any concurrent reuse only increases it).
        let before = gpa_sim::trace_pool::reuses();
        let mut study = crate::matmul::case(64, 16);
        run_study(&machine, &mut model, &mut study, Threads::from(1), None).unwrap();
        assert!(
            gpa_sim::trace_pool::reuses() > before,
            "a repeated traced run must recycle at least one buffer"
        );
    }
}
