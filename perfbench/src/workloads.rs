//! The four request mixes. Every input is a pure function of the
//! benchmark seed: data seeds and the cycle order derive from it, the
//! problem sizes are fixed.

use gpa_apps::spmv::Format;
use gpa_service::zoo;
use gpa_service::{AnalysisRequest, CustomKernel, KernelSpec, MemInit, MemRegionSpec, ParamValue};
use gpa_sim::LaunchConfig;

/// One workload: which requests it sends and how `gpa-serve` is started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's three case studies on gtx285 (heavy requests).
    PaperCases,
    /// The twelve zoo kernels at their default size (small requests).
    ZooMix,
    /// Custom-kernel twins of three zoo kernels (large request bodies).
    CustomKernels,
    /// The distinct requests of `PaperCases` and `ZooMix`, all answered
    /// from the report cache.
    RepeatHits,
}

pub const ALL: [Workload; 4] = [
    Workload::PaperCases,
    Workload::ZooMix,
    Workload::CustomKernels,
    Workload::RepeatHits,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCases => "paper_cases",
            Workload::ZooMix => "zoo_mix",
            Workload::CustomKernels => "custom_kernels",
            Workload::RepeatHits => "repeat_hits",
        }
    }

    /// Whether `gpa-serve` runs with its report cache (filled during
    /// set-up) or with `--no-report-cache`.
    pub fn report_cache(self) -> bool {
        self == Workload::RepeatHits
    }
}

/// One distinct request of a workload.
pub struct Case {
    pub label: String,
    pub request: AnalysisRequest,
    /// The wire body, `request.to_json()`.
    pub body: String,
    /// For a custom twin: the named zoo request it must answer
    /// identically to.
    pub named_twin: Option<AnalysisRequest>,
}

impl Case {
    fn new(label: String, request: AnalysisRequest, named_twin: Option<AnalysisRequest>) -> Case {
        let body = request.to_json();
        Case {
            label,
            request,
            body,
            named_twin,
        }
    }
}

/// The workload's distinct requests, in canonical order.
pub fn cases(workload: Workload, seed: u64) -> Vec<Case> {
    let data_seed = seed as u32;
    match workload {
        Workload::PaperCases => paper_cases(data_seed),
        Workload::ZooMix => zoo_mix(data_seed),
        Workload::CustomKernels => custom_kernels(data_seed),
        Workload::RepeatHits => {
            let mut all = paper_cases(data_seed);
            all.extend(zoo_mix(data_seed));
            all
        }
    }
}

fn gtx285(kernel: KernelSpec) -> AnalysisRequest {
    AnalysisRequest::new(kernel, "gtx285")
}

/// The `table3` exhibit's default sizes.
fn paper_cases(data_seed: u32) -> Vec<Case> {
    vec![
        Case::new(
            "matmul 16x16 n=256".into(),
            gtx285(KernelSpec::Matmul { n: 256, tile: 16 }),
            None,
        ),
        Case::new(
            "CR n=512 nsys=64".into(),
            gtx285(KernelSpec::Tridiag {
                n: 512,
                nsys: 64,
                padded: false,
            }),
            None,
        ),
        Case::new(
            format!("SpMV BELL+IMIV l=4 tex seed={data_seed}"),
            gtx285(KernelSpec::Spmv {
                l: 4,
                seed: data_seed,
                format: Format::BellImIv,
                texture: true,
            }),
            None,
        ),
    ]
}

fn named(name: &str, n: u32, seed: u32) -> AnalysisRequest {
    gtx285(KernelSpec::Named {
        name: name.to_owned(),
        n,
        seed,
    })
}

fn zoo_mix(data_seed: u32) -> Vec<Case> {
    zoo::WORKLOADS
        .iter()
        .map(|w| {
            Case::new(
                format!("{} n={}", w.name, w.default_n),
                named(w.name, w.default_n, data_seed),
                None,
            )
        })
        .collect()
}

fn custom_kernels(data_seed: u32) -> Vec<Case> {
    [
        ("saxpy", 4096),
        ("histogram", 4096),
        ("shared_transpose", 128),
    ]
    .into_iter()
    .map(|(name, n)| {
        Case::new(
            format!("custom {name} n={n}"),
            gtx285(KernelSpec::Custom(Box::new(custom_twin(
                name, n, data_seed,
            )))),
            Some(named(name, n, data_seed)),
        )
    })
    .collect()
}

/// The `{"case": "custom"}` twin of a zoo kernel, built from the zoo's
/// public contracts only: its canonical assembly text, the same launch,
/// the same region order and lengths, and `MemInit::Words` holding the
/// same generated data.
fn custom_twin(name: &str, n: u32, seed: u32) -> CustomKernel {
    let asm = gpa_isa::asm::kernel_to_asm(&zoo::kernel(name, n).expect("zoo kernel builds"));
    let words = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    let region = |name: &str, len: u64, init: MemInit| MemRegionSpec {
        name: name.to_owned(),
        len,
        init,
        texture: false,
        readback: false,
    };
    let base = |name: &str| ParamValue::RegionBase(name.to_owned());
    let len = u64::from(n) * 4;
    let blocks = n / zoo::THREADS;
    match name {
        "saxpy" => CustomKernel {
            asm,
            launch: LaunchConfig::new_1d(blocks, zoo::THREADS),
            params: vec![base("x"), base("y"), ParamValue::Word(1.5f32.to_bits())],
            memory: vec![
                region(
                    "x",
                    len,
                    MemInit::Words(words(zoo::data_f32(seed, n as usize))),
                ),
                region(
                    "y",
                    len,
                    MemInit::Words(words(zoo::data_f32(seed.wrapping_add(1), n as usize))),
                ),
            ],
        },
        "histogram" => {
            let data: Vec<u32> = zoo::data_u32(seed, n as usize)
                .into_iter()
                .map(|v| v & (zoo::HISTOGRAM_HOT_BINS - 1))
                .collect();
            CustomKernel {
                asm,
                launch: LaunchConfig::new_1d(blocks, zoo::THREADS),
                params: vec![base("in"), base("out")],
                memory: vec![
                    region("in", len, MemInit::Words(data)),
                    region(
                        "out",
                        u64::from(blocks * zoo::HISTOGRAM_BINS) * 4,
                        MemInit::Zero,
                    ),
                ],
            }
        }
        "shared_transpose" => {
            let elems = (n * n) as usize;
            let tiles = n / 16;
            CustomKernel {
                asm,
                launch: LaunchConfig::new_1d(tiles * tiles, zoo::THREADS),
                params: vec![base("in"), base("out")],
                memory: vec![
                    region(
                        "in",
                        elems as u64 * 4,
                        MemInit::Words(words(zoo::data_f32(seed, elems))),
                    ),
                    region("out", elems as u64 * 4, MemInit::Zero),
                ],
            }
        }
        other => unreachable!("no custom twin defined for `{other}`"),
    }
}

/// SplitMix64: the benchmark's only source of derived randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which the closed loop cycles through the distinct
/// requests: a fixed permutation of `0..n` chosen by the seed.
pub fn cycle_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5EED_C7C1_E0D3_0000;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
