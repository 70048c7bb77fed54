//! Pieces every workload shares: the seeded input generator, the run
//! report, the result log, the executor counters and process measurements.

use qtnsim_core::{ExecutionStats, ExecutorConfig, SimulationPlan};

/// Executor workers of every engine under test (fixed, so figures compare
/// across machines with different core counts).
pub const WORKERS: usize = 2;

/// Absolute tolerance of an amplitude against the state-vector oracle.
/// Amplitudes of these circuits are ~2^-n/2 ≥ 1e-3 in magnitude; the
/// contraction reorders sums, so agreement is ~1e-15 in practice.
pub const AMPLITUDE_TOLERANCE: f64 = 1e-9;

/// The executor configuration of every engine under test.
pub fn executor(workers: usize) -> ExecutorConfig {
    ExecutorConfig { workers, max_subtasks: 0, reuse: true, pool: true }
}

/// splitmix64: the benchmark's only source of randomness, so the same
/// `--seed` yields the same inputs on every machine.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` random bits.
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() & 1) as u8).collect()
    }

    /// Exponentially distributed with mean `mean` (Poisson inter-arrivals).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Run options shared by every workload.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for files the run writes (result logs, traces, counters).
    pub out_dir: std::path::PathBuf,
}

/// Amplitudes streamed to a file while a workload runs and read back for
/// the correctness check afterwards, so that the results of a long run
/// never count towards the process's peak resident memory.
pub struct AmpLog {
    out: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
}

impl AmpLog {
    pub fn create(cfg: &RunConfig, name: &str) -> std::io::Result<AmpLog> {
        let path = cfg.out_dir.join(format!("{name}-seed{}-{}.amps", cfg.seed, std::process::id()));
        let out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        Ok(AmpLog { out, path })
    }

    /// Append one call's amplitudes (`None` for a failed call).
    pub fn push(&mut self, amps: Option<&[qtn_tensor::Complex64]>) -> std::io::Result<()> {
        use std::io::Write;
        let amps = amps.unwrap_or(&[]);
        self.out.write_all(&(amps.len() as u32).to_le_bytes())?;
        for a in amps {
            self.out.write_all(&a.re.to_le_bytes())?;
            self.out.write_all(&a.im.to_le_bytes())?;
        }
        Ok(())
    }

    /// Every call's amplitudes in push order; removes the file.
    pub fn read_back(self) -> std::io::Result<Vec<Option<Vec<qtn_tensor::Complex64>>>> {
        use std::io::Write;
        let AmpLog { mut out, path } = self;
        out.flush()?;
        drop(out);
        let bytes = std::fs::read(&path)?;
        std::fs::remove_file(&path)?;
        let word = |at: usize| -> [u8; 8] { bytes[at..at + 8].try_into().expect("8 bytes") };
        let mut calls = Vec::new();
        let mut at = 0;
        while at + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4;
            let amps: Vec<_> = (0..len)
                .map(|i| {
                    let base = at + 16 * i;
                    qtn_tensor::Complex64::new(
                        f64::from_le_bytes(word(base)),
                        f64::from_le_bytes(word(base + 8)),
                    )
                })
                .collect();
            at += 16 * len;
            calls.push((len > 0).then_some(amps));
        }
        Ok(calls)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` of every metric measured in this run.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Deterministic counters: `(name, exact value)`, equal on every run
    /// at the same seed.
    pub counts: Vec<(String, String)>,
    /// Free-form lines printed with the result (sample counts, chosen tail
    /// percentiles, span summaries).
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, panicked or failed their check.
    pub failed: u64,
    /// Output checks and exact-count guards that did not hold. Any entry
    /// makes the run incorrect.
    pub violations: Vec<String>,
    /// End-to-end metrics this workload cannot measure (printed as null).
    pub not_applicable: Vec<&'static str>,
    /// The spans of a traced run, written out when the run ends.
    pub tracer: Option<crate::trace::Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: impl ToString) {
        self.counts.push((name.to_string(), value.to_string()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed check: one failed operation and a violation.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.violations.push(what.into());
    }

    /// Record call latencies: the median (an end-to-end metric), and the
    /// p90 and the highest percentile that leaves at least ten samples
    /// beyond it (per-layer metrics: on a shared 2-vCPU host both spread too
    /// widely between runs to gate on).
    pub fn latency(&mut self, seconds: &[f64]) {
        let mut sorted = seconds.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| crate::stats::quantile_sorted(&sorted, q) * 1e3;
        let (pct, tail) = crate::stats::tail(seconds).unwrap_or((50.0, f64::NAN));
        self.metric("call_p50_ms", at(0.5), "ms");
        self.metric("call.p90_ms", at(0.9), "ms");
        self.metric("call.tail_ms", tail * 1e3, "ms");
        let (q1, q3) = crate::stats::quartiles(seconds);
        self.note(format!(
            "call latency: {} samples, quartiles {:.4} / {:.4} ms, call.tail_ms is p{pct}",
            seconds.len(),
            q1 * 1e3,
            q3 * 1e3
        ));
    }
}

/// `2^log_cost × overhead`: the flops of the sliced contraction a plan
/// commits to.
pub fn plan_sliced_flops(plan: &SimulationPlan) -> f64 {
    plan.log_cost.exp2() * plan.overhead
}

/// The plan-level exact counters every workload guards.
pub fn plan_counts(report: &mut Report, plan: &SimulationPlan) {
    report.count("plan.log2_cost_bits", format!("{:#x}", plan.log_cost.to_bits()));
    report.count("plan_sliced_flops", format!("{:?}", plan_sliced_flops(plan)));
    report.count("slicing.overhead", format!("{:?}", plan.overhead));
    report.count("slicing.sliced_edges", plan.slicing.len());
    report.count("executor.subtasks", plan.num_subtasks());
    report.count("plan.sliced_max_rank", plan.sliced_max_rank());
}

/// The exact counters of one execution (flops by phase, pool traffic,
/// peak against prediction).
pub fn execution_counts(report: &mut Report, prefix: &str, stats: &ExecutionStats) {
    let amps = stats.amplitudes_in_batch.max(1);
    report.count(&format!("{prefix}.flops"), stats.flops);
    report.count(&format!("{prefix}.stem_flops"), stats.stem_flops);
    report.count(&format!("{prefix}.frontier_flops"), stats.frontier_flops);
    report.count(&format!("{prefix}.branch_flops"), stats.branch_flops);
    report.count(&format!("{prefix}.amplitudes"), amps);
    report.count(
        &format!("{prefix}.flops_per_amp"),
        format!("{:?}", stats.flops as f64 / amps as f64),
    );
    report.count(&format!("{prefix}.buffers_allocated"), stats.buffers_allocated);
    report.count(&format!("{prefix}.peak_bytes"), stats.peak_bytes_in_flight);
    report.count(&format!("{prefix}.predicted_peak_bytes"), stats.predicted_peak_bytes);
}

/// Check the pooled-memory contract of one execution: the measured peak
/// equals the plan-time prediction.
pub fn check_peak(report: &mut Report, what: &str, stats: &ExecutionStats) {
    if stats.peak_bytes_in_flight != stats.predicted_peak_bytes {
        report.violation(format!(
            "{what}: peak bytes {} != predicted {}",
            stats.peak_bytes_in_flight, stats.predicted_peak_bytes
        ));
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sums of the executor counters the per-layer ratios are built from.
#[derive(Default)]
pub struct ExecTotals {
    pub flops: u64,
    pub wall: f64,
    pub mixed: u64,
    pub mixed_deduped: u64,
    pub pure: u64,
    pub pure_reused: u64,
    pub gemm_blocked: u64,
    pub gemm_all: u64,
    pub buffers_allocated: u64,
    pub peak_bytes: u64,
    pub branch_rebuilt: u64,
    pub branch_survived: u64,
}

impl ExecTotals {
    pub fn add(&mut self, s: &ExecutionStats) {
        self.flops += s.flops;
        self.wall += s.wall_seconds;
        self.mixed += s.stem_mixed_contractions;
        self.mixed_deduped += s.stem_mixed_contractions_deduped;
        self.pure += s.stem_pure_flops;
        self.pure_reused += s.stem_pure_flops_reused;
        self.gemm_blocked += s.gemm_blocked;
        self.gemm_all += s.gemm_micro + s.gemm_gemv + s.gemm_narrow + s.gemm_blocked;
        self.buffers_allocated += s.buffers_allocated;
        self.peak_bytes = self.peak_bytes.max(s.peak_bytes_in_flight);
        self.branch_rebuilt += s.branch_flops;
        self.branch_survived += s.branch_flops_survived_rebind;
    }

    /// The executor's per-layer metrics over the summed executions.
    pub fn report(&self, report: &mut Report) {
        report.metric("executor.gflops", self.flops as f64 / self.wall / 1e9, "GF/s");
        report.metric(
            "executor.mixed_dedup_ratio",
            ratio(self.mixed_deduped, self.mixed + self.mixed_deduped),
            "ratio",
        );
        report.metric(
            "executor.pure_reuse_ratio",
            ratio(self.pure_reused, self.pure + self.pure_reused),
            "ratio",
        );
        report.metric(
            "executor.gemm_blocked_share",
            ratio(self.gemm_blocked, self.gemm_all),
            "ratio",
        );
        report.metric("executor.buffers_allocated", self.buffers_allocated as f64, "count");
        report.metric("executor.peak_bytes", self.peak_bytes as f64, "B");
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
