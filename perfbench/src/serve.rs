//! `serve-open`: an in-process `qtnsim-serve` under open-loop load.
//!
//! The server runs the 12-qubit RQC plan with the default batching
//! (max 64 amplitudes, 2 ms deadline, 4096 queued) and one dispatcher. One
//! load-generator thread sends single-amplitude requests, each carrying
//! the full circuit as real clients send it, over one connection at
//! seeded Poisson arrival times; one receiver thread collects the replies.
//! Every latency is timed from the request's due time, so a stalled
//! generator charges its lateness to the requests it delayed.
//!
//! An untraced run spends `--seconds` at the `heavy` rate (1000 req/s,
//! requests coalesce) and reports its latencies and goodput: amplitudes
//! answered within [`SLO_MS`] per second. A traced run splits `--seconds`
//! between a `light` rate (500 req/s, requests mostly dispatch solo), the
//! heavy rate and a bisection for the capacity: the highest rate whose p99
//! stays within [`SLO_MS`] with every request answered and no growing
//! backlog.

use crate::common::{self, ratio, ExecTotals, Report, Rng, RunConfig, AMPLITUDE_TOLERANCE};
use crate::layers;
use crate::stats;
use crate::trace::Tracer;
use qtn_circuit::{Circuit, OutputSpec, RqcConfig};
use qtn_statevector::StateVector;
use qtn_tensor::Complex64;
use qtnsim_core::{Engine, ExecutionStats, PlannerConfig};
use qtnsim_serve::{AmplitudeRequest, BatchConfig, Frame, MetricsSnapshot, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const LIGHT_RPS: f64 = 500.0;
const HEAVY_RPS: f64 = 1000.0;
/// Latency limit of the capacity search (p99, from due time).
const SLO_MS: f64 = 10.0;
/// Capacity search bounds (req/s) and bisection steps: the bisection runs
/// on the logarithm of the rate, so 7 steps resolve the range to ~3.5%.
const CAPACITY_RANGE: (f64, f64) = (500.0, 5000.0);
const CAPACITY_STEPS: usize = 7;
/// Shares of `--seconds` spent in the light phase, the heavy phase and the
/// capacity search.
const LIGHT_SHARE: f64 = 0.15;
const HEAVY_SHARE: f64 = 0.25;
const CAPACITY_SHARE: f64 = 0.6;
const SETUPS: usize = 5;
/// Input streams (see [`Rng::new`]): set-up requests, and the load phases.
const SETUP_STREAM: u64 = 3;
const STREAM: u64 = 4;
/// Repetitions of each per-layer timing in a traced run.
const TIMING_REPS: usize = 15;
/// How long the receiver waits for a reply before declaring it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        planner: planner(),
        executor: common::executor(common::WORKERS),
        batch: BatchConfig::default(),
        dispatchers: 1,
        ..ServeConfig::default()
    }
}

/// What came back for one request.
enum ReplyKind {
    Amplitude(Complex64),
    Shed,
    Error,
}

/// One sent request and its reply.
struct Exchange {
    id: u64,
    due: Instant,
    encode_start: Instant,
    sent: Instant,
    /// The bitstring, qubit `q` at bit `q`.
    bits: u64,
    reply: Option<(Instant, ReplyKind)>,
}

impl Exchange {
    fn latency(&self) -> Option<f64> {
        match &self.reply {
            Some((at, ReplyKind::Amplitude(_))) => Some(at.duration_since(self.due).as_secs_f64()),
            _ => None,
        }
    }
}

/// The outcome of one open-loop phase.
struct Phase {
    exchanges: Vec<Exchange>,
    wall: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.exchanges.iter().filter_map(Exchange::latency).collect()
    }

    fn count(&self, f: impl Fn(&Option<(Instant, ReplyKind)>) -> bool) -> u64 {
        self.exchanges.iter().filter(|e| f(&e.reply)).count() as u64
    }

    fn sheds(&self) -> u64 {
        self.count(|r| matches!(r, Some((_, ReplyKind::Shed))))
    }

    fn errors(&self) -> u64 {
        self.count(|r| matches!(r, Some((_, ReplyKind::Error))))
    }

    fn lost(&self) -> u64 {
        self.count(Option::is_none)
    }

    /// Whether the phase met the service level: every request answered,
    /// p99 within the limit, and the last quarter no slower than the first
    /// by more than the limit (no growing backlog).
    fn meets_slo(&self) -> bool {
        let lat = self.latencies();
        if lat.len() != self.exchanges.len() || lat.len() < 100 {
            return false;
        }
        let q = lat.len() / 4;
        let p99 = stats::quantile_sorted(&sorted(&lat), 0.99) * 1e3;
        let first = stats::median(&lat[..q]) * 1e3;
        let last = stats::median(&lat[lat.len() - q..]) * 1e3;
        p99 <= SLO_MS && last - first <= SLO_MS
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Send requests at seeded Poisson arrival times at `rate` for `seconds`
/// over one connection, and collect every reply.
fn open_loop(
    addr: SocketAddr,
    circuit: &Circuit,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    next_id: &mut u64,
) -> std::io::Result<Phase> {
    let n = circuit.num_qubits();
    let mut offsets = Vec::new();
    let mut t = rng.exponential(1.0 / rate);
    while t < seconds {
        offsets.push(t);
        t += rng.exponential(1.0 / rate);
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let expected = offsets.len();
    let receiver = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::with_capacity(expected);
        while replies.len() < expected {
            let Ok(frame) = Frame::read_from(&mut reader) else { break };
            let at = Instant::now();
            match frame {
                Frame::Response(r) if r.amplitudes.len() == 1 => {
                    replies.push((r.request_id, at, ReplyKind::Amplitude(r.amplitudes[0])))
                }
                Frame::Response(r) => replies.push((r.request_id, at, ReplyKind::Error)),
                Frame::Shed { request_id, .. } => replies.push((request_id, at, ReplyKind::Shed)),
                Frame::Error { request_id, .. } => replies.push((request_id, at, ReplyKind::Error)),
                _ => {}
            }
        }
        replies
    });

    let mut frame = Frame::Request(AmplitudeRequest {
        request_id: 0,
        circuit: circuit.clone(),
        bitstrings: vec![vec![0; n]],
        deadline_ms: None,
    });
    let first_id = *next_id;
    let mut exchanges = Vec::with_capacity(expected);
    let start = Instant::now();
    let mut write_error = None;
    for offset in offsets {
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let bits = rng.bits(n);
        let id = *next_id;
        *next_id += 1;
        if let Frame::Request(request) = &mut frame {
            request.request_id = id;
            request.bitstrings[0].clone_from(&bits);
        }
        let bits = bits.iter().enumerate().fold(0u64, |acc, (q, &b)| acc | (b as u64) << q);
        let encode_start = Instant::now();
        let written = writer.write_all(&frame.encode());
        let sent = Instant::now();
        exchanges.push(Exchange { id, due, encode_start, sent, bits, reply: None });
        if let Err(e) = written {
            write_error = Some(e);
            break;
        }
    }
    let replies = receiver.join().expect("receiver thread");
    let wall = start.elapsed().as_secs_f64();
    writer.shutdown(std::net::Shutdown::Both).ok();
    for (id, at, kind) in replies {
        if let Some(e) = id.checked_sub(first_id).and_then(|i| exchanges.get_mut(i as usize)) {
            e.reply = Some((at, kind));
        }
    }
    if let Some(e) = write_error {
        eprintln!("serve-open: send failed: {e}");
    }
    Ok(Phase { exchanges, wall })
}

/// Compare every answered amplitude with the state vector; count what
/// failed. Sheds count as failures except in capacity probes, whose
/// overload is the point.
fn account(phase: &Phase, sv: &StateVector, probe: bool, report: &mut Report) {
    report.attempted += phase.exchanges.len() as u64;
    report.failed += phase.errors() + phase.lost();
    if !probe {
        report.failed += phase.sheds();
    }
    for e in &phase.exchanges {
        if let Some((_, ReplyKind::Amplitude(amp))) = &e.reply {
            let bits: Vec<u8> = (0..sv.num_qubits()).map(|q| (e.bits >> q & 1) as u8).collect();
            let err = (*amp - sv.amplitude(&bits)).abs();
            if err.is_nan() || err > AMPLITUDE_TOLERANCE {
                report.violation(format!("request {} amplitude off by {err:e}", e.id));
            }
        }
    }
}

/// Executor totals between two server snapshots.
fn delta(after: &ExecutionStats, before: &ExecutionStats) -> ExecTotals {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    ExecTotals {
        flops: d(after.flops, before.flops),
        wall: after.wall_seconds - before.wall_seconds,
        mixed: d(after.stem_mixed_contractions, before.stem_mixed_contractions),
        mixed_deduped: d(
            after.stem_mixed_contractions_deduped,
            before.stem_mixed_contractions_deduped,
        ),
        pure: d(after.stem_pure_flops, before.stem_pure_flops),
        pure_reused: d(after.stem_pure_flops_reused, before.stem_pure_flops_reused),
        gemm_blocked: d(after.gemm_blocked, before.gemm_blocked),
        gemm_all: d(
            after.gemm_micro + after.gemm_gemv + after.gemm_narrow + after.gemm_blocked,
            before.gemm_micro + before.gemm_gemv + before.gemm_narrow + before.gemm_blocked,
        ),
        buffers_allocated: d(after.buffers_allocated, before.buffers_allocated),
        peak_bytes: after.peak_bytes_in_flight,
        branch_rebuilt: d(after.branch_flops, before.branch_flops),
        branch_survived: d(after.branch_flops_survived_rebind, before.branch_flops_survived_rebind),
    }
}

/// Set-up: a fresh server, a connection and the first correct reply.
fn setup(circuit: &Circuit, bits: &[u8], sv: &StateVector, report: &mut Report) -> Option<f64> {
    let t = Instant::now();
    let server = match Server::bind("127.0.0.1:0", serve_config()) {
        Ok(s) => s,
        Err(e) => {
            report.violation(format!("bind failed: {e}"));
            return None;
        }
    };
    let reply = qtnsim_serve::Client::connect(server.local_addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request_amplitudes(circuit, &[bits]).map_err(|e| e.to_string()));
    let elapsed = t.elapsed().as_secs_f64();
    server.shutdown();
    report.attempted += 1;
    match reply {
        Ok(qtnsim_serve::Reply::Amplitudes(r)) if r.amplitudes.len() == 1 => {
            let err = (r.amplitudes[0] - sv.amplitude(bits)).abs();
            if err.is_nan() || err > AMPLITUDE_TOLERANCE {
                report.violation(format!("set-up amplitude off by {err:e}"));
            }
            Some(elapsed)
        }
        other => {
            report.failed += 1;
            report.note(format!(
                "set-up request failed: {}",
                match other {
                    Err(e) => e,
                    Ok(_) => "shed or error reply".to_string(),
                }
            ));
            None
        }
    }
}

/// The plan the server runs, compiled on an engine of its own: the source
/// of the deterministic counters.
fn plan_probe(
    circuit: &Circuit,
    bits: &[u8],
    report: &mut Report,
) -> Option<(qtnsim_core::SimulationPlan, f64)> {
    let engine = Engine::with_configs(planner(), common::executor(common::WORKERS));
    let spec = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    let compiled = match engine.compile(circuit, &spec) {
        Ok(c) => c,
        Err(e) => {
            report.violation(format!("compile failed: {e}"));
            return None;
        }
    };
    common::plan_counts(report, compiled.plan());
    let cold = compiled.execute_amplitude(bits);
    let warm = compiled.execute_amplitude(bits);
    let (Ok((_, cold)), Ok((_, warm))) = (cold, warm) else {
        report.violation("probe execute failed");
        return None;
    };
    common::execution_counts(report, "executor.cold", &cold.stats);
    common::execution_counts(report, "executor.warm", &warm.stats);
    common::check_peak(report, "probe warm execute", &warm.stats);
    layers::check_flop_identity(
        compiled.plan(),
        warm.stats.stem_flops + warm.stats.frontier_flops,
        report,
    );
    Some((compiled.plan().clone(), warm.stats.flops as f64))
}

/// A running server with the plan cache warmed, and the state the load
/// phases share.
struct Live {
    server: Server,
    circuit: Circuit,
    sv: StateVector,
    rng: Rng,
    next_id: u64,
}

impl Live {
    fn start(seed: u64, report: &mut Report) -> Option<Live> {
        let circuit = circuit();
        let sv = StateVector::simulate(&circuit);
        let mut rng = Rng::new(seed, STREAM);
        let server = match Server::bind("127.0.0.1:0", serve_config()) {
            Ok(s) => s,
            Err(e) => {
                report.violation(format!("bind failed: {e}"));
                return None;
            }
        };
        // Warm the plan cache: the phases price steady-state serving.
        let bits = rng.bits(circuit.num_qubits());
        let warm = qtnsim_serve::Client::connect(server.local_addr())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.request_amplitudes(&circuit, &[&bits]).map_err(|e| e.to_string()));
        if !matches!(warm, Ok(qtnsim_serve::Reply::Amplitudes(_))) {
            report.violation("warm-up request failed");
        }
        Some(Live { server, circuit, sv, rng, next_id: 1 })
    }

    /// One open-loop phase, checked and counted.
    fn phase(
        &mut self,
        rate: f64,
        seconds: f64,
        probe: bool,
        report: &mut Report,
    ) -> Option<Phase> {
        let addr = self.server.local_addr();
        match open_loop(addr, &self.circuit, rate, seconds, &mut self.rng, &mut self.next_id) {
            Ok(p) => {
                account(&p, &self.sv, probe, report);
                Some(p)
            }
            Err(e) => {
                report.violation(format!("load generator failed at {rate} req/s: {e}"));
                None
            }
        }
    }
}

/// What the serve-layer probe hands back for the executor-layer metrics.
pub struct ProbeOutcome {
    /// Executor totals of the batches dispatched in the heavy phase.
    pub heavy_exec: ExecTotals,
    /// Batches dispatched in the heavy phase.
    pub heavy_batches: u64,
}

/// The serve-layer probe: a fresh in-process server driven at the light
/// rate, at the heavy rate and through the capacity bisection, splitting
/// `seconds` between them. Reports every `serve.*` metric and the server's
/// plan-cache hit ratio, with spans for every other heavy-phase request.
pub fn layer_probe(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<ProbeOutcome> {
    let mut live = Live::start(seed, report)?;
    let light = live.phase(LIGHT_RPS, seconds * LIGHT_SHARE, false, report)?;
    let before: MetricsSnapshot = live.server.metrics();
    let heavy = live.phase(HEAVY_RPS, seconds * HEAVY_SHARE, false, report)?;
    let after: MetricsSnapshot = live.server.metrics();
    // Bisect on the logarithm of the rate.
    let (mut lo, mut hi) = CAPACITY_RANGE;
    for _ in 0..CAPACITY_STEPS {
        let mid = (lo * hi).sqrt();
        let probe =
            live.phase(mid, seconds * CAPACITY_SHARE / CAPACITY_STEPS as f64, true, report)?;
        let met = probe.meets_slo();
        report
            .note(format!("capacity probe {mid:.0} req/s: {}", if met { "met" } else { "missed" }));
        if met {
            lo = mid
        } else {
            hi = mid
        }
    }
    live.server.shutdown();
    report.metric("serve.capacity_rps", lo, "1/s");

    // Spans from the timestamps the generator and receiver took.
    for e in heavy.exchanges.iter().filter(|e| e.id % 2 == 1) {
        let Some((at, _)) = &e.reply else { continue };
        let root = Some(tracer.record(e.id, "serve.request", None, e.due, *at));
        tracer.record(e.id, "serve.generator_wait", root, e.due, e.encode_start.max(e.due));
        tracer.record(e.id, "serve.send", root, e.encode_start, e.sent);
        tracer.record(e.id, "serve.server", root, e.sent, *at);
    }
    let light_sorted = sorted(&light.latencies());
    report.metric("serve.light_p50_ms", stats::quantile_sorted(&light_sorted, 0.5) * 1e3, "ms");
    report.metric("serve.light_p99_ms", stats::quantile_sorted(&light_sorted, 0.99) * 1e3, "ms");
    let late: Vec<f64> = heavy
        .exchanges
        .iter()
        .map(|e| e.encode_start.saturating_duration_since(e.due).as_secs_f64())
        .collect();
    report.metric(
        "serve.generator_late_ms",
        stats::quantile_sorted(&sorted(&late), 0.99) * 1e3,
        "ms",
    );

    let batches = after.batches_dispatched - before.batches_dispatched;
    let completed = after.requests_completed - before.requests_completed;
    report.metric(
        "serve.queue_ms",
        (after.queue_micros - before.queue_micros) as f64 / completed.max(1) as f64 / 1e3,
        "ms",
    );
    report.metric(
        "serve.batch_occupancy",
        ratio(after.batched_amplitudes - before.batched_amplitudes, batches),
        "amps",
    );
    for (name, a, b) in [
        ("serve.solo_flush_share", after.solo_flushes, before.solo_flushes),
        ("serve.deadline_flush_share", after.deadline_flushes, before.deadline_flushes),
        ("serve.size_flush_share", after.size_flushes, before.size_flushes),
    ] {
        report.metric(name, ratio(a - b, batches), "ratio");
    }
    let heavy_exec = delta(&after.execution, &before.execution);
    report.metric("serve.server_execute_share", heavy_exec.wall / heavy.wall, "ratio");
    report.metric("serve.requests_shed", after.requests_shed as f64, "count");
    report.metric("serve.requests_failed", after.requests_failed as f64, "count");
    report.metric("serve.panics_caught", after.panics_caught as f64, "count");
    report.metric(
        "engine.plan_cache_hit_ratio",
        ratio(after.cache.hits as u64, (after.cache.hits + after.cache.misses) as u64),
        "ratio",
    );

    // Micro-timers of the per-request protocol work.
    let request = Frame::Request(AmplitudeRequest {
        request_id: 1,
        circuit: live.circuit.clone(),
        bitstrings: vec![vec![0; live.circuit.num_qubits()]],
        deadline_ms: None,
    });
    let bytes = request.encode();
    report.metric(
        "serve.encode_us",
        layers::median_seconds(501, || {
            std::hint::black_box(request.encode());
        }) * 1e6,
        "us",
    );
    report.metric(
        "serve.decode_us",
        layers::median_seconds(501, || {
            std::hint::black_box(Frame::decode(bytes[4], &bytes[5..]).expect("own frame decodes"));
        }) * 1e6,
        "us",
    );
    Some(ProbeOutcome { heavy_exec, heavy_batches: batches })
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(cfg.trace);
    let base = circuit();
    let n = base.num_qubits();
    let sv = StateVector::simulate(&base);
    let mut rng = Rng::new(cfg.seed, SETUP_STREAM);
    let probe_bits = rng.bits(n);
    let Some((plan, flops_per_amp)) = plan_probe(&base, &probe_bits, &mut report) else {
        return report;
    };
    let setup_s: Vec<f64> = (0..SETUPS)
        .filter_map(|_| {
            let bits = rng.bits(n);
            setup(&base, &bits, &sv, &mut report)
        })
        .collect();

    if !cfg.trace {
        let Some(mut live) = Live::start(cfg.seed, &mut report) else { return report };
        let Some(heavy) = live.phase(HEAVY_RPS, cfg.seconds, false, &mut report) else {
            return report;
        };
        live.server.shutdown();
        let peak_rss = common::peak_rss_mb();
        // Goodput: amplitudes answered within the latency limit, per second
        // of offered load.
        let within = heavy.latencies().iter().filter(|&&l| l * 1e3 <= SLO_MS).count();
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("amps_per_s", within as f64 / cfg.seconds, "1/s");
        report.latency(&heavy.latencies());
        report.metric("plan_sliced_flops", common::plan_sliced_flops(&plan), "flop");
        report.metric("peak_rss_mb", peak_rss, "MB");
        return report;
    }

    let Some(probe) = layer_probe(cfg.seed, cfg.seconds, &mut tracer, &mut report) else {
        return report;
    };
    report.metric(
        "executor.execute_ms",
        probe.heavy_exec.wall / probe.heavy_batches.max(1) as f64 * 1e3,
        "ms",
    );
    probe.heavy_exec.report(&mut report);
    report.metric("executor.flops_per_amp", flops_per_amp, "flop");
    report.metric("executor.subtasks", plan.num_subtasks() as f64, "count");
    let spec = OutputSpec::Amplitude(vec![0; n]);
    for id in 0..SETUPS as u64 {
        let engine = Engine::with_configs(planner(), common::executor(common::WORKERS));
        let _ = tracer.time(id, "engine.compile", None, || engine.compile(&base, &spec));
    }
    report.metric("engine.compile_miss_ms", tracer.median_ms("engine.compile"), "ms");
    layers::report_plan_layers(
        &mut tracer,
        &base,
        &spec,
        &planner(),
        &plan,
        TIMING_REPS,
        |c| {
            c.execute_amplitude(&probe_bits).expect("single execute");
        },
        &mut report,
    );
    report.notes.extend(tracer.summary());
    report.tracer = Some(tracer);
    report
}
