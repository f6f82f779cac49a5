//! Performance smoke test for the parallel replay engine.
//!
//! Replays one SpMV launch across 2048 simulated DPUs with the host-side
//! pool pinned to 1 thread and then to N threads, asserting that the
//! resulting `KernelReport` — including every floating-point field, the
//! full counter rollup, the per-DPU/per-tasklet observability details, and
//! the JSON/CSV exporter strings — is bit-identical, and — when the
//! machine actually has ≥4 cores — that the parallel replay is at least
//! 2× faster. Every 1-thread and N-thread launch runs on a freshly
//! prepared matrix, so each one replays cold; a separate warm leg re-runs
//! one prepared matrix, whose later launches reuse the first launch's
//! timing, and asserts the warm report equals the cold one bit for bit.
//! Emits `BENCH_parallel_sim.json` in the working directory.

use std::time::Instant;

use alpha_pim::semiring::BoolOrAnd;
use alpha_pim::{PreparedSpmv, SpmvVariant};
use alpha_pim_sim::{
    set_sim_threads, CounterId, KernelReport, ObservabilityLevel, PimConfig, PimSystem,
    SimFidelity,
};
use alpha_pim_sparse::{gen, Coo, DenseVector, Graph};

const DPUS: u32 = 2048;
const ITERS: u32 = 5;

/// Frozen fault-free makespan of this exact launch (2048 DPUs, 64 sampled,
/// Erdős–Rényi 60k nodes / 600k edges seed 7, Coo1d, all-ones input). The
/// fault-injection layer must be a strict no-op when no plan is
/// configured; any drift here means the fault-free path picked up a tax.
/// (Re-frozen from 33_937 after the adaptive `nnz_balanced_ranges` rewrite:
/// tighter nnz balance shrinks the straggler partition, so the makespan
/// legitimately dropped.)
const FAULT_FREE_MAX_CYCLES: u64 = 33_136;

fn prepare(m: &Coo<u32>, sys: &PimSystem) -> PreparedSpmv<BoolOrAnd> {
    PreparedSpmv::<BoolOrAnd>::prepare(m, SpmvVariant::Coo1d, sys).expect("fits")
}

fn replay(prep: &PreparedSpmv<BoolOrAnd>, x: &DenseVector<u32>, sys: &PimSystem) -> KernelReport {
    prep.run(x, sys).expect("dims match").kernel
}

/// Mean seconds of one cold launch: each of `ITERS` launches runs on a
/// freshly prepared matrix, and only the launch is timed.
fn time_cold(m: &Coo<u32>, x: &DenseVector<u32>, sys: &PimSystem) -> f64 {
    let mut secs = 0.0;
    for _ in 0..ITERS {
        let prep = prepare(m, sys);
        let start = Instant::now();
        std::hint::black_box(replay(&prep, x, sys));
        secs += start.elapsed().as_secs_f64();
    }
    secs / f64::from(ITERS)
}

/// Asserts two reports are bit-identical, down to the exporter strings.
fn assert_identical(a: &KernelReport, b: &KernelReport, what: &str) {
    assert_eq!(a, b, "KernelReport diverged: {what}");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "simulated seconds diverged: {what}");
    assert_eq!(a.to_json(), b.to_json(), "JSON export diverged: {what}");
    assert_eq!(a.counters_csv(), b.counters_csv(), "counter CSV diverged: {what}");
}

fn main() {
    let graph = Graph::from_coo(gen::erdos_renyi(60_000, 600_000, 7).expect("valid args"));
    let m = graph.transposed();
    let sys = PimSystem::new(PimConfig {
        num_dpus: DPUS,
        fidelity: SimFidelity::Sampled(64),
        observability: ObservabilityLevel::PerTasklet,
        ..Default::default()
    })
    .expect("valid config");
    let x = DenseVector::filled(graph.nodes() as usize, 1u32);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The parallel leg must actually be parallel: honor ALPHA_PIM_THREADS
    // when it asks for >1 (clamped to the available cores), reject an
    // explicit 1, and otherwise take every core — but never fewer than 2,
    // so the pooled code path is always the one measured.
    let requested = std::env::var("ALPHA_PIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    if requested == Some(1) {
        panic!(
            "ALPHA_PIM_THREADS=1 makes the \"parallel\" replay identical to the sequential \
             baseline; unset it or request more than one thread"
        );
    }
    let threads_par = requested.unwrap_or(cores).min(cores).max(2);
    let threads_seq = 1usize;
    assert_ne!(
        threads_par, threads_seq,
        "sequential and parallel replay configs must differ for the comparison to mean anything"
    );

    set_sim_threads(threads_seq);
    let seq_report = replay(&prepare(&m, &sys), &x, &sys);
    assert_eq!(
        seq_report.max_cycles, FAULT_FREE_MAX_CYCLES,
        "fault-free makespan drifted — the resilience layer must cost nothing when disabled"
    );
    assert!(!seq_report.degraded, "no fault plan, nothing may degrade");
    let secs_seq = time_cold(&m, &x, &sys);

    set_sim_threads(threads_par);
    let par_report = replay(&prepare(&m, &sys), &x, &sys);
    let secs_par = time_cold(&m, &x, &sys);

    // The determinism guarantee holds unconditionally: identical reports,
    // down to the bits of the floating-point time, and it extends to the
    // observability layer — per-DPU details, per-tasklet counter sets, and
    // the exporter strings.
    assert_identical(&seq_report, &par_report, &format!("1 vs {threads_par} threads"));
    assert!(!seq_report.dpu_details.is_empty(), "PerTasklet observability retains DPU details");
    assert!(seq_report.dpu_details.iter().all(|d| !d.tasklets.is_empty()));

    // The warm leg: one prepared matrix, launched again after its first
    // (cold) launch, must reproduce the cold report exactly.
    let prep = prepare(&m, &sys);
    let cold_report = replay(&prep, &x, &sys);
    let warm_report = replay(&prep, &x, &sys);
    assert_identical(&seq_report, &cold_report, "cold leg vs 1-thread leg");
    assert_identical(&cold_report, &warm_report, "warm vs cold launch");
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(replay(&prep, &x, &sys));
    }
    let secs_warm = start.elapsed().as_secs_f64() / f64::from(ITERS);
    let c = &seq_report.breakdown.counters;
    assert_eq!(
        c.sum(&CounterId::SLOT_CYCLES),
        c.get(CounterId::DpuCycles),
        "slot attribution must partition the detailed DPU cycles"
    );
    assert_eq!(
        c.sum(&CounterId::TASKLET_CYCLES),
        c.get(CounterId::TaskletBudget),
        "tasklet attribution must partition the tasklet budget"
    );

    let speedup = secs_seq / secs_par;
    println!(
        "perfsmoke: dpus {DPUS} threads {threads_seq}→{threads_par} ({cores} cores) \
         seq {secs_seq:.4}s par {secs_par:.4}s warm {secs_warm:.4}s speedup {speedup:.2}x"
    );

    let json = format!(
        "{{{}, \"threads_seq\": {threads_seq}, \"threads_par\": {threads_par}, \
         \"cores\": {cores}, \"dpus\": {DPUS}, \"secs_seq\": {secs_seq:.6}, \
         \"secs_par\": {secs_par:.6}, \"secs_warm\": {secs_warm:.6}, \"speedup\": {speedup:.3}}}\n",
        alpha_pim_bench::report::bench_schema_fields("perfsmoke"),
    );
    std::fs::write("BENCH_parallel_sim.json", json).expect("write BENCH_parallel_sim.json");

    if threads_par >= 4 && cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x speedup on {threads_par} threads ({cores} cores), \
             measured {speedup:.2}x"
        );
    } else {
        println!(
            "perfsmoke: {threads_par} thread(s) on {cores} core(s), skipping the 2x speedup gate"
        );
    }
    println!("perfsmoke: reports bit-identical across thread counts and warm launches — OK");
}
