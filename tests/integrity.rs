//! End-to-end integrity audit of the silent-corruption layer: ABFT merge
//! guards, the `sdc.*` outcome ledgers, and the DPU health quarantine.
//!
//! * **Detection & correction** — for every Table 2 catalog graph, BFS
//!   levels, SSSP distances, and PPR scores computed under a silent-only
//!   fault plan with merge verification on must be bit-identical to the
//!   fault-free results, with `sdc.escaped == 0` and the outcome ledger
//!   balancing to zero remainder (`injected = detected + escaped`,
//!   `detected = corrected`).
//! * **Escape without the guard** — the same draws with verification off
//!   flow through unchecked: every injection is charged to `sdc.escaped`
//!   and at least one answer in the sweep diverges.
//! * **Determinism** — verified silent-corruption runs are bit-identical
//!   at 1 and 4 simulation threads (fault draws and checksum verdicts are
//!   pure hashes of seed and site, never of scheduling).
//! * **Quarantine** — the serving plan excludes quarantined DPUs without
//!   changing answers; the service scoreboard trips at the strike
//!   threshold with `quarantine.*` ledgers balancing; quarantining every
//!   DPU degrades gracefully (shed queries, balanced ledgers, no panic);
//!   and the quarantine set is world-checked on checkpoint resume.

use alpha_pim::apps::{AppOptions, PprOptions};
use alpha_pim::serve::{
    fingerprint_results, seeded_trace_weighted, BatchOutcome, QueryResult, ServeConfig,
    ServeEngine,
};
use alpha_pim::service::{seeded_workload, Priority, ServiceConfig, ServiceEngine, TenantSpec};
use alpha_pim::{AlphaPim, CheckpointPolicy, CheckpointStore};
use alpha_pim_sim::par::set_sim_threads;
use alpha_pim_sim::report::{BatchReport, KernelReport};
use alpha_pim_sim::{CounterId, CounterSet, FaultPlan, HostCrashPlan, PimConfig, SimFidelity};
use alpha_pim_sparse::{datasets, Graph};

const SCALE: f64 = 0.02;
const SEED: u64 = 0xD1FF;
const FLIP_SEED: u64 = 0x0511_FBAD;

/// The silent-only storm: no detectable fault class fires, so any
/// divergence from a clean run is attributable to the integrity layer.
fn flips(rate: f64) -> FaultPlan {
    FaultPlan::silent(FLIP_SEED, rate)
}

fn engine(faults: Option<FaultPlan>) -> AlphaPim {
    AlphaPim::new(PimConfig {
        num_dpus: 64,
        fidelity: SimFidelity::Sampled(8),
        faults,
        ..Default::default()
    })
    .expect("valid config")
}

fn catalog_graphs() -> Vec<(&'static str, Graph)> {
    datasets::table2()
        .iter()
        .map(|spec| {
            let min_scale = (2_000.0 / spec.nodes as f64).min(1.0);
            let g = spec
                .generate_scaled(SCALE.max(min_scale), SEED)
                .expect("catalog recipes are valid");
            (spec.abbrev, g)
        })
        .collect()
}

/// Sums counters over all iterations and checks the corruption-outcome
/// ledger balances with zero remainder.
fn audit_sdc_ledger(reports: &[&KernelReport], ctx: &str) -> CounterSet {
    let mut total = CounterSet::new();
    for r in reports {
        total.merge(&r.breakdown.counters);
    }
    assert_eq!(
        total.get(CounterId::SdcInjected),
        total.get(CounterId::SdcDetected) + total.get(CounterId::SdcEscaped),
        "{ctx}: sdc outcome ledger has a remainder",
    );
    assert_eq!(
        total.get(CounterId::SdcDetected),
        total.get(CounterId::SdcCorrected),
        "{ctx}: every detected corruption must be corrected",
    );
    total
}

/// Distinct physical DPUs named in the run's corruption records.
fn corrupted_dpus(reports: &[&KernelReport]) -> Vec<u32> {
    let mut out: Vec<u32> = reports.iter().flat_map(|r| r.corrupted_dpus.clone()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn verified_answers_survive_silent_corruption_on_every_catalog_graph() {
    let clean_eng = engine(None);
    let flip_eng = engine(Some(flips(0.15)));
    let mut injected = 0u64;
    for (abbrev, graph) in catalog_graphs() {
        let weighted = graph.with_random_weights(9);

        let clean = clean_eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        let faulty = flip_eng.bfs(&graph, 0, &AppOptions::default()).expect("flipped bfs runs");
        assert_eq!(faulty.levels, clean.levels, "BFS levels corrupted on {abbrev}");
        assert!(!faulty.report.degraded, "silent flips must never degrade {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_sdc_ledger(&reports, &format!("BFS {abbrev}"));
        assert_eq!(total.get(CounterId::SdcEscaped), 0, "BFS {abbrev}: corruption escaped");
        if total.get(CounterId::SdcDetected) > 0 {
            assert!(
                !corrupted_dpus(&reports).is_empty(),
                "BFS {abbrev}: detections must name the offending physical DPUs",
            );
            assert!(
                total.get(CounterId::SdcRecomputeCycles) > 0,
                "BFS {abbrev}: corrections must charge recompute cycles",
            );
        }
        injected += total.get(CounterId::SdcInjected);

        let clean = clean_eng.sssp(&weighted, 0, &AppOptions::default()).expect("sssp runs");
        let faulty =
            flip_eng.sssp(&weighted, 0, &AppOptions::default()).expect("flipped sssp runs");
        assert_eq!(faulty.distances, clean.distances, "SSSP distances corrupted on {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_sdc_ledger(&reports, &format!("SSSP {abbrev}"));
        assert_eq!(total.get(CounterId::SdcEscaped), 0, "SSSP {abbrev}: corruption escaped");
        injected += total.get(CounterId::SdcInjected);

        let clean = clean_eng.ppr(&graph, 0, &PprOptions::default()).expect("ppr runs");
        let faulty = flip_eng.ppr(&graph, 0, &PprOptions::default()).expect("flipped ppr runs");
        // Correction recomputes the corrupted partition on the same seeded
        // machine, so even floating-point scores are bit-identical.
        assert_eq!(faulty.scores, clean.scores, "PPR scores corrupted on {abbrev}");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_sdc_ledger(&reports, &format!("PPR {abbrev}"));
        assert_eq!(total.get(CounterId::SdcEscaped), 0, "PPR {abbrev}: corruption escaped");
        injected += total.get(CounterId::SdcInjected);
    }
    assert!(injected > 0, "the flip plan never fired across the whole catalog");
}

#[test]
fn unverified_runs_let_every_injection_escape() {
    let clean_eng = engine(None);
    let mut plan = flips(0.15);
    plan.policy.verify_merges = false;
    let flip_eng = engine(Some(plan));
    let mut escaped = 0u64;
    let mut diverged = 0usize;
    for (abbrev, graph) in catalog_graphs() {
        let clean = clean_eng.bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        let faulty = flip_eng.bfs(&graph, 0, &AppOptions::default()).expect("flipped bfs runs");
        let reports: Vec<&KernelReport> =
            faulty.report.iterations.iter().map(|s| &s.kernel_report).collect();
        let total = audit_sdc_ledger(&reports, &format!("unverified BFS {abbrev}"));
        assert_eq!(
            total.get(CounterId::SdcDetected),
            0,
            "unverified BFS {abbrev}: nothing can be detected with the guard off",
        );
        assert_eq!(
            total.get(CounterId::SdcEscaped),
            total.get(CounterId::SdcInjected),
            "unverified BFS {abbrev}: every injection must be charged as escaped",
        );
        assert!(
            corrupted_dpus(&reports).is_empty(),
            "unverified BFS {abbrev}: escapes are silent — no DPU may be named",
        );
        escaped += total.get(CounterId::SdcEscaped);
        if faulty.levels != clean.levels {
            diverged += 1;
        }
    }
    assert!(escaped > 0, "the unverified sweep never injected anything");
    assert!(
        diverged > 0,
        "corruption escaped on every graph yet no BFS answer diverged — \
         the injector is not corrupting live outputs",
    );
}

#[test]
fn verified_flip_runs_are_bit_identical_across_thread_counts() {
    let (abbrev, graph) = catalog_graphs().swap_remove(4);
    set_sim_threads(1);
    let sequential =
        engine(Some(flips(0.2))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    for threads in [4, 7] {
        set_sim_threads(threads);
        let parallel =
            engine(Some(flips(0.2))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
        assert_eq!(parallel.levels, sequential.levels, "{abbrev}: levels diverged");
        for (p, s) in parallel.report.iterations.iter().zip(&sequential.report.iterations) {
            assert_eq!(
                p.kernel_report, s.kernel_report,
                "{abbrev}: flip verdicts or corruption records diverged at {threads} threads \
                 iter {}",
                s.index,
            );
        }
    }
    set_sim_threads(1);
}

/// A zero flip rate leaves the whole integrity layer inert: reports —
/// including every `sdc.*` counter — are byte-identical to a machine with
/// no fault plan at all, so clean goldens never move.
#[test]
fn zero_flip_rate_is_indistinguishable_from_no_fault_plan() {
    let (abbrev, graph) = catalog_graphs().swap_remove(0);
    let clean = engine(None).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    let gated = engine(Some(flips(0.0))).bfs(&graph, 0, &AppOptions::default()).expect("bfs runs");
    assert_eq!(gated.levels, clean.levels, "{abbrev}: levels moved");
    assert_eq!(
        gated.report.iterations.len(),
        clean.report.iterations.len(),
        "{abbrev}: iteration count moved",
    );
    for (g, c) in gated.report.iterations.iter().zip(&clean.report.iterations) {
        assert_eq!(g.kernel_report, c.kernel_report, "{abbrev}: report moved at iter {}", c.index);
        assert_eq!(
            g.kernel_report.breakdown.counters.get(CounterId::SdcChecks),
            0,
            "{abbrev}: the guard must not even count checks when inert",
        );
    }
}

#[test]
fn quarantine_replans_without_changing_answers() {
    let (_, graph) = catalog_graphs().swap_remove(2);
    let weighted = graph.with_random_weights(9);
    let eng = engine(None);
    // Exact (u32 min) semirings only: quarantine re-partitions the machine,
    // and f32 reductions legitimately re-associate across partition
    // boundaries — PPR closeness is asserted separately below.
    let trace = seeded_trace_weighted(weighted.nodes(), 12, 0x5EED, [1, 1, 0]);

    let mut healthy = ServeEngine::new(&eng, ServeConfig::default());
    let (expected, _) = healthy.serve(&weighted, &trace).expect("healthy serve");

    let mut quarantined = ServeEngine::new(&eng, ServeConfig::default());
    quarantined.set_quarantine(&[3, 17, 41]);
    assert_eq!(quarantined.quarantine(), &[3, 17, 41]);
    assert!(!quarantined.total_quarantine());
    let (actual, _) = quarantined.serve(&weighted, &trace).expect("quarantined serve");
    assert_eq!(
        fingerprint_results(&actual),
        fingerprint_results(&expected),
        "excluding DPUs re-partitions the machine but must never change exact answers",
    );

    // PPR on the reduced machine: same scores up to reassociation rounding.
    let ppr_trace = seeded_trace_weighted(weighted.nodes(), 4, 0x5EED, [0, 0, 1]);
    let (ppr_healthy, _) = healthy.serve(&weighted, &ppr_trace).expect("healthy ppr serve");
    let (ppr_reduced, _) = quarantined.serve(&weighted, &ppr_trace).expect("quarantined ppr serve");
    for (h, r) in ppr_healthy.iter().zip(&ppr_reduced) {
        let (QueryResult::Ppr(h), QueryResult::Ppr(r)) = (h, r) else {
            panic!("ppr-only trace produced a non-ppr result");
        };
        for (i, (&a, &b)) in h.scores.iter().zip(&r.scores).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1e-30),
                "PPR score {i} drifted beyond rounding under quarantine: {a} vs {b}",
            );
        }
    }

    // Lifting the quarantine restores the original plan (and its cache key).
    quarantined.set_quarantine(&[]);
    assert!(quarantined.quarantine().is_empty());
    let (again, _) = quarantined.serve(&weighted, &trace).expect("restored serve");
    assert_eq!(fingerprint_results(&again), fingerprint_results(&expected));
}

/// A batch report without its partition-cache accounting, which differs
/// by design between a warm engine and a cold one.
fn modulo_cache(report: &BatchReport) -> BatchReport {
    let mut r = report.clone();
    r.cache_hits = 0;
    r.cache_misses = 0;
    for id in [
        CounterId::ServeCacheHits,
        CounterId::ServeCacheMisses,
        CounterId::ServeCacheEvictions,
        CounterId::ServeEvictedBytes,
    ] {
        r.counters.set(id, 0);
    }
    r
}

/// Two quarantine sets of equal size share a serve-cache key (it carries
/// the DPU count, not which DPUs), so swapping between them reuses the
/// prepared matrices while the physical DPUs behind them — and with them
/// every fault fate and launch timing — change. Swapping A → B → A on one
/// engine must answer and account exactly as a cold engine quarantined to
/// the same set.
#[test]
fn equal_size_quarantine_swaps_match_cold_engines() {
    let (abbrev, graph) = catalog_graphs().swap_remove(2);
    let weighted = graph.with_random_weights(9);
    let plan = FaultPlan { straggler_rate: 0.2, ..flips(0.2) };
    let eng = engine(Some(plan));
    let config = ServeConfig {
        options: AppOptions {
            policy: alpha_pim::apps::KernelPolicy::SpmvOnly(alpha_pim::SpmvVariant::Dcoo2d),
            ..Default::default()
        },
        ..Default::default()
    };
    let trace = seeded_trace_weighted(weighted.nodes(), 6, 0x5EED, [1, 1, 1]);
    let set_a = [3, 17, 41];
    let set_b = [5, 18, 60];
    let cold = |set: &[u32]| {
        let mut serve = ServeEngine::new(&eng, config);
        serve.set_quarantine(set);
        serve.serve(&weighted, &trace).expect("cold quarantined serve")
    };
    let (want_a, reports_a) = cold(&set_a);
    let (want_b, reports_b) = cold(&set_b);
    assert_ne!(
        format!("{want_a:?}"),
        format!("{want_b:?}"),
        "{abbrev}: the two sets must differ in timing for the swap to test anything",
    );

    let mut swapped = ServeEngine::new(&eng, config);
    let steps = [(&set_a, &want_a, &reports_a), (&set_b, &want_b, &reports_b)];
    for (step, &(set, want, want_reports)) in [steps[0], steps[1], steps[0]].iter().enumerate() {
        swapped.set_quarantine(set);
        let (got, got_reports) = swapped.serve(&weighted, &trace).expect("swapped serve");
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{abbrev}: step {step} answers or per-iteration reports diverged from a cold engine",
        );
        let strip = |rs: &[BatchReport]| rs.iter().map(modulo_cache).collect::<Vec<_>>();
        assert_eq!(
            strip(&got_reports),
            strip(want_reports),
            "{abbrev}: step {step} batch accounting diverged from a cold engine",
        );
        if step > 0 {
            assert!(
                got_reports.iter().all(|r| r.cache_misses == 0),
                "{abbrev}: step {step} must reuse the prepared matrices",
            );
        }
    }
}

fn service_config(quarantine_threshold: Option<u32>) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantSpec { weight: 2, priority: Priority::High },
            TenantSpec { weight: 1, priority: Priority::Normal },
        ],
        queue_capacity: 4096,
        deadline_budget_cycles: None,
        quarantine_threshold,
        serve: ServeConfig { batch_size: 4, ..Default::default() },
    }
}

#[test]
fn service_scoreboard_quarantines_struck_dpus_and_balances_its_ledger() {
    let eng = engine(Some(flips(0.35)));
    let graphs = vec![catalog_graphs().swap_remove(1).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xABCD, 1_000, 48, 2, &nodes, [1, 1, 1]);
    let mut svc = ServiceEngine::new(&eng, service_config(Some(2)));
    let report = svc.run(&graphs, &workload).expect("service survives quarantine churn");

    let c = &report.counters;
    assert_eq!(
        c.get(CounterId::QuarantineDpusTotal),
        c.get(CounterId::QuarantineDpusActive) + c.get(CounterId::QuarantineDpusQuarantined),
        "quarantine machine ledger has a remainder",
    );
    assert_eq!(c.get(CounterId::QuarantineDpusTotal), 64, "scoreboard must track physical DPUs");
    assert!(
        c.get(CounterId::QuarantineStrikes) > 0,
        "a 35% flip rate over 48 queries must record strikes",
    );
    assert!(
        c.get(CounterId::QuarantineEvents) > 0,
        "threshold 2 under sustained strikes must quarantine someone",
    );
    assert_eq!(
        c.get(CounterId::QuarantineEvents),
        c.get(CounterId::QuarantineDpusQuarantined),
        "each quarantine event retires exactly one DPU",
    );
    assert!(
        c.get(CounterId::QuarantineReplans) > 0,
        "tripping the threshold must rebuild the serving plan",
    );
    assert!(
        c.get(CounterId::QuarantineStrikes) >= 2 * c.get(CounterId::QuarantineEvents),
        "no DPU may be quarantined below the strike threshold",
    );
    // Detection still corrects everything while healthy DPUs remain.
    assert_eq!(c.get(CounterId::SdcEscaped), 0, "corruption escaped despite verification");
    assert_eq!(
        report.arrivals(),
        report.admitted() + report.rejected(),
        "admission ledger broke under quarantine",
    );
    assert_eq!(
        report.admitted(),
        report.served() + report.shed_wait() + report.shed_deadline(),
        "outcome ledger broke under quarantine",
    );
}

/// Threshold disabled (the default): the same storm records nothing on the
/// quarantine ledger and never re-plans, so existing golden counter rows
/// stay all-zero.
#[test]
fn disabled_scoreboard_keeps_quarantine_counters_zero() {
    let eng = engine(Some(flips(0.35)));
    let graphs = vec![catalog_graphs().swap_remove(1).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xABCD, 1_000, 16, 2, &nodes, [1, 1, 1]);
    let mut svc = ServiceEngine::new(&eng, service_config(None));
    let report = svc.run(&graphs, &workload).expect("service runs");
    for id in [
        CounterId::QuarantineStrikes,
        CounterId::QuarantineEvents,
        CounterId::QuarantineReplans,
        CounterId::QuarantineDpusTotal,
        CounterId::QuarantineDpusActive,
        CounterId::QuarantineDpusQuarantined,
    ] {
        assert_eq!(report.counters.get(id), 0, "{id} must stay zero with no threshold");
    }
}

/// Every DPU quarantined mid-run: the machine has nowhere left to execute,
/// so remaining queries shed to degraded partial results — batches keep
/// completing, tenant ledgers keep balancing, and nothing panics.
#[test]
fn total_quarantine_degrades_gracefully() {
    let small = AlphaPim::new(PimConfig {
        num_dpus: 4,
        fidelity: SimFidelity::Full,
        faults: Some(flips(1.0)),
        ..Default::default()
    })
    .expect("valid config");
    let graphs = vec![catalog_graphs().swap_remove(0).1.with_random_weights(9)];
    let nodes: Vec<u32> = graphs.iter().map(|g| g.nodes()).collect();
    let workload = seeded_workload(0xFADE, 1_000, 32, 2, &nodes, [1, 1, 1]);
    let mut config = service_config(Some(1));
    config.serve.batch_size = 2;
    let mut svc = ServiceEngine::new(&small, config);
    let report = svc.run(&graphs, &workload).expect("total quarantine must not error");

    let c = &report.counters;
    assert_eq!(
        c.get(CounterId::QuarantineDpusQuarantined),
        c.get(CounterId::QuarantineDpusTotal),
        "a 100% flip rate at threshold 1 must eventually retire the whole machine",
    );
    assert_eq!(c.get(CounterId::QuarantineDpusActive), 0);
    assert!(
        report.shed_deadline() > 0,
        "queries after total quarantine must shed to degraded results",
    );
    assert!(report.served() > 0, "queries before the scoreboard tripped must still serve");
    assert_eq!(report.arrivals(), report.admitted() + report.rejected());
    assert_eq!(
        report.admitted(),
        report.served() + report.shed_wait() + report.shed_deadline(),
    );
    for (t, ledger) in report.tenants.iter().enumerate() {
        assert_eq!(ledger.arrivals, ledger.admitted + ledger.rejected, "tenant {t}");
        assert_eq!(
            ledger.admitted,
            ledger.served + ledger.shed_wait + ledger.shed_deadline,
            "tenant {t}",
        );
    }
}


/// The batch snapshot carries the quarantine set (checkpoint layout v3):
/// resuming under the same quarantine finishes bit-identically to an
/// uninterrupted run, and resuming under a different machine shape is
/// rejected as a world mismatch instead of silently merging misrouted
/// partitions.
#[test]
fn quarantine_state_is_world_checked_on_resume() {
    let (_, graph) = catalog_graphs().swap_remove(3);
    let weighted = graph.with_random_weights(9);
    let eng = engine(None);
    let trace = seeded_trace_weighted(weighted.nodes(), 8, 0x5EED, [1, 1, 1]);
    let config = ServeConfig {
        batch_size: 8,
        checkpoint: CheckpointPolicy::EveryN(1),
        ..Default::default()
    };
    let quarantine = [5u32, 9];

    // The uninterrupted referee under the same quarantine.
    let mut referee = ServeEngine::new(&eng, config);
    referee.set_quarantine(&quarantine);
    let expected = match referee
        .run_batch_resilient(&weighted, &trace, 0, None, None)
        .expect("uninterrupted batch")
    {
        BatchOutcome::Completed(rs, _) => fingerprint_results(&rs),
        BatchOutcome::Crashed { .. } => unreachable!("no crash was planned"),
    };

    // Crash mid-batch, leaving the snapshot + journal on disk.
    let dir = std::env::temp_dir().join(format!("alpha_pim_integrity_{}", std::process::id()));
    let store = CheckpointStore::open(dir.to_str().expect("utf8 temp path")).expect("store opens");
    let mut victim = ServeEngine::new(&eng, config);
    victim.set_quarantine(&quarantine);
    let checkpoint = match victim
        .run_batch_resilient(&weighted, &trace, 0, Some(HostCrashPlan::at(1)), Some(&store))
        .expect("crash is a planned outcome")
    {
        BatchOutcome::Crashed { checkpoint, .. } => checkpoint,
        BatchOutcome::Completed(..) => panic!("planned crash never fired"),
    };

    // A restarted host with a *different* quarantine view must be refused.
    let mut wrong_world = ServeEngine::new(&eng, config);
    wrong_world.set_quarantine(&[5]);
    assert!(
        wrong_world.resume_batch(&weighted, &checkpoint, None, Some(&store)).is_err(),
        "resuming a snapshot from a differently-quarantined machine must fail the world check",
    );

    // The same quarantine view resumes to a bit-identical answer.
    let mut resumed = ServeEngine::new(&eng, config);
    resumed.set_quarantine(&quarantine);
    let actual = match resumed
        .resume_batch(&weighted, &checkpoint, None, Some(&store))
        .expect("matching world resumes")
    {
        BatchOutcome::Completed(rs, _) => fingerprint_results(&rs),
        BatchOutcome::Crashed { .. } => unreachable!("no second crash was planned"),
    };
    assert_eq!(actual, expected, "resumed answers diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}
