//! The four workloads and the isolated probe calls of traced runs.
//!
//! Each workload sets up (graph generation, engine build, cache warm-up)
//! [`SETUPS`](crate::SETUPS) times, then runs rounds of a fixed,
//! seed-derived query set until the measured calls add up to `--seconds`.
//! Only calls into the program are timed; answer checks run between them.
//! Rounds in the model window always run, so every model-clock figure is
//! the same however fast the host is.

use std::hint::black_box;
use std::time::Instant;

use alpha_pim::apps::ppr::transition_transpose;
use alpha_pim::apps::{AppOptions, KernelPolicy, PprOptions};
use alpha_pim::delta::DeltaEngine;
use alpha_pim::serve::{
    fingerprint_fold, fingerprint_results, Query, QueryResult, ServeConfig, ServeEngine,
    FINGERPRINT_SEED,
};
use alpha_pim::service::{
    Arrival, Priority, ServiceConfig, ServiceEngine, ServiceReport, TenantSpec,
};
use alpha_pim::{
    AlphaPim, FastPath, MinPlus, PlusTimes, PreparedSpmspv, PreparedSpmv, Semiring, SpmspvVariant,
    SpmvVariant,
};
use alpha_pim_sim::{OpenLoopArrivals, PimConfig, PimSystem, SimFidelity};
use alpha_pim_sparse::datasets::by_abbrev;
use alpha_pim_sparse::delta::seeded_batch;
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{Coo, DenseVector, Graph, SparseVector};

use crate::referee::Referee;
use crate::{Ctx, Info, Plan, Workload};

/// Largest synthetic edge weight (SSSP needs weighted edges).
const MAX_WEIGHT: u32 = 16;
/// Generator seed of the serving workloads' catalog graphs, the CLI's
/// default: the graphs are fixed datasets, and `--seed` draws the queries,
/// arrivals and mutations over them.
const GRAPH_SEED: u64 = 42;
/// Timed repetitions of a cheap probe call; its metric is the median.
const PROBE_REPS: usize = 5;
/// Repetitions of a cycle-replay probe launch.
const REPLAY_REPS: usize = 3;

/// Runs `ctx.opts.workload`.
pub(crate) fn run(ctx: &mut Ctx) -> Result<Info, String> {
    match ctx.opts.workload {
        Workload::PprDense => ppr_dense(ctx),
        Workload::TraverseMutate => traverse_mutate(ctx),
        Workload::ServiceMix => service_mix(ctx),
        Workload::ReplayPaper => replay_paper(ctx),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// An independent stream seed for input `salt` of run seed `seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// `count` distinct seeded vertices of an `n`-vertex graph.
fn sources(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<u32> = Vec::with_capacity(count);
    while out.len() < count.min(n as usize) {
        let v = rng.u32_below(n);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn source_of(q: Query) -> u32 {
    match q {
        Query::Bfs { source } | Query::Sssp { source } | Query::Ppr { source } => source,
    }
}

/// A catalog graph at `scale` from generator seed `seed`, with synthetic
/// weights.
fn generate(ctx: &mut Ctx, abbrev: &'static str, scale: f64, seed: u64) -> Result<Graph, String> {
    let spec = by_abbrev(abbrev).ok_or_else(|| format!("unknown catalog graph {abbrev}"))?;
    let token = ctx.tracer.enter("sparse.generate", None);
    let graph = spec
        .generate_scaled(scale, seed)
        .map_err(err)?
        .with_random_weights(MAX_WEIGHT);
    ctx.tracer.exit(token);
    Ok(graph)
}

/// An engine with `dpus` DPUs whose own supersteps replay a 64-DPU sample
/// (the figure-harness fidelity); serving layers may still take the
/// analytic fast path.
fn build_engine(ctx: &mut Ctx, dpus: u32) -> Result<AlphaPim, String> {
    let config = PimConfig {
        num_dpus: dpus,
        fidelity: SimFidelity::Sampled(64),
        ..PimConfig::default()
    };
    ctx.tracer
        .span("engine.build", None, || AlphaPim::new(config))
        .map_err(err)
}

/// BFS/SSSP serving config whose iteration cap cannot cut a traversal short.
fn traversal_config(graph: &Graph, fast_path: FastPath) -> ServeConfig {
    ServeConfig {
        fast_path,
        options: AppOptions {
            max_iterations: graph.nodes(),
            ..AppOptions::default()
        },
        ..ServeConfig::default()
    }
}

/// Checks `answers` against `referee`; wrong answers count as failed.
fn referee_check<'r>(
    ctx: &mut Ctx,
    referee: &Referee,
    answers: impl IntoIterator<Item = (u32, &'r QueryResult)>,
) {
    let token = ctx.tracer.enter("referee", None);
    for (source, result) in answers {
        if let Err(e) = referee.check(source, result) {
            ctx.fail(1, format!("wrong answer: {e}"));
        }
    }
    ctx.tracer.exit(token);
}

/// Rounds `k` and `k - period` ran the same inputs, so their model
/// outputs must match; the first `period` rounds set the reference.
fn check_repeat(ctx: &mut Ctx, k: usize, period: usize, digest: u64) {
    if k < period {
        ctx.fingerprints.push(digest);
    } else if ctx.fingerprints.get(k % period) != Some(&digest) {
        ctx.fail(
            1,
            format!(
                "round {k} repeated round {} but its model output differs",
                k % period
            ),
        );
    }
}

fn count_launches(ctx: &mut Ctx, results: &[QueryResult]) {
    let (spmv, spmspv) = Ctx::launches(results);
    ctx.counts.spmv_launches += spmv;
    ctx.counts.spmspv_launches += spmspv;
}

/// `ppr_dense`: PPR-only batches on A302, every superstep a dense SpMV
/// (record, analytic evaluate, merge and ABFT guard). Closed loop, one
/// client; identical rounds of 16 queries in batches of 2.
fn ppr_dense(ctx: &mut Ctx) -> Result<Info, String> {
    const BATCH: usize = 2;
    const QUERIES: usize = 16;
    let seed = ctx.opts.seed;
    let spmv = KernelPolicy::SpmvOnly(SpmvVariant::Dcoo2d);
    let defaults = PprOptions::default();
    let config = ServeConfig {
        batch_size: BATCH as u32,
        fast_path: FastPath::Analytic,
        options: AppOptions {
            policy: spmv,
            ..AppOptions::default()
        },
        ppr: PprOptions {
            app: AppOptions {
                policy: spmv,
                ..defaults.app
            },
            ..defaults
        },
        ..ServeConfig::default()
    };
    let warm = |g: &Graph| {
        [Query::Ppr {
            source: g.nodes() / 2,
        }]
    };

    let (graph, engine) = ctx.setups(|ctx| {
        let graph = generate(ctx, "A302", 0.1, GRAPH_SEED)?;
        let engine = build_engine(ctx, 64)?;
        let mut serve = ServeEngine::new(&engine, config);
        ctx.tracer
            .span("warmup", None, || serve.run_batch(&graph, &warm(&graph)))
            .map_err(err)?;
        Ok((graph, engine))
    })?;
    let mut serve = ServeEngine::new(&engine, config);
    serve.run_batch(&graph, &warm(&graph)).map_err(err)?;
    let referee = Referee::new(&graph, config.ppr.alpha);
    let queries: Vec<Query> = sources(graph.nodes(), QUERIES, mix(seed, 2))
        .into_iter()
        .map(|source| Query::Ppr { source })
        .collect();

    ctx.start_rounds(Plan {
        model_rounds: 1,
        first_comparable: 0,
    });
    while ctx.more_rounds() {
        let k = ctx.begin_round();
        let round = ctx.tracer.enter("round", None);
        let (mut wall, mut answered, mut model_s, mut digest) = (0.0, 0u64, 0.0, FINGERPRINT_SEED);
        let mut answers = Vec::new();
        for chunk in queries.chunks(BATCH) {
            let qid = ctx.query_ids(chunk.len());
            ctx.attempted += chunk.len() as u64;
            let token = ctx.tracer.enter("serve.run_batch", Some(qid));
            let t = Instant::now();
            let out = serve.run_batch(&graph, chunk);
            let dt = t.elapsed().as_secs_f64();
            ctx.tracer.exit(token);
            wall += dt;
            let (results, batch) = match out {
                Ok(v) => v,
                Err(e) => {
                    ctx.fail(chunk.len() as u64, format!("run_batch: {e}"));
                    continue;
                }
            };
            answered += results.len() as u64;
            model_s += batch.batched_seconds;
            ctx.call_wall(k, dt, results.len() as u64);
            if token.is_some() {
                let (spmv, spmspv) = Ctx::launches(&results);
                ctx.batch_launches.0 += spmv;
                ctx.batch_launches.1 += spmspv;
            }
            if ctx.in_window(k) {
                count_launches(ctx, &results);
                ctx.counts.cache_hits += batch.cache_hits;
                ctx.counts.cache_misses += batch.cache_misses;
                ctx.model_latency_ms
                    .extend(results.iter().map(|_| batch.batched_seconds * 1e3));
            }
            digest = fingerprint_fold(digest, &results);
            if k == 0 {
                answers.extend(chunk.iter().map(|&q| source_of(q)).zip(results));
            }
        }
        ctx.tracer.exit(round);
        if ctx.in_window(k) {
            ctx.model_window_s += model_s;
        }
        check_repeat(ctx, k, 1, digest);
        referee_check(ctx, &referee, answers.iter().map(|(s, r)| (*s, r)));
        ctx.end_round(k, wall, answered, model_s);
    }
    ctx.counts.has_cache = true;

    if ctx.opts.trace {
        let probe = ctx.tracer.enter("probe", None);
        probe_kernels(ctx, &engine, &graph)?;
        let traversal = traversal_config(&graph, FastPath::Analytic);
        probe_delta(ctx, &engine, &graph, traversal, source_of(queries[0]))?;
        probe_service(ctx, &engine, &graph, FastPath::Analytic)?;
        ctx.tracer.exit(probe);
    }
    Ok(Info {
        graphs: vec![("A302", graph.nodes(), graph.edges())],
        dpus: 64,
        fidelity: "analytic",
    })
}

/// `traverse_mutate`: BFS and SSSP on r-TX, one `DeltaEngine::serve`
/// call per query, with a seeded mutation batch before every round after
/// the first. Each round queries 8 resident sources, which later rounds
/// repair incrementally, and 2 fresh ones, computed from scratch.
fn traverse_mutate(ctx: &mut Ctx) -> Result<Info, String> {
    const RESIDENT: usize = 8;
    const FRESH: usize = 2;
    const MUTATION_OPS: usize = 64;
    const DPUS: u32 = 64;
    let seed = ctx.opts.seed;
    let warm = |g: &Graph| {
        [
            Query::Bfs {
                source: g.nodes() / 2,
            },
            Query::Sssp {
                source: g.nodes() / 2,
            },
        ]
    };

    let (graph, engine) = ctx.setups(|ctx| {
        let graph = generate(ctx, "r-TX", 0.1, GRAPH_SEED)?;
        let engine = build_engine(ctx, DPUS)?;
        let config = traversal_config(&graph, FastPath::Analytic);
        let mut delta = DeltaEngine::new(&engine, config, &graph, DPUS).map_err(err)?;
        ctx.tracer
            .span("warmup", None, || delta.serve(&warm(&graph)))
            .map_err(err)?;
        Ok((graph, engine))
    })?;
    let config = traversal_config(&graph, FastPath::Analytic);
    let mut delta = DeltaEngine::new(&engine, config, &graph, DPUS).map_err(err)?;
    delta.serve(&warm(&graph)).map_err(err)?;
    let both = |source| [Query::Bfs { source }, Query::Sssp { source }];
    let resident: Vec<Query> = sources(graph.nodes(), RESIDENT, mix(seed, 2))
        .into_iter()
        .flat_map(both)
        .collect();

    // Repaired queries are far cheaper than full ones. With a fifth of each
    // round fresh, and all of round 0, the p50s fall inside the repaired
    // group and the p90/p99 inside the full one, never on the gap between
    // them. Nine window rounds average the model figures over eight
    // mutation batches.
    ctx.start_rounds(Plan {
        model_rounds: 9,
        first_comparable: 1,
    });
    while ctx.more_rounds() {
        let k = ctx.begin_round();
        let window = ctx.in_window(k);
        let round = ctx.tracer.enter("round", None);
        let (mut wall, mut answered, mut model_s, mut digest) = (0.0, 0u64, 0.0, FINGERPRINT_SEED);
        let (hits, misses) = (
            delta.serve_engine().cache_hits(),
            delta.serve_engine().cache_misses(),
        );
        if k > 0 {
            let batch = seeded_batch(
                delta.graph().adjacency(),
                mix(seed, 100 + k as u64),
                MUTATION_OPS,
                MAX_WEIGHT,
            );
            let token = ctx.tracer.enter("delta.mutate", None);
            let t = Instant::now();
            let out = delta.mutate(&batch);
            wall += t.elapsed().as_secs_f64();
            ctx.tracer.exit(token);
            match out {
                Ok(report) if window => {
                    ctx.counts.dirty_parts += report.dirty_partitions;
                    ctx.counts.total_parts += report.dirty_partitions + report.clean_partitions;
                }
                Ok(_) => {}
                Err(e) => ctx.fail(1, format!("mutate: {e}")),
            }
        }
        let referee = ctx.tracer.span("referee.build", None, || {
            Referee::new(delta.graph(), config.ppr.alpha)
        });
        let fresh = sources(graph.nodes(), FRESH, mix(seed, 200 + k as u64))
            .into_iter()
            .flat_map(both);
        for q in resident.iter().copied().chain(fresh) {
            let qid = ctx.query_ids(1);
            ctx.attempted += 1;
            let token = ctx.tracer.enter("delta.serve", Some(qid));
            let t = Instant::now();
            let out = delta.serve(&[q]);
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            let (results, stats) = match out {
                Ok((results, stats)) if results.len() == 1 && stats.len() == 1 => (results, stats),
                Ok(_) => {
                    ctx.tracer.exit(token);
                    ctx.fail(
                        1,
                        "delta.serve returned no single answer for one query".to_string(),
                    );
                    continue;
                }
                Err(e) => {
                    ctx.tracer.exit(token);
                    ctx.fail(1, format!("delta.serve: {e}"));
                    continue;
                }
            };
            let s = stats[0];
            ctx.tracer.exit_as(
                token,
                if s.incremental {
                    "delta.serve.incremental"
                } else {
                    "delta.serve.full"
                },
            );
            let query_model_s = results[0].report().total_seconds();
            answered += 1;
            model_s += query_model_s;
            ctx.call_wall(k, dt, 1);
            if window {
                count_launches(ctx, &results);
                ctx.model_latency_ms.push(query_model_s * 1e3);
                ctx.counts.delta_queries += 1;
                ctx.counts.incremental += u64::from(s.incremental);
                ctx.counts.frontier_full += s.frontier_full;
                ctx.counts.frontier_saved += s.frontier_saved;
            }
            digest = fingerprint_fold(digest, &results);
            referee_check(ctx, &referee, [(source_of(q), &results[0])]);
        }
        ctx.tracer.exit(round);
        if window {
            ctx.counts.cache_hits += delta.serve_engine().cache_hits() - hits;
            ctx.counts.cache_misses += delta.serve_engine().cache_misses() - misses;
            ctx.model_window_s += model_s;
            ctx.fingerprints.push(digest);
        }
        ctx.end_round(k, wall, answered, model_s);
    }
    ctx.counts.has_cache = true;
    ctx.counts.has_delta = true;

    if ctx.opts.trace {
        let probe = ctx.tracer.enter("probe", None);
        probe_kernels(ctx, &engine, &graph)?;
        probe_serve(ctx, &engine, &graph, config, &resident[..2])?;
        probe_service(ctx, &engine, &graph, FastPath::Analytic)?;
        ctx.tracer.exit(probe);
    }
    Ok(Info {
        graphs: vec![("r-TX", graph.nodes(), graph.edges())],
        dpus: DPUS,
        fidelity: "analytic",
    })
}

/// Tenants of the service workloads: weights and priorities 4:2:1.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            weight: 4,
            priority: Priority::High,
        },
        TenantSpec {
            weight: 2,
            priority: Priority::Normal,
        },
        TenantSpec {
            weight: 1,
            priority: Priority::Low,
        },
    ]
}

/// The `BENCH_service_load` service shape: queue 4096, budget 1e8
/// cycles, batches of 32, room in the cache for every (graph, app) pair.
fn service_config(graphs: usize, fast_path: FastPath) -> ServiceConfig {
    ServiceConfig {
        tenants: tenants(),
        queue_capacity: 4096,
        deadline_budget_cycles: Some(100_000_000),
        quarantine_threshold: None,
        serve: ServeConfig {
            batch_size: 32,
            cache_capacity: (graphs * 3).max(8),
            fast_path,
            ..ServeConfig::default()
        },
    }
}

/// One arrival per (graph, app), far apart: prepares every cached engine.
fn service_warmup(graphs: &[Graph]) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (g, graph) in graphs.iter().enumerate() {
        let source = graph.nodes() / 2;
        for query in [
            Query::Bfs { source },
            Query::Sssp { source },
            Query::Ppr { source },
        ] {
            let at_cycle = out.len() as u64 * 1_000_000_000;
            out.push(Arrival {
                at_cycle,
                tenant: 0,
                graph: g as u32,
                query,
            });
        }
    }
    out
}

/// A seeded open-loop trace in the shape of `seeded_workload`: Poisson
/// arrival times from `OpenLoopArrivals` with mean gap `mean_gap` cycles,
/// uniform sources. Its composition is held exact, though: tenants, graphs
/// and the `[bfs, sssp, ppr]` mix each appear in fixed proportion,
/// shuffled, so traces of different seeds differ in timing and order but
/// not in how much work they hold.
fn stratified_trace(
    seed: u64,
    mean_gap: u64,
    count: usize,
    tenants: u32,
    nodes: &[u32],
    mix: [u32; 3],
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_CAFE);
    let pattern: Vec<usize> = (0..3)
        .flat_map(|app| std::iter::repeat_n(app, mix[app] as usize))
        .collect();
    let mut apps: Vec<usize> = (0..count).map(|i| pattern[i % pattern.len()]).collect();
    let mut owners: Vec<u32> = (0..count).map(|i| i as u32 % tenants).collect();
    let mut graphs: Vec<usize> = (0..count).map(|i| i % nodes.len()).collect();
    shuffle(&mut apps, &mut rng);
    shuffle(&mut owners, &mut rng);
    shuffle(&mut graphs, &mut rng);
    let times = OpenLoopArrivals::new(seed, mean_gap).times(count);
    (0..count)
        .map(|i| {
            let source = rng.u32_below(nodes[graphs[i]]);
            let query = match apps[i] {
                0 => Query::Bfs { source },
                1 => Query::Sssp { source },
                _ => Query::Ppr { source },
            };
            Arrival {
                at_cycle: times[i],
                tenant: owners[i],
                graph: graphs[i] as u32,
                query,
            }
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_below(i + 1));
    }
}

/// Checks a service report's admission/outcome ledgers.
fn ledgers_balance(report: &ServiceReport, arrivals: usize) -> bool {
    report.arrivals() == arrivals as u64
        && report.arrivals() == report.admitted() + report.rejected()
        && report.admitted() == report.served() + report.shed_wait() + report.shed_deadline()
        && report.latencies_cycles.len() == report.dispatch_order.len()
}

fn record_service_counts(ctx: &mut Ctx, report: &ServiceReport) {
    let c = &mut ctx.counts;
    c.arrivals += report.arrivals();
    c.admitted += report.admitted();
    c.rejected += report.rejected();
    c.shed += report.shed_wait() + report.shed_deadline();
    c.wait_cycles += report.tenants.iter().map(|t| t.wait_cycles).sum::<u64>();
    c.latency_cycles += report.latencies_cycles.iter().sum::<u64>();
}

/// Re-serves a service run's executed queries through a fresh
/// `ServeEngine`, in dispatch order and batch size, and checks them: the
/// answers against the referees, and (when no query was shed mid-run)
/// their fingerprint against the service's. Returns the host seconds the
/// re-serve took and its results. Batches are spanned as `span`.
fn reserve_and_check(
    ctx: &mut Ctx,
    span: &'static str,
    engine: &AlphaPim,
    graphs: &[Graph],
    config: &ServiceConfig,
    workload: &[Arrival],
    report: &ServiceReport,
) -> Result<(f64, Vec<QueryResult>), String> {
    let order: Vec<&Arrival> = report
        .dispatch_order
        .iter()
        .map(|&i| {
            workload
                .get(i as usize)
                .ok_or_else(|| format!("dispatch index {i} out of range"))
        })
        .collect::<Result<_, _>>()?;
    let mut serve = ServeEngine::new(engine, config.serve);
    let batch = config.serve.batch_size.max(1) as usize;
    let mut results = Vec::with_capacity(order.len());
    let mut seconds = 0.0;
    let mut i = 0;
    while i < order.len() {
        let g = order[i].graph;
        let mut j = i + 1;
        while j < order.len() && j - i < batch && order[j].graph == g {
            j += 1;
        }
        let queries: Vec<Query> = order[i..j].iter().map(|a| a.query).collect();
        let graph = graphs
            .get(g as usize)
            .ok_or_else(|| format!("graph index {g} out of range"))?;
        let qid = ctx.query_ids(queries.len());
        let token = ctx.tracer.enter(span, Some(qid));
        let t = Instant::now();
        let out = serve.run_batch(graph, &queries);
        seconds += t.elapsed().as_secs_f64();
        ctx.tracer.exit(token);
        let (rs, _) = out.map_err(|e| format!("re-serve run_batch: {e}"))?;
        if token.is_some() && span == "serve.run_batch" {
            let (spmv, spmspv) = Ctx::launches(&rs);
            ctx.batch_launches.0 += spmv;
            ctx.batch_launches.1 += spmspv;
        }
        results.extend(rs);
        i = j;
    }
    if report.shed_deadline() == 0 && fingerprint_results(&results) != report.result_fingerprint {
        ctx.fail(
            1,
            "service answers differ from a fresh serve engine's".to_string(),
        );
    }
    let referees: Vec<Referee> = graphs
        .iter()
        .map(|g| Referee::new(g, config.serve.ppr.alpha))
        .collect();
    let token = ctx.tracer.enter("referee", None);
    for (a, r) in order.iter().zip(&results) {
        if let Err(e) = referees[a.graph as usize].check(source_of(a.query), r) {
            ctx.fail(1, format!("wrong service answer: {e}"));
        }
    }
    ctx.tracer.exit(token);
    Ok((seconds, results))
}

/// `service_mix`: open-loop, model-clock-paced arrivals from 3 weighted
/// tenants over three hosted graphs, below saturation. Rounds cycle
/// through 48 seeded traces of equal composition; all of them form the
/// model window, so the model p99 rests on 4,800 arrivals. Short runs give
/// each measured run 40 or more calls, so one slow call cannot set the p90.
fn service_mix(ctx: &mut Ctx) -> Result<Info, String> {
    const GRAPHS: [&str; 3] = ["as00", "face", "p2p-24"];
    const ARRIVALS: usize = 100;
    const TRACES: usize = 48;
    const MEAN_GAP_CYCLES: u64 = 750_000;
    const MIX: [u32; 3] = [4, 4, 1];
    const DPUS: u32 = 32;
    let seed = ctx.opts.seed;
    let config = service_config(GRAPHS.len(), FastPath::Analytic);

    let (graphs, engine) = ctx.setups(|ctx| {
        let graphs = GRAPHS
            .iter()
            .map(|g| generate(ctx, g, 0.1, GRAPH_SEED))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = build_engine(ctx, DPUS)?;
        let mut service = ServiceEngine::new(&engine, config.clone());
        ctx.tracer
            .span("warmup", None, || {
                service.run(&graphs, &service_warmup(&graphs))
            })
            .map_err(err)?;
        Ok((graphs, engine))
    })?;
    let mut service = ServiceEngine::new(&engine, config.clone());
    service
        .run(&graphs, &service_warmup(&graphs))
        .map_err(err)?;
    let nodes: Vec<u32> = graphs.iter().map(Graph::nodes).collect();
    let traces: Vec<Vec<Arrival>> = (0..TRACES as u64)
        .map(|i| stratified_trace(mix(seed, 10 + i), MEAN_GAP_CYCLES, ARRIVALS, 3, &nodes, MIX))
        .collect();

    // Every trace holds the same mix, so traced and untraced rounds can
    // simply alternate.
    ctx.start_rounds(Plan {
        model_rounds: TRACES,
        first_comparable: 0,
    });
    let mut first: Option<(ServiceReport, f64)> = None;
    while ctx.more_rounds() {
        let k = ctx.begin_round();
        let workload = &traces[k % TRACES];
        let qid = ctx.query_ids(workload.len());
        ctx.attempted += workload.len() as u64;
        let (hits, misses) = (
            service.serve_engine().cache_hits(),
            service.serve_engine().cache_misses(),
        );
        let token = ctx.tracer.enter("service.run", Some(qid));
        let t = Instant::now();
        let out = service.run(&graphs, workload);
        let dt = t.elapsed().as_secs_f64();
        ctx.tracer.exit(token);
        let report = match out {
            Ok(r) => r,
            Err(e) => {
                ctx.fail(workload.len() as u64, format!("service.run: {e}"));
                ctx.end_round(k, dt, 0, 0.0);
                continue;
            }
        };
        if !ledgers_balance(&report, workload.len()) {
            ctx.fail(1, format!("round {k}: service ledgers do not balance"));
        }
        let model_s = report.makespan_cycles as f64 * report.cycle_seconds;
        ctx.unanswered += report.rejected() + report.shed_wait() + report.shed_deadline();
        ctx.call_wall(k, dt, report.served());
        if ctx.in_window(k) {
            record_service_counts(ctx, &report);
            ctx.counts.cache_hits += service.serve_engine().cache_hits() - hits;
            ctx.counts.cache_misses += service.serve_engine().cache_misses() - misses;
            ctx.model_latency_ms.extend(
                report
                    .latencies_cycles
                    .iter()
                    .map(|&c| c as f64 * report.cycle_seconds * 1e3),
            );
            ctx.model_window_s += model_s;
        }
        check_repeat(
            ctx,
            k,
            TRACES,
            report.result_fingerprint ^ report.makespan_cycles.rotate_left(32),
        );
        ctx.end_round(k, dt, report.served(), model_s);
        if k == 0 {
            first = Some((report, dt));
        }
    }
    ctx.counts.has_cache = true;
    ctx.counts.has_service = true;

    // Round 0 re-served: the answer check, the launch counts, and the
    // service layer's own share of its run time.
    if let Some((report, run_s)) = first {
        let (reserve_s, results) = reserve_and_check(
            ctx,
            "serve.run_batch",
            &engine,
            &graphs,
            &config,
            &traces[0],
            &report,
        )?;
        count_launches(ctx, &results);
        ctx.reserve = Some((reserve_s, run_s));
    }

    if ctx.opts.trace {
        let probe = ctx.tracer.enter("probe", None);
        probe_kernels(ctx, &engine, &graphs[0])?;
        let traversal = traversal_config(&graphs[0], FastPath::Analytic);
        probe_delta(ctx, &engine, &graphs[0], traversal, 0)?;
        ctx.tracer.exit(probe);
    }
    let infos = GRAPHS
        .iter()
        .zip(&graphs)
        .map(|(name, g)| (*name, g.nodes(), g.edges()))
        .collect();
    Ok(Info {
        graphs: infos,
        dpus: DPUS,
        fidelity: "analytic",
    })
}

/// `replay_paper`: the figure harness's own calls,
/// `AlphaPim::{bfs,sssp,ppr}` from vertex 0 with default options, on g-18
/// and r-PA at its config (2048 DPUs, `Sampled(64)`, scale 0.12, harness
/// generator seed), every superstep timed by cycle replay. These inputs
/// are what regenerating the paper's figures runs, so they do not depend
/// on `--seed`. No cache to warm.
fn replay_paper(ctx: &mut Ctx) -> Result<Info, String> {
    const GRAPHS: [&str; 2] = ["g-18", "r-PA"];
    const DPUS: u32 = 2048;
    const HARNESS_SEED: u64 = 0xA1FA_71A5;
    let (graphs, engine) = ctx.setups(|ctx| {
        let graphs = GRAPHS
            .iter()
            .map(|g| generate(ctx, g, 0.12, HARNESS_SEED))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((graphs, build_engine(ctx, DPUS)?))
    })?;
    let ppr = PprOptions::default();
    let options = AppOptions::default();
    let referees: Vec<Referee> = graphs.iter().map(|g| Referee::new(g, ppr.alpha)).collect();
    let source = 0;
    let calls: Vec<(usize, Query)> = (0..graphs.len())
        .flat_map(|i| {
            [
                (i, Query::Bfs { source }),
                (i, Query::Sssp { source }),
                (i, Query::Ppr { source }),
            ]
        })
        .collect();

    ctx.start_rounds(Plan {
        model_rounds: 1,
        first_comparable: 0,
    });
    while ctx.more_rounds() {
        let k = ctx.begin_round();
        let round = ctx.tracer.enter("round", None);
        let (mut wall, mut answered, mut model_s, mut digest) = (0.0, 0u64, 0.0, FINGERPRINT_SEED);
        for &(g, q) in &calls {
            let graph = &graphs[g];
            let qid = ctx.query_ids(1);
            ctx.attempted += 1;
            let name = match q {
                Query::Bfs { .. } => "app.bfs",
                Query::Sssp { .. } => "app.sssp",
                Query::Ppr { .. } => "app.ppr",
            };
            let token = ctx.tracer.enter(name, Some(qid));
            let t = Instant::now();
            let out = match q {
                Query::Bfs { source } => engine.bfs(graph, source, &options).map(QueryResult::Bfs),
                Query::Sssp { source } => {
                    engine.sssp(graph, source, &options).map(QueryResult::Sssp)
                }
                Query::Ppr { source } => engine.ppr(graph, source, &ppr).map(QueryResult::Ppr),
            };
            let dt = t.elapsed().as_secs_f64();
            ctx.tracer.exit(token);
            wall += dt;
            let result = match out {
                Ok(r) => r,
                Err(e) => {
                    ctx.fail(1, format!("{name}: {e}"));
                    continue;
                }
            };
            let query_model_s = result.report().total_seconds();
            answered += 1;
            model_s += query_model_s;
            ctx.call_wall(k, dt, 1);
            let results = [result];
            if ctx.in_window(k) {
                count_launches(ctx, &results);
                ctx.model_latency_ms.push(query_model_s * 1e3);
            }
            digest = fingerprint_fold(digest, &results);
            if k == 0 {
                referee_check(ctx, &referees[g], [(source_of(q), &results[0])]);
            }
        }
        ctx.tracer.exit(round);
        if ctx.in_window(k) {
            ctx.model_window_s += model_s;
        }
        check_repeat(ctx, k, 1, digest);
        ctx.end_round(k, wall, answered, model_s);
    }
    ctx.replay_timed = true;

    if ctx.opts.trace {
        let probe = ctx.tracer.enter("probe", None);
        let graph = &graphs[0];
        let config = traversal_config(graph, FastPath::Replay);
        probe_kernels(ctx, &engine, graph)?;
        probe_serve(
            ctx,
            &engine,
            graph,
            config,
            &[Query::Bfs { source }, Query::Sssp { source }],
        )?;
        probe_delta(ctx, &engine, graph, config, source)?;
        probe_service(ctx, &engine, graph, FastPath::Replay)?;
        ctx.tracer.exit(probe);
    }
    let infos = GRAPHS
        .iter()
        .zip(&graphs)
        .map(|(name, g)| (*name, g.nodes(), g.edges()))
        .collect();
    Ok(Info {
        graphs: infos,
        dpus: DPUS,
        fidelity: "sampled(64)",
    })
}

/// Plain COO `y = Pᵀx` in f32: the native reference with no simulation.
fn native_spmv(m: &Coo<f32>, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; m.n_rows() as usize];
    for ((&r, &c), &v) in m.rows().iter().zip(m.cols()).zip(m.vals()) {
        y[r as usize] += v * x[c as usize];
    }
    y
}

/// Isolated calls on `graph` with `engine`'s DPU count: CSR/CSC builds,
/// kernel preparation, one dense (+, ×) SpMV and one (min, +) SpMSpV over
/// a 1 % frontier on the analytic and the `Sampled(64)` replay system,
/// and the native loop over the same matrix.
fn probe_kernels(ctx: &mut Ctx, engine: &AlphaPim, graph: &Graph) -> Result<(), String> {
    let t = &mut ctx.tracer;
    for _ in 0..PROBE_REPS {
        t.span("sparse.to_csr", None, || black_box(graph.to_csr()));
        t.span("sparse.to_csc", None, || black_box(graph.to_csc()));
    }
    let analytic = engine
        .analytic_twin()
        .ok_or("the engine has no analytic twin")?;
    let replay = PimSystem::new(PimConfig {
        fidelity: SimFidelity::Sampled(64),
        ..engine.system().config().clone()
    })?;
    let n = graph.nodes() as usize;

    let pt = transition_transpose(graph);
    let prepare_spmv =
        || PreparedSpmv::<PlusTimes>::prepare(&pt, SpmvVariant::Dcoo2d, &analytic).map_err(err);
    let spmv = t.span("kernel.prepare_spmv", None, prepare_spmv)?;
    for _ in 1..REPLAY_REPS {
        t.span("kernel.prepare_spmv", None, prepare_spmv)?;
    }
    let x = DenseVector::from_values(vec![1.0 / n as f32; n]);
    for _ in 0..PROBE_REPS {
        t.span("kernel.spmv_analytic", None, || spmv.run(&x, &analytic))
            .map_err(err)?;
        t.span("kernel.spmv_native", None, || {
            black_box(native_spmv(&pt, black_box(x.values())))
        });
    }
    for _ in 0..REPLAY_REPS {
        t.span("kernel.spmv_replay", None, || spmv.run(&x, &replay))
            .map_err(err)?;
    }

    let at = graph.transposed().map(MinPlus::from_weight);
    let prepare_spmspv =
        || PreparedSpmspv::<MinPlus>::prepare(&at, SpmspvVariant::Csc2d, &analytic).map_err(err);
    let spmspv = t.span("kernel.prepare_spmspv", None, prepare_spmspv)?;
    for _ in 1..REPLAY_REPS {
        t.span("kernel.prepare_spmspv", None, prepare_spmspv)?;
    }
    let stride = 100.min(n.max(1));
    let idx: Vec<u32> = (0..n as u32).step_by(stride).collect();
    let frontier = SparseVector::from_pairs(n, idx.clone(), vec![0u32; idx.len()]).map_err(err)?;
    for _ in 0..PROBE_REPS {
        t.span("kernel.spmspv_analytic", None, || {
            spmspv.run(&frontier, &analytic)
        })
        .map_err(err)?;
    }
    for _ in 0..REPLAY_REPS {
        t.span("kernel.spmspv_replay", None, || {
            spmspv.run(&frontier, &replay)
        })
        .map_err(err)?;
    }
    Ok(())
}

/// One fresh `ServeEngine::run_batch` on `graph`, for workloads whose
/// rounds never call it.
fn probe_serve(
    ctx: &mut Ctx,
    engine: &AlphaPim,
    graph: &Graph,
    config: ServeConfig,
    queries: &[Query],
) -> Result<(), String> {
    let mut serve = ServeEngine::new(engine, config);
    let qid = ctx.query_ids(queries.len());
    let token = ctx.tracer.enter("serve.run_batch", Some(qid));
    let out = serve.run_batch(graph, queries);
    ctx.tracer.exit(token);
    let (results, batch) = out.map_err(err)?;
    let (spmv, spmspv) = Ctx::launches(&results);
    ctx.batch_launches.0 += spmv;
    ctx.batch_launches.1 += spmspv;
    if !ctx.counts.has_cache {
        ctx.counts.cache_hits += batch.cache_hits;
        ctx.counts.cache_misses += batch.cache_misses;
    }
    let referee = Referee::new(graph, config.ppr.alpha);
    referee_check(
        ctx,
        &referee,
        queries.iter().map(|&q| source_of(q)).zip(&results),
    );
    Ok(())
}

/// A `DeltaEngine` on `graph`: BFS and SSSP from `source`, one mutation
/// batch, and the same two queries repaired incrementally.
fn probe_delta(
    ctx: &mut Ctx,
    engine: &AlphaPim,
    graph: &Graph,
    config: ServeConfig,
    source: u32,
) -> Result<(), String> {
    let parts = engine.system().num_dpus();
    let mut delta = DeltaEngine::new(engine, config, graph, parts).map_err(err)?;
    for pass in 0..2u64 {
        if pass == 1 {
            let batch = seeded_batch(
                delta.graph().adjacency(),
                mix(ctx.opts.seed, 50),
                16,
                MAX_WEIGHT,
            );
            let report = ctx
                .tracer
                .span("delta.mutate", None, || delta.mutate(&batch))
                .map_err(err)?;
            ctx.counts.dirty_parts += report.dirty_partitions;
            ctx.counts.total_parts += report.dirty_partitions + report.clean_partitions;
        }
        let referee = Referee::new(delta.graph(), config.ppr.alpha);
        for q in [Query::Bfs { source }, Query::Sssp { source }] {
            let qid = ctx.query_ids(1);
            let token = ctx.tracer.enter("delta.serve", Some(qid));
            let out = delta.serve(&[q]);
            let (results, stats) = match out {
                Ok(v) => v,
                Err(e) => {
                    ctx.tracer.exit(token);
                    return Err(format!("delta probe: {e}"));
                }
            };
            let incremental = stats.first().is_some_and(|s| s.incremental);
            ctx.tracer.exit_as(
                token,
                if incremental {
                    "delta.serve.incremental"
                } else {
                    "delta.serve.full"
                },
            );
            for s in &stats {
                ctx.counts.delta_queries += 1;
                ctx.counts.incremental += u64::from(s.incremental);
                ctx.counts.frontier_full += s.frontier_full;
                ctx.counts.frontier_saved += s.frontier_saved;
            }
            referee_check(ctx, &referee, results.iter().map(|r| (source, r)));
        }
    }
    ctx.counts.has_delta = true;
    Ok(())
}

/// A short `ServiceEngine::run` on `graph` alone (12 arrivals, mix 4:4:1),
/// re-served and checked like `service_mix`.
fn probe_service(
    ctx: &mut Ctx,
    engine: &AlphaPim,
    graph: &Graph,
    fast_path: FastPath,
) -> Result<(), String> {
    let graphs = std::slice::from_ref(graph);
    let config = service_config(1, fast_path);
    let workload = stratified_trace(
        mix(ctx.opts.seed, 60),
        20_000_000,
        12,
        3,
        &[graph.nodes()],
        [4, 4, 1],
    );
    let mut service = ServiceEngine::new(engine, config.clone());
    let qid = ctx.query_ids(workload.len());
    let token = ctx.tracer.enter("service.run", Some(qid));
    let t = Instant::now();
    let out = service.run(graphs, &workload);
    let run_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(token);
    let report = out.map_err(err)?;
    if !ledgers_balance(&report, workload.len()) {
        ctx.fail(1, "service probe: ledgers do not balance".to_string());
    }
    record_service_counts(ctx, &report);
    let (reserve_s, _) = reserve_and_check(
        ctx,
        "service.reserve_batch",
        engine,
        graphs,
        &config,
        &workload,
        &report,
    )?;
    ctx.reserve = Some((reserve_s, run_s));
    ctx.counts.has_service = true;
    Ok(())
}
