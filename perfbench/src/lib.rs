//! Host-wall-time benchmark of the ALPHA-PIM simulator.
//!
//! Four seeded workloads each drive the public API of a different layer
//! from one process (see [`Workload`]). An untraced run reports the
//! end-to-end metrics; a traced run records spans around every call the
//! benchmark makes into the program and derives the per-layer metrics from
//! them plus a few isolated probe calls. Every answer is checked against
//! the std-only referees in [`referee`], outside the measured time.
//!
//! Model time (simulated cycles) is deterministic; [`RunResult::model`]
//! collects every model-clock figure and result fingerprint so a test can
//! assert they repeat exactly across runs and sim thread counts.

pub mod referee;
pub mod stats;
pub mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use stats::{median, percentile, ratio};
use trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Blocks of consecutive rounds the query-wall percentiles are taken in.
const BLOCKS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PPR-only batches through `ServeEngine::run_batch`: dense SpMV every superstep.
    PprDense,
    /// BFS/SSSP through `DeltaEngine::serve` with mutation batches between rounds.
    TraverseMutate,
    /// Open-loop multi-tenant load through `ServiceEngine::run`.
    ServiceMix,
    /// `AlphaPim::{bfs,sssp,ppr}` at the figure-harness cycle-replay config.
    ReplayPaper,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PprDense,
        Workload::TraverseMutate,
        Workload::ServiceMix,
        Workload::ReplayPaper,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PprDense => "ppr_dense",
            Workload::TraverseMutate => "traverse_mutate",
            Workload::ServiceMix => "service_mix",
            Workload::ReplayPaper => "replay_paper",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds of measured calls before the run stops at a round end.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Simulator host threads.
    pub threads: usize,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Queries attempted in the measured rounds.
    pub attempted: u64,
    /// Errors plus wrong answers (and failed self-checks).
    pub failed: u64,
    /// What failed, for the log.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Model-clock figures and result fingerprints, formatted exactly.
    pub model: Vec<(&'static str, String)>,
    /// Run metadata as a JSON object.
    pub meta: String,
    /// Per-span self-time table (traced runs).
    pub table: String,
    /// Chrome trace-event JSON (traced runs).
    pub trace_json: Option<String>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_num(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit Rust prints for an `f64`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload could not be set up at all.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    alpha_pim_sim::set_sim_threads(opts.threads);
    let mut ctx = Ctx::new(opts.clone());
    let info = workloads::run(&mut ctx)?;
    Ok(ctx.finish(&info))
}

/// Static facts about a workload run, for metadata and the round plan.
pub(crate) struct Info {
    /// `(abbrev, vertices, nnz)` of every graph.
    pub graphs: Vec<(&'static str, u32, usize)>,
    pub dpus: u32,
    pub fidelity: &'static str,
}

/// How rounds are laid out. Rounds `< model_rounds` always run and form
/// the deterministic model window. In traced runs, rounds from
/// `first_comparable` on alternate between untraced and traced, so the
/// two sides see the same kind of work.
#[derive(Clone, Copy)]
pub(crate) struct Plan {
    pub model_rounds: usize,
    pub first_comparable: usize,
}

impl Plan {
    fn traced(&self, round: usize) -> bool {
        round >= self.first_comparable && (round - self.first_comparable) % 2 == 1
    }

    fn min_rounds(&self, trace: bool) -> usize {
        if trace {
            self.model_rounds.max(self.first_comparable + 2)
        } else {
            self.model_rounds
        }
    }
}

pub(crate) struct RoundStat {
    traced: bool,
    wall_s: f64,
    answered: u64,
    model_s: f64,
}

/// Layer counts over the model window (or a probe, for layers the
/// workload's own rounds never reach). All deterministic.
#[derive(Default)]
pub(crate) struct Counts {
    pub spmv_launches: u64,
    pub spmspv_launches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub has_cache: bool,
    pub delta_queries: u64,
    pub incremental: u64,
    pub frontier_full: u64,
    pub frontier_saved: u64,
    pub dirty_parts: u64,
    pub total_parts: u64,
    pub has_delta: bool,
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub wait_cycles: u64,
    pub latency_cycles: u64,
    pub has_service: bool,
}

/// Run state shared by the workloads.
pub(crate) struct Ctx {
    pub opts: RunOpts,
    pub tracer: Tracer,
    plan: Plan,
    next_query: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Rejected or shed by the service (counted against `answered_frac`).
    pub unanswered: u64,
    pub problems: Vec<String>,
    pub setup_s: Vec<f64>,
    rounds: Vec<RoundStat>,
    /// `(round, host wall of the call that answered a query)`, untraced rounds.
    query_ms: Vec<(usize, f64)>,
    /// Model arrival→completion latency of each query in the model window.
    pub model_latency_ms: Vec<f64>,
    pub model_window_s: f64,
    /// Result fingerprints of the model window's rounds.
    pub fingerprints: Vec<u64>,
    pub counts: Counts,
    /// SpMV / SpMSpV launches inside traced `serve.run_batch` spans.
    pub batch_launches: (u64, u64),
    /// Whether supersteps are timed by cycle replay (else the analytic model).
    pub replay_timed: bool,
    /// Host seconds to re-serve the service's executed queries, and the
    /// service run they came from.
    pub reserve: Option<(f64, f64)>,
}

impl Ctx {
    fn new(opts: RunOpts) -> Self {
        let tracer = Tracer::new(opts.trace);
        Ctx {
            opts,
            tracer,
            plan: Plan {
                model_rounds: 1,
                first_comparable: 0,
            },
            next_query: 0,
            attempted: 0,
            failed: 0,
            unanswered: 0,
            problems: Vec::new(),
            setup_s: Vec::new(),
            rounds: Vec::new(),
            query_ms: Vec::new(),
            model_latency_ms: Vec::new(),
            model_window_s: 0.0,
            fingerprints: Vec::new(),
            counts: Counts::default(),
            batch_launches: (0, 0),
            replay_timed: false,
            reserve: None,
        }
    }

    /// Records a failure: an error, a wrong answer or a broken invariant.
    pub fn fail(&mut self, queries: u64, what: String) {
        self.failed += queries.max(1);
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Fresh ids for `n` queries; returns the first.
    pub fn query_ids(&mut self, n: usize) -> u64 {
        let first = self.next_query;
        self.next_query += n as u64;
        first
    }

    /// Runs `setup` [`SETUPS`] times, timing each, and keeps the last.
    pub fn setups<T>(
        &mut self,
        mut setup: impl FnMut(&mut Ctx) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUPS {
            let token = self.tracer.enter("setup", None);
            let t = Instant::now();
            let out = setup(self)?;
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.tracer.exit(token);
            last = Some(out);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Fixes the round layout; call once before the first round.
    pub fn start_rounds(&mut self, plan: Plan) {
        self.plan = plan;
    }

    /// Whether another round should run.
    pub fn more_rounds(&self) -> bool {
        let k = self.rounds.len();
        let measured: f64 = self.rounds.iter().map(|r| r.wall_s).sum();
        k < self.plan.min_rounds(self.opts.trace) || measured < self.opts.seconds
    }

    /// Index of the round about to run; switches tracing for it.
    pub fn begin_round(&mut self) -> usize {
        let k = self.rounds.len();
        self.tracer.set_on(self.opts.trace && self.plan.traced(k));
        k
    }

    /// Whether round `k` is in the model window.
    pub fn in_window(&self, k: usize) -> bool {
        k < self.plan.model_rounds
    }

    /// Records the host wall of a call that answered `answered` queries.
    pub fn call_wall(&mut self, round: usize, seconds: f64, answered: u64) {
        if !(self.opts.trace && self.plan.traced(round)) {
            for _ in 0..answered {
                self.query_ms.push((round, seconds * 1e3));
            }
        }
    }

    /// Closes a round; tracing stays on afterwards in traced runs (probes).
    pub fn end_round(&mut self, round: usize, wall_s: f64, answered: u64, model_s: f64) {
        let traced = self.opts.trace && self.plan.traced(round);
        self.rounds.push(RoundStat {
            traced,
            wall_s,
            answered,
            model_s,
        });
        self.tracer.set_on(self.opts.trace);
    }

    /// Counts a result set's kernel launches by kind.
    pub fn launches<'r>(
        results: impl IntoIterator<Item = &'r alpha_pim::serve::QueryResult>,
    ) -> (u64, u64) {
        let (mut spmv, mut spmspv) = (0, 0);
        for r in results {
            for it in &r.report().iterations {
                match it.kernel {
                    alpha_pim::KernelKind::Spmv(_) => spmv += 1,
                    alpha_pim::KernelKind::Spmspv(_) => spmspv += 1,
                }
            }
        }
        (spmv, spmspv)
    }

    /// The `p`-th percentile of query walls, taken within each of
    /// [`BLOCKS`] consecutive blocks of untraced rounds and reported as the
    /// median over blocks: a few slow seconds on a shared host then move
    /// one block, not the figure.
    fn blocked_percentile(&self, p: f64) -> f64 {
        let rounds: Vec<usize> = (0..self.rounds.len())
            .filter(|&k| !self.rounds[k].traced)
            .collect();
        let blocks = rounds.len().min(BLOCKS);
        let per_block: Vec<f64> = (0..blocks)
            .map(|b| {
                let (lo, hi) = (
                    rounds[b * rounds.len() / blocks],
                    rounds[(b + 1) * rounds.len() / blocks - 1],
                );
                let walls: Vec<f64> = self
                    .query_ms
                    .iter()
                    .filter(|(k, _)| (lo..=hi).contains(k))
                    .map(|&(_, ms)| ms)
                    .collect();
                percentile(&walls, p)
            })
            .collect();
        median(&per_block)
    }

    fn finish(mut self, info: &Info) -> RunResult {
        self.tracer.set_on(false);
        let answered: u64 = self.rounds.iter().map(|r| r.answered).sum();
        let wall: f64 = self.rounds.iter().map(|r| r.wall_s).sum();
        // Median of per-round rates: one round slowed by a neighbour on a
        // shared host moves it less than it moves the pooled rate.
        let round_qps: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| ratio(r.answered as f64, r.wall_s))
            .collect();
        let sim_ms = self.model_window_s * 1e3;
        let model_p50 = percentile(&self.model_latency_ms, 50.0);
        let model_p99 = percentile(&self.model_latency_ms, 99.0);

        let mut model: Vec<(&'static str, String)> = vec![
            ("sim_ms", format!("{sim_ms:?}")),
            ("model_p50_ms", format!("{model_p50:?}")),
            ("model_p99_ms", format!("{model_p99:?}")),
            (
                "kernel.spmv_launches",
                self.counts.spmv_launches.to_string(),
            ),
            (
                "kernel.spmspv_launches",
                self.counts.spmspv_launches.to_string(),
            ),
            ("fingerprints", format!("{:x?}", self.fingerprints)),
        ];
        let c = &self.counts;
        let delta_shares = [
            ratio(c.incremental as f64, c.delta_queries as f64),
            ratio(c.frontier_saved as f64, c.frontier_full as f64),
            ratio(c.dirty_parts as f64, c.total_parts as f64),
        ];
        let service_shares = [
            ratio(c.rejected as f64, c.arrivals as f64),
            ratio(c.shed as f64, c.admitted as f64),
            ratio(c.wait_cycles as f64, c.latency_cycles as f64),
        ];
        if c.has_delta {
            model.push(("delta.shares", format!("{delta_shares:?}")));
        }
        if c.has_service {
            model.push(("service.shares", format!("{service_shares:?}")));
        }

        let metrics = if self.opts.trace {
            self.per_layer(delta_shares, service_shares)
        } else {
            let answered_frac = ratio(
                (self.attempted
                    - self.failed.min(self.attempted)
                    - self.unanswered.min(self.attempted)) as f64,
                self.attempted as f64,
            );
            vec![
                Metric {
                    name: "qps",
                    unit: "1/s",
                    value: median(&round_qps),
                },
                Metric {
                    name: "query_ms_p50",
                    unit: "ms",
                    value: self.blocked_percentile(50.0),
                },
                Metric {
                    name: "query_ms_p90",
                    unit: "ms",
                    value: self.blocked_percentile(90.0),
                },
                Metric {
                    name: "sim_ms",
                    unit: "model_ms",
                    value: sim_ms,
                },
                Metric {
                    name: "model_p50_ms",
                    unit: "model_ms",
                    value: model_p50,
                },
                Metric {
                    name: "model_p99_ms",
                    unit: "model_ms",
                    value: model_p99,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: median(&self.setup_s),
                },
                Metric {
                    name: "peak_rss_mb",
                    unit: "MB",
                    value: peak_rss_mb(),
                },
                Metric {
                    name: "answered_frac",
                    unit: "ratio",
                    value: answered_frac,
                },
            ]
        };

        let meta = self.meta(info, answered, wall);
        let table = if self.opts.trace {
            self.tracer.table()
        } else {
            String::new()
        };
        let trace_json = self.opts.trace.then(|| self.tracer.chrome_json(&meta));
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            model,
            meta,
            table,
            trace_json,
        }
    }

    fn per_layer(&self, delta_shares: [f64; 3], service_shares: [f64; 3]) -> Vec<Metric> {
        let t = &self.tracer;
        let med = |name: &str| median(&t.durations_ms(name));
        let spmv_an = med("kernel.spmv_analytic");
        let spmspv_an = med("kernel.spmspv_analytic");
        let spmv_rp = med("kernel.spmv_replay");
        let spmspv_rp = med("kernel.spmspv_replay");
        let native = med("kernel.spmv_native");
        // Isolated cost of one launch on the path this workload's supersteps take.
        let (iso_spmv, iso_spmspv) = if self.replay_timed {
            (spmv_rp, spmspv_rp)
        } else {
            (spmv_an, spmspv_an)
        };
        let batch_total: f64 = t.durations_ms("serve.run_batch").iter().sum();
        let (bl_spmv, bl_spmspv) = self.batch_launches;
        let serve_self = 1.0
            - ratio(
                bl_spmv as f64 * iso_spmv + bl_spmspv as f64 * iso_spmspv,
                batch_total,
            );
        let c = &self.counts;

        let (traced_wall, traced_answered, traced_model, plain_wall, plain_answered) = self
            .rounds
            .iter()
            .enumerate()
            .filter(|(k, _)| *k >= self.plan.first_comparable)
            .fold((0.0, 0u64, 0.0, 0.0, 0u64), |acc, (_, r)| {
                if r.traced {
                    (
                        acc.0 + r.wall_s,
                        acc.1 + r.answered,
                        acc.2 + r.model_s,
                        acc.3,
                        acc.4,
                    )
                } else {
                    (acc.0, acc.1, acc.2, acc.3 + r.wall_s, acc.4 + r.answered)
                }
            });
        let traced_qps = ratio(traced_answered as f64, traced_wall);
        let plain_qps = ratio(plain_answered as f64, plain_wall);
        let (reserve_s, run_s) = self.reserve.unwrap_or((0.0, 0.0));

        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("sparse.generate_s", "s", med("sparse.generate") / 1e3),
            m("sparse.to_csr_ms", "ms", med("sparse.to_csr")),
            m("sparse.to_csc_ms", "ms", med("sparse.to_csc")),
            m("kernel.prepare_spmv_ms", "ms", med("kernel.prepare_spmv")),
            m(
                "kernel.prepare_spmspv_ms",
                "ms",
                med("kernel.prepare_spmspv"),
            ),
            m("kernel.spmv_analytic_ms", "ms", spmv_an),
            m("kernel.spmspv_analytic_ms", "ms", spmspv_an),
            m("kernel.spmv_native_ms", "ms", native),
            m("kernel.spmv_overhead_x", "x", ratio(spmv_an, native)),
            m("kernel.spmv_launches", "count", c.spmv_launches as f64),
            m("kernel.spmspv_launches", "count", c.spmspv_launches as f64),
            m("kernel.spmv_replay_ms", "ms", spmv_rp),
            m("kernel.spmspv_replay_ms", "ms", spmspv_rp),
            m(
                "sim.replay_share",
                "ratio",
                ratio(
                    spmv_rp + spmspv_rp - spmv_an - spmspv_an,
                    spmv_rp + spmspv_rp,
                ),
            ),
            m(
                "sim.wall_per_sim",
                "ratio",
                ratio(traced_wall, traced_model),
            ),
            m("serve.batch_ms", "ms", med("serve.run_batch")),
            m("serve.self_share", "ratio", serve_self),
            m(
                "serve.cache_hit_ratio",
                "ratio",
                ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            ),
            m("delta.mutate_ms", "ms", med("delta.mutate")),
            m("delta.incr_query_ms", "ms", med("delta.serve.incremental")),
            m("delta.full_query_ms", "ms", med("delta.serve.full")),
            m("delta.incremental_share", "ratio", delta_shares[0]),
            m("delta.frontier_saved_share", "ratio", delta_shares[1]),
            m("delta.dirty_share", "ratio", delta_shares[2]),
            m("service.run_s", "s", med("service.run") / 1e3),
            m("service.self_share", "ratio", 1.0 - ratio(reserve_s, run_s)),
            m("service.reject_share", "ratio", service_shares[0]),
            m("service.shed_share", "ratio", service_shares[1]),
            m("service.wait_share", "ratio", service_shares[2]),
            m(
                "bench.trace_overhead",
                "ratio",
                1.0 - ratio(traced_qps, plain_qps),
            ),
        ]
    }

    fn meta(&self, info: &Info, answered: u64, wall: f64) -> String {
        let graphs: Vec<String> = info
            .graphs
            .iter()
            .map(|(name, n, nnz)| {
                format!("{{\"graph\": \"{name}\", \"vertices\": {n}, \"nnz\": {nnz}}}")
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"nproc\": {}, \"sim_threads\": {}, \
             \"rustc\": \"{}\", \"dpus\": {}, \"fidelity\": \"{}\", \"graphs\": [{}], \"rounds\": {}, \
             \"answered\": {answered}, \"measured_s\": {}, \"trace\": {}}}",
            self.opts.workload.name(),
            self.opts.seed,
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            alpha_pim_sim::sim_threads(),
            command_line("rustc", &["-V"]),
            info.dpus,
            info.fidelity,
            graphs.join(", "),
            self.rounds.len(),
            json_num(wall),
            self.opts.trace,
        )
    }
}

/// First line a command prints, or `unknown` when it cannot run (a
/// checkout without git metadata, say).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (VmHWM) of this process in MB; 0 where /proc is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
