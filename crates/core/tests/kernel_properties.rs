//! Property-style tests: every kernel variant computes the same semiring
//! product as the reference dense algorithm, on arbitrary graphs, vectors,
//! and system shapes.
//!
//! Cases come from the in-tree seeded [`SplitMix64`] generator (≥64 per
//! property), so each run replays a frozen case set with no external
//! test-framework dependency.

use std::collections::BTreeSet;

use alpha_pim::kernel::IterationOutcome;
use alpha_pim::semiring::{BoolOrAnd, MaxMin, MinPlus, PlusTimes, Semiring};
use alpha_pim::{PreparedSpmspv, PreparedSpmv, SpmspvVariant, SpmvVariant};
use alpha_pim_sim::{
    CounterId, FaultPlan, PimConfig, PimSystem, ResiliencePolicy, SimFidelity,
};
use alpha_pim_sparse::gen::rng::SplitMix64;
use alpha_pim_sparse::{Coo, DenseVector, SparseVector};

const CASES: u64 = 64;

/// A small random square matrix with weights 1..=9: `n` in `4..40`, up to
/// `min(n * n, 160)` unique coordinates.
fn random_matrix(rng: &mut SplitMix64) -> Coo<u32> {
    let n = 4 + rng.u32_below(36);
    let max_nnz = (n as usize * n as usize).min(160);
    let target = rng.usize_below(max_nnz);
    let mut coords = BTreeSet::new();
    for _ in 0..target {
        coords.insert((rng.u32_below(n), rng.u32_below(n)));
    }
    Coo::from_entries(
        n,
        n,
        coords.into_iter().enumerate().map(|(i, (r, c))| (r, c, (i % 9 + 1) as u32)),
    )
    .expect("coords in range")
}

fn reference<S: Semiring>(m: &Coo<S::Elem>, x: &[S::Elem]) -> Vec<S::Elem> {
    let mut y = vec![S::zero(); m.n_rows() as usize];
    for (r, c, v) in m.iter() {
        if !S::is_zero(&x[c as usize]) {
            y[r as usize] = S::add(y[r as usize], S::mul(v, x[c as usize]));
        }
    }
    y
}

fn system(dpus: u32, tasklets: u32) -> PimSystem {
    PimSystem::new(PimConfig {
        num_dpus: dpus,
        tasklets_per_dpu: tasklets,
        fidelity: SimFidelity::Full,
        ..Default::default()
    })
    .expect("valid config")
}

fn sparse_x<S: Semiring>(n: u32, mask: u64) -> SparseVector<S::Elem> {
    let idx: Vec<u32> = (0..n).filter(|i| mask >> (i % 64) & 1 == 1).collect();
    let vals: Vec<S::Elem> = idx.iter().map(|&i| S::from_weight(i % 7 + 1)).collect();
    SparseVector::from_pairs(n as usize, idx, vals).expect("unique indices")
}

#[test]
fn every_spmspv_variant_matches_reference_bool() {
    let mut rng = SplitMix64::new(0xA301);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let dpus = 1 + rng.u32_below(8);
        let tasklets = 1 + rng.u32_below(19);
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(dpus, tasklets);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        let expect = reference::<BoolOrAnd>(&lifted, x.to_dense(BoolOrAnd::zero()).values());
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {}", variant);
        }
    }
}

#[test]
fn every_spmv_variant_matches_reference_minplus() {
    let mut rng = SplitMix64::new(0xA302);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let dpus = 1 + rng.u32_below(8);
        let lifted = m.map(MinPlus::from_weight);
        let sys = system(dpus, 16);
        let x = sparse_x::<MinPlus>(m.n_rows(), mask).to_dense(MinPlus::zero());
        let expect = reference::<MinPlus>(&lifted, x.values());
        for variant in SpmvVariant::ALL {
            let prep = PreparedSpmv::<MinPlus>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert_eq!(out.y.values(), expect.as_slice(), "variant {}", variant);
        }
    }
}

#[test]
fn maxmin_spmspv_matches_reference() {
    let mut rng = SplitMix64::new(0xA303);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(MaxMin::from_weight);
        let sys = system(4, 8);
        let x = sparse_x::<MaxMin>(m.n_rows(), mask);
        let expect = reference::<MaxMin>(&lifted, x.to_dense(MaxMin::zero()).values());
        let prep =
            PreparedSpmspv::<MaxMin>::prepare(&lifted, SpmspvVariant::Csc2d, &sys).unwrap();
        let out = prep.run(&x, &sys).unwrap();
        assert_eq!(out.y.values(), expect.as_slice());
    }
}

#[test]
fn kernel_timing_is_deterministic() {
    let mut rng = SplitMix64::new(0xA304);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(4, 16);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        let prep =
            PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, SpmspvVariant::Csc2d, &sys).unwrap();
        let a = prep.run(&x, &sys).unwrap();
        let b = prep.run(&x, &sys).unwrap();
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.kernel.max_cycles, b.kernel.max_cycles);
        assert_eq!(a.kernel.instr_mix, b.kernel.instr_mix);
    }
}

#[test]
fn useful_ops_never_exceed_matrix_work() {
    let mut rng = SplitMix64::new(0xA305);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng);
        let mask = rng.next_u64();
        let lifted = m.map(BoolOrAnd::from_weight);
        let sys = system(4, 8);
        let x = sparse_x::<BoolOrAnd>(m.n_rows(), mask);
        for variant in SpmspvVariant::ALL {
            let prep = PreparedSpmspv::<BoolOrAnd>::prepare(&lifted, variant, &sys).unwrap();
            let out = prep.run(&x, &sys).unwrap();
            assert!(out.useful_ops <= 2 * m.nnz() as u64, "variant {}", variant);
            assert!(out.output_nnz <= m.n_rows() as usize);
        }
    }
}

/// A dense input with roughly a third of its entries zero and the rest
/// non-integral, so every launch both changes `y` and exercises f32
/// rounding order.
fn dense_x<S: Semiring>(n: u32, rng: &mut SplitMix64) -> DenseVector<S::Elem> {
    DenseVector::from_values(
        (0..n)
            .map(|_| match rng.u32_below(9) {
                0..=2 => S::zero(),
                w => S::from_weight(w * 7 + rng.u32_below(5)),
            })
            .collect(),
    )
}

fn memo_system(dpus: u32, fidelity: SimFidelity, faults: Option<FaultPlan>) -> PimSystem {
    PimSystem::new(PimConfig { num_dpus: dpus, fidelity, faults, ..Default::default() })
        .expect("valid config")
}

/// The fault plans the timing memo must be transparent under, drawn from
/// `seed`.
fn memo_plans(seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    let loss = FaultPlan {
        seed,
        dpu_loss_rate: 0.3,
        policy: ResiliencePolicy { redistribute: false, ..Default::default() },
        ..Default::default()
    };
    let stragglers = FaultPlan {
        seed,
        straggler_rate: 0.4,
        straggler_multiplier: 2.5,
        ..Default::default()
    };
    let flips = FaultPlan::silent(seed, 0.4);
    let mut escaping = flips.clone();
    escaping.policy.verify_merges = false;
    vec![
        ("clean", None),
        ("loss", Some(loss)),
        ("stragglers", Some(stragglers)),
        ("flips", Some(flips)),
        ("flips-unverified", Some(escaping)),
    ]
}

/// Whether a launch shows the effect of the plan called `label`.
fn plan_fired<S: Semiring>(label: &str, out: &IterationOutcome<S>) -> bool {
    let c = &out.kernel.breakdown.counters;
    match label {
        "loss" => out.kernel.degraded,
        "stragglers" => c.get(CounterId::FaultStragglerCycles) > 0,
        "flips" => c.get(CounterId::SdcDetected) > 0,
        "flips-unverified" => c.get(CounterId::SdcEscaped) > 0,
        _ => true,
    }
}

/// Asserts two launches agree bit for bit: output values, kernel report
/// and its exports, phase times, and op counts.
fn assert_same_launch<S: Semiring>(
    got: &IterationOutcome<S>,
    want: &IterationOutcome<S>,
    ctx: &str,
) {
    let bits = |o: &IterationOutcome<S>| -> Vec<u64> {
        o.y.values().iter().map(|&v| S::elem_bits(v)).collect()
    };
    let phase_bits = |o: &IterationOutcome<S>| {
        let p = o.phases;
        [p.load, p.kernel, p.retrieve, p.merge].map(f64::to_bits)
    };
    assert_eq!(bits(got), bits(want), "{ctx}: y diverged");
    assert_eq!(got.kernel, want.kernel, "{ctx}: kernel report diverged");
    assert_eq!(got.kernel.to_json(), want.kernel.to_json(), "{ctx}: report JSON diverged");
    assert_eq!(phase_bits(got), phase_bits(want), "{ctx}: phases diverged");
    assert_eq!(got.useful_ops, want.useful_ops, "{ctx}: useful_ops diverged");
    assert_eq!(got.output_nnz, want.output_nnz, "{ctx}: output_nnz diverged");
}

/// Repeated launches of one prepared matrix (the later ones served from
/// its timing memo) equal launches of a freshly prepared matrix, for every
/// variant, fidelity and fault plan, with a new input on every launch.
fn memo_matches_fresh_prepares<S: Semiring>(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut fired: Vec<(&str, bool)> = memo_plans(0).iter().map(|(l, _)| (*l, false)).collect();
    for case in 0..3 {
        let m = random_matrix(&mut rng).map(S::from_weight);
        let dpus = 2 + rng.u32_below(7);
        let xs: Vec<DenseVector<S::Elem>> =
            (0..3).map(|_| dense_x::<S>(m.n_rows(), &mut rng)).collect();
        for fidelity in [SimFidelity::Analytic, SimFidelity::Sampled(4), SimFidelity::Full] {
            for (p, (label, plan)) in memo_plans(seed ^ case).into_iter().enumerate() {
                let sys = memo_system(dpus, fidelity, plan);
                for variant in SpmvVariant::ALL {
                    let reused = PreparedSpmv::<S>::prepare(&m, variant, &sys).unwrap();
                    for (i, x) in xs.iter().enumerate() {
                        let fresh = PreparedSpmv::<S>::prepare(&m, variant, &sys)
                            .unwrap()
                            .run(x, &sys)
                            .unwrap();
                        let got = reused.run(x, &sys).unwrap();
                        let ctx = format!("case {case} {fidelity:?} {label} {variant} launch {i}");
                        assert_same_launch(&got, &fresh, &ctx);
                        fired[p].1 |= plan_fired(label, &fresh);
                    }
                }
            }
        }
    }
    for (label, seen) in fired {
        assert!(seen, "plan {label} never fired; the case set is too tame");
    }
}

#[test]
fn memoized_spmv_matches_fresh_prepares_plus_times() {
    memo_matches_fresh_prepares::<PlusTimes>(0xA306);
}

#[test]
fn memoized_spmv_matches_fresh_prepares_min_plus() {
    memo_matches_fresh_prepares::<MinPlus>(0xA307);
}

/// One prepared matrix alternating between systems never reuses another
/// system's timing: between the replay system and its analytic twin, and
/// between two machines that differ only in which physical DPUs back the
/// logical ones (as after a quarantine re-plan).
#[test]
fn memo_never_serves_another_systems_timing() {
    let mut rng = SplitMix64::new(0xA308);
    let plan = FaultPlan {
        seed: 0x5A1E,
        dpu_loss_rate: 0.2,
        straggler_rate: 0.3,
        silent_flip_rate: 0.3,
        ..Default::default()
    };
    let dpus = 6;
    let config = |fidelity, remap: Vec<u32>| PimConfig {
        num_dpus: dpus,
        fidelity,
        faults: Some(plan.clone()),
        dpu_remap: remap,
        ..Default::default()
    };
    let replay = PimSystem::new(config(SimFidelity::Sampled(4), Vec::new())).unwrap();
    let twin = PimSystem::new(config(SimFidelity::Analytic, Vec::new())).unwrap();
    let remap_a = PimSystem::new(config(SimFidelity::Full, (0..dpus).collect())).unwrap();
    let remap_b = PimSystem::new(config(SimFidelity::Full, (dpus..2 * dpus).collect())).unwrap();
    let mut remaps_differ = false;
    for case in 0..6 {
        let m = random_matrix(&mut rng).map(PlusTimes::from_weight);
        for variant in SpmvVariant::ALL {
            for (pair, (a, b)) in [(&replay, &twin), (&remap_a, &remap_b)].into_iter().enumerate() {
                let prep = PreparedSpmv::<PlusTimes>::prepare(&m, variant, a).unwrap();
                let mut last = Vec::new();
                for (i, sys) in [a, b, a, b].into_iter().enumerate() {
                    let x = dense_x::<PlusTimes>(m.n_rows(), &mut rng);
                    let fresh = PreparedSpmv::<PlusTimes>::prepare(&m, variant, sys)
                        .unwrap()
                        .run(&x, sys)
                        .unwrap();
                    let got = prep.run(&x, sys).unwrap();
                    let ctx = format!("case {case} {variant} pair {pair} launch {i}");
                    assert_same_launch(&got, &fresh, &ctx);
                    last.push(got.kernel);
                }
                if pair == 1 {
                    remaps_differ |= last[0] != last[1];
                }
            }
        }
    }
    assert!(remaps_differ, "the two remaps never produced different reports");
}
