//! Model-clock figures and result fingerprints must repeat exactly: across
//! two runs, across 1 and 2 simulator threads, and with tracing on. Runs
//! each workload's model window only (`seconds = 0`).

use alpha_pim_perfbench::{run, RunOpts, RunResult, Workload};

fn short_run(workload: Workload, threads: usize, trace: bool) -> RunResult {
    let opts = RunOpts {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        threads,
    };
    let result = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        result.correct(),
        "{}: {:?}",
        workload.name(),
        result.problems
    );
    result
}

#[test]
fn model_outputs_repeat_across_runs_threads_and_tracing() {
    for workload in Workload::ALL {
        let name = workload.name();
        let first = short_run(workload, 2, false);
        assert_eq!(
            first.model,
            short_run(workload, 2, false).model,
            "{name}: two runs differ"
        );
        assert_eq!(
            first.model,
            short_run(workload, 1, false).model,
            "{name}: 1 and 2 sim threads differ"
        );
        if workload == Workload::PprDense {
            // Traced runs add probe-only entries; the shared ones must match.
            let traced = short_run(workload, 2, true);
            assert_eq!(
                first.model[..],
                traced.model[..first.model.len()],
                "{name}: tracing changed the model"
            );
        }
    }
}
