//! The fleet's core invariant: a socket-distributed run at any worker
//! count produces a `SimReport` byte-identical to the in-process threaded
//! run — same digests, same halo accounting, same serialized bytes.

use nestwx_fleet::build_model;
use nestwx_fleet::{execute_in_process, FleetConfig, FleetError};
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::runtime::{run_iterations_observed, ThreadStrategy};
use nestwx_miniwrf::SimReport;
use nestwx_obs::{ObsConfig, Recorder};
use std::time::Duration;

const ITERATIONS: u64 = 5;
const RANKS: u64 = 64;

fn scenario() -> (Domain, Vec<NestSpec>) {
    let parent = Domain::parent(40, 36, 24.0);
    let nests = vec![
        NestSpec::new(24, 24, 3, (3, 3)),
        NestSpec::new(16, 16, 2, (24, 20)),
        NestSpec::new(12, 12, 2, (24, 4)),
        NestSpec::child_of(0, 8, 8, 2, (2, 2)),
    ];
    (parent, nests)
}

fn config(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        threads: 1,
        connect_timeout: Duration::from_secs(10),
        frame_timeout: Duration::from_secs(30),
    }
}

/// The reference: the in-process threaded runtime over the same model.
fn reference_report() -> SimReport {
    let (parent, nests) = scenario();
    let mut model = build_model(&parent, &nests);
    let mut rec = Recorder::new(ObsConfig::default());
    run_iterations_observed(
        &mut model,
        ITERATIONS as u32,
        2,
        &ThreadStrategy::Sequential,
        &mut rec,
    );
    SimReport::from_model(&model, RANKS)
}

#[test]
fn fleet_at_1_2_4_workers_matches_in_process_bytewise() {
    let reference = reference_report().to_json();
    let (parent, nests) = scenario();
    for workers in [1usize, 2, 4] {
        let run = execute_in_process(&parent, &nests, ITERATIONS, RANKS, &[], &config(workers))
            .unwrap_or_else(|e| panic!("{workers}-worker fleet failed: {e}"));
        assert_eq!(
            run.report.to_json(),
            reference,
            "{workers}-worker fleet diverged from the in-process run"
        );
        assert_eq!(run.summary.workers, workers as u32);
        assert_eq!(run.summary.digest, run.report.digest);
        assert_eq!(
            run.summary.worker_rows.len(),
            workers,
            "one obs row per worker"
        );
        // Socket traffic really happened and was accounted: one Boundary
        // and one Feedback per (iteration, level-1 nest), plus a Hello,
        // an Assign and a Done per worker. Pinning the counts means a
        // faster fleet waits less, not sends less.
        let level1 = nests.iter().filter(|n| n.parent_nest.is_none()).count() as u64;
        let coordinator = &run.summary.coordinator;
        assert!(coordinator.bytes_out > 0);
        assert_eq!(
            coordinator.frames_in,
            ITERATIONS * level1 + 2 * workers as u64,
            "{workers}-worker frames in"
        );
        assert_eq!(
            coordinator.frames_out,
            ITERATIONS * level1 + workers as u64,
            "{workers}-worker frames out"
        );
    }
}

#[test]
fn plan_partitions_change_layout_not_results() {
    let reference = reference_report().to_json();
    let (parent, nests) = scenario();
    // Skew all rank weight onto nest 2: ownership moves, bytes don't lie.
    let partitions = [(0usize, 1u64), (1, 1), (2, 62)];
    let run =
        execute_in_process(&parent, &nests, ITERATIONS, RANKS, &partitions, &config(2)).unwrap();
    assert_eq!(run.report.to_json(), reference);
}

#[test]
fn zero_worker_config_is_rejected_cleanly() {
    let (parent, nests) = scenario();
    let err = execute_in_process(&parent, &nests, 1, RANKS, &[], &config(0)).unwrap_err();
    // No workers can never satisfy the nest ownership map.
    assert!(
        matches!(err, FleetError::Handshake(_) | FleetError::Plan(_)),
        "unexpected error: {err}"
    );
}
