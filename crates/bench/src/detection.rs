//! Detection-latency sweep (paper §V-B).
//!
//! "Our evaluation with 160,000 random FSMs yielded a mean detection bit
//! position of 9 bits. Furthermore, the evaluation confirmed a 100 %
//! detection rate." This module reruns exactly that: random ECU lists,
//! the FSM of the highest-priority-list member, and exhaustive
//! verification of the detection range.

use std::ops::RangeInclusive;

use can_core::CanId;
use can_obs::Recorder;
use michican::detect::detection_range;
use michican::fsm::DetectionFsm;
use michican::EcuList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{ExecOpts, ExperimentPlan};

/// Aggregate result of the random-FSM sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionSweep {
    /// Number of FSMs evaluated.
    pub fsm_count: usize,
    /// Mean detection bit position over all (FSM, malicious id) pairs.
    pub mean_detection_position: f64,
    /// Fraction of malicious identifiers correctly flagged (must be 1.0).
    pub detection_rate: f64,
    /// Fraction of benign identifiers incorrectly flagged (must be 0.0).
    pub false_positive_rate: f64,
    /// Mean FSM state count (firmware footprint).
    pub mean_nodes: f64,
}

/// Generates a random ECU list of `n` identifiers.
fn random_list(rng: &mut StdRng, n: usize) -> EcuList {
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n {
        ids.insert(rng.random_range(0..=CanId::MAX_RAW));
    }
    EcuList::new(ids.into_iter().map(CanId::from_raw).collect()).expect("unique ids")
}

/// Integer tallies of one FSM cell — everything the sweep summary needs,
/// in exactly-summable form (no floats until the final reduction, so the
/// summary is bit-identical for any execution order).
#[derive(Debug, Clone, Copy, Default)]
struct FsmCellTally {
    position_sum: u64,
    malicious_total: u64,
    detected: u64,
    benign_total: u64,
    false_positives: u64,
    nodes: u64,
}

/// Evaluates one random FSM: builds a random list seeded by the cell seed,
/// the FSM of a random member, and verifies detection exhaustively over
/// the 2048-identifier space.
fn sweep_cell(seed: u64, n_min: usize, n_max: usize, recorder: &Recorder) -> FsmCellTally {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(n_min..=n_max);
    let list = random_list(&mut rng, n);
    let index = rng.random_range(0..list.len());
    let set = detection_range(&list, index);
    let fsm = DetectionFsm::from_set(&set);

    let mut tally = FsmCellTally {
        nodes: fsm.node_count() as u64,
        ..FsmCellTally::default()
    };
    let obs = recorder.is_enabled();
    if obs {
        recorder.inc("sweep_fsms_total");
        recorder.observe("sweep_fsm_nodes", tally.nodes);
    }
    for id in CanId::all() {
        let truth = set.contains(id);
        let verdict = fsm.classify(id);
        if truth {
            tally.malicious_total += 1;
            if verdict {
                tally.detected += 1;
                let position = fsm.decision_position(id) as u64;
                tally.position_sum += position;
                if obs {
                    recorder.observe("sweep_detection_position_bits", position);
                }
            }
        } else {
            tally.benign_total += 1;
            if verdict {
                tally.false_positives += 1;
            }
        }
    }
    if obs {
        recorder.add("sweep_malicious_ids_total", tally.malicious_total);
        recorder.add("sweep_detected_ids_total", tally.detected);
        recorder.add("sweep_benign_ids_total", tally.benign_total);
        recorder.add("sweep_false_positives_total", tally.false_positives);
    }
    tally
}

/// IVN sizes in the large-vehicle regime, where the paper's mean
/// detection position of ≈ 9 bits is reproduced.
pub const PAPER_IVN_SIZES: RangeInclusive<usize> = 150..=450;

/// Runs the sweep over `fsm_count` random FSMs with IVN sizes drawn
/// uniformly from `sizes`, fanned out on `opts.shards` workers.
///
/// For each random list the FSM of a random member is built; detection
/// correctness is verified exhaustively over the 2048-identifier space and
/// the decision position is accumulated over the malicious identifiers.
/// Every FSM is an independent cell whose RNG is seeded from the master
/// seed by cell index, so the summary is identical for every shard count.
/// Per-cell registries (FSM/id tallies and the decision-position
/// histogram) are merged into `opts.recorder` in cell index order, so the
/// merged snapshot is byte-identical for every shard count too. (The sweep
/// is pure FSM verification — no simulator is involved, so `opts.mode`
/// has no effect here.)
///
/// The mean detection position grows with the IVN size (the paper's "as
/// the size of IVN 𝔼 grows, the detection bit position rises"): ≈ 4.7
/// bits at N = 10, ≈ 7.7 at N = 100, ≈ 9 at N ≈ 300 — the regime matching
/// the paper's reported mean of 9 ([`PAPER_IVN_SIZES`]).
pub fn run_sweep_with(
    fsm_count: usize,
    seed: u64,
    sizes: RangeInclusive<usize>,
    opts: &ExecOpts,
) -> DetectionSweep {
    let (n_min, n_max) = sizes.into_inner();
    assert!(n_min >= 1 && n_min <= n_max && n_max <= 1024);
    let tallies = ExperimentPlan::new(vec![(); fsm_count], seed)
        .run_with(opts, |_index, cell_seed, (), cell_opts| {
            sweep_cell(cell_seed, n_min, n_max, &cell_opts.recorder)
        });

    let mut total = FsmCellTally::default();
    for t in &tallies {
        total.position_sum += t.position_sum;
        total.malicious_total += t.malicious_total;
        total.detected += t.detected;
        total.benign_total += t.benign_total;
        total.false_positives += t.false_positives;
        total.nodes += t.nodes;
    }

    DetectionSweep {
        fsm_count,
        mean_detection_position: if total.detected == 0 {
            0.0
        } else {
            total.position_sum as f64 / total.detected as f64
        },
        detection_rate: if total.malicious_total == 0 {
            1.0
        } else {
            total.detected as f64 / total.malicious_total as f64
        },
        false_positive_rate: if total.benign_total == 0 {
            0.0
        } else {
            total.false_positives as f64 / total.benign_total as f64
        },
        mean_nodes: total.nodes as f64 / fsm_count.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sweep(fsm_count: usize, seed: u64) -> DetectionSweep {
        run_sweep_with(fsm_count, seed, PAPER_IVN_SIZES, &ExecOpts::new())
    }

    #[test]
    fn sweep_is_perfect_and_early() {
        let sweep = paper_sweep(200, 7);
        assert_eq!(sweep.detection_rate, 1.0, "paper: 100 % detection");
        assert_eq!(sweep.false_positive_rate, 0.0);
        // Paper: mean detection bit position of ≈ 9 bits.
        assert!(
            (8.0..=10.0).contains(&sweep.mean_detection_position),
            "mean position {}",
            sweep.mean_detection_position
        );
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        assert_eq!(paper_sweep(50, 42), paper_sweep(50, 42));
        assert_ne!(paper_sweep(50, 42), paper_sweep(50, 43));
    }

    #[test]
    fn fsms_stay_compact() {
        let sweep = paper_sweep(100, 1);
        assert!(
            sweep.mean_nodes < 512.0,
            "hash-consed FSMs are small: {}",
            sweep.mean_nodes
        );
    }
}
