//! Golden alert sequences of every registry detector over fixed frame
//! scripts that reach the cases where the timing rules differ:
//!
//! * an explicit early `arm()` while identifiers are under-trained (the
//!   interval rule judges a partial mean; CUSUM and z-score flag the
//!   identifier outright);
//! * the first frame of an identifier never seen before arming;
//! * a mild sustained drift, where CUSUM alerts, resets and re-alerts;
//! * a repeated `arm()`, which changes nothing;
//! * a one-shot identifier that keeps every timing detector in
//!   `Training` (auto-arming waits for *every* identifier seen).
//!
//! The bake-off arms before these cases arise, so only this test pins
//! them. The expected text was recorded from the detectors as they
//! stood before their inter-arrival baseline was shared.

use can_core::{BitInstant, CanFrame, CanId};
use can_ids::{all_variants, IdsPhase};

const A: u16 = 0x100;
const B: u16 = 0x200;
const C: u16 = 0x050;
const D: u16 = 0x300;
const ONE_SHOT: u16 = 0x7FF;

#[derive(Clone, Copy)]
enum Step {
    Frame(u16, u64),
    Arm,
}

/// Trains `A` fully (10 intervals of 600 bits), `B` partially (2
/// intervals of 900) and `D` not at all (one frame), arms early, then
/// exercises the under-trained, unknown-identifier and drift cases.
fn early_arm_script() -> Vec<Step> {
    let mut training: Vec<(u16, u64)> = (0..=10).map(|k| (A, k * 600)).collect();
    training.extend([(B, 50), (D, 300), (B, 950), (B, 1_850)]);
    let mut armed = vec![
        (B, 6_350),
        (D, 6_500),
        (A, 6_600),
        (C, 6_700),
        (A, 7_200),
        (B, 7_250),
        (B, 7_500),
        (A, 7_800),
        (C, 7_900),
    ];
    // A mild drift of A (520-bit intervals against a learned 600), then
    // a gross compression (150-bit intervals).
    let mut t = 7_800;
    for gap in [520; 12].into_iter().chain([150; 6]) {
        t += gap;
        armed.push((A, t));
    }
    training.sort_by_key(|&(_, at)| at);
    armed.sort_by_key(|&(_, at)| at);
    let frames = |list: Vec<(u16, u64)>| list.into_iter().map(|(id, at)| Step::Frame(id, at));
    // Arming again changes nothing: the last frame is judged as before.
    frames(training)
        .chain([Step::Arm])
        .chain(frames(armed))
        .chain([Step::Arm, Step::Frame(A, t + 600)])
        .collect()
}

/// One frame of `ONE_SHOT` among 30 periodic frames of `A`, then a flood
/// of `A`; never armed explicitly.
fn one_shot_script() -> Vec<Step> {
    use Step::Frame;
    let mut script = vec![Frame(A, 0), Frame(ONE_SHOT, 100)];
    script.extend((1..30).map(|k| Frame(A, k * 600)));
    let mut t = 29 * 600;
    for _ in 0..10 {
        t += 100;
        script.push(Frame(A, t));
    }
    script
}

/// Runs every registry variant over `script`; one line per variant with
/// its final phase and every alert as `bit:id`.
fn run(script: &[Step]) -> String {
    let mut out = String::new();
    for variant in all_variants() {
        let mut detector = variant.instantiate();
        let mut alerts = Vec::new();
        for &step in script {
            match step {
                Step::Arm => detector.arm(),
                Step::Frame(id, at) => {
                    let frame = CanFrame::data_frame(CanId::from_raw(id), &[0]).unwrap();
                    if let Some(alert) = detector.observe(&frame, BitInstant::from_bits(at)) {
                        assert_eq!(alert.id.raw(), id);
                        assert_eq!(alert.at.bits(), at);
                        alerts.push(format!("{at}:{id:03X}"));
                    }
                }
            }
        }
        let phase = match detector.phase() {
            IdsPhase::Training => "training",
            IdsPhase::Armed => "armed",
        };
        out.push_str(&format!(
            "{} {phase} [{}]\n",
            variant.label(),
            alerts.join(" ")
        ));
    }
    out
}

#[test]
fn early_arm_alert_sequences_are_pinned() {
    let got = run(&early_arm_script());
    assert_eq!(got, EARLY_ARM_GOLDEN);
}

#[test]
fn one_shot_identifier_holds_training_as_pinned() {
    let got = run(&one_shot_script());
    assert_eq!(got, ONE_SHOT_GOLDEN);
}

const EARLY_ARM_GOLDEN: &str = concat!(
    "frequency[win=5000,thr=10] armed [14190:100 14340:100 14490:100 14640:100 14790:100 14940:100 15540:100]\n",
    "interval[train=8,tol=50%] armed [6350:200 6500:300 6700:050 7500:200 7900:050 14190:100 14340:100 14490:100 14640:100 14790:100 14940:100]\n",
    "cusum[train=8,h=8] armed [6350:200 6500:300 6700:050 7250:200 7500:200 7900:050 9880:100 11960:100 14040:100 14190:100 14340:100 14490:100 14640:100 14790:100 14940:100]\n",
    "cusum[train=8,h=4] armed [6350:200 6500:300 6700:050 7250:200 7500:200 7900:050 8840:100 9880:100 10920:100 11960:100 13000:100 14040:100 14190:100 14340:100 14490:100 14640:100 14790:100 14940:100]\n",
    "zscore[train=8,z=6] armed [6350:200 6500:300 6700:050 7250:200 7500:200 7900:050 14190:100 14340:100 14490:100 14640:100 14790:100 14940:100]\n",
    "entropy[win=16,band=400] armed [14190:100 14340:100 14490:100 14640:100 14790:100 14940:100 15540:100]\n",
);

const ONE_SHOT_GOLDEN: &str = concat!(
    "frequency[win=5000,thr=10] armed [17600:100 17700:100 17800:100 17900:100 18000:100 18100:100 18200:100 18300:100 18400:100]\n",
    "interval[train=8,tol=50%] training []\n",
    "cusum[train=8,h=8] training []\n",
    "cusum[train=8,h=4] training []\n",
    "zscore[train=8,z=6] training []\n",
    "entropy[win=16,band=400] armed []\n",
);
