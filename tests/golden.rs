//! Golden-file determinism suite.
//!
//! Three layers of defence against nondeterminism and silent numeric
//! drift in the inference pipeline:
//!
//! 1. **Committed fixtures** (`tests/golden/`): exact formatted outputs
//!    for hand-computable calibration metrics and for LeNet logits on a
//!    fixed seed. Any change to kernel accumulation order, weight
//!    initialisation or metric arithmetic shows up as a byte diff.
//! 2. **Cross-environment CLI byte identity**: `nds eval` must print the
//!    same bytes under `NDS_THREADS=1` and `NDS_THREADS=4` — the
//!    user-facing form of the serial-vs-parallel bit-identity guarantee.
//! 3. **Sharing-path identity**: covered in `tests/zero_copy.rs` (shared
//!    Arc weights vs deep copies produce identical bytes).
//!
//! Regenerating fixtures after an *intentional* numeric change:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test --test golden
//! git diff tests/golden/   # review, then commit
//! ```

use neural_dropout_search::hw::simulator::{quantize_network, quantized_forward};
use neural_dropout_search::metrics::{
    accuracy, apply_temperature, brier_score, ece, nll, EceConfig,
};
use neural_dropout_search::nn::{zoo, Layer, Mode};
use neural_dropout_search::quant::Q7_8;
use neural_dropout_search::supernet::{Supernet, SupernetSpec};
use neural_dropout_search::tensor::rng::Rng64;
use neural_dropout_search::tensor::{Shape, Tensor};
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `NDS_REGEN_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("NDS_REGEN_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir is creatable");
        std::fs::write(&path, actual).expect("fixture is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run NDS_REGEN_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "output diverged from committed fixture {name}; if the change is \
         intentional, regenerate with NDS_REGEN_GOLDEN=1 and commit the diff"
    );
}

/// Hand-computable calibration inputs: four two-class predictions with
/// simple confidences. With the default 15-bin ECE:
///   row 0: probs (0.9, 0.1), label 0 — correct, confidence 0.9
///   row 1: probs (0.6, 0.4), label 1 — wrong,   confidence 0.6
///   row 2: probs (0.8, 0.2), label 0 — correct, confidence 0.8
///   row 3: probs (0.3, 0.7), label 1 — correct, confidence 0.7
/// NLL = -(ln 0.9 + ln 0.4 + ln 0.8 + ln 0.7) / 4 ≈ 0.398.
fn hand_probs() -> (Tensor, Vec<usize>) {
    let probs = Tensor::from_vec(
        vec![0.9, 0.1, 0.6, 0.4, 0.8, 0.2, 0.3, 0.7],
        Shape::d2(4, 2),
    )
    .unwrap();
    (probs, vec![0, 1, 0, 1])
}

#[test]
fn calibration_metrics_match_committed_fixture() {
    let (probs, labels) = hand_probs();
    let acc = accuracy(&probs, &labels).unwrap();
    let expected_nll = -(0.9f64.ln() + 0.4f64.ln() + 0.8f64.ln() + 0.7f64.ln()) / 4.0;
    let got_nll = nll(&probs, &labels).unwrap();
    // f32 prob storage vs f64 hand arithmetic: agree to ~1e-7.
    assert!(
        (got_nll - expected_nll).abs() < 1e-6,
        "hand-check: {got_nll}"
    );
    assert_eq!(acc, 0.75, "3 of 4 predictions are correct");
    // Temperature scaling (calibration.rs): T = 2 on the log-probs halves
    // every logit gap; metrics of the scaled distribution are part of the
    // fixture so the softmax path is pinned too.
    let logits = probs.map(|p| p.ln());
    let scaled = apply_temperature(&logits, 2.0).unwrap();
    let mut out = String::new();
    out.push_str(&format!("accuracy {acc:.12e}\n"));
    out.push_str(&format!(
        "ece {:.12e}\n",
        ece(&probs, &labels, EceConfig::default()).unwrap()
    ));
    out.push_str(&format!("nll {got_nll:.12e}\n"));
    out.push_str(&format!(
        "brier {:.12e}\n",
        brier_score(&probs, &labels,).unwrap()
    ));
    out.push_str(&format!("nll_t2 {:.12e}\n", nll(&scaled, &labels).unwrap()));
    out.push_str(&format!(
        "ece_t2 {:.12e}\n",
        ece(&scaled, &labels, EceConfig::default()).unwrap()
    ));
    assert_golden("calibration_metrics.txt", &out);
}

#[test]
fn lenet_logits_match_committed_fixture() {
    // Untrained LeNet supernet at a fixed seed, Standard-mode forward on
    // a fixed input batch: the logits exercise the full conv → pool →
    // linear pipeline with pure arithmetic (no libm), so they are exact
    // across platforms and must never drift.
    let spec = SupernetSpec::paper_default(zoo::lenet(), 20_240_101).unwrap();
    let mut supernet = Supernet::build(&spec).unwrap();
    supernet.set_config(&"BBB".parse().unwrap()).unwrap();
    let mut rng = Rng64::new(77);
    let images = Tensor::rand_normal(Shape::d4(3, 1, 28, 28), 0.0, 1.0, &mut rng);
    let logits = supernet.net_mut().forward(&images, Mode::Standard).unwrap();
    assert_eq!(logits.shape(), &Shape::d2(3, 10));
    let mut out = String::new();
    for (i, row) in logits.as_slice().chunks(10).enumerate() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.9e}")).collect();
        out.push_str(&format!("logits[{i}] {}\n", cells.join(" ")));
    }
    assert_golden("lenet_logits.txt", &out);
}

#[test]
fn quantized_forward_q78_matches_committed_fixture() {
    // The fixed-point datapath pinned alongside the float path: a toy
    // MLP with Q7.8-snapped weights, Standard-mode forward with
    // activations rounded to Q7.8 between layers. Quantisation is pure
    // arithmetic (scale, round, clamp); only the final softmax touches
    // libm, exactly like the float CLI fixture.
    use neural_dropout_search::nn::layers::{Flatten, Linear, Relu, Sequential};
    let mut rng = Rng64::new(20_240_102);
    let mut net = Sequential::new();
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(8, 16, true, &mut rng)));
    net.push(Box::new(Relu::new()));
    net.push(Box::new(Linear::new(16, 4, true, &mut rng)));
    let changed = quantize_network(&mut net, Q7_8);
    assert!(changed > 0, "He-normal weights rarely sit on the Q7.8 grid");
    let images = Tensor::rand_normal(Shape::d4(3, 2, 2, 2), 0.0, 1.0, &mut rng);
    let probs = quantized_forward(&mut net, &images, Q7_8, Mode::Standard).unwrap();
    assert_eq!(probs.shape(), &Shape::d2(3, 4));
    let mut out = String::new();
    for (i, row) in probs.as_slice().chunks(4).enumerate() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.9e}")).collect();
        out.push_str(&format!("q78_probs[{i}] {}\n", cells.join(" ")));
    }
    assert_golden("quantized_forward_q78.txt", &out);
}

fn eval_bytes(threads: &str, args: &[&str]) -> (bool, Vec<u8>) {
    let output = Command::new(env!("CARGO_BIN_EXE_nds"))
        .env("NDS_THREADS", threads)
        .args(args)
        .output()
        .expect("nds binary runs");
    (output.status.success(), output.stdout)
}

#[test]
fn cli_eval_bytes_identical_across_thread_counts() {
    for args in [
        // LeNet: conv + maxpool + FC dropout slots.
        &["eval", "--arch", "lenet", "--config", "BBB", "--seed", "7"][..],
        // ResNet: batch-norm + residual blocks + four slots.
        &[
            "eval", "--arch", "resnet", "--config", "BBBB", "--seed", "9",
        ][..],
    ] {
        let (ok1, serial) = eval_bytes("1", args);
        let (ok4, parallel) = eval_bytes("4", args);
        assert!(ok1 && ok4, "eval must succeed under both thread counts");
        assert!(!serial.is_empty());
        assert_eq!(
            serial,
            parallel,
            "`nds {}` bytes diverged between NDS_THREADS=1 and 4",
            args.join(" ")
        );
    }
}

#[test]
fn cli_eval_bytes_identical_across_execution_orders() {
    // The sample-major fused path (PR 8) is a pure scheduling choice:
    // `nds eval --execution sample-major` (the default order) must print
    // byte-for-byte what `--execution round-major` prints — which is
    // also why the committed fixtures needed no regeneration when the
    // knob landed, nor when the default moved to sample-major.
    let base = &["eval", "--arch", "lenet", "--config", "RKM", "--seed", "11"];
    let (ok_round, round) = eval_bytes("4", &[&base[..], &["--execution", "round-major"]].concat());
    let (ok_fused, fused) =
        eval_bytes("4", &[&base[..], &["--execution", "sample-major"]].concat());
    assert!(ok_round && ok_fused, "eval must succeed in both orders");
    assert!(!round.is_empty());
    assert_eq!(
        round, fused,
        "`nds eval` bytes diverged between round-major and sample-major execution"
    );
}

#[test]
fn cli_eval_bytes_match_committed_fixture() {
    // The full CLI output is itself a fixture: metrics, digest and the
    // leading probability row. MC sampling goes through softmax (libm
    // exp), which is deterministic for a fixed libm; this pins the
    // end-to-end pipeline on the reference platform and in CI.
    let (ok, bytes) = eval_bytes(
        "4",
        &["eval", "--arch", "lenet", "--config", "RKM", "--seed", "11"],
    );
    assert!(ok);
    assert_golden("cli_eval_lenet_rkm.txt", &String::from_utf8(bytes).unwrap());
}

#[test]
fn cli_eval_adaptive_off_matches_the_same_fixture() {
    // `--adaptive off` must be byte-invisible: the disabled gate takes
    // the standard engine path and prints no extra lines, so the output
    // is the exact committed fixture of the flagless invocation.
    let (ok, bytes) = eval_bytes(
        "4",
        &[
            "eval",
            "--arch",
            "lenet",
            "--config",
            "RKM",
            "--seed",
            "11",
            "--adaptive",
            "off",
        ],
    );
    assert!(ok);
    assert_golden("cli_eval_lenet_rkm.txt", &String::from_utf8(bytes).unwrap());
}
