//! `nds-perfbench`: the repository benchmark's measuring program.
//!
//! Runs one workload from a seed and prints, as the last line of its
//! standard output, one JSON document with the workload's metrics, its
//! output checks and the machine it ran on. `perfbench/run.py` builds
//! this program, runs it, and reduces that document to the benchmark's
//! result line; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! nds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--out <dir>]
//! ```
//!
//! With `--trace 1` the named workload runs twice (untraced, then with
//! spans recorded around every call into the workspace) and the other
//! workloads run briefly with spans, so every per-layer metric is
//! measured in every traced run. Spans are written to `--out` when given.

mod eval;
mod search;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use trace::Tracer;

/// Spans written per traced segment (all are recorded and aggregated;
/// the file keeps the first ones, enough to inspect a run).
const SPANS_WRITTEN: usize = 20_000;

/// Weight-init seed of every network the workloads build. Weights stay
/// fixed across workload seeds; the seed generates only the inputs.
pub const WEIGHT_SEED: u64 = 0x0E7A_1000;

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 4] = [
    "serve_lenet_mixed",
    "eval_resnet18w8",
    "eval_lenet_q78_fused",
    "search_lenet_campaign",
];

/// How one workload invocation is sized and recorded.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured time budget for the workload's loops.
    pub seconds: f64,
    /// Tiny sizes, for the benchmark's own test.
    pub smoke: bool,
    /// Record spans around every call into the workspace.
    pub traced: bool,
    /// How many times setup runs (the median is reported).
    pub setup_reps: usize,
    /// `NDS_THREADS` as the worker pool resolved it.
    pub workers: usize,
}

/// Served, succeeded and failed operations of one workload phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Everything one workload invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload-level metrics (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Workload configuration, recorded verbatim.
    pub config: Vec<(String, String)>,
    /// Output checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    pub phases: Vec<Phase>,
    /// Operations attempted / failed (errors, refusals, wrong bytes).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable per-layer table.
    pub table: Vec<String>,
    /// Recorded spans, by segment name.
    pub spans: Vec<(String, Tracer)>,
    /// A byte-exact digest of the workload's result state, compared
    /// between the untraced and traced halves of a traced run.
    pub fingerprint: Option<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    /// Records an output check over `items` compared items, `wrong` of
    /// which differed; each wrong item counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, items: u64, wrong: u64, detail: String) {
        self.attempted += items;
        self.failed += wrong;
        self.checks.push((name.into(), wrong == 0, detail));
    }

    pub fn phase(&mut self, name: impl Into<String>, sent: u64, succeeded: u64, failed: u64) {
        self.attempted += sent;
        self.failed += failed;
        self.phases.push(Phase {
            name: name.into(),
            sent,
            succeeded,
            failed,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.layers)
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Folds a traced segment of another workload into this report: its
    /// per-layer metrics, checks, phases, table and spans.
    fn absorb_segment(&mut self, workload: &str, seg: Report) {
        self.layers.extend(seg.layers);
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        for (name, ok, detail) in seg.checks {
            self.checks.push((format!("{workload}/{name}"), ok, detail));
        }
        for mut phase in seg.phases {
            phase.name = format!("{workload}/{}", phase.name);
            self.phases.push(phase);
        }
        self.table.extend(seg.table);
        self.spans.extend(seg.spans);
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs `build` `reps` times, timing each, and keeps the last result:
/// the median is the workload's `setup_s`.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous build first, so teardown is not timed.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup ran"), median(&times))
}

/// Bitwise equality of two float slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two optional f64 diagnostics.
pub fn same_bits64(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            args.smoke = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Report {
    let mut rep = Report::default();
    match name {
        "serve_lenet_mixed" => serve::run(cfg, &mut rep),
        "eval_resnet18w8" => eval::run_resnet(cfg, &mut rep),
        "eval_lenet_q78_fused" => eval::run_lenet_q78(cfg, &mut rep),
        "search_lenet_campaign" => search::run(cfg, &mut rep),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
    rep
}

/// The CPU's brand string, read with `cpuid` (no file access).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86-64 processor; leaf
        // 0x8000_0000 reports the highest extended leaf, and the brand
        // leaves are only queried when it says they exist.
        #[allow(unused_unsafe)]
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: as above; the leaf is within the reported range.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            return text.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(list: &[(String, f64, &'static str)]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                jstr(name),
                jnum(*v),
                jstr(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn report_json(args: &Args, rep: &Report, machine: &[(String, String)]) -> String {
    let kv = |pairs: &[(String, String)]| {
        let items: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}:{}", jstr(k), jstr(v)))
            .collect();
        format!("{{{}}}", items.join(","))
    };
    let checks: Vec<String> = rep
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                jstr(name),
                jstr(detail)
            )
        })
        .collect();
    let phases: Vec<String> = rep
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"sent\":{},\"succeeded\":{},\"failed\":{}}}",
                jstr(&p.name),
                p.sent,
                p.succeeded,
                p.failed
            )
        })
        .collect();
    let correct = rep.failed == 0 && rep.checks.iter().all(|(_, ok, _)| *ok);
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"machine\":{},\"config\":{},\
         \"checks\":[{}],\"phases\":[{}],\"metrics\":{},\"layers\":{}}}",
        jstr(&args.workload),
        args.seed,
        jnum(args.seconds),
        u8::from(args.trace),
        args.smoke,
        rep.attempted,
        rep.failed,
        kv(machine),
        kv(&rep.config),
        checks.join(","),
        phases.join(","),
        metrics_json(&rep.metrics),
        metrics_json(&rep.layers),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nds-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = nds_tensor::parallel::worker_count();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machine = vec![
        ("nproc".to_string(), nproc.to_string()),
        (
            "NDS_THREADS".to_string(),
            std::env::var("NDS_THREADS").unwrap_or_else(|_| "unset".to_string()),
        ),
        ("pool_workers".to_string(), workers.to_string()),
        ("cpu_model".to_string(), cpu_model()),
    ];
    let base = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: false,
        setup_reps: if args.smoke { 1 } else { 5 },
        workers,
    };

    let mut rep;
    if !args.trace {
        rep = run_workload(&args.workload, &base);
    } else {
        // The named workload: an untraced half, then a traced half; the
        // ratio of their p50_ms is the tracing overhead.
        let half = RunCfg {
            seconds: args.seconds / 2.0,
            ..base
        };
        let plain = run_workload(&args.workload, &half);
        rep = run_workload(
            &args.workload,
            &RunCfg {
                traced: true,
                ..half
            },
        );
        rep.attempted += plain.attempted;
        rep.failed += plain.failed;
        for (name, ok, detail) in &plain.checks {
            rep.checks
                .push((format!("untraced/{name}"), *ok, detail.clone()));
        }
        for phase in &plain.phases {
            rep.phases.push(Phase {
                name: format!("untraced/{}", phase.name),
                ..phase.clone()
            });
        }
        let overhead = match (rep.get("p50_ms"), plain.get("p50_ms")) {
            (Some(on), Some(off)) if off > 0.0 => on / off - 1.0,
            _ => f64::NAN,
        };
        rep.layer("trace.overhead_frac", overhead, "frac");
        if let (Some(a), Some(b)) = (&plain.fingerprint, &rep.fingerprint) {
            rep.check(
                "traced_result_equals_untraced",
                1,
                u64::from(a != b),
                format!("{} bytes compared", a.len()),
            );
        }
        // Every other workload runs briefly with spans, so each traced
        // run measures every per-layer metric.
        let mini = RunCfg {
            seconds: if args.smoke { 0.3 } else { 1.5 },
            traced: true,
            setup_reps: 1,
            ..base
        };
        for name in WORKLOADS.iter().filter(|&&w| w != args.workload) {
            let seg = run_workload(name, &mini);
            rep.absorb_segment(name, seg);
        }
    }

    let fail_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.metric("fail_frac", fail_frac, "frac");

    if let Some(dir) = &args.out {
        if args.trace {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("nds-perfbench: cannot create {dir}: {e}");
            }
            for (segment, tracer) in &rep.spans {
                let path = format!(
                    "{dir}/spans-{}-{segment}-seed{}.json",
                    args.workload, args.seed
                );
                if let Err(e) = std::fs::write(&path, tracer.to_json(SPANS_WRITTEN)) {
                    eprintln!("nds-perfbench: cannot write {path}: {e}");
                }
            }
        }
    }

    for line in &rep.table {
        println!("{line}");
    }
    for (segment, tracer) in &rep.spans {
        for (name, t) in tracer.totals() {
            println!(
                "span {segment} {name}: {} spans, total {:.3} ms, self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ms()
            );
        }
    }
    for (name, ok, detail) in &rep.checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    println!("{}", report_json(&args, &rep, &machine));
}
