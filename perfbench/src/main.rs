//! End-to-end release benchmark for `dpsyn`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (timed, five
//! times, median reported), then runs a closed loop with one caller for at
//! least `--seconds` seconds and at least [`MIN_OPS`] ops (more for
//! `hier_retail`).  Correctness gates run outside the timed regions.  Times
//! are reported at a reference host speed (see [`calib`]).  The last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`:
//!
//! * `--trace 0`: the end-to-end metrics ([`E2E`]), tracing off;
//! * `--trace 1`: the per-layer metrics ([`LAYERS`]), from a run whose
//!   first part is untraced (the baseline for `trace.overhead_frac`) and
//!   whose second part times every layer call from this crate's code.  The
//!   spans are written to `<work-dir>/trace-<workload>-<seed>.jsonl`.
//!
//! The exit code is non-zero when a correctness gate fails.

mod calib;
mod http;
mod release;
mod served;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Fewest ops in a measured loop by default: p90 then has at least ten
/// samples above it.
const MIN_OPS: usize = 100;
/// Fewest traced ops (per-layer medians only).
const MIN_TRACED_OPS: usize = 20;
/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Calibration kernel samples taken before and after each set-up.
const SETUP_CAL_SAMPLES: usize = 3;
/// Worker threads per session (and for the server's contexts): one, so
/// that the calibration kernel, which runs on the op's thread, sees the
/// speed of the only core the op uses.  With two workers `stream_star`'s
/// peak RSS also depended on which allocator arena the maintenance buffers
/// landed in (85–212 MB across seeds, against 74–76 MB for most seeds with
/// one).  `hier_retail` is the exception, see [`threads_for`].
const THREADS: usize = 1;
/// `hier_retail` runs two workers (at most `nproc`): its op is 0.4–0.5 s on
/// one thread whatever the instance size, too long for 100 ops in a run,
/// and its residual maximisation halves on two.
const HIER_THREADS: usize = 2;
/// A loop stops here even below its op minimum, so a run always ends.
const LOOP_CAP: Duration = Duration::from_secs(110);

/// End-to-end metrics (untraced run): name and unit.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("linf_err_rel", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (traced run): name and unit.  A workload that does not
/// exercise a layer reports 0 for it.
const LAYERS: &[(&str, &str)] = &[
    ("relational.full_join_ms", "ms"),
    ("relational.lattice_cold_ms", "ms"),
    ("relational.stream_apply_ms", "ms"),
    ("relational.lattice_refill_ms", "ms"),
    ("relational.maintained_masks", "count"),
    ("relational.rebuilt_masks", "count"),
    ("relational.cache_hit_ratio", "ratio"),
    ("relational.evictions", "count"),
    ("relational.cached_mb", "MB"),
    ("relational.replans", "count"),
    ("sensitivity.residual_max_ms", "ms"),
    ("sensitivity.s_cap", "count"),
    ("sensitivity.local_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.parts", "count"),
    ("pmw.weight_vectors_ms", "ms"),
    ("pmw.run_ms", "ms"),
    ("pmw.rounds_self_ms", "ms"),
    ("pmw.iterations", "count"),
    ("pmw.weight_entries", "count"),
    ("query.answer_all_ms", "ms"),
    ("server.rtt_release_ms", "ms"),
    ("server.rtt_update_ms", "ms"),
    ("server.rtt_budget_ms", "ms"),
    ("server.release_inproc_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.ledger_charge_ms", "ms"),
    ("session.op_traced_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What every workload receives: its seed, the pinned worker count, and a
/// scratch directory inside the checkout.
pub struct Env {
    pub seed: u64,
    pub threads: usize,
    pub work_dir: PathBuf,
}

/// The release seed of op `i` under workload seed `seed` (splitmix64).
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Library errors become messages.
pub trait OrStr<T> {
    fn str(self) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> OrStr<T> for Result<T, E> {
    fn str(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

/// One benchmark workload.  `op` is what a user of the system waits for;
/// everything else runs outside the timed regions.
pub trait Workload: Sized {
    type Out;
    /// Fewest ops in the measured loop.
    const MIN_OPS: usize = MIN_OPS;
    /// Builds inputs and warm state.  Time the workload adds to `untimed`
    /// (truth evaluation, reference copies) is excluded from `setup_s`.
    fn setup(env: &Env, untimed: &mut Duration) -> Result<Self, String>;
    /// One op; `Err` counts as a failed op.
    fn op(&mut self, i: u64) -> Result<Self::Out, String>;
    /// Time the last op spent pausing on purpose (a client's pause before a
    /// request), which is not part of its latency.  Traced ops record it as
    /// `idle` spans.
    fn idle(&self) -> Duration {
        Duration::ZERO
    }
    /// Correctness gates on one op's output (untimed).  Also accumulates
    /// the op's error against truth.
    fn verify(&mut self, i: u64, out: Self::Out) -> Result<(), String>;
    /// End-of-run gates (untimed).
    fn finish(&mut self) -> Result<(), String>;
    /// Mean relative error of the verified ops' outputs against truth.
    fn accuracy(&self) -> f64;
    /// One op with every layer call inside a span, plus the untimed
    /// replays that split opaque calls into their layers.
    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;
    /// Per-layer metrics from the traced ops `ops`.
    fn layers(&self, tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work_dir,
    })
}

/// The result line's contents.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values clamp).
fn json_num(v: f64) -> String {
    let v = if v.is_nan() {
        0.0
    } else {
        v.clamp(-1e300, 1e300)
    };
    format!("{v:?}")
}

/// Linear-interpolated quantile of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if v[hi] == v[lo] {
        // Also keeps two failed (infinite) samples from giving NaN.
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The session's cache counters at the start of the traced part, and the
/// relational per-layer metrics taken against them at its end.
#[derive(Default)]
pub struct CacheCounters {
    base: Option<(u64, u64, u64)>,
}

impl CacheCounters {
    /// Snapshots the counters the first time it is called.
    pub fn start(&mut self, session: &dpsyn::Session) {
        if self.base.is_none() {
            let (hits, misses) = session.cache_stats();
            self.base = Some((hits, misses, session.eviction_stats().evictions));
        }
    }

    pub fn layers(
        &self,
        session: &dpsyn::Session,
        query: &dpsyn::relational::JoinQuery,
        instance: &dpsyn::relational::Instance,
    ) -> Vec<(&'static str, f64)> {
        let (h0, m0, e0) = self.base.unwrap_or((0, 0, 0));
        let (hits, misses) = session.cache_stats();
        let lookups = (hits - h0) + (misses - m0);
        let replans = session
            .plan_stats(query, instance)
            .ok()
            .and_then(|p| p.replan)
            .map_or(0, |r| r.replans);
        vec![
            (
                "relational.cache_hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    (hits - h0) as f64 / lookups as f64
                },
            ),
            (
                "relational.evictions",
                (session.eviction_stats().evictions - e0) as f64,
            ),
            (
                "relational.cached_mb",
                session.cached_subjoin_bytes() as f64 / 1_048_576.0,
            ),
            ("relational.replans", replans as f64),
        ]
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A closed loop's record: one latency per attempted op (failed ops count
/// as infinitely slow), the wall time of every op, and the calibration
/// kernel's time right before each op.
#[derive(Default)]
struct Loop {
    lat_ms: Vec<f64>,
    op_ms: Vec<f64>,
    cal_ms: Vec<f64>,
    failed: u64,
    busy_s: f64,
}

impl Loop {
    /// `values` (one per op) at the reference speed.
    fn scaled(&self, values: &[f64]) -> Vec<f64> {
        calib::calibrate(values, &self.cal_ms)
    }
}

/// Gate failures, reported on stderr and folded into `correct`.
#[derive(Default)]
struct Gates {
    failures: Vec<String>,
}

impl Gates {
    fn record(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            if self.failures.len() < 20 {
                eprintln!("perfbench: gate failed: {what}: {e}");
            }
            self.failures.push(e);
        }
    }
}

/// Runs ops `first..` until at least `seconds` have passed and `min_ops`
/// ops were attempted (or [`LOOP_CAP`] passes).
fn closed_loop<W: Workload>(
    w: &mut W,
    first: u64,
    seconds: f64,
    min_ops: usize,
    gates: &mut Gates,
) -> Loop {
    let mut lp = Loop::default();
    let started = Instant::now();
    let mut i = first;
    while (started.elapsed().as_secs_f64() < seconds || lp.lat_ms.len() < min_ops)
        && started.elapsed() < LOOP_CAP
    {
        lp.cal_ms.push(calib::sample_ms());
        let t = Instant::now();
        let out = w.op(i);
        let dt = t.elapsed().saturating_sub(w.idle()).as_secs_f64();
        lp.busy_s += dt;
        lp.op_ms.push(dt * 1e3);
        match out {
            Ok(out) => {
                lp.lat_ms.push(dt * 1e3);
                gates.record("op output", w.verify(i, out));
            }
            Err(e) => {
                eprintln!("perfbench: op {i} failed: {e}");
                lp.failed += 1;
                lp.lat_ms.push(f64::INFINITY);
            }
        }
        i += 1;
    }
    lp
}

fn untraced<W: Workload>(env: &Env, seconds: f64) -> Result<Report, String> {
    let mut gates = Gates::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    let mut setup_cal = Vec::new();
    let calibrate_setup =
        |cal: &mut Vec<f64>| cal.extend((0..SETUP_CAL_SAMPLES).map(|_| calib::sample_ms()));
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        calibrate_setup(&mut setup_cal);
        let mut untimed = Duration::ZERO;
        let t = Instant::now();
        let mut w = W::setup(env, &mut untimed)?;
        let warm = w.op(0)?;
        let idle = w.idle();
        setups.push((t.elapsed().saturating_sub(untimed + idle)).as_secs_f64());
        calibrate_setup(&mut setup_cal);
        gates.record("warm-up op", w.verify(0, warm));
        kept = Some(w);
    }
    let setup_s = median(&setups) * calib::REF_MS / median(&setup_cal);
    let mut w = kept.expect("at least one set-up");
    let lp = closed_loop(&mut w, 1, seconds, W::MIN_OPS, &mut gates);
    gates.record("end of run", w.finish());
    let ok = lp.lat_ms.len() as u64 - lp.failed;
    let lat_ms = lp.scaled(&lp.lat_ms);
    let busy_s = lp.scaled(&lp.op_ms).iter().sum::<f64>() / 1e3;
    let metrics = vec![
        ("setup_s", setup_s),
        ("op_p50_ms", quantile(&lat_ms, 0.5)),
        ("op_p90_ms", quantile(&lat_ms, 0.9)),
        ("ops_per_s", ok as f64 / busy_s),
        ("peak_rss_mb", peak_rss_mb()?),
        ("linf_err_rel", w.accuracy()),
        ("ok_frac", ok as f64 / lp.lat_ms.len() as f64),
    ];
    eprintln!(
        "perfbench: {} ops, {} failed, setups {:?} s; wall clock: op p50 {:.3} ms, p90 {:.3} ms, {:.4} ops/s",
        lp.lat_ms.len(),
        lp.failed,
        setups,
        quantile(&lp.lat_ms, 0.5),
        quantile(&lp.lat_ms, 0.9),
        ok as f64 / lp.busy_s
    );
    eprintln!(
        "perfbench: calibration kernel median {:.4} ms (set-up {:.4} ms), reference {} ms",
        median(&lp.cal_ms),
        median(&setup_cal),
        calib::REF_MS
    );
    Ok(Report {
        correct: gates.failures.is_empty(),
        attempted: lp.lat_ms.len() as u64,
        failed: lp.failed,
        metrics: with_units(E2E, metrics),
    })
}

fn traced<W: Workload>(env: &Env, seconds: f64, workload: &str) -> Result<Report, String> {
    let mut gates = Gates::default();
    let mut untimed = Duration::ZERO;
    let mut w = W::setup(env, &mut untimed)?;
    let warm = w.op(0)?;
    gates.record("warm-up op", w.verify(0, warm));

    // Untraced baseline for the overhead figure, then the traced part.
    let base = closed_loop(&mut w, 1, seconds * 0.4, MIN_TRACED_OPS, &mut gates);
    let mut tr = Tracer::new();
    let first = 1 + base.lat_ms.len() as u64;
    let mut ops = Vec::new();
    let mut ops_cal_ms = Vec::new();
    let mut failed = base.failed;
    let started = Instant::now();
    let mut i = first;
    while (started.elapsed().as_secs_f64() < seconds * 0.6 || ops.len() < MIN_TRACED_OPS)
        && started.elapsed() < LOOP_CAP
    {
        let cal = calib::sample_ms();
        tr.begin_op(i);
        match w.traced_op(i, &mut tr) {
            Ok(()) => {
                ops.push(i);
                ops_cal_ms.push(cal);
            }
            Err(e) => {
                eprintln!("perfbench: traced op {i} failed: {e}");
                failed += 1;
            }
        }
        i += 1;
    }
    gates.record("end of run", w.finish());

    let mut layers = w.layers(&tr, &ops);
    let traced_ms: Vec<f64> = tr
        .per_op_ms("op", &ops)
        .iter()
        .zip(tr.per_op_ms("idle", &ops))
        .map(|(op, idle)| op - idle)
        .collect();
    layers.push(("session.op_traced_ms", median(&traced_ms)));
    // Overhead compares both parts at the reference speed, so a change of
    // host speed between them does not read as tracing cost.
    let traced_p50 = median(&calib::calibrate(&traced_ms, &ops_cal_ms));
    let base_p50 = median(&base.scaled(&base.lat_ms));
    layers.push(("trace.overhead_frac", traced_p50 / base_p50 - 1.0));
    let metrics: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|(name, _)| {
            let v = layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect();

    let path = env
        .work_dir
        .join(format!("trace-{workload}-{}.jsonl", env.seed));
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"threads\":{},\"nproc\":{},\"traced_ops\":{}}}",
        env.seed,
        env.threads,
        nproc(),
        ops.len()
    );
    tr.write_jsonl(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} traced ops; spans in {}",
        ops.len(),
        path.display()
    );

    Ok(Report {
        correct: gates.failures.is_empty(),
        attempted: base.lat_ms.len() as u64 + (i - first),
        failed,
        metrics: with_units(LAYERS, metrics),
    })
}

fn with_units(
    table: &[(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v, *unit)
        })
        .collect()
}

/// The pinned worker count of `workload`.
fn threads_for(workload: &str) -> usize {
    match workload {
        "hier_retail" => HIER_THREADS.min(nproc()),
        _ => THREADS,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn dispatch(args: &Args, env: &Env) -> Result<Report, String> {
    macro_rules! run {
        ($w:ty) => {
            if args.trace {
                traced::<$w>(env, args.seconds, &args.workload)
            } else {
                untraced::<$w>(env, args.seconds)
            }
        };
    }
    match args.workload.as_str() {
        "multi_retail" => run!(release::MultiRetail),
        "hier_retail" => run!(release::HierRetail),
        "stream_star" => run!(stream::StreamStar),
        "served_small" => run!(served::ServedSmall),
        other => Err(format!(
            "unknown workload {other:?} (multi_retail, hier_retail, stream_star, served_small)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin parallelism before the engine first reads it: sessions built
    // here and the server's default contexts all use the same worker count.
    let threads = threads_for(&args.workload);
    std::env::set_var("DPSYN_THREADS", threads.to_string());
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let env = Env {
        seed: args.seed,
        threads,
        work_dir: args.work_dir.clone(),
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        threads,
        nproc()
    );
    match dispatch(&args, &env) {
        Ok(report) => {
            println!("{}", report.to_json());
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
