//! E6 — synthetic data vs per-query Laplace (Sec. 1.2).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_baselines [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E6 — synthetic data vs per-query Laplace (Sec. 1.2)",
        dpsyn_bench::exp_baselines,
    );
}
