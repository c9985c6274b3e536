//! E7 — residual sensitivity runtime (Def. 3.6).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_sensitivity_scaling [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E7 — residual sensitivity runtime (Def. 3.6)",
        dpsyn_bench::exp_sensitivity_scaling,
    );
}
