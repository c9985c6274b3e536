//! E1 — distinguishing attack (Fig. 1 / Example 3.1).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_privacy_attack [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E1 — distinguishing attack (Fig. 1 / Example 3.1)",
        dpsyn_bench::exp_privacy_attack,
    );
}
