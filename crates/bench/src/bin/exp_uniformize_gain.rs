//! E3 — uniformization gain (Fig. 3 / Example 4.2 / Thm 4.4, 4.5).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_uniformize_gain [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E3 — uniformization gain (Fig. 3 / Example 4.2 / Thm 4.4, 4.5)",
        dpsyn_bench::exp_uniformize_gain,
    );
}
