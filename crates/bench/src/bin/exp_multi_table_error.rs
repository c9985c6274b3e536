//! E4 — multi-table error vs n (Theorem 1.5).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_multi_table_error [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E4 — multi-table error vs n (Theorem 1.5)",
        dpsyn_bench::exp_multi_table_error,
    );
}
