//! E9 — empirical privacy accounting.
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_accounting [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E9 — empirical privacy accounting",
        dpsyn_bench::exp_accounting,
    );
}
