//! E5 — hierarchical uniformization (Sec. 4.2 / Thm C.2).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_hierarchical [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E5 — hierarchical uniformization (Sec. 4.2 / Thm C.2)",
        dpsyn_bench::exp_hierarchical,
    );
}
