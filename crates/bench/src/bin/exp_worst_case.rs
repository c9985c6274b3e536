//! E8 — worst-case error (Appendix B.3).
//!
//! Usage: `cargo run --release -p dpsyn-bench --bin exp_worst_case [--quick] [--json]`
//! `--json` prints the rows in machine-readable form for recording; the
//! experiment function's doc comment in `dpsyn_bench::experiments` names the
//! paper claim it reproduces.

fn main() {
    dpsyn_bench::run_cli(
        "E8 — worst-case error (Appendix B.3)",
        dpsyn_bench::exp_worst_case,
    );
}
