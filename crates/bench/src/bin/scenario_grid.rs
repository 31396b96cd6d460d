//! The attacker × defense co-evolution grid CLI.
//!
//! ```text
//! scenario_grid [--smoke] [--out DIR] [--seed N] [--duration S] [--shards N]
//!
//!   --smoke     3×3 CI grid (burst/memory/rotating × open/dvfs/stacked)
//!               with hard assertions on the expected physics
//!   --out       output directory for the CSV [default: target/experiments]
//!   --seed      master seed                  [default: 2019]
//!   --duration  seconds per cell, long enough to score every row
//!               (the rotating row first re-aims at 25 s)
//!                                            [default: 120, smoke: 60]
//!   --shards    dataplane shards per cell, 1 to the rack's 4 nodes
//!                                            [default: 1]
//! ```
//!
//! A duration or shard count the grid cannot run or score
//! ([`GridConfig::check`]) is a usage error (exit 2), reported before
//! any cell runs. The cells run in parallel, one per core at a time,
//! and a cell's shards advance inline on the thread that runs it.
//!
//! Prints the matrix figure (markdown) and writes `scenario_grid.csv`.

use dope_bench::grid::{
    cells_table, matrix_markdown, run_grid, AttackRow, DefenseStack, GridConfig,
};
use simcore::par;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: scenario_grid [--smoke] [--out DIR] [--seed N] [--duration S] [--shards N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = PathBuf::from("target/experiments");
    let mut seed = 2019u64;
    let mut duration: Option<u64> = None;
    let mut shards = 1usize;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out = PathBuf::from(dir);
            }
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--duration" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--duration needs seconds");
                    return ExitCode::FAILURE;
                };
                duration = Some(v);
            }
            "--shards" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--shards needs a count");
                    return ExitCode::FAILURE;
                };
                shards = v;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let mut cfg = if smoke {
        GridConfig::smoke(seed)
    } else {
        GridConfig::full(seed)
    };
    if let Some(d) = duration {
        cfg.duration_s = d;
    }
    cfg.shards = shards;

    let (rows, cols): (&[AttackRow], &[DefenseStack]) = if smoke {
        (&AttackRow::SMOKE, &DefenseStack::SMOKE)
    } else {
        (&AttackRow::ALL, &DefenseStack::ALL)
    };
    if let Err(e) = cfg.check(rows) {
        eprintln!("{e}\n{USAGE}");
        return ExitCode::from(2);
    }

    let started = std::time::Instant::now();
    let cells = run_grid(&cfg, rows, cols);
    println!("{}", matrix_markdown(&cells, cols));

    let table = cells_table(&cells);
    println!("{}", table.to_text());
    let path = out.join("scenario_grid.csv");
    if let Err(e) = table.write_csv(&path) {
        eprintln!("writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("[csv] {}", path.display());
    let threads = par::helpers(usize::MAX) + 1;
    eprintln!(
        "{} cells in {:.1}s on {threads} thread{}",
        cells.len(),
        started.elapsed().as_secs_f64(),
        if threads == 1 { "" } else { "s" }
    );

    if smoke && !smoke_assertions(&cells) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Hard CI assertions on the smoke grid's physics. Returns false (and
/// explains) when any expectation is broken.
fn smoke_assertions(cells: &[dope_bench::grid::GridCell]) -> bool {
    let find = |vector_tag: &str, defense: &str| {
        cells
            .iter()
            .find(|c| c.vector.contains(vector_tag) && c.defense == defense)
    };
    let mut ok = true;
    let mut check = |what: &str, pass: bool| {
        if pass {
            println!("[smoke] ok: {what}");
        } else {
            eprintln!("[smoke] FAILED: {what}");
            ok = false;
        }
    };

    for c in cells {
        check(
            &format!("{} vs {} report is finite", c.vector, c.defense),
            c.report.power.peak_w.is_finite() && c.report.traffic.offered > 0,
        );
    }

    // The undefended memory-resource flood breaches the budget; the
    // stacked CAPoW + Anti-DOPE arm holds it.
    if let (Some(open), Some(stacked)) = (find("mem-", "open"), find("mem-", "stacked")) {
        check("memory flood violates the open arm", open.violated());
        check(
            "stacked arm holds the memory flood",
            !stacked.violated(),
        );
    } else {
        check("memory-flood row present", false);
    }

    // The rotating attacker against the profiler yields a finite,
    // positive regret signal.
    if let Some(rot) = find("rotating-", "stacked") {
        check(
            "rotating × stacked regret is finite",
            rot.regret_slots.is_some_and(|r| r.is_finite() && r >= 0.0),
        );
    } else {
        check("rotating row present", false);
    }

    ok
}
