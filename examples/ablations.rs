//! Two ablations of the paper's modelling choices, printed as tables.
//!
//! - **Interpolation window.** The paper fills a missing footprint with the
//!   mean of its nearest 10 peers (5 per side). Sweeping the window and
//!   scoring each choice against the authors' own interpolated column, on
//!   the rows they had to interpolate, shows how sensitive that fill is.
//! - **Turnover levers.** Sweeping the entrants' efficiency and density
//!   improvements in the turnover simulation shows how much faster silicon
//!   would have to improve to flatten the carbon curve — the paper's
//!   "architectural customization and accelerators is not enough" claim,
//!   quantified.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use top500_carbon::analysis::interpolate::nearest_peer_interpolation;
use top500_carbon::analysis::turnover::{simulate, TurnoverConfig};
use top500_carbon::top500::appendix::AppendixRow;

/// Mean relative error of a `peers_per_side` fill against the authors'
/// interpolated column, over the rows without a public value.
fn error_vs_authors(rows: &[AppendixRow], peers_per_side: usize) -> f64 {
    let public: Vec<Option<f64>> = rows.iter().map(|r| r.operational.public).collect();
    let ours = nearest_peer_interpolation(&public, peers_per_side).expect("non-empty");
    let mut rel_err_sum = 0.0;
    let mut n = 0usize;
    for (row, our_value) in rows.iter().zip(&ours) {
        if row.operational.public.is_none() {
            let theirs = row
                .operational
                .interpolated
                .expect("interp column complete");
            rel_err_sum += ((our_value - theirs) / theirs).abs();
            n += 1;
        }
    }
    rel_err_sum / n as f64
}

fn main() {
    let rows = top500_carbon::top500::appendix::load();
    println!("=== Ablation — interpolation window vs the authors' interpolated column ===");
    println!("{:>6}  {:>22}", "peers", "mean relative error");
    for peers in [1usize, 2, 3, 5, 10, 25] {
        println!(
            "{peers:>6}  {:>21.1}%",
            error_vs_authors(&rows, peers) * 100.0
        );
    }
    println!("(paper uses 5 per side)");

    println!("\n=== Ablation — turnover levers vs emergent per-cycle carbon growth ===");
    println!(
        "{:>12} {:>10} {:>18} {:>18}",
        "efficiency", "density", "op growth/cycle", "emb growth/cycle"
    );
    for (eff, dens) in [(1.00, 1.00), (1.04, 1.07), (1.10, 1.10), (1.20, 1.20)] {
        let run = simulate(&TurnoverConfig {
            entrant_efficiency_factor: eff,
            entrant_density_factor: dens,
            cycles: 8,
            ..Default::default()
        });
        println!(
            "{:>12.2} {:>10.2} {:>17.1}% {:>17.1}%",
            eff,
            dens,
            run.operational_growth_per_cycle() * 100.0,
            run.embodied_growth_per_cycle() * 100.0
        );
    }
    println!("(paper regime: +5%/cycle operational, +1%/cycle embodied)");
}
