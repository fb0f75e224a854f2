//! `resident-edits`: the only write path. One in-process caller drives a
//! warm, seeded `FleetState` in cycles: each cycle makes one `update_rows`
//! edit of `k` rank-preserving rows, then four reads — default `assess`,
//! default `assess` with draws, a masked `assess`, and `cached_totals`.
//! Every write changes the source hash, so a read-path cache keyed on it
//! pays its misses here.
//!
//! Edits come in pairs: an even cycle splices a seeded edit from a pool of
//! distinct edits (rows of the same ranks from another synthetic fleet),
//! the next cycle restores the original rows. The fleet's content after
//! any cycle is therefore the base fleet or the base with one pool edit,
//! while its hash chain never repeats. Reference: for the base and every
//! pool edit, a cold rebuild of the edited list queried at `workers = 1`,
//! computed once in set-up.

use super::{
    config, fold_totals, masked_scenario, measure, output_digest, phases, probe_state,
    replay_fleet, template_matrix, timed, totals_key, Opts, Outcome, Phase, SetUp, TotalsKey,
    SETUP_OP,
};
use crate::stats::{self, Rng};
use crate::trace::{span, Tracer};
use easyc::{EasyCConfig, FleetState};
use std::collections::BTreeMap;
use top500::synthetic::{generate_full, generate_range};
use top500::{SystemRecord, Top500List};

/// One pool edit: rows to splice at `first_row`, and the rows they replace.
struct Edit {
    first_row: usize,
    rows: Vec<SystemRecord>,
    original: Vec<SystemRecord>,
}

/// What the four reads must return for one fleet content.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    default: u64,
    draws: u64,
    masked: u64,
    totals: TotalsKey,
}

fn reads_of(state: &FleetState, draws: usize, draw_seed: u64, workers: usize) -> Expected {
    let default = state.query().workers(workers).run();
    let totals = totals_key(&fold_totals(&default.slices()[0].footprints));
    Expected {
        default: output_digest(&default),
        draws: output_digest(
            &state
                .query()
                .workers(workers)
                .uncertainty(draws)
                .seed(draw_seed)
                .run(),
        ),
        masked: output_digest(
            &state
                .query()
                .workers(workers)
                .scenario(masked_scenario())
                .run(),
        ),
        totals,
    }
}

/// The cold reference for `list`: rebuilt from scratch, never warmed.
fn cold_reference(list: Top500List, opts: &Opts) -> Expected {
    let cold = FleetState::from_list(
        list,
        EasyCConfig {
            workers: 1,
            ..config()
        },
    );
    reads_of(&cold, opts.scale.resident_draws, opts.draw_seed(), 1)
}

fn edit_pool(opts: &Opts, base: &Top500List) -> Result<Vec<Edit>, String> {
    let scale = opts.scale;
    let n = base.len();
    let k = scale.edit_rows;
    if n < k {
        return Err(format!("fleet of {n} rows is smaller than an edit of {k}"));
    }
    let mut rng = Rng::new(super::derive(opts.seed, 0xED17));
    (0..scale.edit_pool)
        .map(|j| {
            let first_row = rng.below(n - k + 1);
            let original = base.systems()[first_row..first_row + k].to_vec();
            let first_rank = original[0].rank;
            let alternative = top500::synthetic::SyntheticConfig {
                seed: super::derive(opts.seed, 0xA17 + j as u64),
                ..opts.fleet(scale.resident_systems)
            };
            let rows = generate_range(&alternative, first_rank, first_rank + k as u32 - 1);
            if rows.iter().zip(&original).any(|(a, b)| a.rank != b.rank) {
                return Err("synthetic ranks are not contiguous in list order".into());
            }
            Ok(Edit {
                first_row,
                rows,
                original,
            })
        })
        .collect()
}

fn spliced(base: &Top500List, edit: &Edit) -> Top500List {
    let mut systems = base.systems().to_vec();
    systems[edit.first_row..edit.first_row + edit.rows.len()].clone_from_slice(&edit.rows);
    Top500List::new(systems)
}

/// The caller's position in the edit sequence, kept across phases.
struct Cycles {
    rng: Rng,
    cycle: u64,
    current: usize,
    hash: u64,
}

const READS: [&str; 4] = [
    "op.read.default",
    "op.read.draws",
    "op.read.masked",
    "op.read.totals",
];

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = opts.scale;
    let tracer = opts.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let fleet = opts.fleet(scale.resident_systems);

    let mut setup = SetUp::new(scale.setup_reps, || {
        let list = span(tr, "top500.synthetic.gen", None, SETUP_OP, |_| {
            generate_full(&fleet)
        });
        let mut state = FleetState::from_list(list, config());
        state.warm();
        Ok(state)
    });
    let mut state = setup.before()?;
    let base = state.list().clone();
    let pool = edit_pool(opts, &base)?;
    let base_expected = cold_reference(base.clone(), opts);
    let expected: Vec<Expected> = pool
        .iter()
        .map(|e| cold_reference(spliced(&base, e), opts))
        .collect();

    let n = f64::from(scale.resident_systems);
    let k = scale.edit_rows as f64;
    let draws = scale.resident_draws;
    let draw_seed = opts.draw_seed();
    let masked = masked_scenario();
    let mut cycles = Cycles {
        rng: Rng::new(super::derive(opts.seed, 0xC7C1E)),
        cycle: 0,
        current: 0,
        hash: state.source_hash(),
    };
    let mut run_phase = |seconds: f64, tracer: Option<&Tracer>| {
        // At least one whole cycle: a write and its four reads.
        measure(seconds, 5, |p: &mut Phase| {
            let c = &mut cycles;
            let op = c.cycle;
            let (first_row, rows, want) = if c.cycle.is_multiple_of(2) {
                c.current = c.rng.below(pool.len());
                let e = &pool[c.current];
                (e.first_row, e.rows.clone(), &expected[c.current])
            } else {
                let e = &pool[c.current];
                (e.first_row, e.original.clone(), &base_expected)
            };
            c.cycle += 1;

            let (written, secs) = timed(|| {
                span(tracer, "op.write", None, op, |_| {
                    state.update_rows(first_row, rows)
                })
            });
            let ok = matches!(written, Ok(h) if h != c.hash);
            if let Ok(h) = written {
                c.hash = h;
            }
            p.write_s.push(secs);
            p.op(secs, ok, k, 0.0);

            let (out, secs) = timed(|| span(tracer, READS[0], None, op, |_| state.query().run()));
            p.op(secs, output_digest(&out) == want.default, n, 0.0);
            let (out, secs) = timed(|| {
                span(tracer, READS[1], None, op, |_| {
                    state.query().uncertainty(draws).seed(draw_seed).run()
                })
            });
            p.op(secs, output_digest(&out) == want.draws, n, n * draws as f64);
            let (out, secs) = timed(|| {
                span(tracer, READS[2], None, op, |_| {
                    state.query().scenario(masked.clone()).run()
                })
            });
            p.op(secs, output_digest(&out) == want.masked, n, 0.0);
            let (totals, secs) =
                timed(|| span(tracer, READS[3], None, op, |_| state.cached_totals()));
            p.op(
                secs,
                totals.map(|t| totals_key(&t)) == Some(want.totals),
                n,
                0.0,
            );
        })
    };
    // One untimed, checked operation first: caches fill and lazy set-up
    // finishes before timing.
    let warmup = run_phase(0.0, None);
    let mut extra_attempted = warmup.attempted;
    let mut extra_failed = warmup.failed;
    let (untraced, traced) = phases(opts, tr, run_phase);

    let setup_s = setup.after()?;

    let mut layers = BTreeMap::new();
    if let Some(tracer) = tr {
        layers.insert(
            "easyc.state.update_rows_ms",
            stats::median(&tracer.durations("op.write")) * 1e3,
        );
        let matrix = template_matrix();
        extra_attempted += 1;
        if !replay_fleet(tracer, &base, &matrix, &mut layers) {
            extra_failed += 1;
        }
        probe_state(tracer, &base, draws, draw_seed, 20, &mut layers);
        layers.insert("easyc.draws.terms", n * draws as f64);
    }

    let notes = vec![format!(
        "{} resident systems, cycles of one {}-row update_rows edit + 4 reads (default, draws({draws}), masked, cached_totals), {} distinct edits",
        scale.resident_systems, scale.edit_rows, scale.edit_pool
    )];
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers,
        notes,
        extra_attempted,
        extra_failed,
        tracer,
    })
}
