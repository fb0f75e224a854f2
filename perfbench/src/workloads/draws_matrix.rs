//! `draws-matrix`: the paper's uncertainty sweep. Each operation is an
//! in-memory `Assessment::of` over a seeded fleet under the five-scenario
//! matrix with Monte-Carlo draws on the machine's worker pool, followed by
//! the paired `compare(full, clean-grid)`.
//!
//! Reference: the same session at `workers = 1`, computed once in set-up.
//! Each operation must match every footprint, coverage count, fleet
//! interval and paired-delta bound bit for bit.

use super::{
    measure, output_digest, phases, probe_state, replay_fleet, template_matrix, timed, Opts,
    Outcome, Phase, SetUp, SETUP_OP,
};
use crate::sys;
use crate::trace::{span, Tracer};
use easyc::{Assessment, AssessmentOutput, Interval, ScenarioDelta, ScenarioMatrix};
use std::collections::BTreeMap;
use top500::synthetic::generate_full;
use top500::Top500List;

const BASELINE: &str = "full";
const VARIANT: &str = "clean-grid";

/// What one operation must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Check {
    output: u64,
    delta: Option<[Option<[u64; 3]>; 3]>,
}

fn interval_bits(iv: Option<Interval>) -> Option<[u64; 3]> {
    iv.map(|iv| [iv.point.to_bits(), iv.lo.to_bits(), iv.hi.to_bits()])
}

fn check_of(output: &AssessmentOutput, delta: Option<&ScenarioDelta>) -> Check {
    Check {
        output: output_digest(output),
        delta: delta.map(|d| {
            [
                interval_bits(d.operational),
                interval_bits(d.embodied),
                interval_bits(d.total),
            ]
        }),
    }
}

fn session(
    list: &Top500List,
    matrix: &ScenarioMatrix,
    opts: &Opts,
    workers: usize,
    tracer: Option<&Tracer>,
    op: u64,
) -> (AssessmentOutput, Option<ScenarioDelta>) {
    span(tracer, "op.draws-matrix", None, op, |root| {
        let output = span(tracer, "easyc.session.run", root, op, |_| {
            Assessment::of(list)
                .scenarios(matrix)
                .uncertainty(opts.scale.draws)
                .seed(opts.draw_seed())
                .workers(workers)
                .run()
        });
        let delta = span(tracer, "easyc.session.compare", root, op, |_| {
            output.compare(BASELINE, VARIANT)
        });
        (output, delta)
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = opts.scale;
    let matrix = template_matrix();
    let tracer = opts.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let workers = sys::nproc();
    let config = opts.fleet(scale.draws_systems);

    let mut setup = SetUp::new(scale.setup_reps, || {
        Ok(span(tr, "top500.synthetic.gen", None, SETUP_OP, |_| {
            generate_full(&config)
        }))
    });
    let list = setup.before()?;
    let (reference, reference_delta) = session(&list, &matrix, opts, 1, None, 0);
    let expected = check_of(&reference, reference_delta.as_ref());
    if expected.delta.is_none() {
        return Err(format!(
            "reference has no paired draws for {BASELINE},{VARIANT}"
        ));
    }
    drop(reference);

    let n = f64::from(scale.draws_systems);
    let footprints = n * matrix.len() as f64;
    let draw_terms = footprints * scale.draws as f64;
    let mut op_id = 0u64;
    let mut phase = |seconds: f64, tracer: Option<&Tracer>| {
        // Every operation is the whole sweep, so one is the minimum.
        measure(seconds, 1, |p: &mut Phase| {
            let ((output, delta), secs) =
                timed(|| session(&list, &matrix, opts, workers, tracer, op_id));
            op_id += 1;
            let ok = check_of(&output, delta.as_ref()) == expected;
            p.op(secs, ok, footprints, draw_terms);
        })
    };
    // One untimed, checked operation first: caches fill and lazy set-up
    // finishes before timing.
    let warmup = phase(0.0, None);
    let mut extra_attempted = warmup.attempted;
    let mut extra_failed = warmup.failed;
    let (untraced, traced) = phases(opts, tr, phase);

    let setup_s = setup.after()?;

    let mut layers = BTreeMap::new();
    if let Some(tracer) = tr {
        extra_attempted += 1;
        if !replay_fleet(tracer, &list, &matrix, &mut layers) {
            extra_failed += 1;
        }
        probe_state(tracer, &list, scale.draws, opts.draw_seed(), 3, &mut layers);
        layers.insert("easyc.draws.terms", draw_terms);
    }

    let notes = vec![format!(
        "{} systems x {} scenarios x {} draws in memory, {} workers, compare({BASELINE}, {VARIANT})",
        scale.draws_systems,
        matrix.len(),
        scale.draws,
        workers
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
