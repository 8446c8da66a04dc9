//! Traced decompositions of the user paths.
//!
//! Each function here performs the same sequence of public layer calls as
//! the program's own entry point (`Planner::plan`, `compare_strategies`,
//! the sweep engine's per-scenario step, the miniwrf coupled iteration),
//! with a span around every call. The callers check that the result is
//! byte-identical to the entry point's, so a decomposition that drifts from
//! the program fails the run instead of timing the wrong thing.

use crate::trace::Tracer;
use nestwx_alloc::{naive, partition_grid, Partition};
use nestwx_core::{
    fit_predictor, AllocPolicy, ExecutionPlan, MappingKind, PlanError, Scenario, Strategy,
};
use nestwx_grid::{DomainFeatures, NestedConfig, ProcGrid, Rect};
use nestwx_miniwrf::nest::{
    apply_feedback, collect_feedback, interpolate_boundary, BoundaryData, FeedbackData,
};
use nestwx_miniwrf::NestedModel;
use nestwx_netsim::{ExecStrategy, SimReport};
use nestwx_predict::{ExecTimePredictor, NaivePointsModel};
use nestwx_serve::{keys, render_plan, DiskCache};
use nestwx_topo::Mapping;

/// Seed the planner uses when it fits its predictor on demand.
pub const PROFILE_SEED: u64 = 0xBEEF;

/// `Planner::plan` for `sc`, call by call. `predictor` stands in for a
/// planner built `with_predictor` (the service's per-machine cache); with
/// `None` the predictor is fitted on demand, as `nestwx plan` does.
pub fn plan(
    tr: &mut Tracer,
    sc: &Scenario,
    predictor: Option<&ExecTimePredictor>,
) -> Result<ExecutionPlan, PlanError> {
    let nests = &sc.nests;
    let config = NestedConfig::new(sc.parent.clone(), nests.clone())?;
    let nranks = sc.machine.ranks();
    let grid = ProcGrid::near_square(nranks);
    let features: Vec<DomainFeatures> = nests.iter().map(DomainFeatures::from).collect();

    let ratios: Vec<f64> = if nests.is_empty() {
        Vec::new()
    } else {
        match sc.alloc {
            AllocPolicy::Equal => vec![1.0; nests.len()],
            AllocPolicy::NaiveProportional => tr.leaf("predict.naive_query", || {
                NaivePointsModel { coeff: 1.0 }.relative_times(&features)
            }),
            AllocPolicy::HuffmanSplitTree => {
                let fitted;
                let p = match predictor {
                    Some(p) => p,
                    None => {
                        tr.count("predict.fit_calls", 1);
                        fitted =
                            tr.leaf("predict.fit", || fit_predictor(&sc.machine, PROFILE_SEED));
                        &fitted
                    }
                };
                tr.leaf("predict.query", || p.relative_times(&features))?
            }
        }
    };

    let level1 = config.level1();
    let partitions: Vec<Partition> = match (sc.strategy, nests.is_empty()) {
        (Strategy::Sequential, _) | (_, true) => Vec::new(),
        _ => {
            let weight = |i: usize| -> f64 {
                let own = ratios[i] * nests[i].refine_ratio as f64;
                let kids: f64 = config
                    .children_of(i)
                    .iter()
                    .map(|&c| {
                        ratios[c] * nests[i].refine_ratio as f64 * nests[c].refine_ratio as f64
                    })
                    .sum();
                own + kids
            };
            let l1_weights: Vec<f64> = level1.iter().map(|&i| weight(i)).collect();
            let l1_parts = match sc.alloc {
                AllocPolicy::NaiveProportional => tr.leaf("alloc.strips", || {
                    naive::proportional_strips(&grid, &l1_weights)
                })?,
                AllocPolicy::Equal => {
                    tr.leaf("alloc.equal", || naive::equal_split(&grid, level1.len()))?
                }
                AllocPolicy::HuffmanSplitTree => {
                    tr.leaf("alloc.partition", || partition_grid(&grid, &l1_weights))?
                }
            };
            let mut rect_of: Vec<Option<Rect>> = vec![None; nests.len()];
            for (slot, &i) in level1.iter().enumerate() {
                rect_of[i] = Some(l1_parts[slot].rect);
            }
            for &i in &level1 {
                let kids = config.children_of(i);
                if kids.is_empty() {
                    continue;
                }
                let host = rect_of[i].expect("level-1 rect assigned");
                let kid_ratios: Vec<f64> = kids.iter().map(|&c| ratios[c]).collect();
                let sub_grid = ProcGrid::new(host.w, host.h);
                let sub = tr.leaf("alloc.partition", || partition_grid(&sub_grid, &kid_ratios))?;
                for (q, &c) in sub.iter().zip(&kids) {
                    rect_of[c] = Some(Rect::new(
                        host.x0 + q.rect.x0,
                        host.y0 + q.rect.y0,
                        q.rect.w,
                        q.rect.h,
                    ));
                }
            }
            rect_of
                .into_iter()
                .enumerate()
                .map(|(i, r)| Partition {
                    domain: i,
                    rect: r.expect("every nest assigned"),
                })
                .collect()
        }
    };
    let rects: Vec<Rect> = partitions.iter().map(|p| p.rect).collect();
    let l1_rects: Vec<Rect> = if rects.is_empty() {
        Vec::new()
    } else {
        level1.iter().map(|&i| rects[i]).collect()
    };

    let shape = sc.machine.shape;
    let mapping = match (sc.mapping, l1_rects.is_empty()) {
        (MappingKind::Txyz, _) => tr.leaf("topo.txyz", || Mapping::txyz(shape, nranks))?,
        (MappingKind::Oblivious, _) | (_, true) => {
            tr.leaf("topo.oblivious", || Mapping::oblivious(shape, nranks))?
        }
        (MappingKind::Partition, false) => tr.leaf("topo.partition", || {
            Mapping::partition(shape, &grid, &l1_rects)
        })?,
        (MappingKind::MultiLevel, false) => tr.leaf("topo.multilevel", || {
            Mapping::multilevel(shape, &grid, &l1_rects)
        })?,
    };
    let strategy = match sc.strategy {
        Strategy::Sequential => ExecStrategy::Sequential,
        Strategy::Concurrent => ExecStrategy::Concurrent { partitions: rects },
    };
    Ok(ExecutionPlan {
        machine: sc.machine.clone(),
        config,
        grid,
        strategy,
        partitions,
        predicted_ratios: ratios,
        mapping,
        io_mode: sc.io_mode,
        output_interval: sc.output_interval,
    })
}

/// `ExecutionPlan::simulate`, split into schedule compilation and replay.
pub fn simulate(
    tr: &mut Tracer,
    plan: &ExecutionPlan,
    iterations: u32,
) -> Result<SimReport, PlanError> {
    let mut sim = tr.leaf("netsim.compile", || plan.compile())?;
    let report = tr.leaf("netsim.simulate", || sim.run_mut(iterations));
    tr.count("netsim.halo_steps", sim.steps_taken());
    tr.count("netsim.iterations", iterations as u64);
    Ok(report)
}

/// `compare_strategies`: the paper's default baseline (sequential,
/// oblivious) and the scenario's own plan, both simulated.
pub fn compare(
    tr: &mut Tracer,
    sc: &Scenario,
    iterations: u32,
) -> Result<(SimReport, SimReport), PlanError> {
    let base = Scenario {
        strategy: Strategy::Sequential,
        mapping: MappingKind::Oblivious,
        ..sc.clone()
    };
    let baseline = plan(tr, &base, None)?;
    let planned = plan(tr, sc, None)?;
    Ok((
        simulate(tr, &baseline, iterations)?,
        simulate(tr, &planned, iterations)?,
    ))
}

/// What the sweep engine records per scenario, reduced to what the checks
/// compare: the plan digest and simulated seconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    pub key: String,
    pub plan_digest: String,
    pub s_per_iter: f64,
    pub from_disk: bool,
}

/// Version of the sweep engine's disk entry envelope.
const ENTRY_VERSION: u64 = 1;

/// The sweep engine's per-scenario step: disk lookup, else plan, render,
/// simulate and persist.
pub fn sweep_scenario(
    tr: &mut Tracer,
    sc: &Scenario,
    iterations: u32,
    disk: &DiskCache,
) -> Result<SweepRow, String> {
    let key = tr.leaf("core.canon", || keys::sweep_key(sc, iterations));
    let hit = tr.leaf("sweep.disk_get", || disk.get(&key));
    if let Some(raw) = hit {
        let v: serde_json::Value =
            serde_json::from_str(&raw).map_err(|e| format!("disk entry: {e:?}"))?;
        let digest = v
            .get("plan_digest")
            .and_then(|d| d.as_str())
            .ok_or("disk entry without digest")?;
        let s_per_iter = v
            .get("planned_s_per_iter")
            .and_then(|d| d.as_f64())
            .ok_or("disk entry without time")?;
        return Ok(SweepRow {
            key,
            plan_digest: digest.to_string(),
            s_per_iter,
            from_disk: true,
        });
    }
    let p = plan(tr, sc, None).map_err(|e| e.to_string())?;
    let json = tr
        .leaf("serve.render", || render_plan(sc, &p))
        .map_err(|e| format!("{e:?}"))?;
    let report = simulate(tr, &p, iterations).map_err(|e| e.to_string())?;
    let plan_digest = format!("{:016x}", nestwx_core::fnv1a64(json.as_bytes()));
    let s_per_iter = report.per_iteration();
    let plan_key = tr.leaf("core.canon", || keys::plan_key(sc));
    let entry = serde_json::Value::Object(vec![
        (
            "v".to_string(),
            serde_json::Value::Number(ENTRY_VERSION as f64),
        ),
        (
            "plan_digest".to_string(),
            serde_json::Value::String(plan_digest.clone()),
        ),
        (
            "planned_s_per_iter".to_string(),
            serde_json::Value::Number(s_per_iter),
        ),
    ]);
    let entry = serde_json::to_string(&entry).expect("values serialize");
    tr.leaf("sweep.disk_put", || disk.put(&plan_key, &json))
        .map_err(|e| e.to_string())?;
    tr.leaf("sweep.disk_put", || disk.put(&key, &entry))
        .map_err(|e| e.to_string())?;
    Ok(SweepRow {
        key,
        plan_digest,
        s_per_iter,
        from_disk: false,
    })
}

/// One coupled miniwrf iteration as the fleet distributes it: parent step,
/// boundary interpolation, nest solves and feedback. Boundary and feedback
/// cells go through the fleet's frame encoding and back, as they would on
/// the wire, and the decoded cells are the ones applied.
pub fn miniwrf_iteration(tr: &mut Tracer, model: &mut NestedModel) {
    let iteration = model.iterations;
    tr.leaf("miniwrf.parent", || model.parent.step());
    let mut bcs = Vec::with_capacity(model.nests.len());
    for (i, nest) in model.nests.iter().enumerate() {
        let bc = tr.leaf("miniwrf.interp", || {
            interpolate_boundary(&model.parent, &nest.geo)
        });
        let bytes = tr.leaf("fleet.encode", || {
            nestwx_fleet::frame::encode_cells(i as u32, iteration, bc.cells())
        });
        let (_, _, cells) = tr
            .leaf("fleet.decode", || nestwx_fleet::frame::decode_cells(&bytes))
            .expect("own frame decodes");
        bcs.push(BoundaryData::from_cells(cells));
    }
    let mut fbs = Vec::with_capacity(model.nests.len());
    for (i, (nest, bc)) in model.nests.iter_mut().zip(&bcs).enumerate() {
        tr.leaf("miniwrf.solve", || NestedModel::solve_nest(nest, bc));
        let fb = tr.leaf("miniwrf.collect", || {
            collect_feedback(&nest.solver, &nest.geo)
        });
        let bytes = tr.leaf("fleet.encode", || {
            nestwx_fleet::frame::encode_cells(i as u32, iteration, fb.cells())
        });
        let (_, _, cells) = tr
            .leaf("fleet.decode", || nestwx_fleet::frame::decode_cells(&bytes))
            .expect("own frame decodes");
        tr.count("fleet.halo_frames", 2);
        fbs.push(FeedbackData::from_cells(cells));
    }
    for fb in &fbs {
        tr.leaf("miniwrf.feedback", || apply_feedback(&mut model.parent, fb));
    }
    model.iterations += 1;
}
