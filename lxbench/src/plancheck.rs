//! The reference answer for the plan workload, computed apart from the
//! serving path and once per run, outside timing: the planner's plan is
//! checked step by step against direct engine calls, and its cost
//! against an exhaustive search of the whole state space.

use crate::gen::Fact;
use forensic_law::prelude::*;
use planner::{parse_problem, PlanOutcome, PlanProblem, PlanStep, Planner};
use std::collections::{HashMap, VecDeque};

pub struct Reference {
    /// The plan's rendering: what every answer must be, byte for byte.
    pub render: String,
    pub cost: u64,
    /// States the exhaustive search reached.
    pub states: usize,
    /// Every candidate collect pattern of the problem.
    pub facts: Vec<Fact>,
}

fn standard_index(s: FactualStandard) -> usize {
    FactualStandard::ALL
        .iter()
        .position(|x| *x == s)
        .expect("ALL is exhaustive")
}

fn process_index(p: LegalProcess) -> usize {
    LegalProcess::ALL
        .iter()
        .position(|x| *x == p)
        .expect("ALL is exhaustive")
}

fn stronger(a: FactualStandard, b: FactualStandard) -> FactualStandard {
    if standard_index(a) >= standard_index(b) {
        a
    } else {
        b
    }
}

pub fn reference(text: &str, engine: &ComplianceEngine) -> Result<Reference, String> {
    let problem = parse_problem(text.as_bytes()).map_err(|e| format!("problem: {e:?}"))?;
    let outcome = Planner::with_threads(1)
        .solve(&problem)
        .map_err(|e| e.to_string())?;
    let PlanOutcome::Plan(plan) = &outcome else {
        return Err(format!("no lawful path: {}", outcome.render()));
    };

    // Replay the plan: every collection lawful under the process held,
    // according to a direct engine call; step costs summing to the
    // total; every goal acquired.
    let (mut mask, mut standard, mut process, mut total) =
        (0u32, problem.start_standard, problem.start_process, 0u64);
    for (n, step) in plan.steps.iter().enumerate() {
        match step {
            PlanStep::Apply {
                process: next,
                standard: shown,
                cost,
            } => {
                if *shown != standard
                    || !standard.suffices_for(*next)
                    || process_index(*next) <= process_index(process)
                    || *cost != problem.costs.process(*next)
                {
                    return Err(format!("step {}: unlawful or mispriced application", n + 1));
                }
                process = *next;
                total += cost;
            }
            PlanStep::Collect {
                item,
                route,
                held,
                cost,
                ..
            } => {
                let i = problem
                    .items
                    .iter()
                    .position(|it| it.name == *item)
                    .ok_or_else(|| format!("step {}: unknown item {item}", n + 1))?;
                let variants = problem.items[i]
                    .variants(&problem.routes)
                    .map_err(|e| e.to_string())?;
                let variant = variants
                    .iter()
                    .find(|v| v.route == *route)
                    .ok_or_else(|| format!("step {}: unknown route", n + 1))?;
                let direct = engine.assess(&variant.action);
                let price = problem.costs.collect
                    + if route.is_some() {
                        problem.costs.route
                    } else {
                        0
                    };
                if *held != process || !direct.is_lawful_with(*held) || *cost != price {
                    return Err(format!(
                        "step {}: collecting {item} holding {held} is not lawful ({}) or is mispriced",
                        n + 1,
                        direct.verdict_line()
                    ));
                }
                mask |= 1 << i;
                standard = stronger(standard, problem.items[i].yields);
                total += cost;
            }
        }
    }
    let goal = problem.goal_mask();
    if total != plan.total_cost || mask & goal != goal {
        return Err(format!(
            "plan costs sum to {total} (claimed {}), goals acquired {mask:b} of {goal:b}",
            plan.total_cost
        ));
    }
    let (best, states) = exhaustive(&problem, engine)?;
    if best != Some(plan.total_cost) {
        return Err(format!(
            "plan cost {} but exhaustive search finds {best:?}",
            plan.total_cost
        ));
    }

    let mut facts = Vec::new();
    for item in &problem.items {
        let mut spec = item.spec.clone();
        facts.push(Fact::from_spec(&spec).ok_or("item outside the vocabulary")?);
        for route in &problem.routes {
            if !spec.flags.contains(route) {
                spec.flags.push(route.clone());
                facts.push(Fact::from_spec(&spec).ok_or("route outside the vocabulary")?);
                spec.flags.pop();
            }
        }
    }
    facts.sort_by_key(|f| f.index());
    facts.dedup();
    Ok(Reference {
        render: outcome.render(),
        cost: plan.total_cost,
        states,
        facts,
    })
}

/// The cheapest cost of any lawful step sequence acquiring every goal,
/// by label-correcting relaxation over every reachable (acquired,
/// standard, process) state, and how many states were reached.
fn exhaustive(
    problem: &PlanProblem,
    engine: &ComplianceEngine,
) -> Result<(Option<u64>, usize), String> {
    let mut candidates: Vec<Vec<(bool, LegalAssessment)>> = Vec::new();
    for item in &problem.items {
        let variants = item.variants(&problem.routes).map_err(|e| e.to_string())?;
        candidates.push(
            variants
                .iter()
                .map(|v| (v.route.is_some(), engine.assess(&v.action)))
                .collect(),
        );
    }
    type State = (u32, FactualStandard, LegalProcess);
    let key = |s: &State| (s.0, standard_index(s.1), process_index(s.2));
    let start: State = (0, problem.start_standard, problem.start_process);
    let mut cost: HashMap<(u32, usize, usize), u64> = HashMap::new();
    cost.insert(key(&start), 0);
    let mut work: VecDeque<State> = VecDeque::from([start]);
    while let Some(state) = work.pop_front() {
        let here = cost[&key(&state)];
        let (mask, standard, process) = state;
        let mut edges: Vec<(State, u64)> = Vec::new();
        for next in LegalProcess::ALL {
            if process_index(next) > process_index(process) && standard.suffices_for(next) {
                edges.push(((mask, standard, next), problem.costs.process(next)));
            }
        }
        for (i, variants) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            for (routed, assessment) in variants {
                if assessment.is_lawful_with(process) {
                    let price =
                        problem.costs.collect + if *routed { problem.costs.route } else { 0 };
                    let next = (
                        mask | (1 << i),
                        stronger(standard, problem.items[i].yields),
                        process,
                    );
                    edges.push((next, price));
                }
            }
        }
        for (next, price) in edges {
            let k = key(&next);
            if cost.get(&k).is_none_or(|&c| here + price < c) {
                cost.insert(k, here + price);
                work.push_back(next);
            }
        }
    }
    let goal = problem.goal_mask();
    let best = cost
        .iter()
        .filter(|(k, _)| k.0 & goal == goal)
        .map(|(_, c)| *c)
        .min();
    Ok((best, cost.len()))
}
