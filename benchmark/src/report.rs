//! What the benchmark prints and writes: the one-line result the driver
//! reads, the run record, and the `--repeat` and `--compare` tables.

use std::collections::BTreeMap;
use std::process::Command;

use streamlin_support::json::{self, Json};

use crate::proc::{run_to_exit, Watchdog};
use crate::run::{Metric, Outcome};
use crate::stats::{median, rel_spread};

pub const SCHEMA: &str = "streamlin-benchmark/v1";

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the single place metric names, directions and
/// bounds are written down. The binary reads it rather than repeat it.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path}: no `{key}` list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("{path}: a `{key}` entry lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?.to_string(),
                        unit: s("unit")?.to_string(),
                        higher_is_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{path}: no `run_seconds`"))?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn metric_json((value, unit): &Metric) -> Json {
    Json::obj(vec![
        ("value", Json::Num(*value)),
        ("unit", Json::Str((*unit).into())),
    ])
}

/// Checks an outcome against the declared metric list: every declared
/// metric present, finite and in its declared unit. Returns the problems.
fn audit(outcome: &Outcome, declared: &[MetricSpec]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in declared {
        match outcome.metrics.get(&d.name) {
            None => problems.push(format!("metric {} was not measured", d.name)),
            Some((v, _)) if !v.is_finite() => problems.push(format!("metric {} is {v}", d.name)),
            Some((_, unit)) if *unit != d.unit => problems.push(format!(
                "metric {} measured in {unit}, declared in {}",
                d.name, d.unit
            )),
            Some(_) => {}
        }
    }
    problems
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being the declared ones.
pub fn result_line(outcome: &Outcome, declared: &[MetricSpec], correct: bool) -> String {
    let metrics: Vec<(String, Json)> = declared
        .iter()
        .filter_map(|d| {
            let m = outcome.metrics.get(&d.name)?;
            m.0.is_finite().then(|| (d.name.clone(), metric_json(m)))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Num(outcome.tally.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .dump()
}

/// Every metric by name and unit, for people, then what went wrong.
/// Returns whether the run is correct: no failed operation and every
/// declared metric measured.
pub fn print_outcome(title: &str, outcome: &Outcome, declared: &[MetricSpec]) -> bool {
    println!("{title}");
    for (name, (value, unit)) in &outcome.metrics {
        let n = outcome
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<44} {value:>16.4} {unit}{n}");
    }
    println!(
        "  attempted {} failed {} failed_share {} wall {:.2} s",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64,
        outcome.wall_s
    );
    let stages: Vec<String> = outcome
        .stage_wall_s
        .iter()
        .map(|(name, s)| format!("{name} {s:.2} s"))
        .collect();
    println!("  stages: {}", stages.join(", "));
    for note in &outcome.tally.notes {
        println!("  FAILED: {note}");
    }
    let problems = audit(outcome, declared);
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    outcome.tally.failed == 0 && problems.is_empty()
}

/// Where and on what a record was measured.
pub fn host_info(wd: &Watchdog, host_cpus: usize) -> Vec<(&'static str, Json)> {
    let capture = |program: &str, args: &[&str]| -> String {
        run_to_exit(Command::new(program).args(args), wd)
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        (
            "git_commit",
            Json::Str(capture("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(capture("rustc", &["--version"]))),
        ("cpu_model", Json::Str(cpu_model)),
        ("host_cpus", Json::Num(host_cpus as f64)),
    ]
}

/// One workload's part of the run record. `sets` holds one untraced
/// outcome per `--repeat` set; `traced` the per-layer pass.
pub fn workload_record(sets: &[Outcome], traced: &Outcome) -> Json {
    let mut end_to_end: BTreeMap<&str, (Vec<f64>, &'static str)> = BTreeMap::new();
    for o in sets {
        for (name, (v, unit)) in &o.metrics {
            let e = end_to_end.entry(name).or_insert((Vec::new(), unit));
            e.0.push(*v);
        }
    }
    let e2e = end_to_end.into_iter().map(|(name, (values, unit))| {
        (
            name.to_string(),
            Json::obj(vec![
                ("unit", Json::Str(unit.into())),
                ("median", Json::Num(median(&mut values.clone()))),
                ("rel_spread", Json::Num(rel_spread(&values))),
                ("values", Json::arr(values.into_iter().map(Json::Num))),
            ]),
        )
    });
    let first = &sets[0];
    let count_map = |m: &BTreeMap<String, u64>| {
        Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))))
    };
    Json::obj(vec![
        ("wall_s", Json::Num(first.wall_s)),
        ("traced_wall_s", Json::Num(traced.wall_s)),
        (
            "attempted",
            Json::Num(sets.iter().map(|o| o.tally.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(sets.iter().map(|o| o.tally.failed).sum::<u64>() as f64),
        ),
        ("sample_counts", count_map(&first.samples)),
        ("end_to_end", Json::obj(e2e)),
        (
            "per_layer",
            Json::obj(
                traced
                    .metrics
                    .iter()
                    .map(|(k, m)| (k.clone(), metric_json(m))),
            ),
        ),
        (
            "trace_overhead_pct",
            traced
                .metrics
                .get("trace_overhead_pct")
                .map_or(Json::Null, |m| Json::Num(m.0)),
        ),
        ("trace_spans", Json::Num(traced.tracer.span_count() as f64)),
    ])
}

/// Per workload and end-to-end metric: median, min, max and spread over
/// the sets, against the bound. Returns how many spreads exceed theirs.
pub fn print_repeat_table(spec: &Spec, record: &Json) -> usize {
    let mut over = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "min", "max", "spread", "bound"
    );
    for w in &spec.workloads {
        for d in &spec.end_to_end {
            let Some(values) = metric_values(record, w, &d.name) else {
                continue;
            };
            let spread = rel_spread(&values);
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let flag = if spread > bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%{flag}",
                w,
                d.name,
                median(&mut values.clone()),
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    over
}

fn metric_values(record: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()
        .map(|a| a.iter().filter_map(Json::as_num).collect())
}

/// `--compare old new`: per workload and end-to-end metric, the change in
/// the median against the bound. A row is *regressed* when the new median
/// is worse by more than the bound, *improved* when better by more than
/// it, and *unresolved* when either side's own spread is wider than the
/// bound, unless every new value beats every old one. Returns the number
/// of regressed rows.
pub fn compare(spec: &Spec, old_path: &str, new_path: &str) -> Result<usize, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => Ok(doc),
            other => Err(format!("{path}: schema is {other:?}, expected {SCHEMA}")),
        }
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    let mut regressed = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "change", "bound"
    );
    for w in &spec.workloads {
        for d in &spec.end_to_end {
            let (a, b) = match (
                metric_values(&old, w, &d.name),
                metric_values(&new, w, &d.name),
            ) {
                (Some(a), Some(b)) => (a, b),
                // A record may cover some of the workloads only.
                (None, None) => continue,
                _ => {
                    println!("{w:<20} {:<18} missing from one side", d.name);
                    regressed += 1;
                    continue;
                }
            };
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let (ma, mb) = (median(&mut a.clone()), median(&mut b.clone()));
            // Positive = worse, as a share of the old median.
            let worse = if d.higher_is_better {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let beats = |x: f64, y: f64| if d.higher_is_better { x > y } else { x < y };
            let clean_win = b.iter().all(|x| a.iter().all(|y| beats(*x, *y)));
            let noisy = rel_spread(&a) > bound || rel_spread(&b) > bound;
            let verdict = if noisy && !clean_win {
                "unresolved"
            } else if worse > bound {
                regressed += 1;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>+7.2}% {:>6.1}%  {verdict}",
                w,
                d.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(regressed)
}
