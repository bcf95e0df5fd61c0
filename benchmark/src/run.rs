//! One run of one workload: set-up, reference outputs, the measured
//! stages, and the end-to-end metrics they produce.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use streamlin_runtime::MatMulStrategy;
use streamlin_support::json::{self, Json};
use streamlin_support::{NoCount, OpCounter, Tally as _};

use crate::front::{self, AnyEngine, Compiled, Variant};
use crate::probes;
use crate::proc::{run_to_exit, CpuMask, Daemon, Watchdog};
use crate::programs::{self, with_nonce, Prog};
use crate::stats::{geomean, mean, median, Rng};
use crate::trace::Tracer;
use crate::workloads::{Workload, CHURN_READ_N, CLI_OUTPUTS};

/// Slices a pass over the stages is cut into.
const SLICES: usize = 10;
/// Set-ups timed beyond the first (at `--seconds 10`); `setup_s` is the
/// median of all of them.
const EXTRA_SETUPS: u32 = 10;
/// Outputs in each `expected/<Program>.txt`.
pub const EXPECTED_LEN: usize = 256;
/// Tolerance against the unoptimised reference: frequency-domain plans
/// reorder floating-point arithmetic (same as `tests/output_equivalence.rs`).
const TOL: f64 = 1e-5;

/// The daemon's admission budget (`--workers`): every open stream claims a
/// worker, and the default budget is the CPU count, which nine resident
/// streams plus the cycling one exceed on the two cores the benchmark is
/// sized for.
pub const DAEMON_WORKERS: usize = 32;

/// Where the binaries and files of a run live.
pub struct Env {
    pub streamlinc: PathBuf,
    pub streamlind: PathBuf,
    /// Scratch directory for program sources, inside the checkout.
    pub work_dir: PathBuf,
    pub expected_dir: PathBuf,
    /// The CPUs the benchmark was started on, before it pinned itself to
    /// the first of them.
    pub all_cpus: Option<CpuMask>,
}

/// Operations attempted and failed. A failure is a request answered
/// `"ok":false`, a `streamlinc` exit other than 0, a child killed at its
/// 30 s timeout, or an output that fails its reference check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_more(1, what);
    }

    /// `n` further failures of operations already counted as attempted.
    fn fail_more(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn check(&mut self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => {
                self.ok();
                true
            }
            Err(e) => {
                self.fail(|| e);
                false
            }
        }
    }
}

/// A metric value with its unit.
pub type Metric = (f64, &'static str);

/// What one run hands back.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, Metric>,
    /// Sample counts behind the medians, by metric.
    pub samples: BTreeMap<String, u64>,
    pub wall_s: f64,
    /// Wall of each measured stage, in order.
    pub stage_wall_s: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// Everything a set-up produces: the compiled programs and a running
/// daemon with one resident stream per program, its plan cache warm.
pub(crate) struct Ready<'w> {
    pub compiled: Vec<Compiled>,
    pub daemon: Daemon<'w>,
    /// Items each resident stream has delivered so far.
    pub delivered: Vec<usize>,
}

/// Samples of the measured stages, one pass over the workload.
#[derive(Default)]
pub(crate) struct Stages {
    /// `[program][round]`, ms.
    pub compile_ms: Vec<Vec<f64>>,
    pub cli_ms: Vec<Vec<f64>>,
    pub flops_removed_pct: f64,
    pub mults_removed_pct: f64,
    /// `[program][sample]`, items/s.
    pub engine_rate: Vec<Vec<f64>>,
    pub open_cold_ms: Vec<Vec<f64>>,
    pub open_hit_ms: Vec<Vec<f64>>,
    pub close_us: Vec<f64>,
    /// `[program][read]`, us: round trips of the cycles' `read n=64`.
    pub churn_read_us: Vec<Vec<f64>>,
    /// Items per second of the cycles, one value per slice.
    pub churn_rate: Vec<f64>,
    /// `[stream][read]`, us.
    pub resident_read_us: Vec<Vec<f64>>,
    /// Items per second of the resident request loop, one per slice.
    pub resident_rate: Vec<f64>,
    /// Sum of the stages' walls.
    pub wall_s: f64,
    pub stage_wall_s: Vec<(&'static str, f64)>,
    pub counts: Vec<front::Counts>,
}

impl Stages {
    /// The read round trips the workload is about: the resident reads
    /// where it has them, else the cycles' reads. `[stream][read]`, us.
    pub fn reads(&self) -> &[Vec<f64>] {
        if !self.resident_rate.is_empty() {
            &self.resident_read_us
        } else {
            &self.churn_read_us
        }
    }
}

pub struct Run<'a> {
    pub env: &'a Env,
    pub workload: &'static Workload,
    /// The whole suite, and the part of it this workload runs.
    pub all_progs: &'a [Prog],
    pub progs: Vec<&'a Prog>,
    /// `--seconds / 10`, and a third of that in the traced pass.
    pub scale: f64,
    pub rng: Rng,
    pub tr: Tracer,
    pub tally: Tally,
    pub wd: &'a Watchdog,
    /// First outputs of each program's configured plan, long enough for
    /// every check of this run; compared bit for bit.
    reference: Vec<Vec<f64>>,
    expected: Vec<Vec<f64>>,
}

pub fn scaled(count: u32, scale: f64) -> usize {
    ((f64::from(count) * scale).round() as usize).max(1)
}

fn per_program_geomean(samples: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = samples.iter().map(|s| median(&mut s.clone())).collect();
    geomean(&medians)
}

fn total_len(samples: &[Vec<f64>]) -> u64 {
    samples.iter().map(|s| s.len() as u64).sum()
}

/// Checks the start of `got` against the committed unoptimised reference.
pub fn check_prefix(name: &str, got: &[f64], expected: &[f64]) -> Result<(), String> {
    if got.len() < expected.len() {
        return Err(format!(
            "{name}: {} outputs, expected at least {}",
            got.len(),
            expected.len()
        ));
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if !(g == e || (g - e).abs() <= TOL + TOL * g.abs().max(e.abs())) {
            return Err(format!(
                "{name}: output {i} is {g}, reference {e} (tolerance {TOL})"
            ));
        }
    }
    Ok(())
}

fn check_bits(name: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{name}: {} values, wanted {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{name}: value {i} is {}, in-process {}",
            got[i], want[i]
        )),
    }
}

/// Checks a `read` response against the in-process outputs without
/// building a JSON tree: the scan runs inside the request loop, so it has
/// to cost far less than the request. Depends on two response fields:
/// `"ok":true` and `"values":[...]` holding plain numbers.
pub fn check_read_response(line: &str, want: &[f64]) -> Result<(), String> {
    if !line.contains("\"ok\":true") {
        return Err(format!("read refused: {}", clip(line)));
    }
    let start = line
        .find("\"values\":[")
        .ok_or_else(|| format!("no values: {}", clip(line)))?
        + "\"values\":[".len();
    let end = start
        + line[start..]
            .find(']')
            .ok_or_else(|| format!("unterminated values: {}", clip(line)))?;
    let mut n = 0;
    if start < end {
        for tok in line[start..end].split(',') {
            let v: f64 = tok
                .parse()
                .map_err(|_| format!("value {n} is not a number: {tok}"))?;
            match want.get(n) {
                Some(w) if w.to_bits() == v.to_bits() => n += 1,
                Some(w) => return Err(format!("value {n} is {v}, in-process {w}")),
                None => return Err(format!("more than {} values", want.len())),
            }
        }
    }
    if n == want.len() {
        Ok(())
    } else {
        Err(format!("{n} values, wanted {}", want.len()))
    }
}

pub fn clip(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

pub fn open_line(id: &str, program: &str, variant: Variant, threads: Option<usize>) -> String {
    let mut pairs = vec![
        ("op", Json::Str("open".into())),
        ("id", Json::Str(id.into())),
        ("program", Json::Str(program.into())),
        ("config", Json::Str(variant.config().into())),
        ("mode", Json::Str("fast".into())),
    ];
    if let Some(t) = threads {
        pairs.push(("threads", Json::Num(t as f64)));
    }
    Json::obj(pairs).dump()
}

pub fn read_line(id: &str, n: usize) -> String {
    format!("{{\"op\":\"read\",\"id\":\"{id}\",\"n\":{n}}}")
}

pub fn close_line(id: &str) -> String {
    format!("{{\"op\":\"close\",\"id\":\"{id}\"}}")
}

/// One request under a span, with its round-trip time in seconds.
pub fn timed_request<'d>(
    tr: &mut Tracer,
    daemon: &'d mut Daemon,
    span: &'static str,
    line: &str,
) -> (Result<&'d str, String>, f64) {
    let span = tr.begin(span);
    let t0 = Instant::now();
    let resp = daemon.request(line);
    let secs = t0.elapsed().as_secs_f64();
    tr.end(span);
    (resp, secs)
}

/// A response that parsed and said `"ok":true`.
pub fn ok_response(line: &str) -> Result<Json, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable response ({e}): {}", clip(line)))?;
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(v)
    } else {
        Err(format!("refused: {}", clip(line)))
    }
}

impl<'a> Run<'a> {
    pub fn new(
        env: &'a Env,
        workload: &'static Workload,
        all_progs: &'a [Prog],
        seed: u64,
        scale: f64,
        traced: bool,
        wd: &'a Watchdog,
    ) -> Result<Self, String> {
        let progs: Vec<&Prog> = workload
            .programs
            .iter()
            .map(|name| programs::find(all_progs, name))
            .collect::<Result<_, _>>()?;
        let expected = progs
            .iter()
            .map(|p| read_expected(env, p.name))
            .collect::<Result<_, _>>()?;
        Ok(Run {
            env,
            workload,
            all_progs,
            progs,
            scale,
            rng: Rng::new(seed),
            tr: Tracer::new(traced),
            tally: Tally::default(),
            wd,
            reference: Vec::new(),
            expected,
        })
    }

    /// In-process outputs of program `i`'s configured plan.
    pub fn reference(&self, i: usize) -> &[f64] {
        &self.reference[i]
    }

    /// The committed unoptimised outputs of program `i`.
    pub fn expected(&self, i: usize) -> &[f64] {
        &self.expected[i]
    }

    fn source_path(&self, p: &Prog) -> PathBuf {
        self.env.work_dir.join(format!("{}.str", p.name))
    }

    /// One set-up from nothing: write the sources, compile every program
    /// in-process, start the daemon and wait for its first `pong`, open
    /// one stream per program (which also warms the plan cache).
    fn set_up(&mut self) -> Result<Ready<'a>, String> {
        std::fs::create_dir_all(&self.env.work_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.env.work_dir.display()))?;
        let mut compiled = Vec::new();
        for p in &self.progs {
            let path = self.source_path(p);
            std::fs::write(&path, &p.source)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let mut off = Tracer::new(false);
            compiled.push(front::compile(
                &p.source,
                p.variant,
                MatMulStrategy::Simd,
                &mut off,
            )?);
        }
        let mut daemon = Daemon::spawn(&self.env.streamlind, self.wd)
            .map_err(|e| format!("cannot start {}: {e}", self.env.streamlind.display()))?;
        let pong = daemon.request("{\"op\":\"ping\"}")?;
        ok_response(pong)?;
        for (i, p) in self.progs.iter().enumerate() {
            let line = open_line(&format!("r{i}"), &p.source, p.variant, None);
            let resp = daemon.request(&line)?;
            ok_response(resp)?;
        }
        Ok(Ready {
            delivered: vec![0; self.progs.len()],
            compiled,
            daemon,
        })
    }

    /// Runs the workload and returns its end-to-end metrics (untraced) or
    /// its per-layer metrics (traced).
    pub fn run(mut self) -> Outcome {
        let t_run = Instant::now();
        let mut metrics = BTreeMap::new();
        let mut samples = BTreeMap::new();
        let mut stage_wall_s = Vec::new();
        if let Err(e) = self.run_inner(&mut metrics, &mut samples, &mut stage_wall_s) {
            self.tally.fail(|| format!("run aborted: {e}"));
        }
        if self.wd.fired() > 0 {
            let n = u64::from(self.wd.fired());
            self.tally.fail_more(n, || {
                format!("{n} child process(es) killed at their timeout")
            });
        }
        Outcome {
            tally: self.tally,
            metrics,
            samples,
            wall_s: t_run.elapsed().as_secs_f64(),
            stage_wall_s,
            tracer: self.tr,
        }
    }

    fn run_inner(
        &mut self,
        metrics: &mut BTreeMap<String, Metric>,
        samples: &mut BTreeMap<String, u64>,
        stage_wall_s: &mut Vec<(&'static str, f64)>,
    ) -> Result<(), String> {
        let traced = self.tr.enabled();
        self.tr.set_enabled(false);
        let t0 = Instant::now();
        let mut ready = self.set_up()?;
        let mut setup_s = vec![t0.elapsed().as_secs_f64()];

        // The traced pass runs its stages three times: without spans, with
        // them, without again.
        let passes = if traced { 3 } else { 1 };
        self.build_reference(&ready, passes)?;

        if !traced {
            let st = self.stages(&mut ready, Some(&mut setup_s))?;
            stage_wall_s.clone_from(&st.stage_wall_s);
            let (rss_mb, _) = self.finish_daemon(ready)?;
            self.end_to_end(&st, &mut setup_s, rss_mb, metrics, samples);
            return Ok(());
        }

        // Spans are priced against the mean of a pass before and a pass
        // after, so that what the first pass pays for cold caches does not
        // read as negative overhead.
        let before = self.stages(&mut ready, None)?;
        self.tr.set_enabled(true);
        let mark = self.tr.mark();
        let st = self.stages(&mut ready, None)?;
        stage_wall_s.clone_from(&st.stage_wall_s);
        self.tr.set_enabled(false);
        let after = self.stages(&mut ready, None)?;
        let plain_s = (before.wall_s + after.wall_s) / 2.0;
        let overhead_pct = (st.wall_s - plain_s) / plain_s * 100.0;
        metrics.insert("trace_overhead_pct".into(), (overhead_pct, "%"));
        probes::per_layer(self, &mut ready, &st, mark, metrics)?;
        let (_, stats) = self.finish_daemon(ready)?;
        probes::cache_metrics(stats.as_ref(), metrics);
        Ok(())
    }

    /// In-process outputs of every program's configured plan, as long as
    /// the longest check needs, and themselves checked against the
    /// committed unoptimised reference.
    fn build_reference(&mut self, ready: &Ready, passes: usize) -> Result<(), String> {
        let resident = self.workload.resident.map_or(0, |r| {
            let per_stream = scaled(r.requests, self.scale).div_ceil(self.progs.len());
            per_stream * r.n * passes
        });
        let need = resident.max(CLI_OUTPUTS).max(EXPECTED_LEN);
        self.reference.clear();
        for (i, p) in self.progs.iter().enumerate() {
            let out = front::outputs::<NoCount>(&ready.compiled[i], need)
                .map_err(|e| format!("{}: {e}", p.name))?;
            let name = format!("{} in-process", p.name);
            self.tally
                .check(check_prefix(&name, &out, &self.expected[i]));
            self.reference.push(out);
        }
        Ok(())
    }

    /// One pass over every measured stage, in [`SLICES`] slices: each slice
    /// does a tenth of every stage's repetitions. The machine's speed drifts
    /// by 10-20% over seconds (shared host); a stage run in one block sits
    /// inside one such period, while samples spread over the whole run see
    /// the same mix of periods for every metric, and their median holds.
    ///
    /// With `setup_s` given, the slices also time [`EXTRA_SETUPS`] further
    /// set-ups from scratch (torn down at once), so those samples are
    /// spread too.
    fn stages(
        &mut self,
        ready: &mut Ready<'a>,
        mut setup_s: Option<&mut Vec<f64>>,
    ) -> Result<Stages, String> {
        let w = self.workload;
        let n = self.progs.len();
        let mut st = Stages {
            compile_ms: vec![Vec::new(); n],
            cli_ms: vec![Vec::new(); n],
            engine_rate: vec![Vec::new(); n],
            open_cold_ms: vec![Vec::new(); n],
            open_hit_ms: vec![Vec::new(); n],
            churn_read_us: vec![Vec::new(); n],
            resident_read_us: vec![Vec::new(); n],
            counts: vec![front::Counts::default(); n],
            ..Stages::default()
        };
        let t0 = Instant::now();
        let mut lap = Instant::now();
        let mut stage_done = |st: &mut Stages, name: &'static str| {
            let secs = lap.elapsed().as_secs_f64();
            match st.stage_wall_s.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += secs,
                None => st.stage_wall_s.push((name, secs)),
            }
            lap = Instant::now();
        };

        self.stage_counts(&mut st);
        stage_done(&mut st, "counts");
        let extra_setups = scaled(EXTRA_SETUPS, self.scale);
        let compile = scaled(w.compile_rounds, self.scale);
        let cli = scaled(w.cli_rounds, self.scale);
        let churn = scaled(w.churn_pairs, self.scale);
        let engine = match w.engine_samples {
            0 => 0,
            samples => {
                // The discarded warm-up sample.
                self.engine_round(&ready.compiled, None);
                stage_done(&mut st, "engine");
                scaled(samples, self.scale)
            }
        };
        let resident = w.resident.map(|r| (r.n, scaled(r.requests, self.scale)));
        // Round-robin in blocks, each block a seeded permutation.
        let mut order: Vec<u8> = Vec::new();
        while order.len() < resident.map_or(0, |(_, requests)| requests) {
            order.extend(self.shuffled_order().into_iter().map(|i| i as u8));
        }

        let share = |total: usize, k: usize| total * (k + 1) / SLICES - total * k / SLICES;
        for k in 0..SLICES {
            for _ in 0..share(extra_setups, k) {
                let Some(setup_s) = setup_s.as_deref_mut() else {
                    break;
                };
                let t0 = Instant::now();
                let extra = self.set_up()?;
                setup_s.push(t0.elapsed().as_secs_f64());
                self.tally.check(extra.daemon.shutdown());
                stage_done(&mut st, "setup");
            }
            self.stage_compile(share(compile, k), &mut st);
            stage_done(&mut st, "compile");
            self.stage_cli(share(cli, k), &mut st);
            stage_done(&mut st, "cli");
            for _ in 0..share(engine, k) {
                self.engine_round(&ready.compiled, Some(&mut st.engine_rate));
                stage_done(&mut st, "engine");
            }
            self.stage_churn(ready, share(churn, k), &mut st);
            stage_done(&mut st, "churn");
            if let Some((n, requests)) = resident {
                let (from, to) = (requests * k / SLICES, requests * (k + 1) / SLICES);
                self.stage_resident(ready, n, &order[from..to], &mut st)?;
                stage_done(&mut st, "resident");
            }
        }
        st.wall_s = t0.elapsed().as_secs_f64();
        Ok(st)
    }

    fn shuffled_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.progs.len()).collect();
        self.rng.shuffle(&mut order);
        order
    }

    /// Source text to plan, in-process, one timer around the whole chain.
    fn stage_compile(&mut self, rounds: usize, st: &mut Stages) {
        for _ in 0..rounds {
            for i in self.shuffled_order() {
                let p = self.progs[i];
                let t0 = Instant::now();
                let result =
                    front::compile(&p.source, p.variant, MatMulStrategy::Simd, &mut self.tr);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(c) => {
                        // What the chain produced has to run correctly;
                        // checked once per program, outside the timer.
                        let verdict = if st.compile_ms[i].is_empty() {
                            front::outputs::<NoCount>(&c, EXPECTED_LEN)
                                .and_then(|out| check_prefix(p.name, &out, &self.expected[i]))
                        } else {
                            Ok(())
                        };
                        self.tally.check(verdict);
                        st.compile_ms[i].push(ms);
                        st.counts[i] = c.counts;
                    }
                    Err(e) => self.tally.fail(|| format!("compile {}: {e}", p.name)),
                }
            }
        }
    }

    /// `streamlinc <file> --mode fast --quiet -n 1000`, spawn to exit.
    fn stage_cli(&mut self, rounds: usize, st: &mut Stages) {
        for _ in 0..rounds {
            for i in self.shuffled_order() {
                let p = self.progs[i];
                let mut cmd = Command::new(&self.env.streamlinc);
                cmd.arg(self.source_path(p))
                    .args(["--config", p.variant.config()])
                    .args(["--mode", "fast", "--quiet", "-n"])
                    .arg(CLI_OUTPUTS.to_string());
                let span = self.tr.begin("bin.streamlinc");
                let t0 = Instant::now();
                let out = run_to_exit(&mut cmd, self.wd);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                self.tr.end(span);
                let verdict = match out {
                    Err(e) => Err(format!("cannot run streamlinc: {e}")),
                    Ok(o) if !o.status.success() => Err(format!(
                        "streamlinc {} exited with {}: {}",
                        p.name,
                        o.status,
                        clip(&String::from_utf8_lossy(&o.stderr))
                    )),
                    Ok(o) => parse_cli_stdout(&o.stdout).and_then(|got| {
                        check_bits(p.name, &got, &self.reference[i][..CLI_OUTPUTS])
                    }),
                };
                if self.tally.check(verdict) {
                    st.cli_ms[i].push(ms);
                }
            }
        }
    }

    /// Figs 5-1 and 5-2: operations the optimised plan no longer executes,
    /// from counted runs of the baseline and of the configured plan.
    /// Exact counts; they repeat bit for bit.
    fn stage_counts(&mut self, st: &mut Stages) {
        let mut flops = Vec::new();
        let mut mults = Vec::new();
        for (i, p) in self.progs.iter().enumerate() {
            let counted = |variant: Variant| -> Result<OpCounter, String> {
                let mut off = Tracer::new(false);
                let c = front::compile(&p.source, variant, MatMulStrategy::Unrolled, &mut off)?;
                let mut e = AnyEngine::<OpCounter>::new(&c);
                // Vocoder's default is 250 outputs, short of the reference.
                e.run_until_outputs(p.default_outputs.max(EXPECTED_LEN))
                    .map_err(|e| e.to_string())?;
                check_prefix(p.name, e.printed(), &self.expected[i])?;
                Ok(e.ops().counts())
            };
            match (counted(Variant::Baseline), counted(p.variant)) {
                (Ok(base), Ok(opt)) => {
                    self.tally.ok();
                    self.tally.ok();
                    flops.push((1.0 - opt.flops() as f64 / base.flops() as f64) * 100.0);
                    mults.push((1.0 - opt.mults() as f64 / base.mults() as f64) * 100.0);
                }
                (a, b) => {
                    for r in [a, b] {
                        self.tally
                            .check(r.map(|_| ()).map_err(|e| format!("counted run: {e}")));
                    }
                }
            }
        }
        st.flops_removed_pct = mean(&flops);
        st.mults_removed_pct = mean(&mults);
    }

    /// One steady-state sample of every program, in seeded order: a fresh
    /// engine over a cloned graph and plan, with only
    /// `run_until_outputs(N)` inside the timer. (A resident engine timed
    /// over successive windows spreads 70-90%, because its output buffer
    /// reallocates in some windows and not in others.) With `rates` absent
    /// the sample is the discarded warm-up.
    fn engine_round(&mut self, compiled: &[Compiled], mut rates: Option<&mut Vec<Vec<f64>>>) {
        for i in self.shuffled_order() {
            let p = self.progs[i];
            let span = self.tr.begin("runtime.engine_new");
            let mut engine = AnyEngine::<NoCount>::new(&compiled[i]);
            self.tr.end(span);
            let span = self.tr.begin("runtime.fire");
            let t0 = Instant::now();
            let result = engine.run_until_outputs(p.steady_n);
            let secs = t0.elapsed().as_secs_f64();
            self.tr.end(span);
            let verdict = result
                .map_err(|e| format!("{}: {e}", p.name))
                .and_then(|()| check_prefix(p.name, engine.printed(), &self.expected[i]));
            if let (true, Some(rates)) = (self.tally.check(verdict), rates.as_deref_mut()) {
                rates[i].push(p.steady_n as f64 / secs);
            }
        }
    }

    /// Open/read/close cycles, alternating an open the plan cache cannot
    /// have seen (canonical text plus a seeded comment) with one it has.
    fn stage_churn(&mut self, ready: &mut Ready<'a>, pairs: usize, st: &mut Stages) {
        if pairs == 0 {
            return;
        }
        let read = read_line("churn", CHURN_READ_N);
        let close = close_line("churn");
        let mut items = 0usize;
        let t_loop = Instant::now();
        for _ in 0..pairs {
            for i in self.shuffled_order() {
                let p = self.progs[i];
                for cold in [true, false] {
                    let text = if cold {
                        with_nonce(&p.source, &mut self.rng)
                    } else {
                        p.source.clone()
                    };
                    let open = open_line("churn", &text, p.variant, None);
                    let root = self.tr.begin("daemon.cycle");

                    let (resp, secs) =
                        timed_request(&mut self.tr, &mut ready.daemon, "daemon.open", &open);
                    let opened = resp.and_then(ok_response).and_then(|v| {
                        match v.get("cached").and_then(Json::as_bool) {
                            Some(c) if c != cold => Ok(()),
                            other => Err(format!("{} open: cached is {other:?}", p.name)),
                        }
                    });
                    if self.tally.check(opened) {
                        let ms = if cold {
                            &mut st.open_cold_ms
                        } else {
                            &mut st.open_hit_ms
                        };
                        ms[i].push(secs * 1e3);
                    }

                    let (resp, secs) =
                        timed_request(&mut self.tr, &mut ready.daemon, "daemon.read", &read);
                    let values = resp.and_then(|line| {
                        check_read_response(line, &self.reference[i][..CHURN_READ_N])
                    });
                    if self.tally.check(values) {
                        st.churn_read_us[i].push(secs * 1e6);
                        items += CHURN_READ_N;
                    }

                    let (resp, secs) =
                        timed_request(&mut self.tr, &mut ready.daemon, "daemon.close", &close);
                    if self.tally.check(resp.and_then(ok_response).map(|_| ())) {
                        st.close_us.push(secs * 1e6);
                    }
                    self.tr.end(root);
                }
            }
        }
        st.churn_rate
            .push(items as f64 / t_loop.elapsed().as_secs_f64());
    }

    /// The closed loop over the resident streams: one client, one request
    /// in flight, each response checked before the next request goes out.
    /// `order` names the stream of each request.
    fn stage_resident(
        &mut self,
        ready: &mut Ready<'a>,
        n: usize,
        order: &[u8],
        st: &mut Stages,
    ) -> Result<(), String> {
        if order.is_empty() {
            return Ok(());
        }
        let lines: Vec<String> = (0..self.progs.len())
            .map(|i| read_line(&format!("r{i}"), n))
            .collect();
        let mut items = 0usize;
        let t_loop = Instant::now();
        for (k, &s) in order.iter().enumerate() {
            let s = s as usize;
            let span = self.tr.begin("daemon.read");
            let t0 = Instant::now();
            let resp = ready.daemon.request(&lines[s]);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.tr.end(span);
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    // The daemon is gone; every request not answered failed.
                    let lost = (order.len() - k) as u64;
                    self.tally.attempted += lost;
                    self.tally.fail_more(lost, || format!("resident read: {e}"));
                    return Err(format!("daemon lost during resident reads: {e}"));
                }
            };
            let from = ready.delivered[s];
            let verdict = check_read_response(resp, &self.reference[s][from..from + n]);
            ready.delivered[s] += n;
            if self.tally.check(verdict) {
                st.resident_read_us[s].push(us);
                items += n;
            }
        }
        st.resident_rate
            .push(items as f64 / t_loop.elapsed().as_secs_f64());
        Ok(())
    }

    /// Peak resident memory of the daemon (MB), its `stats`, then shutdown.
    fn finish_daemon(&mut self, mut ready: Ready<'a>) -> Result<(f64, Option<Json>), String> {
        let hwm_kb = ready
            .daemon
            .status_kb("VmHWM")
            .ok_or("cannot read the daemon's VmHWM")?;
        let resp = ready.daemon.request("{\"op\":\"stats\"}");
        let stats = match resp.and_then(ok_response) {
            Ok(v) => {
                self.tally.ok();
                Some(v)
            }
            Err(e) => {
                self.tally.fail(|| format!("stats: {e}"));
                None
            }
        };
        self.tally.check(ready.daemon.shutdown());
        Ok((hwm_kb as f64 / 1024.0, stats))
    }

    fn end_to_end(
        &self,
        st: &Stages,
        setup_s: &mut [f64],
        rss_mb: f64,
        metrics: &mut BTreeMap<String, Metric>,
        samples: &mut BTreeMap<String, u64>,
    ) {
        let mut put = |name: &str, value: f64, unit: &'static str, n: u64| {
            metrics.insert(name.to_string(), (value, unit));
            samples.insert(name.to_string(), n);
        };
        put("setup_s", median(setup_s), "s", setup_s.len() as u64);
        put(
            "compile_ms",
            per_program_geomean(&st.compile_ms),
            "ms",
            total_len(&st.compile_ms),
        );
        put(
            "cli_wall_ms",
            per_program_geomean(&st.cli_ms),
            "ms",
            total_len(&st.cli_ms),
        );
        let counted = 2 * self.progs.len() as u64;
        put("flops_removed_pct", st.flops_removed_pct, "%", counted);
        put("mults_removed_pct", st.mults_removed_pct, "%", counted);
        put(
            "open_cold_ms",
            per_program_geomean(&st.open_cold_ms),
            "ms",
            total_len(&st.open_cold_ms),
        );
        put(
            "open_hit_ms",
            per_program_geomean(&st.open_hit_ms),
            "ms",
            total_len(&st.open_hit_ms),
        );
        // Throughput and read latency come from the stage the workload is
        // about: engine samples, else resident reads, else the cycles.
        let (items_per_s, n) = if self.workload.engine_samples > 0 {
            (
                per_program_geomean(&st.engine_rate),
                total_len(&st.engine_rate),
            )
        } else {
            // Per slice, then the median: a slow stretch of the host inside
            // one slice does not drag the whole run's figure down.
            let rates = if st.resident_rate.is_empty() {
                &st.churn_rate
            } else {
                &st.resident_rate
            };
            (median(&mut rates.clone()), total_len(st.reads()))
        };
        put("items_per_s", items_per_s, "items/s", n);
        // Per stream, because streams differ: a bulk read of FMRadio costs
        // four times one of FIR, and a median over the pooled samples would
        // sit on whichever stream happens to straddle the middle.
        let reads = st.reads();
        put(
            "read_p50_us",
            per_program_geomean(reads),
            "us",
            total_len(reads),
        );
        put("peak_rss_mb", rss_mb, "MB", 1);
    }
}

fn parse_cli_stdout(stdout: &[u8]) -> Result<Vec<f64>, String> {
    std::str::from_utf8(stdout)
        .map_err(|e| format!("stdout is not UTF-8: {e}"))?
        .lines()
        .map(|l| {
            l.trim()
                .parse::<f64>()
                .map_err(|_| format!("stdout line is not a number: {}", clip(l)))
        })
        .collect()
}

pub fn read_expected(env: &Env, name: &str) -> Result<Vec<f64>, String> {
    let path = env.expected_dir.join(format!("{name}.txt"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let values: Vec<f64> = text
        .lines()
        .map(|l| {
            l.trim()
                .parse::<f64>()
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    if values.len() != EXPECTED_LEN {
        return Err(format!(
            "{} holds {} values, expected {EXPECTED_LEN}",
            path.display(),
            values.len()
        ));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_responses_are_checked_bit_for_bit() {
        let line = r#"{"delivered":3,"id":"r0","ok":true,"op":"read","values":[0.1,-2,3e-7]}"#;
        assert_eq!(check_read_response(line, &[0.1, -2.0, 3e-7]), Ok(()));
        assert!(check_read_response(line, &[0.1, -2.0]).is_err());
        assert!(check_read_response(line, &[0.1, -2.0, 3e-7, 4.0]).is_err());
        assert!(check_read_response(line, &[0.1, -2.0, 3.0000001e-7]).is_err());
        let empty = r#"{"ok":true,"op":"read","values":[]}"#;
        assert_eq!(check_read_response(empty, &[]), Ok(()));
        let refused = r#"{"ok":false,"error":"unknown_stream","values":[0.1]}"#;
        assert!(check_read_response(refused, &[0.1]).is_err());
    }

    #[test]
    fn prefix_check_uses_the_equivalence_suite_tolerance() {
        assert!(check_prefix("p", &[1.0 + 5e-6, 2.0], &[1.0]).is_ok());
        assert!(check_prefix("p", &[1.0 + 5e-5], &[1.0]).is_err());
        assert!(check_prefix("p", &[], &[1.0]).is_err());
    }
}
