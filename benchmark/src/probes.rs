//! The per-layer metrics of the traced pass.
//!
//! Three sources: the spans the stages recorded (compile-side self times),
//! counts read at the same boundaries, and probes that call one layer in
//! isolation (kernels, JSON, the service dispatcher in-process, the two
//! transports, the CLI's floor). The README lists, for each metric, the
//! end-to-end metric it is expected to move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Instant;

use streamlin_core::cost::CostModel;
use streamlin_fft::{halfcomplex_mul_into, FftKind, RealFft, RealFftScratch};
use streamlin_runtime::flat::{FlatNode, NodeKind};
use streamlin_runtime::MatMulStrategy;
use streamlin_service::{proto, Service, ServiceOpts};
use streamlin_support::json::{self, Json};
use streamlin_support::{NoCount, Recorder};

use crate::front::{self, AnyEngine, Compiled, Variant};
use crate::proc::{run_to_exit, CpuMask, Daemon, OP_TIMEOUT};
use crate::programs::{self, Prog};
use crate::run::{
    check_read_response, clip, close_line, ok_response, open_line, read_line, scaled, Metric,
    Ready, Run, Stages, DAEMON_WORKERS,
};
use crate::stats::{geomean, mean, median, quantile};
use crate::trace::Tracer;

type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// Computes every per-layer metric of one traced run.
pub(crate) fn per_layer(
    run: &mut Run,
    ready: &mut Ready,
    st: &Stages,
    mark: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    compile_layers(run, st, mark, m);
    let all = run.all_progs;
    firing_layers(run, ready, st, all, m)?;
    kernel_probes(all, m)?;
    json_probes(m);
    service_twin(run, ready, m)?;
    transport_probes(run, ready, st, m)?;
    bin_probes(run, all, m)?;
    parallel_probe(run, all, m)?;
    Ok(())
}

/// `lang.*`, `graph.*`, `core.*` and the compile side of `runtime.*`:
/// per layer, the suite sum of each program's median self time.
fn compile_layers(run: &Run, st: &Stages, mark: usize, m: &mut Metrics) {
    let programs = run.progs.len();
    let suite_ms = |span: &str| -> f64 {
        // Spans of one name arrive in chain order; which program a chain
        // compiled is not recorded, so take the per-round suite sum and
        // its median over rounds. Rounds hold one chain per program.
        let own = run.tr.self_times_since(mark, span);
        let mut rounds: Vec<f64> = own
            .chunks_exact(programs)
            .map(|round| round.iter().sum::<u64>() as f64 / 1e6)
            .collect();
        median(&mut rounds)
    };
    let lex_ms = suite_ms("lang.lex");
    put(m, "lang.lex_ms", lex_ms, "ms");
    put(m, "lang.parse_ms", suite_ms("lang.parse"), "ms");
    put(m, "graph.elaborate_ms", suite_ms("graph.elaborate"), "ms");
    put(m, "core.extract_ms", suite_ms("core.extract"), "ms");
    put(m, "core.select_ms", suite_ms("core.select"), "ms");
    put(m, "runtime.flatten_ms", suite_ms("runtime.flatten"), "ms");
    put(m, "runtime.plan_ms", suite_ms("runtime.plan"), "ms");

    let sum = |f: fn(&front::Counts) -> usize| st.counts.iter().map(f).sum::<usize>() as f64;
    let tokens = sum(|c| c.tokens);
    put(m, "lang.tokens", tokens, "count");
    put(m, "lang.tokens_per_s", tokens / (lex_ms / 1e3), "1/s");
    put(m, "graph.filters", sum(|c| c.filters), "count");
    put(m, "graph.bytecode_ops", sum(|c| c.bytecode_ops), "count");
    put(
        m,
        "graph.certified_phases_pct",
        sum(|c| c.certified_phases) / sum(|c| c.phases) * 100.0,
        "%",
    );
    put(m, "core.linear_filters", sum(|c| c.linear_filters), "count");
    put(
        m,
        "core.select.linear_nodes",
        sum(|c| c.select_linear_nodes),
        "count",
    );
    put(
        m,
        "core.select.freq_nodes",
        sum(|c| c.select_freq_nodes),
        "count",
    );
    put(m, "runtime.flat_nodes", sum(|c| c.flat_nodes), "count");
    put(
        m,
        "runtime.plan_steady_firings",
        st.counts.iter().map(|c| c.plan_steady_firings).sum::<u64>() as f64,
        "count",
    );
    put(
        m,
        "runtime.plan_buffer_slots",
        sum(|c| c.plan_buffer_slots),
        "count",
    );
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Kernel,
    Interp,
    Plumbing,
}

fn classify(node: &FlatNode) -> Class {
    match node.kind {
        NodeKind::Linear(_)
        | NodeKind::Freq(_)
        | NodeKind::Redund(_)
        | NodeKind::Decimator { .. } => Class::Kernel,
        NodeKind::Interp(_) => Class::Interp,
        _ => Class::Plumbing,
    }
}

/// The cost model's prediction for one firing, for the node kinds the
/// model covers (the same formulas selection and partitioning use).
fn predicted_cost(node: &FlatNode, model: &CostModel) -> Option<f64> {
    match &node.kind {
        NodeKind::Linear(exec) => Some(model.direct_per_firing(exec.node())),
        NodeKind::Redund(exec) => Some(model.direct_per_firing(exec.spec().node())),
        NodeKind::Freq(exec) => {
            let spec = exec.spec();
            let (_, _, push) = spec.work_rates();
            Some(model.freq_firing(spec.n(), spec.node().push(), push))
        }
        NodeKind::Interp(s) => Some(model.interp_firing(
            s.inst.lowered.work.stmt_count(),
            s.inst.work.peek,
            s.inst.work.push,
        )),
        _ => None,
    }
}

/// `runtime.fire.*`, `runtime.engine_new_us`, `core.select.speedup_x`
/// and `core.cost.calibration_log_err`.
fn firing_layers(
    run: &mut Run,
    ready: &Ready,
    st: &Stages,
    all: &[Prog],
    m: &mut Metrics,
) -> Result<(), String> {
    // Where the engine spends its time on this workload's programs: a
    // probed run of an eighth of a sample, nodes classified by kind.
    let model = CostModel::default();
    let (mut kernel, mut interp, mut plumbing) = (0u64, 0u64, 0u64);
    let (mut firings, mut items) = (0u64, 0u64);
    let mut log_ratios = Vec::new();
    for (p, c) in run.progs.iter().zip(&ready.compiled) {
        let n = p.steady_n / 8;
        let mut rec = Recorder::new();
        let mut engine = AnyEngine::<NoCount>::new(c);
        let result = engine.run_probed(n, &mut rec);
        run.tally
            .check(result.map_err(|e| format!("probed {}: {e}", p.name)));
        firings += engine.firings();
        items += engine.printed().len() as u64;
        for (id, stats) in &rec.nodes {
            let node = &c.flat.nodes[*id];
            match classify(node) {
                Class::Kernel => kernel += stats.busy_ns,
                Class::Interp => interp += stats.busy_ns,
                Class::Plumbing => plumbing += stats.busy_ns,
            }
            if let Some(pred) = predicted_cost(node, &model) {
                if stats.firings > 0 && stats.busy_ns > 0 {
                    log_ratios.push((stats.busy_ns as f64 / stats.firings as f64 / pred).ln());
                }
            }
        }
    }
    let busy = (kernel + interp + plumbing) as f64;
    put(
        m,
        "runtime.fire.kernel_share_pct",
        kernel as f64 / busy * 100.0,
        "%",
    );
    put(
        m,
        "runtime.fire.interp_share_pct",
        interp as f64 / busy * 100.0,
        "%",
    );
    put(
        m,
        "runtime.fire.plumbing_share_pct",
        plumbing as f64 / busy * 100.0,
        "%",
    );
    put(
        m,
        "runtime.fire.firings_per_item",
        firings as f64 / items as f64,
        "count",
    );
    // How far measured ns/firing sits from the model's prediction once the
    // common scale (the median ratio) is taken out.
    let centre = median(&mut log_ratios.clone());
    let errs: Vec<f64> = log_ratios.iter().map(|r| (r - centre).abs()).collect();
    put(m, "core.cost.calibration_log_err", mean(&errs), "ratio");

    // Per-program steady throughput, all ten programs: the stage's samples
    // where this workload took them, three fresh ones elsewhere.
    let mut rate_of: BTreeMap<&str, f64> = BTreeMap::new();
    for (p, rates) in run.progs.iter().zip(&st.engine_rate) {
        if !rates.is_empty() {
            rate_of.insert(p.name, median(&mut rates.clone()));
        }
    }
    let mut off = Tracer::new(false);
    for p in all {
        if rate_of.contains_key(p.name) {
            continue;
        }
        let c = front::compile(&p.source, p.variant, MatMulStrategy::Simd, &mut off)?;
        let expected = crate::run::read_expected(run.env, p.name)?;
        let mut rates = sample_rates(run, p, &c, p.steady_n, 3, &expected);
        rate_of.insert(p.name, median(&mut rates));
    }
    for (name, rate) in &rate_of {
        put(
            m,
            &format!("runtime.fire.{name}.items_per_s"),
            *rate,
            "items/s",
        );
    }

    // Fig 5-3: the configured plan against per-filter replacement.
    let mut speedups = Vec::new();
    for (i, p) in run.progs.clone().into_iter().enumerate() {
        let base = front::compile(&p.source, Variant::Baseline, MatMulStrategy::Simd, &mut off)?;
        let expected = run.expected(i).to_vec();
        let mut rates = sample_rates(run, p, &base, p.steady_n / 4, 2, &expected);
        speedups.push(rate_of[p.name] / median(&mut rates));
    }
    put(m, "core.select.speedup_x", geomean(&speedups), "ratio");

    // What a cache-hit open pays to get an engine: clone graph and plan,
    // build the rings.
    let mut new_us = Vec::new();
    for c in &ready.compiled {
        for _ in 0..20 {
            let t0 = Instant::now();
            black_box(AnyEngine::<NoCount>::new(c));
            new_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    put(m, "runtime.engine_new_us", median(&mut new_us), "us");
    Ok(())
}

/// One warm-up and `samples` timed fresh-engine runs of `n` outputs.
fn sample_rates(
    run: &mut Run,
    p: &Prog,
    c: &Compiled,
    n: usize,
    samples: usize,
    expected: &[f64],
) -> Vec<f64> {
    let mut rates = Vec::new();
    for round in 0..=samples {
        let mut engine = AnyEngine::<NoCount>::new(c);
        let t0 = Instant::now();
        let result = engine.run_until_outputs(n);
        let secs = t0.elapsed().as_secs_f64();
        let verdict = result
            .map_err(|e| format!("{}: {e}", p.name))
            .and_then(|()| crate::run::check_prefix(p.name, engine.printed(), expected));
        if run.tally.check(verdict) && round > 0 {
            rates.push(n as f64 / secs);
        }
    }
    rates
}

/// `fft.real512_roundtrip_ns` and `runtime.linear_exec.fire_batch_ns_per_item`.
fn kernel_probes(all: &[Prog], m: &mut Metrics) -> Result<(), String> {
    // One block of a frequency node: forward FFT, spectral product with
    // the filter's spectrum, inverse FFT (512 points, the tuned tier).
    let fft = RealFft::new(FftKind::Tuned, 512).map_err(|e| format!("{e:?}"))?;
    let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut scratch = RealFftScratch::default();
    let (mut h, mut spec, mut prod, mut y) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    fft.forward_into(&x, &mut h, &mut scratch, &mut NoCount);
    let mut ns = Vec::new();
    for _ in 0..41 {
        let t0 = Instant::now();
        for _ in 0..1000 {
            fft.forward_into(black_box(&x), &mut spec, &mut scratch, &mut NoCount);
            halfcomplex_mul_into(&spec, &h, &mut prod, &mut NoCount);
            fft.inverse_into(&prod, &mut y, &mut scratch, &mut NoCount);
            black_box(&y);
        }
        ns.push(t0.elapsed().as_nanos() as f64 / 1000.0);
    }
    put(m, "fft.real512_roundtrip_ns", median(&mut ns[1..]), "ns");

    // The 1024-tap node of FIR1024, as the plan engine batches it.
    let fir = programs::find(all, "FIR1024")?;
    let mut off = Tracer::new(false);
    let c = front::compile(&fir.source, fir.variant, MatMulStrategy::Simd, &mut off)?;
    let exec = c
        .flat
        .nodes
        .iter()
        .find_map(|n| match &n.kind {
            NodeKind::Linear(exec) if exec.node().peek() >= 1024 => Some(exec),
            _ => None,
        })
        .ok_or("FIR1024 has no 1024-tap linear node")?;
    let k = 4096;
    let node = exec.node();
    let input: Vec<f64> = (0..(k - 1) * node.pop() + node.peek())
        .map(|i| (i as f64 * 0.11).cos())
        .collect();
    let mut out = Vec::new();
    let mut ns = Vec::new();
    for _ in 0..21 {
        out.clear();
        let t0 = Instant::now();
        exec.fire_batch(black_box(&input), k, &mut out, &mut NoCount);
        black_box(&out);
        ns.push(t0.elapsed().as_nanos() as f64 / (k * node.push()) as f64);
    }
    put(
        m,
        "runtime.linear_exec.fire_batch_ns_per_item",
        median(&mut ns[1..]),
        "ns",
    );
    Ok(())
}

/// `support.json.*`, on the shape of a bulk `read` response.
fn json_probes(m: &mut Metrics) {
    let values: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.731).sin() * 1e3).collect();
    let mut dump_ns = Vec::new();
    let mut text = String::new();
    for _ in 0..201 {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("values", Json::arr(values.iter().map(|v| Json::Num(*v)))),
        ]);
        let t0 = Instant::now();
        text = black_box(doc.dump());
        dump_ns.push(t0.elapsed().as_nanos() as f64 / values.len() as f64);
    }
    put(
        m,
        "support.json.dump_ns_per_value",
        median(&mut dump_ns[1..]),
        "ns",
    );
    let mut mb_per_s = Vec::new();
    for _ in 0..201 {
        let t0 = Instant::now();
        let parsed = json::parse(black_box(&text));
        let secs = t0.elapsed().as_secs_f64();
        black_box(parsed).expect("the writer's output parses");
        mb_per_s.push(text.len() as f64 / 1e6 / secs);
    }
    put(
        m,
        "support.json.parse_mb_per_s",
        median(&mut mb_per_s[1..]),
        "MB/s",
    );
}

/// The daemon's own cost without a transport: the same kinds of request
/// the workloads send, against `Service::handle` in this process.
fn service_twin(run: &mut Run, ready: &Ready, m: &mut Metrics) -> Result<(), String> {
    let svc = Service::new(ServiceOpts {
        workers: DAEMON_WORKERS,
        ..ServiceOpts::default()
    });
    let handle = |line: &str, what: &str| -> Result<(String, f64), String> {
        let t0 = Instant::now();
        let resp = svc.handle(line);
        let secs = t0.elapsed().as_secs_f64();
        if resp.contains("\"ok\":true") {
            Ok((resp, secs))
        } else {
            Err(format!("in-process {what}: {}", clip(&resp)))
        }
    };
    let n = run.progs.len();
    let (mut cold_ms, mut hit_ms) = (Vec::new(), Vec::new());
    for (i, p) in run.progs.iter().enumerate() {
        for (id, out) in [
            (format!("t{i}"), &mut cold_ms),
            (format!("h{i}"), &mut hit_ms),
        ] {
            let line = open_line(&id, &p.source, p.variant, None);
            let (_, secs) = handle(&line, "open")?;
            out.push(secs * 1e3);
        }
    }
    put(m, "service.open_cold_handle_ms", geomean(&cold_ms), "ms");
    put(m, "service.open_hit_handle_ms", geomean(&hit_ms), "ms");

    let small = scaled(60_000, run.scale);
    let lines: Vec<String> = (0..n).map(|i| read_line(&format!("t{i}"), 1)).collect();
    let mut read1_us = Vec::with_capacity(small);
    let mut parse_us = Vec::with_capacity(small);
    for k in 0..small {
        let line = &lines[k % n];
        let t0 = Instant::now();
        let parsed = proto::parse_request(black_box(line));
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(parsed).map_err(|e| format!("parse_request: {e}"))?;
        let (_, secs) = handle(line, "read n=1")?;
        read1_us.push(secs * 1e6);
    }
    put(m, "service.handle_read1_us", median(&mut read1_us), "us");
    put(m, "service.parse_request_us", median(&mut parse_us), "us");

    // Bulk reads, per program, next to the engine's own time for the same
    // 1024 items: what is left is building and writing the response.
    let bulk = scaled(24, run.scale).max(4);
    let (mut read1024_us, mut encode_ns, mut bytes_per_item) = (Vec::new(), Vec::new(), Vec::new());
    for (i, c) in ready.compiled.iter().enumerate() {
        let line = read_line(&format!("h{i}"), 1024);
        let mut engine = AnyEngine::<NoCount>::new(c);
        let (mut handle_us, mut engine_us) = (Vec::new(), Vec::new());
        for k in 1..=bulk {
            let (resp, secs) = handle(&line, "read n=1024")?;
            handle_us.push(secs * 1e6);
            bytes_per_item.push(resp.len() as f64 / 1024.0);
            let t0 = Instant::now();
            engine
                .run_until_outputs(k * 1024)
                .map_err(|e| e.to_string())?;
            engine_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let handle_med = median(&mut handle_us);
        read1024_us.push(handle_med);
        encode_ns.push((handle_med - median(&mut engine_us)) * 1e3 / 1024.0);
    }
    put(m, "service.handle_read1024_us", geomean(&read1024_us), "us");
    put(m, "service.encode_ns_per_value", mean(&encode_ns), "ns");
    put(m, "service.resp_bytes_per_item", mean(&bytes_per_item), "B");

    let mut close_us = Vec::new();
    for i in 0..n {
        for id in [format!("t{i}"), format!("h{i}")] {
            let (_, secs) = handle(&close_line(&id), "close")?;
            close_us.push(secs * 1e6);
        }
    }
    put(m, "service.close_us", median(&mut close_us), "us");
    Ok(())
}

/// Median round trip of `count` requests of one line, in microseconds.
fn median_round_trip_us(daemon: &mut Daemon, line: &str, count: usize) -> Result<f64, String> {
    let mut us = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        let resp = daemon.request(line)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !resp.contains("\"ok\":true") {
            return Err(format!("refused: {}", clip(resp)));
        }
    }
    Ok(median(&mut us))
}

/// `service.transport.*`, `service.read_p99_us`, `service.rss_bytes_per_item`.
fn transport_probes(
    run: &mut Run,
    ready: &mut Ready,
    st: &Stages,
    m: &mut Metrics,
) -> Result<(), String> {
    let count = scaled(30_000, run.scale);
    let ping_us = median_round_trip_us(&mut ready.daemon, "{\"op\":\"ping\"}", count)?;
    put(m, "service.transport.stdio_rtt_us", ping_us, "us");

    // n=1 reads on the resident streams, real daemon against in-process
    // dispatcher: the difference is pipes, wake-ups and the server loop.
    let n = run.progs.len();
    let mut real_us = Vec::with_capacity(count);
    for k in 0..count {
        let s = k % n;
        let line = read_line(&format!("r{s}"), 1);
        let t0 = Instant::now();
        let resp = ready.daemon.request(&line)?;
        real_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let from = ready.delivered[s];
        let want = run.reference(s).get(from..from + 1);
        let verdict = match want {
            Some(want) => check_read_response(resp, want),
            // Past the reference's end only the status is checked.
            None => ok_response(resp).map(|_| ()),
        };
        run.tally.check(verdict);
        ready.delivered[s] += 1;
    }
    let real = median(&mut real_us);
    let inproc = m["service.handle_read1_us"].0;
    put(
        m,
        "service.transport.share_pct",
        (1.0 - inproc / real) * 100.0,
        "%",
    );

    let mut reads: Vec<f64> = st.reads().concat();
    put(m, "service.read_p99_us", quantile(&mut reads, 0.99), "us");

    // Memory the daemon keeps per delivered item: bulk reads on one
    // stream, resident set before and after.
    let bulk = scaled(600, run.scale).max(8);
    let before = ready.daemon.status_kb("VmRSS").ok_or("no VmRSS")?;
    let line = read_line("r0", 1024);
    for _ in 0..bulk {
        let resp = ready.daemon.request(&line)?;
        run.tally.check(ok_response(resp).map(|_| ()));
        ready.delivered[0] += 1024;
    }
    let after = ready.daemon.status_kb("VmRSS").ok_or("no VmRSS")?;
    put(
        m,
        "service.rss_bytes_per_item",
        (after as f64 - before as f64) * 1024.0 / (bulk * 1024) as f64,
        "B",
    );

    // Far fewer pings than over stdio: the TCP loop answers in two writes
    // (line, then newline) on a socket without TCP_NODELAY, so each round
    // trip waits out the client's delayed ACK, about 40 ms.
    put(
        m,
        "service.transport.tcp_rtt_us",
        tcp_ping_us(run, scaled(150, run.scale).max(5))?,
        "us",
    );
    Ok(())
}

/// Median `ping` round trip against `streamlind --listen 127.0.0.1:0`.
fn tcp_ping_us(run: &mut Run, count: usize) -> Result<f64, String> {
    let mut child = Command::new(&run.env.streamlind)
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start streamlind --listen: {e}"))?;
    let pid = child.id();
    // Kill on every path out of this function, errors included.
    let result = (|| -> std::io::Result<f64> {
        use std::io::Error;
        run.wd.arm(pid, OP_TIMEOUT);
        let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
        let mut line = String::new();
        stderr.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|_| line.contains("listening on"))
            .ok_or_else(|| Error::other(format!("no listening address in: {}", clip(&line))))?;
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(OP_TIMEOUT))?;
        let mut writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        let mut us = Vec::with_capacity(count);
        let mut resp = String::new();
        for _ in 0..count {
            run.wd.arm(pid, OP_TIMEOUT);
            resp.clear();
            let t0 = Instant::now();
            writer.write_all(b"{\"op\":\"ping\"}\n")?;
            reader.read_line(&mut resp)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            if !resp.contains("\"ok\":true") {
                return Err(Error::other(format!("ping refused: {}", clip(&resp))));
            }
        }
        writer.write_all(b"{\"op\":\"shutdown\"}\n")?;
        resp.clear();
        reader.read_line(&mut resp)?;
        Ok(median(&mut us))
    })()
    .map_err(|e| format!("streamlind --listen: {e}"));
    if result.is_err() {
        let _ = child.kill();
    }
    run.wd.arm(pid, OP_TIMEOUT);
    let _ = child.wait();
    run.wd.disarm();
    run.tally
        .check(result.as_ref().map(|_| ()).map_err(Clone::clone));
    result
}

/// `bin.streamlinc.*`: process start, and the price of printing.
fn bin_probes(run: &mut Run, all: &[Prog], m: &mut Metrics) -> Result<(), String> {
    const TINY: &str = "void->void pipeline Main { add S(); add G(); add K(); }
void->float filter S { float x; work push 1 { push(x++); } }
float->float filter G { work pop 1 push 1 { push(2 * pop()); } }
float->void filter K { work pop 1 { println(pop()); } }
";
    let tiny = run.env.work_dir.join("tiny.str");
    std::fs::write(&tiny, TINY).map_err(|e| format!("cannot write {}: {e}", tiny.display()))?;
    let fir = programs::find(all, "FIR")?;
    let fir_path = run.env.work_dir.join("FIR-print.str");
    std::fs::write(&fir_path, &fir.source)
        .map_err(|e| format!("cannot write {}: {e}", fir_path.display()))?;

    let mut wall_ms = |path: &std::path::Path, n: usize, reps: usize| -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..reps {
            let mut cmd = Command::new(&run.env.streamlinc);
            cmd.arg(path)
                .args(["--mode", "fast", "--quiet", "-n"])
                .arg(n.to_string());
            let t0 = Instant::now();
            let out = run_to_exit(&mut cmd, run.wd).map_err(|e| e.to_string())?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let lines = out.stdout.iter().filter(|b| **b == b'\n').count();
            run.tally.check(if out.status.success() && lines == n {
                Ok(())
            } else {
                Err(format!(
                    "streamlinc {}: {} with {lines} of {n} lines",
                    path.display(),
                    out.status
                ))
            });
        }
        Ok(median(&mut ms))
    };
    let floor = wall_ms(&tiny, 1, scaled(60, run.scale).max(5))?;
    put(m, "bin.streamlinc.floor_ms", floor, "ms");
    let reps = scaled(20, run.scale).max(3);
    let short = wall_ms(&fir_path, 1000, reps)?;
    let long = wall_ms(&fir_path, 100_000, reps)?;
    put(
        m,
        "bin.streamlinc.print_ns_per_item",
        (long - short) * 1e6 / 99_000.0,
        "ns",
    );
    Ok(())
}

/// Lifts the one-CPU pin while alive and restores it when dropped.
struct AllCpus(Option<CpuMask>);

impl AllCpus {
    fn lift(env: &crate::run::Env) -> Self {
        if let Some(all) = env.all_cpus {
            all.apply();
        }
        AllCpus(env.all_cpus)
    }
}

impl Drop for AllCpus {
    fn drop(&mut self) {
        if let Some(all) = self.0 {
            all.first_only().apply();
        }
    }
}

/// `runtime.parallel.t2_ratio`: FilterBank on two pipeline stages against
/// one, n=1024, through a daemon of its own that may use every CPU. With
/// fewer than two CPUs the stages share a core and the ratio prices the
/// hand-off, not a speed-up.
fn parallel_probe(run: &mut Run, all: &[Prog], m: &mut Metrics) -> Result<(), String> {
    let p = programs::find(all, "FilterBank")?;
    let reads = scaled(90, run.scale).max(6);
    let mut off = Tracer::new(false);
    let c = front::compile(&p.source, p.variant, MatMulStrategy::Simd, &mut off)?;
    let want = front::outputs::<NoCount>(&c, reads * 1024)?;
    let _unpinned = AllCpus::lift(run.env);
    let mut daemon = Daemon::spawn(&run.env.streamlind, run.wd)
        .map_err(|e| format!("cannot start streamlind: {e}"))?;
    let mut rate = |threads: usize| -> Result<f64, String> {
        let id = format!("par{threads}");
        let open = open_line(&id, &p.source, p.variant, Some(threads));
        let resp = daemon.request(&open)?;
        run.tally.check(ok_response(resp).map(|_| ()));
        let line = read_line(&id, 1024);
        let t0 = Instant::now();
        for k in 0..reads {
            let resp = daemon.request(&line)?;
            run.tally
                .check(check_read_response(resp, &want[k * 1024..(k + 1) * 1024]));
        }
        let secs = t0.elapsed().as_secs_f64();
        let resp = daemon.request(&close_line(&id))?;
        run.tally.check(ok_response(resp).map(|_| ()));
        Ok((reads * 1024) as f64 / secs)
    };
    let one = rate(1)?;
    let two = rate(2)?;
    put(m, "runtime.parallel.t2_ratio", two / one, "ratio");
    run.tally.check(daemon.shutdown());
    Ok(())
}

/// `service.cache_entries` and `service.cache_hit_ratio`, from the
/// daemon's `stats` just before shutdown.
pub(crate) fn cache_metrics(stats: Option<&Json>, m: &mut Metrics) {
    let field = |name: &str| {
        stats
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
    };
    if let (Some(entries), Some(hits), Some(misses)) =
        (field("entries"), field("hits"), field("misses"))
    {
        put(m, "service.cache_entries", entries, "count");
        put(
            m,
            "service.cache_hit_ratio",
            hits / (hits + misses),
            "ratio",
        );
    }
}
