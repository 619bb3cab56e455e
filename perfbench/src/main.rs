//! `perfbench`: the Rhythm server's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run boots an in-process one-shard `ShardedServer` on loopback
//! (telemetry and the adaptive controller on, `slo_p99` = the workload's
//! SLO), logs every virtual user in, and drives open-loop Poisson
//! traffic from one generator thread. With `--trace 0` it measures a
//! light and a heavy fixed-rate window and climbs a rate ladder to find
//! the capacity; with `--trace 1` it sends the same traffic with the
//! layer probe on, splits each request's latency in the two windows into
//! layers, replays every executed cohort through the native handlers to
//! check each response, and (on the SIMT path) attributes host time to
//! kernels.
//! The last stdout line is one JSON object; the lines above it are a
//! table of every metric with its unit and sample count.
//!
//! See `perfbench/README.md` for the workloads and the metrics.

mod gen;
mod layer;
mod replay;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rhythm_banking::backend::BankStore;
use rhythm_banking::genreq::RequestGenerator;
use rhythm_banking::kernels::Workload as Kernels;
use rhythm_banking::runner::run_cohorts_hyperq;
use rhythm_banking::serve::{ScalarHandler, SimtHandler};
use rhythm_banking::types::RequestType;
use rhythm_net::{CohortHandler, NetConfig, NetStats, ShardedServer, Telemetry};
use rhythm_obs::StreamingHistogram;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::plan_cache_stats;

use crate::gen::{Generator, Record};
use crate::layer::{Inspect, Layered, Probe};
use crate::report::{quantile, Metrics};
use crate::workload::{Arrival, Path, Planner, Workload, USERS};

/// Set-ups per timed run; `setup_s` is their median. All but the last
/// run in child processes, so each one starts with cold process-wide
/// caches. A scalar set-up takes tens of milliseconds and varies by a
/// third from run to run, so it is repeated more often than the
/// seconds-long SIMT one.
fn setup_repeats(w: &Workload) -> usize {
    match w.path {
        Path::Simt => 3,
        Path::Scalar => 9,
    }
}
/// Leading part of every segment that is sent but not measured, so the
/// adaptive controller (2 ms ticks) settles on the segment's rate first.
const SETTLE_S: f64 = 0.2;
/// How long a window may take to drain after its last arrival before
/// what is still unanswered counts as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// Shares of `--seconds` given to the light window, the heavy window,
/// and the capacity ladder.
const LIGHT_SHARE: f64 = 0.33;
const HEAVY_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.47;
/// The light and heavy windows each run as this many segments, in rounds
/// of a light segment, a heavy segment and a share of the ladder's rungs,
/// so the segments of a window are spread over the whole run and host
/// contention in part of it spoils only some of them (see `part_stats`).
/// Each light segment keeps at least ten samples beyond its p90 at every
/// workload's light rate.
const ROUNDS: usize = 5;
/// Rung runs the ladder may spend (retries included). Few, long rungs
/// give the SIMT path's p99 enough samples; bisecting 47 rungs takes six
/// without retries.
const LADDER_STEPS: usize = 7;
/// A rung's p99 is the median over this many equal slices when each has
/// 1000 samples, so a stall in one slice does not fail the rung.
const RUNG_SLICES: usize = 3;
/// Largest failure share a passing rung may have.
const RUNG_MAX_FAILED: f64 = 0.001;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside [1, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// A running server plus what the benchmark observes it through.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
    telemetry: Arc<Telemetry>,
    probe: Arc<Probe>,
}

impl Server {
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().expect("server thread panicked");
    }
}

fn start<H: CohortHandler + Inspect + Send + 'static>(
    handler: H,
    config: NetConfig,
    telemetry: Arc<Telemetry>,
    probe: Arc<Probe>,
) -> Server {
    let server = ShardedServer::bind("127.0.0.1:0", config, vec![Layered::new(handler, &probe)])
        .expect("bind a loopback port")
        .with_telemetry(&telemetry);
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || {
        server.run(&flag);
    });
    Server {
        addr,
        stop,
        join,
        telemetry,
        probe,
    }
}

/// Fill the process-wide decode-plan, verifier, packing and effects
/// caches: run one cohort of every request type at every size the
/// reactor can form, through the same HyperQ entry point the handler
/// uses. Each cache is keyed by (kernel, launch shape) and a shape is
/// fixed by (type, cohort size), so afterwards no cohort misses.
fn warm_device_caches(w: &Workload, kernels: &Kernels, store: &BankStore, max_cohort: usize) {
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = w.cohort_options();
    let shapes: Vec<(RequestType, usize)> = RequestType::ALL
        .iter()
        .flat_map(|&ty| (1..=max_cohort).map(move |n| (ty, n)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for part in 0..threads {
            let shapes = &shapes;
            let (gpu, opts) = (&gpu, &opts);
            s.spawn(move || {
                for &(ty, n) in shapes.iter().skip(part).step_by(threads) {
                    let mut sessions = w.session_table();
                    let cohort =
                        RequestGenerator::new(USERS, n as u64).uniform(ty, n, &mut sessions);
                    for r in run_cohorts_hyperq(kernels, store, &mut sessions, &[cohort], gpu, opts)
                    {
                        r.expect("warm-up cohort runs");
                    }
                }
            });
        }
    });
}

/// Build the handler, fill its caches, bind, and log every user in. With
/// `trace` the layer probe and response digests are on from the first
/// request, so the oracle can replay the server's whole history.
fn set_up(w: &Workload, origin: Instant, trace: bool) -> (Server, Generator) {
    let mut config = NetConfig {
        adaptive: true,
        slo_p99: w.slo,
        ..NetConfig::default()
    };
    if let Some(n) = w.pool_contexts {
        config.pool_contexts = n;
    }
    let telemetry = Telemetry::new(1);
    let probe = Probe::new(origin);
    let store = BankStore::generate(USERS, 1);
    let sessions = w.session_table();
    let server = match w.path {
        Path::Scalar => start(
            ScalarHandler::new(store, sessions),
            config,
            telemetry,
            probe,
        ),
        Path::Simt => {
            let kernels = Kernels::build();
            warm_device_caches(w, &kernels, &store, config.cohort_size);
            let handler = SimtHandler::new(
                kernels,
                store,
                sessions,
                Gpu::new(GpuConfig::gtx_titan()),
                w.cohort_options(),
            )
            .with_metrics(telemetry.device(0));
            start(handler, config, telemetry, probe)
        }
    };
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut gen = Generator::connect(server.addr, conns, origin).expect("connect to the server");
    server.probe.set_tracing(trace);
    gen.digest = trace.then(|| w.digest());
    let logins: Vec<Arrival> = (0..USERS)
        .map(|user| Arrival {
            due: 0.0,
            user,
            ty: RequestType::Login,
            arg: 0,
        })
        .collect();
    let now = origin.elapsed().as_secs_f64();
    gen.run(now, &logins, DRAIN);
    (server, gen)
}

/// One window of open-loop traffic at a fixed rate.
struct Window {
    rate: f64,
    /// Records of the window.
    range: std::ops::Range<usize>,
    /// Arrivals due before this are sent but not measured.
    measured_from: f64,
    start: f64,
    end: f64,
}

impl Window {
    fn measured<'a>(&self, records: &'a [Record]) -> impl Iterator<Item = &'a Record> + 'a {
        let from = self.measured_from;
        records[self.range.clone()]
            .iter()
            .filter(move |r| r.due >= from)
    }
}

fn run_window(
    gen: &mut Generator,
    planner: &mut Planner,
    rate: f64,
    seconds: f64,
    origin: Instant,
) -> Window {
    let arrivals = planner.window(rate, seconds);
    let start = origin.elapsed().as_secs_f64() + 1e-3;
    let range = gen.run(start, &arrivals, DRAIN);
    Window {
        rate,
        range,
        measured_from: start + SETTLE_S.min(seconds / 4.0),
        start,
        end: origin.elapsed().as_secs_f64(),
    }
}

/// Latency and health of a window's measured requests.
struct WindowStats {
    attempted: usize,
    failed: usize,
    /// Lower quartiles over the window's parts of each part's p50 and p90.
    part_p50: f64,
    part_p90: f64,
    /// Each part's p50, in order.
    p50s: Vec<f64>,
    /// The part median when every part has at least 1000 samples, else
    /// the p99 of all parts together (the capacity criterion).
    p99: f64,
    /// Generator lateness (on-time sends), p99.
    late_p99: f64,
    /// Mean send delay (lateness plus user waits) in the last third of
    /// the requests minus that of the first third.
    backlog_growth: f64,
    /// Responses other than 200 or 503: wrong answers, not overload.
    wrong: usize,
}

/// Statistics over `parts` (segments or slices of one window, each in
/// due order). The p50 and p90 are the lower quartile (nearest rank: the
/// second lowest of five) over the parts of each part's percentile. Host
/// contention only ever adds latency, so this keeps the parts the host
/// disturbed least: three of five segments may be spoiled before the
/// result moves, while a change in the server moves every part.
fn part_stats(parts: &[Vec<&Record>]) -> WindowStats {
    let all: Vec<&Record> = parts.iter().flatten().copied().collect();
    let mut late: Vec<f64> = all
        .iter()
        .filter(|r| r.on_time)
        .map(|r| r.sent - r.due)
        .collect();
    let third = all.len() / 3;
    let mean_delay = |rs: &[&Record]| {
        let d: Vec<f64> = rs
            .iter()
            .filter(|r| r.sent.is_finite())
            .map(|r| r.sent - r.due)
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    let backlog_growth = if third > 0 {
        mean_delay(&all[all.len() - third..]) - mean_delay(&all[..third])
    } else {
        0.0
    };
    let latencies = |rs: &[&Record]| -> Vec<f64> {
        rs.iter().filter(|r| r.ok()).map(|r| r.latency()).collect()
    };
    let mut per_part = [Vec::new(), Vec::new(), Vec::new()];
    for part in parts {
        let mut l = latencies(part);
        for (q, out) in [0.50, 0.90, 0.99].into_iter().zip(&mut per_part) {
            out.push(quantile(&mut l, q));
        }
    }
    let p50s = per_part[0].clone();
    let [mut p50v, mut p90v, p99v] = per_part;
    let (p50, p90) = (quantile(&mut p50v, 0.25), quantile(&mut p90v, 0.25));
    let p99s = report::median(&p99v);
    // A part's p99 needs ten samples beyond it; below that, use all.
    let p99 = if parts.iter().all(|p| p.len() >= 1000) {
        p99s
    } else {
        quantile(&mut latencies(&all), 0.99)
    };
    WindowStats {
        attempted: all.len(),
        failed: all.iter().filter(|r| !r.ok()).count(),
        p99,
        part_p50: p50,
        part_p90: p90,
        p50s,
        late_p99: quantile(&mut late, 0.99),
        backlog_growth,
        wrong: all
            .iter()
            .filter(|r| r.done.is_finite() && r.status != 200 && r.status != 503)
            .count(),
    }
}

/// Statistics of one ladder rung over `RUNG_SLICES` equal slices.
fn rung_stats(records: &[Record], w: &Window) -> WindowStats {
    let measured: Vec<&Record> = w.measured(records).collect();
    let slice_len = measured.len().div_ceil(RUNG_SLICES).max(1);
    let parts: Vec<Vec<&Record>> = measured.chunks(slice_len).map(<[_]>::to_vec).collect();
    part_stats(&parts)
}

/// Statistics of a window run as segments, one part per segment.
fn segments_stats(records: &[Record], segments: &[Window]) -> WindowStats {
    let parts: Vec<Vec<&Record>> = segments
        .iter()
        .map(|s| s.measured(records).collect())
        .collect();
    part_stats(&parts)
}

/// Whether the generator kept its schedule in a window: its own
/// lateness must stay small next to the SLO.
fn slip_limit(w: &Workload) -> f64 {
    0.1 * w.slo.as_secs_f64()
}

/// Outcome of one ladder rung.
fn rung_passes(w: &Workload, s: &WindowStats) -> bool {
    let slo = w.slo.as_secs_f64();
    s.attempted > 0
        && s.p99 <= slo
        && (s.failed as f64) <= RUNG_MAX_FAILED * s.attempted as f64
        && s.backlog_growth <= slip_limit(w)
}

/// The capacity search: bisect the ladder for its highest passing rung,
/// starting at its middle (the seed's capacity). A failing rung is run
/// once more before it counts as failed, so one noisy rung cannot end
/// the search.
struct Ladder {
    rungs: Vec<f64>,
    /// Highest rung known to pass, lowest known to fail.
    pass_at: Option<usize>,
    fail_at: usize,
    /// The rung to run next; `None` once the search is over.
    next: Option<usize>,
    retried: bool,
    /// Rung runs so far, retries included.
    runs: usize,
}

impl Ladder {
    fn new(w: &Workload) -> Self {
        let rungs = w.rungs();
        Ladder {
            next: Some(rungs.len() / 2),
            pass_at: None,
            fail_at: rungs.len(),
            retried: false,
            runs: 0,
            rungs,
        }
    }

    /// Whether the search is over: bisection finished or its rung runs
    /// spent.
    fn done(&self) -> bool {
        self.next.is_none() || self.runs >= LADDER_STEPS
    }

    /// Run the next rung unless the search is over. Rung records are
    /// dropped afterwards unless `keep_records` (the oracle needs them).
    fn step(&mut self, w: &Workload, load: &mut Load<'_>, keep_records: bool) {
        let Some(i) = self.next.filter(|_| !self.done()) else {
            return;
        };
        self.runs += 1;
        let win = run_window(
            load.gen,
            load.planner,
            self.rungs[i],
            load.rung_s,
            load.origin,
        );
        let s = rung_stats(&load.gen.records, &win);
        let pass = rung_passes(w, &s);
        load.out.note(format!(
            "rung {:>7.0} rps: p99 {:>8.3} ms, failed {}/{}, late p99 {:.3} ms, backlog {:+.3} ms -> {}",
            win.rate,
            s.p99 * 1e3,
            s.failed,
            s.attempted,
            s.late_p99 * 1e3,
            s.backlog_growth * 1e3,
            if pass { "pass" } else { "fail" }
        ));
        // At scalar rates rung records are millions.
        if !keep_records {
            load.gen.forget_from(win.range.start);
        }
        if pass {
            self.pass_at = Some(i);
        } else if !self.retried {
            self.retried = true;
            return;
        } else {
            self.fail_at = i;
        }
        self.retried = false;
        let lo = self.pass_at.map_or(0, |p| p + 1);
        self.next = (lo < self.fail_at).then(|| (lo + self.fail_at - 1).div_ceil(2));
    }

    /// The highest passing rung; the rung below the ladder if none passed.
    fn capacity(&self) -> f64 {
        match self.pass_at {
            Some(p) => self.rungs[p],
            None => self.rungs[0] / workload::RUNG_STEP,
        }
    }
}

/// What a run sends its traffic with: the generator, the planner of
/// arrivals, the run's clock origin, the length of a ladder rung, and the
/// report the rungs' notes go to.
struct Load<'a> {
    gen: &'a mut Generator,
    planner: &'a mut Planner,
    origin: Instant,
    rung_s: f64,
    out: &'a mut Metrics,
}

/// What a run's traffic produced.
struct Schedule {
    light: Vec<Window>,
    heavy: Vec<Window>,
    ladder: Ladder,
    /// Shard counters over the light and heavy segments.
    net: NetStats,
    /// HyperQ group sizes over the light and heavy segments.
    hyperq: StreamingHistogram,
}

/// Send a run's traffic: `ROUNDS` rounds of a light segment, a heavy
/// segment and a share of the ladder's rungs.
fn run_schedule(
    w: &Workload,
    server: &Server,
    load: &mut Load<'_>,
    seconds: f64,
    keep_records: bool,
) -> Schedule {
    let light_s = seconds * LIGHT_SHARE / ROUNDS as f64;
    let heavy_s = seconds * HEAVY_SHARE / ROUNDS as f64;
    let mut s = Schedule {
        light: Vec::with_capacity(ROUNDS),
        heavy: Vec::with_capacity(ROUNDS),
        ladder: Ladder::new(w),
        net: NetStats::default(),
        hyperq: StreamingHistogram::new(HYPERQ_MIN, HYPERQ_SUB),
    };
    for round in 0..ROUNDS {
        for heavy in [false, true] {
            let (rate, secs) = if heavy {
                (w.heavy_rps, heavy_s)
            } else {
                (w.light_rps, light_s)
            };
            let (net0, hq0) = (
                server.telemetry.total().stats,
                hyperq_hist(&server.telemetry),
            );
            let win = run_window(load.gen, load.planner, rate, secs, load.origin);
            accumulate(&mut s.net, &server.telemetry.total().stats, &net0);
            s.hyperq.merge(&hyperq_hist(&server.telemetry).diff(&hq0));
            if heavy {
                s.heavy.push(win);
            } else {
                s.light.push(win);
            }
        }
        // The last round runs whatever rung runs are left.
        while !s.ladder.done() && s.ladder.runs < (round + 1) * LADDER_STEPS / ROUNDS {
            s.ladder.step(w, load, keep_records);
        }
    }
    s
}

/// Mean of a histogram window, 0 when it is empty.
fn hist_mean(h: &StreamingHistogram) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.mean()
    }
}

/// Bucket layout of the device's HyperQ histogram.
const HYPERQ_MIN: f64 = 0.5;
const HYPERQ_SUB: u32 = 2;

fn hyperq_hist(t: &Telemetry) -> StreamingHistogram {
    t.device(0)
        .histogram(
            "rhythm_device_hyperq_streams",
            "Concurrent streams per HyperQ launch group (1 = serial barrier)",
            HYPERQ_MIN,
            HYPERQ_SUB,
            8,
        )
        .snapshot()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload.clone();

    if args.setup_only {
        let origin = Instant::now();
        let (server, gen) = set_up(&w, origin, false);
        let setup_s = origin.elapsed().as_secs_f64();
        drop(gen);
        server.shutdown();
        println!("{setup_s}");
        return ExitCode::SUCCESS;
    }

    // Cold set-ups in child processes (timed runs only: the traced run
    // reports no set-up time).
    let repeats = if args.trace { 1 } else { setup_repeats(&w) };
    let mut setups = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let exe = std::env::current_exe().expect("own executable");
        let out = Command::new(exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                "0",
                "--setup-only",
            ])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a set-up child");
        let text = String::from_utf8_lossy(&out.stdout);
        match text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
        {
            Some(s) if out.status.success() => setups.push(s),
            _ => {
                eprintln!("perfbench: set-up child failed: {}", out.status);
                return ExitCode::FAILURE;
            }
        }
    }

    let origin = Instant::now();
    let (server, mut gen) = set_up(&w, origin, args.trace);
    setups.push(origin.elapsed().as_secs_f64());
    let plan0 = plan_cache_stats();

    let mut out = Metrics::new(w.name, args.trace);
    if !args.trace {
        out.metric("setup_s", report::median(&setups), "s", setups.len());
    }

    let mut planner = Planner::new(w.traffic, args.seed);
    let login_failures = gen.records.iter().filter(|r| !r.ok()).count();
    let mut correct = login_failures == 0;
    if login_failures > 0 {
        out.note(format!("{login_failures} warm-up logins failed"));
    }

    let mut load = Load {
        gen: &mut gen,
        planner: &mut planner,
        origin,
        rung_s: args.seconds * LADDER_SHARE / LADDER_STEPS as f64,
        out: &mut out,
    };
    let (attempted, failed);
    if !args.trace {
        let sched = run_schedule(&w, &server, &mut load, args.seconds, false);
        let records = &load.gen.records;
        let out = &mut *load.out;
        let ls = segments_stats(records, &sched.light);
        let hs = segments_stats(records, &sched.heavy);
        for (name, rate, s) in [("light", w.light_rps, &ls), ("heavy", w.heavy_rps, &hs)] {
            let ok = s.attempted - s.failed;
            out.metric(&format!("{name}.p50_ms"), s.part_p50 * 1e3, "ms", ok);
            out.metric(&format!("{name}.p90_ms"), s.part_p90 * 1e3, "ms", ok);
            out.table_only(&format!("{name}.p99_ms"), s.p99 * 1e3, "ms", ok);
            if s.late_p99 > slip_limit(&w) {
                out.note(format!(
                    "SLIPPED: {name} window generator lateness p99 {:.3} ms over {:.3} ms",
                    s.late_p99 * 1e3,
                    slip_limit(&w) * 1e3
                ));
            }
            let p50s: Vec<String> = s.p50s.iter().map(|v| format!("{:.2}", v * 1e3)).collect();
            out.note(format!(
                "{name} window {rate:.0} rps offered in {ROUNDS} segments: {} measured, {} failed, generator late p99 {:.3} ms, segment p50s {} ms",
                s.attempted,
                s.failed,
                s.late_p99 * 1e3,
                p50s.join(" ")
            ));
            correct &= s.wrong == 0;
        }
        attempted = ls.attempted + hs.attempted;
        failed = ls.failed + hs.failed;
        out.table_only(
            "capacity_rps",
            sched.ladder.capacity(),
            "1/s",
            sched.ladder.runs,
        );
        out.table_only(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
            attempted,
        );
    } else {
        let traced = traced_run(&w, &server, &mut load, args.seconds);
        correct &= traced.correct;
        attempted = traced.attempted;
        failed = traced.failed;
    }
    let plan1 = plan_cache_stats();
    if plan1.misses != plan0.misses {
        out.note(format!(
            "plan cache missed {} times after warm-up",
            plan1.misses - plan0.misses
        ));
    }
    drop(gen);
    server.shutdown();
    out.finish(correct, attempted, failed);
    ExitCode::SUCCESS
}

struct Traced {
    correct: bool,
    attempted: usize,
    failed: usize,
}

/// Add the counters the per-layer metrics use, `now - then`, to `acc`.
fn accumulate(acc: &mut NetStats, now: &NetStats, then: &NetStats) {
    acc.cohorts += now.cohorts - then.cohorts;
    acc.timeout_launches += now.timeout_launches - then.timeout_launches;
    acc.fill_sum += now.fill_sum - then.fill_sum;
    acc.launched_requests += now.launched_requests - then.launched_requests;
    acc.idle_polls += now.idle_polls - then.idle_polls;
    acc.reads_paused += now.reads_paused - then.reads_paused;
    acc.bytes_out += now.bytes_out - then.bytes_out;
    acc.responses += now.responses - then.responses;
}

/// Every kernel of the Banking workload, in a fixed order.
fn kernel_names() -> Vec<String> {
    let k = Kernels::build();
    let mut names = vec![k.parser.name().to_string(), k.backend.name().to_string()];
    for ty in RequestType::ALL {
        for stage in k.stages_of(ty) {
            if !names.iter().any(|n| n == stage.name()) {
                names.push(stage.name().to_string());
            }
        }
    }
    names
}

/// The traced run: the timed run's traffic with the layer probe on (it
/// has been on since the server's first request), then untraced heavy
/// segments for the overhead ratio; afterwards the output oracle and the
/// kernel attribution. The layer metrics come from the light and heavy
/// segments; the ladder is traced so that the oracle checks all the
/// traffic a timed run sends, overload included.
fn traced_run(w: &Workload, server: &Server, load: &mut Load<'_>, seconds: f64) -> Traced {
    let sched = run_schedule(w, server, load, seconds, true);
    let traced_end = load.gen.records.len();
    server.probe.set_tracing(false);
    let (gen, out) = (&mut *load.gen, &mut *load.out);
    gen.digest = None;
    let heavy_s = seconds * HEAVY_SHARE / ROUNDS as f64;
    let bare: Vec<Window> = (0..ROUNDS)
        .map(|_| run_window(gen, load.planner, w.heavy_rps, heavy_s, load.origin))
        .collect();
    let calls = server.probe.calls();
    let segments: Vec<&Window> = sched.light.iter().chain(&sched.heavy).collect();

    // Output oracle over everything the traced part answered.
    let traced_records = &gen.records[..traced_end];
    let (execs, reordered) = replay::replay_native(w, &calls);
    let (joined, unjoined) = replay::join(traced_records, &execs);
    let verdict = replay::oracle(traced_records, &joined, unjoined);
    out.note(format!(
        "oracle: {} responses compared with the native replay, {} mismatches, {} unpaired",
        verdict.checked, verdict.mismatches, verdict.unjoined
    ));
    for e in &verdict.examples {
        out.note(format!("DEFECT: {e}"));
    }
    if reordered > 0 {
        out.note(format!(
            "DIVERGENCE: {reordered} logins claimed their session node before a lower lane of \
             their cohort, so they got other tokens than lane-order insertion gives \
             (the oracle replayed them in claim order)"
        ));
    }
    let mut correct = verdict.mismatches == 0 && verdict.unjoined == 0 && verdict.checked > 0;

    // What the traffic was: request-type shares against Table 2 and
    // response sizes, over the light and heavy segments.
    let mut by_type: BTreeMap<RequestType, (usize, u64)> = BTreeMap::new();
    let mut total = 0usize;
    for r in segments.iter().flat_map(|s| s.measured(&gen.records)) {
        let e = by_type.entry(r.ty).or_default();
        e.0 += 1;
        e.1 += u64::from(r.bytes);
        total += 1;
    }
    let bytes: u64 = by_type.values().map(|e| e.1).sum();
    out.note(format!(
        "mean response {:.0} B over {total} requests",
        bytes as f64 / total.max(1) as f64
    ));
    for (ty, (n, b)) in &by_type {
        out.note(format!(
            "{:<28} {:>6.2}% (Table 2: {:>5.2}%), mean {:>6.0} B",
            ty.file_name(),
            100.0 * *n as f64 / total.max(1) as f64,
            workload::table2_percent(*ty),
            *b as f64 / *n as f64
        ));
    }

    // Per-request layer split over the measured part of the segments.
    let (mut late, mut wait, mut ret) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for win in &segments {
        for (i, r) in gen.records[win.range.clone()].iter().enumerate() {
            if r.due < win.measured_from {
                continue;
            }
            attempted += 1;
            if !r.ok() {
                failed += 1;
            }
            correct &= !(r.done.is_finite() && r.status != 200 && r.status != 503);
            if r.on_time {
                late.push(r.sent - r.due);
            }
            if let (true, Some(&(ci, _))) = (r.ok(), joined.get(&(win.range.start + i))) {
                wait.push(calls[ci].start - r.due);
                ret.push(r.done - calls[ci].end);
            }
        }
    }
    let joined_n = wait.len();
    out.metric(
        "gen.late_ms.p99",
        quantile(&mut late, 0.99) * 1e3,
        "ms",
        late.len(),
    );
    out.metric(
        "net.wait_ms.p50",
        quantile(&mut wait, 0.50) * 1e3,
        "ms",
        joined_n,
    );
    out.metric(
        "net.wait_ms.p99",
        quantile(&mut wait, 0.99) * 1e3,
        "ms",
        joined_n,
    );
    out.metric(
        "net.return_ms.p50",
        quantile(&mut ret, 0.50) * 1e3,
        "ms",
        joined_n,
    );
    out.metric(
        "net.return_ms.p99",
        quantile(&mut ret, 0.99) * 1e3,
        "ms",
        joined_n,
    );

    let d = &sched.net;
    let cohorts = d.cohorts.max(1) as f64;
    let span: f64 = segments.iter().map(|s| s.end - s.start).sum();
    let n = d.cohorts as usize;
    out.metric("net.mean_fill", d.fill_sum / cohorts, "frac", n);
    out.metric(
        "net.timeout_launch_frac",
        d.timeout_launches as f64 / cohorts,
        "frac",
        n,
    );
    out.metric(
        "net.requests_per_launch",
        d.launched_requests as f64 / cohorts,
        "count",
        n,
    );
    out.metric("net.idle_polls_per_s", d.idle_polls as f64 / span, "1/s", 1);
    out.metric("net.reads_paused", d.reads_paused as f64, "count", 1);
    out.metric(
        "net.bytes_out_per_req",
        d.bytes_out as f64 / d.responses.max(1) as f64,
        "B",
        d.responses as usize,
    );

    // The banking layer, from the calls made during the segments.
    let in_windows: Vec<&layer::Call> = calls
        .iter()
        .filter(|c| {
            segments
                .iter()
                .any(|s| c.start >= s.start && c.end <= s.end)
        })
        .collect();
    let mut exec: Vec<f64> = in_windows.iter().map(|c| c.end - c.start).collect();
    let busy: f64 = exec.iter().sum();
    let reqs: usize = in_windows
        .iter()
        .flat_map(|c| &c.cohorts)
        .map(Vec::len)
        .sum();
    let cohort_n: usize = in_windows.iter().map(|c| c.cohorts.len()).sum();
    let device_s: f64 = in_windows.iter().map(|c| c.device_s).sum();
    out.metric(
        "banking.execute_ms.p50",
        quantile(&mut exec, 0.50) * 1e3,
        "ms",
        exec.len(),
    );
    out.metric(
        "banking.execute_ms.p99",
        quantile(&mut exec, 0.99) * 1e3,
        "ms",
        exec.len(),
    );
    out.metric(
        "banking.execute_us_per_req",
        busy / reqs.max(1) as f64 * 1e6,
        "us",
        reqs,
    );
    out.metric("banking.busy_frac", busy / span, "frac", exec.len());
    out.metric(
        "banking.cohorts_per_call",
        cohort_n as f64 / exec.len().max(1) as f64,
        "count",
        exec.len(),
    );
    out.metric(
        "banking.faults",
        in_windows.iter().map(|c| c.faults).sum::<u64>() as f64,
        "count",
        cohort_n,
    );
    out.metric(
        "banking.sessions_live",
        in_windows.last().map_or(0, |c| c.sessions_live) as f64,
        "count",
        1,
    );
    out.metric(
        "banking.logins_out_of_lane_order",
        reordered as f64,
        "count",
        verdict.checked,
    );

    // The SIMT layer: modelled device time next to host time, and the
    // kernels of the cohort shapes the run formed.
    let mut shapes: BTreeMap<(RequestType, usize), u64> = BTreeMap::new();
    for c in in_windows.iter().flat_map(|c| &c.cohorts) {
        if let Some(Some(first)) = c.first() {
            *shapes.entry((first.ty, c.len())).or_default() += 1;
        }
    }
    let simt = w.path == Path::Simt;
    let totals = if simt {
        replay::attribute_kernels(w, &shapes)
    } else {
        BTreeMap::new()
    };
    let replay_host: f64 = totals.values().map(|t| t.host_s).sum();
    let per_req = |x: f64| if simt { x } else { 0.0 };
    out.metric(
        "simt.device_us_per_req",
        per_req(device_s / reqs.max(1) as f64 * 1e6),
        "us",
        reqs,
    );
    out.metric(
        "simt.host_over_device",
        per_req(busy / device_s.max(f64::MIN_POSITIVE)),
        "ratio",
        cohort_n,
    );
    out.metric(
        "simt.hyperq_group_mean",
        hist_mean(&sched.hyperq),
        "count",
        sched.hyperq.count() as usize,
    );
    out.metric(
        "simt.kernel_coverage",
        per_req(replay_host / busy.max(f64::MIN_POSITIVE)),
        "frac",
        shapes.len(),
    );
    for name in kernel_names() {
        let t = totals.get(&name).cloned().unwrap_or_default();
        let launches = t.launches.round() as usize;
        let host_us = if t.launches > 0.0 {
            t.host_s / t.launches * 1e6
        } else {
            0.0
        };
        let gops = if t.host_s > 0.0 {
            t.lane_ops / t.host_s / 1e9
        } else {
            0.0
        };
        out.metric(
            &format!("simt.kernel.{name}.host_us"),
            host_us,
            "us",
            launches,
        );
        out.metric(
            &format!("simt.kernel.{name}.lane_gops"),
            gops,
            "Gop/s",
            launches,
        );
        if simt && t.launches > 0.0 {
            out.note(format!(
                "kernel {name:<34} {launches:>6} launches, host {host_us:>9.1} us, modelled {:>7.2} us, {gops:.3} G lane-ops/s",
                t.device_s / t.launches * 1e6
            ));
        }
    }

    let traced_p50 = segments_stats(&gen.records, &sched.heavy).part_p50;
    let bare_p50 = segments_stats(&gen.records, &bare).part_p50;
    out.metric(
        "trace.overhead_frac",
        traced_p50 / bare_p50 - 1.0,
        "frac",
        2,
    );
    Traced {
        correct,
        attempted,
        failed,
    }
}
