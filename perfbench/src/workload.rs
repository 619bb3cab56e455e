//! The three workloads and the seeded traffic they send.
//!
//! A workload fixes the serving path, the traffic mix, the SLO and the
//! offered rates. The rates are constants chosen from measurements at
//! the seed commit on a shared 2-core host whose speed fell 2-3x under
//! sustained load (see `perfbench/README.md`). `light` and `heavy` are
//! about 10% and 30% of the capacity found in the slow state, where a
//! request's latency is set mostly by cohort formation rather than by
//! how much CPU the host grants; the ladder is a geometric series of
//! rungs 5% apart around the capacity.

use std::time::Duration;

use rhythm_banking::runner::CohortOptions;

use crate::gen::{exact_digest, padding_digest, DigestFn};
use rhythm_banking::session_array::SessionArrayHost;
use rhythm_banking::types::{RequestType, TABLE2};

/// Bank customers in the store; virtual users are user ids `0..USERS`.
pub const USERS: u32 = 1024;
/// Session-table capacities. The server has no session expiry and
/// Table 2 has about 3.5 logins per logout, so a mix run leaks about one
/// session per five requests, and a full table refuses logins. The
/// `CohortOptions` default of 4096 fills within seconds at SIMT
/// capacity; the SIMT table is sized as `net_loadgen` sizes it. A scalar
/// mix run sends up to about a million requests; its table (host memory
/// only) is sized to stay under a fifth full.
const SIMT_SESSION_CAPACITY: u32 = 1 << 16;
const SCALAR_SESSION_CAPACITY: u32 = 1 << 20;

/// Which `CohortHandler` serves the cohorts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    /// `ScalarHandler`: `handle_native` per request on the reactor thread.
    Scalar,
    /// `SimtHandler` on a simulated GTX Titan.
    Simt,
}

/// What the virtual users ask for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    /// Logged-in `GET account_summary.php` only.
    Summary,
    /// Session traffic with Table 2 request-type weights.
    Mix,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub traffic: Traffic,
    pub slo: Duration,
    /// Offered rate of the light window, requests/s.
    pub light_rps: f64,
    /// Offered rate of the heavy window, requests/s.
    pub heavy_rps: f64,
    /// The middle rung of the ladder, requests/s: about the geometric
    /// mean of the capacities measured at the seed commit in the host's
    /// fast and slow periods.
    pub seed_capacity: f64,
    /// Cohort contexts in the reactor's pool (`None`: the `NetConfig`
    /// default of 8).
    pub pool_contexts: Option<u32>,
}

/// Ratio between consecutive ladder rungs.
pub const RUNG_STEP: f64 = 1.05;
/// Rungs on each side of the middle one: the ladder spans a third to
/// three times its middle rung, wide enough for the 3x drift in host
/// speed seen while it was built.
const HALF_RUNGS: i32 = 23;

impl Workload {
    /// Device options: the defaults but for the session capacity.
    pub fn cohort_options(&self) -> CohortOptions {
        CohortOptions {
            session_capacity: SIMT_SESSION_CAPACITY,
            ..CohortOptions::default()
        }
    }

    /// A fresh session table of the size this workload's handler uses.
    pub fn session_table(&self) -> SessionArrayHost {
        let capacity = match self.path {
            Path::Scalar => SCALAR_SESSION_CAPACITY,
            Path::Simt => SIMT_SESSION_CAPACITY,
        };
        SessionArrayHost::new(capacity, self.cohort_options().session_salt)
    }

    /// The oracle's comparison. The scalar path runs `handle_native`
    /// itself, so its responses must match the replay byte for byte; the
    /// device pads its pages, so SIMT responses are compared modulo
    /// padding.
    pub fn digest(&self) -> DigestFn {
        match self.path {
            Path::Scalar => exact_digest,
            Path::Simt => padding_digest,
        }
    }

    /// The rung rates, lowest first.
    pub fn rungs(&self) -> Vec<f64> {
        (-HALF_RUNGS..=HALF_RUNGS)
            .map(|k| (self.seed_capacity * RUNG_STEP.powi(k)).round())
            .collect()
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "summary-scalar",
            path: Path::Scalar,
            traffic: Traffic::Summary,
            slo: Duration::from_millis(20),
            light_rps: 2000.0,
            heavy_rps: 6000.0,
            seed_capacity: 60000.0,
            pool_contexts: None,
        },
        Workload {
            name: "mix-simt",
            path: Path::Simt,
            traffic: Traffic::Mix,
            slo: Duration::from_millis(50),
            light_rps: 40.0,
            heavy_rps: 120.0,
            seed_capacity: 500.0,
            pool_contexts: Some(16),
        },
        Workload {
            name: "mix-scalar",
            path: Path::Scalar,
            traffic: Traffic::Mix,
            slo: Duration::from_millis(20),
            light_rps: 5000.0,
            heavy_rps: 15000.0,
            seed_capacity: 32000.0,
            pool_contexts: Some(16),
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// SplitMix64: a small, seedable generator whose whole stream is fixed by
/// its seed, so the same `--seed` always yields the same arrivals.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` at 53-bit resolution.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo)) as u32
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Seconds after the window starts.
    pub due: f64,
    pub user: u32,
    pub ty: RequestType,
    /// The type-specific second parameter (`a=`), 0 when absent.
    pub arg: u32,
}

/// Generates arrivals window by window. It tracks, per user, whether the
/// user holds a session once every request already scheduled for it has
/// run, so a page that needs a session always goes to a user who has
/// one, and the request-type shares follow Table 2 exactly in
/// expectation.
#[derive(Debug)]
pub struct Planner {
    traffic: Traffic,
    rng: Rng,
    /// Users holding a session after their queued requests, dense.
    with_session: Vec<u32>,
    /// Position of each user in `with_session`.
    slot: Vec<Option<usize>>,
}

impl Planner {
    /// A planner whose users all hold a session (the warm-up logs every
    /// user in before the first window).
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        Planner {
            traffic,
            rng: Rng::new(seed),
            with_session: (0..USERS).collect(),
            slot: (0..USERS as usize).map(Some).collect(),
        }
    }

    fn gain_session(&mut self, user: u32) {
        if self.slot[user as usize].is_none() {
            self.slot[user as usize] = Some(self.with_session.len());
            self.with_session.push(user);
        }
    }

    fn lose_session(&mut self, user: u32) {
        if let Some(i) = self.slot[user as usize].take() {
            self.with_session.swap_remove(i);
            if let Some(&moved) = self.with_session.get(i) {
                self.slot[moved as usize] = Some(i);
            }
        }
    }

    fn sample_type(&mut self) -> RequestType {
        let x = self.rng.unit() * 100.0;
        let mut acc = 0.0;
        for info in &TABLE2 {
            acc += info.mix_percent;
            if x < acc {
                return info.ty;
            }
        }
        RequestType::Login
    }

    /// Poisson arrivals at `rate` for `seconds`.
    pub fn window(&mut self, rate: f64, seconds: f64) -> Vec<Arrival> {
        let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
        let mut t = self.rng.exp(1.0 / rate);
        while t < seconds {
            let mut ty = match self.traffic {
                Traffic::Summary => RequestType::AccountSummary,
                Traffic::Mix => self.sample_type(),
            };
            if !ty.is_login() && self.with_session.is_empty() {
                ty = RequestType::Login;
            }
            let user = if ty.is_login() {
                self.rng.range(0, USERS)
            } else {
                let i = self.rng.range(0, self.with_session.len() as u32);
                self.with_session[i as usize]
            };
            match ty {
                RequestType::Login => self.gain_session(user),
                RequestType::Logout => self.lose_session(user),
                _ => {}
            }
            let arg = match ty {
                RequestType::BillPay | RequestType::PostTransfer => self.rng.range(100, 500_000),
                RequestType::PlaceCheckOrder => self.rng.range(1, 6),
                RequestType::CheckDetailHtml => self.rng.range(1000, 9999),
                RequestType::PostPayee => self.rng.range(1, 100),
                _ => 0,
            };
            out.push(Arrival {
                due: t,
                user,
                ty,
                arg,
            });
            t += self.rng.exp(1.0 / rate);
        }
        out
    }
}

/// Table 2 share of a request type, percent.
pub fn table2_percent(ty: RequestType) -> f64 {
    TABLE2
        .iter()
        .find(|i| i.ty == ty)
        .map_or(0.0, |i| i.mix_percent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrivals() {
        let a = Planner::new(Traffic::Mix, 7).window(500.0, 2.0);
        let b = Planner::new(Traffic::Mix, 7).window(500.0, 2.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.due, x.user, x.ty, x.arg), (y.due, y.user, y.ty, y.arg));
        }
    }

    #[test]
    fn pages_only_go_to_users_with_sessions() {
        let mut p = Planner::new(Traffic::Mix, 3);
        let mut live: Vec<bool> = vec![true; USERS as usize];
        for a in p.window(2000.0, 5.0) {
            match a.ty {
                RequestType::Login => live[a.user as usize] = true,
                RequestType::Logout => {
                    assert!(live[a.user as usize]);
                    live[a.user as usize] = false;
                }
                _ => assert!(live[a.user as usize], "{:?} without a session", a.ty),
            }
        }
    }
}
