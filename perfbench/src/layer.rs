//! Measuring `rhythm-banking` from outside: a `CohortHandler` wrapper
//! that timestamps every `execute_many` call the reactor makes.
//!
//! While tracing is off the wrapper only forwards. While it is on, it
//! logs each call's start and end (on the generator's clock) and the
//! requests of every cohort in execution order, which is what the
//! per-layer split and the output oracle are built from.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rhythm_banking::native::BankingRequest;
use rhythm_banking::serve::{banking_request_from_http, ScalarHandler, SimtHandler};
use rhythm_http::HttpRequest;
use rhythm_net::CohortHandler;

/// State of the wrapped handler read after each traced call.
pub trait Inspect {
    /// Sessions live in the handler's session table.
    fn sessions_live(&self) -> u32;
    /// Cohorts that faulted so far.
    fn faults(&self) -> u64;
    /// Modelled device seconds so far (0 off the device).
    fn device_s(&self) -> f64;
}

impl Inspect for ScalarHandler {
    fn sessions_live(&self) -> u32 {
        self.sessions().len()
    }
    fn faults(&self) -> u64 {
        0
    }
    fn device_s(&self) -> f64 {
        0.0
    }
}

impl Inspect for SimtHandler {
    fn sessions_live(&self) -> u32 {
        self.sessions().len()
    }
    fn faults(&self) -> u64 {
        self.faults
    }
    fn device_s(&self) -> f64 {
        self.device_time_s
    }
}

/// One `execute_many` call.
#[derive(Clone, Debug)]
pub struct Call {
    /// Seconds since the run's origin.
    pub start: f64,
    pub end: f64,
    /// Each cohort's requests in lane order; `None` for a request that
    /// does not map to a Banking type.
    pub cohorts: Vec<Vec<Option<BankingRequest>>>,
    /// The session token each response of each cohort set, in lane order.
    pub sids: Vec<Vec<Option<u32>>>,
    /// Cohorts that faulted during the call.
    pub faults: u64,
    /// Modelled device seconds spent by the call.
    pub device_s: f64,
    /// Sessions live after the call.
    pub sessions_live: u32,
}

/// What the wrapper shares with the benchmark thread.
#[derive(Debug)]
pub struct Probe {
    origin: Instant,
    tracing: AtomicBool,
    calls: Mutex<Vec<Call>>,
}

impl Probe {
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Probe {
            origin,
            tracing: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Start or stop logging calls.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Every call logged so far, in execution order.
    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("call log poisoned").clone()
    }
}

/// The wrapper the server runs in place of the Banking handler.
#[derive(Debug)]
pub struct Layered<H> {
    inner: H,
    probe: Arc<Probe>,
}

impl<H> Layered<H> {
    pub fn new(inner: H, probe: &Arc<Probe>) -> Self {
        Layered {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<H: CohortHandler + Inspect> CohortHandler for Layered<H> {
    fn classify(&self, req: &HttpRequest) -> Option<u32> {
        self.inner.classify(req)
    }

    fn execute(&mut self, key: u32, requests: &[HttpRequest]) -> Vec<Vec<u8>> {
        self.inner.execute(key, requests)
    }

    fn execute_many(&mut self, cohorts: &[(u32, Vec<HttpRequest>)]) -> Vec<Vec<Vec<u8>>> {
        if !self.probe.tracing.load(Ordering::Relaxed) {
            return self.inner.execute_many(cohorts);
        }
        let (faults0, device0) = (self.inner.faults(), self.inner.device_s());
        let start = self.probe.origin.elapsed().as_secs_f64();
        let out = self.inner.execute_many(cohorts);
        let end = self.probe.origin.elapsed().as_secs_f64();
        let call = Call {
            start,
            end,
            cohorts: cohorts
                .iter()
                .map(|(_, reqs)| reqs.iter().map(banking_request_from_http).collect())
                .collect(),
            sids: out
                .iter()
                .map(|resps| resps.iter().map(|r| session_cookie(r)).collect())
                .collect(),
            faults: self.inner.faults() - faults0,
            device_s: self.inner.device_s() - device0,
            sessions_live: self.inner.sessions_live(),
        };
        self.probe
            .calls
            .lock()
            .expect("call log poisoned")
            .push(call);
        out
    }

    fn reject(&self, req: &HttpRequest) -> Vec<u8> {
        self.inner.reject(req)
    }

    fn key_name(&self, key: u32) -> String {
        self.inner.key_name(key)
    }
}

/// The token of a `Set-Cookie: SID=` header in a response's head.
pub fn session_cookie(resp: &[u8]) -> Option<u32> {
    const NEEDLE: &[u8] = b"Set-Cookie: SID=";
    let head = &resp[..resp.len().min(1024)];
    let at = head.windows(NEEDLE.len()).position(|w| w == NEEDLE)? + NEEDLE.len();
    let n = head[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&head[at..at + n]).ok()?.parse().ok()
}
