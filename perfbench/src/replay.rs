//! Offline checks run after the traced windows: the output oracle and
//! the per-kernel attribution.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use rhythm_banking::backend::BankStore;
use rhythm_banking::genreq::RequestGenerator;
use rhythm_banking::kernels::Workload as Kernels;
use rhythm_banking::native::{handle_native, BankingRequest};
use rhythm_banking::runner::run_cohort_traced;
use rhythm_banking::session_array::{hash_userid, SessionArrayHost};
use rhythm_banking::types::RequestType;
use rhythm_obs::{ArgValue, Clock, Recorder};
use rhythm_simt::gpu::Gpu;

use crate::gen::Record;
use crate::layer::Call;
use crate::workload::{Workload, USERS};

/// Statuses the reactor answers itself, without running the handler.
pub fn server_generated(status: u16) -> bool {
    matches!(status, 400 | 404 | 413 | 503)
}

/// Outcome of the output oracle.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Responses compared.
    pub checked: usize,
    /// Responses that differ from the native replay (program defects).
    pub mismatches: usize,
    /// Requests that could not be paired with an execution.
    pub unjoined: usize,
    /// A few mismatches, for the report.
    pub examples: Vec<String>,
}

/// For each user, the executions of that user's requests in the order
/// the handler ran them, as `(call index, native response digest)`.
pub type Executions = HashMap<u32, Vec<(usize, u64)>>;

/// Replay every cohort of `calls`, in execution order, through
/// `handle_native` on a fresh store and session table. `calls` must
/// cover the server's whole life, from its first request. Also returns
/// how many logins took effect out of lane order (see [`replay_cohort`]).
pub fn replay_native(w: &Workload, calls: &[Call]) -> (Executions, usize) {
    let store = BankStore::generate(USERS, 1);
    let mut sessions = w.session_table();
    let digest = w.digest();
    let mut out: Executions = HashMap::new();
    let mut reordered = 0;
    for (ci, call) in calls.iter().enumerate() {
        for (cohort, sids) in call.cohorts.iter().zip(&call.sids) {
            let (resps, moved) = replay_cohort(cohort, sids, &store, &mut sessions);
            reordered += moved;
            for (req, resp) in cohort.iter().zip(&resps) {
                if let (Some(req), Some(resp)) = (req, resp) {
                    out.entry(req.userid())
                        .or_default()
                        .push((ci, digest(resp)));
                }
            }
        }
    }
    (out, reordered)
}

/// Run one cohort through `handle_native` in the order its requests took
/// effect, and return its responses in lane order together with the
/// number of lanes that took effect before a lower lane.
///
/// That order is lane order, except in a cohort of logins on the device:
/// there every lane probes the session table at once and claims a node
/// with an atomic, so a lane whose probe is short can claim before a
/// lower lane whose probe is long. The claims still form a sequence of
/// ordinary insertions. Each step replays the lowest pending lane whose
/// served token (`sids`) is the first free node on its user's probe path
/// now; when no lane is, the rest run in lane order, so a token that no
/// sequence of insertions gives shows as a mismatch.
pub fn replay_cohort(
    cohort: &[Option<BankingRequest>],
    sids: &[Option<u32>],
    store: &BankStore,
    sessions: &mut SessionArrayHost,
) -> (Vec<Option<Vec<u8>>>, usize) {
    let logins = cohort
        .iter()
        .all(|r| r.as_ref().is_some_and(|r| r.ty == RequestType::Login));
    let mut resps = vec![None; cohort.len()];
    let mut pending: Vec<usize> = (0..cohort.len()).collect();
    let mut moved = 0;
    while !pending.is_empty() {
        let pick = if logins {
            pending
                .iter()
                .position(|&lane| {
                    let user = cohort[lane].as_ref().map_or(0, BankingRequest::userid);
                    sids.get(lane)
                        .copied()
                        .flatten()
                        .is_none_or(|sid| first_free(sessions, user) == Some(sid ^ sessions.salt()))
                })
                .unwrap_or(0)
        } else {
            0
        };
        moved += usize::from(pick != 0);
        let lane = pending.remove(pick);
        resps[lane] = cohort[lane]
            .as_ref()
            .map(|req| handle_native(req, store, sessions));
    }
    (resps, moved)
}

/// The node a login of `user` would claim now: the first free node on
/// the linear probe from `hash(user)`.
fn first_free(sessions: &SessionArrayHost, user: u32) -> Option<u32> {
    let cap = sessions.capacity();
    let start = hash_userid(user) % cap;
    (0..cap)
        .map(|k| (start + k) % cap)
        .find(|&node| sessions.lookup(node ^ sessions.salt()).is_none())
}

/// Pair each client record that reached the handler with its
/// execution: a user's k-th such record is the user's k-th execution,
/// because a user has at most one request outstanding. Returns, per
/// record index, the call that executed it.
pub fn join(records: &[Record], execs: &Executions) -> (HashMap<usize, (usize, u64)>, usize) {
    let mut by_user: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.done.is_finite() && !server_generated(r.status) {
            by_user.entry(r.user).or_default().push(i);
        }
    }
    let mut joined = HashMap::new();
    let mut unjoined = 0;
    for (user, mut idx) in by_user {
        idx.sort_by_key(|&i| records[i].user_seq);
        let ex = execs.get(&user).map_or(&[][..], Vec::as_slice);
        if ex.len() != idx.len() {
            unjoined += idx.len().abs_diff(ex.len());
        }
        for (&i, &e) in idx.iter().zip(ex) {
            joined.insert(i, e);
        }
    }
    (joined, unjoined)
}

/// Compare every joined response with its native replay.
pub fn oracle(
    records: &[Record],
    joined: &HashMap<usize, (usize, u64)>,
    unjoined: usize,
) -> Verdict {
    let mut v = Verdict {
        unjoined,
        ..Verdict::default()
    };
    let mut keys: Vec<_> = joined.keys().copied().collect();
    keys.sort_unstable();
    for i in keys {
        let (_, native) = joined[&i];
        let r = &records[i];
        v.checked += 1;
        if r.digest != native {
            v.mismatches += 1;
            if v.examples.len() < 5 {
                v.examples.push(format!(
                    "user {} request {} ({}) status {}: response differs from native replay",
                    r.user,
                    r.user_seq,
                    r.ty.file_name(),
                    r.status
                ));
            }
        }
    }
    v
}

/// A recorder keeping only the per-kernel wall-time spans.
#[derive(Debug)]
struct KernelSpans {
    origin: Instant,
    spans: Mutex<Vec<(String, f64)>>,
}

impl Recorder for KernelSpans {
    fn enabled(&self) -> bool {
        true
    }
    fn span(
        &self,
        _: Clock,
        track: &str,
        name: &str,
        _: f64,
        dur_us: f64,
        _: &[(&str, ArgValue<'_>)],
    ) {
        if track == "simt:kernel" {
            self.spans
                .lock()
                .expect("span log poisoned")
                .push((name.to_string(), dur_us));
        }
    }
    fn begin(&self, _: Clock, _: &str, _: &str, _: f64, _: &[(&str, ArgValue<'_>)]) {}
    fn end(&self, _: Clock, _: &str, _: f64) {}
    fn instant(&self, _: Clock, _: &str, _: &str, _: f64, _: &[(&str, ArgValue<'_>)]) {}
    fn counter(&self, _: Clock, _: &str, _: &str, _: f64, _: f64) {}
    fn sample(&self, _: &str, _: f64) {}
    fn wall_now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

/// Per-kernel totals over a replayed cohort histogram.
#[derive(Debug, Default, Clone)]
pub struct KernelTotals {
    pub launches: f64,
    pub host_s: f64,
    pub device_s: f64,
    pub lane_ops: f64,
}

/// Replay one cohort of each `(type, size)` shape the traced run formed
/// through `run_cohort_traced`, and weight each kernel's host time,
/// modelled device time and lane operations by how often the shape ran.
pub fn attribute_kernels(
    w: &Workload,
    shapes: &BTreeMap<(RequestType, usize), u64>,
) -> BTreeMap<String, KernelTotals> {
    let kernels = Kernels::build();
    let gpu = Gpu::new(rhythm_simt::gpu::GpuConfig::gtx_titan());
    let opts = w.cohort_options();
    let store = BankStore::generate(USERS, 1);
    let mut totals: BTreeMap<String, KernelTotals> = BTreeMap::new();
    for (&(ty, size), &count) in shapes {
        let mut sessions = w.session_table();
        let reqs = RequestGenerator::new(USERS, size as u64).uniform(ty, size, &mut sessions);
        let rec = KernelSpans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        };
        let result = run_cohort_traced(&kernels, &store, &mut sessions, &reqs, &gpu, &opts, &rec)
            .expect("replayed cohort runs");
        let spans = rec.spans.into_inner().expect("span log poisoned");
        assert_eq!(spans.len(), result.launches.len(), "one span per launch");
        let w = count as f64;
        for ((name, dur_us), (_, launch)) in spans.iter().zip(&result.launches) {
            let t = totals.entry(name.clone()).or_default();
            t.launches += w;
            t.host_s += w * dur_us * 1e-6;
            t.device_s += w * launch.time_s;
            t.lane_ops += w * launch.stats.lane_instructions as f64;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_banking::genreq::raw_http;
    use rhythm_banking::genreq::GeneratedRequest;
    use rhythm_banking::runner::run_cohorts_hyperq;
    use rhythm_simt::gpu::GpuConfig;

    use crate::gen::padding_digest;

    /// A cohort's requests and the responses the device gave them.
    type DeviceCohort = (Vec<GeneratedRequest>, Vec<Vec<u8>>);

    /// Twenty 32-lane login cohorts run on the device in a session table
    /// as crowded as a long mix run leaves it. Returns the store, the
    /// table before the first cohort, and each cohort with the responses
    /// the device gave.
    fn crowded_device_logins() -> (BankStore, SessionArrayHost, Vec<DeviceCohort>) {
        let w = crate::workload::by_name("mix-simt").expect("workload");
        let kernels = Kernels::build();
        let store = BankStore::generate(USERS, 1);
        let mut device = w.session_table();
        for i in 0..20_000 {
            device.insert(i % USERS).expect("room for the session");
        }
        let before = device.clone();
        let gpu = Gpu::new(GpuConfig::gtx_titan());
        let mut cohorts = Vec::new();
        for c in 0..20u32 {
            let cohort: Vec<GeneratedRequest> = (0..32)
                .map(|k| {
                    let params = [(c * 32 + k) % USERS, 0, 0, 0];
                    GeneratedRequest {
                        ty: RequestType::Login,
                        token: 0,
                        params,
                        raw: raw_http(RequestType::Login, 0, &params),
                    }
                })
                .collect();
            let out = run_cohorts_hyperq(
                &kernels,
                &store,
                &mut device,
                std::slice::from_ref(&cohort),
                &gpu,
                &w.cohort_options(),
            );
            let result = out.into_iter().next().expect("one cohort");
            let responses = result.expect("login cohort runs").responses;
            cohorts.push((cohort, responses));
        }
        (store, before, cohorts)
    }

    /// Device logins against `handle_native` run in lane order. The
    /// session-array docs and `tests/dispatch_grouping.rs` say the two
    /// assign the same tokens; in a crowded table, lanes that probe in
    /// parallel claim nodes out of lane order, so some users get another
    /// token than lane-order insertion gives them.
    #[test]
    #[ignore = "fails: device logins claim session nodes out of lane order"]
    fn device_logins_match_native_in_a_crowded_table() {
        let (store, mut native, cohorts) = crowded_device_logins();
        let mut differ = 0;
        for (cohort, responses) in &cohorts {
            for (req, resp) in cohort.iter().zip(responses) {
                let want = handle_native(&req.banking_request(), &store, &mut native);
                differ += usize::from(padding_digest(resp) != padding_digest(&want));
            }
        }
        assert_eq!(differ, 0, "{differ} of 640 logins differ from native");
    }

    /// The same device logins agree byte for byte with `handle_native`
    /// once each cohort is replayed in the order its lanes claimed their
    /// nodes, which is what the output oracle does. The table is crowded
    /// enough that some lanes do claim out of lane order.
    #[test]
    fn device_logins_match_native_in_claim_order() {
        let (store, mut native, cohorts) = crowded_device_logins();
        let (mut differ, mut moved) = (0, 0);
        for (cohort, responses) in &cohorts {
            let reqs: Vec<_> = cohort.iter().map(|r| Some(r.banking_request())).collect();
            let sids: Vec<_> = responses
                .iter()
                .map(|r| crate::layer::session_cookie(r))
                .collect();
            assert!(sids.iter().all(Option::is_some), "every login sets a token");
            let (want, m) = replay_cohort(&reqs, &sids, &store, &mut native);
            moved += m;
            for (resp, want) in responses.iter().zip(&want) {
                let want = want.as_deref().expect("a native response");
                differ += usize::from(padding_digest(resp) != padding_digest(want));
            }
        }
        assert_eq!(differ, 0, "{differ} of 640 logins differ from native");
        assert!(moved > 0, "no login claimed out of lane order");
    }

    /// A token that no sequence of insertions gives is a mismatch: two
    /// lanes served the same node, and the replay cannot reorder its way
    /// round it.
    #[test]
    fn a_duplicated_token_is_not_reordered_away() {
        let w = crate::workload::by_name("mix-scalar").expect("workload");
        let store = BankStore::generate(USERS, 1);
        let mut table = w.session_table();
        let sid = first_free(&table, 3).expect("free node") ^ table.salt();
        let reqs = [3, 4].map(|u| Some(BankingRequest::new(RequestType::Login, 0, [u, 0, 0, 0])));
        let (resps, _) = replay_cohort(&reqs, &[Some(sid), Some(sid)], &store, &mut table);
        let got: Vec<_> = resps
            .iter()
            .map(|r| crate::layer::session_cookie(r.as_deref().expect("response")))
            .collect();
        assert_eq!(got[0], Some(sid));
        assert_ne!(
            got[1],
            Some(sid),
            "the second lane cannot get the same node"
        );
    }
}
