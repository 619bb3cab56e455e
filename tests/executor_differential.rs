//! Three-way executor differential: the scalar reference, the legacy
//! masked SIMT engine, and the pre-decoded warp-vectorized engine must be
//! bit-identical — memory images and (for the two SIMT engines) every
//! `KernelStats` counter — at workers {1, 2, 4} and sub-warp packing
//! widths {1, 2, 4}, on random lint-clean kernels and on the real banking
//! kernels, including wide-copy-eligible kernels and Budget-fault cases.
//!
//! This is the safety net under the interpreter fast paths: any divergence
//! between the convergent vector loops and the masked per-lane semantics,
//! any decode bug in `ExecPlan`, or any fused-gang or wide-copy shortcut
//! that isn't semantics-preserving, shows up here as a byte or counter
//! mismatch.

use proptest::prelude::*;

use rhythm_banking::backend::BankStore;
use rhythm_banking::genreq::RequestGenerator;
use rhythm_banking::kernels::Workload;
use rhythm_banking::layout::{CohortLayout, REQBUF_BYTES};
use rhythm_banking::session_array::SessionArrayHost;
use rhythm_banking::types::RequestType;
use rhythm_simt::exec::scalar::{execute_scalar, ScalarRun};
use rhythm_simt::exec::simt::{execute_simt_legacy_workers, execute_simt_workers};
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_verify::corpus::build_kernel;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const PACK_WIDTHS: [u32; 3] = [1, 2, 4];

proptest! {
    /// Random structured kernels: scalar lane-at-a-time execution is the
    /// semantic reference; both SIMT engines must reproduce its memory
    /// image exactly, and must agree with each other on every stats
    /// counter, at every worker count.
    #[test]
    fn random_kernels_three_way_identical(
        seed in any::<u32>(),
        steps in prop::collection::vec(any::<u8>(), 1..10),
        lane_sel in 0usize..3,
    ) {
        // 96 = three full warps; 77 adds a partial warp for mask paths.
        let lanes = [32u32, 77, 96][lane_sel];
        let program = build_kernel(seed, &steps);
        let mem_bytes = lanes as usize * 4;
        let pool = ConstPool::new();

        // Scalar reference.
        let mut reference = DeviceMemory::new(mem_bytes);
        let scalar_cfg = LaunchConfig::new(1, []);
        for id in 0..lanes {
            execute_scalar(&ScalarRun::new(&program, id), &scalar_cfg, &mut reference, &pool, None)
                .unwrap();
        }

        let cfg = LaunchConfig::new(lanes, []);
        let mut legacy_stats = None;
        for workers in WORKER_COUNTS {
            let mut mem_l = DeviceMemory::new(mem_bytes);
            let sl = execute_simt_legacy_workers(&program, &cfg, &mut mem_l, &pool, workers).unwrap();
            let mut mem_p = DeviceMemory::new(mem_bytes);
            let sp = execute_simt_workers(&program, &cfg, &mut mem_p, &pool, workers).unwrap();

            prop_assert_eq!(
                mem_l.as_bytes(), reference.as_bytes(),
                "legacy SIMT diverged from scalar at {} workers", workers
            );
            prop_assert_eq!(
                mem_p.as_bytes(), reference.as_bytes(),
                "pre-decoded SIMT diverged from scalar at {} workers", workers
            );
            prop_assert_eq!(
                &sp, &sl,
                "engine stats diverged at {} workers", workers
            );
            // Sub-warp packing is a scheduling decision, never a semantic
            // one: every pack width must reproduce the same bytes and the
            // same counters. (The executor further clamps via the plan's
            // static profile, e.g. atomics force width 1.)
            for pack in [2u32, 4] {
                let mut packed_cfg = cfg.clone();
                packed_cfg.pack = pack;
                let mut mem_k = DeviceMemory::new(mem_bytes);
                let sk =
                    execute_simt_workers(&program, &packed_cfg, &mut mem_k, &pool, workers).unwrap();
                prop_assert_eq!(
                    mem_k.as_bytes(), reference.as_bytes(),
                    "pack {} diverged from scalar at {} workers", pack, workers
                );
                prop_assert_eq!(
                    &sk, &sl,
                    "pack {} stats diverged at {} workers", pack, workers
                );
            }
            if let Some(first) = &legacy_stats {
                prop_assert_eq!(first, &sl, "stats not worker-count invariant");
            } else {
                legacy_stats = Some(sl);
            }
        }
    }
}

/// Wide-copy-eligible kernels under an instruction budget that trips
/// mid-copy: the fast path must take the byte-identical fallback, so the
/// Budget fault itself, the partial memory image, and (on success paths)
/// every counter agree with the legacy engine at every pack width.
#[test]
fn wide_copy_budget_fault_differential() {
    use rhythm_simt::ir::ProgramBuilder;

    for (lane_stride, elem_stride) in [(1u32, 64u32), (64, 1)] {
        let mut pool = ConstPool::new();
        let (off, len) = pool.intern_str("HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n");
        let mut b = ProgramBuilder::new("wide_copy_budget");
        let base = b.imm(0);
        let lane = b.lane_id();
        let ls = b.imm(lane_stride);
        let es = b.imm(elem_stride);
        let cur = b.cursor(base, lane, ls, es);
        b.write_const_str(&cur, off, len);
        b.halt();
        let program = b.build().unwrap();

        let lanes = 90u32;
        let size = 64 * lanes as usize;
        // Budgets straddling the copy loop: far below, mid-loop, and ample.
        for max_instructions in [40u64, 150, 100_000] {
            let mut cfg = LaunchConfig::new(lanes, []);
            cfg.max_instructions = max_instructions;
            let mut mem_legacy = DeviceMemory::new(size);
            let legacy = execute_simt_legacy_workers(&program, &cfg, &mut mem_legacy, &pool, 1);
            for workers in WORKER_COUNTS {
                for pack in PACK_WIDTHS {
                    let mut pcfg = cfg.clone();
                    pcfg.pack = pack;
                    let mut mem_plan = DeviceMemory::new(size);
                    let plan = execute_simt_workers(&program, &pcfg, &mut mem_plan, &pool, workers);
                    match (&legacy, &plan) {
                        (Ok(sl), Ok(sp)) => assert_eq!(
                            sp, sl,
                            "stats diverged (stride {lane_stride}/{elem_stride}, \
                             budget {max_instructions}, workers {workers}, pack {pack})"
                        ),
                        (Err(el), Err(ep)) => assert_eq!(
                            format!("{el}"),
                            format!("{ep}"),
                            "fault diverged (stride {lane_stride}/{elem_stride}, \
                             budget {max_instructions}, workers {workers}, pack {pack})"
                        ),
                        _ => panic!(
                            "fault disagreement (stride {lane_stride}/{elem_stride}, \
                             budget {max_instructions}, workers {workers}, pack {pack}): \
                             legacy {legacy:?} vs plan {plan:?}"
                        ),
                    }
                    // The memory image is fully specified on success. On a
                    // fault, warps *after* the faulting one may or may not
                    // have run depending on the schedule (parallel workers
                    // and gangs both run past a sibling's fault before the
                    // abort lands), so byte identity with the serial legacy
                    // engine is only contractual for the serial unpacked
                    // schedule.
                    if plan.is_ok() || (workers == 1 && pack == 1) {
                        assert_eq!(
                            mem_plan.as_bytes(),
                            mem_legacy.as_bytes(),
                            "memory diverged (stride {lane_stride}/{elem_stride}, \
                             budget {max_instructions}, workers {workers}, pack {pack})"
                        );
                    }
                }
            }
        }
    }
}

/// The production banking kernels, end to end: drive a full device-backend
/// cohort (parser → stages with backend rounds) through the legacy and
/// pre-decoded engines in lockstep, comparing the entire memory image and
/// the kernel stats after every single launch, for every request type,
/// worker count, and cohort shape, unpacked and at pack 4. The shapes are
/// one partial warp (the served shape, a gang of one), one full warp plus
/// a partial warp, and three warps (a gang of three). (The scalar leg of
/// the three-way proof for banking kernels is the existing
/// cohort-vs-native differential suite; warp reductions make a
/// lane-looped scalar run of a multi-lane cohort semantically different by
/// design.)
#[test]
fn banking_kernels_legacy_vs_predecoded_lockstep() {
    use rhythm_simt::ir::Op;

    const SALT: u32 = 0x5EED_0001;

    let workload = Workload::build();
    let store = BankStore::generate(256, 1);
    let store_img = store.serialize_device();

    for (cohort, workers) in [20u32, 48, 96]
        .into_iter()
        .flat_map(|c| WORKER_COUNTS.map(|w| (c, w)))
    {
        // Every generated request holds a session: room for all types.
        let capacity = 1024 * cohort.div_ceil(64);
        let mut sessions = SessionArrayHost::new(capacity, SALT);
        let mut generator = RequestGenerator::new(128, 0xD1FF + workers as u64);
        for ty in RequestType::ALL {
            let reqs = generator.uniform(ty, cohort as usize, &mut sessions);
            let layout = CohortLayout::new(
                cohort,
                ty.response_buffer_bytes(),
                capacity,
                SALT,
                store_img.len() as u32,
                true,
            );
            let mut mem = DeviceMemory::new(layout.total_bytes as usize);
            mem.load(layout.store_base, &store_img).unwrap();
            mem.load(layout.session_base, &sessions.to_device_bytes())
                .unwrap();
            for (lane, r) in reqs.iter().enumerate() {
                layout
                    .write_lane(
                        &mut mem,
                        layout.reqbuf_base,
                        REQBUF_BYTES,
                        lane as u32,
                        &r.raw,
                    )
                    .unwrap();
            }
            let cfg = LaunchConfig {
                lanes: cohort,
                params: layout.params(),
                local_bytes: 64,
                shared_bytes: 1024,
                ..Default::default()
            };

            // Same launch sequence as the cohort runner in device-backend
            // mode: parser, then each stage with a backend round between.
            let stages = workload.stages_of(ty);
            let mut sequence = vec![("parser", &workload.parser)];
            let n_backend = stages.len() - 1;
            for (i, stage) in stages.iter().enumerate() {
                sequence.push((stage.name(), stage));
                if i < n_backend {
                    sequence.push(("backend", &workload.backend));
                }
            }

            let mut mem_legacy = mem.clone();
            let mut mem_packed = mem.clone();
            let mut mem_plan = mem;
            let mut packed_cfg = cfg.clone();
            packed_cfg.pack = 4;
            for (name, kernel) in sequence {
                // Cross-warp `AtomicAdd` old values are schedule-dependent
                // at workers > 1 (see `execute_simt_workers`): the session
                // allocator in `login_response` hands out slots in whatever
                // order the host threads reach the counter, so two
                // independently scheduled runs can legitimately differ.
                // Only the serial schedule is contractual for atomic
                // kernels; every other kernel is compared at full fan-out.
                let kw = if kernel
                    .blocks()
                    .iter()
                    .any(|b| b.ops.iter().any(|o| matches!(o, Op::AtomicAdd { .. })))
                {
                    1
                } else {
                    workers
                };
                let sl =
                    execute_simt_legacy_workers(kernel, &cfg, &mut mem_legacy, &workload.pool, kw)
                        .unwrap_or_else(|e| panic!("{ty:?}/{name} legacy fault: {e}"));
                let sp = execute_simt_workers(kernel, &cfg, &mut mem_plan, &workload.pool, kw)
                    .unwrap_or_else(|e| panic!("{ty:?}/{name} pre-decoded fault: {e}"));
                let sk =
                    execute_simt_workers(kernel, &packed_cfg, &mut mem_packed, &workload.pool, kw)
                        .unwrap_or_else(|e| panic!("{ty:?}/{name} packed fault: {e}"));
                assert_eq!(
                    sp, sl,
                    "stats diverged on {ty:?}/{name} at {workers} workers, cohort {cohort}"
                );
                assert_eq!(
                    sk, sl,
                    "packed stats diverged on {ty:?}/{name} at {workers} workers, cohort {cohort}"
                );
                assert_eq!(
                    mem_plan.as_bytes(),
                    mem_legacy.as_bytes(),
                    "memory diverged on {ty:?}/{name} at {workers} workers, cohort {cohort}"
                );
                assert_eq!(
                    mem_packed.as_bytes(),
                    mem_legacy.as_bytes(),
                    "packed memory diverged on {ty:?}/{name} at {workers} workers, cohort {cohort}"
                );
            }

            // Keep the host session mirror in sync so later request types
            // generate against valid tokens.
            let sess_bytes = mem_plan
                .slice(
                    layout.session_base,
                    SessionArrayHost::device_bytes(capacity),
                )
                .unwrap();
            sessions = SessionArrayHost::from_device_bytes(sess_bytes, SALT);
        }
    }
}
