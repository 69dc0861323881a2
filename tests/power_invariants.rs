//! Property-based invariants of the power-analysis layer.

use ahbpower::{
    hamming, AhbPowerModel, AnalysisConfig, BlockEnergy, GlobalProbe, InlineProbe, PowerFsm,
    PowerProbe, PowerSession, PowerTrace, SubBlock, TechParams,
};
use ahbpower_ahb::{pack_wires, BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId};
use proptest::prelude::*;

fn arb_snapshot() -> impl Strategy<Value = BusSnapshot> {
    (
        any::<u32>(),
        0u8..4,
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
        0u8..3,
        any::<bool>(),
        0u32..8,
    )
        .prop_map(
            |(haddr, trans, hwrite, hwdata, hrdata, master, hready, hbusreq)| {
                let htrans = match trans {
                    0 => HTrans::Idle,
                    1 => HTrans::Busy,
                    2 => HTrans::NonSeq,
                    _ => HTrans::Seq,
                };
                BusSnapshot {
                    cycle: 0,
                    haddr,
                    htrans,
                    hwrite,
                    hsize: HSize::Word,
                    hburst: HBurst::Single,
                    hwdata,
                    hrdata,
                    hready,
                    hresp: HResp::Okay,
                    hmaster: MasterId(master),
                    hmastlock: false,
                    hbusreq,
                    hgrant: pack_wires([master == 0, master == 1, master == 2]),
                    hsel: pack_wires([haddr % 3 == 0, haddr % 3 == 1, haddr % 3 == 2]),
                }
            },
        )
}

const TRANS: [HTrans; 4] = [HTrans::Idle, HTrans::Busy, HTrans::NonSeq, HTrans::Seq];
const SIZES: [HSize; 3] = [HSize::Byte, HSize::Half, HSize::Word];
const BURSTS: [HBurst; 8] = [
    HBurst::Single,
    HBurst::Incr,
    HBurst::Wrap4,
    HBurst::Incr4,
    HBurst::Wrap8,
    HBurst::Incr8,
    HBurst::Wrap16,
    HBurst::Incr16,
];
const RESPS: [HResp; 4] = [HResp::Okay, HResp::Error, HResp::Retry, HResp::Split];

/// Every wire over its full range: any address, data, request and select
/// word, every control and response encoding, any bus owner.
fn arb_wires() -> impl Strategy<Value = BusSnapshot> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (0usize..4, any::<bool>(), 0usize..3, 0usize..8),
        (0usize..4, any::<bool>(), any::<u8>(), any::<u32>()),
    )
        .prop_map(
            |(
                (haddr, hwdata, hrdata, hbusreq),
                (trans, hwrite, size, burst),
                (resp, hready, master, hsel),
            )| BusSnapshot {
                cycle: 0,
                haddr,
                htrans: TRANS[trans],
                hwrite,
                hsize: SIZES[size],
                hburst: BURSTS[burst],
                hwdata,
                hrdata,
                hready,
                hresp: RESPS[resp],
                hmaster: MasterId(master),
                hmastlock: false,
                hbusreq,
                hgrant: 0,
                hsel,
            },
        )
}

/// All-low (`high == false`) or all-high wires: between the two, every
/// activity field reaches its maximum (address HD 32, M2S HD 72 — HSIZE
/// has three encodings, so control HD peaks at 8 — S2M HD 35, request
/// HD 32) and both select flags are set.
fn extreme(high: bool) -> BusSnapshot {
    let word = if high { u32::MAX } else { 0 };
    BusSnapshot {
        cycle: 0,
        haddr: word,
        htrans: if high { HTrans::Seq } else { HTrans::Idle },
        hwrite: high,
        hsize: if high { HSize::Word } else { HSize::Half },
        hburst: if high { HBurst::Incr16 } else { HBurst::Single },
        hwdata: word,
        hrdata: word,
        hready: high,
        hresp: if high { HResp::Split } else { HResp::Okay },
        hmaster: MasterId(u8::from(high)),
        hmastlock: false,
        hbusreq: word,
        hgrant: 0,
        hsel: word,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_energy_is_finite_and_nonnegative(
        a in arb_snapshot(),
        b in arb_snapshot(),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let e = model.cycle_energy(&a, &b);
        for v in [e.dec, e.m2s, e.s2m, e.arb, e.total()] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn cycle_energy_is_zero_hd_symmetric(
        a in arb_snapshot(),
        b in arb_snapshot(),
    ) {
        // Hamming distances are symmetric, and so is every model term that
        // depends only on them. The handover/select indicators are also
        // symmetric (inequality). Hence E(a->b) == E(b->a).
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let ab = model.cycle_energy(&a, &b).total();
        let ba = model.cycle_energy(&b, &a).total();
        prop_assert!((ab - ba).abs() <= 1e-12 * ab.max(1.0));
    }

    #[test]
    fn energy_is_monotone_in_wdata_bits(
        base in arb_snapshot(),
        word in any::<u32>(),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let mut few = base;
        few.hwdata = base.hwdata ^ 1; // one bit flipped
        let mut many = base;
        many.hwdata = base.hwdata ^ (word | 1); // at least one bit flipped
        let e_few = model.cycle_energy(&base, &few).m2s;
        let e_many = model.cycle_energy(&base, &many).m2s;
        let hd_few = hamming(u64::from(base.hwdata), u64::from(few.hwdata));
        let hd_many = hamming(u64::from(base.hwdata), u64::from(many.hwdata));
        if hd_many >= hd_few {
            prop_assert!(e_many >= e_few - 1e-18);
        } else {
            prop_assert!(e_few >= e_many - 1e-18);
        }
    }

    #[test]
    fn global_probe_matches_inline_on_any_trace(
        snaps in prop::collection::vec(arb_snapshot(), 2..40),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let mut inline = InlineProbe::new(model.clone());
        let mut global = GlobalProbe::new(model);
        for s in &snaps {
            inline.observe(s);
            global.observe(s);
        }
        let a = inline.total_energy();
        let b = global.total_energy();
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1e-18), "{a} vs {b}");
    }

    #[test]
    fn trace_energy_equals_sum_of_inputs(
        energies in prop::collection::vec(0.0f64..1e-9, 1..100),
        window in 1u64..20,
    ) {
        let mut trace = PowerTrace::new(window, 100e6);
        let mut total_in = 0.0;
        for &e in &energies {
            trace.push(BlockEnergy {
                dec: e * 0.1,
                m2s: e * 0.4,
                s2m: e * 0.3,
                arb: e * 0.2,
            });
            total_in += e;
        }
        trace.finish();
        let total_out: f64 = trace
            .points()
            .iter()
            .map(|p| p.total_w)
            .zip(window_durations(&trace, energies.len() as u64, window))
            .map(|(w, dt)| w * dt)
            .sum();
        prop_assert!(
            (total_in - total_out).abs() <= 1e-9 * total_in.max(1e-18),
            "{total_in} vs {total_out}"
        );
    }

    #[test]
    fn live_kernel_matches_reference_energy_bit_for_bit(
        steps in prop::collection::vec((arb_wires(), 0u8..4), 1..40),
        scale_at in 0usize..40,
        block in 0usize..4,
        factor in 0.25f64..4.0,
    ) {
        // Each step is fresh wires, a repeat of the previous cycle, or one
        // of the two extremes; the stream always ends low -> high.
        let mut stream: Vec<BusSnapshot> = Vec::new();
        for (fresh, how) in steps {
            let cur = match (stream.last(), how) {
                (Some(&prev), 1) => prev,
                (_, 2) => extreme(false),
                (_, 3) => extreme(true),
                _ => fresh,
            };
            stream.push(cur);
        }
        stream.extend([extreme(false), extreme(true)]);
        let mut reference = AhbPowerModel::new(3, 3, &TechParams::default());
        let mut fsm = PowerFsm::new(reference.clone());
        for (k, cur) in stream.iter().enumerate() {
            if k == scale_at {
                // The FSM must rebuild its tables mid-stream.
                fsm.scale_block(SubBlock::ALL[block], factor);
                reference.scale_block(SubBlock::ALL[block], factor);
            }
            let got = fsm.observe(cur).energy;
            // Cycle 0 has no predecessor and books exactly +0.0.
            let want = match k {
                0 => BlockEnergy::default(),
                _ => reference.cycle_energy(&stream[k - 1], cur),
            };
            for (g, w) in [(got.dec, want.dec), (got.m2s, want.m2s), (got.s2m, want.s2m), (got.arb, want.arb)] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "cycle {}: {:?} vs {:?}", k, got, want);
            }
        }
    }

    #[test]
    fn hamming_properties(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(hamming(a, a), 0);
        prop_assert_eq!(hamming(a, b), hamming(b, a));
        // Triangle inequality over the hypercube metric.
        prop_assert!(hamming(a, c) <= hamming(a, b) + hamming(b, c));
    }
}

/// Durations of each emitted window (the last may be partial).
fn window_durations(trace: &PowerTrace, n: u64, window: u64) -> Vec<f64> {
    let full = (n / window) as usize;
    let mut out = vec![window as f64 / 100e6; full];
    let rem = n % window;
    if rem > 0 {
        out.push(rem as f64 / 100e6);
    }
    assert_eq!(out.len(), trace.points().len());
    out
}

#[test]
fn ledger_and_blocks_account_identically_on_real_traffic() {
    let cfg = AnalysisConfig::paper_testbench();
    let mut bus = ahbpower_workloads::PaperTestbench::sized_for(10_000, 9)
        .build()
        .expect("builds");
    let mut session = PowerSession::new(&cfg);
    session.run(&mut bus, 10_000);
    let a = session.ledger().total_energy();
    let b = session.blocks().totals().total();
    assert!(a > 0.0);
    assert!((a - b).abs() < 1e-12 * a);
    assert_eq!(session.ledger().total_count(), 10_000);
    assert_eq!(session.blocks().cycles(), 10_000);
}
