//! DFI outcome fixture: pins the raw outcome of deterministic fault
//! injections across every built-in workload.
//!
//! The session goldens only reach the earliest participation sites of their
//! target objects, because the DFI budget is spent in site order.  This
//! fixture instead injects a seeded population spread over the *whole*
//! trace of each workload (the eight Table-1 benchmarks plus the MM and PF
//! case studies): one fault per equal-width stratum of dynamic ids,
//! rotating through all four [`FaultTarget`]s, with single-bit and
//! multi-bit masks.  A targeted trap and a targeted timeout join the
//! population when the seeded draw reaches neither.  For the golden run and
//! every fault it records the
//! status text, the step count, the return value's bits, and an FNV-1a
//! hash over every global's final bits, so any change to what the
//! interpreter computes — on any path, including crashes and timeouts —
//! fails here.
//!
//! The fault population is drawn from the traced run and stored in the
//! fixture, so checking replays only the recorded faults.  To regenerate
//! after an *intentional* change to the workloads or the interpreter:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test dfi_outcomes
//! ```

use moard::inject::DeterministicInjector;
use moard::ir::BinOp;
use moard::json::Json;
use moard::vm::{
    ExecOutcome, ExecStatus, FaultSpec, FaultTarget, OutcomeClass, Trace, TraceOp, TraceRecord,
    ValueSource, Vm,
};
use moard::workloads::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded faults per workload.
const FAULTS_PER_WORKLOAD: u64 = 24;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dfi_outcomes.json")
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex(v: u64) -> Json {
    Json::from(format!("0x{v:016x}"))
}

/// The recorded view of one execution.
fn outcome_json(outcome: &ExecOutcome) -> Vec<(&'static str, Json)> {
    let globals = fnv1a(outcome.globals.iter().flat_map(|(name, vals)| {
        name.bytes()
            .chain(vals.iter().flat_map(|v| v.to_bits().to_le_bytes()))
            .collect::<Vec<u8>>()
    }));
    vec![
        ("status", Json::from(outcome.status.to_string())),
        ("steps", Json::from(outcome.steps)),
        (
            "return_bits",
            outcome
                .return_value
                .map_or(Json::Null, |v| hex(v.to_bits())),
        ),
        ("globals_fnv1a", hex(globals)),
    ]
}

fn parse_target(text: &str) -> FaultTarget {
    match text {
        "load-value" => FaultTarget::LoadValue,
        "store-dest" => FaultTarget::StoreDest,
        "result" => FaultTarget::Result,
        _ => {
            let slot = text
                .strip_prefix("operand[")
                .and_then(|s| s.strip_suffix(']'))
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unknown fault target `{text}`"));
            FaultTarget::Operand(slot)
        }
    }
}

fn parse_hex(text: &str) -> u64 {
    u64::from_str_radix(text.trim_start_matches("0x"), 16)
        .unwrap_or_else(|e| panic!("bad hex `{text}`: {e}"))
}

/// Every injectable value of one traced operation, with its bit-width mask,
/// in the interpreter's operand-slot order (loads consume their address as
/// slot 0; stores consume the value, then the address).
fn slots(record: &TraceRecord) -> Vec<(FaultTarget, u64)> {
    let ptr = u64::MAX;
    let mut out = Vec::new();
    match &record.op {
        TraceOp::Load { result, .. } => {
            out.push((FaultTarget::Operand(0), ptr));
            out.push((FaultTarget::LoadValue, result.width_mask()));
        }
        TraceOp::Store { value, .. } => {
            out.push((FaultTarget::Operand(0), value.value.width_mask()));
            out.push((FaultTarget::Operand(1), ptr));
            out.push((FaultTarget::StoreDest, value.value.width_mask()));
        }
        _ => {
            for (i, v) in record.operands().iter().enumerate() {
                out.push((FaultTarget::Operand(i), v.value.width_mask()));
            }
        }
    }
    if let Some(r) = record.result() {
        out.push((FaultTarget::Result, r.width_mask()));
    }
    out
}

fn kind_of(target: FaultTarget) -> u64 {
    match target {
        FaultTarget::Operand(_) => 0,
        FaultTarget::Result => 1,
        FaultTarget::LoadValue => 2,
        FaultTarget::StoreDest => 3,
    }
}

/// A mask within `width`: single-bit for most strata, an adjacent
/// double-bit burst or three scattered bits for the rest.
fn draw_mask(rng: &mut StdRng, stratum: u64, width: u64) -> u64 {
    let bits = 64 - width.leading_zeros() as u64;
    let bit = |rng: &mut StdRng| 1u64 << rng.gen_range(0..bits);
    let mask = match stratum % 6 {
        2 if bits >= 2 => 0b11u64 << rng.gen_range(0..bits - 1),
        5 => bit(rng) | bit(rng) | bit(rng),
        _ => bit(rng),
    };
    mask & width
}

fn traced(injector: &DeterministicInjector) -> Trace {
    Vm::new(injector.module(), injector.vm_config().clone())
        .expect("module loads")
        .execute_traced()
        .1
}

/// The seeded population of one workload: one fault per stratum of the
/// trace, the stratum's preferred target kind taken from the first record
/// at or after the drawn id that offers it (any target, if none does).
fn draw_faults(name: &str, trace: &Trace) -> Vec<FaultSpec> {
    let len = trace.len() as u64;
    let mut rng = StdRng::seed_from_u64(fnv1a(name.bytes()));
    let mut faults = Vec::new();
    for k in 0..FAULTS_PER_WORKLOAD {
        let (lo, hi) = (
            k * len / FAULTS_PER_WORKLOAD,
            (k + 1) * len / FAULTS_PER_WORKLOAD,
        );
        let drawn = rng.gen_range(lo..hi);
        let first_offering = |wanted: &dyn Fn(FaultTarget) -> bool| {
            (drawn..hi).find_map(|id| {
                let rec = trace.record(id).expect("id within the trace");
                let offered: Vec<_> = slots(rec).into_iter().filter(|(t, _)| wanted(*t)).collect();
                (!offered.is_empty()).then_some((id, offered))
            })
        };
        let (id, offered) = first_offering(&|t| kind_of(t) == k % 4)
            .or_else(|| first_offering(&|_| true))
            .expect("every stratum holds an injectable record");
        let (target, width) = offered[rng.gen_range(0..offered.len())];
        let mask = draw_mask(&mut rng, k, width);
        faults.push(FaultSpec::masked(id, target, mask));
    }
    faults
}

/// A targeted trap: the divisor of the first integer division at or after
/// the middle of the trace, flipped to zero.
fn zeroed_divisor(trace: &Trace) -> Option<FaultSpec> {
    let mid = trace.len() as u64 / 2;
    trace
        .iter()
        .skip(mid as usize)
        .find_map(|rec| match &rec.op {
            TraceOp::Bin { op, rhs, .. }
                if matches!(op, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
                    && rhs.value.to_bits() != 0 =>
            {
                Some(FaultSpec::masked(
                    rec.id,
                    FaultTarget::Operand(1),
                    rhs.value.to_bits(),
                ))
            }
            _ => None,
        })
}

/// A targeted timeout: the first compare whose 64-bit register operand,
/// sign-flipped, sends its loop past the step budget.  The search is
/// bounded to the first 256 candidates.
fn runaway_loop(trace: &Trace, injector: &DeterministicInjector) -> Option<FaultSpec> {
    trace
        .iter()
        .flat_map(|rec| match &rec.op {
            TraceOp::Cmp { lhs, rhs, .. } => [lhs, rhs]
                .into_iter()
                .enumerate()
                .filter(|(_, v)| {
                    matches!(v.source, ValueSource::Reg(_)) && v.value.width_mask() == u64::MAX
                })
                .map(|(slot, _)| FaultSpec::single_bit(rec.id, FaultTarget::Operand(slot), 63))
                .collect(),
            _ => Vec::new(),
        })
        .take(256)
        .find(|f| injector.run(f).status == ExecStatus::Timeout)
}

fn workload_json(name: &str, faults: &[FaultSpec], injector: &DeterministicInjector) -> Json {
    let faults = faults.iter().map(|f| {
        let outcome = injector.run(f);
        let class = injector.workload().classify(injector.golden(), &outcome);
        let mut fields = vec![
            ("dyn_id", Json::from(f.dyn_id)),
            ("target", Json::from(f.target.to_string())),
            ("mask", hex(f.mask)),
            ("class", Json::from(class.to_string())),
        ];
        fields.extend(outcome_json(&outcome));
        Json::object(fields)
    });
    Json::object([
        ("workload", Json::from(name)),
        ("golden", Json::object(outcome_json(injector.golden()))),
        ("faults", Json::array(faults)),
    ])
}

fn injector_for(name: &str) -> DeterministicInjector {
    let workload = moard::workloads::workload_by_name(name)
        .unwrap_or_else(|| panic!("built-in workload `{name}`"));
    DeterministicInjector::new(workload).expect("golden run completes")
}

/// Every built-in workload with its seeded population, plus a targeted trap
/// and a targeted timeout if the seeded draw produced none, each added to the
/// first workload that offers one.
fn populations() -> Vec<(&'static str, DeterministicInjector, Vec<FaultSpec>)> {
    let mut pops: Vec<_> = Registry::builtin()
        .all()
        .iter()
        .map(|w| {
            let injector = injector_for(w.name());
            let faults = draw_faults(w.name(), &traced(&injector));
            (w.name(), injector, faults)
        })
        .collect();
    let statuses: Vec<ExecStatus> = pops
        .iter()
        .flat_map(|(_, injector, faults)| faults.iter().map(|f| injector.run(f).status))
        .collect();
    type Targeted = fn(&Trace, &DeterministicInjector) -> Option<FaultSpec>;
    let targeted: [(bool, Targeted); 2] = [
        (
            statuses.iter().any(|s| matches!(s, ExecStatus::Trap(_))),
            |trace, _| zeroed_divisor(trace),
        ),
        (statuses.contains(&ExecStatus::Timeout), runaway_loop),
    ];
    for (covered, find) in targeted {
        if covered {
            continue;
        }
        for (_, injector, faults) in pops.iter_mut() {
            if let Some(f) = find(&traced(injector), injector) {
                faults.push(f);
                break;
            }
        }
    }
    pops
}

fn render(workloads: Vec<Json>) -> String {
    Json::object([
        ("kind", Json::from("moard-dfi-outcomes")),
        ("faults_per_workload", Json::from(FAULTS_PER_WORKLOAD)),
        ("workloads", Json::array(workloads)),
    ])
    .to_pretty()
        + "\n"
}

/// The population must exercise every fault target, both mask shapes, and
/// every kind of outcome the injector can produce.
fn assert_coverage(doc: &Json) {
    let mut targets = [false; 4];
    let (mut single, mut multi) = (false, false);
    let (mut memfault, mut trap, mut timeout, mut identical) = (false, false, false, false);
    for w in doc.arr_field("workloads").unwrap() {
        for f in w.arr_field("faults").unwrap() {
            targets[kind_of(parse_target(f.str_field("target").unwrap())) as usize] = true;
            let ones = parse_hex(f.str_field("mask").unwrap()).count_ones();
            single |= ones == 1;
            multi |= ones > 1;
            let status = f.str_field("status").unwrap();
            memfault |= status.starts_with("memory fault");
            trap |= status.starts_with("trap");
            timeout |= status == "timeout";
            identical |= f.str_field("class").unwrap() == OutcomeClass::Identical.to_string();
        }
    }
    assert_eq!(targets, [true; 4], "every fault target is injected");
    assert!(single && multi, "single-bit and multi-bit masks");
    assert!(memfault, "at least one memory fault");
    assert!(trap && timeout, "at least one trap and one timeout");
    assert!(identical, "at least one identical outcome");
}

#[test]
fn dfi_outcomes_match_the_fixture() {
    let path = fixture_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let text = render(
            populations()
                .iter()
                .map(|(name, injector, faults)| workload_json(name, faults, injector))
                .collect(),
        );
        assert_coverage(&Json::parse(&text).unwrap());
        std::fs::write(&path, &text).expect("fixture written");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let doc = Json::parse(&golden).expect("fixture parses");
    assert_coverage(&doc);
    let workloads = doc
        .arr_field("workloads")
        .unwrap()
        .iter()
        .map(|w| {
            let name = w.str_field("workload").unwrap();
            let faults: Vec<FaultSpec> = w
                .arr_field("faults")
                .unwrap()
                .iter()
                .map(|f| {
                    FaultSpec::masked(
                        f.u64_field("dyn_id").unwrap(),
                        parse_target(f.str_field("target").unwrap()),
                        parse_hex(f.str_field("mask").unwrap()),
                    )
                })
                .collect();
            workload_json(name, &faults, &injector_for(name))
        })
        .collect();
    assert_eq!(
        render(workloads),
        golden,
        "DFI outcomes are no longer bit-identical to the fixture; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
