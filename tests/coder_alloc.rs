//! `PlanCoder::run` owns its buffers: once a coder has served a plan
//! shape, coding another chunk of it costs kernel calls only — no heap
//! allocation, and therefore no thread spawn either — and its first chunk
//! allocates an L1d's worth of blocks, not a chunk's. One layer down, the
//! allocating `encode` / `decode` / `repair` of the linear codes allocate
//! what they return plus a fixed handful of small vectors, whatever the
//! chunk length, and a code's construction a few hundred bytes: the
//! multiplication tables are compile-time constants, never built or boxed
//! at run time, and the page advice a large output gets asks the allocator
//! for nothing. Around them, a foreground report sorts its samples without a
//! scratch buffer, and a relocation copies one stripe, not the layout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use chameleonec::cluster::{ChunkId, Cluster, ClusterConfig, Placement, PlacementStrategy};
use chameleonec::codes::{Butterfly, ErasureCode, Lrc, ReedSolomon};
use chameleonec::core::run::{NoRepair, Run};
use chameleonec::core::{Participant, PlanCoder, RepairContext, RepairPlan};
use chameleonec::gf::{Gf256, BLOCK_BYTES};
use chameleonec::traces::{Workload, YcsbA};

thread_local! {
    /// Allocator calls and bytes asked for by the current thread (other
    /// test threads and the harness do not disturb the count).
    static ALLOCATED: Cell<Allocations> = const { Cell::new(Allocations { calls: 0, bytes: 0 }) };
}

/// What a stretch of code asked the allocator for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocations {
    /// `alloc` and `realloc` calls.
    calls: u64,
    /// Bytes those calls asked for: an `alloc`'s size and a `realloc`'s
    /// new size, whatever was freed meanwhile.
    bytes: u64,
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| {
        let Allocations {
            calls,
            bytes: total,
        } = a.get();
        a.set(Allocations {
            calls: calls + 1,
            bytes: total + bytes as u64,
        });
    });
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which itself never
// allocates (const-initialised `Cell`, no destructor) and is skipped if
// the thread-local is already torn down.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> Allocations {
    let before = ALLOCATED.with(Cell::get);
    f();
    let after = ALLOCATED.with(Cell::get);
    Allocations {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    }
}

/// Participant `i` sits on node `i` and forwards to participant
/// `parents[i]`, or to the destination (the node after the last
/// participant) where `parents[i]` is the participant count.
fn plan(parents: &[usize], read_fraction: f64) -> RepairPlan {
    let participants = parents
        .iter()
        .enumerate()
        .map(|(i, &parent)| Participant {
            node: i,
            chunk_index: i,
            coeff: Gf256::new(if read_fraction < 1.0 {
                1
            } else {
                2 * i as u8 + 3
            }),
            parent: (parent < parents.len()).then_some(parent),
            read_fraction,
        })
        .collect();
    let chunk = ChunkId {
        stripe: 0,
        index: 0,
    };
    RepairPlan::new(chunk, parents.len(), participants).expect("a valid in-tree")
}

#[test]
fn coding_a_second_chunk_allocates_nothing() {
    let counted = allocations_during(|| drop(std::hint::black_box(Box::new([7u8; 3]))));
    assert_eq!(
        counted,
        Allocations { calls: 1, bytes: 3 },
        "the counting allocator is not installed"
    );
    let shapes = [
        ("star", plan(&[10; 10], 1.0)),
        ("tree", plan(&[1, 3, 3, 7, 5, 7, 7, 10, 9, 10], 1.0)),
        ("chain", plan(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 1.0)),
        ("sub-chunk", plan(&[3, 3, 3], 0.5)),
    ];
    // Four blocks per chunk, as in a repair campaign's sampled chunks.
    let mut shared = PlanCoder::new(256 * 1024);
    for (name, plan) in &shapes {
        let mut coder = PlanCoder::new(256 * 1024);
        let first = coder.run(plan);
        shared.run(plan);
        let allocations = allocations_during(|| {
            for _ in 0..3 {
                let again = coder.run(plan);
                assert_eq!(again.bytes_coded, first.bytes_coded);
            }
        });
        assert_eq!(
            allocations.calls, 0,
            "{name}: later chunks on a fresh coder"
        );
    }
    // One coder alternating between shapes it has already served.
    let allocations = allocations_during(|| {
        for (_, plan) in shapes.iter().rev() {
            shared.run(plan);
        }
    });
    assert_eq!(allocations.calls, 0, "alternating shapes on one coder");
}

#[test]
fn a_fresh_coder_allocates_blocks_not_chunks() {
    let tree = plan(&[1, 3, 3, 7, 5, 7, 7, 10, 9, 10], 1.0);
    // A sampled chunk of 64 blocks, as in a repair campaign.
    let mut coder = PlanCoder::new(256 * 1024);
    let first = allocations_during(|| {
        coder.run(&tree);
    });
    // Ten source blocks, the synthetic block the sources read and the
    // output block: twelve blocks, an L1d's worth. Beside them, at most
    // 2 KiB of bookkeeping (the sources' 64-byte staggered windows and the
    // fold schedule), and no table.
    let bound = 12 * BLOCK_BYTES + 2048;
    assert!(
        first.bytes <= bound as u64,
        "first run asked for {} bytes, more than {bound}",
        first.bytes
    );
}

/// Allocations of one `encode`, then of one `repair` and one `decode` of
/// chunk 0 from every survivor, on `len`-byte chunks.
fn codec_allocations(code: &dyn ErasureCode, len: usize) -> [u64; 3] {
    let data: Vec<Vec<u8>> = (0..code.k())
        .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut stripe = Vec::new();
    let encode = allocations_during(|| stripe = code.encode(&refs).expect("encode")).calls;
    let survivors: Vec<(usize, &[u8])> = (1..code.n()).map(|i| (i, &stripe[i][..])).collect();
    let mut rebuilt = Vec::new();
    let repair = allocations_during(|| rebuilt = code.repair(0, &survivors).expect("repair")).calls;
    assert!(rebuilt == stripe[0]);
    let decode = allocations_during(|| rebuilt = code.decode(&survivors, 0).expect("decode")).calls;
    assert!(rebuilt == stripe[0]);
    [encode, repair, decode]
}

#[test]
fn codec_allocations_do_not_depend_on_the_chunk_length() {
    let codes: [Box<dyn ErasureCode>; 2] = [
        Box::new(ReedSolomon::new(10, 4).expect("RS(10,4)")),
        Box::new(Lrc::new(4, 2, 2).expect("LRC(4,2,2)")),
    ];
    for code in &codes {
        let small = codec_allocations(code.as_ref(), 64 << 10);
        // A second call on the same code: nothing was cached by the first,
        // because nothing is built per call.
        assert_eq!(
            codec_allocations(code.as_ref(), 64 << 10),
            small,
            "{}",
            code.name()
        );
        assert_eq!(
            codec_allocations(code.as_ref(), 8 << 20),
            small,
            "{}",
            code.name()
        );
        let [encode, repair, decode] = small;
        // The n chunks, plus the stripe vector and the term list: no table.
        assert!(
            encode <= code.n() as u64 + 4,
            "{}: encode {encode}",
            code.name()
        );
        // The chunk, plus the solve's matrix and solution (2) and the terms (1).
        assert_eq!(repair, 1 + 3, "{}: repair", code.name());
        assert_eq!(decode, 1 + 3, "{}: decode", code.name());
    }
    // Butterfly's own sub-chunk passes: the same counts at both lengths,
    // the huge-page-advised one included.
    let bf = Butterfly::new();
    let small = codec_allocations(&bf, 64 << 10);
    assert_eq!(codec_allocations(&bf, 8 << 20), small, "{}", bf.name());
}

#[test]
fn constructing_a_code_builds_no_table() {
    let mut rs = None;
    let allocations = allocations_during(|| rs = Some(ReedSolomon::new(10, 4)));
    assert!(rs.is_some_and(|rs| rs.is_ok()));
    // The generator, and per parity row its ten `(source, &table)` terms:
    // 40 tables built here would be 12 160 B on their own.
    assert!(allocations.bytes < 2048, "{allocations:?}");
}

#[test]
fn a_foreground_report_allocates_nothing() {
    let cluster = Cluster::new(ClusterConfig::small(14)).expect("a valid cluster");
    let code = Arc::new(ReedSolomon::new(10, 4).expect("RS(10,4)"));
    let mut run = Run::new(RepairContext::new(cluster, code));
    let clients = (0..4).map(|i| Box::new(YcsbA::new(i)) as Box<dyn Workload>);
    run.start_foreground(clients.collect(), 250);
    run.drain(&mut NoRepair).expect("the clients finish");
    let driver = run.foreground.take().expect("started above");
    let mut report = None;
    let allocations = allocations_during(|| report = Some(driver.report(&run.sim)));
    let report = report.expect("reported above");
    // More samples than a stable sort's 4 KiB stack buffer holds, so a
    // stable sort would take its scratch from the heap.
    assert_eq!(report.completed, 1000);
    assert_eq!(allocations, Allocations { calls: 0, bytes: 0 });
}

#[test]
fn a_relocation_copies_a_stripe_not_the_layout() {
    // The benchmark's 1000-node layout: 4286 stripes of 14, 0.46 MiB of ids.
    let strategy = PlacementStrategy::Random(0xC0DE);
    let cached = Placement::new(1000, 14, 4286, strategy);
    let mut placement = Placement::new(1000, 14, 4286, strategy);
    let chunk = ChunkId {
        stripe: 0,
        index: 0,
    };
    let free = (0..1000)
        .find(|node| !placement.stripe_nodes(0).contains(node))
        .expect("a node outside the stripe");
    let allocations = allocations_during(|| placement.relocate(chunk, free));
    assert!(allocations.bytes < 1024, "{allocations:?}");
    assert_eq!(placement.node_of(chunk), free);
    assert_ne!(cached.node_of(chunk), free);
}
