//! `PlanCoder::run` owns its buffers: once a coder has served a plan
//! shape, coding another chunk of it costs kernel calls only — no heap
//! allocation, and therefore no thread spawn either. One layer down, the
//! allocating `encode` / `decode` / `repair` of the linear codes allocate
//! what they return plus a fixed handful of small vectors, whatever the
//! chunk length, and never a multiplication table per call on the encode
//! side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chameleonec::cluster::ChunkId;
use chameleonec::codes::{ErasureCode, Lrc, ReedSolomon};
use chameleonec::core::{Participant, PlanCoder, RepairPlan};
use chameleonec::gf::Gf256;

thread_local! {
    /// Allocations made by the current thread (other test threads and the
    /// harness do not disturb the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which itself never
// allocates (const-initialised `Cell`, no destructor) and is skipped if
// the thread-local is already torn down.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Participant `i` sits on node `i` and forwards to `send_to[i]`; the
/// destination is the node after the last participant.
fn plan(send_to: &[usize], read_fraction: f64) -> RepairPlan {
    let participants = send_to
        .iter()
        .enumerate()
        .map(|(i, &send_to)| Participant {
            node: i,
            chunk_index: i,
            coeff: Gf256::new(if read_fraction < 1.0 {
                1
            } else {
                2 * i as u8 + 3
            }),
            send_to,
            read_fraction,
        })
        .collect();
    let chunk = ChunkId {
        stripe: 0,
        index: 0,
    };
    RepairPlan::new(chunk, send_to.len(), participants).expect("a valid in-tree")
}

#[test]
fn coding_a_second_chunk_allocates_nothing() {
    let counted = allocations_during(|| drop(std::hint::black_box(Box::new(7u8))));
    assert!(counted > 0, "the counting allocator is not installed");
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
        assert_eq!(allocations, 0, "{name}: later chunks on a fresh coder");
    }
    // One coder alternating between shapes it has already served.
    let allocations = allocations_during(|| {
        for (_, plan) in shapes.iter().rev() {
            shared.run(plan);
        }
    });
    assert_eq!(allocations, 0, "alternating shapes on one coder");
}

/// Allocations of one `encode`, then of one `repair` and one `decode` of
/// chunk 0 from every survivor, on `len`-byte chunks.
fn codec_allocations(code: &dyn ErasureCode, len: usize) -> [u64; 3] {
    let data: Vec<Vec<u8>> = (0..code.k())
        .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut stripe = Vec::new();
    let encode = allocations_during(|| stripe = code.encode(&refs).expect("encode"));
    let survivors: Vec<(usize, &[u8])> = (1..code.n()).map(|i| (i, &stripe[i][..])).collect();
    let mut rebuilt = Vec::new();
    let repair = allocations_during(|| rebuilt = code.repair(0, &survivors).expect("repair"));
    assert!(rebuilt == stripe[0]);
    let decode = allocations_during(|| rebuilt = code.decode(&survivors, 0).expect("decode"));
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
        // The chunk, plus the solve (2), the <= k tables (1) and the terms (1).
        assert!(repair <= 1 + 4, "{}: repair {repair}", code.name());
        assert!(decode <= 1 + 4, "{}: decode {decode}", code.name());
    }
}
