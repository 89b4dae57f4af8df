//! Page advice for large output buffers.
//!
//! A coder that returns a fresh multi-megabyte chunk spends most of a call
//! in the kernel, not in GF arithmetic: every 4 KiB page of the new vector
//! traps once on its first write (an 8 MiB RS(10,4) `encode` returns
//! 104 MiB of fresh vectors: 26 624 write faults). [`prepare_output`] tells
//! the kernel, before the first byte is written, to back the vector with
//! 2 MiB pages where it can and to fault the whole allocation in with one
//! call instead of one trap per page.
//!
//! # Safety
//!
//! This is the crate's second and last `unsafe` opt-out (the first is
//! [`crate::simd`]): one `extern "C"` declaration, `madvise(2)` from the C
//! library every Linux `std` build links, and one `unsafe` block, which
//! both advices go through. The argument:
//!
//! - The range is owned: `prepare_output` takes `&mut Vec<u8>`, so no
//!   other reference to the allocation exists during the call, and both
//!   ranges are rounded *inward* — start up to the next boundary, end down
//!   to the previous one — from `[ptr, ptr + capacity)`, so every advised
//!   page lies inside the vector's own allocation. An empty rounded range
//!   (the allocation spans no aligned page) makes no call.
//! - Neither advice changes a byte. `MADV_HUGEPAGE` marks the range as
//!   eligible for transparent huge pages (a later collapse copies the
//!   contents); `MADV_POPULATE_WRITE` faults the pages in writable as a
//!   write would, without writing. Initialised bytes stay as they were and
//!   uninitialised capacity stays uninitialised as far as Rust is
//!   concerned.
//! - Both calls are advice: the return value is ignored, so a kernel
//!   without THP (`never`), one older than 5.14 (no `MADV_POPULATE_WRITE`,
//!   `EINVAL`) or a page size other than 4 KiB (`EINVAL` on an unaligned
//!   start) leaves the pages to fault on first write as without the call.

#![allow(unsafe_code)]

/// The transparent huge page size on x86_64 and 4 KiB-page AArch64 Linux;
/// also the capacity below which [`prepare_output`] does nothing.
const HUGE_PAGE: usize = 2 << 20;
/// The base page size the prefault range is rounded to.
const PAGE: usize = 4 << 10;

/// Advises the kernel to back `buf`'s allocation with huge pages and
/// prefaults it, so that filling it costs no page faults.
///
/// Does nothing when `buf.capacity()` is under 2 MiB or on an OS other than
/// Linux; otherwise makes two `madvise(2)` calls on the vector's own
/// allocation: `MADV_HUGEPAGE` on its 2 MiB-aligned interior and
/// `MADV_POPULATE_WRITE` on its 4 KiB-aligned interior, which also faults
/// in the head and tail pages the huge pages cannot cover. The pointer,
/// length, capacity and every initialised byte of `buf` are unchanged;
/// errors (THP off, an older kernel) are ignored.
///
/// # Examples
///
/// ```
/// let mut chunk: Vec<u8> = Vec::with_capacity(8 << 20);
/// chameleon_gf::pages::prepare_output(&mut chunk);
/// assert!(chunk.is_empty() && chunk.capacity() >= 8 << 20);
/// chunk.resize(8 << 20, 7); // written without a fault per 4 KiB page
/// ```
pub fn prepare_output(buf: &mut Vec<u8>) {
    if buf.capacity() < HUGE_PAGE {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        let start = buf.as_mut_ptr() as usize;
        let end = start + buf.capacity();
        advise(start, end, HUGE_PAGE, MADV_HUGEPAGE);
        advise(start, end, PAGE, MADV_POPULATE_WRITE);
    }
}

/// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;
/// `MADV_POPULATE_WRITE` (Linux 5.14) from `<asm-generic/mman-common.h>`.
#[cfg(target_os = "linux")]
const MADV_POPULATE_WRITE: i32 = 23;

#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// `madvise(advice)` on the `align`-aligned interior of `[start, end)`, if
/// it is not empty.
#[cfg(target_os = "linux")]
fn advise(start: usize, end: usize, align: usize, advice: i32) {
    if let Some((from, to)) = interior(start, end, align) {
        // SAFETY: `[from, to)` is a non-empty range inside `[start, end)`,
        // the allocation of a `Vec` the caller holds by `&mut`; both
        // advices leave its contents as they are, and the result is
        // advisory and ignored (module docs).
        let _ = unsafe { madvise(from as *mut std::ffi::c_void, to - from, advice) };
    }
}

/// `[start, end)` rounded inward to multiples of `align`, or `None` when no
/// aligned page fits.
#[cfg(target_os = "linux")]
fn interior(start: usize, end: usize, align: usize) -> Option<(usize, usize)> {
    let from = start.next_multiple_of(align);
    let to = end - end % align;
    (from < to).then_some((from, to))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pointer, length and capacity of a vector, and a copy of its bytes.
    fn snapshot(buf: &Vec<u8>) -> (*const u8, usize, usize, Vec<u8>) {
        (buf.as_ptr(), buf.len(), buf.capacity(), buf.clone())
    }

    /// The three shapes of each capacity: zeroed, pattern-filled, and empty
    /// with that capacity.
    fn vectors(capacity: usize) -> [Vec<u8>; 3] {
        [
            vec![0u8; capacity],
            (0..capacity).map(|i| (i * 31 + 7) as u8).collect(),
            Vec::with_capacity(capacity),
        ]
    }

    #[test]
    fn advice_changes_no_byte_and_no_field() {
        let capacities = [
            0,
            1,
            PAGE - 1,
            HUGE_PAGE - 1,
            HUGE_PAGE,
            HUGE_PAGE + 1,
            3 * HUGE_PAGE + PAGE + 1,
        ];
        for capacity in capacities {
            for (shape, mut buf) in ["zeroed", "pattern", "empty"]
                .into_iter()
                .zip(vectors(capacity))
            {
                assert!(buf.capacity() >= capacity, "{shape} {capacity}");
                let before = snapshot(&buf);
                prepare_output(&mut buf);
                let after = snapshot(&buf);
                assert_eq!(before.0, after.0, "{shape} {capacity}: pointer");
                assert_eq!(before.1, after.1, "{shape} {capacity}: len");
                assert_eq!(before.2, after.2, "{shape} {capacity}: capacity");
                assert!(before.3 == after.3, "{shape} {capacity}: bytes");
                // The spare capacity is still writable and the vector
                // still grows into it in place.
                let len = buf.len();
                buf.resize(buf.capacity(), 0xA5);
                assert_eq!(buf.as_ptr(), after.0, "{shape} {capacity}: moved");
                assert!(buf[len..].iter().all(|&b| b == 0xA5));
                assert!(buf[..len] == after.3[..]);
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rounding_keeps_inside_the_allocation() {
        let (s, e) = (HUGE_PAGE + 16, 5 * HUGE_PAGE - 16);
        assert_eq!(
            interior(s, e, HUGE_PAGE),
            Some((2 * HUGE_PAGE, 4 * HUGE_PAGE))
        );
        assert_eq!(
            interior(s, e, PAGE),
            Some((HUGE_PAGE + PAGE, 5 * HUGE_PAGE - PAGE))
        );
        // Aligned ends are kept; a span without a whole aligned page is empty.
        assert_eq!(
            interior(HUGE_PAGE, 2 * HUGE_PAGE, HUGE_PAGE),
            Some((HUGE_PAGE, 2 * HUGE_PAGE))
        );
        assert_eq!(interior(HUGE_PAGE + 1, 3 * HUGE_PAGE - 1, HUGE_PAGE), None);
        assert_eq!(interior(PAGE + 1, 2 * PAGE + 1, PAGE), None);
    }
}
