//! Small payloads live in their `Bytes` handle: `Bytes::copy_from_slice` of
//! at most `bytes::INLINE_CAP` bytes allocates nothing. Such a handle must
//! behave exactly like one over shared storage, and the buffer pool must
//! refuse it without fuss.
//!
//! A handle is three words: a shared one bounds its view of the storage with
//! `u32`s, so its views must land on the right bytes at either end and
//! through any chain of splits, and storage past `u32::MAX` bytes must be
//! refused loudly rather than wrapped.

use bytes::{Buf, Bytes, INLINE_CAP, MAX_SHARED_LEN};
use prema_dcs::pool;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of(b: &Bytes) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// The same contents over heap storage.
fn shared(b: &[u8]) -> Bytes {
    Bytes::from(b.to_vec())
}

#[test]
fn a_small_copy_round_trips() {
    let src: Vec<u8> = (1..=INLINE_CAP as u8).collect();
    let b = Bytes::copy_from_slice(&src);
    assert_eq!(&b[..], &src[..]);
    assert_eq!(b.len(), INLINE_CAP);
    assert!(Bytes::copy_from_slice(&[]).is_empty());
}

#[test]
fn inline_and_shared_handles_of_equal_contents_are_equal_and_hash_equal() {
    let src = *b"sixteen bytes!!!";
    let (inline, heap) = (Bytes::copy_from_slice(&src), shared(&src));
    assert_eq!(inline, heap);
    assert_eq!(hash_of(&inline), hash_of(&heap));
    assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
}

#[test]
fn an_inline_handle_slices_splits_and_clones() {
    let mut b = Bytes::copy_from_slice(b"0123456789");
    let copy = b.clone();
    assert_eq!(&b.slice(2..5)[..], b"234");
    let head = b.split_to(4);
    assert_eq!(&head[..], b"0123");
    assert_eq!(&b[..], b"456789");
    assert_eq!(&b.slice(1..3)[..], b"56");
    assert_eq!(&copy[..], b"0123456789", "a clone is its own copy");
}

#[test]
fn the_pool_refuses_an_inline_handle() {
    // A sole owner of heap storage would hand it back; an inline one has none.
    let b = Bytes::copy_from_slice(b"payload");
    let back = b.try_reclaim().expect_err("nothing to reclaim");
    assert_eq!(&back[..], b"payload");
    let before = pool::stats().rejected;
    assert!(!pool::recycle(back));
    assert_eq!(pool::stats().rejected, before + 1);
    let big = Bytes::copy_from_slice(&[7; INLINE_CAP + 1]);
    assert!(
        big.try_reclaim().is_ok(),
        "past the bound, a copy is on the heap"
    );
}

#[test]
fn a_shared_handle_cuts_at_both_ends() {
    let src: Vec<u8> = (0..40).collect();
    let b = shared(&src);
    assert!(b.slice(0..0).is_empty());
    assert!(b.slice(40..40).is_empty());
    assert_eq!(&b.slice(0..40)[..], &src[..]);

    let mut at_start = b.clone();
    assert!(at_start.split_to(0).is_empty());
    assert_eq!(&at_start[..], &src[..]);
    let mut at_end = b.clone();
    assert_eq!(&at_end.split_to(40)[..], &src[..]);
    assert!(at_end.is_empty());
    assert!(at_end.slice(0..0).is_empty());

    let mut advanced = b.clone();
    advanced.advance(0);
    assert_eq!(&advanced[..], &src[..]);
    advanced.advance(40);
    assert!(advanced.is_empty());
    advanced.advance(0);
    assert_eq!(advanced.remaining(), 0);
}

#[test]
fn a_chain_of_splits_reads_every_byte_once() {
    let src: Vec<u8> = (0..=255).collect();
    let mut rest = shared(&src);
    let mut read = Vec::new();
    let mut widths = [0, 1, 7, 0, 16, 17, 64].into_iter().cycle();
    while !rest.is_empty() {
        let width = widths.next().expect("cycles").min(rest.len());
        let mut head = rest.split_to(width);
        // Cut the head again, and read its middle through a slice.
        let front = head.split_to(width / 2);
        let middle = head.slice(0..head.len());
        head.advance(head.len());
        assert!(head.is_empty());
        read.extend_from_slice(&front);
        read.extend_from_slice(&middle);
    }
    assert_eq!(read, src);
}

#[test]
fn a_shared_view_reclaims_only_when_it_is_the_last() {
    let mut v = Vec::with_capacity(64);
    v.extend(0..40u8);
    let mut b = Bytes::from(v);
    let head = b.split_to(0);
    let tail = b.split_to(b.len());
    assert!(b.is_empty());
    // Three views of one vector: none may take it.
    let b = b
        .try_reclaim()
        .expect_err("the head and tail still read it");
    let head = head.try_reclaim().expect_err("the tail still reads it");
    drop((b, head));
    let back = tail.try_reclaim().expect("the last view takes it back");
    assert!(back.is_empty() && back.capacity() >= 64);

    // A view emptied by reading to its end still owns its storage.
    let mut read = Bytes::from(vec![1u8; 40]);
    read.advance(40);
    assert!(read.try_reclaim().is_ok());
}

#[test]
fn shared_storage_up_to_the_bound_is_taken() {
    assert_eq!(bytes::shared_end(0), 0);
    assert_eq!(bytes::shared_end(MAX_SHARED_LEN), u32::MAX);
}

/// `From<Vec<u8>>` takes its end bound from `shared_end`; a vector past the
/// bound is refused there, so the test needs no 4 GiB vector.
#[test]
#[should_panic(expected = "past the 4294967295-byte bound of shared storage")]
fn shared_storage_past_the_bound_panics() {
    bytes::shared_end(MAX_SHARED_LEN + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Across the inline bound: every copy, split and slice reads what the
    /// same operations read over shared storage.
    #[test]
    fn a_copy_behaves_like_shared_storage_on_both_sides_of_the_bound(
        src in proptest::collection::vec(any::<u8>(), 0..49),
        cut in 0usize..49,
        from in 0usize..49,
        to in 0usize..49,
    ) {
        let (mut copy, mut heap) = (Bytes::copy_from_slice(&src), shared(&src));
        prop_assert_eq!(&copy[..], &src[..]);
        prop_assert_eq!(&copy, &heap);
        prop_assert_eq!(hash_of(&copy), hash_of(&heap));
        let (from, to) = (from.min(to).min(src.len()), to.max(from).min(src.len()));
        prop_assert_eq!(&copy.slice(from..to)[..], &src[from..to]);
        let cut = cut.min(src.len());
        let (a, b) = (copy.split_to(cut), heap.split_to(cut));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&copy, &heap);
        prop_assert_eq!(&copy.clone()[..], &src[cut..]);
    }
}
