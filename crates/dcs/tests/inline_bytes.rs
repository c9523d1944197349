//! Small payloads live in their `Bytes` handle: `Bytes::copy_from_slice` of
//! at most `bytes::INLINE_CAP` bytes allocates nothing. Such a handle must
//! behave exactly like one over shared storage, and the buffer pool must
//! refuse it without fuss.

use bytes::{Bytes, INLINE_CAP};
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
