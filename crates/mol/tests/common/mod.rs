//! Shared by the hand-driven MOL scenario tests.

use prema_mol::{shard_of, MobilePtr, MolNode};

/// A trivial mobile object: a counter with an id.
#[derive(Debug, PartialEq)]
pub struct Counter {
    pub id: u64,
    pub value: i64,
}

impl prema_mol::Migratable for Counter {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.value.to_le_bytes());
    }
    fn unpack(buf: &[u8]) -> Self {
        Counter {
            id: u64::from_le_bytes(buf[..8].try_into().unwrap()),
            value: i64::from_le_bytes(buf[8..16].try_into().unwrap()),
        }
    }
}

/// Register counters on rank 0 until one's home shard is a rank other than
/// any in `avoid` — lets a test place the shard where the scenario needs it.
pub fn register_with_shard_not_in(
    nodes: &mut [MolNode<Counter>],
    avoid: &[usize],
) -> (MobilePtr, usize) {
    let n = nodes.len();
    for id in 0..64 {
        let ptr = nodes[0].register(Counter { id, value: 0 });
        let shard = shard_of(ptr, n);
        if !avoid.contains(&shard) {
            return (ptr, shard);
        }
    }
    panic!("no pointer hashed to an acceptable shard in 64 tries");
}
