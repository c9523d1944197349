//! Message envelopes.
//!
//! A DCS message is an *active message*: it names a handler to run at the
//! destination and carries an opaque payload. Envelopes also carry a
//! [`Tag`] so the runtime can separate **system-generated** traffic (load
//! balancing status updates, migration requests) from **application**
//! traffic — the mechanism PREMA uses to let its preemptive polling thread
//! process load-balancer messages without ever running application handlers
//! behind the application's back (§4.2 of the paper).

use bytes::Bytes;

/// Rank of a node in the communicator (the paper's "processor").
pub type Rank = usize;

/// Identifies a registered message handler. Handler ids must be agreed upon
/// by all ranks (register handlers in the same order everywhere, exactly as
/// with classic Active Messages).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HandlerId(pub u32);

impl HandlerId {
    /// Handler ids at and above this value are reserved for the runtime
    /// (migration protocol, load balancer, termination detection).
    pub const SYSTEM_BASE: u32 = 0xFFFF_0000;

    /// Whether this is a runtime-reserved handler id.
    pub fn is_system(self) -> bool {
        self.0 >= Self::SYSTEM_BASE
    }
}

/// Coarse classification of a message, used by polling filters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tag {
    /// Application-generated message: only processed at application-posted
    /// polling operations.
    App,
    /// System-generated message (load balancing, migration, termination):
    /// may additionally be processed preemptively by the polling thread.
    System,
}

/// A message either in flight or queued for dispatch.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Which handler to run at the destination.
    pub handler: HandlerId,
    /// System/application classification.
    pub tag: Tag,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

impl Envelope {
    /// Total bytes this envelope occupies on the wire (header + payload),
    /// used by cost models and traffic counters.
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 24; // src + dst + handler + tag, padded
        HEADER + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_handler_classification() {
        assert!(HandlerId(HandlerId::SYSTEM_BASE).is_system());
        assert!(HandlerId(u32::MAX).is_system());
        assert!(!HandlerId(0).is_system());
        assert!(!HandlerId(HandlerId::SYSTEM_BASE - 1).is_system());
    }

    #[test]
    fn wire_size_includes_header() {
        let e = Envelope {
            src: 0,
            dst: 1,
            handler: HandlerId(3),
            tag: Tag::App,
            payload: Bytes::from_static(b"hello"),
        };
        assert_eq!(e.wire_size(), 24 + 5);
    }

    /// Every queued, pooled or in-flight message carries one: six words,
    /// three of them the payload handle.
    #[test]
    fn an_envelope_is_six_words() {
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
        assert!(std::mem::size_of::<Envelope>() <= 48);
    }
}
