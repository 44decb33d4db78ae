//! Backend wire messages: a plain ticket on the wire, the typed message in
//! the sending backend's own slab.
//!
//! Every backend protocol message rides in an `Ev::Wire` event, so the
//! ticket's size is every queued event's size. A backend
//! [`WireSlab::put`]s its message, passes the returned [`WirePayload`] to
//! [`crate::Mach::send_wire`], and [`WireSlab::take`]s the message back out
//! in [`crate::LockBackend::on_wire`] — the same pattern as timer tokens
//! behind [`crate::Mach::set_timer`].

/// A backend protocol message in flight: a ticket into the sending
/// backend's [`WireSlab`]. The machine only carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePayload(pub u32);

/// Typed storage for a backend's in-flight wire messages.
///
/// Freed tickets are reused last-in first-out, so the slab grows only to
/// the peak number of messages in flight and ticket numbers stay
/// deterministic.
#[derive(Debug)]
pub struct WireSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for WireSlab<T> {
    fn default() -> Self {
        WireSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> WireSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `msg` and returns the ticket to send on the wire.
    pub fn put(&mut self, msg: T) -> WirePayload {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(msg);
                WirePayload(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("wire slab overflow");
                self.slots.push(Some(msg));
                WirePayload(i)
            }
        }
    }

    /// Takes the message behind `ticket` back out and frees the ticket.
    ///
    /// # Panics
    ///
    /// If `ticket` is not in flight (never issued, or already taken).
    pub fn take(&mut self, ticket: WirePayload) -> T {
        let msg = self
            .slots
            .get_mut(ticket.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("wire ticket {} is not in flight", ticket.0));
        self.free.push(ticket.0);
        msg
    }

    /// The messages in flight, in ticket order.
    pub fn in_flight(&self) -> impl Iterator<Item = (WirePayload, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|m| (WirePayload(i as u32), m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_take_round_trip() {
        let mut s = WireSlab::new();
        let a = s.put("a");
        let b = s.put("b");
        assert_ne!(a, b);
        assert_eq!(s.take(b), "b");
        assert_eq!(s.take(a), "a");
        assert_eq!(s.in_flight().count(), 0);
    }

    #[test]
    fn freed_tickets_are_reused_last_in_first_out() {
        let mut s = WireSlab::new();
        let t: Vec<_> = (0..3).map(|i| s.put(i)).collect();
        assert_eq!(t, [WirePayload(0), WirePayload(1), WirePayload(2)]);
        s.take(t[0]);
        s.take(t[2]);
        assert_eq!(s.put(7), WirePayload(2));
        assert_eq!(s.put(8), WirePayload(0));
        assert_eq!(s.put(9), WirePayload(3));
        let live: Vec<_> = s.in_flight().map(|(t, &v)| (t.0, v)).collect();
        assert_eq!(live, [(0, 8), (1, 1), (2, 7), (3, 9)]);
    }

    #[test]
    #[should_panic(expected = "wire ticket 0 is not in flight")]
    fn taking_a_ticket_twice_panics() {
        let mut s = WireSlab::new();
        let t = s.put(1u8);
        s.take(t);
        s.take(t);
    }
}
