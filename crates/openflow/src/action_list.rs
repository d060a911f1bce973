//! The action list of a `flow_mod`, a `packet_out` and a flow rule.

use crate::{Action, PortNo};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// How many actions an [`ActionList`] stores in place.
const INLINE: usize = 2;

/// What the unused in-place slots hold; never observable.
const FILL: Action = Action::Output {
    port: PortNo(0),
    max_len: 0,
};

/// An ordered list of [`Action`]s that stores up to two in place and
/// spills to the heap beyond.
///
/// Every reactive decision of the testbed carries one action (`output`),
/// so the lists on the per-packet path own no heap memory: building a
/// `flow_mod` or a `packet_out` allocates nothing for its actions, and a
/// matched rule's actions sit in the rule itself. A second slot costs
/// nothing — the list is as large as a `Vec<Action>` (24 bytes) either way
/// — and reads as a slice.
///
/// # Example
///
/// ```
/// use sdnbuf_openflow::{Action, ActionList, PortNo};
/// let one: ActionList = [Action::output(PortNo(2))].into_iter().collect();
/// assert_eq!(one.len(), 1);
/// assert_eq!(one, vec![Action::output(PortNo(2))]);
/// let many = ActionList::from(vec![Action::output(PortNo::FLOOD); 5]);
/// assert_eq!(many[4], Action::output(PortNo::FLOOD));
/// assert!(ActionList::default().is_empty()); // an empty list drops
/// ```
#[derive(Clone)]
pub struct ActionList(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, items: [Action; INLINE] },
    Spill(Box<[Action]>),
}

impl ActionList {
    /// The empty list (drop).
    pub const fn new() -> ActionList {
        ActionList(Repr::Inline {
            len: 0,
            items: [FILL; INLINE],
        })
    }
}

impl Default for ActionList {
    fn default() -> Self {
        ActionList::new()
    }
}

impl Deref for ActionList {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spill(items) => items,
        }
    }
}

impl FromIterator<Action> for ActionList {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut items = [FILL; INLINE];
        let mut len = 0;
        for slot in &mut items {
            match iter.next() {
                Some(action) => *slot = action,
                None => break,
            }
            len += 1;
        }
        let overflow = if len == INLINE { iter.next() } else { None };
        match overflow {
            Some(next) => {
                let mut spill = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
                spill.extend_from_slice(&items);
                spill.push(next);
                spill.extend(iter);
                ActionList(Repr::Spill(spill.into_boxed_slice()))
            }
            None => ActionList(Repr::Inline {
                len: len as u8,
                items,
            }),
        }
    }
}

impl From<Vec<Action>> for ActionList {
    fn from(actions: Vec<Action>) -> Self {
        if actions.len() <= INLINE {
            actions.into_iter().collect()
        } else {
            ActionList(Repr::Spill(actions.into_boxed_slice()))
        }
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &ActionList) -> bool {
        self[..] == other[..]
    }
}

impl Eq for ActionList {}

impl PartialEq<Vec<Action>> for ActionList {
    fn eq(&self, other: &Vec<Action>) -> bool {
        self[..] == other[..]
    }
}

impl Hash for ActionList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for ActionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actions(n: usize) -> Vec<Action> {
        (0..n as u16).map(|p| Action::output(PortNo(p))).collect()
    }

    #[test]
    fn is_no_larger_than_the_vec_it_replaces() {
        assert_eq!(
            std::mem::size_of::<ActionList>(),
            std::mem::size_of::<Vec<Action>>()
        );
    }

    #[test]
    fn lists_of_different_length_differ() {
        assert_ne!(ActionList::from(actions(1)), ActionList::from(actions(2)));
        assert_ne!(ActionList::from(actions(2)), ActionList::from(actions(3)));
        assert_eq!(ActionList::new(), ActionList::default());
    }
}
