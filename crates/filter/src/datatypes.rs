//! Shared filter data types: errors, results, and the traits through which
//! filters access connection and session data without depending on any
//! particular protocol implementation.

use core::fmt;

/// Errors from filter compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// Tokenizer error at a byte offset.
    Lex {
        /// Byte offset in the source.
        pos: usize,
        /// Description.
        msg: String,
    },
    /// Parser error at a byte offset.
    Parse {
        /// Byte offset in the source.
        pos: usize,
        /// Description.
        msg: String,
    },
    /// The filter references a protocol the registry does not know.
    UnknownProtocol(String),
    /// The filter references a field the protocol does not expose.
    UnknownField(String, String),
    /// Operator/value combination invalid for the field's type.
    TypeMismatch(String),
    /// A regular expression failed to compile.
    BadRegex(String),
}

impl FilterError {
    pub(crate) fn lex(pos: usize, msg: impl Into<String>) -> Self {
        FilterError::Lex {
            pos,
            msg: msg.into(),
        }
    }

    pub(crate) fn parse(pos: usize, msg: impl Into<String>) -> Self {
        FilterError::Parse {
            pos,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::Lex { pos, msg } => write!(f, "lex error at byte {pos}: {msg}"),
            FilterError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            FilterError::UnknownProtocol(p) => write!(f, "unknown protocol '{p}'"),
            FilterError::UnknownField(p, field) => {
                write!(f, "protocol '{p}' has no field '{field}'")
            }
            FilterError::TypeMismatch(msg) => write!(f, "type mismatch: {msg}"),
            FilterError::BadRegex(msg) => write!(f, "invalid regex: {msg}"),
        }
    }
}

impl std::error::Error for FilterError {}

/// A set of subscription indices, represented as a 64-bit bitmap.
///
/// Multi-subscription filtering (one merged predicate trie serving N
/// subscriptions) tags every trie node with the set of subscriptions
/// whose pattern ends there; filter results carry these sets so the
/// runtime knows *which* subscriptions matched or remain live, not just
/// whether any did. The bitmap bounds a runtime to
/// [`SubscriptionSet::MAX`] concurrent subscriptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SubscriptionSet(u64);

impl SubscriptionSet {
    /// Maximum number of subscriptions a set can hold.
    pub const MAX: usize = 64;

    /// The empty set.
    pub const fn empty() -> Self {
        SubscriptionSet(0)
    }

    /// A set containing only subscription `i`.
    ///
    /// # Panics
    /// When `i >= SubscriptionSet::MAX`.
    pub const fn single(i: usize) -> Self {
        assert!(i < Self::MAX, "subscription index out of range");
        SubscriptionSet(1u64 << i)
    }

    /// The set `{0, 1, …, n-1}`.
    ///
    /// # Panics
    /// When `n > SubscriptionSet::MAX`.
    pub const fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX, "subscription count out of range");
        if n == Self::MAX {
            SubscriptionSet(u64::MAX)
        } else {
            SubscriptionSet((1u64 << n) - 1)
        }
    }

    /// Adds subscription `i` to the set.
    pub fn insert(&mut self, i: usize) {
        *self |= Self::single(i);
    }

    /// Removes subscription `i` from the set.
    pub fn remove(&mut self, i: usize) {
        self.0 &= !(1u64 << i);
    }

    /// Whether subscription `i` is in the set.
    pub const fn contains(&self, i: usize) -> bool {
        i < Self::MAX && self.0 & (1u64 << i) != 0
    }

    /// Whether the set is empty.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of subscriptions in the set.
    pub const fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// The raw bitmap (stable key for caching per-set derived state).
    pub const fn bits(&self) -> u64 {
        self.0
    }

    /// Iterates the subscription indices in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }
}

impl std::ops::BitOr for SubscriptionSet {
    type Output = SubscriptionSet;
    fn bitor(self, rhs: Self) -> Self {
        SubscriptionSet(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for SubscriptionSet {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for SubscriptionSet {
    type Output = SubscriptionSet;
    fn bitand(self, rhs: Self) -> Self {
        SubscriptionSet(self.0 & rhs.0)
    }
}

impl std::ops::BitAndAssign for SubscriptionSet {
    fn bitand_assign(&mut self, rhs: Self) {
        self.0 &= rhs.0;
    }
}

impl std::ops::Sub for SubscriptionSet {
    type Output = SubscriptionSet;
    fn sub(self, rhs: Self) -> Self {
        SubscriptionSet(self.0 & !rhs.0)
    }
}

impl std::ops::SubAssign for SubscriptionSet {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 &= !rhs.0;
    }
}

impl fmt::Display for SubscriptionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// The packet-filter frontier nodes a connection was tagged with: the
/// trie nodes at which evaluation resumes for the connection and session
/// layers.
///
/// A merged trie can leave several divergent branches live for the same
/// packet (e.g. one subscription's pattern through `tcp.port >= 100` and
/// another's through plain `tcp`), so the single "deepest node" of the
/// one-subscription design becomes a small set. Stored inline (no heap
/// allocation) for the common case of a handful of frontiers.
///
/// Frontier values are opaque to the runtime: it stores none of them.
/// Whenever a connection reaches the connection or session layer, it
/// recomputes them — the packet filter's verdict on the connection's
/// first packet, rebuilt from its five-tuple and the few facts it kept —
/// and hands them to [`crate::FilterFns::conn_filter_set`] /
/// [`crate::FilterFns::session_filter_set`] unchanged. They are trie node
/// IDs, so they are only meaningful to the filter that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontiers {
    inline: [u32; Self::INLINE],
    len: u8,
    spill: Vec<u32>,
}

impl Frontiers {
    const INLINE: usize = 8;

    /// An empty frontier set.
    pub fn new() -> Self {
        Frontiers::default()
    }

    /// Adds a frontier, ignoring duplicates.
    pub fn push(&mut self, node: u32) {
        if self.iter().any(|n| n == node) {
            return;
        }
        self.push_distinct(node);
    }

    /// Adds a frontier the caller knows is not in the set yet (the flat
    /// program visits each trie node at most once per packet).
    #[inline]
    pub(crate) fn push_distinct(&mut self, node: u32) {
        if (self.len as usize) < Self::INLINE {
            self.inline[self.len as usize] = node;
            self.len += 1;
        } else {
            self.spill.push(node);
        }
    }

    /// Number of frontiers.
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the frontiers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.inline[..self.len as usize]
            .iter()
            .chain(self.spill.iter())
            .copied()
    }
}

/// Multi-subscription result of the software packet filter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketVerdict {
    /// Subscriptions whose filter is fully satisfied by this packet.
    pub matched: SubscriptionSet,
    /// Subscriptions whose filter needs the connection and/or session
    /// layers to decide (disjoint from `matched`: a terminal disjunct
    /// subsumes deeper branches of the same subscription).
    pub live: SubscriptionSet,
    /// Frontier nodes at which later layers resume evaluation for the
    /// `live` subscriptions.
    pub frontiers: Frontiers,
}

impl PacketVerdict {
    /// Whether no subscription matched and none can still match.
    pub fn is_no_match(&self) -> bool {
        self.matched.is_empty() && self.live.is_empty()
    }
}

/// Multi-subscription result of the connection filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnVerdict {
    /// Subscriptions whose filter became fully satisfied at the
    /// connection layer.
    pub matched: SubscriptionSet,
    /// Subscriptions still undecided (session-layer predicates pending).
    pub live: SubscriptionSet,
}

/// A dynamically-typed view of one protocol field's value, borrowed from
/// the underlying parsed data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Unsigned integer (ports, TTLs, lengths, versions…).
    Int(u64),
    /// String (SNI, user agent, banners…).
    Str(&'a str),
    /// IP address (for `addr`-style fields).
    Ip(std::net::IpAddr),
}

/// Connection-level data visible to the connection filter: the identity of
/// the application-layer protocol, once probed.
///
/// Implemented by the connection tracker's state; the filter crate only
/// needs the service name.
pub trait ConnData {
    /// The probed L7 protocol name (e.g. `"tls"`), or `None` if the
    /// protocol has not been identified (yet).
    fn service(&self) -> Option<&str>;
}

/// Session-level data visible to the session filter: a parsed
/// application-layer message exposing named fields.
///
/// Implemented by protocol modules (`retina-protocols`); the filter crate
/// accesses fields dynamically so new protocols need no filter changes
/// (§3.3 extensibility).
pub trait SessionData {
    /// Protocol name this session was parsed as (e.g. `"tls"`).
    fn protocol(&self) -> &str;

    /// Looks up a field by name. Returns `None` when the field is absent
    /// in this particular session (e.g. a TLS handshake without SNI).
    fn field(&self, name: &str) -> Option<FieldValue<'_>>;
}

/// Trivial [`ConnData`] impl for tests and simple callers.
impl ConnData for Option<&str> {
    fn service(&self) -> Option<&str> {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = FilterError::UnknownField("tcp".into(), "bogus".into());
        assert_eq!(e.to_string(), "protocol 'tcp' has no field 'bogus'");
        assert!(FilterError::lex(3, "x").to_string().contains("byte 3"));
    }

    #[test]
    fn conn_data_for_option() {
        let c: Option<&str> = Some("tls");
        assert_eq!(ConnData::service(&c), Some("tls"));
    }

    #[test]
    fn subscription_set_ops() {
        let mut s = SubscriptionSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(63);
        assert_eq!(s.len(), 3);
        assert!(s.contains(5) && s.contains(63) && !s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        s.remove(5);
        assert!(!s.contains(5));
        let a = SubscriptionSet::single(1) | SubscriptionSet::single(2);
        let b = SubscriptionSet::single(2) | SubscriptionSet::single(3);
        assert_eq!((a & b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!((a - b).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!((a | b).len(), 3);
        assert_eq!(
            SubscriptionSet::first_n(3).iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(SubscriptionSet::first_n(64).len(), 64);
        assert_eq!(a.to_string(), "{1,2}");
    }

    #[test]
    fn frontiers_inline_and_spill() {
        let mut f = Frontiers::new();
        assert!(f.is_empty());
        for n in 0..12u32 {
            f.push(n);
            f.push(n); // duplicates ignored
        }
        assert_eq!(f.len(), 12);
        assert_eq!(f.iter().collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn packet_verdict_no_match() {
        assert!(PacketVerdict::default().is_no_match());
        let v = PacketVerdict {
            matched: SubscriptionSet::single(0),
            ..PacketVerdict::default()
        };
        assert!(!v.is_no_match());
    }
}
