//! The extensible protocol registry.
//!
//! Unlike BPF-style engines with a fixed set of filterable primitives,
//! Retina resolves filter identifiers against protocol modules registered
//! at startup (§3.3). Each entry declares where the protocol sits in the
//! stack (its possible parents), which processing layer its identity is
//! established at, and the typed fields it exposes for filtering.

use std::collections::HashMap;

use crate::ast::{Op, Predicate, Value};
use crate::datatypes::FilterError;

/// The processing layer at which a predicate can be decided (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FilterLayer {
    /// Decidable per packet from headers (L2–L4).
    Packet,
    /// Decidable once the L7 protocol has been probed.
    Connection,
    /// Decidable once an application-layer session has been parsed.
    Session,
}

/// Type of a filterable field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Unsigned integer.
    Int,
    /// String.
    Str,
    /// IP address.
    Ip,
}

/// A filterable field exposed by a protocol module.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name (`port`, `sni`, …).
    pub name: &'static str,
    /// Field type, used to type-check predicates at compile time.
    pub ty: FieldType,
}

/// A protocol module's filter-relevant metadata.
#[derive(Debug, Clone)]
pub struct ProtocolDef {
    /// Protocol name as written in filters.
    pub name: &'static str,
    /// Layer at which the protocol's *identity* is established: `Packet`
    /// for header protocols, `Connection` for L7 protocols (whose fields
    /// are then `Session`-layer).
    pub layer: FilterLayer,
    /// Protocols this one can be encapsulated in (empty for the root).
    pub parents: Vec<&'static str>,
    /// Filterable fields.
    pub fields: Vec<FieldDef>,
}

impl ProtocolDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// The layer at which a predicate on this protocol is decided.
    pub fn predicate_layer(&self, is_unary: bool) -> FilterLayer {
        match (self.layer, is_unary) {
            (FilterLayer::Packet, _) => FilterLayer::Packet,
            (FilterLayer::Connection, true) => FilterLayer::Connection,
            (FilterLayer::Connection, false) => FilterLayer::Session,
            (FilterLayer::Session, _) => FilterLayer::Session,
        }
    }
}

/// Registry of protocol modules known to the filter compiler.
#[derive(Debug, Clone)]
pub struct ProtocolRegistry {
    protos: HashMap<&'static str, ProtocolDef>,
}

impl Default for ProtocolRegistry {
    /// The built-in protocol set: Ethernet, IPv4/6, TCP/UDP/ICMP at the
    /// packet layer; TLS, HTTP, DNS, SSH at the connection layer.
    fn default() -> Self {
        let mut r = ProtocolRegistry {
            protos: HashMap::new(),
        };
        r.register(ProtocolDef {
            name: "eth",
            layer: FilterLayer::Packet,
            parents: vec![],
            fields: vec![],
        });
        r.register(ProtocolDef {
            name: "ipv4",
            layer: FilterLayer::Packet,
            parents: vec!["eth"],
            fields: vec![
                FieldDef {
                    name: "addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "src_addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "dst_addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "ttl",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "total_len",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "ipv6",
            layer: FilterLayer::Packet,
            parents: vec!["eth"],
            fields: vec![
                FieldDef {
                    name: "addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "src_addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "dst_addr",
                    ty: FieldType::Ip,
                },
                FieldDef {
                    name: "hop_limit",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "tcp",
            layer: FilterLayer::Packet,
            parents: vec!["ipv4", "ipv6"],
            fields: vec![
                FieldDef {
                    name: "port",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "src_port",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "dst_port",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "window",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "udp",
            layer: FilterLayer::Packet,
            parents: vec!["ipv4", "ipv6"],
            fields: vec![
                FieldDef {
                    name: "port",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "src_port",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "dst_port",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "icmp",
            layer: FilterLayer::Packet,
            parents: vec!["ipv4", "ipv6"],
            fields: vec![
                FieldDef {
                    name: "type",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "code",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "tls",
            layer: FilterLayer::Connection,
            parents: vec!["tcp"],
            fields: vec![
                FieldDef {
                    name: "sni",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "version",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "cipher",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "alpn",
                    ty: FieldType::Str,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "http",
            layer: FilterLayer::Connection,
            parents: vec!["tcp"],
            fields: vec![
                FieldDef {
                    name: "method",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "uri",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "host",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "user_agent",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "status",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "content_length",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "dns",
            layer: FilterLayer::Connection,
            parents: vec!["udp", "tcp"],
            fields: vec![
                FieldDef {
                    name: "query_name",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "query_type",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "resp_code",
                    ty: FieldType::Int,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "quic",
            layer: FilterLayer::Connection,
            parents: vec!["udp"],
            fields: vec![
                FieldDef {
                    name: "version",
                    ty: FieldType::Int,
                },
                FieldDef {
                    name: "dcid",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "scid",
                    ty: FieldType::Str,
                },
            ],
        });
        r.register(ProtocolDef {
            name: "ssh",
            layer: FilterLayer::Connection,
            parents: vec!["tcp"],
            fields: vec![
                FieldDef {
                    name: "client_banner",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "server_banner",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "kex_algorithms",
                    ty: FieldType::Str,
                },
                FieldDef {
                    name: "host_key_algorithms",
                    ty: FieldType::Str,
                },
            ],
        });
        r
    }
}

impl ProtocolRegistry {
    /// An empty registry (for building fully custom protocol sets).
    pub fn empty() -> Self {
        ProtocolRegistry {
            protos: HashMap::new(),
        }
    }

    /// Registers (or replaces) a protocol module.
    pub fn register(&mut self, def: ProtocolDef) {
        self.protos.insert(def.name, def);
    }

    /// Looks up a protocol by name.
    pub fn get(&self, name: &str) -> Option<&ProtocolDef> {
        self.protos.get(name)
    }

    /// All root-to-protocol chains for `name` (e.g. `tls` yields
    /// `[eth, ipv4, tcp, tls]` and `[eth, ipv6, tcp, tls]`).
    pub fn chains(&self, name: &str) -> Vec<Vec<&'static str>> {
        let Some(def) = self.get(name) else {
            return vec![];
        };
        if def.parents.is_empty() {
            return vec![vec![def.name]];
        }
        let mut out = Vec::new();
        for parent in &def.parents {
            for mut chain in self.chains(parent) {
                chain.push(def.name);
                out.push(chain);
            }
        }
        out
    }

    /// Type-checks a predicate: known protocol, known field, operator and
    /// value compatible with the field type. Also checks each regex's
    /// syntax and size (`rematch::POSITION_CAP`) to surface errors at
    /// filter-compile time.
    pub fn check(&self, pred: &Predicate) -> Result<(), FilterError> {
        let proto = self
            .get(pred.protocol())
            .ok_or_else(|| FilterError::UnknownProtocol(pred.protocol().to_string()))?;
        let Predicate::Binary {
            field, op, value, ..
        } = pred
        else {
            return Ok(());
        };
        let fdef = proto
            .field(field)
            .ok_or_else(|| FilterError::UnknownField(proto.name.to_string(), field.clone()))?;
        let ok = match (fdef.ty, op, value) {
            (
                FieldType::Int,
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge,
                Value::Int(_),
            ) => true,
            (FieldType::Int, Op::In, Value::IntRange(..)) => true,
            (FieldType::Str, Op::Eq | Op::Ne, Value::Str(_)) => true,
            (FieldType::Str, Op::Matches, Value::Str(pat)) => {
                // Parse and size only: `Program::lower` builds each
                // pattern's automaton once per filter build.
                retina_support::rematch::Regex::check(pat)
                    .map_err(|e| FilterError::BadRegex(e.to_string()))?;
                true
            }
            (FieldType::Ip, Op::Eq | Op::Ne | Op::In, Value::Ipv4Net(..) | Value::Ipv6Net(..)) => {
                true
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(FilterError::TypeMismatch(format!(
                "{} {} {} on {:?} field '{}.{}'",
                pred.protocol(),
                op,
                value,
                fdef.ty,
                proto.name,
                field,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_protocols_present() {
        let r = ProtocolRegistry::default();
        for name in [
            "eth", "ipv4", "ipv6", "tcp", "udp", "icmp", "tls", "http", "dns", "ssh",
        ] {
            assert!(r.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn chains_for_tls() {
        let r = ProtocolRegistry::default();
        let chains = r.chains("tls");
        assert_eq!(
            chains,
            vec![
                vec!["eth", "ipv4", "tcp", "tls"],
                vec!["eth", "ipv6", "tcp", "tls"]
            ]
        );
    }

    #[test]
    fn chains_for_dns_cover_udp_and_tcp() {
        let r = ProtocolRegistry::default();
        let chains = r.chains("dns");
        assert_eq!(chains.len(), 4); // {v4,v6} x {udp,tcp}
        assert!(chains.contains(&vec!["eth", "ipv4", "udp", "dns"]));
        assert!(chains.contains(&vec!["eth", "ipv6", "tcp", "dns"]));
    }

    #[test]
    fn chains_for_root() {
        let r = ProtocolRegistry::default();
        assert_eq!(r.chains("eth"), vec![vec!["eth"]]);
        assert!(r.chains("nonexistent").is_empty());
    }

    #[test]
    fn predicate_layers() {
        let r = ProtocolRegistry::default();
        assert_eq!(
            r.get("tcp").unwrap().predicate_layer(true),
            FilterLayer::Packet
        );
        assert_eq!(
            r.get("tcp").unwrap().predicate_layer(false),
            FilterLayer::Packet
        );
        assert_eq!(
            r.get("tls").unwrap().predicate_layer(true),
            FilterLayer::Connection
        );
        assert_eq!(
            r.get("tls").unwrap().predicate_layer(false),
            FilterLayer::Session
        );
    }

    #[test]
    fn typecheck_accepts_valid() {
        let r = ProtocolRegistry::default();
        for src in [
            "tcp.port = 443",
            "tcp.port in 80..100",
            "ipv4.addr in 10.0.0.0/8",
            "ipv6.addr = 2001:db8::1",
            "tls.sni matches 'netflix'",
            "http.user_agent = 'curl'",
            "ipv4.ttl > 64",
        ] {
            let crate::ast::Expr::Predicate(p) = crate::parser::parse(src).unwrap() else {
                unreachable!()
            };
            r.check(&p).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn typecheck_rejects_invalid() {
        let r = ProtocolRegistry::default();
        for src in [
            "bogus.field = 1",             // unknown protocol
            "tcp.bogus = 1",               // unknown field
            "tcp.port = 'x'",              // int field, string value
            "tcp.port matches 'x'",        // regex on int field
            "tls.sni > 5",                 // ordering on string field
            "tls.sni matches '[unclosed'", // bad regex
            "ipv4.addr > 10",              // ordering on ip field
        ] {
            let crate::ast::Expr::Predicate(p) = crate::parser::parse(src).unwrap() else {
                unreachable!()
            };
            assert!(r.check(&p).is_err(), "{src} should be rejected");
        }
    }

    #[test]
    fn typecheck_rejects_regexes_past_the_position_cap() {
        let r = ProtocolRegistry::default();
        for src in [
            "tls.sni ~ 'a{100000}'",
            "http.uri ~ 'a{4294967295}'",
            "tls.sni ~ '(){4294967295}'",
            "http.uri ~ '((?:){65535}){65535}'",
        ] {
            let crate::ast::Expr::Predicate(p) = crate::parser::parse(src).unwrap() else {
                unreachable!()
            };
            let Err(FilterError::BadRegex(msg)) = r.check(&p) else {
                panic!("{src} should be rejected as a bad regex");
            };
            let cap = retina_support::rematch::POSITION_CAP;
            assert!(msg.contains(&format!("cap of {cap}")), "{src}: {msg}");
        }
    }

    #[test]
    fn custom_protocol_registration() {
        // §3.3: users can extend the filter language with new protocols.
        let mut r = ProtocolRegistry::default();
        r.register(ProtocolDef {
            name: "quic",
            layer: FilterLayer::Connection,
            parents: vec!["udp"],
            fields: vec![FieldDef {
                name: "sni",
                ty: FieldType::Str,
            }],
        });
        assert_eq!(r.chains("quic").len(), 2);
        let crate::ast::Expr::Predicate(p) = crate::parser::parse("quic.sni matches 'x'").unwrap()
        else {
            unreachable!()
        };
        r.check(&p).unwrap();
    }
}
