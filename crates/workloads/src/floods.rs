//! The layered flood taxonomy of Figure 3.
//!
//! The paper measures the power profile of "typical network flood
//! targeting different layers with widely used tools" and finds that
//! application-layer attacks (HTTP flood, DNS flood) drive far higher
//! power than network-layer volume attacks (SYN/UDP/ICMP), because only
//! app-layer requests reach the task-intensive service code. Each flood
//! kind here carries the per-"request" demand parameters that reproduce
//! that ordering: network-layer packets cost microseconds of kernel CPU;
//! app-layer queries invoke the full EC service stack.

use netsim::request::UrlId;

/// Which protocol layer a flood targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodLayer {
    /// L3/L4 volume attacks: exhaust connectivity, not CPU.
    Network,
    /// L7 attacks: exercise the application and burn server resources.
    Application,
}

/// The flood kinds measured in Fig 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloodKind {
    /// HTTP GET flood against the EC application (http-load / AB style).
    HttpFlood,
    /// DNS query flood against the resolver tier.
    DnsFlood,
    /// Slowloris-style connection-exhaustion attack.
    Slowloris,
    /// TCP SYN flood.
    SynFlood,
    /// UDP datagram flood.
    UdpFlood,
    /// ICMP echo flood.
    IcmpFlood,
}

/// Per-"request" demand a flood packet/query places on a victim node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodParams {
    /// URL (service endpoint) the traffic resolves to. Network-layer
    /// floods use a reserved kernel-path pseudo-URL.
    pub url: UrlId,
    /// Compute demand per packet/query, G-cycles.
    pub work_gcycles: f64,
    /// CPU-boundedness of the handling path.
    pub beta: f64,
    /// Power intensity while handling.
    pub intensity: f64,
    /// DVFS power sensitivity.
    pub gamma: f64,
}

/// Pseudo-URL for kernel-path (network-layer) processing.
pub const KERNEL_PATH_URL: UrlId = UrlId(100);
/// Pseudo-URL for the DNS resolver tier.
pub const DNS_URL: UrlId = UrlId(101);
/// Pseudo-URL for connection-table handling (Slowloris).
pub const CONN_TABLE_URL: UrlId = UrlId(102);

impl FloodKind {
    /// All kinds, app layer first (Fig 3 legend order).
    pub const ALL: [FloodKind; 6] = [
        FloodKind::HttpFlood,
        FloodKind::DnsFlood,
        FloodKind::Slowloris,
        FloodKind::SynFlood,
        FloodKind::UdpFlood,
        FloodKind::IcmpFlood,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FloodKind::HttpFlood => "HTTP-Flood",
            FloodKind::DnsFlood => "DNS-Flood",
            FloodKind::Slowloris => "Slowloris",
            FloodKind::SynFlood => "SYN-Flood",
            FloodKind::UdpFlood => "UDP-Flood",
            FloodKind::IcmpFlood => "ICMP-Flood",
        }
    }

    /// Target layer.
    pub fn layer(self) -> FloodLayer {
        match self {
            FloodKind::HttpFlood | FloodKind::DnsFlood | FloodKind::Slowloris => {
                FloodLayer::Application
            }
            _ => FloodLayer::Network,
        }
    }

    /// Per-request demand parameters.
    ///
    /// HTTP floods hit the heavy EC endpoints (the Word-Count URL by
    /// default — a GET-able page that reads files; the DOPE attacker
    /// upgrades to Colla-Filt after profiling). Network-layer packets
    /// cost ~2 µs of kernel CPU each.
    pub fn params(self) -> FloodParams {
        match self {
            FloodKind::HttpFlood => FloodParams {
                url: crate::service::ServiceKind::WordCount.url(),
                work_gcycles: crate::service::ServiceKind::WordCount
                    .profile()
                    .mean_work_gcycles,
                beta: 0.55,
                intensity: 0.78,
                gamma: 0.60,
            },
            FloodKind::DnsFlood => FloodParams {
                url: DNS_URL,
                work_gcycles: 0.024, // 10 ms of resolver work
                beta: 0.70,
                intensity: 0.70,
                gamma: 0.65,
            },
            FloodKind::Slowloris => FloodParams {
                url: CONN_TABLE_URL,
                work_gcycles: 0.0048, // 2 ms of connection handling
                beta: 0.40,
                intensity: 0.45,
                gamma: 0.50,
            },
            FloodKind::SynFlood => FloodParams {
                url: KERNEL_PATH_URL,
                work_gcycles: 0.000012, // ~5 µs of kernel CPU
                beta: 0.90,
                intensity: 0.25,
                gamma: 0.80,
            },
            FloodKind::UdpFlood => FloodParams {
                url: KERNEL_PATH_URL,
                work_gcycles: 0.000007,
                beta: 0.90,
                intensity: 0.20,
                gamma: 0.80,
            },
            FloodKind::IcmpFlood => FloodParams {
                url: KERNEL_PATH_URL,
                work_gcycles: 0.000005,
                beta: 0.90,
                intensity: 0.15,
                gamma: 0.80,
            },
        }
    }

    /// A characteristic tool rate for the Fig 3 "maximum attack force"
    /// scenario, requests or packets per second.
    pub fn typical_max_rate(self) -> f64 {
        match self {
            FloodKind::HttpFlood => 1_000.0,
            FloodKind::DnsFlood => 2_000.0,
            FloodKind::Slowloris => 500.0,
            FloodKind::SynFlood => 50_000.0,
            FloodKind::UdpFlood => 80_000.0,
            FloodKind::IcmpFlood => 80_000.0,
        }
    }
}

impl std::fmt::Display for FloodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_assigned() {
        assert_eq!(FloodKind::HttpFlood.layer(), FloodLayer::Application);
        assert_eq!(FloodKind::DnsFlood.layer(), FloodLayer::Application);
        assert_eq!(FloodKind::SynFlood.layer(), FloodLayer::Network);
        assert_eq!(FloodKind::UdpFlood.layer(), FloodLayer::Network);
        assert_eq!(FloodKind::IcmpFlood.layer(), FloodLayer::Network);
    }

    #[test]
    fn network_floods_touch_kernel_path() {
        for k in [FloodKind::SynFlood, FloodKind::UdpFlood, FloodKind::IcmpFlood] {
            assert_eq!(k.params().url, KERNEL_PATH_URL);
            assert!(k.params().work_gcycles < 1e-4);
        }
    }

    #[test]
    fn http_flood_targets_real_service() {
        let p = FloodKind::HttpFlood.params();
        assert_eq!(p.url, crate::service::ServiceKind::WordCount.url());
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> =
            FloodKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FloodKind::ALL.len());
    }
}
