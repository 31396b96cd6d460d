//! PDF — Power-Driven Forwarding (Section 5.1/5.2, Figure 14).
//!
//! Two pieces:
//!
//! 1. **Offline profiling** ([`build_suspect_list`]): measure the power
//!    intensity of every service URL (we profile analytically against the
//!    server power model — the simulation equivalent of the paper's
//!    bench runs) and mark URLs above the threshold *suspect*.
//! 2. **Pool partition + forwarding policy** (`pdf_policy`): reserve
//!    the last `suspect_pool_size` servers as the isolated suspect pool
//!    and program the NLB with URL-split forwarding.

use netsim::error::ConfigError;
use netsim::nlb::ForwardingPolicy;
use netsim::request::UrlId;
use netsim::suspect::{FlowClass, SuspectList};
use simcore::FxHashMap;
use workloads::floods::{CONN_TABLE_URL, DNS_URL, KERNEL_PATH_URL};
use workloads::service::ServiceKind;

/// Default suspicion threshold on profiled power intensity.
///
/// Chosen between Word-Count (0.78) and Text-Cont (0.35): the three
/// kernels the paper identifies as power weapons (Colla-Filt, K-means,
/// Word-Count) are suspect; light text traffic is not.
pub const DEFAULT_SUSPECT_THRESHOLD: f64 = 0.70;

/// Profile every known URL and build the suspect list.
///
/// Unknown URLs default to *innocent* — the paper's design accepts that
/// a legitimate heavy request may be classed suspect (it still gets
/// served, on the suspect pool) but never blocks unknown traffic.
pub fn build_suspect_list(threshold: f64) -> Result<SuspectList, ConfigError> {
    build_suspect_list_with(threshold, &[])
}

/// [`build_suspect_list`] plus caller-supplied oracle profiles — used by
/// ablations that grant the offline profiler knowledge it could not have
/// in practice (e.g. the attack's rotation URL range).
pub(crate) fn build_suspect_list_with(
    threshold: f64,
    extra: &[(UrlId, f64)],
) -> Result<SuspectList, ConfigError> {
    let mut list = SuspectList::new(threshold, FlowClass::Innocent)?;
    for kind in ServiceKind::ALL {
        let p = kind.profile();
        list.set_profile(kind.url(), p.intensity)?;
    }
    // Pseudo-URLs from the flood taxonomy: profiled like any other
    // endpoint so network-layer junk lands on the innocent pool (it is
    // power-cheap) and resolver abuse is treated by its measured cost.
    list.set_profile(KERNEL_PATH_URL, 0.25)?;
    list.set_profile(DNS_URL, 0.70)?;
    list.set_profile(CONN_TABLE_URL, 0.45)?;
    for &(url, intensity) in extra {
        list.set_profile(url, intensity)?;
    }
    Ok(list)
}

/// Partition `servers` into `(innocent_pool, suspect_pool)` with the last
/// `suspect_pool_size` indices isolated.
pub(crate) fn partition_pools(
    servers: usize,
    suspect_pool_size: usize) -> (Vec<usize>, Vec<usize>,
) {
    assert!(suspect_pool_size >= 1 && suspect_pool_size < servers);
    let suspect = suspect_range(servers, suspect_pool_size);
    ((0..suspect.start).collect(), suspect.collect())
}

/// The suspect pool as a node-index range: the contiguous tail of
/// [`partition_pools`], for per-slot membership tests that must not
/// allocate or scan.
pub(crate) fn suspect_range(servers: usize, suspect_pool_size: usize) -> std::ops::Range<usize> {
    servers - suspect_pool_size..servers
}

/// The complete PDF forwarding policy for a cluster.
pub(crate) fn pdf_policy(
    servers: usize,
    suspect_pool_size: usize,
    threshold: f64,
) -> Result<ForwardingPolicy, ConfigError> {
    pdf_policy_with(servers, suspect_pool_size, threshold, &[])
}

/// [`pdf_policy`] with extra oracle profiles (see
/// [`build_suspect_list_with`]).
pub(crate) fn pdf_policy_with(
    servers: usize,
    suspect_pool_size: usize,
    threshold: f64,
    extra: &[(UrlId, f64)],
) -> Result<ForwardingPolicy, ConfigError> {
    let (innocent_pool, suspect_pool) = partition_pools(servers, suspect_pool_size);
    Ok(ForwardingPolicy::UrlSplit {
        list: build_suspect_list_with(threshold, extra)?,
        suspect_pool,
        innocent_pool,
    })
}

/// The *adaptive* PDF forwarding policy: same pool partition, but the
/// class map starts empty and is hot-swapped by the online profiler as it
/// learns. Until the first publication every URL takes the default class
/// (innocent — the paper's design never blocks unknown traffic).
pub(crate) fn adaptive_pdf_policy(servers: usize, suspect_pool_size: usize) -> ForwardingPolicy {
    let (innocent_pool, suspect_pool) = partition_pools(servers, suspect_pool_size);
    ForwardingPolicy::AdaptiveSplit {
        classes: FxHashMap::default(),
        default_class: FlowClass::Innocent,
        suspect_pool,
        innocent_pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::request::UrlId;

    #[test]
    fn paper_kernels_classified() {
        let list = build_suspect_list(DEFAULT_SUSPECT_THRESHOLD).unwrap();
        // The three attack-worthy kernels are suspect…
        assert!(list.is_suspect(ServiceKind::CollaFilt.url()));
        assert!(list.is_suspect(ServiceKind::KMeans.url()));
        assert!(list.is_suspect(ServiceKind::WordCount.url()));
        // …light traffic and kernel-path junk are not.
        assert!(!list.is_suspect(ServiceKind::TextCont.url()));
        assert!(!list.is_suspect(KERNEL_PATH_URL));
        assert!(!list.is_suspect(UrlId(999))); // unknown → innocent
    }

    #[test]
    fn threshold_is_a_knob() {
        // A paranoid threshold sweeps in everything profiled above it.
        let strict = build_suspect_list(0.3).unwrap();
        assert!(strict.is_suspect(ServiceKind::TextCont.url()));
        let lax = build_suspect_list(0.95).unwrap();
        assert!(lax.is_suspect(ServiceKind::CollaFilt.url()));
        assert!(!lax.is_suspect(ServiceKind::KMeans.url()));
    }

    #[test]
    fn pools_partition_cleanly() {
        let (innocent, suspect) = partition_pools(4, 1);
        assert_eq!(innocent, vec![0, 1, 2]);
        assert_eq!(suspect, vec![3]);
        let (innocent, suspect) = partition_pools(16, 2);
        assert_eq!(innocent.len(), 14);
        assert_eq!(suspect, vec![14, 15]);
    }

    #[test]
    fn suspect_range_matches_the_partitioned_pool() {
        for (servers, pool) in [(2, 1), (4, 1), (16, 2), (10, 9), (1000, 50)] {
            let (_, suspect) = partition_pools(servers, pool);
            let range = suspect_range(servers, pool);
            for i in 0..servers {
                assert_eq!(range.contains(&i), suspect.contains(&i), "{servers}/{pool} node {i}");
            }
        }
    }

    #[test]
    fn policy_is_wellformed() {
        let policy = pdf_policy(4, 1, DEFAULT_SUSPECT_THRESHOLD).unwrap();
        let ForwardingPolicy::UrlSplit {
            list,
            suspect_pool,
            innocent_pool,
        } = policy
        else {
            panic!("expected UrlSplit");
        };
        assert_eq!(suspect_pool, vec![3]);
        assert_eq!(innocent_pool, vec![0, 1, 2]);
        assert!(list.profiled() >= 7);
    }

    #[test]
    #[should_panic]
    fn partition_rejects_no_innocents() {
        partition_pools(4, 4);
    }

    #[test]
    fn bad_threshold_is_a_typed_error() {
        assert!(matches!(
            build_suspect_list(1.5),
            Err(ConfigError::Threshold { .. })
        ));
        assert!(matches!(
            pdf_policy(4, 1, -0.1),
            Err(ConfigError::Threshold { .. })
        ));
    }

    #[test]
    fn oracle_extras_extend_the_list() {
        let list = build_suspect_list_with(DEFAULT_SUSPECT_THRESHOLD, &[(UrlId(900), 0.97)])
            .unwrap();
        assert!(list.is_suspect(UrlId(900)));
        // Out-of-range extras are rejected like any profile.
        assert!(build_suspect_list_with(0.7, &[(UrlId(901), 1.5)]).is_err());
    }

    #[test]
    fn adaptive_policy_starts_unclassified() {
        let policy = adaptive_pdf_policy(4, 1);
        let ForwardingPolicy::AdaptiveSplit {
            classes,
            default_class,
            suspect_pool,
            innocent_pool,
        } = policy
        else {
            panic!("expected AdaptiveSplit");
        };
        assert!(classes.is_empty());
        assert_eq!(default_class, FlowClass::Innocent);
        assert_eq!(suspect_pool, vec![3]);
        assert_eq!(innocent_pool, vec![0, 1, 2]);
    }
}
