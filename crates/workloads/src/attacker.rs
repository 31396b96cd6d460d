//! Attack-tool models: http-load and ApacheBench (Table 1's DoS rows).
//!
//! * [`AttackTool::HttpLoad`] — open-loop: fires requests at a constant
//!   aggregate rate regardless of responses, spread over a botnet of
//!   client addresses ("manipulates a group of recruited agents", §2).
//! * [`AttackTool::ApacheBench`] — closed-loop: holds `concurrency`
//!   requests outstanding; a new one is sent only when one completes
//!   (AB's `-c` flag). Closed-loop attacks self-throttle when the victim
//!   slows down — one reason open-loop floods are the more dangerous
//!   power weapon.
//!
//! Every flood is an [`AttackVector`](crate::vector::AttackVector):
//! [`AttackVector::against_service`](crate::vector::AttackVector::against_service)
//! and `AttackVector::flood` build
//! the fixed-target shapes, and
//! [`AttackVector::with_rotation`](crate::vector::AttackVector::with_rotation)
//! / [`AttackVector::with_concentration`](crate::vector::AttackVector::with_concentration)
//! add the URL-rotating and rack-concentrating target plans.

pub use crate::vector::AttackTool;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floods::FloodKind;
    use crate::service::ServiceKind;
    use crate::source::{SourceEvent, TrafficSource};
    use crate::vector::AttackVector;
    use netsim::request::SourceId;
    use simcore::{SimDuration, SimTime};

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn http_load_rate_is_calibrated() {
        let mut f = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 200.0 },
            ServiceKind::CollaFilt,
            5000,
            20,
            1 << 40,
            s(0),
            s(60),
            1,
        );
        let mut count = 0;
        let mut last = SimTime::ZERO;
        while let Some(r) = f.next_request(last) {
            assert!(r.is_attack);
            assert_eq!(r.url, ServiceKind::CollaFilt.url());
            last = r.arrival;
            count += 1;
        }
        // 200 rps × 60 s = 12000 ± sampling noise.
        assert!((11_000..13_000).contains(&count), "count={count}");
    }

    #[test]
    fn bots_rotate_evenly() {
        let mut f = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 100.0 },
            ServiceKind::KMeans,
            7000,
            10,
            0,
            s(0),
            s(30),
            2,
        );
        let mut counts = std::collections::HashMap::new();
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let Some(r) = f.next_request(last) else { break };
            *counts.entry(r.source.0).or_insert(0u32) += 1;
            last = r.arrival;
        }
        assert_eq!(counts.len(), 10);
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {min}..{max}");
        assert_eq!(f.per_bot_rate(), Some(10.0));
    }

    #[test]
    fn stops_at_horizon() {
        let mut f = AttackVector::against_service(
            AttackTool::HttpLoad { rate: 1000.0 },
            ServiceKind::WordCount,
            0,
            5,
            0,
            s(10),
            s(20),
            3,
        );
        // Before start: first arrival lands at/after start.
        let r = f.next_request(s(0)).unwrap();
        assert!(r.arrival >= s(10));
        let mut last = r.arrival;
        while let Some(r) = f.next_request(last) {
            assert!(r.arrival < s(20));
            last = r.arrival;
        }
        assert!(f.next_request(s(25)).is_none());
    }

    #[test]
    fn apache_bench_respects_concurrency() {
        let mut f = AttackVector::against_service(
            AttackTool::ApacheBench { concurrency: 3 },
            ServiceKind::CollaFilt,
            0,
            3,
            0,
            s(0),
            s(100),
            4,
        );
        assert!(f.next_request(s(0)).is_some());
        assert!(f.next_request(s(0)).is_some());
        assert!(f.next_request(s(0)).is_some());
        // Window full: dormant.
        assert!(f.next_request(s(1)).is_none());
        // A completion frees a slot.
        f.feedback(s(2), SourceEvent::Completed(SourceId(0)));
        let r = f.next_request(s(2)).unwrap();
        assert_eq!(r.arrival, s(2));
        assert!(f.next_request(s(2)).is_none());
    }

    #[test]
    fn apache_bench_blocked_frees_slot() {
        let mut f = AttackVector::against_service(
            AttackTool::ApacheBench { concurrency: 1 },
            ServiceKind::KMeans,
            0,
            1,
            0,
            s(0),
            s(100),
            5,
        );
        assert!(f.next_request(s(0)).is_some());
        assert!(f.next_request(s(0)).is_none());
        f.feedback(s(1), SourceEvent::Blocked(SourceId(0)));
        assert_eq!(f.blocked_seen(), 1);
        assert!(f.next_request(s(1)).is_some());
    }

    #[test]
    fn flood_kind_construction() {
        let mut f = AttackVector::flood(
            FloodKind::SynFlood,
            10_000.0,
            0,
            100,
            0,
            s(0),
            s(10),
            6,
        );
        let r = f.next_request(s(0)).unwrap();
        assert_eq!(r.url, crate::floods::KERNEL_PATH_URL);
        assert!(r.work_gcycles < 1e-4);
        assert!(f.is_attacker());
        assert_eq!(f.label(), "SYN-Flood");
    }

    fn rotating(period_s: u64, url_space: u16, seed: u64) -> AttackVector {
        AttackVector::against_service(
            AttackTool::HttpLoad { rate: 200.0 },
            ServiceKind::CollaFilt,
            5000,
            20,
            1 << 41,
            s(0),
            s(60),
            seed,
        )
        .with_rotation(800, url_space, SimDuration::from_secs(period_s), seed)
    }

    #[test]
    fn rotation_hops_within_range() {
        let mut f = rotating(5, 8, 11);
        let mut seen = std::collections::HashSet::new();
        let mut last = SimTime::ZERO;
        while let Some(r) = f.next_request(last) {
            assert!(r.is_attack);
            assert!(
                (800..808).contains(&r.url.0),
                "url {} outside rotation range",
                r.url.0
            );
            seen.insert(r.url.0);
            last = r.arrival;
        }
        // 60 s / 5 s period = 11 rotations; repeats are avoided, so
        // several distinct URLs must appear.
        assert_eq!(f.moves(), 11);
        assert!(seen.len() >= 3, "only {} distinct URLs", seen.len());
    }

    #[test]
    fn rotation_is_deterministic_per_seed() {
        let mut a = rotating(2, 16, 9);
        let mut b = rotating(2, 16, 9);
        let mut last = SimTime::ZERO;
        loop {
            let (ra, rb) = (a.next_request(last), b.next_request(last));
            assert_eq!(ra, rb);
            match ra {
                Some(r) => last = r.arrival,
                None => break,
            }
        }
        assert_eq!(a.moves(), b.moves());
    }

    #[test]
    fn rotation_never_repeats_in_place() {
        let mut f = rotating(1, 2, 3);
        let mut prev = f.current_url();
        let mut last = SimTime::ZERO;
        while let Some(r) = f.next_request(last) {
            if r.url != prev {
                prev = r.url;
            }
            last = r.arrival;
        }
        // With a 2-URL space and in-place repeats forbidden, every one of
        // the 59 rotations flips the URL.
        assert_eq!(f.moves(), 59);
    }

    #[test]
    fn oracle_profiles_cover_the_whole_range() {
        let f = rotating(5, 8, 1);
        let profiles = f.oracle_profiles();
        assert_eq!(profiles.len(), 8);
        let expect = ServiceKind::CollaFilt.profile().intensity;
        for (url, intensity) in &profiles {
            assert!(f.url_range().unwrap().contains(&url.0));
            assert!((intensity - expect).abs() < 1e-12);
        }
        assert!(f.is_attacker());
        assert!(f.label().starts_with("rotating-http-load"));
    }

    #[test]
    fn single_url_space_is_static() {
        let mut f = rotating(5, 1, 2);
        let url = f.current_url();
        let mut last = SimTime::ZERO;
        while let Some(r) = f.next_request(last) {
            assert_eq!(r.url, url);
            last = r.arrival;
        }
    }

    fn concentrating(period_s: u64, racks: usize, seed: u64) -> AttackVector {
        AttackVector::against_service(
            AttackTool::HttpLoad { rate: 200.0 },
            ServiceKind::CollaFilt,
            5000,
            20,
            1 << 42,
            s(0),
            s(60),
            seed,
        )
        .with_concentration(racks, 900, SimDuration::from_secs(period_s), seed)
    }

    #[test]
    fn concentration_stays_in_target_congruence_class() {
        let mut f = concentrating(10, 4, 7);
        let mut last = SimTime::ZERO;
        let mut by_target = std::collections::HashMap::new();
        while let Some(r) = f.next_request(last) {
            // Retargeting runs before the request is built, so every
            // request's URL homes on the rack currently under fire.
            assert_eq!(r.url.0 as usize % 4, f.target_rack().unwrap());
            *by_target.entry(f.target_rack().unwrap()).or_insert(0u32) += 1;
            last = r.arrival;
        }
        // 60 s / 10 s period = 5 retargets; in-place repeats forbidden.
        assert_eq!(f.moves(), 5);
        assert!(by_target.len() >= 2, "never re-aimed");
    }

    #[test]
    fn concentration_is_deterministic_per_seed() {
        let mut a = concentrating(5, 8, 13);
        let mut b = concentrating(5, 8, 13);
        let mut last = SimTime::ZERO;
        loop {
            let (ra, rb) = (a.next_request(last), b.next_request(last));
            assert_eq!(ra, rb);
            match ra {
                Some(r) => last = r.arrival,
                None => break,
            }
        }
        assert_eq!(a.moves(), b.moves());
        assert_eq!(a.target_rack(), b.target_rack());
    }

    #[test]
    fn concentration_oracle_covers_every_rack() {
        let f = concentrating(10, 5, 1);
        let profiles = f.oracle_profiles();
        assert_eq!(profiles.len(), 5);
        let expect = ServiceKind::CollaFilt.profile().intensity;
        let classes: std::collections::HashSet<usize> =
            profiles.iter().map(|(u, _)| u.0 as usize % 5).collect();
        assert_eq!(classes.len(), 5, "one URL per rack congruence class");
        for (url, intensity) in &profiles {
            assert!((900..905).contains(&url.0), "url {} outside range", url.0);
            assert!((intensity - expect).abs() < 1e-12);
        }
        assert!(f.is_attacker());
        assert!(f.label().starts_with("concentrating-http-load"));
    }

    #[test]
    fn single_rack_concentration_is_static() {
        let mut f = concentrating(5, 1, 2);
        let url = f.url_for(0).unwrap();
        let mut last = SimTime::ZERO;
        while let Some(r) = f.next_request(last) {
            assert_eq!(r.url, url);
            last = r.arrival;
        }
        assert_eq!(f.target_rack().unwrap(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            AttackVector::against_service(
                AttackTool::HttpLoad { rate: 50.0 },
                ServiceKind::TextCont,
                0,
                4,
                0,
                s(0),
                s(60),
                9,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            assert_eq!(a.next_request(s(0)), b.next_request(s(0)));
        }
    }
}
