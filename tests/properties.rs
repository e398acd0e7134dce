//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use proptest::prelude::*;

use microfaas_services::kvstore::{Command, Reply};
use microfaas_services::mqueue::Broker;
use microfaas_services::objstore::ObjectStore;
use microfaas_sim::{EventQueue, SimDuration, SimTime, TimeWeighted};
use microfaas_workloads::algorithms::aes128::{decrypt_cbc, encrypt_cbc};
use microfaas_workloads::algorithms::deflate::{compress, inflate};
use microfaas_workloads::algorithms::md5::md5;
use microfaas_workloads::algorithms::sha256::{sha256, Sha256};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(feature = "heavy-tests") { 1024 } else { 256 }
    ))]

    /// Events always come back in non-decreasing time order, regardless
    /// of insertion order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "time went backwards");
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Same-time events preserve scheduling order (FIFO tie-break).
    #[test]
    fn event_queue_fifo_at_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// DEFLATE round-trips arbitrary byte strings.
    #[test]
    fn deflate_round_trip(data in prop::collection::vec(any::<u8>(), 0..4_096)) {
        let packed = compress(&data);
        prop_assert_eq!(inflate(&packed).expect("own output is valid"), data);
    }

    /// DEFLATE round-trips highly repetitive data (exercises long matches
    /// and overlapping copies).
    #[test]
    fn deflate_round_trip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..8),
        repeats in 1usize..2_000,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * repeats).collect();
        let packed = compress(&data);
        prop_assert_eq!(inflate(&packed).expect("own output is valid"), data);
    }

    /// The inflater never panics on arbitrary garbage.
    #[test]
    fn inflate_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..2_048)) {
        let _ = inflate(&garbage);
    }

    /// AES-CBC round-trips any plaintext with any key/IV.
    #[test]
    fn aes_cbc_round_trip(
        plaintext in prop::collection::vec(any::<u8>(), 0..1_024),
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
    ) {
        let ciphertext = encrypt_cbc(&plaintext, &key, &iv);
        prop_assert_eq!(ciphertext.len() % 16, 0);
        prop_assert!(ciphertext.len() > plaintext.len());
        prop_assert_eq!(decrypt_cbc(&ciphertext, &key, &iv).expect("round trip"), plaintext);
    }

    /// Incremental SHA-256 equals one-shot for any split points.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2_048),
        split_frac in 0.0f64..1.0,
    ) {
        let split = (data.len() as f64 * split_frac) as usize;
        let mut hasher = Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), sha256(&data));
    }

    /// Distinct inputs give distinct digests (no trivial collisions in
    /// small random samples).
    #[test]
    fn hashes_distinguish_inputs(a in prop::collection::vec(any::<u8>(), 0..256),
                                 b in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
        prop_assert_ne!(md5(&a), md5(&b));
    }

    /// RESP commands survive an encode/decode round trip.
    #[test]
    fn resp_command_round_trip(key in "[a-z]{1,16}", value in prop::collection::vec(any::<u8>(), 0..256)) {
        let cmd = Command::Set(key, value);
        prop_assert_eq!(Command::decode(&cmd.encode()).expect("round trip"), cmd);
    }

    /// RESP replies survive an encode/decode round trip.
    #[test]
    fn resp_reply_round_trip(n in any::<i64>(), payload in prop::collection::vec(any::<u8>(), 0..128)) {
        for reply in [Reply::Integer(n), Reply::Bulk(payload.clone()), Reply::Null] {
            prop_assert_eq!(Reply::decode(&reply.encode()).expect("round trip"), reply);
        }
    }

    /// Broker offsets are dense and strictly increasing per partition.
    #[test]
    fn broker_offsets_dense(messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..64)) {
        let mut broker = Broker::new();
        broker.create_topic("t", 1).expect("fresh");
        for (i, message) in messages.iter().enumerate() {
            let (partition, offset) = broker
                .produce("t", None, message.clone())
                .expect("topic exists");
            prop_assert_eq!(partition, 0);
            prop_assert_eq!(offset, i as u64);
        }
        let fetched = broker.fetch("t", 0, 0, usize::MAX).expect("fetch");
        prop_assert_eq!(fetched.len(), messages.len());
        for (i, message) in fetched.iter().enumerate() {
            prop_assert_eq!(message.offset, i as u64);
            prop_assert_eq!(&message.value, &messages[i]);
        }
    }

    /// Object-store list(prefix) returns exactly the matching keys.
    #[test]
    fn objstore_list_prefix_exact(keys in prop::collection::btree_set("[a-z/]{1,12}", 0..20), prefix in "[a-z/]{0,3}") {
        let mut store = ObjectStore::new();
        store.create_bucket("b").expect("fresh");
        for key in &keys {
            store.put("b", key, vec![], "x").expect("bucket exists");
        }
        let listed = store.list("b", &prefix).expect("bucket exists");
        let expected: Vec<String> = keys
            .iter()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        prop_assert_eq!(listed, expected);
    }

    /// SBC lifecycle random walk: whatever transition sequence is
    /// taken, legal transitions succeed and illegal ones are always
    /// rejected without corrupting state.
    #[test]
    fn sbc_fsm_rejects_illegal_transitions(steps in prop::collection::vec(0u8..6, 1..60)) {
        use microfaas_hw::sbc::{SbcNode, SbcState};

        let mut node = SbcNode::default();
        for &step in &steps {
            let before = node.state();
            let result = match step {
                0 => node.power_on(),
                1 => node.boot_complete(),
                2 => node.start_job(),
                3 => node.finish_job_and_reboot(),
                4 => node.finish_job_and_power_off(),
                _ => node.power_off(),
            };
            let legal = matches!(
                (before, step),
                (SbcState::Off, 0)
                    | (SbcState::Booting | SbcState::Rebooting, 1)
                    | (SbcState::Idle, 2)
                    | (SbcState::Executing, 3 | 4)
                    | (SbcState::Idle, 5)
            );
            prop_assert_eq!(result.is_ok(), legal, "step {} from {}", step, before);
            if !legal {
                prop_assert_eq!(node.state(), before, "failed transition must not move");
            }
        }
    }

    /// Time-weighted integration is additive over adjacent windows.
    #[test]
    fn time_weighted_additivity(values in prop::collection::vec(0.0f64..100.0, 1..20)) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = SimTime::ZERO;
        for (i, &v) in values.iter().enumerate() {
            t = SimTime::from_secs((i + 1) as u64);
            tw.set(t, v);
        }
        let mid = t + SimDuration::from_secs(3);
        let end = mid + SimDuration::from_secs(5);
        let whole = tw.integral(end);
        let first = tw.integral(mid);
        // integral(end) - integral(mid) must equal value * 5 s.
        prop_assert!((whole - first - tw.value() * 5.0).abs() < 1e-9);
    }
}
