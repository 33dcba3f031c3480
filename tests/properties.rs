//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use quicert::compress::lz77::{detokenize, tokenize, Params};
use quicert::compress::{compress, decompress, Algorithm};
use quicert::netsim::SimRng;
use quicert::x509::der;
use quicert::x509::{
    AttrKind, CertificateBuilder, DistinguishedName, Extension, KeyAlgorithm, Name, SanNames,
    SignatureAlgorithm, SubjectPublicKeyInfo,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compression_roundtrips_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for alg in Algorithm::ALL {
            let c = compress(alg, &input);
            let back = decompress(&c, alg.dictionary()).expect("decompress");
            prop_assert_eq!(&back, &input, "{} roundtrip", alg);
        }
    }

    #[test]
    fn compression_roundtrips_repetitive_bytes(
        unit in proptest::collection::vec(any::<u8>(), 1..64),
        reps in 1usize..200,
    ) {
        let input: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        for alg in Algorithm::ALL {
            let c = compress(alg, &input);
            let back = decompress(&c, alg.dictionary()).expect("decompress");
            prop_assert_eq!(&back, &input);
            // Repetitive input beyond a few copies must actually shrink.
            if input.len() > 512 {
                prop_assert!(c.len() < input.len());
            }
        }
    }

    #[test]
    fn compression_is_the_same_bytes_whatever_the_thread_compressed_before(
        letters in proptest::collection::vec(0u8..5, 0..3000),
        splice_at in 0usize..2000,
        splice_len in 0usize..200,
        others in proptest::collection::vec(proptest::collection::vec(0u8..5, 0..1500), 0..6),
    ) {
        // A few letters, so four-grams repeat, around a slice of the
        // certificate dictionary, so the brotli profile reaches into it.
        let dict = Algorithm::Brotli.dictionary();
        let mut input = letters;
        let at = splice_at.min(input.len());
        let slice = &dict[splice_at..(splice_at + splice_len).min(dict.len())];
        input.splice(at..at, slice.iter().copied());

        // A thread that has never compressed anything.
        let fresh = {
            let input = input.clone();
            std::thread::spawn(move || Algorithm::ALL.map(|alg| compress(alg, &input)))
                .join()
                .expect("fresh thread")
        };
        // This thread has: earlier cases, and now `others` under every
        // profile and as dictionary-plus-input pairs of the raw tokenizer.
        for (i, other) in others.iter().enumerate() {
            match Algorithm::ALL.get(i % 4) {
                Some(&alg) => drop(compress(alg, other)),
                None => {
                    let (own_dict, rest) = other.split_at(other.len() / 3);
                    let params = Params { window: 512, min_match: 4, lazy: i % 8 == 3 };
                    let tokens = tokenize(own_dict, rest, params);
                    prop_assert_eq!(&detokenize(own_dict, &tokens), rest);
                }
            }
        }
        for (alg, fresh) in Algorithm::ALL.into_iter().zip(&fresh) {
            prop_assert_eq!(&compress(alg, &input), fresh, "{} after other calls", alg);
            prop_assert_eq!(&compress(alg, &input), fresh, "{} twice in a row", alg);
        }
    }

    #[test]
    fn lz_roundtrips_under_an_arbitrary_dictionary(
        dict in proptest::collection::vec(0u8..4, 0..300),
        input in proptest::collection::vec(0u8..4, 0..2000),
        window in 1usize..4096,
        min_match in 4usize..9,
        lazy in 0u8..2,
    ) {
        let params = Params { window, min_match, lazy: lazy == 1 };
        let tokens = tokenize(&dict, &input, params);
        prop_assert_eq!(&detokenize(&dict, &tokens), &input);
    }

    #[test]
    fn quic_varints_roundtrip(v in 0u64..(1 << 62)) {
        let mut buf = Vec::new();
        quicert::quic::varint::write(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(quicert::quic::varint::read(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(buf.len(), quicert::quic::varint::len(v));
    }

    #[test]
    fn der_integers_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let enc = der::encoded(|w| w.integer_bytes(&bytes));
        let parsed = der::parse_one(&enc).expect("well-formed");
        prop_assert_eq!(parsed.tag, 0x02);
        // DER integers are minimal: no redundant leading zero unless needed
        // for sign.
        if parsed.content.len() > 1 {
            prop_assert!(parsed.content[0] != 0 || parsed.content[1] & 0x80 != 0);
        }
    }

    #[test]
    fn certificates_with_arbitrary_names_are_wellformed(
        cn in "[a-z]{1,40}\\.[a-z]{2,6}",
        org in "[A-Za-z ]{1,40}",
        san_count in 0usize..40,
        seed in any::<u64>(),
    ) {
        let sans: Vec<String> = (0..san_count).map(|i| format!("alt{i}.{cn}")).collect();
        let sans: Vec<&str> = sans.iter().map(String::as_str).collect();
        let issuer = DistinguishedName::new()
            .with(AttrKind::Country, "US")
            .with(AttrKind::Organization, org)
            .with(AttrKind::CommonName, "Prop CA");
        let cert = CertificateBuilder::new(
            &issuer,
            Name::Cn(&cn),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, seed),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extensions(&[Extension::SubjectAltNames(SanNames::listed(&sans))])
        .build();
        // The whole certificate parses as nested DER.
        let parsed = der::parse_one(cert.der()).expect("certificate parses");
        prop_assert_eq!(parsed.children().unwrap().len(), 3);
        // Field attribution always accounts for every byte.
        prop_assert_eq!(cert.field_sizes().total(), cert.der_len());
    }

    #[test]
    fn rng_below_is_always_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    // What the world's QUIC decision stands on: skipping `n` draws leaves
    // the stream exactly where `n` discarded draws would.
    #[test]
    fn rng_skip_equals_that_many_discarded_draws(seed in any::<u64>(), n in 0u64..2_048) {
        let mut skipped = SimRng::new(seed);
        skipped.skip(n);
        let mut drawn = SimRng::new(seed);
        for _ in 0..n {
            drawn.next_u64();
        }
        for _ in 0..4 {
            prop_assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
    }

    #[test]
    fn cdf_quantiles_are_monotone(samples in proptest::collection::vec(0.0f64..1e9, 1..200)) {
        let cdf = quicert::analysis::Cdf::new(samples);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = cdf.quantile(i as f64 / 20.0);
            prop_assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn frames_roundtrip(offset in 0u64..1_000_000, data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        use quicert::quic::frame::FrameRef;
        use quicert::quic::packet::{parse_datagram_ref, ConnectionId, Header, PacketType, ParsedDatagram};
        let frames = [
            FrameRef::Ack { largest: offset % 100, delay: 3, first_range: offset % 100 },
            FrameRef::Crypto { offset, data: &data },
            FrameRef::Padding { n: 17 },
        ];
        // Frames are decoded as part of the datagram that carries them.
        let cid = ConnectionId::from_seed(offset);
        let header = Header { ty: PacketType::Handshake, dcid: &cid, scid: &cid, token: &[], number: 1 };
        let mut buf = Vec::new();
        header.encode_into(&mut buf, frames, 0);
        let mut parsed = ParsedDatagram::default();
        let mut packets = parse_datagram_ref(&buf, &mut parsed).expect("decode");
        let decoded: Vec<_> = packets.next().expect("one packet").frames.collect();
        prop_assert_eq!(decoded, frames);
    }
}

mod packet_properties {
    use proptest::prelude::*;
    use quicert::netsim::SimRng;
    use quicert::quic::frame::FrameRef;
    use quicert::quic::packet::{
        parse_datagram_ref, ConnectionId, Header, PacketType, ParsedDatagram,
    };

    /// `len` bytes from a random position of `pool`.
    fn slice<'p>(rng: &mut SimRng, pool: &'p [u8], len: usize) -> &'p [u8] {
        let at = rng.below((pool.len() - len + 1) as u64) as usize;
        &pool[at..at + len]
    }

    /// Up to five frames of every kind an endpoint writes, CRYPTO data
    /// borrowed from `pool`. Never two PADDING runs in a row: the parser
    /// reads adjacent runs back as one.
    fn frames<'p>(rng: &mut SimRng, pool: &'p [u8]) -> Vec<FrameRef<'p>> {
        let mut out = Vec::new();
        for _ in 0..rng.below(6) {
            let frame = match rng.below(5) {
                0 => FrameRef::Ping,
                1 => FrameRef::Ack {
                    largest: rng.below(1 << 16),
                    delay: rng.below(1 << 14),
                    first_range: rng.below(1 << 8),
                },
                2 => {
                    let len = rng.below(600) as usize;
                    FrameRef::Crypto {
                        offset: rng.below(1 << 20),
                        data: slice(rng, pool, len),
                    }
                }
                3 => FrameRef::ConnectionClose {
                    error_code: rng.below(1 << 16),
                },
                _ => FrameRef::Padding {
                    n: 1 + rng.below(40) as usize,
                },
            };
            if !matches!(
                (out.last(), frame),
                (Some(FrameRef::Padding { .. }), FrameRef::Padding { .. })
            ) {
                out.push(frame);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Two packets coalesced into one datagram — the first a long
        // header, the second any type an endpoint sends, a 1-RTT packet
        // always last — each with CIDs of 0–20 bytes (8 for a 1-RTT DCID,
        // the length the short-header parser assumes), a token on
        // Initials, a 16-bit packet number, frames and in-envelope
        // padding: the arithmetic length is what the encoder writes, and
        // the parser returns every field the wire carries.
        #[test]
        fn coalesced_packets_roundtrip_field_for_field(seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            let pool: Vec<u8> = (0..2048).map(|_| rng.below(256) as u8).collect();
            let long = [PacketType::Initial, PacketType::Handshake];
            let any = [PacketType::Initial, PacketType::Handshake, PacketType::OneRtt];
            let types = [long[rng.below(2) as usize], any[rng.below(3) as usize]];
            let cids: Vec<[ConnectionId; 2]> = types
                .iter()
                .map(|&ty| {
                    let dcid_len = if ty == PacketType::OneRtt { 8 } else { rng.below(21) };
                    let lens = [dcid_len, rng.below(21)];
                    lens.map(|len| ConnectionId::new(slice(&mut rng, &pool, len as usize)))
                })
                .collect();
            let packets: Vec<_> = types
                .iter()
                .zip(&cids)
                .map(|(&ty, [dcid, scid])| {
                    let token: &[u8] = if ty == PacketType::Initial {
                        let len = rng.below(65) as usize;
                        slice(&mut rng, &pool, len)
                    } else {
                        &[]
                    };
                    let number = rng.below(1 << 16);
                    let header = Header { ty, dcid, scid, token, number };
                    (header, frames(&mut rng, &pool), rng.below(300) as usize)
                })
                .collect();

            let mut wire = Vec::new();
            for (header, frames, padding) in &packets {
                let at = wire.len();
                header.encode_into(&mut wire, frames.iter().copied(), *padding);
                let len = header.encoded_len(frames.iter().copied());
                prop_assert_eq!(len + padding, wire.len() - at, "{:?}", header.ty);
            }

            let mut parsed = ParsedDatagram::default();
            let parsed: Vec<_> = parse_datagram_ref(&wire, &mut parsed).expect("well-formed").collect();
            prop_assert_eq!(parsed.len(), 2);
            for ((header, frames, padding), pkt) in packets.iter().zip(&parsed) {
                let one_rtt = header.ty == PacketType::OneRtt;
                prop_assert_eq!(pkt.ty, header.ty);
                prop_assert_eq!(&pkt.dcid, header.dcid);
                let scid = if one_rtt { ConnectionId::default() } else { header.scid.clone() };
                prop_assert_eq!(&pkt.scid, &scid);
                prop_assert_eq!(pkt.token, header.token);
                prop_assert_eq!(pkt.number, header.number);
                // In-envelope padding joins a trailing PADDING run.
                let mut expected = frames.clone();
                match expected.last_mut() {
                    Some(FrameRef::Padding { n }) => *n += padding,
                    _ if *padding > 0 => expected.push(FrameRef::Padding { n: *padding }),
                    _ => {}
                }
                prop_assert_eq!(pkt.frames.clone().collect::<Vec<_>>(), expected);
                let len = header.encoded_len(frames.iter().copied());
                prop_assert_eq!(pkt.wire_len, len + padding);
            }
        }
    }
}

#[test]
fn deterministic_worlds_are_identical() {
    use quicert::pki::{CertificateEra, World, WorldConfig};
    let mk = || {
        World::streaming(WorldConfig {
            domains: 800,
            seed: 0xDE7E_2217,
        })
    };
    let (a, b) = (mk(), mk());
    let (xs, ys) = (a.domain_chunk(1, 800), b.domain_chunk(1, 800));
    assert_eq!(xs.len(), 800);
    for (x, y) in xs.iter().zip(&ys) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.has_quic(), y.has_quic());
        let era = CertificateEra::Classical;
        if let (Some(cx), Some(cy)) = (a.https_chain_era(x, era), b.https_chain_era(y, era)) {
            assert_eq!(cx.concatenated_der(), cy.concatenated_der());
        }
    }
}

mod streaming_world_properties {
    use proptest::prelude::*;
    use quicert::pki::{CertificateEra, DomainRecord, World, WorldConfig};

    /// A buffer as a reused one is found: holding a chunk of another seed's
    /// world, longer than any tile of `chunk`, whose QUIC services carry a
    /// churn overlay (a reissued, migrated certificate).
    fn stale_buffer(chunk: usize, seed: u64) -> Vec<DomainRecord> {
        let other = World::streaming(WorldConfig {
            domains: chunk + 1,
            seed: !seed,
        });
        let mut records = other.domain_chunk(1, chunk + 1);
        for quic in records.iter_mut().filter_map(|r| r.quic.as_mut()) {
            quic.cert_generation = 3;
            quic.era_override = Some(CertificateEra::PostQuantum);
        }
        records
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Streaming the domains is chunk-size invariant: `domain_chunk`s
        // tiling a random-size world at any chunk size concatenate to
        // exactly the population derived as one chunk by another world of
        // the same configuration, and `domain_chunk_into` a stale buffer
        // derives each tile field for field.
        #[test]
        fn stream_domains_is_chunk_size_invariant(
            domains in 1usize..600,
            chunk in 1usize..256,
            seed in any::<u64>(),
        ) {
            let config = WorldConfig {
                domains,
                seed,
            };
            let eager = World::streaming(config.clone()).domain_chunk(1, domains);
            let lazy = World::streaming(config);
            let stale = stale_buffer(chunk, seed);
            let mut tile = Vec::new();
            let mut seen = 0usize;
            for first in (1..=domains).step_by(chunk) {
                let chunk_records = lazy.domain_chunk(first, chunk);
                prop_assert!(!chunk_records.is_empty() && chunk_records.len() <= chunk);
                tile.clone_from(&stale);
                lazy.domain_chunk_into(first, chunk, &mut tile);
                prop_assert_eq!(&tile, &chunk_records);
                for record in &chunk_records {
                    let reference = &eager[seen];
                    prop_assert_eq!(record.rank, reference.rank);
                    prop_assert_eq!(&record.name, &reference.name);
                    prop_assert_eq!(record.seed, reference.seed);
                    prop_assert_eq!(record.has_quic(), reference.has_quic());
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, domains);
        }

        // A QUIC pass derives only QUIC services, and they are the very
        // records a full derivation yields: `quic_chunk_into` tiles at any
        // chunk size equal `domain_chunk(1, n)` filtered by `has_quic`,
        // field for field, and `serves_quic` answers `has_quic` rank for
        // rank. Each tile is derived into a stale buffer. Mutation-checked:
        // a QUIC path whose tail starts one draw late, or whose DNS address
        // is hashed from the name without its rank, fails at the first
        // case.
        #[test]
        fn quic_chunks_are_the_quic_services_of_a_full_derivation(
            domains in 1usize..600,
            chunk in 1usize..256,
            seed in any::<u64>(),
        ) {
            let world = World::streaming(WorldConfig {
                domains,
                seed,
            });
            let full = world.domain_chunk(1, domains);
            // The predicate a resident service marks segments by decides the
            // same, rank for rank, and nothing outside the population.
            for record in &full {
                prop_assert_eq!(world.serves_quic(record.rank), record.has_quic());
            }
            prop_assert!(!world.serves_quic(0) && !world.serves_quic(domains + 1));
            let expected: Vec<_> = full.into_iter().filter(|r| r.has_quic()).collect();
            let stale = stale_buffer(chunk, seed);
            let mut services = Vec::new();
            let mut tile = Vec::new();
            for first in (1..=domains).step_by(chunk) {
                tile.clone_from(&stale);
                world.quic_chunk_into(first, chunk, &mut tile);
                prop_assert!(tile.iter().all(|r| (first..first + chunk).contains(&r.rank)));
                services.extend_from_slice(&tile);
            }
            prop_assert_eq!(services, expected);
        }
    }
}

mod simnet_properties {
    use proptest::prelude::*;
    use quicert::netsim::{
        run_exchange, Datagram, Endpoint, ExchangeLimits, ExchangeScratch, FaultPlan,
        NetworkProfile, Outbox, SimDuration, SimRng, SimTime, Wire,
    };
    use quicert::pki::{CertificateEra, DomainRecord, World, WorldConfig};
    use quicert::quic::{ClientConfig, HandshakeScratch, LimitPolicy};
    use quicert::scanner::behavior::{server_config_for_era, wire_for_profile};
    use quicert::scanner::{quicreach, Scenario};
    use std::net::Ipv4Addr;
    use std::sync::OnceLock;

    const A: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);

    /// Emits one datagram per entry of `sizes` at start, all at once.
    struct Burst {
        sizes: Vec<usize>,
    }

    impl Endpoint for Burst {
        fn start(&mut self, _now: SimTime, out: &mut Outbox) {
            for &size in &self.sizes {
                out.push(Datagram::new(A, B, 1000, 443, vec![0xAB; size]));
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, _out: &mut Outbox) {}
        fn on_timer(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Records payload sizes in arrival order.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<usize>,
    }

    impl Endpoint for Recorder {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, _out: &mut Outbox) {
            self.seen.push(d.payload_len());
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// The QUIC services of one small world, derived once.
    fn services() -> &'static (World, Vec<DomainRecord>) {
        static WORLD: OnceLock<(World, Vec<DomainRecord>)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let world = World::streaming(WorldConfig {
                domains: 1_500,
                seed: 0xFA17,
            });
            let mut services = world.domain_chunk(1, world.config.domains);
            services.retain(DomainRecord::has_quic);
            (world, services)
        })
    }

    /// The handshake deadline `quicert_quic` gives every complete-handshake
    /// attempt.
    const HANDSHAKE_DEADLINE: SimDuration = SimDuration::from_secs(30);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Datagrams sharing one arrival timestamp are delivered in send
        // (sequence) order: the heap tie-break is (time, seq).
        #[test]
        fn equal_timestamp_deliveries_preserve_send_order(
            sizes in proptest::collection::vec(1usize..1400, 1..40),
            latency_us in 1u64..50_000,
        ) {
            let mut recorder = Recorder::default();
            let outcome = run_exchange(
                &mut Burst { sizes: sizes.clone() },
                &mut recorder,
                &mut Wire::ideal(SimDuration::from_micros(latency_us)),
                ExchangeLimits::default(),
                &mut SimRng::new(9),
                &mut ExchangeScratch::default(),
                &mut (),
            );
            prop_assert!(outcome.quiesced);
            prop_assert_eq!(recorder.seen, sizes);
        }

        // Whatever the path does to its datagrams — up to and including
        // dropping, duplicating or corrupting every one of them — a probe
        // returns, inside the handshake deadline, with a bounded number of
        // client transmissions and a timeline that accounts for every
        // nanosecond of a completed handshake; and a server that charges
        // every byte under the RFC 9000 policy never sends past 3x before
        // validation. Mutation-checked: a byte policy that allows
        // `limit(r) + r` fails the last assertion.
        #[test]
        fn every_handshake_terminates_inside_its_limits_under_any_fault_plan(
            drop_per_mille in 0u16..1001,
            duplicate_per_mille in 0u16..1001,
            corrupt_per_mille in 0u16..1001,
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let (world, services) = services();
            let mut record = services[pick % services.len()].clone();
            record.seed = seed;
            let plan = FaultPlan {
                name: "arbitrary",
                drop_per_mille,
                duplicate_per_mille,
                corrupt_per_mille,
            };
            for profile in NetworkProfile::ALL {
                let scenario = Scenario::at(1362).with_profile(profile).with_plan(plan);
                let fresh = &mut HandshakeScratch::default();
                let result = quicreach::scan_service(world, &record, scenario, fresh);

                // The same probe, spelled out, to see the whole outcome.
                let client = ClientConfig::scanner(1362, World::server_addr(&record), seed ^ 1362);
                let max_transmissions = client.max_initial_transmissions;
                let era = CertificateEra::Classical;
                let chain = world.quic_chain_era(&record, era).expect("a QUIC chain");
                let server = server_config_for_era(world, &record, chain, era);
                let behavior = &server.behavior;
                let charges_every_byte = behavior.count_padding
                    && behavior.count_resends
                    && behavior.limit_policy == LimitPolicy::RFC9000;
                let mut wire = wire_for_profile(&record, profile);
                plan.apply(&mut wire);
                let out = HandshakeScratch::default().run(client, server, &mut wire, seed);
                prop_assert_eq!(out.classify(), result.class);
                prop_assert_eq!(out.client_transmissions, result.client_transmissions);

                prop_assert!((1..=max_transmissions).contains(&out.client_transmissions));
                prop_assert_eq!(out.completed, out.timeline.done_ns.is_some());
                if let Some(done_ns) = out.timeline.done_ns {
                    prop_assert!(done_ns <= HANDSHAKE_DEADLINE.as_nanos());
                    let phases = out.timeline.phases().expect("completed handshake");
                    let sum: u64 = phases.iter().map(|(_, ns)| ns).sum();
                    prop_assert_eq!(sum, done_ns);
                }
                if charges_every_byte {
                    prop_assert_eq!(out.amplification_excess, 0);
                }
            }
        }
    }
}

mod session_properties {
    use proptest::prelude::*;
    use quicert::session::{TicketConfig, TicketIssuer, TicketValidation};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // STEK sealing round-trips: a freshly issued ticket validates for
        // any SNI, seed, nonce, and issuance instant within its lifetime.
        #[test]
        fn stek_sealing_roundtrips(
            master_seed in any::<u64>(),
            sni in "[a-z]{1,30}\\.[a-z]{2,6}",
            now in 0u64..100_000_000_000,
            nonce in any::<u64>(),
            age in 0u64..7_200,
        ) {
            let issuer = TicketIssuer::new(master_seed, TicketConfig::default());
            let ticket = issuer.issue(&sni, now, nonce);
            let at = now + age;
            let verdict = issuer.validate(&ticket, &sni, at);
            // Within the lifetime the only possible rejection is the STEK
            // rotating out from under a ticket issued near an epoch edge.
            let epochs_apart =
                issuer.config.epoch_at(at) - issuer.config.epoch_at(now);
            if epochs_apart <= 1 {
                prop_assert_eq!(verdict, TicketValidation::Valid { age_secs: age });
            } else {
                prop_assert_eq!(verdict, TicketValidation::RotatedKey);
            }
        }

        // Past the lifetime or past the rotation window, validation
        // deterministically rejects — the cold-path fallback trigger.
        #[test]
        fn stale_tickets_always_reject(
            master_seed in any::<u64>(),
            sni in "[a-z]{1,20}\\.[a-z]{2,4}",
            now in 0u64..100_000_000_000,
            extra in 1u64..1_000_000,
        ) {
            let config = TicketConfig::default();
            let issuer = TicketIssuer::new(master_seed, config);
            let ticket = issuer.issue(&sni, now, 0);
            let at = now + config.lifetime_secs.max(2 * config.rotation_secs) + extra;
            let verdict = issuer.validate(&ticket, &sni, at);
            prop_assert!(
                !verdict.accepted(),
                "stale ticket accepted: {verdict:?} at +{extra}s"
            );
            prop_assert!(matches!(
                verdict,
                TicketValidation::Expired | TicketValidation::RotatedKey
            ));
        }

        // Any single-byte tamper (or a wrong STEK, or a wrong SNI) is
        // rejected: tickets bind to key, host, and content.
        #[test]
        fn tampered_or_misbound_tickets_reject(
            master_seed in any::<u64>(),
            sni in "[a-z]{1,20}\\.[a-z]{2,4}",
            now in 0u64..100_000_000_000,
            flip_at in 8usize..40,
            flip_bits in 1u8..255,
        ) {
            let issuer = TicketIssuer::new(master_seed, TicketConfig::default());
            let ticket = issuer.issue(&sni, now, 1);

            let mut tampered = ticket.clone();
            tampered[flip_at] ^= flip_bits;
            prop_assert!(!issuer.validate(&tampered, &sni, now).accepted());

            let other_key = TicketIssuer::new(master_seed ^ 0xA5A5, TicketConfig::default());
            prop_assert!(!other_key.validate(&ticket, &sni, now).accepted());

            let other_sni = format!("x{sni}");
            prop_assert_eq!(
                issuer.validate(&ticket, &other_sni, now),
                TicketValidation::WrongSni
            );
        }
    }
}

mod reassembly_properties {
    use proptest::prelude::*;
    use quicert::netsim::SimRng;
    use quicert::quic::reassembly::CryptoStream;
    use std::collections::BTreeMap;

    /// Verbatim copy of the insert-and-walk reassembly both endpoints used
    /// before `CryptoStream`: `insert` replaces whatever sat at the offset,
    /// `contiguous` rebuilds the stream by walking the segments.
    #[derive(Default)]
    struct ReferenceStream(BTreeMap<u64, Vec<u8>>);

    impl ReferenceStream {
        fn insert(&mut self, offset: u64, data: &[u8]) {
            self.0.insert(offset, data.to_vec());
        }

        fn contiguous(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let mut next = 0u64;
            for (&off, data) in &self.0 {
                if off > next {
                    break;
                }
                let skip = (next - off) as usize;
                if skip < data.len() {
                    out.extend_from_slice(&data[skip..]);
                    next = off + data.len() as u64;
                }
            }
            out
        }
    }

    // Any arrival sequence — tail appends, gaps, overlaps, zero-length
    // segments, identical duplicates, and a *different* payload at an
    // offset already seen (a corrupted segment, then its clean
    // retransmission) — leaves `CryptoStream` holding exactly what the old
    // insert-and-walk held, after every single arrival.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn crypto_stream_matches_the_insert_and_walk_reference(
            seed in any::<u64>(),
            arrivals in 1usize..48,
        ) {
            let mut rng = SimRng::new(seed);
            let mut stream = CryptoStream::default();
            let mut reference = ReferenceStream::default();
            let mut history: Vec<(u64, Vec<u8>)> = Vec::new();
            for _ in 0..arrivals {
                let end = reference.contiguous().len() as u64;
                let fresh = |rng: &mut SimRng, max: u64| -> Vec<u8> {
                    (0..rng.below(max)).map(|_| rng.below(256) as u8).collect()
                };
                let known = |rng: &mut SimRng, history: &[(u64, Vec<u8>)]| {
                    history[rng.below(history.len() as u64) as usize].clone()
                };
                let (offset, data) = match rng.below(8) {
                    // Tail appends dominate, as they do on a real wire.
                    0..=2 => (end, fresh(&mut rng, 40)),
                    3 => (end + 1 + rng.below(20), fresh(&mut rng, 40)),
                    4 => (rng.below(end + 1), fresh(&mut rng, 60)),
                    5 if !history.is_empty() => (known(&mut rng, &history).0, Vec::new()),
                    6 if !history.is_empty() => known(&mut rng, &history),
                    7 if !history.is_empty() => {
                        let (offset, mut data) = known(&mut rng, &history);
                        match rng.below(3) {
                            0 if !data.is_empty() => {
                                let at = rng.below(data.len() as u64) as usize;
                                data[at] ^= 0x20;
                            }
                            1 => data.truncate(data.len() / 2),
                            _ => data.extend(fresh(&mut rng, 8)),
                        }
                        (offset, data)
                    }
                    _ => (end, Vec::new()),
                };
                stream.insert(offset, &data);
                reference.insert(offset, &data);
                history.push((offset, data));
                prop_assert_eq!(stream.contiguous(), &reference.contiguous()[..]);
            }
        }
    }
}
