//! Micro-benchmarks of the substrates everything else is built on:
//! DER/X.509 encoding, chain issuance, compression throughput, the QUIC
//! handshake engine and varint codecs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use quicert_bench::bench_campaign;
use quicert_compress::Algorithm;
use quicert_netsim::{SimDuration, Wire};
use quicert_pki::ecosystem::{ChainId, LeafParams};
use quicert_quic::{run_handshake, ClientConfig, ServerBehavior, ServerConfig};
use quicert_x509::KeyAlgorithm;

fn leaf_params() -> LeafParams {
    LeafParams {
        common_name: "bench.example.org".into(),
        extra_sans: vec!["alt.bench.example.org".into()],
        key: KeyAlgorithm::EcdsaP256,
        scts: 2,
        seed: 0xBE,
    }
}

fn certificate_issuance(c: &mut Criterion) {
    let eco = &bench_campaign().world().ecosystem;
    c.bench_function("x509_issue_le_chain", |b| {
        b.iter(|| eco.issue(black_box(ChainId::LeR3Short), leaf_params()))
    });
    c.bench_function("x509_issue_enterprise_chain", |b| {
        b.iter(|| eco.issue(black_box(ChainId::EnterpriseHuge), leaf_params()))
    });
}

fn compression_throughput(c: &mut Criterion) {
    let eco = &bench_campaign().world().ecosystem;
    let chain = eco.issue(ChainId::LeR3X1Cross, leaf_params());
    let der = chain.concatenated_der();
    let mut group = c.benchmark_group("compress_chain");
    group.throughput(Throughput::Bytes(der.len() as u64));
    for alg in Algorithm::ALL {
        group.bench_function(alg.name(), |b| {
            b.iter(|| quicert_compress::compress(black_box(alg), black_box(&der)))
        });
    }
    group.finish();
}

fn handshake_engine(c: &mut Criterion) {
    let eco = &bench_campaign().world().ecosystem;
    let chain = eco.issue(ChainId::LeR3Short, leaf_params());
    let server = ServerConfig {
        behavior: ServerBehavior::rfc_compliant(),
        chain,
        leaf_key: KeyAlgorithm::EcdsaP256,
        compression_support: vec![Algorithm::Brotli],
        resumption: None,
        seed: 0xBE,
    };
    c.bench_function("quic_full_handshake", |b| {
        b.iter(|| {
            let mut wire = Wire::ideal(SimDuration::from_millis(20));
            run_handshake(
                ClientConfig::scanner(1362, std::net::Ipv4Addr::new(198, 51, 100, 1), 1),
                server.clone(),
                &mut wire,
                black_box(1),
            )
        })
    });
}

fn varint_codec(c: &mut Criterion) {
    let values: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) >> (i % 40))
        .collect();
    c.bench_function("quic_varint_roundtrip_1k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(8 * values.len());
            for &v in &values {
                quicert_quic::varint::write(&mut buf, v & ((1 << 62) - 1));
            }
            let mut pos = 0;
            let mut sum = 0u64;
            while pos < buf.len() {
                sum = sum.wrapping_add(quicert_quic::varint::read(&buf, &mut pos).unwrap());
            }
            black_box(sum)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = certificate_issuance, compression_throughput, handshake_engine, varint_codec
}
criterion_main!(benches);
