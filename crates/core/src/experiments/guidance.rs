//! The §5 discussion, as runnable experiments.
//!
//! The paper closes with guidance for implementers and an open question
//! about loss recovery. This module turns each claim into an ablation:
//!
//! * `server_ablation` — the "guidance for QUIC implementations" list:
//!   how coalescing, padding accounting and certificate compression each
//!   change the handshake class of the *same* deployment;
//! * [`client_mitigation`] — "can a QUIC client mitigate lack of
//!   compression?": a client that caches server flight sizes and adapts
//!   its Initial size accordingly;
//! * `loss_study` — "dealing efficiently with loss of messages during
//!   the connection setup seems an open challenge": handshake completion
//!   under server-side loss, with and without compression.

use quicert_analysis::{impl_merge, render_table, Merge, Table};
use quicert_compress::Algorithm;
use quicert_netsim::{FaultInjector, SimDuration, Wire};
use quicert_pki::ecosystem::{ChainId, LeafParams};
use quicert_pki::{CertificateEra, DomainRecord, World};
use quicert_quic::amplification::FACTOR;
use quicert_quic::handshake::HandshakeClass;
use quicert_quic::{run_handshake, ClientConfig, ServerBehavior, ServerConfig};
use quicert_scanner::quicreach::{self, ProbeScratch};
use quicert_scanner::Scenario;
use quicert_x509::{CertificateChain, KeyAlgorithm};

use crate::{Campaign, ScanEngine};

const SERVER_ADDR: std::net::Ipv4Addr = std::net::Ipv4Addr::new(198, 51, 100, 50);

fn study_chain(campaign: &Campaign) -> CertificateChain {
    // The paper's problem case: the default long Let's Encrypt chain with
    // an RSA leaf — too big for 3x1362 uncompressed, fits compressed.
    campaign.world().ecosystem.issue_era(
        ChainId::LeR3X1Cross,
        CertificateEra::Classical,
        LeafParams {
            common_name: "guidance.example".into(),
            extra_sans: vec![],
            key: KeyAlgorithm::Rsa2048,
            scts: 2,
            seed: 0x9D9D,
        },
    )
}

// ------------------------------------------------------- server ablation --

/// One ablation row: a server variant and what the scanner observes.
#[derive(Debug, Clone)]
pub(crate) struct AblationRow {
    /// Variant label.
    pub label: &'static str,
    /// Resulting handshake class.
    pub class: HandshakeClass,
    /// First-RTT amplification factor.
    pub amplification: f64,
    /// RTTs to completion.
    pub rtts: u32,
    /// Padding bytes on the wire.
    pub padding: usize,
}

/// Run the §5 implementation-guidance ablation on one chain.
pub(crate) fn server_ablation(campaign: &Campaign) -> Vec<AblationRow> {
    let chain = study_chain(campaign);
    let variants: Vec<(&'static str, ServerBehavior, Vec<Algorithm>, Vec<Algorithm>)> = vec![
        (
            "baseline: coalescing, counted padding, no compression",
            ServerBehavior::rfc_compliant(),
            vec![],
            vec![],
        ),
        (
            "no coalescing + uncounted padding (Cloudflare-like)",
            ServerBehavior::cloudflare_like(),
            vec![],
            vec![],
        ),
        (
            "no coalescing, but padding counted",
            ServerBehavior {
                count_padding: true,
                ..ServerBehavior::cloudflare_like()
            },
            vec![],
            vec![],
        ),
        (
            "coalescing + certificate compression (all guidance applied)",
            ServerBehavior::rfc_compliant(),
            vec![Algorithm::Brotli],
            vec![Algorithm::Brotli],
        ),
    ];
    variants
        .into_iter()
        .map(|(label, behavior, server_algs, client_algs)| {
            let config = ServerConfig {
                behavior,
                chain: chain.clone(),
                leaf_key: KeyAlgorithm::Rsa2048,
                compression_support: server_algs,
                resumption: None,
                seed: 0x9D9D,
            };
            let mut client = ClientConfig::scanner(1362, SERVER_ADDR, 0x9D9D);
            client.compression = client_algs;
            let mut wire = Wire::ideal(SimDuration::from_millis(20));
            let out = run_handshake(client, config, &mut wire, 0x9D9D);
            AblationRow {
                label,
                class: out.classify(),
                amplification: out.amplification_first_flight(),
                rtts: out.rtt_count,
                padding: out.server_stats.padding_sent,
            }
        })
        .collect()
}

/// Render the ablation table.
pub(crate) fn render_server_ablation(rows: &[AblationRow]) -> String {
    let mut t = Table::new(&["server variant", "class", "ampl", "RTTs", "padding B"]);
    for row in rows {
        t.row(&[
            row.label.to_string(),
            row.class.label().to_string(),
            format!("{:.2}x", row.amplification),
            row.rtts.to_string(),
            row.padding.to_string(),
        ]);
    }
    format!(
        "§5 — implementation-guidance ablation (same chain)\n{}",
        render_table(&t)
    )
}

// ----------------------------------------------------- client mitigation --

/// Result of the client-side Initial-size-cache mitigation: three counts,
/// summed over any split of the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientMitigation {
    /// Multi-RTT services at the default Initial size.
    pub multi_rtt_before: usize,
    /// Of those, how many a cache-informed client turns into 1-RTT.
    pub fixed_by_mitigation: usize,
    /// How many remain multi-RTT even at the MTU-bound Initial (their
    /// flights exceed 3×1472 — only compression can save them).
    pub unfixable: usize,
}

impl_merge! { ClientMitigation { multi_rtt_before, fixed_by_mitigation, unfixable } }

/// §5: a client that remembers each server's flight size from a previous
/// contact and sends an Initial of `ceil(flight/3)` (clamped to the MTU).
///
/// One pass over the QUIC services: the "previous contact" is each
/// service's probe under the engine's default scenario (classes the
/// engine's memo holds replay), and a multi-RTT service is re-probed at
/// its adapted Initial in the same pass ([`ClientMitigation::fold`]).
pub fn client_mitigation(engine: &ScanEngine) -> ClientMitigation {
    let scenario = engine.scenario();
    engine.fold_population(World::quic_chunk_into, |records, scratch| {
        ClientMitigation::fold(engine.world(), records, scenario, scratch)
    })
}

impl ClientMitigation {
    /// The counts of one population chunk: each QUIC service probed under
    /// `scenario` ([`quicreach::scan_chunk`]), and each multi-RTT one
    /// whose flight fits 3×1472 probed again, memo-free, at the Initial
    /// its flight size asks for.
    pub fn fold(
        world: &World,
        records: &[DomainRecord],
        scenario: Scenario,
        scratch: &mut ProbeScratch,
    ) -> ClientMitigation {
        let mut counts = ClientMitigation::identity();
        quicreach::scan_chunk(world, records, scenario, scratch, |first| {
            if first.class != HandshakeClass::MultiRtt {
                return;
            }
            counts.multi_rtt_before += 1;
            // The "cache": the flight size observed during the first contact.
            let needed = first.wire_received.div_ceil(FACTOR) + 16;
            if needed > 1472 {
                counts.unfixable += 1;
                return;
            }
            let rescan = scenario.with_initial_size(needed.clamp(1200, 1472));
            // The row is one of `records`, which are in rank order.
            let found = records.binary_search_by_key(&first.rank, |r| r.rank);
            if let Ok(index) = found {
                let second = quicreach::scan_service(world, &records[index], rescan);
                counts.fixed_by_mitigation += usize::from(second.class == HandshakeClass::OneRtt);
            }
        });
        counts
    }

    /// Share of multi-RTT handshakes the mitigation eliminates.
    pub(crate) fn fixed_share(&self) -> f64 {
        self.fixed_by_mitigation as f64 / self.multi_rtt_before.max(1) as f64
    }

    /// Render the result.
    pub(crate) fn render(&self) -> String {
        format!(
            "§5 — client Initial-size cache: {} multi-RTT services; {} ({:.1}%) \
             become 1-RTT with an adapted Initial; {} need compression (flight \
             exceeds 3x1472)\n",
            self.multi_rtt_before,
            self.fixed_by_mitigation,
            self.fixed_share() * 100.0,
            self.unfixable,
        )
    }
}

// ------------------------------------------------------------ loss study --

/// Handshake latency and robustness under server→client loss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LossStudy {
    /// Loss probability applied to the server's datagrams.
    pub loss: f64,
    /// Mean RTT rounds to completion without compression (completed trials).
    pub mean_rtts_uncompressed: f64,
    /// Mean RTT rounds to completion with brotli compression.
    pub mean_rtts_compressed: f64,
    /// Completion rate without compression.
    pub completion_uncompressed: f64,
    /// Completion rate with compression.
    pub completion_compressed: f64,
    /// Trials per configuration.
    pub trials: usize,
}

/// §5: "the limit allows at most one retransmission of the full flight,
/// given small compressed chains" — measure handshake latency under loss
/// with and without compression for the same big-chain deployment. A
/// compressed flight fits the budget with room for retransmission, so lost
/// datagrams cost fewer extra rounds.
pub(crate) fn loss_study(campaign: &Campaign, loss: f64, trials: usize) -> LossStudy {
    let chain = study_chain(campaign);
    let run = |compressed: bool, trial: usize| -> Option<u32> {
        let config = ServerConfig {
            behavior: ServerBehavior::rfc_compliant(),
            chain: chain.clone(),
            leaf_key: KeyAlgorithm::Rsa2048,
            compression_support: if compressed {
                vec![Algorithm::Brotli]
            } else {
                vec![]
            },
            resumption: None,
            seed: 0x1055 + trial as u64,
        };
        let mut client = ClientConfig::scanner(1362, SERVER_ADDR, 0x1055 + trial as u64);
        if compressed {
            client.compression = vec![Algorithm::Brotli];
        }
        let mut wire = Wire::ideal(SimDuration::from_millis(20));
        wire.fault_b_to_a = FaultInjector::dropping(loss);
        let out = run_handshake(client, config, &mut wire, 0x1055 + trial as u64);
        out.completed.then_some(out.rtt_count)
    };
    let measure = |compressed: bool| -> (f64, f64) {
        let rtts: Vec<f64> = (0..trials)
            .filter_map(|t| run(compressed, t))
            .map(|r| r as f64)
            .collect();
        (
            quicert_analysis::mean(&rtts),
            rtts.len() as f64 / trials.max(1) as f64,
        )
    };
    let (mean_rtts_uncompressed, completion_uncompressed) = measure(false);
    let (mean_rtts_compressed, completion_compressed) = measure(true);
    LossStudy {
        loss,
        mean_rtts_uncompressed,
        mean_rtts_compressed,
        completion_uncompressed,
        completion_compressed,
        trials,
    }
}

impl LossStudy {
    /// Render the result.
    pub(crate) fn render(&self) -> String {
        format!(
            "§5 — loss study ({:.0}% server-side loss, {} trials): mean \
             {:.1} RTTs uncompressed vs {:.1} RTTs compressed (completion \
             {:.0}% / {:.0}%)\n",
            self.loss * 100.0,
            self.trials,
            self.mean_rtts_uncompressed,
            self.mean_rtts_compressed,
            self.completion_uncompressed * 100.0,
            self.completion_compressed * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;
    use proptest::prelude::*;
    use quicert_analysis::assert_merge_laws;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(51).with_domains(2_000))
    }

    #[test]
    fn ablation_reproduces_the_guidance_claims() {
        let c = campaign();
        let rows = server_ablation(&c);
        assert_eq!(rows.len(), 4);
        // Baseline: big chain, compliant server → multi-RTT.
        assert_eq!(rows[0].class, HandshakeClass::MultiRtt);
        // Cloudflare-like accounting on a big chain stays multi-RTT but
        // wastes thousands of padding bytes.
        assert!(rows[1].padding > rows[0].padding + 1500);
        // Counting padding correctly does not make the chain fit, but it
        // keeps the wire within the budget in the first RTT.
        assert!(rows[2].amplification <= 3.0 + 1e-9);
        // All guidance applied: compression turns it into 1-RTT.
        assert_eq!(
            rows[3].class,
            HandshakeClass::OneRtt,
            "ampl {}",
            rows[3].amplification
        );
        assert_eq!(rows[3].rtts, 1);
        assert!(!render_server_ablation(&rows).is_empty());
    }

    #[test]
    fn client_cache_fixes_marginal_services_only() {
        let c = campaign();
        let m = client_mitigation(c.engine());
        assert!(m.multi_rtt_before > 0);
        // The mitigation can only help flights under 3x1472; most of the
        // multi-RTT population (big LE-long/Google/corp chains) is beyond
        // it, which is exactly why the paper recommends compression.
        assert!(m.fixed_by_mitigation + m.unfixable <= m.multi_rtt_before);
        assert!(
            m.unfixable > 0,
            "big chains cannot be fixed by Initial sizing"
        );
        assert!(!m.render().is_empty());
    }

    /// Counts from three arbitrary values each — any values, not only
    /// those a pass produces: the merge laws are about the fold.
    fn mitigation_of(f: &[u64]) -> ClientMitigation {
        let mut counts = ClientMitigation::identity();
        for draw in f.chunks_exact(3) {
            counts.multi_rtt_before += draw[0] as usize;
            counts.fixed_by_mitigation += draw[1] as usize;
            counts.unfixable += draw[2] as usize;
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn client_mitigation_merge_laws(
            xs in proptest::collection::vec(0u64..1_000_000, 3..4),
            ys in proptest::collection::vec(0u64..1_000_000, 3..4),
            zs in proptest::collection::vec(0u64..1_000_000, 3..4),
        ) {
            assert_merge_laws(mitigation_of, [&xs, &ys, &zs]);
        }
    }

    #[test]
    fn compression_cuts_handshake_latency_under_loss() {
        let c = campaign();
        // Without loss: the compressed flight completes in one round, the
        // uncompressed one needs at least two.
        let clean = loss_study(&c, 0.0, 4);
        assert!((clean.mean_rtts_compressed - 1.0).abs() < 1e-9);
        assert!(clean.mean_rtts_uncompressed >= 2.0);
        // Under loss both degrade, but compression keeps the handshake
        // faster on average.
        let lossy = loss_study(&c, 0.25, 32);
        assert!(
            lossy.mean_rtts_compressed < lossy.mean_rtts_uncompressed,
            "compressed {} vs uncompressed {}",
            lossy.mean_rtts_compressed,
            lossy.mean_rtts_uncompressed
        );
        assert!(lossy.completion_compressed > 0.6);
        assert!(!lossy.render().is_empty());
    }
}
