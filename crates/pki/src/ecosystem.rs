//! The CA ecosystem of Fig 7: named parent chains as real certificates.
//!
//! Since the certificate-era axis the catalog exists once per
//! [`CertificateEra`]: the classical catalog is byte-for-byte the pre-era
//! one, and the hybrid / post-quantum catalogs rebuild every chain with the
//! same topology, names, seeds and validity but era-mapped keys and
//! signatures (ML-DSA-44/65 and ECDSA+ML-DSA composites).

use std::sync::{Arc, OnceLock};

use crate::era::CertificateEra;
use quicert_x509::ext::KeyUsageFlags;
use quicert_x509::oid;
use quicert_x509::{
    Certificate, CertificateBuilder, CertificateChain, DistinguishedName, Extension, KeyAlgorithm,
    SignatureAlgorithm, SubjectPublicKeyInfo, Time, Validity,
};

/// Identifier of a parent chain in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainId {
    /// Let's Encrypt R3 alone (short chain; the dominant QUIC chain, ①).
    LeR3Short,
    /// Let's Encrypt R3 + ISRG Root X1 cross-signed by DST Root CA X3 (the
    /// default "long" chain, ②; the cross-sign waste discussed in §4.2).
    LeR3X1Cross,
    /// Let's Encrypt R3 + self-signed ISRG Root X1 (row ⑥ variant).
    LeR3X1Self,
    /// Let's Encrypt E1 alone (compact ECDSA chain, ③).
    LeE1Short,
    /// Let's Encrypt E1 + ISRG Root X2 cross-signed by X1 (marginal size).
    LeE1X2Cross,
    /// Google Trust Services 1C3 + GTS Root R1 (cross-signed), ④.
    Gts1C3,
    /// Google Trust Services 1D4 + GTS Root R1, ⑦.
    Gts1D4,
    /// Google Trust Services 1P5 + GTS Root R1.
    Gts1P5,
    /// Cloudflare Inc ECC CA-3 (single compact intermediate), ⑤/⑩.
    CloudflareEcc,
    /// Sectigo RSA DV + USERTRUST RSA, ⑧.
    SectigoUserTrust,
    /// cPanel + USERTRUST + superfluously included Comodo AAA root, ⑨.
    CPanelComodoRoot,
    /// GlobalSign Atlas R3 DV.
    GlobalSignAtlas,
    /// DigiCert TLS RSA SHA256 2020 CA1.
    DigiCertTls,
    /// DigiCert SHA2 Secure Server CA + DigiCert Global Root (incl. root).
    DigiCertSha2WithRoot,
    /// Amazon RSA 2048 M01 + Amazon Root CA 1.
    AmazonRsa,
    /// GoDaddy Secure CA G2.
    GoDaddyG2,
    /// Starfield Secure CA G2.
    StarfieldG2,
    /// A pathological enterprise chain: several RSA-4096 intermediates
    /// (drives the 18–38 kB tail of Fig 6).
    EnterpriseHuge,
}

impl ChainId {
    /// All catalogued chains.
    pub const ALL: [ChainId; 18] = [
        ChainId::LeR3Short,
        ChainId::LeR3X1Cross,
        ChainId::LeR3X1Self,
        ChainId::LeE1Short,
        ChainId::LeE1X2Cross,
        ChainId::Gts1C3,
        ChainId::Gts1D4,
        ChainId::Gts1P5,
        ChainId::CloudflareEcc,
        ChainId::SectigoUserTrust,
        ChainId::CPanelComodoRoot,
        ChainId::GlobalSignAtlas,
        ChainId::DigiCertTls,
        ChainId::DigiCertSha2WithRoot,
        ChainId::AmazonRsa,
        ChainId::GoDaddyG2,
        ChainId::StarfieldG2,
        ChainId::EnterpriseHuge,
    ];

    /// Display label matching Fig 7's annotations.
    pub fn label(self) -> &'static str {
        match self {
            ChainId::LeR3Short => "Let's Enc. R3",
            ChainId::LeR3X1Cross => "Let's Enc. R3 + X1 (DST cross)",
            ChainId::LeR3X1Self => "Let's Enc. R3 + X1 (self-signed)",
            ChainId::LeE1Short => "Let's Enc. E1",
            ChainId::LeE1X2Cross => "Let's Enc. E1 + X2 (cross)",
            ChainId::Gts1C3 => "Google 1C3",
            ChainId::Gts1D4 => "Google 1D4",
            ChainId::Gts1P5 => "Google 1P5",
            ChainId::CloudflareEcc => "Cloudflare",
            ChainId::SectigoUserTrust => "Sectigo + USERTRUST",
            ChainId::CPanelComodoRoot => "cPanel + USERTRUST + root",
            ChainId::GlobalSignAtlas => "GlobalSign",
            ChainId::DigiCertTls => "DigiCert TLS CA1",
            ChainId::DigiCertSha2WithRoot => "DigiCert SHA2 + root",
            ChainId::AmazonRsa => "Amazon",
            ChainId::GoDaddyG2 => "GoDaddy",
            ChainId::StarfieldG2 => "Starfield",
            ChainId::EnterpriseHuge => "Enterprise (huge)",
        }
    }
}

/// Parameters for issuing one leaf certificate.
#[derive(Debug, Clone)]
pub struct LeafParams {
    /// Subject common name (also the first SAN).
    pub common_name: String,
    /// Additional SAN entries beyond the CN-derived pair.
    pub extra_sans: Vec<String>,
    /// Key algorithm (Table 2 distribution).
    pub key: KeyAlgorithm,
    /// Number of embedded SCTs (browsers require 2; some CAs embed 3).
    pub scts: u8,
    /// Deterministic seed.
    pub seed: u64,
}

/// One catalogued parent chain: the intermediates a server sends above the
/// leaf, ordered leaf-issuer first.
#[derive(Debug, Clone)]
pub struct ParentChain {
    /// Catalog id.
    pub id: ChainId,
    /// The issuing (leaf-signing) CA's distinguished name.
    pub issuer_dn: DistinguishedName,
    /// The issuing CA's signature algorithm over leaves.
    pub leaf_sig: SignatureAlgorithm,
    /// Intermediate certificates, leaf-issuer first. Shared: every leaf
    /// issued under this chain points at the same allocation, so issuing a
    /// million leaves never re-copies the cached intermediate DER.
    pub intermediates: Arc<Vec<Certificate>>,
}

impl ParentChain {
    /// Total DER bytes of the parent (non-leaf) part.
    pub fn parent_der_len(&self) -> usize {
        self.intermediates.iter().map(|c| c.der_len()).sum()
    }
}

/// The full CA ecosystem: every catalogued chain, built deterministically —
/// once per [`CertificateEra`]. The classical catalog is built eagerly
/// (every campaign uses it); the hybrid and post-quantum catalogs — whose
/// certificates carry multi-kilobyte ML-DSA keys and signatures — are built
/// on first use, so era-unaware campaigns pay nothing for the axis.
#[derive(Debug)]
pub struct Ecosystem {
    chains: Vec<ParentChain>,
    hybrid: OnceLock<Vec<ParentChain>>,
    post_quantum: OnceLock<Vec<ParentChain>>,
    /// Precomputed AIA URLs (`issue_era` stamps them into every leaf; a
    /// million-record scan must not re-`format!` them per record).
    aia_ocsp_url: String,
    aia_ca_issuers_url: String,
}

impl Ecosystem {
    /// Build the ecosystem.
    pub fn new() -> Self {
        let ocsp_host = "o.example-ca.test";
        Ecosystem {
            chains: Self::catalog(CertificateEra::Classical),
            hybrid: OnceLock::new(),
            post_quantum: OnceLock::new(),
            aia_ocsp_url: format!("http://{ocsp_host}"),
            aia_ca_issuers_url: format!("http://c.{ocsp_host}/issuer.der"),
        }
    }

    /// Build one era's catalog — a pure function of the era, so the
    /// lazily-built era catalogs are exactly what an eager build would have
    /// produced.
    fn catalog(era: CertificateEra) -> Vec<ParentChain> {
        let b = Builder { era };
        ChainId::ALL.iter().map(|&id| b.build_chain(id)).collect()
    }

    /// Look up a parent chain in one era's catalog, which holds every
    /// [`ChainId`] at its position in [`ChainId::ALL`] (declaration order).
    pub fn chain_era(&self, id: ChainId, era: CertificateEra) -> &ParentChain {
        &self.chains_era(era)[id as usize]
    }

    /// All chains of one era (hybrid / post-quantum catalogs are built on
    /// first request).
    pub(crate) fn chains_era(&self, era: CertificateEra) -> &[ParentChain] {
        match era {
            CertificateEra::Classical => &self.chains,
            CertificateEra::Hybrid => self
                .hybrid
                .get_or_init(|| Self::catalog(CertificateEra::Hybrid)),
            CertificateEra::PostQuantum => self
                .post_quantum
                .get_or_init(|| Self::catalog(CertificateEra::PostQuantum)),
        }
    }

    /// Issue a leaf under `chain_id` in one era and return the full served
    /// chain: identical name, SANs, seeds and extensions in every era, with
    /// the leaf key mapped through [`CertificateEra::key`] and the era
    /// catalog's parent chain above it.
    pub fn issue_era(
        &self,
        chain_id: ChainId,
        era: CertificateEra,
        params: LeafParams,
    ) -> CertificateChain {
        let parent = self.chain_era(chain_id, era);
        let subject = DistinguishedName::cn(&params.common_name);
        let www =
            (!params.common_name.starts_with("*.")).then(|| format!("www.{}", params.common_name));
        // The SAN list takes the caller's strings over; it clones none.
        let mut sans = Vec::with_capacity(2 + params.extra_sans.len());
        sans.push(params.common_name);
        sans.extend(www);
        sans.extend(params.extra_sans);

        let leaf = CertificateBuilder::new(
            parent.issuer_dn.clone(),
            subject,
            SubjectPublicKeyInfo::new(era.key(params.key), params.seed),
            parent.leaf_sig,
        )
        .validity(Validity::days(Time::date(2022, 7, 1), 90))
        .extensions([
            Extension::BasicConstraints {
                ca: false,
                path_len: None,
            },
            Extension::KeyUsage(KeyUsageFlags::leaf()),
            Extension::ExtKeyUsage(vec![oid::KP_SERVER_AUTH, oid::KP_CLIENT_AUTH]),
            Extension::SubjectKeyId { seed: params.seed },
            Extension::AuthorityKeyId {
                seed: chain_seed(chain_id),
            },
            Extension::SubjectAltNames(sans),
            Extension::AuthorityInfoAccess {
                ocsp: Some(self.aia_ocsp_url.clone()),
                ca_issuers: Some(self.aia_ca_issuers_url.clone()),
            },
            Extension::CertificatePolicies(vec![oid::CP_DOMAIN_VALIDATED]),
            Extension::SctList {
                count: params.scts,
                seed: params.seed ^ 0x5C7,
            },
        ])
        .build();

        CertificateChain::new_shared(leaf, Arc::clone(&parent.intermediates))
    }
}

impl Default for Ecosystem {
    fn default() -> Self {
        Ecosystem::new()
    }
}

fn chain_seed(id: ChainId) -> u64 {
    // Stable per-chain seed for key identifiers.
    (id as u64 + 1).wrapping_mul(0x0BAD_CA5E_0001)
}

struct Builder {
    /// The era this builder's catalog belongs to: every key and signature
    /// is mapped through it ([`CertificateEra::Classical`] is the
    /// identity, so the classical catalog stays byte-for-byte).
    era: CertificateEra,
}

impl Builder {
    fn ca_cert(
        &self,
        issuer: DistinguishedName,
        subject: DistinguishedName,
        key: KeyAlgorithm,
        sig: SignatureAlgorithm,
        seed: u64,
        extra: Vec<Extension>,
    ) -> Certificate {
        let mut builder = CertificateBuilder::new(
            issuer,
            subject,
            SubjectPublicKeyInfo::new(self.era.key(key), seed),
            self.era.signature(sig),
        )
        .validity(Validity::days(Time::date(2020, 9, 4), 365 * 5))
        .extension(Extension::BasicConstraints {
            ca: true,
            path_len: Some(0),
        })
        .extension(Extension::KeyUsage(KeyUsageFlags::ca()))
        .extension(Extension::SubjectKeyId { seed })
        .extension(Extension::AuthorityKeyId { seed: seed ^ 0xA17 });
        for e in extra {
            builder = builder.extension(e);
        }
        builder.build()
    }

    /// Extensions typical of real intermediates (AIA + CRL + policies) —
    /// these are what make real intermediates 1.2–1.9 kB.
    fn intermediate_extras(&self, ca_host: &str) -> Vec<Extension> {
        vec![
            Extension::AuthorityInfoAccess {
                ocsp: Some(format!("http://ocsp.rootca1.{ca_host}")),
                ca_issuers: Some(format!(
                    "http://certificates.{ca_host}/repository/rootca1.der"
                )),
            },
            Extension::CrlDistributionPoints(vec![
                format!("http://crl3.{ca_host}/certification-authority/rootca1.crl"),
                format!("http://crl4.{ca_host}/certification-authority/rootca1.crl"),
            ]),
            Extension::CertificatePolicies(vec![
                oid::CP_ANY_POLICY,
                oid::CP_DOMAIN_VALIDATED,
                oid::CP_ORG_VALIDATED,
            ]),
            Extension::ExtKeyUsage(vec![oid::KP_SERVER_AUTH, oid::KP_CLIENT_AUTH]),
        ]
    }

    fn build_chain(&self, id: ChainId) -> ParentChain {
        use KeyAlgorithm::*;
        use SignatureAlgorithm::*;

        let isrg = DistinguishedName::ca("US", "Internet Security Research Group", "ISRG Root X1");
        let isrg_x2 =
            DistinguishedName::ca("US", "Internet Security Research Group", "ISRG Root X2");
        let dst = DistinguishedName::ca("US", "Digital Signature Trust Co.", "DST Root CA X3");
        let le_r3 = DistinguishedName::ca("US", "Let's Encrypt", "R3");
        let le_e1 = DistinguishedName::ca("US", "Let's Encrypt", "E1");
        let gts_r1 = DistinguishedName::ca("US", "Google Trust Services LLC", "GTS Root R1");
        let globalsign_root = DistinguishedName::ca("BE", "GlobalSign nv-sa", "GlobalSign Root CA");
        let usertrust = DistinguishedName::ca(
            "US",
            "The USERTRUST Network",
            "USERTrust RSA Certification Authority",
        );
        let comodo = DistinguishedName::ca("GB", "Comodo CA Limited", "AAA Certificate Services");
        let digicert_root = DistinguishedName::ca("US", "DigiCert Inc", "DigiCert Global Root CA");
        let baltimore = DistinguishedName::ca("IE", "Baltimore", "Baltimore CyberTrust Root");
        let amazon_root = DistinguishedName::ca("US", "Amazon", "Amazon Root CA 1");
        let godaddy_root = DistinguishedName::ca(
            "US",
            "GoDaddy.com, Inc.",
            "Go Daddy Root Certificate Authority - G2",
        );
        let starfield_root = DistinguishedName::ca(
            "US",
            "Starfield Technologies, Inc.",
            "Starfield Root Certificate Authority - G2",
        );

        let seed = chain_seed(id);
        let mk_r3 = || {
            self.ca_cert(
                isrg.clone(),
                le_r3.clone(),
                Rsa2048,
                Sha256WithRsa2048,
                seed ^ 0x01,
                self.intermediate_extras("lencr.org"),
            )
        };
        let mk_e1 = || {
            self.ca_cert(
                isrg_x2.clone(),
                le_e1.clone(),
                EcdsaP384,
                EcdsaSha384,
                seed ^ 0x02,
                self.intermediate_extras("lencr.org"),
            )
        };

        let (issuer_dn, leaf_sig, intermediates): (
            DistinguishedName,
            SignatureAlgorithm,
            Vec<Certificate>,
        ) = match id {
            ChainId::LeR3Short => (le_r3.clone(), Sha256WithRsa2048, vec![mk_r3()]),
            ChainId::LeR3X1Cross => {
                // ISRG Root X1 cross-signed by DST Root CA X3: a big
                // RSA-4096 cert that is pure dead weight for modern clients.
                let x1_cross = self.ca_cert(
                    dst.clone(),
                    isrg.clone(),
                    Rsa4096,
                    Sha256WithRsa2048,
                    seed ^ 0x03,
                    self.intermediate_extras("identrust.com"),
                );
                (le_r3.clone(), Sha256WithRsa2048, vec![mk_r3(), x1_cross])
            }
            ChainId::LeR3X1Self => {
                let x1_self = self.ca_cert(
                    isrg.clone(),
                    isrg.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x04,
                    vec![],
                );
                (le_r3.clone(), Sha256WithRsa2048, vec![mk_r3(), x1_self])
            }
            ChainId::LeE1Short => (le_e1.clone(), EcdsaSha384, vec![mk_e1()]),
            ChainId::LeE1X2Cross => {
                let x2_cross = self.ca_cert(
                    isrg.clone(),
                    isrg_x2.clone(),
                    EcdsaP384,
                    Sha256WithRsa2048,
                    seed ^ 0x05,
                    self.intermediate_extras("letsencrypt.org"),
                );
                (le_e1.clone(), EcdsaSha384, vec![mk_e1(), x2_cross])
            }
            ChainId::Gts1C3 | ChainId::Gts1D4 | ChainId::Gts1P5 => {
                let cn = match id {
                    ChainId::Gts1C3 => "GTS CA 1C3",
                    ChainId::Gts1D4 => "GTS CA 1D4",
                    _ => "GTS CA 1P5",
                };
                let gts_ca = DistinguishedName::ca("US", "Google Trust Services LLC", cn);
                let inter = self.ca_cert(
                    gts_r1.clone(),
                    gts_ca.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x06,
                    self.intermediate_extras("pki.goog"),
                );
                // GTS Root R1 cross-signed by GlobalSign (sent by default).
                let r1_cross = self.ca_cert(
                    globalsign_root.clone(),
                    gts_r1.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x07,
                    self.intermediate_extras("pki.goog"),
                );
                (gts_ca, Sha256WithRsa2048, vec![inter, r1_cross])
            }
            ChainId::CloudflareEcc => {
                let cf = DistinguishedName::ca("US", "Cloudflare, Inc.", "Cloudflare Inc ECC CA-3");
                let inter = self.ca_cert(
                    baltimore.clone(),
                    cf.clone(),
                    EcdsaP256,
                    Sha256WithRsa2048,
                    seed ^ 0x08,
                    self.intermediate_extras("digicert.com"),
                );
                (cf, EcdsaSha256, vec![inter])
            }
            ChainId::SectigoUserTrust => {
                let sectigo = DistinguishedName::ca(
                    "GB",
                    "Sectigo Limited",
                    "Sectigo RSA Domain Validation Secure Server CA",
                );
                let inter = self.ca_cert(
                    usertrust.clone(),
                    sectigo.clone(),
                    Rsa2048,
                    Sha384WithRsa4096,
                    seed ^ 0x09,
                    self.intermediate_extras("sectigo.com"),
                );
                let ut = self.ca_cert(
                    comodo.clone(),
                    usertrust.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x0A,
                    self.intermediate_extras("usertrust.com"),
                );
                (sectigo, Sha256WithRsa2048, vec![inter, ut])
            }
            ChainId::CPanelComodoRoot => {
                let cpanel = DistinguishedName::ca(
                    "US",
                    "cPanel, Inc.",
                    "cPanel, Inc. Certification Authority",
                );
                let inter = self.ca_cert(
                    usertrust.clone(),
                    cpanel.clone(),
                    Rsa2048,
                    Sha384WithRsa4096,
                    seed ^ 0x0B,
                    self.intermediate_extras("cpanel.net"),
                );
                let ut = self.ca_cert(
                    comodo.clone(),
                    usertrust.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x0C,
                    self.intermediate_extras("usertrust.com"),
                );
                // The superfluously included self-signed trust anchor
                // (§4.2, Fig 7b row ⑨).
                let root = self.ca_cert(
                    comodo.clone(),
                    comodo.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x0D,
                    vec![],
                );
                (cpanel, Sha256WithRsa2048, vec![inter, ut, root])
            }
            ChainId::GlobalSignAtlas => {
                let atlas = DistinguishedName::ca(
                    "BE",
                    "GlobalSign nv-sa",
                    "GlobalSign Atlas R3 DV TLS CA H2 2021",
                );
                let inter = self.ca_cert(
                    globalsign_root.clone(),
                    atlas.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x0E,
                    self.intermediate_extras("globalsign.com"),
                );
                (atlas, Sha256WithRsa2048, vec![inter])
            }
            ChainId::DigiCertTls => {
                let dc =
                    DistinguishedName::ca("US", "DigiCert Inc", "DigiCert TLS RSA SHA256 2020 CA1");
                let inter = self.ca_cert(
                    digicert_root.clone(),
                    dc.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x0F,
                    self.intermediate_extras("digicert.com"),
                );
                (dc, Sha256WithRsa2048, vec![inter])
            }
            ChainId::DigiCertSha2WithRoot => {
                let dc =
                    DistinguishedName::ca("US", "DigiCert Inc", "DigiCert SHA2 Secure Server CA");
                let inter = self.ca_cert(
                    digicert_root.clone(),
                    dc.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x10,
                    self.intermediate_extras("digicert.com"),
                );
                let root = self.ca_cert(
                    digicert_root.clone(),
                    digicert_root.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x11,
                    vec![],
                );
                (dc, Sha256WithRsa2048, vec![inter, root])
            }
            ChainId::AmazonRsa => {
                let am = DistinguishedName::ca("US", "Amazon", "Amazon RSA 2048 M01");
                let inter = self.ca_cert(
                    amazon_root.clone(),
                    am.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x12,
                    self.intermediate_extras("amazontrust.com"),
                );
                let root = self.ca_cert(
                    starfield_root.clone(),
                    amazon_root.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x13,
                    self.intermediate_extras("amazontrust.com"),
                );
                (am, Sha256WithRsa2048, vec![inter, root])
            }
            ChainId::GoDaddyG2 => {
                let gd = DistinguishedName::ca(
                    "US",
                    "GoDaddy.com, Inc.",
                    "Go Daddy Secure Certificate Authority - G2",
                );
                let inter = self.ca_cert(
                    godaddy_root.clone(),
                    gd.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x14,
                    self.intermediate_extras("godaddy.com"),
                );
                // GoDaddy bundles commonly ship the root alongside the
                // issuing CA (3-certificate chains in the wild).
                let root = self.ca_cert(
                    godaddy_root.clone(),
                    godaddy_root.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x16,
                    vec![],
                );
                (gd, Sha256WithRsa2048, vec![inter, root])
            }
            ChainId::StarfieldG2 => {
                let sf = DistinguishedName::ca(
                    "US",
                    "Starfield Technologies, Inc.",
                    "Starfield Secure Certificate Authority - G2",
                );
                let inter = self.ca_cert(
                    starfield_root.clone(),
                    sf.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x15,
                    self.intermediate_extras("starfieldtech.com"),
                );
                let root = self.ca_cert(
                    starfield_root.clone(),
                    starfield_root.clone(),
                    Rsa2048,
                    Sha256WithRsa2048,
                    seed ^ 0x17,
                    vec![],
                );
                (sf, Sha256WithRsa2048, vec![inter, root])
            }
            ChainId::EnterpriseHuge => {
                // A deep corporate PKI with RSA-4096 everywhere: policy CA,
                // issuing CA, two regional CAs and the root, all shipped.
                let org = "Worldwide Enterprise Holdings Corporation";
                let root_dn = DistinguishedName::ca("US", org, "Enterprise Global Root Authority");
                // Root (self-signed, superfluously included).
                let mut certs = vec![self.ca_cert(
                    root_dn.clone(),
                    root_dn.clone(),
                    Rsa4096,
                    Sha384WithRsa4096,
                    seed ^ 0x20,
                    vec![],
                )];
                // Each CA signed by the one before it, the root first.
                let mut issuer = root_dn;
                for (i, name) in [
                    "Enterprise Policy Certification Authority",
                    "Enterprise Regional Certification Authority - Americas",
                    "Enterprise Regional Certification Authority - EMEA",
                    "Enterprise TLS Issuing Authority 07",
                ]
                .into_iter()
                .enumerate()
                {
                    let subject = DistinguishedName::ca("US", org, name);
                    certs.push(self.ca_cert(
                        issuer,
                        subject.clone(),
                        Rsa4096,
                        Sha384WithRsa4096,
                        seed ^ (0x22 + i as u64),
                        self.intermediate_extras("enterprise.example"),
                    ));
                    issuer = subject;
                }
                // Served leaf-issuer first: issuing CA ... root.
                certs.reverse();
                (issuer, Sha384WithRsa4096, certs)
            }
        };

        ParentChain {
            id,
            issuer_dn,
            // The issuing CA signs leaves with its era-mapped algorithm.
            leaf_sig: self.era.signature(leaf_sig),
            intermediates: Arc::new(intermediates),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eco() -> Ecosystem {
        Ecosystem::new()
    }

    fn leaf_params(key: KeyAlgorithm) -> LeafParams {
        LeafParams {
            common_name: "shop.example.org".into(),
            extra_sans: vec![],
            key,
            scts: 2,
            seed: 99,
        }
    }

    #[test]
    fn ecosystem_is_deterministic() {
        let a = Ecosystem::new();
        let b = Ecosystem::new();
        for id in ChainId::ALL {
            assert_eq!(
                a.chain_era(id, CertificateEra::Classical).parent_der_len(),
                b.chain_era(id, CertificateEra::Classical).parent_der_len(),
                "{id:?}"
            );
        }
    }

    #[test]
    fn a_catalog_lookup_by_position_finds_its_own_chain() {
        let eco = eco();
        for era in CertificateEra::ALL {
            for id in ChainId::ALL {
                assert_eq!(eco.chain_era(id, era).id, id, "{era:?}");
            }
        }
    }

    #[test]
    fn parent_chain_sizes_are_realistic() {
        let eco = eco();
        // Reference ballparks from the real certificates (crt.sh).
        let expect: [(ChainId, std::ops::Range<usize>); 6] = [
            (ChainId::LeR3Short, 950..1700),
            (ChainId::LeR3X1Cross, 2100..4200),
            (ChainId::LeE1Short, 700..1300),
            (ChainId::Gts1C3, 2100..4000),
            (ChainId::CloudflareEcc, 900..1500),
            (ChainId::CPanelComodoRoot, 3400..6500),
        ];
        for (id, range) in expect {
            let len = eco
                .chain_era(id, CertificateEra::Classical)
                .parent_der_len();
            assert!(range.contains(&len), "{id:?}: {len} not in {range:?}");
        }
        // The enterprise chain drives the heavy tail.
        assert!(
            eco.chain_era(ChainId::EnterpriseHuge, CertificateEra::Classical)
                .parent_der_len()
                > 7000
        );
    }

    #[test]
    fn issued_chains_are_ordered_and_realistic() {
        let eco = eco();
        for id in ChainId::ALL {
            let chain = eco.issue_era(
                id,
                CertificateEra::Classical,
                leaf_params(KeyAlgorithm::EcdsaP256),
            );
            assert!(chain.correctly_ordered(), "{id:?} must chain by DN");
            assert!(chain.depth() >= 2);
            let leaf = &chain.leaf;
            assert!(
                (700..1500).contains(&leaf.der_len()),
                "{id:?} leaf size {}",
                leaf.der_len()
            );
            assert!(leaf.san_count() >= 2);
        }
    }

    #[test]
    fn cross_sign_waste_is_visible() {
        let eco = eco();
        let short = eco.issue_era(
            ChainId::LeR3Short,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::EcdsaP256),
        );
        let long = eco.issue_era(
            ChainId::LeR3X1Cross,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::EcdsaP256),
        );
        assert!(long.total_der_len() > short.total_der_len() + 1000);
    }

    #[test]
    fn superfluous_roots_are_detected() {
        let eco = eco();
        let with_root = eco.issue_era(
            ChainId::CPanelComodoRoot,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::Rsa2048),
        );
        assert!(with_root.includes_trust_anchor());
        let without = eco.issue_era(
            ChainId::SectigoUserTrust,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::Rsa2048),
        );
        assert!(!without.includes_trust_anchor());
    }

    #[test]
    fn rsa_leaves_are_bigger_than_ecdsa() {
        let eco = eco();
        let ec = eco.issue_era(
            ChainId::LeR3Short,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::EcdsaP256),
        );
        let rsa = eco.issue_era(
            ChainId::LeR3Short,
            CertificateEra::Classical,
            leaf_params(KeyAlgorithm::Rsa2048),
        );
        assert!(rsa.leaf.der_len() > ec.leaf.der_len() + 180);
    }

    #[test]
    fn era_catalogs_multiply_chain_sizes() {
        let eco = eco();
        for id in ChainId::ALL {
            let classical = eco
                .chain_era(id, CertificateEra::Classical)
                .parent_der_len();
            let pq = eco
                .chain_era(id, CertificateEra::PostQuantum)
                .parent_der_len();
            let hybrid = eco.chain_era(id, CertificateEra::Hybrid).parent_der_len();
            // Chou & Cao: ML-DSA chains are several times the classical
            // size; hybrids carry both components and are bigger still.
            assert!(
                pq > 2 * classical,
                "{id:?}: pq {pq} vs classical {classical}"
            );
            assert!(hybrid > pq, "{id:?}: hybrid {hybrid} vs pq {pq}");
        }
    }

    #[test]
    fn era_issued_chains_stay_ordered_with_pq_leaves() {
        let eco = eco();
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            for id in [ChainId::LeR3Short, ChainId::Gts1C3, ChainId::EnterpriseHuge] {
                let chain = eco.issue_era(id, era, leaf_params(KeyAlgorithm::EcdsaP256));
                assert!(chain.correctly_ordered(), "{era}: {id:?}");
                assert!(chain.leaf.tbs.spki.algorithm.is_post_quantum(), "{era}");
                // The leaf and every intermediate carry era signatures.
                for cert in chain.certs() {
                    assert!(cert.signature_alg.is_post_quantum(), "{era}: {id:?}");
                }
            }
        }
    }

    #[test]
    fn era_catalogs_are_deterministic() {
        let a = Ecosystem::new();
        let b = Ecosystem::new();
        for era in CertificateEra::ALL {
            for id in ChainId::ALL {
                let x = a.chain_era(id, era);
                let y = b.chain_era(id, era);
                assert_eq!(x.parent_der_len(), y.parent_der_len(), "{era}: {id:?}");
                for (cx, cy) in x.intermediates.iter().zip(y.intermediates.iter()) {
                    assert_eq!(cx.der(), cy.der(), "{era}: {id:?}");
                }
            }
        }
    }

    #[test]
    fn cruise_liner_leaves_blow_up_san_share() {
        let eco = eco();
        let mut params = leaf_params(KeyAlgorithm::Rsa2048);
        params.extra_sans = (0..150)
            .map(|i| format!("customer-site-{i:03}.hosting.example"))
            .collect();
        let chain = eco.issue_era(ChainId::CPanelComodoRoot, CertificateEra::Classical, params);
        let leaf = &chain.leaf;
        let share = leaf.san_bytes() as f64 / leaf.der_len() as f64;
        assert!(share > 0.5, "SAN share {share}");
        assert!(leaf.der_len() > 5000);
    }
}
