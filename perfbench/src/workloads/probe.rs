//! The probe stages of one host scan, timed one call at a time.
//!
//! `scanner::scan_host` calls the `net` and `pki` layers in a fixed
//! order: DNS with retries, plain-http fetch, TCP 443, TLS handshake,
//! https fetch, chain validation, CAA lookup and hosting attribution.
//! This pass makes the same public calls in the same order, each inside
//! its own span, so the per-stage cost shows without instrumenting the
//! scanner itself.

use govscan_net::{DnsOutcome, TcpOutcome};
use govscan_scanner::ScanContext;

use crate::report::Report;
use crate::trace::Tracer;

/// DNS attempts per host, as `scan_host` makes them.
const RETRIES: usize = 3;

/// Probe every host of `hostnames` stage by stage, recording one span
/// per call plus the failure shares and the verdict-cache hit ratio.
pub fn probe_stages(t: &Tracer, ctx: &ScanContext<'_>, hostnames: &[String], report: &mut Report) {
    let mut dns_failed = 0u64;
    let mut tls_attempts = 0u64;
    let mut tls_failed = 0u64;
    for name in hostnames {
        let host = name.to_ascii_lowercase();
        let mut ip = None;
        for _ in 0..RETRIES {
            if let DnsOutcome::Ok(addrs) = t.span("net.resolve", || ctx.net.resolve(&host)) {
                ip = addrs.first().copied();
                break;
            }
        }
        let Some(ip) = ip else {
            dns_failed += 1;
            continue;
        };
        t.span("net.fetch_http", || {
            ctx.net.fetch(&host, false, &ctx.client)
        });
        if matches!(
            t.span("net.tcp_connect", || ctx.net.tcp_connect(&host, 443)),
            TcpOutcome::Accepted
        ) {
            tls_attempts += 1;
            match t.span("net.tls_connect", || {
                ctx.net.tls_connect(&host, &ctx.client)
            }) {
                Err(_) => tls_failed += 1,
                Ok(session) => {
                    t.span("net.fetch_https", || {
                        ctx.net.fetch(&host, true, &ctx.client)
                    });
                    let _ = t.span("pki.validate", || {
                        ctx.verdicts.validate(&session.peer_chain, &host)
                    });
                }
            }
        }
        t.span("net.caa_lookup", || ctx.net.caa_lookup(&host).len());
        t.span("net.cidr_lookup", || ctx.providers.lookup(ip).is_some());
    }
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let hosts = hostnames.len() as u64;
    report.metric(
        "net.dns_fail_share",
        share(dns_failed, hosts),
        "share",
        hosts,
    );
    report.metric(
        "net.tls_fail_share",
        share(tls_failed, tls_attempts),
        "share",
        tls_attempts,
    );
    let (hits, misses) = (ctx.verdicts.hits(), ctx.verdicts.misses());
    report.metric(
        "pki.vcache_hit_ratio",
        share(hits, hits + misses),
        "share",
        hits + misses,
    );
}
