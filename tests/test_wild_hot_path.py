"""Byte identity of the optimised wild hot path.

The toplist, prober and Cloudflare-study loops were rewritten for
speed without changing a single random draw. The digests below were
recorded with the scalar code this module keeps as reference
(``reference_*``); each test pins either those digests or the
reference code itself against the production path.
"""

import hashlib
import ipaddress
import math
import random
from bisect import bisect_right

import pytest

from repro.api import LocalConfig, RunRequest, ScanRequest, Session
from repro.api.bundles import bundle_files
from repro.wild.asdb import CDN_AS_NUMBERS, OTHERS_ASN, AsDatabase, Cdn
from repro.wild.cdn import deployment_for
from repro.wild.cloudflare import (
    CloudflareEdge,
    CloudflareLongitudinalStudy,
    diurnal_factor,
)
from repro.wild.qscanner import ProbeResult, QScanner
from repro.wild.tranco import TrancoGenerator, _FeistelPermutation, _mix64
from repro.wild.vantage import VANTAGE_POINTS, vantage

#: SHA-256 of ``ScanResult.to_json()`` for 5k Tranco targets (seed 0)
#: scanned for two days from every vantage, per probe engine.
SCAN_5K_2D_SHA256 = {
    "analytic": "f97ecd9c9529c9517bd5810bc19e42bd224f7e5ca4115e46febba6118a145716",
    "batch": "a4dbf62d8aaf687cc3a9b4877451cdb8718604caa7c6ee63688abdd3ca447da6",
}

#: SHA-256 of each file of the fig15 bundle at ``days=1``.
FIG15_1D_SHA256 = {
    "fig15.json": "e31f148f9856609f805f6f4602f9f0ae8a57cbd05af666be9502a9a32122cc4a",
    "suite.json": "48befe6cf879416411107c38eee9e8bf5528113f0a561a01d1f3d520f51925f0",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- reference (pre-optimisation) scalar code -----------------------------


def reference_address_in_asn(asdb, asn, host_index):
    network = asdb.prefix_for_asn(asn)
    base = int(network.network_address)
    size = network.num_addresses
    return str(ipaddress.ip_address(base + 1 + (host_index % (size - 2))))


def reference_origin_asn(asdb, address):
    ip = ipaddress.ip_address(address)
    if ip.version != 4:
        return None
    if int(ip) >> 24 != 10:
        return None
    return asdb._prefix_index.get((int(ip) >> 16) & 0xFF)


def reference_permute(perm, value):
    def encrypt(value):
        mask = (1 << perm.half_bits) - 1
        left = value >> perm.half_bits
        right = value & mask
        for key in perm.round_keys:
            left, right = right, left ^ (_mix64(right ^ key) & mask)
        return (left << perm.half_bits) | right

    value = encrypt(value)
    while value >= perm.size:
        value = encrypt(value)
    return value


def reference_domain_at(generator, rank):
    slot = reference_permute(generator._permute, rank - 1)
    name = f"domain{rank:07d}.example"
    if slot >= generator._quic_total:
        return (rank, name, None, None)
    span = bisect_right(generator._span_ends, slot)
    start, cdn, _ = generator._spans[span]
    host_index = slot - start
    asns = generator.asdb.asns_for_cdn(cdn)
    asn = asns[host_index % len(asns)]
    return (rank, name, cdn, reference_address_in_asn(generator.asdb, asn, host_index))


def reference_probe_one(scanner, domain, day):
    """The analytic engine before the share bias was memoised: a fresh
    SHA-512-seeded bias rng per probe."""
    deployment = deployment_for(domain.cdn)
    rng = random.Random(f"probe:{scanner.seed}:{scanner.vantage.name}:{day}:{domain.name}")
    bias = random.Random(f"bias:{scanner.vantage.name}:{day}:{domain.cdn.value}").uniform(
        -1.0, 0.0
    )
    base, spread = (
        (scanner.vantage.others_rtt_median_ms, 0.9)
        if domain.cdn is Cdn.OTHERS
        else (scanner.vantage.cdn_rtt_median_ms, scanner.vantage.cdn_rtt_jitter)
    )
    rtt = max(0.3, rng.lognormvariate(math.log(base), spread))
    iack_enabled = deployment.sample_iack_enabled(rng, bias=bias)
    cached = deployment.sample_cert_cached(rng, popularity=domain.popularity)
    backend_delay = rng.lognormvariate(
        math.log(max(deployment.backend_delay_median_ms, 1e-3)), deployment.backend_delay_sigma
    )
    coalesced = not iack_enabled or cached
    delay = 0.0 if coalesced else backend_delay
    ack_delay_field = deployment.sample_ack_delay_field_ms(rng, rtt, coalesced=coalesced)
    return ProbeResult(
        domain=domain.name,
        rank=domain.rank,
        address=domain.address,
        cdn=Cdn.OTHERS if (asn := reference_origin_asn(scanner.asdb, domain.address)) is None
        else scanner.asdb._asn_to_cdn.get(asn, Cdn.OTHERS),
        vantage=scanner.vantage.name,
        day=day,
        rtt_ms=rtt,
        iack_observed=not coalesced,
        coalesced=coalesced,
        ack_to_sh_delay_ms=delay,
        ack_delay_field_ms=ack_delay_field,
    )


def reference_study(study, minutes, outage_minutes=None):
    """The Cloudflare study's per-connection loop before the per-minute
    and per-domain invariants were hoisted, as field tuples."""
    rng = random.Random(f"cf:{study.seed}:{study.vantage.name}")
    edge = CloudflareEdge(iata=study.vantage.iata)
    outages = set(outage_minutes or ())
    deployment = deployment_for(Cdn.CLOUDFLARE)
    samples = []

    def one(domain, minute, fast):
        rtt = study.vantage.sample_rtt_ms(Cdn.CLOUDFLARE, rng)
        same_city = rng.random() > 0.015
        has_first_ack = rng.random() > 0.01
        warm = edge.lookup_and_refresh(domain, float(minute))
        background = study.popular_background_warmth.get(domain, 0.0)
        if not warm and background > 0.0:
            warm = rng.random() < background
        if fast:
            warm = warm or rng.random() < 0.075
        elif domain in study.own_domains:
            warm = warm and rng.random() < 0.02
        backend = deployment.sample_backend_delay_ms(rng, diurnal=diurnal_factor(minute))
        backend = max(0.3, backend * 0.52)
        ack_latency = rtt / 2.0 + rng.uniform(0.05, 0.3) + rtt / 2.0
        head = (minute, domain, study.vantage.name, edge.iata, same_city, has_first_ack)
        if domain in study.broken_sh_domains:
            return head + ("ACK", ack_latency, None)
        if warm:
            latency = ack_latency + rng.uniform(0.05, 0.4)
            return head + ("ACK,SH", latency, latency)
        return head + ("SH", ack_latency, ack_latency + backend)

    slow = [d for d in study.own_domains if d not in study.fast_rate_domains]
    for minute in range(minutes):
        if minute in outages:
            continue
        for domain in slow + study.popular_domains:
            samples.append(one(domain, minute, False))
        for domain in study.fast_rate_domains:
            for _ in range(2):
                samples.append(one(domain, minute, True))
    return samples


# -- pinned digests --------------------------------------------------------


@pytest.mark.parametrize("engine", ["analytic", "batch"])
def test_scan_summary_is_byte_identical(engine):
    request = ScanRequest(
        source={"kind": "tranco", "list_size": 5000, "seed": 0},
        days=2,
        seed=0,
        probe_engine=engine,
    )
    with Session(LocalConfig(workers=0)) as session:
        scan = session.scan(request)
    assert _sha256(scan.to_json()) == SCAN_5K_2D_SHA256[engine]


@pytest.mark.parametrize("workers", [0, 2])
def test_fig15_bundle_is_byte_identical(workers):
    """Serial and pool-parallel studies (the latter pickles every
    sample back from a worker) both reproduce the recorded bytes."""
    request = RunRequest(("fig15",), overrides={"fig15": {"days": 1, "workers": workers}})
    with Session(LocalConfig(workers=0)) as session:
        files = bundle_files(session.run(request))
    assert {name: _sha256(text) for name, text in files.items()} == FIG15_1D_SHA256


# -- production code against the reference ---------------------------------


def test_address_in_asn_matches_ipaddress_form():
    asdb = AsDatabase()
    asns = sorted({asn for group in CDN_AS_NUMBERS.values() for asn in group} | {OTHERS_ASN})
    for asn in asns:
        size = asdb.prefix_for_asn(asn).num_addresses
        for host_index in (0, 1, size - 3, size - 2, 3 * (size - 2) + 17):
            address = asdb.address_in_asn(asn, host_index)
            assert address == reference_address_in_asn(asdb, asn, host_index)
            assert asdb.origin_asn(address) == asn
    with pytest.raises(KeyError, match="not in database"):
        asdb.address_in_asn(64512, 0)


@pytest.mark.parametrize(
    "address",
    [
        "10.3.0.1",
        "10.0.0.0",
        "10.255.255.255",
        "10.200.1.1",  # in 10/8, no AS there
        "192.0.2.1",
        "11.3.0.1",
        "::1",
        "2001:db8::10:3:0:1",
        "::ffff:10.3.0.1",
    ],
)
def test_origin_asn_matches_reference(address):
    asdb = AsDatabase()
    assert asdb.origin_asn(address) == reference_origin_asn(asdb, address)


@pytest.mark.parametrize(
    "address", ["10.03.0.1", "10.3.0.256", "10.3.0", "10.3.0.1.", " 10.3.0.1", "10.٣.0.1", ""]
)
def test_origin_asn_rejects_malformed_input_like_ipaddress(address):
    with pytest.raises(ValueError):
        ipaddress.ip_address(address)
    with pytest.raises(ValueError):
        AsDatabase().origin_asn(address)


@pytest.mark.parametrize("size", [1000, 5000])
def test_domain_at_matches_reference_feistel(size):
    # (size - 1).bit_length() is 10 (even) at 1000 and 13 (odd, so the
    # Feistel domain rounds up to 14 bits) at 5000.
    generator = TrancoGenerator(list_size=size, seed=7)
    for rank in range(1, size + 1):
        domain = generator.domain_at(rank)
        assert (domain.rank, domain.name, domain.cdn, domain.address) == reference_domain_at(
            generator, rank
        )


def test_round_memo_does_not_change_the_permutation():
    perm = _FeistelPermutation(3000, "memo-check")
    first = [perm(v) for v in range(3000)]
    assert sorted(first) == list(range(3000))
    assert first == [perm(v) for v in range(3000)]  # memo hits
    assert first == [reference_permute(perm, v) for v in range(3000)]


@pytest.mark.parametrize("name", sorted(VANTAGE_POINTS))
def test_probe_one_matches_reference_analytic_engine(name):
    domains = TrancoGenerator(list_size=4000, seed=3).quic_domains()
    scanner = QScanner(vantage(name), seed=5)
    for day in (0, 1):
        for domain in domains:
            assert scanner.probe_one(domain, day=day) == reference_probe_one(scanner, domain, day)


@pytest.mark.parametrize("name", sorted(VANTAGE_POINTS))
def test_study_matches_reference_loop(name):
    study = CloudflareLongitudinalStudy(vantage(name), seed=11)
    minutes, outages = 3 * 60, range(50, 70)
    samples = study.run(minutes=minutes, outage_minutes=outages)
    assert [tuple(s) for s in samples] == reference_study(study, minutes, outages)
