"""The Cloudflare longitudinal study (§3, §4.3, Figures 9 and 15).

The paper adds twelve otherwise-unused domains to the Cloudflare Free
Tier, selects six popular Tranco domains also on Cloudflare, and for
one week schedules one connection per minute (plus 60/min against six
of the own domains). Responses are dissected for the arrival times of
ACK, ServerHello, and coalesced ACK–SH; only same-city responses with
the connection's first ACK count.

Offline, a :class:`CloudflareEdge` models the frontend with a
certificate cache (keyed by domain, with a TTL): frequently requested
domains hit the cache and produce *coalesced* ACK–SH; cold domains
produce an instant ACK followed by the ServerHello after the
certificate-store round trip, whose delay follows a diurnal cycle
("larger delays ... during local day time compared to the night",
§4.3/Appendix G).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.wild.asdb import Cdn
from repro.wild.cdn import deployment_for
from repro.wild.vantage import VantagePoint

#: One week of measurement, in minutes.
WEEK_MINUTES = 7 * 24 * 60


class LongitudinalSample(NamedTuple):
    """One connection's dissected response.

    A named tuple rather than a dataclass: a study week builds
    hundreds of thousands of these, and a tuple is the cheapest
    immutable record both to build and to pickle back from a pool
    worker.
    """

    minute: int
    domain: str
    vantage: str
    iata: str
    same_city: bool
    has_first_ack: bool
    #: "SH", "ACK", or "ACK,SH" (coalesced) — the three series of
    #: Figure 9.
    kind: str
    #: Time from ClientHello to the (first) ACK [ms].
    ack_latency_ms: Optional[float]
    #: Time from ClientHello to the ServerHello [ms].
    sh_latency_ms: Optional[float]

    @property
    def hour(self) -> int:
        return self.minute // 60

    @property
    def local_hour_of_day(self) -> int:
        return (self.minute // 60) % 24


@dataclass
class CloudflareEdge:
    """A same-city Cloudflare frontend cluster with a cert cache."""

    iata: str
    cache_ttl_minutes: float = 30.0
    _cache: Dict[str, float] = field(default_factory=dict)

    def lookup_and_refresh(self, domain: str, minute: float) -> bool:
        """True when the certificate is cached (and refresh it)."""
        expiry = self._cache.get(domain)
        hit = expiry is not None and expiry >= minute
        self._cache[domain] = minute + self.cache_ttl_minutes
        return hit


def diurnal_factor(minute: int) -> float:
    """Backend load in [0, 1]: peaks at 14:00 local, troughs at 02:00."""
    hour = (minute / 60.0) % 24.0
    return 0.5 + 0.5 * math.sin((hour - 8.0) / 24.0 * 2.0 * math.pi)


class CloudflareLongitudinalStudy:
    """Generates the week-long measurement the paper runs.

    Parameters
    ----------
    vantage:
        Measurement location (the edge cluster is in the same city).
    own_domains / popular_domains:
        Domain name lists; popular domains have high background
        request rates (other users keep their certs cached).
    fast_rate_domains:
        Subset of own domains contacted 60x per minute instead of 1x.
    """

    def __init__(
        self,
        vantage: VantagePoint,
        own_domains: Optional[List[str]] = None,
        popular_domains: Optional[List[str]] = None,
        fast_rate_domains: Optional[List[str]] = None,
        seed: int = 0,
    ):
        self.vantage = vantage
        self.own_domains = own_domains or [
            f"own-domain-{i:02d}.example" for i in range(12)
        ]
        self.popular_domains = popular_domains or [
            "discord.com",
            "cloudflare.com",
            "tinyurl.com",
            "docker.com",
            "udemy.com",
            "kickstarter.com",
        ]
        self.fast_rate_domains = fast_rate_domains or self.own_domains[6:12]
        self.seed = seed
        #: Background cache-hit probability for popular domains
        #: (other users' traffic keeps them warm); fitted to the §4.3
        #: coalescing shares (discord.com 91.9 % ... docker.com 0.7 %).
        self.popular_background_warmth: Dict[str, float] = {
            "discord.com": 0.919,
            "cloudflare.com": 0.505,
            "tinyurl.com": 0.177,
            "docker.com": 0.007,
            "udemy.com": 0.0,
            "kickstarter.com": 0.0,
        }
        #: udemy.com and kickstarter.com sent IACKs "but no SHs
        #: follow" (§4.3).
        self.broken_sh_domains = {"udemy.com", "kickstarter.com"}

    def run(
        self,
        minutes: int = WEEK_MINUTES,
        outage_minutes: Optional[Iterable[int]] = None,
    ) -> List[LongitudinalSample]:
        """Produce all samples of the study.

        ``outage_minutes`` marks host-maintenance gaps (the Hong Kong
        misconfiguration of Figure 15 drops those samples).
        """
        rng = random.Random(f"cf:{self.seed}:{self.vantage.name}")
        random_, uniform, lognormvariate = rng.random, rng.uniform, rng.lognormvariate
        edge = CloudflareEdge(iata=self.vantage.iata)
        outages = set(outage_minutes or ())
        deployment = deployment_for(Cdn.CLOUDFLARE)
        rtt_mu, rtt_sigma = self.vantage.rtt_lognormal(Cdn.CLOUDFLARE)
        backend_sigma = deployment.backend_delay_sigma
        vantage_name = self.vantage.name
        own_domains = set(self.own_domains)

        def connection(domain: str, fast: bool) -> Tuple[str, float, bool, bool, bool]:
            return (
                domain,
                self.popular_background_warmth.get(domain, 0.0),
                fast,
                domain in own_domains,
                domain in self.broken_sh_domains,
            )

        # Every minute makes the same connections in the same order:
        # 1/min to six own (slow) + six popular domains, then 60/min to
        # the fast-rate own domains, of which two per domain are
        # sampled for the analysis (the paper analyzes all; a fixed
        # sample per minute preserves the distribution).
        slow_domains = [d for d in self.own_domains if d not in self.fast_rate_domains]
        schedule = [connection(d, False) for d in slow_domains + self.popular_domains]
        schedule += [connection(d, True) for d in self.fast_rate_domains for _ in range(2)]

        samples: List[LongitudinalSample] = []
        append = samples.append
        for minute in range(minutes):
            if minute in outages:
                continue
            now = float(minute)
            backend_mu = deployment.backend_delay_mu(diurnal_factor(minute))
            for domain, background, fast, own, broken_sh in schedule:
                rtt = max(0.3, lognormvariate(rtt_mu, rtt_sigma))
                # ~1.5 % of responses come from another city's cluster
                # and are filtered out; ~1 % lose the first ACK to
                # packet loss.
                same_city = random_() > 0.015
                has_first_ack = random_() > 0.01
                warm = edge.lookup_and_refresh(domain, now)
                if not warm and background > 0.0:
                    warm = random_() < background
                if fast:
                    # 60 connections/min keep the edge warm part of the
                    # time ("we receive coalesced ACKs and ServerHellos
                    # more likely (7.5 %)", §4.3).
                    warm = warm or random_() < 0.075
                elif own:
                    # Our 1/min own domains almost always (99.9 %) get
                    # an IACK.
                    warm = warm and random_() < 0.02
                # Median IACK→SH gaps per vantage are 2.1–2.6 ms
                # (§4.3); same-city backend fetches are faster than the
                # global Fig. 8 population, so scale down (0.52 lands
                # the overall median at ~2.1 ms once the diurnal factor
                # is averaged in).
                backend = max(0.3, lognormvariate(backend_mu, backend_sigma) * 0.52)
                ack_latency = rtt / 2.0 + uniform(0.05, 0.3) + rtt / 2.0
                if broken_sh:
                    kind, sh_latency = "ACK", None
                elif warm:
                    # Coalesced ACK–SH: SH in coalesced messages
                    # arrives faster than a separate SH (Figure 9).
                    kind = "ACK,SH"
                    ack_latency = sh_latency = ack_latency + uniform(0.05, 0.4)
                else:
                    kind, sh_latency = "SH", ack_latency + backend
                append(
                    LongitudinalSample(
                        minute, domain, vantage_name, edge.iata, same_city,
                        has_first_ack, kind, ack_latency, sh_latency,
                    )
                )
        return samples


def filter_valid(samples: Iterable[LongitudinalSample]) -> List[LongitudinalSample]:
    """The paper's validity filter: same-city responses that contain
    the connection's first ACK."""
    return [s for s in samples if s.same_city and s.has_first_ack]
