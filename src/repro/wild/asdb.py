"""AS database and CDN inference (paper Table 5 / Appendix G).

"CDN hosted domains are inferred from their IP addresses mapped to
origin ASes gained from route announcements ... To account for CDNs
operating multiple ASes, we assign multiple AS numbers to one CDN."
"""

from __future__ import annotations

import enum
import ipaddress
import re
from typing import Dict, Optional, Tuple


class Cdn(enum.Enum):
    AKAMAI = "Akamai"
    AMAZON = "Amazon"
    CLOUDFLARE = "Cloudflare"
    FASTLY = "Fastly"
    GOOGLE = "Google"
    META = "Meta"
    MICROSOFT = "Microsoft"
    OTHERS = "Others"


#: Paper Table 5: AS numbers used for CDN inferences.
CDN_AS_NUMBERS: Dict[Cdn, Tuple[int, ...]] = {
    Cdn.AKAMAI: (16625, 20940),
    Cdn.AMAZON: (14618, 16509),
    Cdn.CLOUDFLARE: (13335, 209242),
    Cdn.FASTLY: (54113,),
    Cdn.GOOGLE: (15169, 396982),
    Cdn.META: (32934,),
    Cdn.MICROSOFT: (8075,),
}

#: A representative AS for "Others" (hosting services).
OTHERS_ASN = 24940  # e.g. a large hoster

_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"

#: A canonical dotted-quad inside 10/8, capturing the second octet —
#: exactly the strings ``ipaddress`` parses to such an address. Any
#: other input takes the ``ipaddress`` path, so IPv6, malformed and
#: out-of-range input behave as they always have.
_TEN_SLASH_8 = re.compile(rf"10\.({_OCTET})\.{_OCTET}\.{_OCTET}")


class AsDatabase:
    """Synthetic routing table: one /16 per AS, deterministic.

    Real measurements join IPs against BGP announcements; here every
    AS owns ``10.<index>.0.0/16`` so that address→AS→CDN lookups are
    deterministic and testable.
    """

    def __init__(self) -> None:
        self._asn_to_prefix: Dict[int, ipaddress.IPv4Network] = {}
        self._asn_to_dotted: Dict[int, str] = {}  # asn -> "10.<index>."
        self._prefix_index: Dict[int, int] = {}  # second octet -> asn
        index = 1
        all_asns = sorted(
            {asn for asns in CDN_AS_NUMBERS.values() for asn in asns} | {OTHERS_ASN}
        )
        for asn in all_asns:
            network = ipaddress.ip_network(f"10.{index}.0.0/16")
            self._asn_to_prefix[asn] = network
            self._asn_to_dotted[asn] = f"10.{index}."
            self._prefix_index[index] = asn
            index += 1
        self._asn_to_cdn: Dict[int, Cdn] = {}
        for cdn, asns in CDN_AS_NUMBERS.items():
            for asn in asns:
                self._asn_to_cdn[asn] = cdn
        self._asn_to_cdn[OTHERS_ASN] = Cdn.OTHERS

    def prefix_for_asn(self, asn: int) -> ipaddress.IPv4Network:
        try:
            return self._asn_to_prefix[asn]
        except KeyError:
            raise KeyError(f"ASN {asn} not in database") from None

    def address_in_asn(self, asn: int, host_index: int) -> str:
        """Deterministic address: the ``host_index``-th host of the
        AS's prefix (network and broadcast addresses skipped)."""
        try:
            dotted = self._asn_to_dotted[asn]
        except KeyError:
            raise KeyError(f"ASN {asn} not in database") from None
        # Every prefix is a /16, so the host offset fills exactly the
        # last two octets.
        offset = 1 + host_index % ((1 << 16) - 2)
        return f"{dotted}{offset >> 8}.{offset & 0xFF}"

    def origin_asn(self, address: str) -> Optional[int]:
        """Longest-prefix-match lookup (here: the /16 second octet)."""
        if type(address) is str:
            match = _TEN_SLASH_8.fullmatch(address)
            if match is not None:
                return self._prefix_index.get(int(match.group(1)))
        ip = ipaddress.ip_address(address)
        if ip.version != 4:
            return None
        second_octet = (int(ip) >> 16) & 0xFF
        first_octet = int(ip) >> 24
        if first_octet != 10:
            return None
        return self._prefix_index.get(second_octet)

    def cdn_for_address(self, address: str) -> Cdn:
        """The paper's inference: IP → origin AS → CDN, with unknown
        origins grouped under "Others" (hosting services)."""
        asn = self.origin_asn(address)
        return Cdn.OTHERS if asn is None else self._asn_to_cdn.get(asn, Cdn.OTHERS)

    def asns_for_cdn(self, cdn: Cdn) -> Tuple[int, ...]:
        if cdn is Cdn.OTHERS:
            return (OTHERS_ASN,)
        return CDN_AS_NUMBERS[cdn]
