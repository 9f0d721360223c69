"""Datasets D3–D6 — format-diverse corpora for parser experiments.

Table III/IV of the paper evaluate parsing speed and pattern-count scaling
on four datasets whose key property is the number of distinct log formats
LogLens discovers from them:

========  ==============  =========  ==========
dataset   flavour         logs       patterns
========  ==============  =========  ==========
D3        storage server  792,176    301
D4        OpenStack       400,000    3,234
D5        PCAP            246,500    243
D6        network ops     1,000,000  2,012
========  ==============  =========  ==========

The generators reproduce the *pattern-count* knob exactly (that is what
drives the Table IV behaviour — Logstash degrades linearly in pattern
count while LogLens does not) with flavour-appropriate vocabularies; the
default log volumes are scaled down ~20x so a laptop bench run finishes in
minutes, and are overridable up to paper scale.
"""

from __future__ import annotations

from typing import Sequence

from .base import BASE_TIME_MILLIS, CorpusDataset, TemplateCorpus

__all__ = [
    "generate_d3",
    "generate_d4",
    "generate_d5",
    "generate_d6",
    "generate_corpus",
]

_STORAGE_VOCAB = (
    "scsi", "volume", "raid", "lun", "mirror", "rebuild", "target",
    "initiator", "cache", "flush", "disk", "enclosure", "firmware",
    "path", "failover", "pool", "snapshot", "dedup", "iops", "latency",
    "controller", "port", "session", "zone", "wwn", "queue", "write",
    "read", "verify", "parity", "spare", "sector",
)

_OPENSTACK_VOCAB = (
    "nova", "neutron", "keystone", "glance", "cinder", "instance",
    "server", "network", "subnet", "port", "image", "flavor", "quota",
    "tenant", "project", "token", "request", "response", "compute",
    "scheduler", "conductor", "api", "amqp", "rpc", "hypervisor",
    "libvirt", "migration", "resize", "attach", "detach", "boot", "spawn",
)

_PCAP_VOCAB = (
    "tcp", "udp", "icmp", "syn", "ack", "fin", "rst", "window", "seq",
    "ttl", "len", "frame", "ether", "vlan", "arp", "dns", "query",
    "response", "http", "tls", "handshake", "checksum", "fragment",
    "offset", "flags", "proto", "sport", "dport", "payload",
)

_NETWORK_VOCAB = (
    "bgp", "ospf", "interface", "neighbor", "adjacency", "route",
    "prefix", "vlan", "trunk", "spanning", "tree", "link", "duplex",
    "carrier", "line", "protocol", "up", "down", "flap", "mtu",
    "buffer", "drop", "crc", "collision", "broadcast", "multicast",
    "acl", "nat", "tunnel", "peer", "session", "hold", "timer",
)


def generate_corpus(
    name: str,
    n_templates: int,
    n_logs: int,
    vocabulary: Sequence[str],
    seed: int,
) -> CorpusDataset:
    """Render a train==test corpus (the paper's sanity-check setup).

    Using the same logs for training and testing means a correct parser
    reports zero anomalies (every log must match a discovered pattern) —
    exactly how the paper validates Table IV.
    """
    corpus = TemplateCorpus(
        n_templates=n_templates, vocabulary=vocabulary, seed=seed
    )
    logs = corpus.render(n_logs, start_millis=BASE_TIME_MILLIS)
    return CorpusDataset(
        name=name,
        train=logs,
        test=list(logs),
        template_count=corpus.template_count,
    )


def generate_d3(n_logs: int = 40_000, seed: int = 31) -> CorpusDataset:
    """D3 — storage server logs, 301 formats (paper: 792,176 logs)."""
    return generate_corpus("D3", 301, n_logs, _STORAGE_VOCAB, seed)


def generate_d4(n_logs: int = 20_000, seed: int = 37) -> CorpusDataset:
    """D4 — OpenStack logs, 3,234 formats (paper: 400,000 logs)."""
    return generate_corpus("D4", 3234, n_logs, _OPENSTACK_VOCAB, seed)


def generate_d5(n_logs: int = 12_000, seed: int = 41) -> CorpusDataset:
    """D5 — PCAP logs, 243 formats (paper: 246,500 logs)."""
    return generate_corpus("D5", 243, n_logs, _PCAP_VOCAB, seed)


def generate_d6(n_logs: int = 50_000, seed: int = 43) -> CorpusDataset:
    """D6 — network operations logs, 2,012 formats (paper: 1,000,000)."""
    return generate_corpus("D6", 2012, n_logs, _NETWORK_VOCAB, seed)
