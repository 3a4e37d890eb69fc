"""λ-NIC reproduction: interactive serverless compute on SmartNICs.

A full-system, simulation-based reproduction of "λ-NIC: Interactive
Serverless Compute on Programmable SmartNICs" (ICDCS 2020). Subpackages:

- :mod:`repro.sim` — discrete-event simulation kernel
- :mod:`repro.net` — packets, RDMA messages, links, switch, topology
- :mod:`repro.transport` — NIC-side reordering of RDMA segments
- :mod:`repro.isa` — the lambda IR and its interpreter/cost model
- :mod:`repro.microc` — the Micro-C source language front-end
- :mod:`repro.p4` — parsers, match-action tables, control blocks
- :mod:`repro.compiler` — Match+Lambda composition and optimisations
- :mod:`repro.hw` — the NPU-grid SmartNIC model
- :mod:`repro.host` — host CPU/OS/container/bare-metal models
- :mod:`repro.raft` — Raft consensus + etcd-like store
- :mod:`repro.kvcache` — memcached-like cache
- :mod:`repro.workloads` — the paper's three benchmark lambdas
- :mod:`repro.core` — λ-NIC framework core (Match+Lambda, fleet runtime)
- :mod:`repro.serverless` — the OpenFaaS-like framework and testbed
- :mod:`repro.faults` — deterministic fault injection (chaos plans)
- :mod:`repro.experiments` — one driver per paper table/figure

Start with :class:`repro.serverless.Testbed` (see README / examples).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
