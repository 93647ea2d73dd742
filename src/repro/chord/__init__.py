"""Chord-style peer-to-peer substrate (Sections 1.4 and 3 of the paper).

The paper layers its adaptive counting network on an overlay providing
(a) random node identifiers on a unit ring, (b) a distributed hash
mapping object names to live nodes, and (c) efficient lookup. This
subpackage provides exactly that subset of Chord:

* :mod:`repro.chord.identifiers` — the identifier space and distances;
* :mod:`repro.chord.ring` — the ring membership structure with joins,
  graceful leaves and crashes;
* :mod:`repro.chord.hashing` — consistent hashing of component names;
* :mod:`repro.chord.fingers` — finger tables and O(log N) greedy lookup
  with hop counting;
* :mod:`repro.chord.estimation` — the two-step decentralised system-size
  estimator of Section 3.1 and the level estimates built on it.

The paper *assumes* this substrate (§1.4); it does not specify one. The
ring here is global and always consistent: the directory and every
§3.1 size estimate read :class:`ChordRing` directly, not a node's own
successor pointers, so no maintenance protocol runs and ring repair
under churn is not modelled (``docs/architecture.md`` *Known limits*).
"""

from repro.chord.identifiers import IdentifierSpace
from repro.chord.ring import ChordNode, ChordRing
from repro.chord.hashing import name_to_point
from repro.chord.estimation import SizeEstimator

__all__ = [
    "IdentifierSpace",
    "ChordNode",
    "ChordRing",
    "name_to_point",
    "SizeEstimator",
]
