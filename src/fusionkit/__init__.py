"""fusionkit: exact verification of normalizer decompositions at a prime.

Subpackages:
  cyclo        exact cyclotomic arithmetic
  matgroup     matrices over Q(zeta_m) and finite matrix groups by closure
  fingroup     finite groups on element indices: normalizers, extensions, recognition
  extraspecial coordinates and automorphisms for extraspecial p-groups
  fusion       fusion systems, centric-radical chain posets, chain automorphisms
  diagram      decomposition diagrams (JSON / DOT emission)
  cases        the bundled unitary-group and exotic case studies
  cli          command line entry point
"""

import json

SCHEMA_VERSION = 1


def canonical_json(data: dict) -> str:
    """The byte-stable artifact encoding: sorted keys, no spaces, one
    trailing newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


__all__ = ["SCHEMA_VERSION", "canonical_json"]
