"""Shared defaults for depth caps, search budgets, and serialization.

The CLI flags `--order-cap` and `--budget` default to ORDER_CAP and
SEARCH_BUDGET, so the library and the command line cannot drift apart
there; the other flags' defaults are literals in `cli.build_parser`.
"""

# Probe depth for the moved-vertex oracle.
MAX_DEPTH = 12

# Order report cap: `order` gives orders up to 2**ORDER_CAP exactly and
# larger ones as exceeding it.
ORDER_CAP = 12

# Commutator towers abort (visibly) past this reduced length.
WORD_LENGTH_CAP = 1 << 16

# Section-DAG computations (module `dag`) stop past this many interned
# nodes; a long-lived table (the word API's included) is dropped once its
# entries (`Dag.size`) reach half of it.
NODE_CAP = 1 << 20

# The long-lived tables of Engel probes and of their verifiers are dropped
# once their entries reach this many, about 1.5 MB each.
PROBE_TABLE_ENTRIES = 1 << 14

# Random-walk length used when sampling words.
WALK_LENGTH = 24

# Conjugator length bound for random products of conjugates of t.
CONJUGATOR_LENGTH = 12

# Deepest level quotient we will build.
QUOTIENT_MAX_LEVEL = 8

# Number of consecutive equal K-image indices required for certification.
PLATEAU_RUN = 3

# Default search budget (candidate evaluations).
SEARCH_BUDGET = 10_000

# Schema of the CLI's `--json` output.  A certificate carries the schema
# of its own kind instead, the key it has in `certificates._KINDS`.
SCHEMA_VERSION = 1
