"""Shared defaults for depth caps, search budgets, and serialization.

Every tunable that appears as a CLI flag defaults to the value defined
here, so the library and the command line cannot drift apart.
"""

# Probe depth for the moved-vertex oracle.
MAX_DEPTH = 12

# Order search cap: orders up to 2**ORDER_CAP are determined exactly.
ORDER_CAP = 12

# Level cap for first_active_level on adversarial inputs.
FIRST_ACTIVE_CAP = 64

# Commutator towers abort (visibly) past this reduced length.
WORD_LENGTH_CAP = 1 << 16

# Section-DAG computations (module `dag`) stop past this many interned nodes.
NODE_CAP = 1 << 20

# LRU size for the triviality cache.
MEMO_SIZE = 1 << 20

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

# Integer version of the certificate JSON schema.
SCHEMA_VERSION = 1
