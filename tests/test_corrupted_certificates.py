"""Verifier verdicts on corrupted golden certificates, pinned.

Every field of every golden file gets small seeded corruptions: a letter
appended or dropped, a word reversed, a chain or witness bit flipped, an
integer moved by one, a list entry changed or dropped.  The (ok, detail)
the verifier returns for each is compared with corrupted_verdicts.json,
so a change to the verifiers that alters a verdict, a message or the
order in which the checks run fails here.  Rewrite the table with
`PYTHONPATH=src python tests/test_corrupted_certificates.py` only when a
verdict is meant to change.
"""

import copy
import json
import random
from pathlib import Path

from grigor import certificates

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
VERDICTS = HERE / "corrupted_verdicts.json"
SEEDS = range(3)
_HEADER = ("schema", "engine", "kind")


def _flip(bits, i):
    return bits[:i] + "10"[int(bits[i])] + bits[i + 1:]


def _string_edits(rng, text, alphabet):
    """(label, corrupted text) pairs for one seed."""
    yield "append", text + rng.choice(alphabet)
    if text:
        i = rng.randrange(len(text))
        yield "drop", text[:i] + text[i + 1:]
        if alphabet == "01":
            yield "flip", _flip(text, i)


def _edits(field, value, rng, seed):
    """(label, corrupted value) pairs of one field for one seed."""
    if type(value) is int:
        if seed == 0:
            yield "plus1", value + 1
            yield "minus1", value - 1
    elif type(value) is str:
        alphabet = "01" if field == "witness" else "abcd"
        yield from _string_edits(rng, value, alphabet)
        if seed == 0:
            yield "reverse", value[::-1]
    elif field == "chain":
        if value:
            i = rng.randrange(len(value))
            bit, word = value[i]
            edits = [("flip", [1 - bit, word])]
            edits += [(label, [bit, w]) for label, w in _string_edits(rng, word, "abcd")]
            for label, edited in edits:
                yield f"{label}{i}", value[:i] + [edited] + value[i + 1:]
            if seed == 0:
                yield "droplast", value[:-1]
        yield "extend", value + [[rng.randrange(2), rng.choice("abcd")]]
    elif field == "transcript":
        i = rng.randrange(len(value))
        yield f"plus{i}", value[:i] + [value[i] + 1] + value[i + 1:]
        yield f"minus{i}", value[:i] + [value[i] - 1] + value[i + 1:]
        if seed == 0:
            yield "droplast", value[:-1]
    elif field == "witnesses":
        i = rng.randrange(len(value))
        for label, edited in _string_edits(rng, value[i], "01"):
            yield f"{label}{i}", value[:i] + [edited] + value[i + 1:]
        if seed == 0:
            yield "droplast", value[:-1]
    else:
        raise TypeError(f"no corruption for field {field!r}")


def corrupted():
    """(case name, corrupted certificate dict) for every golden file."""
    for path in sorted(GOLDEN.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for field in sorted(set(data) - set(_HEADER)):
            for seed in SEEDS:
                rng = random.Random(f"{path.stem}/{field}/{seed}")
                for label, value in _edits(field, data[field], rng, seed):
                    case = copy.deepcopy(data)
                    case[field] = value
                    yield f"{path.stem}:{field}:{label}:{seed}", case


def verdicts():
    return {name: list(certificates.verify(case)) for name, case in corrupted()}


def test_corrupted_verdicts_are_pinned():
    expected = json.loads(VERDICTS.read_text(encoding="utf-8"))
    assert verdicts() == expected


if __name__ == "__main__":
    VERDICTS.write_text(json.dumps(verdicts(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
