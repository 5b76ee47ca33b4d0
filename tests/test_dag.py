"""Section-DAG elements against word-level reference algorithms and leafperm."""

import ast
import random
from itertools import islice, product
from pathlib import Path

import pytest

import grigor
from grigor import certificates, config, leafperm
from grigor.dag import A, B, IDENTITY, TABLES, Dag, shared
from grigor.branch import search_high_order
from grigor.certificates import flatten, probe, tower
from grigor.decide import witness_vertex
from grigor.engel import random_involution, random_word, replay_right, search_nonengel_pair
from grigor.errors import CapExceeded
from grigor.leafperm import tower_witnesses, word_perm, word_witness
from grigor.tree import act
from grigor.words import a_parity, reduce_word

import word_reference as ref
from conftest import make_word

# Trivial words, spliced into a word to make an equal one.
RELATORS = ("aa", "bcd", "adadadad", "acacacacacacacac")


def _least_moved_vertex(dag, g):
    """The least-depth, lexicographically least vertex g moves, found with
    Dag.act alone by scanning the level below g's first active level."""
    level = dag.first_active_level(g)
    if level is None:
        return None
    for bits in product("01", repeat=level + 1):
        v = "".join(bits)
        if dag.act(g, v) != v:
            return v
    raise AssertionError("an active section moves some vertex one level down")


def test_dag_agrees_with_words():
    # Triviality and equality against the word contraction recursion;
    # the action and the first active level against leaf permutations.
    rng = random.Random(2024)
    dag = Dag()
    trivial = 0
    levels = {}
    for _ in range(2000):
        w = make_word(rng, rng.randint(0, 40))
        g = dag.from_word(w)
        assert (g == 0) == ref.is_trivial(w), w
        trivial += g == 0
        assert dag.mul(g, dag.inv(g)) == 0, w
        if rng.random() < 0.5:
            cut = rng.randint(0, len(w))
            u = w[:cut] + rng.choice(RELATORS) + w[cut:]
        else:
            u = make_word(rng, rng.randint(0, 40))
        assert (dag.from_word(u) == g) == ref.are_equal(u, w), (u, w)
        witness = witness_vertex(w, config.MAX_DEPTH)
        level = None if witness is None else len(witness) - 1
        assert dag.first_active_level(g) == level, w
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 10)))
        image = format(int(word_perm(w, len(v))[int(v, 2)]), f"0{len(v)}b")
        assert dag.act(g, v) == act(w, v) == image, (w, v)
        assert _least_moved_vertex(dag, g) == witness, w
        levels[w] = level
    assert 0 < trivial < 2000
    # Second pass: the same levels on a fresh Dag, asked for in reverse id
    # order, so the first query comes before any level below it is known.
    fresh = Dag()
    for g, w in sorted(((fresh.from_word(w), w) for w in levels), reverse=True):
        assert fresh.first_active_level(g) == levels[w], w


def test_leaf_products_use_the_klein_table():
    dag = Dag()
    a, b, c, d = (dag.from_word(x) for x in "abcd")
    assert (a, b, c, d) == (1, 2, 3, 4)
    assert dag.mul(b, c) == d and dag.mul(c, d) == b and dag.mul(d, b) == c
    assert all(dag.mul(x, x) == 0 for x in (a, b, c, d))
    assert dag.first_active_level(d) == 2
    # A product equal to a nucleus element is that leaf, not a new node.
    assert dag.from_word("adadadadb") == b


def test_dag_tower_matches_word_tower():
    # DAG entries against the word tower, the one-pass array tower against
    # leafperm's permutation of each word entry (x itself first), and the
    # witnesses of leafperm's portrait tower against those of each entry's
    # own portrait, for depths <= 5.  The involution pairs take the
    # squaring step.
    rng = random.Random(7)
    pairs = [(make_word(rng, rng.randint(1, 12)), make_word(rng, rng.randint(1, 12)))
             for _ in range(40)]
    involution_pairs = [(make_word(rng, rng.randint(1, 12)), random_involution(rng, 12))
                        for _ in range(20)]
    cert = replay_right("a", 3)
    for x, g in pairs + involution_pairs + [(cert.x_active, cert.y)]:
        dag = Dag()
        perms = ref.array_tower(x, g, 6)
        witnesses = tower_witnesses(x, g, 6, tuple(range(6)))
        assert next(perms).tolist() == word_perm(x, 6), (x, g)
        assert witnesses[0] == word_witness(x, 6), (x, g)
        entries = zip(tower(x, g), dag.tower(dag.from_word(x), dag.from_word(g)), perms,
                      witnesses[1:])
        for m, (word, t, perm, witness) in enumerate(islice(entries, 5), 1):
            assert t == dag.from_word(word), (x, g, m)
            assert perm.tolist() == word_perm(word, 6), (x, g, m)
            assert witness == word_witness(word, 6), (x, g, m)


def test_dag_tower_of_a_non_involution_is_the_commutator_chain():
    # Only an involution g takes the squaring step; for any other g every
    # entry is the commutator of the one before with g, id for id.
    rng = random.Random(11)
    tested = 0
    for _ in range(40):
        dag = Dag()
        x, g = (dag.from_word(make_word(rng, rng.randint(1, 12))) for _ in range(2))
        if dag.mul(g, g) == IDENTITY:
            continue
        tested += 1
        t = x
        for entry in islice(dag.tower(x, g), 6):
            t = dag.commutator(t, g)
            assert entry == t
        assert t == dag.iterated_commutator(x, g, 6)
    assert tested >= 20


def test_dag_tower_ends_at_its_first_trivial_entry():
    # [b,_4 a] = 1, and the walk stops there since [1, a] = 1.
    dag = Dag()
    entries = list(islice(dag.tower(B, A), 10))
    assert len(entries) == 4 and entries[-1] == IDENTITY
    assert IDENTITY not in entries[:-1]
    assert dag.iterated_commutator(B, A, 10**9) == IDENTITY


def _definitional(dag, x, g, depth):
    """[x,_m g] for m <= depth, one commutator at a time, as defined."""
    entries, t = [], x
    for _ in range(depth):
        t = dag.commutator(t, g)
        entries.append(t)
    return entries


def test_tower_memo_holds_the_definitional_tower():
    # A walk memoizes exactly the entries it yields, and a second walk
    # reads them back; both equal the commutator chain, id for id on the
    # one Dag, for involution g (which the walk squares) and other g.
    rng = random.Random(13)
    for i in range(80):
        dag = Dag()
        x = dag.from_word(make_word(rng, rng.randint(1, 12)))
        g = dag.from_word(random_involution(rng, 12))
        while i % 2 and dag.mul(g, g) == IDENTITY:
            g = dag.from_word(make_word(rng, rng.randint(1, 12)))
        walked = list(islice(dag.tower(x, g), 8))
        assert dag._towers[x, g] == walked
        assert list(islice(dag.tower(x, g), 8)) == walked
        definitional = _definitional(dag, x, g, 8)
        assert walked == definitional[: len(walked)]
        assert len(walked) == 8 or walked[-1] == IDENTITY == definitional[-1]


def test_interleaved_and_resumed_walks_read_one_memo():
    # Walks of one key advance in a seeded random order, each extending
    # the memo or reading it; a later walk resumes past an earlier stop.
    rng = random.Random(19)
    for i in range(30):
        dag = Dag()
        g = random_involution(rng, 12) if i % 2 else make_word(rng, rng.randint(1, 12))
        x, g = dag.from_word(make_word(rng, rng.randint(1, 12))), dag.from_word(g)
        list(islice(dag.tower(x, g), rng.randint(0, 3)))  # an earlier stop
        walks = [dag.tower(x, g) for _ in range(3)]
        seen = [[] for _ in walks]
        for _ in range(24):
            k = rng.randrange(len(walks))
            t = next(walks[k], None)
            if t is not None:
                seen[k].append(t)
        resumed = list(islice(dag.tower(x, g), 30))  # past every walk above
        definitional = _definitional(dag, x, g, 30)
        assert resumed == definitional[: len(resumed)]
        for entries in seen:
            assert entries == resumed[: len(entries)], (i, entries)


def test_tower_entries_count_in_the_size_that_shared_bounds(monkeypatch):
    # Once the commutator chain has made every product, a tower walk
    # adds exactly its new entries to `size` and a second walk adds none;
    # those entries alone then take the table to the bound `shared` drops
    # it at.
    def walk(dag):
        x, g = dag.from_word("ba"), dag.from_word("dababa")
        assert dag.mul(g, g) != IDENTITY
        last = _definitional(dag, x, g, 40)[-1]
        before = dag.size
        for _ in range(2):
            entries = list(islice(dag.tower(x, g), 40))
            assert entries[-1] == last and IDENTITY not in entries
            assert dag.size == before + 40
        return before

    before = shared("decide", walk)
    table = TABLES["decide"]
    monkeypatch.setattr(config, "NODE_CAP", 2 * table.size)
    assert before < config.NODE_CAP // 2  # the table would be kept without them
    shared("decide", lambda dag: None)
    assert TABLES["decide"] is not table


def test_a_nested_call_joins_the_outer_table():
    # The inner call runs on the outer call's table, and a cap it hits
    # reaches the outer call, which alone drops the table and reruns.
    shared("decide", lambda dag: dag.from_word("abacabad"))
    warm = TABLES["decide"]
    seen = []

    def inner(dag):
        seen.append(dag)
        if len(seen) == 1:
            raise CapExceeded("section DAG grew past the cap")
        return True

    def outer(dag):
        assert shared("decide", inner) and seen[-1] is dag is TABLES["decide"]
        return len(seen)

    assert shared("decide", outer) == 2
    assert seen[0] is warm and seen[1] is not warm
    # On a fresh table the inner cap is raised, and no table is kept.
    seen.clear()
    TABLES.clear()
    with pytest.raises(CapExceeded, match="the cap"):
        shared("decide", outer)
    assert len(seen) == 1 and "decide" not in TABLES
    assert shared("decide", lambda dag: dag is TABLES["decide"])


def test_act_agrees_with_the_bit_by_bit_action():
    # Every vertex to depth 6 under 200 seeded elements, against the walk
    # that checks and converts one bit at a time.
    rng = random.Random(23)
    dag = Dag()
    vertices = ["".join(bits) for n in range(7) for bits in product("01", repeat=n)]
    moved = 0
    for _ in range(200):
        g = dag.from_word(make_word(rng, rng.randint(0, 40)))
        for v in vertices:
            image = dag.act(g, v)
            assert image == ref.bit_act(dag, g, v), (g, v)
            moved += image != v
    assert moved


@pytest.mark.parametrize("symbol", ["x", "2", " ", "\n", "\u0660"])
def test_act_names_the_first_invalid_symbol_wherever_it_sits(symbol):
    # Before, inside and after the bits a moved vertex is made of, and
    # ahead of a second invalid symbol: the message of the bit-by-bit walk.
    rng = random.Random(29)
    dag = Dag()
    after_moved = 0
    for _ in range(40):
        g = dag.from_word(make_word(rng, rng.randint(1, 24)))
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        for i in range(len(bits) + 1):
            after_moved += dag.act(g, bits[:i]) != bits[:i]
            for v in (bits[:i] + symbol + bits[i:], bits[:i] + symbol + bits[i:] + "y"):
                with pytest.raises(ValueError) as reference:
                    ref.bit_act(dag, g, v)
                with pytest.raises(ValueError) as raised:
                    dag.act(g, v)
                assert str(raised.value) == str(reference.value)
                assert str(raised.value) == f"invalid vertex symbol {symbol!r}"
    assert after_moved


def test_first_active_levels_of_a_deep_tower():
    # [ba,_m dababa] has not sunk by m = 3,000, where the Dag holds
    # 400,326 nodes and is 2,003 sections deep, past the recursion limit.
    dag = Dag()
    x, g = dag.from_word("ba"), dag.from_word("dababa")
    entries = list(islice(dag.tower(x, g), 3000))
    assert dag.first_active_level(entries[799]) == 533
    assert dag.first_active_level(entries[-1]) == 2000


def _imported(module: str) -> list[str]:
    source = Path(grigor.__file__).with_name(f"{module}.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            imported += ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + node.module)
    return imported


def test_leafperm_imports_no_grigor_module():
    # The oracle stays independent of words, tree and the section DAG: of
    # grigor it reads only its level cap and the cap's exception, and
    # those two modules import nothing of grigor.
    imported = _imported("leafperm")
    own = [name for name in imported if name.startswith((".", "grigor"))]
    assert sorted(own) == [".config", ".errors"], imported
    for module in ("config", "errors"):
        assert not [
            name for name in _imported(module) if name.startswith((".", "grigor"))
        ], module


def test_branch_imports_no_oracle():
    # The level quotients come from the branch structure, so branch reads
    # neither leafperm nor any other module past the kernel and config.
    imported = _imported("branch")
    own = [name for name in imported if name.startswith((".", "grigor"))]
    assert sorted(own) == [".certificates", ".config", ".dag", ".errors", ".words"], imported


def test_certificates_imports_only_the_kernel():
    # The verifier kernel reads dag, words, config and errors of grigor at
    # import, and no grigor module inside a function.
    source = Path(grigor.__file__).with_name("certificates.py").read_text()
    tree = ast.parse(source)
    top, local = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("grigor")):
            names = [alias.name for alias in node.names] if node.module is None else [node.module]
            (top if node in tree.body else local).extend(names)
        elif isinstance(node, ast.Import):
            assert not [alias for alias in node.names if alias.name.startswith("grigor")]
    assert sorted(top) == ["__version__", "config", "dag", "errors", "words"]
    assert local == []


def test_leafperm_levels_agree_on_ancestors():
    # Past MAX_DEPTH too, a level-16 vertex's level-12 ancestor is its top
    # 12 bits.
    deep = word_perm("d", 16)
    assert [v >> 4 for v in deep[::16]] == word_perm("d", config.MAX_DEPTH)


def test_probe_towers_agree_with_is_trivial():
    # 240 probe-shaped towers, half against involutions (which sink): the
    # probe's id-0 test against the word contraction recursion, entry by entry.
    rng = random.Random(11)
    sinks = nontrivial = 0
    for i in range(240):
        g = random_involution(rng) if i % 2 == 0 else random_word(rng)
        x = random_word(rng)
        lengths, m, t = probe(Dag(), x, g, 8)
        words = list(islice(tower(x, g), m))
        assert lengths == [len(word) for word in words], (g, x)
        assert not any(map(ref.is_trivial, words[:-1])), (g, x)
        assert (t == 0) == ref.is_trivial(words[-1]), (g, x)
        assert t == 0 or m == 8, (g, x)
        sinks += t == 0
        nontrivial += m - (t == 0)
    assert sinks >= 120 and nontrivial


def test_node_cap_ends_search(monkeypatch):
    monkeypatch.setattr(config, "NODE_CAP", 200)
    with pytest.raises(CapExceeded, match="200 nodes"):
        search_nonengel_pair(20)


def test_shared_tables_stay_under_half_the_cap(monkeypatch):
    # One replay or verification of these elements interns at most about
    # 460 nodes, so 200 of them would pass this cap on one table; each role
    # table is dropped at call entry once it holds NODE_CAP // 2 nodes.
    monkeypatch.setattr(config, "NODE_CAP", 1000)
    rng = random.Random(5)
    for _ in range(200):
        x = reduce_word(make_word(rng, rng.randint(1, 9)))
        x = x if a_parity(x) else reduce_word(x + "a")
        ok, detail = certificates.verify(certificates.to_dict(replay_right(x, 3)))
        assert ok, detail


def test_order_exponent_agrees_with_squaring():
    rng = random.Random(31)
    dag = Dag()
    assert [dag.order_exponent(g) for g in range(5)] == [0, 1, 1, 1, 1]
    words = ["", "a", "b", "c", "d"] + [make_word(rng, rng.randint(0, 40)) for _ in range(2000)]
    words += [flatten(search_high_order(e)) for e in range(1, 7)]
    exponents = set()
    for w in words:
        expected = ref.order_exponent(w)
        assert expected is not None, w
        fresh = Dag()
        assert fresh.order_exponent(fresh.from_word(w)) == expected, w
        assert dag.order_exponent(dag.from_word(w)) == expected, w  # warm table
        exponents.add(expected)
    assert exponents >= {0, 1, 2, 3, 4, 5, 6}
