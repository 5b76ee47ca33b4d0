"""Machine checks of the facts about K that the certificates cite.

K is the normal closure of t = (ab)^2 in Gamma, and psi is the wreath
recursion g -> (left section, right section), a homomorphism on St(1).

St(3) <= K, from three checks:

1. a^2, b^2, c^2, d^2, bcd and (ad)^4 are trivial in Gamma.  So Gamma/K,
   generated by the images of a, b, c, d, satisfies those relators and
   (ab)^2, and is a quotient of Q = <a, b, c, d | those, (ab)^2>.
2. |Q| = 16, so [Gamma : K] <= 16.
3. The level-3 quotient G_3 has 128 elements, and the image of K in it,
   the normal closure of t's image, has 8.  The kernel of Gamma -> G_3 is
   St(3), so [Gamma : K.St(3)] = 128 / 8 = 16.  As K <= K.St(3) and
   [Gamma : K] <= 16, K.St(3) = K, that is, St(3) <= K.

So [Gamma : K] = 16 = |Q|, and Q -> Gamma/K, onto, is an isomorphism.

K x K <= psi(K), from three more:

4. u = (bada)^2 lies in K by its image in D8 x Z/2 (sound by checks 1-3
   and 7 below), and psi(u) = (t, 1).
5. Each letter's `_LIFT_FIRST` image lies in St(1) with left section that
   letter.  psi is a homomorphism on St(1), so s = lift_first(g) lies in
   St(1) with left section g, and u^s, in K as K is normal, has
   psi(u^s) = (t^g, 1).  K is generated by the t^g, so K x 1 <= psi(K).
6. The mirror checks for v = (abad)^2, psi(v) = (1, t), and
   `_LIFT_SECOND` give 1 x K <= psi(K).

`branch.emb_pair` builds its embeddings this way, and the refutation
certificates rest on them.

Gamma/K = D8 x Z/2, from one more:

7. In D8 x Z/2, with r a rotation of order 4, s a reflection and z the
   central involution, a -> s, b -> z, c -> s.r.z, d -> s.r sends every
   relator of Q to 1, and the images generate all 16 elements.  So it
   induces an isomorphism Q -> D8 x Z/2, and g lies in K exactly when its
   image there is 1, which `certificates.reduced_membership_in_K` reads
   off the word's letter counts; its verdict is also the level-3 one, by
   St(3) <= K.

[psi(K) : K x K] = 4, from one more:

8. K x K <= psi(K) and K x K is normal in Gamma x Gamma, so
   psi(K) / (K x K) is the image of psi(K) in (Gamma/K)^2, read through
   the letter map of check 7.  psi(K) is generated by the psi(t^w),
   w in Gamma.  For s in St(4), psi(t^(ws)) = psi(t^w)^psi(s) with
   psi(s) in St(3) x St(3) <= K x K, the same element mod K x K; so w
   over representatives of G_4 suffices, and the image has 4 elements.

|K_n| and |G_n| for n <= 3, from one more:

9. t lies in St(1), which is normal, so K <= St(1) and |K_1| = 1.  G_2 has
   8 elements, and t's image there is a nontrivial involution that
   commutes with the generators' images, so it is central and its normal
   closure K_2 has 2 elements.  The automorphism group Aut(T_n) of the
   binary tree of depth n has 2^(2^n - 1) elements, as
   Aut(T_n) = Aut(T_(n-1)) wr Z/2.  G_3 has 128 = 2^7 of them (check 3), so
   G_3 = Aut(T_3), and its images G_1 and G_2 on the upper levels are
   Aut(T_1) and Aut(T_2): |G_n| = 2^(2^n - 1) for n <= 3.

The level quotients follow (`branch.build_level_quotient`).  Write G_n
and K_n for the images of Gamma and K on level n.  For n <= 3, check 9
gives |G_n| = 2, 8, 128 and |K_n| = 1, 2, 8 (|K_3| by check 3), so
[G_n : K_n] = 2, 4, 16.  For n >= 3, St(n) <= K,
so K_n = K/St(n) and |G_n| = [Gamma : K].|K_n| = 16.|K_n|.  For n >= 4,
psi is injective on K <= St(1) and sends St(n) onto St(n-1) x St(n-1):
an element of St(1) lies in St(n) exactly when both its sections lie in
St(n-1), and St(n-1) x St(n-1) <= K x K <= psi(K) as n - 1 >= 3.  So

    |K_n| = [psi(K) : St(n-1)^2]
          = [psi(K) : K x K].[K x K : St(n-1)^2] = 4.|K_(n-1)|^2,

hence |G_n| = |G_(n-1)|^2 / 4, and from |G_3| = 2^7,
|G_n| = 2^(5.2^(n-3) + 2), Grigorchuk's closed form.
"""

from math import prod

from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group

from grigor.branch import _LIFT_FIRST, _LIFT_SECOND, U, V
from grigor.certificates import K_LEVEL, T, reduced_membership_in_K
from grigor.dag import IDENTITY, Dag
from grigor.decide import is_trivial
from grigor.leafperm import word_perm
from grigor.words import decompose, invert

from word_reference import k_image_table

RELATORS = ("aa", "bb", "cc", "dd", "bcd", "adadadad")

# D8 x Z/2 on points 0-3, the corners of a square, and 4-5: a rotation r,
# a reflection s and the swap z of 4 and 5, which commutes with both.
_R = Permutation([1, 2, 3, 0, 4, 5])
_S = Permutation([0, 3, 2, 1, 4, 5])
_Z = Permutation([0, 1, 2, 3, 5, 4])
_D8_Z2 = {"a": _S, "b": _Z, "c": _S * _R * _Z, "d": _S * _R}


def _level3(word: str) -> Permutation:
    return Permutation(word_perm(word, K_LEVEL))


def _elements(group: PermutationGroup) -> set[tuple[int, ...]]:
    return {tuple(p.array_form) for p in group.elements}


def test_relators_are_trivial():
    # Check 1.
    assert all(map(is_trivial, RELATORS))
    assert not is_trivial(T)


def test_gamma_mod_t_has_order_16():
    # Check 2: Q = Gamma's relators plus t = (ab)^2.
    free, *generators = free_group("a b c d")
    letters = dict(zip("abcd", generators))
    relators = [prod(map(letters.get, word), start=free.identity) for word in (*RELATORS, T)]
    assert FpGroup(free, relators).order() == 16


def test_k_has_index_16_in_level_3():
    # Check 3: |G_3| = 128 and the normal closure of t's image has 8.
    group = PermutationGroup([_level3(letter) for letter in "abcd"])
    closure = group.normal_closure(_level3(T))
    assert (group.order(), closure.order()) == (128, 8)
    assert _elements(closure) == k_image_table()


def _image(word: str) -> Permutation:
    return prod(map(_D8_Z2.get, word), start=Permutation(list(range(6))))


def test_gamma_mod_k_is_d8_times_z2():
    # Check 7: the relators of Q, (ab)^2 among them, map to 1, and the
    # images of a, b, c, d generate 16 elements.
    assert all(_image(word).is_Identity for word in (*RELATORS, T))
    assert PermutationGroup(list(_D8_Z2.values())).order() == 16
    # The names the closed form uses: r = (ad) of order 4, z central.
    assert _image("ad") == _R and _R.order() == 4
    assert all(_Z * _D8_Z2[x] == _D8_Z2[x] * _Z for x in "abcd")


def test_k_image_table_is_also_generated_by_t_u_v():
    # t, u and v lie in K, and their level-3 images generate the same 8.
    assert _elements(PermutationGroup([_level3(w) for w in (T, U, V)])) == k_image_table()


def _level4_representatives() -> list[str]:
    """One word per element of G_4, by breadth-first search."""
    perms = {x: tuple(word_perm(x, 4)) for x in "abcd"}
    seen = {tuple(range(16)): ""}
    frontier = list(seen.items())
    while frontier:
        grown = []
        for p, w in frontier:
            for x, g in perms.items():
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen[q] = w + x
                    grown.append((q, w + x))
        frontier = grown
    return list(seen.values())


def test_psi_k_has_index_4_over_k_times_k():
    # Check 8: the image of psi(K) in (D8 x Z/2)^2, the second factor on
    # points 6-11.
    representatives = _level4_representatives()
    assert len(representatives) == 4096
    pairs = set()
    for w in representatives:
        d = decompose(invert(w) + T + w)
        assert d.active == 0
        left, right = _image(d.left), _image(d.right)
        pairs.add(Permutation(left.array_form + [6 + i for i in right.array_form]))
    assert PermutationGroup(list(pairs)).order() == 4


def test_u_and_v_lie_in_k_and_embed_t():
    # Checks 4 and 6, first half: u and v map to 1 in D8 x Z/2.
    dag = Dag()
    t = dag.from_word(T)
    assert reduced_membership_in_K(U).verdict == "inside"
    assert reduced_membership_in_K(V).verdict == "inside"
    assert dag.nodes[dag.from_word(U)] == (0, t, IDENTITY)
    assert dag.nodes[dag.from_word(V)] == (0, IDENTITY, t)


def test_letter_lifts_have_the_letter_as_section():
    # Checks 5 and 6, second half: inactive, with the letter on its side.
    dag = Dag()
    for letter in "abcd":
        active, left, _ = dag.nodes[dag.from_word(_LIFT_FIRST[letter])]
        assert (active, left) == (0, dag.from_word(letter)), letter
        active, _, right = dag.nodes[dag.from_word(_LIFT_SECOND[letter])]
        assert (active, right) == (0, dag.from_word(letter)), letter


def _level(word: str, n: int) -> Permutation:
    return Permutation(word_perm(word, n), size=1 << n)


def test_low_level_quotients():
    # Check 9.  K_1: t fixes level 1.
    assert _level(T, 1).is_Identity
    # K_2: t's image is a nontrivial involution, central in G_2 of order 8.
    t, gens = _level(T, 2), [_level(letter, 2) for letter in "abcd"]
    assert PermutationGroup(gens).order() == 8
    assert not t.is_Identity and (t * t).is_Identity
    assert all(t * g == g * t for g in gens)
    # G_1 and G_2 are the images of G_3: each generator's level-n
    # permutation is its level-3 one read on ancestors.
    for n in (1, 2):
        shift = K_LEVEL - n
        for letter in "abcd":
            upper = word_perm(letter, K_LEVEL)[:: 1 << shift]
            assert [v >> shift for v in upper] == word_perm(letter, n), (letter, n)
    # |Aut(T_n)| = 2.|Aut(T_(n-1))|^2 = 2^(2^n - 1), and G_3 = Aut(T_3).
    aut = [1]
    for _ in range(K_LEVEL):
        aut.append(2 * aut[-1] ** 2)
    assert aut == [2 ** (2**n - 1) for n in range(K_LEVEL + 1)]
    assert PermutationGroup([_level3(letter) for letter in "abcd"]).order() == aut[K_LEVEL]
