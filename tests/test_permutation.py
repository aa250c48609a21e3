"""Unit tests for the bytes-backed permutations (repro.perm.permutation)."""

import pytest

from repro.errors import InvalidPermutationError
from repro.perm.permutation import Permutation


class TestConstruction:
    def test_from_images(self):
        p = Permutation.from_images([1, 0, 2])
        assert p(0) == 1 and p(1) == 0 and p(2) == 2

    def test_from_images_validates_bijection(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_images([0, 0, 1])
        with pytest.raises(InvalidPermutationError):
            Permutation.from_images([0, 3, 1])

    def test_degree_limits(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_images([])
        assert Permutation.identity(256).degree == 256
        with pytest.raises(InvalidPermutationError):
            Permutation.identity(257)

    def test_identity(self):
        e = Permutation.identity(5)
        assert e.is_identity
        assert all(e(i) == i for i in range(5))

    def test_from_cycles_one_based(self):
        # The paper's Ctrl-V permutation (3,7,4,8) on 16 labels.
        p = Permutation.from_cycles(16, [(3, 7, 4, 8)])
        assert p(2) == 6 and p(6) == 3 and p(3) == 7 and p(7) == 2

    def test_from_cycles_zero_based(self):
        p = Permutation.from_cycles(4, [(0, 1)], one_based=False)
        assert p(0) == 1 and p(1) == 0

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycles(5, [(1, 2), (2, 3)])

    def test_from_cycles_rejects_out_of_range(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycles(4, [(4, 5)])

    def test_transposition(self):
        t = Permutation.transposition(6, 2, 4)
        assert t(2) == 4 and t(4) == 2 and t(0) == 0


class TestComposition:
    def test_product_applies_left_factor_first(self):
        a = Permutation.from_cycles(3, [(1, 2)])   # swaps points 0,1
        b = Permutation.from_cycles(3, [(2, 3)])   # swaps points 1,2
        # (a*b)(0): a first (0->1), then b (1->2).
        assert (a * b)(0) == 2
        # Function composition order would have given 1 here:
        assert (b * a)(0) == 1

    def test_product_matches_paper_cascade(self):
        # Peres = (5,7,6,8) = product of its four gates is exercised in
        # the integration tests; here: a 3-cycle from two transpositions.
        a = Permutation.from_cycles(3, [(1, 2)])
        b = Permutation.from_cycles(3, [(1, 3)])
        assert (a * b).cycle_string() == "(1,2,3)"

    def test_degree_mismatch_raises(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_identity_neutral(self):
        p = Permutation.from_cycles(6, [(1, 4, 2)])
        e = Permutation.identity(6)
        assert p * e == p and e * p == p

    def test_inverse(self):
        p = Permutation.from_cycles(7, [(1, 5, 3), (2, 7)])
        assert (p * p.inverse()).is_identity
        assert (p.inverse() * p).is_identity

    def test_power(self):
        c = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        assert c.power(5).is_identity
        assert c.power(2)(0) == 2
        assert c.power(-1) == c.inverse()
        assert c.power(0).is_identity

    def test_conjugate_by(self):
        # Conjugation relabels the points: cycle structure preserved.
        p = Permutation.from_cycles(5, [(1, 2)])
        g = Permutation.from_cycles(5, [(2, 3)])
        q = p.conjugate_by(g)
        assert q.cycle_structure() == p.cycle_structure()
        assert q == Permutation.from_cycles(5, [(1, 3)])


class TestStructure:
    def test_cycles_zero_based(self):
        p = Permutation.from_cycles(6, [(1, 2, 3), (5, 6)])
        assert p.cycles() == [(0, 1, 2), (4, 5)]

    def test_cycles_include_fixed(self):
        p = Permutation.from_cycles(4, [(1, 2)])
        assert (2,) in p.cycles(include_fixed=True)
        assert (3,) in p.cycles(include_fixed=True)

    def test_cycle_structure(self):
        p = Permutation.from_cycles(8, [(1, 2, 3), (4, 5)])
        assert p.cycle_structure() == {3: 1, 2: 1, 1: 3}

    def test_order(self):
        p = Permutation.from_cycles(8, [(1, 2, 3), (4, 5)])
        assert p.order() == 6
        assert Permutation.identity(4).order() == 1

    def test_parity(self):
        assert Permutation.from_cycles(4, [(1, 2)]).parity() == 1
        assert Permutation.from_cycles(4, [(1, 2, 3)]).parity() == 0
        assert Permutation.identity(4).parity() == 0

    def test_support(self):
        p = Permutation.from_cycles(6, [(2, 4)])
        assert p.support() == (1, 3)

    def test_fixes(self):
        p = Permutation.from_cycles(8, [(1, 2)])
        assert p.fixes({0, 1})
        assert p.fixes({2, 3})
        assert not p.fixes({0})

    def test_image_of_set(self):
        p = Permutation.from_cycles(8, [(1, 5)])
        assert p.image_of_set({0, 1}) == frozenset({4, 1})


class TestRestriction:
    def test_restricted_renumbers(self):
        p = Permutation.from_cycles(8, [(1, 2), (5, 6)])
        r = p.restricted([0, 1])
        assert r.degree == 2 and r(0) == 1

    def test_restricted_requires_invariance(self):
        p = Permutation.from_cycles(8, [(1, 5)])
        with pytest.raises(InvalidPermutationError):
            p.restricted([0, 1])

    def test_restricted_composes(self):
        a = Permutation.from_cycles(8, [(1, 2)])
        b = Permutation.from_cycles(8, [(2, 3)])
        s = [0, 1, 2, 3]
        assert (a * b).restricted(s) == a.restricted(s) * b.restricted(s)

    def test_extended(self):
        p = Permutation.from_cycles(3, [(1, 2)])
        q = p.extended(6)
        assert q.degree == 6 and q(0) == 1 and q(5) == 5

    def test_extended_cannot_shrink(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.identity(5).extended(3)


class TestPaperNotation:
    def test_cycle_string(self):
        p = Permutation.from_cycles(38, [(5, 17, 7, 21), (6, 18, 8, 22)])
        assert p.cycle_string() == "(5,17,7,21)(6,18,8,22)"

    def test_identity_cycle_string(self):
        assert Permutation.identity(4).cycle_string() == "()"

    def test_from_cycle_string_roundtrip(self):
        text = "(3,33,7,26)(4,34,8,27)(9,35,15,28)(10,36,16,29)"
        p = Permutation.from_cycle_string(38, text)
        assert p.cycle_string() == text

    def test_from_cycle_string_identity(self):
        assert Permutation.from_cycle_string(5, "()").is_identity

    def test_from_cycle_string_garbage(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycle_string(5, "3,4)")
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycle_string(5, "(a,b)")

    def test_apply_paper_one_based(self):
        p = Permutation.from_cycles(8, [(5, 7, 6, 8)])
        assert p.apply_paper(5) == 7
        assert p.apply_paper(8) == 5
        assert p.apply_paper(1) == 1

    def test_repr_is_evalable_description(self):
        p = Permutation.from_cycles(8, [(5, 7, 6, 8)])
        assert "(5,7,6,8)" in repr(p)


class TestHashing:
    def test_equal_permutations_hash_equal(self):
        a = Permutation.from_cycles(6, [(1, 2)])
        b = Permutation.from_images([1, 0, 2, 3, 4, 5])
        assert a == b and hash(a) == hash(b)

    def test_usable_in_sets(self):
        perms = {
            Permutation.from_cycles(4, [(1, 2)]),
            Permutation.from_cycles(4, [(1, 2)]),
            Permutation.identity(4),
        }
        assert len(perms) == 2

    def test_constructor_matches_from_images(self):
        images = (0, 1, 2, 3, 4, 5, 7, 6)
        built = Permutation(images)
        assert built == Permutation.from_images(bytes(images))
        assert hash(built) == hash(Permutation.from_images(images))
        assert built.images == bytes(images)

    @pytest.mark.parametrize(
        "images", [(0, 0, 1), (0, 3, 1), (), (0, 256), [1.5, 0]]
    )
    def test_constructor_rejects_non_permutations(self, images):
        with pytest.raises(InvalidPermutationError):
            Permutation(images)
