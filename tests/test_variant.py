import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigsolve.gen import generate_variant
from jigsolve.grid import DOWN, LEFT, RIGHT, UP
from jigsolve.oracle import enumerate_feasible_assemblies
from jigsolve.variant import (
    JigInvolution,
    LimitExceededError,
    RotAssembly,
    brute_force_variant_solve,
    identity_assembly,
    is_feasible_rot_assembly,
    make_involution,
    read_variant,
    respects_matching,
    rotate_piece,
    to_base_puzzle,
    write_variant,
)
from jigsolve.grid import PieceBag, piece_colors


def _key(a: RotAssembly) -> tuple:
    return a.home.tobytes(), a.turns.tobytes()


def test_involution_identity():
    iota = make_involution(5, "identity")
    assert iota.table[1:].tolist() == [1, 2, 3, 4, 5]


def test_involution_pairing_even():
    iota = make_involution(4, "pairing")
    assert iota.table[1:].tolist() == [2, 1, 4, 3]


def test_involution_pairing_odd_fixed_point():
    iota = make_involution(5, "pairing")
    fixed = [j for j in range(1, 6) if iota.table[j] == j]
    assert fixed == [5]


@given(q=st.integers(1, 30), kind=st.sampled_from(["identity", "pairing"]))
@settings(max_examples=40, deadline=None)
def test_involution_self_inverse(q, kind):
    iota = make_involution(q, kind)
    assert iota.table[iota.table].tolist() == list(range(q + 1))


def test_involution_validation():
    with pytest.raises(ValueError):
        JigInvolution((2, 3, 1))  # a 3-cycle is not an involution
    with pytest.raises(ValueError):
        JigInvolution((5,))


def test_rotate_identity_and_order():
    piece = (1, 2, 3, 4)
    assert rotate_piece(piece, 0) == piece
    rotated = piece
    for _ in range(4):
        rotated = rotate_piece(rotated, 1)
    assert rotated == piece


def test_rotate_generator_geometry():
    # one quarter turn counter-clockwise: the Right jig lands on Up
    piece = (1, 2, 3, 4)  # (right, up, left, down)
    turned = rotate_piece(piece, 1)
    assert turned[UP] == piece[RIGHT]
    assert turned[LEFT] == piece[UP]
    assert turned[DOWN] == piece[LEFT]
    assert turned[RIGHT] == piece[DOWN]


@given(turns=st.integers(0, 7), extra=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_rotate_composes(turns, extra):
    piece = (1, 2, 3, 4)
    assert rotate_piece(rotate_piece(piece, turns), extra) == rotate_piece(piece, turns + extra)


def test_identity_assembly_always_feasible():
    for q, kind, seed in ((1, "identity", 0), (4, "pairing", 1), (7, "pairing", 2)):
        vp = generate_variant(3, q, make_involution(q, kind), seed=seed)
        assert is_feasible_rot_assembly(vp, identity_assembly(3))


def test_global_rotation_rejected_as_malformed():
    # a quarter turn of the whole board: the piece homed at (x, y) moves to
    # (3 - y, x), turned once; homes are row-major indices, (1, 1) -> 0,
    # (2, 1) -> 1, (1, 2) -> 2, (2, 2) -> 3
    vp = generate_variant(2, 3, make_involution(3, "identity"), seed=4)
    rotated = RotAssembly([[2, 0], [3, 1]], np.ones((2, 2), dtype=np.int64))
    # its colors agree on every internal edge ...
    slots = [[rotate_piece(tuple(vp.sigma[h // 2, h % 2]), 1) for h in row] for row in rotated.home.tolist()]
    R, U, L, D = RIGHT, UP, LEFT, DOWN
    for row in slots:
        assert row[0][R] == row[1][L]
    for lower, upper in zip(slots[0], slots[1]):
        assert lower[U] == upper[D]
    # ... but the piece homed at (1, 1) is turned
    with pytest.raises(ValueError, match=r"homed at \(1, 1\) must keep the identity rotation"):
        is_feasible_rot_assembly(vp, rotated)


@pytest.mark.parametrize(
    "home, turns, message",
    [
        ([[0, 1, 2, 3]], [[0, 0, 0, 0]], "place a piece at every position"),
        ([[0, 1], [2, 3]], [[0, 0, 0]], "place a piece at every position"),
        ([[0, 1], [2, 4]], np.zeros((2, 2)), "home indices must be 0..3, each once"),
        ([[0, 1], [2, -1]], np.zeros((2, 2)), "home indices must be 0..3, each once"),
        ([[0, 1], [1, 3]], np.zeros((2, 2)), "home indices must be 0..3, each once"),
        ([[0, 1], [2, 3]], [[0, 4], [0, 0]], "turns must be in 0..3"),
        ([[0, 1], [2, 3]], [[0, -1], [0, 0]], "turns must be in 0..3"),
    ],
    ids=["shape", "turns-shape", "home-high", "home-low", "repeated", "turns-high", "turns-low"],
)
def test_malformed_rot_assembly_rejected(home, turns, message):
    vp = generate_variant(2, 3, make_involution(3, "identity"), seed=4)
    with pytest.raises(ValueError, match=message):
        is_feasible_rot_assembly(vp, RotAssembly(home, turns))


def test_random_rigid_permutation_infeasible_at_large_q():
    bad = 0
    for seed in range(50):
        vp = generate_variant(2, 100, make_involution(100, "pairing"), seed=seed)
        # (1, 1) <- home (1, 2) turned 3, (2, 1) <- (2, 2) turned 1,
        # (1, 2) <- (2, 1) turned 2, (2, 2) <- (1, 1) unturned
        scrambled = RotAssembly([[2, 3], [1, 0]], [[3, 1], [2, 0]])
        if not is_feasible_rot_assembly(vp, scrambled):
            bad += 1
    assert bad >= 48


def test_variant_solve_n1():
    vp = generate_variant(1, 3, make_involution(3, "identity"), seed=0)
    assemblies = brute_force_variant_solve(vp)
    assert len(assemblies) == 1  # orientation pinning kills the rotations
    assert assemblies[0].home.tolist() == [[0]] and assemblies[0].turns.tolist() == [[0]]


def test_variant_solve_n2_q1_count():
    vp = generate_variant(2, 1, make_involution(1, "identity"), seed=0)
    assemblies = brute_force_variant_solve(vp, limit=2000)
    assert len(assemblies) == 1536  # 4! placements x 4^3 free rotations
    keys = {_key(a) for a in assemblies}
    assert len(keys) == 1536


def test_variant_solve_limit():
    vp = generate_variant(2, 1, make_involution(1, "identity"), seed=0)
    with pytest.raises(LimitExceededError):
        brute_force_variant_solve(vp, limit=100)


def test_variant_solve_unique_at_large_q():
    hits = 0
    for seed in range(100):
        vp = generate_variant(2, 100, make_involution(100, "pairing"), seed=seed)
        if len(brute_force_variant_solve(vp, limit=1000)) == 1:
            hits += 1
    assert hits >= 95


def test_identity_always_among_solutions():
    for seed in range(10):
        vp = generate_variant(2, 3, make_involution(3, "pairing"), seed=seed)
        assemblies = brute_force_variant_solve(vp, limit=10**5)
        assert _key(identity_assembly(2)) in {_key(a) for a in assemblies}


def test_boundary_fixed_subset():
    for seed in range(5):
        vp = generate_variant(2, 2, make_involution(2, "identity"), seed=seed)
        unrestricted = brute_force_variant_solve(vp, limit=10**5)
        restricted = brute_force_variant_solve(vp, limit=10**5, boundary_fixed=True)
        assert {_key(a) for a in restricted} <= {_key(a) for a in unrestricted}
        # the search's rotate_piece path agrees with the vectorised slot gather
        for a in unrestricted:
            assert is_feasible_rot_assembly(vp, a)


def test_identity_involution_matches_base_model():
    # identity involution, zero turns everywhere == the base-model oracle;
    # the base bag lists the pieces by home index, so ids are home indices
    for seed in range(6):
        vp = generate_variant(2, 2, make_involution(2, "identity"), seed=seed)
        bag = PieceBag(2, 2, piece_colors(to_base_puzzle(vp)))
        base_assemblies = {a.grid.tobytes() for a in enumerate_feasible_assemblies(bag, limit=10**5)}
        variant_assemblies = {
            a.home.tobytes() for a in brute_force_variant_solve(vp, limit=10**5) if not a.turns.any()
        }
        assert variant_assemblies == base_assemblies


def test_to_base_puzzle_requires_identity():
    vp = generate_variant(2, 2, make_involution(2, "pairing"), seed=0)
    with pytest.raises(ValueError):
        to_base_puzzle(vp)


def test_variant_file_round_trip():
    vp = generate_variant(3, 4, make_involution(4, "pairing"), seed=6)
    buf = io.StringIO()
    write_variant(vp, buf)
    back = read_variant(io.StringIO(buf.getvalue()))
    assert back.n == vp.n and back.q == vp.q
    assert back.iota.images == vp.iota.images
    assert np.array_equal(back.sigma, vp.sigma)


def test_variant_puzzle_validates_coupling():
    vp = generate_variant(2, 2, make_involution(2, "identity"), seed=0)
    sigma = np.array(vp.sigma)
    sigma[0, 0, RIGHT] = 3 - sigma[0, 0, RIGHT]  # break Eq coupling
    from jigsolve.variant import VariantPuzzle

    with pytest.raises(ValueError):
        VariantPuzzle(2, 2, vp.iota, sigma)
    assert respects_matching(vp)


#: SHA-256 of ``write_variant`` bytes, and of the ordered solve results as
#: JSON ``[[home row-major, turns row-major], ...]``, fixed by the
#: per-position implementation these arrays replaced.
VARIANT_FILE_SHA256 = {
    (1, 3, "identity", 0): "c37481729172f53c69a776c87848f8719bc94855ae244bff53d4c6f913e862eb",
    (2, 4, "pairing", 1): "bd53e38111093fd375d1014dba26b49a2886517627186c058159c18a12ba6120",
    (3, 7, "pairing", 2): "6306df6ca736bbb4a5975b67b5a6dc254eec7ddf8fd8d31c13011074158e0751",
    (6, 100, "identity", 3): "bf72d729e9805d2305a0ae82daa6d63793d9a7507099084760aa135e36dea091",
    (6, 2, "pairing", 0): "dcb968f473c3dcde707d857105b636e55b0b1c9d29ba14c81c6d9a25ed924a74",
}
VARIANT_SOLVE_SHA256 = {
    (2, 2, "identity", 1, False): (80, "5ec11c202b5a2d21228da591b14ef6a781bae6da1970c688cbe8de42f466d7f5"),
    (2, 1, "identity", 0, True): (6, "5ed09cb41a06e9f084ffa6ab6701cc7647721b931a8c7636d4376774a6457bf1"),
}


def test_variant_outputs_pinned():
    for (n, q, kind, seed), digest in VARIANT_FILE_SHA256.items():
        buf = io.StringIO()
        write_variant(generate_variant(n, q, make_involution(q, kind), seed), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (n, q, kind, seed)
    for (n, q, kind, seed, boundary_fixed), (count, digest) in VARIANT_SOLVE_SHA256.items():
        vp = generate_variant(n, q, make_involution(q, kind), seed)
        results = brute_force_variant_solve(vp, limit=10**5, boundary_fixed=boundary_fixed)
        listed = [[a.home.ravel().tolist(), a.turns.ravel().tolist()] for a in results]
        assert len(listed) == count
        assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() == digest, (n, q, kind, seed)
