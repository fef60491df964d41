"""Signature members: per-member generator squares and identity hashing."""

import pickle

import pytest

from cl3 import Signature


@pytest.mark.parametrize("sig", tuple(Signature))
def test_squares_and_i_square_match_derivation(sig):
    p, q = sig.value
    squares = tuple(1 if i < p else -1 for i in range(3))
    assert (sig.p, sig.q) == (p, q)
    assert sig.squares == squares
    assert sig.i_square == -squares[0] * squares[1] * squares[2]
    # Stored once per member, not rebuilt on every read.
    assert sig.squares is sig.squares


def test_known_squares():
    assert Signature.CL30.squares == (1, 1, 1) and Signature.CL30.i_square == -1
    assert Signature.CL03.squares == (-1, -1, -1) and Signature.CL03.i_square == 1
    assert Signature.CL12.squares == (1, -1, -1) and Signature.CL12.i_square == -1
    assert Signature.CL21.squares == (1, 1, -1) and Signature.CL21.i_square == 1


def test_members_are_singletons_with_identity_hash():
    assert Signature((3, 0)) is Signature.CL30
    assert Signature["CL12"] is Signature.CL12
    assert Signature.from_name("cl21") is Signature.CL21
    with pytest.raises(ValueError, match="unknown algebra 'cl40'"):
        Signature.from_name("cl40")
    assert pickle.loads(pickle.dumps(Signature.CL03)) is Signature.CL03
    for sig in Signature:
        assert hash(sig) == object.__hash__(sig)
    table = {sig: sig.name for sig in Signature}
    assert [table[sig] for sig in Signature] == ["CL30", "CL03", "CL12", "CL21"]
