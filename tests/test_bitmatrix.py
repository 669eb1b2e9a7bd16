"""Unit tests for the planting/harvest transposition stage."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt.bitmatrix import (
    BitMatrix,
    bits_to_symbol,
    bits_to_symbols,
    build_permutation,
    deinterleave,
    harvest,
    interleave,
    pack_cells,
    place,
    symbol_to_bits,
    symbols_to_bits,
    unharvest,
    unpack_cells,
)
from paddycrypt.ciphers import LANE_AFFINE, LANE_CAESAR, LANE_CODES, lane_table
from paddycrypt.errors import (
    BadLength,
    CipherError,
    IntegrityMismatch,
    InvalidArgument,
    LengthMismatch,
    NonLetterOutput,
    ParseError,
)
from paddycrypt.pipeline import CipherText, decrypt, encrypt, keygen


def naive_interleave(lane_a, lane_b):
    """Oracle: cell-by-cell simulation with explicit index arithmetic,
    written independently of the library's matrix code."""
    assert len(lane_a) == len(lane_b)
    n_sym = len(lane_a) // 8
    cells = {}
    for i in range(n_sym):
        for j in range(8):
            cells[(2 * i, j)] = lane_a[8 * i + j]
            cells[(2 * i + 1, j)] = lane_b[8 * i + (7 - j)]
    out = []
    for col in range(8):
        rows = range(2 * n_sym)
        if col % 2 == 1:
            rows = reversed(rows)
        for row in rows:
            out.append(cells[(row, col)])
    return out


def permutation_interleave(codes_a, codes_b):
    """Oracle for interleave: the lane cells through build_permutation, packed."""
    cells = symbols_to_bits(codes_a) + symbols_to_bits(codes_b)
    return pack_cells(build_permutation(len(codes_a)).apply(cells))


def permutation_deinterleave(packed):
    """Oracle for deinterleave: the ciphertext cells back through
    build_permutation, each lane packed."""
    half = 4 * len(packed)
    cells = build_permutation(len(packed) // 2).invert(unpack_cells(packed))
    return pack_cells(cells[:half]), pack_cells(cells[half:])


def lanes_as_tables(lane_a, lane_b):
    """interleave's arguments for a pair of lanes of up to 256 bytes: the
    plaintext bytes(range(N)) through tables that start with the lanes."""
    n_sym = len(lane_a)
    return bytes(range(n_sym)), lane_a + bytes(256 - n_sym), lane_b + bytes(256 - n_sym)


def random_codes(rng, mode, n_sym):
    return rng.randbytes(n_sym) if mode == "byte" else bytes(rng.choices(LANE_CODES[26], k=n_sym))


def random_tables(rng, mode):
    """Two random lane tables of the mode: permutations of its codes that
    fix every other byte."""
    codes = LANE_CODES[256 if mode == "byte" else 26]
    return tuple(bytes.maketrans(codes, bytes(rng.sample(codes, len(codes)))) for _ in range(2))


def inverse_table(table):
    codes = bytes(range(256))
    return bytes.maketrans(codes.translate(table), codes)


class TestBitConversion:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, [0, 0, 0, 0, 0, 0, 0, 0]),
            (255, [1, 1, 1, 1, 1, 1, 1, 1]),
            (65, [0, 1, 0, 0, 0, 0, 0, 1]),
        ],
    )
    def test_symbol_to_bits(self, value, expected):
        assert symbol_to_bits(value) == expected

    def test_bits_to_symbol_values(self):
        assert bits_to_symbol([0] * 8) == 0
        assert bits_to_symbol([0, 1, 0, 0, 0, 0, 0, 1]) == 65

    def test_round_trip_exhaustive(self):
        for value in range(256):
            assert bits_to_symbol(symbol_to_bits(value)) == value

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError):
            symbol_to_bits(256)
        with pytest.raises(ValueError):
            symbol_to_bits(-1)

    def test_bits_to_symbol_bad_length(self):
        with pytest.raises(BadLength):
            bits_to_symbol([0, 1])

    def test_stream_helpers(self):
        values = [0, 65, 255, 3]
        assert bits_to_symbols(symbols_to_bits(values)) == values
        with pytest.raises(BadLength):
            bits_to_symbols([0] * 9)

    @pytest.mark.parametrize("convert", [CipherText, unharvest, bits_to_symbols,
                                         lambda cells: bits_to_symbol(cells[:8])])
    @pytest.mark.parametrize("cells", [[2] * 16, [-1] + [0] * 15, ["x"] * 16,
                                       [0, 1, 2] + [0] * 13, [256] + [0] * 15])
    def test_every_cell_reader_rejects_non_bits(self, convert, cells):
        with pytest.raises(ParseError, match="^ciphertext cells must be 0 or 1$"):
            convert(cells)


class TestPlace:
    def test_single_symbol_rows(self):
        m = place([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1])
        assert m.rows == ((1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))

    def test_row_structure_and_lanes(self):
        lane_a = [f"a{i + 1}" for i in range(16)]
        lane_b = [f"c{i + 1}" for i in range(16)]
        m = place(lane_a, lane_b)
        assert m.n_rows == 4
        assert m.n_symbols == 2
        assert m.rows[0] == tuple(lane_a[:8])
        assert m.rows[1] == tuple(lane_b[:8][::-1])
        assert m.rows[2] == tuple(lane_a[8:])
        assert m.lane_of_row(0) == "affine"
        assert m.lane_of_row(1) == "caesar"

    def test_empty(self):
        assert place([], []).rows == ()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            place([0] * 8, [0] * 16)
        with pytest.raises(LengthMismatch):
            place([0] * 7, [0] * 7)

    def test_matrix_shape_validated(self):
        with pytest.raises(LengthMismatch):
            BitMatrix(((0,) * 8,))
        with pytest.raises(LengthMismatch):
            BitMatrix(((0,) * 7, (0,) * 7))


class TestHarvest:
    def test_single_symbol_order(self):
        lane_a = [f"a{i + 1}" for i in range(8)]
        lane_b = [f"c{i + 1}" for i in range(8)]
        got = harvest(place(lane_a, lane_b))
        assert got == ["a1", "c8", "c7", "a2", "a3", "c6", "c5", "a4",
                       "a5", "c4", "c3", "a6", "a7", "c2", "c1", "a8"]

    def test_five_symbol_prefix(self):
        lane_a = [f"C{i + 1}A" for i in range(40)]
        lane_b = [f"C{i + 1}B" for i in range(40)]
        got = harvest(place(lane_a, lane_b))
        assert got[:10] == ["C1A", "C8B", "C9A", "C16B", "C17A",
                            "C24B", "C25A", "C32B", "C33A", "C40B"]
        assert got[10:20] == ["C39B", "C34A", "C31B", "C26A", "C23B",
                              "C18A", "C15B", "C10A", "C7B", "C2A"]

    def test_all_zero_content(self):
        for n_sym in (1, 3, 8):
            assert harvest(place([0] * 8 * n_sym, [0] * 8 * n_sym)) == [0] * 16 * n_sym

    def test_length_law(self):
        rng = random.Random(9)
        for n_sym in (0, 1, 2, 7, 16):
            a = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            b = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            assert len(harvest(place(a, b))) == len(a) + len(b) == 16 * n_sym

    def test_matches_naive_oracle(self):
        rng = random.Random(42)
        for _ in range(1000):
            n_sym = rng.randrange(0, 17)
            a = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            b = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            expected = naive_interleave(a, b)
            assert harvest(place(a, b)) == expected
            assert build_permutation(n_sym).apply(a + b) == expected


class TestPermutation:
    def test_bijective_up_to_64(self):
        for n_sym in range(65):
            perm = build_permutation(n_sym)
            assert sorted(perm.forward) == list(range(16 * n_sym))
            assert all(perm.inverse[perm.forward[i]] == i for i in range(perm.size))

    def test_apply_invert_identity(self):
        rng = random.Random(5)
        for n_sym in (0, 1, 4, 9):
            perm = build_permutation(n_sym)
            bits = [rng.getrandbits(1) for _ in range(16 * n_sym)]
            assert perm.invert(perm.apply(bits)) == bits
            assert perm.apply(perm.invert(bits)) == bits

    def test_value_independent(self):
        # same permutation object regardless of what it will carry
        assert build_permutation(5) is build_permutation(5)

    def test_cache_holds_one_permutation(self):
        # Memory does not grow with how many lengths came before.
        for n_sym in range(1, 41):
            build_permutation(n_sym)
        assert build_permutation.cache_info().currsize == 1

    def test_size_checked(self):
        for method in (build_permutation(2).apply, build_permutation(2).invert):
            with pytest.raises(BadLength) as err:
                method([0] * 16)
            assert str(err.value) == "expected 32 cells, got 16"
        with pytest.raises(ValueError):
            build_permutation(-1)

    def test_lane_separation(self):
        # flipping one affine-lane bit flips exactly the forward-mapped
        # ciphertext bit, never anything fed by the caesar lane
        rng = random.Random(11)
        n_sym = 6
        perm = build_permutation(n_sym)
        a = [rng.getrandbits(1) for _ in range(8 * n_sym)]
        b = [rng.getrandbits(1) for _ in range(8 * n_sym)]
        base = perm.apply(a + b)
        for i in range(8 * n_sym):
            flipped = list(a)
            flipped[i] ^= 1
            out = perm.apply(flipped + b)
            diff = [j for j in range(len(base)) if base[j] != out[j]]
            assert diff == [perm.forward[i]]

    def test_symbol_positions_partition(self):
        n_sym = 7
        perm = build_permutation(n_sym)
        seen = set()
        for i in range(n_sym):
            positions = perm.symbol_positions(i)
            assert len(positions) == 16
            assert not positions & seen
            seen |= positions
        assert seen == set(range(16 * n_sym))
        with pytest.raises(IndexError):
            perm.symbol_positions(n_sym)


class TestUnharvest:
    def test_round_trip_random(self):
        rng = random.Random(77)
        for n_sym in range(1, 17):
            a = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            b = [rng.getrandbits(1) for _ in range(8 * n_sym)]
            got_a, got_b = unharvest(harvest(place(a, b)))
            assert (got_a, got_b) == (a, b)

    def test_all_zero(self):
        a, b = unharvest([0] * 48)
        assert a == [0] * 24 and b == [0] * 24

    def test_bad_length(self):
        with pytest.raises(BadLength):
            unharvest([0] * 24)

    def test_pack_cells_round_trip(self):
        rng = random.Random(4)
        for n_cells in (0, 8, 16, 24, 800):
            cells = bytes(rng.getrandbits(1) for _ in range(n_cells))
            packed = pack_cells(cells)
            assert len(packed) == n_cells // 8
            assert int.from_bytes(packed, "big") == int("0" + "".join(map(str, cells)), 2)
            assert unpack_cells(packed) == cells

    def test_deinterleave_rejects_odd_byte_count(self):
        with pytest.raises(BadLength):
            deinterleave(bytes(3))

    @pytest.mark.parametrize("call", [
        lambda: interleave(b"ab", bytes(255), bytes(256)),
        lambda: interleave(b"ab", bytes(256), bytes(257)),
        lambda: deinterleave(bytes(4), bytes(10), bytes(256)),
        lambda: deinterleave(bytes(4), bytes(256), b""),
    ], ids=["interleave-a", "interleave-b", "deinterleave-a", "deinterleave-b"])
    def test_tables_must_have_256_bytes(self, call):
        with pytest.raises(InvalidArgument, match="^lane table must have 256 bytes, got"):
            call()

    def test_deinterleave_inverts_interleave(self):
        rng = random.Random(21)
        for n_sym in list(range(65)) + [256]:
            a = rng.randbytes(n_sym)
            b = rng.randbytes(n_sym)
            assert deinterleave(interleave(*lanes_as_tables(a, b))) == (a, b)

    # Every N up to 70 reaches each residue mod 4 (the padding) with up to
    # 18 blocks; 4093-4097 reach each again with about 1024 blocks a row.
    @pytest.mark.parametrize("n_sym", list(range(71)) + list(range(4093, 4098)))
    @pytest.mark.parametrize("mode", ["byte", "letters"])
    def test_interleave_matches_the_permutation(self, mode, n_sym):
        rng = random.Random(n_sym)
        data = random_codes(rng, mode, n_sym)
        table_a, table_b = random_tables(rng, mode)
        packed = interleave(data, table_a, table_b)
        lanes = data.translate(table_a), data.translate(table_b)
        assert packed == permutation_interleave(*lanes)
        assert deinterleave(packed) == lanes
        assert deinterleave(packed, *map(inverse_table, (table_a, table_b))) == (data, data)
        other = rng.randbytes(2 * n_sym)
        expected = permutation_deinterleave(other)
        assert deinterleave(other) == expected
        assert deinterleave(other, table_a, table_b) == (
            expected[0].translate(table_a), expected[1].translate(table_b))

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=200), st.binary(min_size=256, max_size=256),
           st.binary(min_size=256, max_size=256))
    def test_tables_property(self, data, table_a, table_b):
        lanes = data.translate(table_a), data.translate(table_b)
        packed = interleave(data, table_a, table_b)
        assert packed == permutation_interleave(*lanes)
        assert deinterleave(packed) == lanes
        assert deinterleave(packed, table_a, table_b) == (
            lanes[0].translate(table_a), lanes[1].translate(table_b))

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=256).flatmap(
        lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))))
    def test_interleave_round_trip_property(self, lanes):
        a, b = lanes
        packed = interleave(*lanes_as_tables(a, b))
        assert packed == permutation_interleave(a, b)
        assert deinterleave(packed) == (a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n_sym = data.draw(st.integers(0, 12))
        bits = st.lists(st.integers(0, 1), min_size=8 * n_sym, max_size=8 * n_sym)
        a = data.draw(bits)
        b = data.draw(bits)
        got_a, got_b = unharvest(harvest(place(a, b)))
        assert (got_a, got_b) == (a, b)


def permutation_decrypt(ciphertext, key):
    """Oracle for decrypt's outcome: the raw lanes of permutation_deinterleave
    checked (lane a first), mapped through the inverse lane tables and
    compared.  Returns (error type or None, plaintext or message, indices)."""
    lanes = permutation_deinterleave(ciphertext.packed)
    for lane in lanes:
        bad = lane.translate(None, LANE_CODES[key.n])
        if bad:
            return NonLetterOutput, f"lane byte {bad[0]:#04x} is outside A-Z", None
    plain_a, plain_b = (lane.translate(lane_table(key, name, decrypt=True))
                        for lane, name in zip(lanes, (LANE_AFFINE, LANE_CAESAR)))
    indices = tuple(i for i, (x, y) in enumerate(zip(plain_a, plain_b)) if x != y)
    if not indices:
        return None, plain_a, None
    return IntegrityMismatch, (
        "affine and caesar lanes disagree (corrupt data or wrong key) at "
        f"{len(indices)} of {len(plain_a)} symbols, first index {indices[0]}"), indices


def decrypt_outcome(ciphertext, key):
    try:
        return None, decrypt(ciphertext, key), None
    except CipherError as err:
        return type(err), str(err), getattr(err, "indices", None)


@pytest.mark.parametrize("mode", ["byte", "letters"])
def test_decrypt_outcomes_match_the_permutation(mode):
    rng = random.Random(mode)
    key = keygen(mode, seed=3)
    for n_sym in list(range(1, 40)) + [257]:
        ciphertext = encrypt(random_codes(rng, mode, n_sym), key)
        perm = build_permutation(n_sym)
        lane_b = [perm.forward[i] for i in range(8 * n_sym, 16 * n_sym)]
        # Any bits, then bits of lane b alone, so its check is reached.
        for positions in ([rng.randrange(16 * n_sym) for _ in range(rng.randrange(1, 5))],
                          rng.sample(lane_b, min(3, n_sym)), []):
            raw = bytearray(ciphertext.packed)
            for position in positions:
                raw[position // 8] ^= 0x80 >> position % 8
            corrupted = CipherText.from_packed(raw)
            assert decrypt_outcome(corrupted, key) == permutation_decrypt(corrupted, key)
        garbage = CipherText.from_packed(rng.randbytes(2 * n_sym))
        assert decrypt_outcome(garbage, key) == permutation_decrypt(garbage, key)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mismatch_indices_and_message_match_the_permutation(data):
    # A wrong key, flipped bits or both: decrypt counts the disagreeing
    # symbols and finds the first from one XOR of the lanes, and builds
    # indices from it on first access; the oracle walks them symbol by symbol.
    mode = data.draw(st.sampled_from(["byte", "letters"]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n_sym = data.draw(st.integers(1, 300))
    key = keygen(mode, seed=rng.random())
    ciphertext = encrypt(random_codes(rng, mode, n_sym), key)
    if data.draw(st.booleans()):
        key = keygen(mode, seed=rng.random())
    raw = bytearray(ciphertext.packed)
    for position in data.draw(st.lists(st.integers(0, 16 * n_sym - 1), max_size=5)):
        raw[position // 8] ^= 0x80 >> position % 8
    corrupted = CipherText.from_packed(raw)
    assert decrypt_outcome(corrupted, key) == permutation_decrypt(corrupted, key)
