"""The transposition stage: lane bits -> 2Nx8 matrix -> interleaved ciphertext.

Placement fills the matrix the way a paddy field is planted, row by row in
alternating directions: row 2i-1 (1-indexed) holds the i-th affine-lane
byte left to right, row 2i holds the i-th caesar-lane byte right to left.
Harvest walks the columns the same way: odd columns top to bottom, even
columns bottom to top, concatenating as it goes.

For one pair of lane bytes (a1..a8 affine, c1..c8 caesar):

        col:   1   2   3   4   5   6   7   8
    row 1:    a1  a2  a3  a4  a5  a6  a7  a8
    row 2:    c8  c7  c6  c5  c4  c3  c2  c1

    harvest:  a1 c8 | c7 a2 | a3 c6 | c5 a4 | a5 c4 | c3 a6 | a7 c2 | c1 a8

Cell (row 2i, column c) is bit 7-c of affine byte A[i] and cell (2i+1, c)
is bit c of caesar byte B[i].  Column c therefore reads the pairs
(bit 7-c of A[i], bit c of B[i]) for i = 0..N-1, and odd (0-indexed)
columns read them backwards, which reverses the column's 2N bits.

interleave and deinterleave work on the packed stream: the 16N harvested
bits, 8 to a byte, most significant bit first, 2 bytes per symbol.  They
use the closed form four symbols at a time.  The 8 bytes A[i], rev(B[i]),
..., A[i+3], rev(B[i+3]) (rev reverses a byte's bit order) are an 8x8 bit
block whose column c holds the 4 pairs of column c; transposing every block
makes byte c of each block the next packed byte of column c.  A column is
2N bits, so when N is not a multiple of 4 the lanes get leading zero
symbols that align each column to whole bytes, and each column is shifted
into its place in the stream as an integer.  pack_cells and unpack_cells
convert between the packed stream and one 0/1 cell per bit.

place, harvest and build_permutation do the same cell by cell; they are
the reference that tests compare the closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadLength, InvalidArgument, LengthMismatch, ParseError

COLS = 8

_PLANES = tuple(bytes((v >> s) & 1 for v in range(256)) for s in range(COLS))
# Each byte with its bit order reversed.
_REVERSE = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))
# Rows are transposed this many bytes (512 blocks) at a time, which keeps
# the integers small.
_CHUNK = 4096
# The three delta swaps, (shift, mask of one block), that transpose each
# 8x8 bit block of a big-endian integer (Hacker's Delight, transpose8).
_TRANSPOSE_SWAPS = (
    (7, bytes.fromhex("00aa00aa00aa00aa")),
    (14, bytes.fromhex("0000cccc0000cccc")),
    (28, bytes.fromhex("00000000f0f0f0f0")),
)


def symbol_to_bits(s: int) -> list[int]:
    """8 bits of s, most significant first.  Raises InvalidArgument unless
    s is an int in [0, 256)."""
    if not (isinstance(s, int) and 0 <= s < 256):
        raise InvalidArgument(f"symbol {s!r} outside [0, 256)")
    return [(s >> (7 - i)) & 1 for i in range(8)]


def bits_to_symbol(bits) -> int:
    """Inverse of symbol_to_bits."""
    if len(bits) != 8:
        raise BadLength(f"need exactly 8 bits, got {len(bits)}")
    return pack_cells(bits)[0]


def symbols_to_bits(symbols) -> list[int]:
    return [bit for s in symbols for bit in symbol_to_bits(s)]


def bits_to_symbols(bits) -> list[int]:
    if len(bits) % 8:
        raise BadLength(f"bit count {len(bits)} is not a multiple of 8")
    return list(pack_cells(bits))


@dataclass(frozen=True)
class BitMatrix:
    """2N x 8 grid of cells.

    Rows with even 0-indexed position (1-indexed odd) carry affine-lane
    bits left to right; the others carry caesar-lane bits right to left.
    Cells normally hold bits, but place() is content-agnostic on purpose:
    build_permutation places bit *indices* to derive the index map.
    """

    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if len(self.rows) % 2:
            raise LengthMismatch(f"row count must be even, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != COLS:
                raise LengthMismatch(f"rows must have {COLS} cells, got {len(row)}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_symbols(self) -> int:
        return len(self.rows) // 2

    def lane_of_row(self, row: int) -> str:
        """Lane tag for a 0-indexed row."""
        return "affine" if row % 2 == 0 else "caesar"


def place(lane_a, lane_b) -> BitMatrix:
    """Interleave the two lane bit strings into the planting layout.

    Each 8-bit group becomes one row: affine groups in bit order, caesar
    groups reversed, alternating affine/caesar from the top.
    """
    a = list(lane_a)
    b = list(lane_b)
    if len(a) != len(b):
        raise LengthMismatch(f"lanes differ: {len(a)} vs {len(b)} cells")
    if len(a) % COLS:
        raise LengthMismatch(f"lane length {len(a)} is not a multiple of {COLS}")
    rows = []
    for i in range(0, len(a), COLS):
        rows.append(tuple(a[i:i + COLS]))
        rows.append(tuple(b[i:i + COLS][::-1]))
    return BitMatrix(tuple(rows))


def harvest(matrix: BitMatrix) -> list:
    """Read the matrix column-serpentine: odd columns down, even columns up."""
    rows = matrix.rows
    n_rows = len(rows)
    out = []
    for col in range(COLS):
        order = range(n_rows) if col % 2 == 0 else range(n_rows - 1, -1, -1)
        out.extend(rows[r][col] for r in order)
    return out


@dataclass(frozen=True)
class PermutationMap:
    """Bijection from lane-pair bit index to ciphertext bit index.

    Index i < 8N addresses affine-lane bit i; index 8N + i addresses
    caesar-lane bit i.  forward[i] is where that bit lands in the
    ciphertext; inverse undoes it.
    """

    forward: tuple[int, ...]
    inverse: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.forward)

    def apply(self, bits) -> list:
        """Scatter lane-pair cells into ciphertext order (harvest of place)."""
        if len(bits) != self.size:
            raise BadLength(f"expected {self.size} cells, got {len(bits)}")
        return [bits[i] for i in self.inverse]

    def invert(self, bits) -> list:
        """Gather ciphertext cells back into lane-pair order."""
        if len(bits) != self.size:
            raise BadLength(f"expected {self.size} cells, got {len(bits)}")
        return [bits[i] for i in self.forward]

    def symbol_positions(self, index: int) -> frozenset[int]:
        """Ciphertext bit positions fed by plaintext symbol `index`.

        Sixteen positions: eight from its affine row, eight from its
        caesar row.
        """
        n_sym = self.size // 16
        if not 0 <= index < n_sym:
            raise IndexError(f"symbol index {index} outside [0, {n_sym})")
        base_a = COLS * index
        base_b = COLS * (n_sym + index)
        return frozenset(
            [self.forward[base_a + j] for j in range(COLS)]
            + [self.forward[base_b + j] for j in range(COLS)]
        )


@lru_cache(maxsize=256)
def build_permutation(n_symbols: int) -> PermutationMap:
    """Compose placement and harvest into one index bijection for N symbols.

    Built by pushing the lane-pair indices themselves through
    place/harvest, so apply() agrees with the matrix route by
    construction for any cell content.  Raises InvalidArgument for N < 0.
    """
    if n_symbols < 0:
        raise InvalidArgument(f"symbol count must be >= 0, got {n_symbols}")
    half = COLS * n_symbols
    ids = list(range(2 * half))
    inverse = harvest(place(ids[:half], ids[half:]))
    forward = [0] * len(ids)
    for position, lane_index in enumerate(inverse):
        forward[lane_index] = position
    return PermutationMap(tuple(forward), tuple(inverse))


def pack_cells(cells) -> bytes:
    """Packed form of 0/1 cells, 8 to a byte, first cell most significant.

    The cell count must be a multiple of 8.  Raises ParseError when a cell
    is not 0 or 1.
    """
    try:
        cells = bytes(cells)
        if cells.translate(None, b"\x00\x01"):
            raise ValueError("stray cell")
    except (TypeError, ValueError):
        raise ParseError("ciphertext cells must be 0 or 1") from None
    value = 0
    for j in range(8):
        value |= int.from_bytes(cells[j::8], "big") << (7 - j)
    return value.to_bytes(len(cells) // 8, "big")


def unpack_cells(packed: bytes) -> bytes:
    """Inverse of pack_cells: one 0/1 byte per bit, most significant first."""
    cells = bytearray(8 * len(packed))
    for j in range(8):
        cells[j::8] = packed.translate(_PLANES[7 - j])
    return bytes(cells)


def _transpose_blocks(data) -> bytes:
    """Transpose every 8x8 bit block (8 bytes, one row a byte) of data."""
    # The masks repeat every block from the low end, so a short last chunk
    # uses their low blocks as they are.
    blocks = min(len(data), _CHUNK) // 8
    swaps = [(shift, int.from_bytes(pattern * blocks, "big"))
             for shift, pattern in _TRANSPOSE_SWAPS]
    out = []
    for start in range(0, len(data), _CHUNK):
        chunk = data[start:start + _CHUNK]
        value = int.from_bytes(chunk, "big")
        for shift, mask in swaps:
            t = (value ^ value >> shift) & mask
            value ^= t | t << shift
        out.append(value.to_bytes(len(chunk), "big"))
    return b"".join(out)


def interleave(codes_a: bytes, codes_b: bytes) -> bytes:
    """Packed ciphertext of the lane bytes: harvest of place, 8 bits a byte."""
    n = len(codes_a)
    pad = -n % 4
    rows = bytearray(2 * (n + pad))
    rows[0::2] = bytes(pad) + codes_a
    rows[1::2] = (bytes(pad) + codes_b).translate(_REVERSE)
    blocks = _transpose_blocks(rows)
    out = bytearray(2 * n)
    for col in range(COLS):
        column = blocks[col::8]
        if col % 2:
            # Reversing the padded column's bits puts the padding last.
            bits = int.from_bytes(column[::-1].translate(_REVERSE), "big") >> 2 * pad
        else:
            bits = int.from_bytes(column, "big")
        # The column's 2N bits are stream bits [2N*col, 2N*(col+1)).
        start, end = 2 * n * col, 2 * n * (col + 1)
        lo, hi = start // 8, (end + 7) // 8
        bits <<= -end % 8
        if start % 8:  # the first byte also ends the previous column
            bits |= out[lo] << 8 * (hi - lo - 1)
        out[lo:hi] = bits.to_bytes(hi - lo, "big")
    return bytes(out)


def deinterleave(packed: bytes) -> tuple[bytes, bytes]:
    """Inverse of interleave: packed ciphertext -> (affine, caesar) lane bytes."""
    if len(packed) % 2:
        raise BadLength(f"ciphertext bit count {8 * len(packed)} is not a multiple of 16")
    n = len(packed) // 2
    pad = -n % 4
    width = (n + pad) // 4
    mask = (1 << 2 * n) - 1
    blocks = bytearray(COLS * width)
    for col in range(COLS):
        start, end = 2 * n * col, 2 * n * (col + 1)
        bits = int.from_bytes(packed[start // 8:(end + 7) // 8], "big") >> (-end % 8) & mask
        if col % 2:
            # Reversed back into pair order, the padding leads again.
            blocks[col::8] = (bits << 2 * pad).to_bytes(width, "big")[::-1].translate(_REVERSE)
        else:
            blocks[col::8] = bits.to_bytes(width, "big")
    rows = _transpose_blocks(blocks)
    return rows[2 * pad::2], rows[2 * pad + 1::2].translate(_REVERSE)


def unharvest(bits) -> tuple[list, list]:
    """Undo harvest and placement: ciphertext bits -> (affine, caesar) lanes."""
    if len(bits) % 16:
        raise BadLength(f"ciphertext bit count {len(bits)} is not a multiple of 16")
    codes_a, codes_b = deinterleave(pack_cells(bits))
    return symbols_to_bits(codes_a), symbols_to_bits(codes_b)
