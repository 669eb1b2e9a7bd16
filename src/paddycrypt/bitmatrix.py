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
use the closed form on eight row integers.  The 8 bytes A[i], rev(B[i]),
..., A[i+3], rev(B[i+3]) (rev reverses a byte's bit order) are an 8x8 bit
block whose column c holds the 4 pairs of column c.  Row r of every block is
one strided slice of a lane: row 2q is A[q::4] and row 2q+1 is rev(B)[q::4],
read as one big-endian integer, so byte j of row r is row r of block j.
Three delta swaps on whole rows (12 row pairs) transpose every block at
once, after which row c holds column c's pairs in block order, which is
stream order; odd columns are harvested upwards, so their bits are
reversed.  A column is 2N bits, so when N is not a multiple of 4 the lanes
get leading zero symbols that align each column to whole bytes, and the
columns, less their padding bits, are stitched into the stream as one
integer.

Both lanes are byte maps of one plaintext P, A = table_a[P] and B =
table_b[P], and the first swap (d = 1) only exchanges bits between A[i] and
rev(B[i]), so interleave folds the lane maps, rev and that swap into two
256-byte tables of P: its rows are the plaintext's four strided slices
P[q::4] through them, and only the d = 2 and d = 4 swaps (8 row pairs) are
left.  deinterleave runs all three swaps and maps each row through the
(inverse) lane tables before the lanes are assembled.  pack_cells and
unpack_cells convert between the packed stream and one 0/1 cell per bit.

place, harvest and build_permutation do the same cell by cell; they are
the reference that tests compare the closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadLength, IndexOutOfRange, InvalidArgument, LengthMismatch, ParseError

COLS = 8

_PLANES = tuple(bytes((v >> s) & 1 for v in range(256)) for s in range(COLS))
# Each byte with its bit order reversed.
_REVERSE = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))
# The delta swaps that transpose 8x8 bit blocks held one row a byte
# (Hacker's Delight, transpose8): distance d, the pattern of one byte, and
# the rows r that swap with rows r + d.
_SWAPS = ((1, 0xAA, (0, 2, 4, 6)), (2, 0xCC, (0, 1, 4, 5)), (4, 0xF0, (0, 1, 2, 3)))


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
        caesar row.  Raises InvalidArgument unless index is an int, and
        IndexOutOfRange, an IndexError, unless it is in [0, N).
        """
        if type(index) is not int:
            raise InvalidArgument(f"symbol index must be an int, got {type(index).__name__}")
        n_sym = self.size // 16
        if not 0 <= index < n_sym:
            raise IndexOutOfRange(f"symbol index {index} outside [0, {n_sym})")
        base_a = COLS * index
        base_b = COLS * (n_sym + index)
        return frozenset(
            [self.forward[base_a + j] for j in range(COLS)]
            + [self.forward[base_b + j] for j in range(COLS)]
        )


@lru_cache(maxsize=1)
def build_permutation(n_symbols: int) -> PermutationMap:
    """Compose placement and harvest into one index bijection for N symbols.

    Built by pushing the lane-pair indices themselves through
    place/harvest, so apply() agrees with the matrix route by
    construction for any cell content.  Raises InvalidArgument unless N is
    an int >= 0 whose 16N indices a list can hold.
    """
    if type(n_symbols) is not int:
        raise InvalidArgument(f"symbol count must be an int, got {n_symbols!r}")
    if n_symbols < 0:
        raise InvalidArgument(f"symbol count must be >= 0, got {n_symbols}")
    half = COLS * n_symbols
    try:
        ids = list(range(2 * half))
    except OverflowError:
        raise InvalidArgument(f"symbol count too large to index, got {n_symbols}") from None
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


def _swap(rows: list[int], r: int, d: int, mask: int) -> None:
    """Delta swap: exchange the bits of rows[r] under mask >> d with the
    bits of rows[r + d] under mask."""
    t = (rows[r + d] ^ rows[r] << d) & mask
    rows[r + d] ^= t
    rows[r] ^= t >> d


def _transpose(rows: list[int], width: int, swaps=_SWAPS) -> None:
    """Transpose, in place, the 8x8 bit blocks that eight row ints hold.

    Byte j of rows[r] (big-endian, width bytes) is row r of block j; after
    the call byte j of rows[c] is column c of block j, first row most
    significant.  The three delta swaps of Hacker's Delight's transpose8
    run on whole rows: swap d exchanges the off-diagonal d x d sub-blocks
    of rows r and r + d in every block at once.  The swaps commute, so
    swaps=_SWAPS[1:] finishes blocks whose d = 1 swap is already done.
    """
    ones = int.from_bytes(b"\x01" * width, "big")
    for d, pattern, tops in swaps:
        mask = pattern * ones
        for r in tops:
            _swap(rows, r, d, mask)


def _flip(row: int, width: int) -> bytes:
    """The width bytes of row with the order of all their bits reversed."""
    return row.to_bytes(width, "little").translate(_REVERSE)


def _check_table(table: bytes) -> None:
    if len(table) != 256:
        raise InvalidArgument(f"lane table must have 256 bytes, got {len(table)}")


def interleave(data: bytes, table_a: bytes, table_b: bytes) -> bytes:
    """Packed ciphertext of the lanes data.translate(table_a) and
    data.translate(table_b): harvest of place, 8 bits a byte."""
    _check_table(table_a)
    _check_table(table_b)
    # A plaintext byte p's two block rows are table_a[p] and rev(table_b[p]);
    # their d = 1 swap, done on the tables, leaves both rows byte maps of p.
    pair = [int.from_bytes(table_a, "big"), int.from_bytes(table_b.translate(_REVERSE), "big")]
    _swap(pair, 0, 1, int.from_bytes(b"\xaa" * 256, "big"))
    table_a, table_b = (row.to_bytes(256, "big") for row in pair)
    n = len(data)
    pad = -n % 4
    width = (n + pad) // 4
    rows = []
    # Row q of the padded lanes starts at symbol q - pad; a leading zero
    # symbol of padding is a leading zero byte, which the int drops.
    for q in range(4):
        part = data[(q - pad) % 4::4]
        rows += (int.from_bytes(part.translate(table_a), "big"),
                 int.from_bytes(part.translate(table_b), "big"))
    _transpose(rows, width, _SWAPS[1:])
    # Row c holds column c's 2(N + pad) bits in stream order, padding first;
    # odd columns are harvested upwards, which reverses them, padding last.
    if not pad:
        return b"".join(_flip(row, width) if col % 2 else row.to_bytes(width, "big")
                        for col, row in enumerate(rows))
    # Each column is 2N bits of the stream, without its padding bits.
    stream = 0
    for col, row in enumerate(rows):
        if col % 2:
            row = int.from_bytes(_flip(row, width), "big") >> 2 * pad
        stream = stream << 2 * n | row
    return stream.to_bytes(2 * n, "big")


def check_bit_count(count: int) -> None:
    """Raise BadLength unless count ciphertext bits are whole symbols, 16 each."""
    if count % 16:
        raise BadLength(f"ciphertext bit count {count} is not a multiple of 16")


def deinterleave(packed: bytes, table_a: bytes | None = None,
                 table_b: bytes | None = None) -> tuple[bytes, bytes]:
    """Inverse of interleave: packed ciphertext -> (affine, caesar) lanes,
    mapped through table_a and table_b (the raw lanes without tables)."""
    check_bit_count(8 * len(packed))
    for table in (table_a, table_b):
        if table is not None:
            _check_table(table)
    table_b = _REVERSE if table_b is None else _REVERSE.translate(table_b)
    n = len(packed) // 2
    pad = -n % 4
    width = (n + pad) // 4
    rows = []
    # Column col and the odd one after it are stream bits [start, mid) and
    # [mid, end).  Read backwards, the odd one is back in pair order,
    # and in both the padding bits lead again, as the row's high zero bits.
    # Without padding both are whole byte slices.
    mask = (1 << 2 * n) - 1 if pad else None
    for col in range(0, COLS, 2):
        start, mid, end = 2 * n * col, 2 * n * (col + 1), 2 * n * (col + 2)
        even = int.from_bytes(packed[start // 8:(mid + 7) // 8], "big")
        odd = int.from_bytes(packed[mid // 8:(end + 7) // 8].translate(_REVERSE), "little")
        if pad:
            even, odd = even >> -mid % 8 & mask, odd >> mid % 8 & mask
        rows += even, odd
    _transpose(rows, width)
    lane_a = bytearray(n)
    lane_b = bytearray(n)
    for q in range(4):
        # Row q < pad leads with a padding symbol, a zero byte.
        size = width - (q < pad)
        lane_a[(q - pad) % 4::4] = rows[2 * q].to_bytes(size, "big").translate(table_a)
        lane_b[(q - pad) % 4::4] = rows[2 * q + 1].to_bytes(size, "big").translate(table_b)
    del rows
    return bytes(lane_a), bytes(lane_b)


def unharvest(bits) -> tuple[list, list]:
    """Undo harvest and placement: ciphertext bits -> (affine, caesar) lanes."""
    check_bit_count(len(bits))
    codes_a, codes_b = deinterleave(pack_cells(bits))
    return symbols_to_bits(codes_a), symbols_to_bits(codes_b)
