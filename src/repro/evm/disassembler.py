"""Bytecode disassembler — the paper's enhanced ``evmdasm`` equivalent.

The BDM (Bytecode Disassembler Module) turns deployed bytecode into a
sequence of :class:`~repro.evm.instruction.Instruction` objects.  Matching
the paper's enhancement of ``evmdasm`` for the Shanghai fork, the
disassembler

* understands ``PUSH0`` (0x5F) and the designated ``INVALID`` (0xFE),
* maps every byte value with no Shanghai definition to ``INVALID`` instead
  of failing (real deployed bytecode routinely embeds metadata and data
  sections that decode to undefined bytes),
* tolerates a PUSH immediate truncated by the end of the bytecode (the
  instruction is flagged ``is_truncated``),
* can serialize the result to the ``(mnemonic, operand, gas)`` CSV rows the
  paper stores for downstream feature extraction.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

import numpy as np

from repro.evm.errors import DisassemblyError
from repro.evm.instruction import Instruction
from repro.evm.opcodes import OPCODES, opcode_by_name

_INVALID = opcode_by_name("INVALID")

CSV_HEADER = ("offset", "mnemonic", "operand", "gas")

#: Canonical mnemonic-ID table: every Shanghai mnemonic in sorted order, so
#: id k is ``MNEMONIC_TABLE[k]``. IDs are stable across processes (they only
#: depend on the opcode registry) and fit in a uint8, which is what makes
#: content-addressed caching of decoded sequences cheap.
MNEMONIC_TABLE: tuple[str, ...] = tuple(
    sorted({op.mnemonic for op in OPCODES.values()})
)

#: Mnemonic → mnemonic-ID (inverse of :data:`MNEMONIC_TABLE`).
MNEMONIC_IDS: dict[str, int] = {
    name: i for i, name in enumerate(MNEMONIC_TABLE)
}

MNEMONIC_COUNT = len(MNEMONIC_TABLE)

# Per-byte lookup tables: raw byte value → mnemonic ID (undefined bytes map
# to INVALID, mirroring instructions()) and → immediate width to skip.
_BYTE_TO_ID: bytes = bytes(
    MNEMONIC_IDS[OPCODES[b].mnemonic if b in OPCODES else "INVALID"]
    for b in range(256)
)
_BYTE_TO_WIDTH: bytes = bytes(
    OPCODES[b].immediate_size if b in OPCODES else 0 for b in range(256)
)


def normalize_bytecode(bytecode: bytes | bytearray | str) -> bytes:
    """Coerce hex-string or bytes input into raw bytes.

    Accepts ``bytes``/``bytearray`` verbatim, or a hex string with optional
    ``0x`` prefix and whitespace (surrounding or internal, as
    ``bytes.fromhex`` tolerates between bytes).

    Raises:
        DisassemblyError: If a string input is not valid hex.
    """
    if isinstance(bytecode, (bytes, bytearray)):
        return bytes(bytecode)
    # Drop all whitespace *before* the parity check: "60 80" is valid spaced
    # hex, and "0x6 08" really is 3 nibbles, not "even once spaces count".
    text = "".join(bytecode.split())
    if text.startswith(("0x", "0X")):
        text = text[2:]
    if len(text) % 2:
        raise DisassemblyError(f"odd-length hex string ({len(text)} nibbles)")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise DisassemblyError(f"invalid hex bytecode: {exc}") from exc


class Disassembler:
    """Streaming disassembler over a single bytecode blob.

    ``bytes`` input is already raw bytecode and is kept as is, without a
    copy; hex strings and ``bytearray`` go through
    :func:`normalize_bytecode`.
    """

    def __init__(self, bytecode: bytes | bytearray | str):
        if isinstance(bytecode, bytes):
            self._code = bytecode
        else:
            self._code = normalize_bytecode(bytecode)

    @property
    def code(self) -> bytes:
        """The normalized raw bytecode."""
        return self._code

    def __iter__(self) -> Iterator[Instruction]:
        return self.instructions()

    def __len__(self) -> int:
        return len(self._code)

    def instructions(self) -> Iterator[Instruction]:
        """Decode the bytecode into instructions, front to back."""
        code = self._code
        offset = 0
        end = len(code)
        while offset < end:
            raw = code[offset]
            opcode = OPCODES.get(raw)
            if opcode is None:
                yield Instruction(
                    offset=offset,
                    opcode=_INVALID,
                    is_undefined_byte=True,
                    raw_byte=raw,
                )
                offset += 1
                continue
            width = opcode.immediate_size
            if width == 0:
                yield Instruction(offset=offset, opcode=opcode, raw_byte=raw)
                offset += 1
                continue
            operand = code[offset + 1 : offset + 1 + width]
            yield Instruction(
                offset=offset,
                opcode=opcode,
                operand=operand,
                is_truncated=len(operand) < width,
                raw_byte=raw,
            )
            offset += 1 + width

    def disassemble(self) -> list[Instruction]:
        """Decode the full bytecode into a list of instructions."""
        return list(self.instructions())

    def mnemonic_ids(self) -> np.ndarray:
        """The mnemonic-ID sequence as a compact ``uint8`` array.

        Single-pass decode: no :class:`Instruction` objects are built, only
        opcode bytes are visited (PUSH immediates are skipped via a byte →
        width table). ``MNEMONIC_TABLE[id]`` recovers the mnemonic; the
        output is what the vectorized feature extractors and the serve-layer
        :class:`~repro.serve.cache.FeatureCache` consume.
        """
        code = self._code
        ids = _BYTE_TO_ID
        widths = _BYTE_TO_WIDTH
        out = bytearray()
        append = out.append
        offset = 0
        end = len(code)
        while offset < end:
            raw = code[offset]
            append(ids[raw])
            offset += 1 + widths[raw]
        return np.frombuffer(bytes(out), dtype=np.uint8)

    def mnemonics(self) -> list[str]:
        """The opcode mnemonic sequence (what most models consume)."""
        table = MNEMONIC_TABLE
        return [table[i] for i in self.mnemonic_ids()]

    def jump_destinations(self) -> frozenset[int]:
        """Byte offsets of every JUMPDEST, for control-flow validation.

        PUSH immediates are skipped, so a 0x5B byte inside a PUSH operand is
        correctly *not* a valid jump target — exactly the EVM's rule.
        """
        return frozenset(
            instruction.offset
            for instruction in self.instructions()
            if instruction.mnemonic == "JUMPDEST"
        )

    def to_csv(self) -> str:
        """Serialize to the CSV layout the paper's BDM writes.

        One row per instruction: ``offset,mnemonic,operand,gas``, with
        ``NaN`` in the operand column for immediate-less instructions and in
        the gas column for INVALID.
        """
        buffer = io.StringIO()
        buffer.write(",".join(CSV_HEADER) + "\n")
        for instruction in self.instructions():
            mnemonic, operand, gas = instruction.as_triple()
            gas_text = "NaN" if gas != gas else str(int(gas))
            buffer.write(f"{instruction.offset},{mnemonic},{operand},{gas_text}\n")
        return buffer.getvalue()


def disassemble(bytecode: bytes | bytearray | str) -> list[Instruction]:
    """Disassemble ``bytecode`` into a list of instructions.

    Example:
        >>> [str(i) for i in disassemble("0x6080604052")]
        ['PUSH1 0x80', 'PUSH1 0x40', 'MSTORE']
    """
    return Disassembler(bytecode).disassemble()


def disassemble_mnemonics(bytecode: bytes | bytearray | str) -> list[str]:
    """Disassemble ``bytecode`` and keep only the mnemonic sequence."""
    return Disassembler(bytecode).mnemonics()


def decode_mnemonic_ids(bytecode: bytes | bytearray | str) -> np.ndarray:
    """Single-pass decode of ``bytecode`` to a ``uint8`` mnemonic-ID array."""
    return Disassembler(bytecode).mnemonic_ids()


def ids_to_mnemonics(ids: np.ndarray) -> list[str]:
    """Map a mnemonic-ID array back to mnemonic strings."""
    table = MNEMONIC_TABLE
    return [table[i] for i in ids]
