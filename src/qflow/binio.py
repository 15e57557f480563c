"""Compact binary circuit container (NWQB v1).

Layout, all multi-byte integers little-endian, varints LEB128 unsigned:

    magic   4 bytes  4E 57 51 42 ("NWQB")
    version u16      1
    string table     varint count, then per entry varint length + UTF-8 bytes
    registers        varint count, then {name: varint string index,
                     kind: u8 (0=quantum, 1=classical), size: varint}
    instructions     varint count, then per instruction:
                     opcode: varint string index
                     flags: u8 (bit0 = has condition)
                     param count: varint, params: raw IEEE-754 f64 each
                     (delay cycle counts are stored as f64)
                     qubit operand count: varint, then (varint register index,
                     varint wire index) pairs
                     classical operands likewise
                     if flagged: (varint classical register index, varint value)

Circuits are flattened before encoding, so the stream contains only builtin
opcodes acting on concrete wires; macro structure is not preserved.
"""

from __future__ import annotations

import math
import struct

from .circuit import Circuit, Instruction, Register
from .errors import BinaryFormatError
from .flatten import flatten
from .gates import LIBRARY

__all__ = ["encode_binary", "decode_binary", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NWQB"
FORMAT_VERSION = 1

_SPECIAL = frozenset({"measure", "barrier", "reset", "delay"})


def _write_uvarint(buf: bytearray, value: int):
    if value < 0:
        raise BinaryFormatError(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def fail(self, what: str):
        raise BinaryFormatError(f"truncated stream: {what} at byte {self.off}")

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            self.fail(what)
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def uvarint(self, what: str) -> int:
        result = 0
        shift = 0
        while True:
            if self.off >= len(self.data):
                self.fail(what)
            byte = self.data[self.off]
            self.off += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise BinaryFormatError(f"varint overflow reading {what} at byte {self.off}")

    def f64(self, what: str) -> float:
        value = struct.unpack("<d", self.take(8, what))[0]
        if not math.isfinite(value):
            raise BinaryFormatError(f"non-finite {what} {value} at byte {self.off - 8}")
        return value


def encode_binary(circuit: Circuit) -> bytes:
    """Serialize a circuit. The circuit is flattened first, so
    ``decode_binary(encode_binary(c))`` equals ``flatten(c)``. Encoding is
    deterministic: identical circuits yield identical bytes."""
    flat = flatten(circuit)

    strings: list[str] = []
    index: dict[str, int] = {}

    def intern(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    reg_index = {reg.name: i for i, reg in enumerate(flat.registers)}
    for reg in flat.registers:
        intern(reg.name)
    for instr in flat.instructions:
        intern(instr.opcode)

    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", FORMAT_VERSION)

    _write_uvarint(buf, len(strings))
    for s in strings:
        raw = s.encode("utf-8")
        _write_uvarint(buf, len(raw))
        buf += raw

    _write_uvarint(buf, len(flat.registers))
    for reg in flat.registers:
        _write_uvarint(buf, index[reg.name])
        buf.append(0 if reg.kind == "q" else 1)
        _write_uvarint(buf, reg.size)

    _write_uvarint(buf, len(flat.instructions))
    for instr in flat.instructions:
        _write_uvarint(buf, index[instr.opcode])
        buf.append(1 if instr.condition is not None else 0)
        _write_uvarint(buf, len(instr.params))
        for p in instr.params:
            buf += struct.pack("<d", float(p))
        _write_uvarint(buf, len(instr.qubits))
        for reg, wire in instr.qubits:
            _write_uvarint(buf, reg_index[reg])
            _write_uvarint(buf, wire)
        _write_uvarint(buf, len(instr.clbits))
        for reg, wire in instr.clbits:
            _write_uvarint(buf, reg_index[reg])
            _write_uvarint(buf, wire)
        if instr.condition is not None:
            creg, value = instr.condition
            _write_uvarint(buf, reg_index[creg])
            _write_uvarint(buf, value)
    return bytes(buf)


def decode_binary(data: bytes) -> Circuit:
    """Parse an NWQB byte stream back into a (flattened) circuit.

    Validates the magic, version, and every string-table, register, and wire
    index; truncation errors report the failing byte offset."""
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise BinaryFormatError(f"bad magic {magic.hex()} (want {MAGIC.hex()})")
    version = struct.unpack("<H", r.take(2, "version"))[0]
    if version != FORMAT_VERSION:
        raise BinaryFormatError(f"unsupported format version {version}")

    n_strings = r.uvarint("string table count")
    strings = []
    for k in range(n_strings):
        length = r.uvarint(f"string {k} length")
        raw = r.take(length, f"string {k}")
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"string {k} is not valid UTF-8: {exc}") from None

    def string_at(idx: int, what: str) -> str:
        if idx >= len(strings):
            raise BinaryFormatError(f"string-table index {idx} out of range for {what}")
        return strings[idx]

    n_regs = r.uvarint("register count")
    registers = []
    for k in range(n_regs):
        name = string_at(r.uvarint(f"register {k} name"), f"register {k}")
        kind_byte = r.take(1, f"register {k} kind")[0]
        if kind_byte not in (0, 1):
            raise BinaryFormatError(f"register {k} has invalid kind {kind_byte}")
        size = r.uvarint(f"register {k} size")
        if size < 1:
            raise BinaryFormatError(f"register '{name}' has invalid size {size}")
        registers.append(Register(name, "q" if kind_byte == 0 else "c", size))
    if len({reg.name for reg in registers}) != len(registers):
        raise BinaryFormatError("duplicate register name")

    def read_operands(count_what: str, want_kind: str) -> tuple:
        count = r.uvarint(count_what)
        ops = []
        for _ in range(count):
            ridx = r.uvarint("operand register index")
            if ridx >= len(registers):
                raise BinaryFormatError(f"register index {ridx} out of range")
            reg = registers[ridx]
            if reg.kind != want_kind:
                raise BinaryFormatError(
                    f"operand register '{reg.name}' has kind '{reg.kind}', want '{want_kind}'"
                )
            wire = r.uvarint("operand wire index")
            if wire >= reg.size:
                raise BinaryFormatError(
                    f"wire index {wire} out of range for {reg.name}[{reg.size}]"
                )
            ops.append((reg.name, wire))
        return tuple(ops)

    n_instrs = r.uvarint("instruction count")
    instructions = []
    for k in range(n_instrs):
        opcode = string_at(r.uvarint(f"instruction {k} opcode"), f"instruction {k}")
        if opcode not in LIBRARY and opcode not in _SPECIAL:
            raise BinaryFormatError(f"instruction {k}: unknown opcode '{opcode}'")
        flags = r.take(1, f"instruction {k} flags")[0]
        n_params = r.uvarint(f"instruction {k} param count")
        params = tuple(r.f64(f"instruction {k} param") for _ in range(n_params))
        if opcode == "delay":
            if len(params) != 1 or params[0] < 0 or params[0] != int(params[0]):
                raise BinaryFormatError(
                    f"instruction {k}: delay needs one nonnegative integer cycle count"
                )
            params = (int(params[0]),)
        qubits = read_operands(f"instruction {k} qubit count", "q")
        clbits = read_operands(f"instruction {k} clbit count", "c")
        condition = None
        if flags & 1:
            cidx = r.uvarint(f"instruction {k} condition register")
            if cidx >= len(registers) or registers[cidx].kind != "c":
                raise BinaryFormatError(
                    f"instruction {k}: condition register index {cidx} invalid"
                )
            condition = (registers[cidx].name, r.uvarint(f"instruction {k} condition value"))
        spec = LIBRARY.get(opcode)
        if spec is not None:
            if len(qubits) != spec.arity or len(params) != spec.param_count:
                raise BinaryFormatError(
                    f"instruction {k}: '{opcode}' operand or parameter count mismatch"
                )
        instructions.append(Instruction(opcode, params, qubits, clbits, condition))

    if r.off != len(data):
        raise BinaryFormatError(f"{len(data) - r.off} trailing byte(s) at byte {r.off}")

    return Circuit(registers=tuple(registers), instructions=tuple(instructions))
