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
                     if flagged: (varint classical register index, varint value);
                     a barrier is never flagged

Circuits are flattened before encoding, so the stream contains only builtin
opcodes acting on concrete wires; macro structure is not preserved. A flat
circuit (a transpiler output) is checked but not rebuilt by that step.

Both directions work on the bytes directly. The encoder writes each
distinct opcode/flags/param-count header and operand list once and reuses
its bytes. The decoder reads one-byte varints inline, unpacks all of an
instruction's parameters with one ``struct`` call, validates each distinct
opcode index once, and builds an error message only when it raises one.
Both directions check operands with ``Circuit.resolve``: the encoder raises
its QasmError, and the decoder raises it as a BinaryFormatError.
"""

from __future__ import annotations

import math
import struct

from .circuit import NON_GATE_OPCODES, Circuit, Instruction, Register
from .errors import BinaryFormatError, QasmError
from .flatten import flatten
from .gates import LIBRARY

__all__ = ["encode_binary", "decode_binary", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NWQB"
FORMAT_VERSION = 1


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


def encode_binary(circuit: Circuit) -> bytes:
    """Serialize a circuit. The circuit is flattened first, so
    ``decode_binary(encode_binary(c))`` equals ``flatten(c)``. Encoding is
    deterministic: identical circuits yield identical bytes. A conditioned
    barrier raises BinaryFormatError, as it does when decoded."""
    flat = flatten(circuit)
    flat.resolve()

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

    # the instruction records go to their own buffer first, since the string
    # table ahead of them is complete only once every opcode is interned;
    # opcode/flags/param-count headers and operand lists repeat, so each
    # distinct one is encoded once
    body = bytearray()
    heads: dict[tuple, bytes] = {}
    operand_lists: dict[tuple, bytes] = {}
    packers: dict[int, object] = {}

    def encode_head(opcode: str, conditioned: bool, n_params: int) -> bytes:
        head = bytearray()
        _write_uvarint(head, intern(opcode))
        head.append(1 if conditioned else 0)
        _write_uvarint(head, n_params)
        return heads.setdefault((opcode, conditioned, n_params), bytes(head))

    def encode_operands(operands: tuple) -> bytes:
        out = bytearray()
        _write_uvarint(out, len(operands))
        for reg, wire in operands:
            _write_uvarint(out, reg_index[reg])
            _write_uvarint(out, wire)
        return operand_lists.setdefault(operands, bytes(out))

    for k, instr in enumerate(flat.instructions):
        params = instr.params
        condition = instr.condition
        n_params = len(params)
        head = heads.get((instr.opcode, condition is not None, n_params))
        body += head or encode_head(instr.opcode, condition is not None, n_params)
        if n_params:
            pack = packers.get(n_params)
            if pack is None:
                pack = packers[n_params] = struct.Struct(f"<{n_params}d").pack
            body += pack(*params)
        body += operand_lists.get(instr.qubits) or encode_operands(instr.qubits)
        body += operand_lists.get(instr.clbits) or encode_operands(instr.clbits)
        if condition is not None:
            if instr.opcode == "barrier":  # the decoder refuses it too
                raise BinaryFormatError(f"instruction {k}: a barrier cannot be conditioned")
            creg, value = condition
            _write_uvarint(body, reg_index[creg])
            _write_uvarint(body, value)

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
    buf += body
    return bytes(buf)


# -- decoding ------------------------------------------------------------------
#
# Field names for error messages are templates over the instruction number
# {k}, formatted only when an error is raised.

def _truncated(what: str, k: int, off: int) -> BinaryFormatError:
    return BinaryFormatError(f"truncated stream: {what.format(k=k)} at byte {off}")


def _uvarint(data: bytes, off: int, what: str, k: int = 0) -> tuple[int, int]:
    """The LEB128 varint at ``off`` and the offset past it."""
    result = 0
    shift = 0
    end = len(data)
    while True:
        if off >= end:
            raise _truncated(what, k, off)
        byte = data[off]
        off += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, off
        shift += 7
        if shift > 63:
            raise BinaryFormatError(
                f"varint overflow reading {what.format(k=k)} at byte {off}"
            )


def _take(data: bytes, off: int, n: int, what: str, k: int = 0) -> tuple[bytes, int]:
    if off + n > len(data):
        raise _truncated(what, k, off)
    return data[off : off + n], off + n


def _check_params(data: bytes, off: int, n_params: int, k: int):
    """Raise for the first parameter, in order, that runs past the end of
    the stream or is not finite."""
    for pos in range(off, off + 8 * n_params, 8):
        if pos + 8 > len(data):
            raise _truncated("instruction {k} param", k, pos)
        (value,) = struct.unpack_from("<d", data, pos)
        if not math.isfinite(value):
            raise BinaryFormatError(f"non-finite instruction {k} param {value} at byte {pos}")


def _opcode_entry(strings: list, idx: int, k: int) -> tuple:
    """(opcode, qubit count, parameter count) of a valid opcode string
    index; the counts are None for measure/barrier/reset/delay."""
    if idx >= len(strings):
        raise BinaryFormatError(f"string-table index {idx} out of range for instruction {k}")
    opcode = strings[idx]
    spec = LIBRARY.get(opcode)
    if spec is not None:
        return opcode, spec.arity, spec.param_count
    if opcode in NON_GATE_OPCODES:
        return opcode, None, None
    raise BinaryFormatError(f"instruction {k}: unknown opcode '{opcode}'")


def _operand(registers: list, ridx: int, wire: int) -> tuple:
    if ridx >= len(registers):
        raise BinaryFormatError(f"register index {ridx} out of range")
    return (registers[ridx].name, wire)


def _read_operands(
    data: bytes, off: int, count: int, registers: list, seen: dict
) -> tuple[tuple, int]:
    """``count`` (register, wire) operands from ``off``. ``seen`` maps the
    two bytes of an operand whose register and wire indices are one-byte
    varints to the operand they were read as."""
    end = len(data)
    ops = []
    for _ in range(count):
        if off + 1 < end:
            ridx = data[off]
            wire = data[off + 1]
            if ridx < 0x80 and wire < 0x80:
                key = ridx << 7 | wire
                op = seen.get(key)
                if op is None:
                    op = seen[key] = _operand(registers, ridx, wire)
                ops.append(op)
                off += 2
                continue
        ridx, off = _uvarint(data, off, "operand register index")
        wire, off = _uvarint(data, off, "operand wire index")
        ops.append(_operand(registers, ridx, wire))
    return tuple(ops), off


def decode_binary(data: bytes) -> Circuit:
    """Parse an NWQB byte stream back into a (flattened) circuit.

    Validates the magic, version, and every string-table and register
    index, then the operands (``Circuit.resolve``); truncation errors report
    the failing byte offset.
    """
    data = bytes(data)
    end = len(data)
    magic, off = _take(data, 0, 4, "magic")
    if magic != MAGIC:
        raise BinaryFormatError(f"bad magic {magic.hex()} (want {MAGIC.hex()})")
    raw, off = _take(data, off, 2, "version")
    version = struct.unpack("<H", raw)[0]
    if version != FORMAT_VERSION:
        raise BinaryFormatError(f"unsupported format version {version}")

    n_strings, off = _uvarint(data, off, "string table count")
    strings = []
    for k in range(n_strings):
        length, off = _uvarint(data, off, "string {k} length", k)
        raw, off = _take(data, off, length, "string {k}", k)
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"string {k} is not valid UTF-8: {exc}") from None

    n_regs, off = _uvarint(data, off, "register count")
    registers = []
    for k in range(n_regs):
        idx, off = _uvarint(data, off, "register {k} name", k)
        if idx >= len(strings):
            raise BinaryFormatError(f"string-table index {idx} out of range for register {k}")
        name = strings[idx]
        raw, off = _take(data, off, 1, "register {k} kind", k)
        kind_byte = raw[0]
        if kind_byte not in (0, 1):
            raise BinaryFormatError(f"register {k} has invalid kind {kind_byte}")
        size, off = _uvarint(data, off, "register {k} size", k)
        if size < 1:
            raise BinaryFormatError(f"register '{name}' has invalid size {size}")
        registers.append(Register(name, "q" if kind_byte == 0 else "c", size))
    if len({reg.name for reg in registers}) != len(registers):
        raise BinaryFormatError("duplicate register name")

    opcodes: dict[int, tuple] = {}
    unpackers: dict[int, object] = {}
    seen: dict[int, tuple] = {}
    isfinite = math.isfinite
    n_instrs, off = _uvarint(data, off, "instruction count")
    instructions = []
    for k in range(n_instrs):
        if off < end and data[off] < 0x80:
            idx = data[off]
            off += 1
        else:
            idx, off = _uvarint(data, off, "instruction {k} opcode", k)
        entry = opcodes.get(idx)
        if entry is None:
            entry = opcodes[idx] = _opcode_entry(strings, idx, k)
        opcode, arity, param_count = entry

        if off >= end:
            raise _truncated("instruction {k} flags", k, off)
        flags = data[off]
        off += 1

        if off < end and data[off] < 0x80:
            n_params = data[off]
            off += 1
        else:
            n_params, off = _uvarint(data, off, "instruction {k} param count", k)
        if n_params:
            stop = off + 8 * n_params
            if stop > end:
                _check_params(data, off, n_params, k)
            unpack = unpackers.get(n_params)
            if unpack is None:
                unpack = unpackers[n_params] = struct.Struct(f"<{n_params}d").unpack_from
            params = unpack(data, off)
            if not all(map(isfinite, params)):
                _check_params(data, off, n_params, k)
            off = stop
        else:
            params = ()
        if opcode == "delay":
            if len(params) != 1 or params[0] < 0 or params[0] != int(params[0]):
                raise BinaryFormatError(
                    f"instruction {k}: delay needs one nonnegative integer cycle count"
                )
            params = (int(params[0]),)

        if off < end and data[off] < 0x80:
            count = data[off]
            off += 1
        else:
            count, off = _uvarint(data, off, "instruction {k} qubit count", k)
        qubits, off = _read_operands(data, off, count, registers, seen)
        if off < end and data[off] < 0x80:
            count = data[off]
            off += 1
        else:
            count, off = _uvarint(data, off, "instruction {k} clbit count", k)
        if count:
            clbits, off = _read_operands(data, off, count, registers, seen)
        else:
            clbits = ()

        condition = None
        if flags & 1:
            cidx, off = _uvarint(data, off, "instruction {k} condition register", k)
            if cidx >= len(registers):
                raise BinaryFormatError(f"instruction {k}: condition register index {cidx} invalid")
            value, off = _uvarint(data, off, "instruction {k} condition value", k)
            condition = (registers[cidx].name, value)
            if opcode == "barrier":
                raise BinaryFormatError(f"instruction {k}: a barrier cannot be conditioned")
        if arity is not None and (len(qubits) != arity or n_params != param_count):
            raise BinaryFormatError(
                f"instruction {k}: '{opcode}' operand or parameter count mismatch"
            )
        instructions.append(Instruction(opcode, params, qubits, clbits, condition))

    if off != end:
        raise BinaryFormatError(f"{end - off} trailing byte(s) at byte {off}")
    circuit = Circuit(registers=tuple(registers), instructions=tuple(instructions))
    try:
        circuit.resolve()
    except QasmError as exc:
        raise BinaryFormatError(str(exc)) from None
    return circuit
