"""Exception types shared across the toolchain.

The CLI maps these onto its exit-code contract, so new error conditions
should subclass one of the existing roots rather than raising bare
ValueError from public entry points.
"""


class QFlowError(Exception):
    """Base class for all toolchain errors."""


class QasmError(QFlowError):
    """Syntax or semantic error in OpenQASM 2.0 source."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)


class BinaryFormatError(QFlowError):
    """Malformed or truncated binary circuit container."""


class DeviceConfigError(QFlowError):
    """Invalid device configuration JSON."""


class TranspileError(QFlowError):
    """Transpilation cannot produce a device-compliant circuit."""


class UnsupportedBasisError(TranspileError):
    """Device basis gate set is outside the supported retarget families."""


class RoutingError(TranspileError):
    """Router failure. The router's release valve always makes progress on a
    connected device, so routing no longer raises this; it stays exported for
    callers that catch it."""


class SimulationError(QFlowError):
    """Simulator rejected the circuit or its configuration."""


class NonCliffordError(SimulationError):
    """Stabilizer backend received a gate outside the Clifford group."""
