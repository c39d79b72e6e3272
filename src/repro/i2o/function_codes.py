"""I2O function codes.

Paper §3.3: messages are combined into sets that form *device classes*;
every concrete device must implement the **executive** and **utility**
sets to be configurable and controllable, plus its class-specific set.
Applications are private device classes whose messages all carry
``Function = 0xFF`` and are discriminated by the 16-bit
``XFunctionCode`` (paper figure 5).

The numeric values below follow the I2O v2.0 convention: utility codes
in the low range, executive codes at 0xA0+, and 0xFF reserved for
private extensions.  Only the subset the reproduction exercises is
defined; adding a code is a one-line change.
"""

from __future__ import annotations

# --- utility message class (every device implements these) ---------------
UTIL_NOP = 0x00
UTIL_ABORT = 0x01
UTIL_PARAMS_SET = 0x05
UTIL_PARAMS_GET = 0x06
UTIL_CLAIM = 0x09
UTIL_CLAIM_RELEASE = 0x0B
UTIL_EVENT_ACKNOWLEDGE = 0x13
UTIL_EVENT_REGISTER = 0x14

# --- executive message class (the executive is itself a device) ----------
EXEC_STATUS_GET = 0xA0
EXEC_LCT_NOTIFY = 0xA2  # logical configuration table changed
EXEC_DDM_DESTROY = 0xB1
EXEC_DDM_ENABLE = 0xB3
EXEC_DDM_QUIESCE = 0xB5
EXEC_DDM_RESET = 0xB6
EXEC_PATH_CLAIM = 0xB8  # route/proxy establishment
EXEC_SYS_ENABLE = 0xD1
EXEC_SYS_HALT = 0xC2
EXEC_SYS_QUIESCE = 0xC3
EXEC_SYS_MODIFY = 0xC1
EXEC_TIMER_SET = 0xC8  # timer facility (paper: watchdog built on I2O timers)
EXEC_TIMER_CANCEL = 0xC9
EXEC_TIMER_EXPIRED = 0xCA
EXEC_INTERRUPT = 0xCB  # interrupt delivery (paper §3.2: interrupts are messages)

# --- private / application extension --------------------------------------
PRIVATE = 0xFF

_NAMES: dict[int, str] = {
    value: name
    for name, value in sorted(globals().items())
    if name.isupper() and not name.startswith("_") and isinstance(value, int)
}


def function_name(function: int) -> str:
    """Human-readable name for logs and error messages."""
    return _NAMES.get(function, f"0x{function:02X}")
