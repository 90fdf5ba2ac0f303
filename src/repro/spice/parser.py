"""SPICE / CDL subcircuit parser.

Parses the subset of SPICE every standard-cell library netlist uses:

* ``.SUBCKT name port...`` / ``.ENDS`` blocks,
* MOSFET instance cards ``Mname drain gate source bulk model [params]``
  (``X``-prefixed instance cards wrapping a MOS primitive are accepted too),
* ``+`` line continuations, ``*`` comments, ``$``/``;`` trailing comments,
* engineering unit suffixes on parameters (``u``, ``n``, ``m``, ...).

The parser is deliberately forgiving about dialect: rail nets are detected
by conventional names, device polarity is resolved through
:func:`repro.spice.dialects.classify_model`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.spice import dialects
from repro.spice.netlist import CellNetlist, Transistor

_RAIL_POWER = ("vdd", "vcc", "vpwr", "vddd")
_RAIL_GROUND = ("vss", "gnd", "vgnd", "vssd", "0")

_UNIT = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_NUMBER_RE = re.compile(
    r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(meg|[tgkmunpf])?$", re.IGNORECASE
)


class SpiceSyntaxError(ValueError):
    """Raised when the input text is not parseable SPICE."""


def parse_value(text: str) -> float:
    """Parse a SPICE number with optional engineering suffix."""
    match = _NUMBER_RE.match(text.strip())
    if not match:
        raise SpiceSyntaxError(f"bad numeric value {text!r}")
    base = float(match.group(1))
    suffix = match.group(2)
    if suffix:
        base *= _UNIT[suffix.lower()]
    return base


def _numbered_lines(text: str) -> Tuple[List[int], List[str]]:
    """Strip comments and join ``+`` continuations.

    Returns the logical lines and, aligned with them, the 1-based source
    line each one starts on, so errors can point at the text as written.
    """
    numbers: List[int] = []
    lines: List[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("$", 1)[0].split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not lines:
                raise SpiceSyntaxError(
                    f"continuation line with nothing to continue at line {number}"
                )
            lines[-1] += " " + stripped[1:]
        else:
            numbers.append(number)
            lines.append(stripped)
    return numbers, lines


def _logical_lines(text: str) -> List[str]:
    """Logical lines without their source line numbers."""
    return _numbered_lines(text)[1]


def _split_params(tokens: Sequence[str]) -> Tuple[List[str], Dict[str, str]]:
    """Separate positional tokens from key=value parameters."""
    positional: List[str] = []
    params: Dict[str, str] = {}
    for tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
            params[key.lower()] = value
        else:
            positional.append(tok)
    return positional, params


def _is_power(net: str) -> bool:
    return net.lower() in _RAIL_POWER


def _is_ground(net: str) -> bool:
    return net.lower() in _RAIL_GROUND


def parse_library(
    text: str,
    technology: str = "",
    power: Optional[str] = None,
    ground: Optional[str] = None,
) -> List[CellNetlist]:
    """Parse every ``.SUBCKT`` in *text* into a :class:`CellNetlist`.

    Ports are classified as: rails (by name convention or the explicit
    *power*/*ground* arguments), outputs (nets driven by a transistor
    channel but not driving any gate outside... by convention, the ports
    connected to drain/source and never used purely as gates), and inputs
    (everything else).  Standard-cell netlists follow this convention
    reliably; anything ambiguous raises.
    """
    numbers, lines = _numbered_lines(text)
    cells: List[CellNetlist] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        upper = line.upper()
        if upper.startswith(".SUBCKT"):
            j = i + 1
            while j < len(lines) and not lines[j].upper().startswith(".ENDS"):
                j += 1
            if j >= len(lines):
                raise SpiceSyntaxError(f"unterminated .SUBCKT at line {numbers[i]}")
            cells.append(
                _parse_subckt(
                    line, numbers[i], lines[i + 1 : j], technology, power, ground
                )
            )
            i = j + 1
        else:
            i += 1
    return cells


def parse_cell(text: str, technology: str = "", **kw) -> CellNetlist:
    """Parse exactly one subcircuit."""
    cells = parse_library(text, technology=technology, **kw)
    if len(cells) != 1:
        raise SpiceSyntaxError(f"expected exactly one .SUBCKT, found {len(cells)}")
    return cells[0]


def _parse_subckt(
    header: str,
    number: int,
    body: Sequence[str],
    technology: str,
    power: Optional[str],
    ground: Optional[str],
) -> CellNetlist:
    tokens = header.split()
    if len(tokens) < 3:
        raise SpiceSyntaxError(f"malformed .SUBCKT header at line {number}: {header!r}")
    name = tokens[1]
    ports = tokens[2:]
    if len(set(ports)) != len(ports):
        repeated = sorted({port for port in ports if ports.count(port) > 1})
        raise SpiceSyntaxError(
            f"repeated port {', '.join(repeated)} in .SUBCKT {name} at line {number}"
        )

    transistors: List[Transistor] = []
    for line in body:
        device = _parse_device(line)
        if device is not None:
            transistors.append(device)

    pwr = power or next((p for p in ports if _is_power(p)), None)
    gnd = ground or next((p for p in ports if _is_ground(p)), None)
    if pwr is None or gnd is None:
        raise SpiceSyntaxError(
            f"cannot identify rails among ports {ports} of {name}; "
            "pass power=/ground= explicitly"
        )

    gate_nets = {t.gate for t in transistors}
    channel_nets = set()
    for t in transistors:
        channel_nets.update(t.channel_nets())

    inputs: List[str] = []
    outputs: List[str] = []
    for port in ports:
        if port in (pwr, gnd):
            continue
        if port in channel_nets:
            outputs.append(port)
        elif port in gate_nets:
            inputs.append(port)
        else:
            # Unconnected port: treat as input so the cell still loads.
            inputs.append(port)

    if not outputs:
        raise SpiceSyntaxError(f"cell {name} has no channel-driven port (no output)")

    return CellNetlist(
        name=name,
        inputs=inputs,
        outputs=outputs,
        transistors=transistors,
        power=pwr,
        ground=gnd,
        technology=technology,
    )


def _parse_device(line: str) -> Optional[Transistor]:
    tokens = line.split()
    card = tokens[0]
    kind = card[0].upper()
    if kind not in ("M", "X"):
        if kind in ("R", "C", "D"):
            # Parasitic / decoupling elements in DSPF-flavoured netlists are
            # accepted and ignored: the switch-level model does not use them.
            return None
        raise SpiceSyntaxError(f"unsupported element card: {line!r}")

    positional, params = _split_params(tokens[1:])
    if len(positional) < 5:
        raise SpiceSyntaxError(f"MOS card needs 4 nets + model: {line!r}")
    drain, gate, source, bulk, model = positional[:5]

    ttype = dialects.classify_model(model)
    w = parse_value(params["w"]) * 1e6 if "w" in params else 1.0
    l = parse_value(params["l"]) * 1e6 if "l" in params else 0.1

    return Transistor(
        name=card,
        ttype=ttype,
        drain=drain,
        gate=gate,
        source=source,
        bulk=bulk,
        w=w,
        l=l,
        model=model,
    )
