"""Block-structured plain-text config files, the row reader and writer of
the CSV data files (traces, mappings, end signals), and the one rule both
readers use to read a typed value.

Format: `[section]` headers followed by `key = value` lines. Unlike
configparser, section names may repeat (workload files carry one
``[layer]`` block per layer), but keys within a block may not. `#` and
`;` start comments.
"""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields
from numbers import Real

# samples in a uniform grid built from input (snapshot instants, trace
# frames, a resampled end signal, a population): each sample holds at
# least one row, so the count bounds memory before anything is allocated
MAX_SNAPSHOT_SAMPLES = 10**6

_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_NOUNS = {int: "an integer", float: "a number", bool: "a boolean"}


class ConfigFormatError(ValueError):
    """Raised when a config/workload file does not parse."""


def convert(text: str, kind, where: str, name: str, error=ConfigFormatError):
    """text read as kind (int, float, bool or str); error('<where>: <name>
    = <text> is not an integer' / 'a number' / 'a boolean') otherwise."""
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise error(f"{where}: {name} = {text!r} is not {_NOUNS[kind]}") from None


def parse_blocks(text: str, source: str = "<string>") -> list[tuple[str, dict[str, str]]]:
    """Parse block-structured text into an ordered list of (section, fields)."""
    blocks: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name:
                raise ConfigFormatError(f"{source}:{lineno}: empty section name")
            current = {}
            blocks.append((name, current))
        elif "=" in line:
            if current is None:
                raise ConfigFormatError(f"{source}:{lineno}: key outside any [section]")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if not key:
                raise ConfigFormatError(f"{source}:{lineno}: empty key")
            if key in current:
                raise ConfigFormatError(f"{source}:{lineno}: duplicate key {key!r}")
            current[key] = value.strip()
        else:
            raise ConfigFormatError(f"{source}:{lineno}: expected '[section]' or 'key = value', got {raw!r}")
    return blocks


def parse_blocks_file(path) -> list[tuple[str, dict[str, str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks(fh.read(), source=str(path))


def read_section(path, name: str, allowed, error) -> dict[str, str]:
    """Fields of the first [name] section of the block file at path, every
    key among allowed; error('<path>: missing [name] section') if none."""
    found = next((f for section, f in parse_blocks_file(path) if section == name), None)
    if found is None:
        raise error(f"{path}: missing [{name}] section")
    check_keys(found, allowed, str(path))
    return found


def format_blocks(blocks: list[tuple[str, dict[str, object]]]) -> str:
    """Render (section, fields) pairs back to block text."""
    out: list[str] = []
    for name, fields in blocks:
        out.append(f"[{name}]")
        for key, value in fields.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


def entry_key(name: str, key: str) -> str:
    """The block key holding key of the dict field name: weight_<key> for weights."""
    return f"{name.removesuffix('s')}_{key}"


def dataclass_block(obj) -> dict[str, object]:
    """Section body echoing a dataclass instance, in field order: None
    fields skipped, and a dict field such as weights written as one
    entry_key entry per key, in key order. A float's str is its repr."""
    body: dict[str, object] = {}
    for f in dataclass_fields(obj):
        value = getattr(obj, f.name)
        entries = ([(entry_key(f.name, k), value[k]) for k in sorted(value)]
                   if isinstance(value, dict) else [(f.name, value)])
        body.update((key, v) for key, v in entries if v is not None)
    return body


def check_keys(fields: dict[str, str], allowed, source: str = "") -> None:
    """ConfigFormatError naming the first key of fields that allowed lacks,
    so a misspelt key is not silently ignored."""
    for key in fields:
        if key not in allowed:
            raise ConfigFormatError(f"{source}: unknown key {key!r}, expected "
                                    f"one of {sorted(allowed)}")


def check_numbers(obj, error) -> None:
    """error naming the first numeric field of the dataclass instance obj
    that is not finite and >= 0, or, for a field with an integer default,
    not below 2**63 (integer fields feed int64 arithmetic)."""
    for f in dataclass_fields(obj):
        v = getattr(obj, f.name)
        # NaN fails both comparisons
        if isinstance(v, Real) and not 0 <= v < math.inf:
            raise error(f"{f.name} must be finite and >= 0, got {v!r}")
        if isinstance(f.default, int) and v >= 2**63:
            raise error(f"{f.name} must be < 2**63, got {v!r}")


def get_value(fields: dict[str, str], key: str, kind, default=None, source: str = ""):
    """fields[key] read as kind; an absent key gives default, or raises
    ConfigFormatError when default is None (the key is required)."""
    raw = fields.get(key)
    if raw is None:
        if default is None:
            raise ConfigFormatError(f"{source}: missing required key {key!r}")
        return default
    return convert(raw, kind, source, key)


def get_numbers(fields: dict[str, str], defaults, source: str = "") -> dict:
    """The keys of fields that name a numeric field of the dataclass
    instance defaults, parsed after the default's type (int, else float;
    a None default reads as float). Absent keys are left out."""
    out = {}
    for f in dataclass_fields(defaults):
        default = getattr(defaults, f.name)
        if f.name in fields and isinstance(default, (int, float, type(None))):
            kind = int if isinstance(default, int) else float
            out[f.name] = convert(fields[f.name], kind, source, f.name)
    return out


def parse_row(line: str, columns, where: str, error=ConfigFormatError) -> tuple:
    """The comma-separated fields of one CSV data row, each read by the
    type of its (name, type) entry in columns. A wrong field count or an
    unreadable field raises error('<where>: ...'); where is '<path>:<line>'."""
    raw = line.split(",")
    if len(raw) != len(columns):
        raise error(f"{where}: expected {len(columns)} fields, got {len(raw)}")
    return tuple(convert(text, kind, where, name, error)
                 for (name, kind), text in zip(columns, raw))


def write_rows(path, columns, rows, preamble: str = "") -> None:
    """Write preamble, then the CSV that read_rows reads back by columns, fields by str."""
    line = ",".join(["{}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(preamble + ",".join(name for name, _ in columns) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def read_rows(path, columns, error, what: str = "header") -> list[tuple]:
    """parse_rows over the lines of the CSV file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rows(fh, path, columns, error, what)


def parse_rows(lines, path, columns, error, what: str = "header",
               start: int = 1) -> list[tuple]:
    """The data rows of CSV lines numbered from start, the first of which
    must be the header naming columns, each read by parse_row; blank lines
    are skipped. A different first line raises error('<path>: unexpected
    <what> <line>')."""
    lines = iter(lines)
    header = next(lines, "").strip()
    if header != ",".join(name for name, _ in columns):
        raise error(f"{path}: unexpected {what} {header!r}")
    return [parse_row(line.strip(), columns, f"{path}:{lineno}", error)
            for lineno, line in enumerate(lines, start=start + 1) if line.strip()]
