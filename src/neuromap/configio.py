"""Block-structured plain-text config files, and the row parser of the
CSV data files (traces, mappings, end signals).

Format: `[section]` headers followed by `key = value` lines. Unlike
configparser, section names may repeat (workload files carry one
``[layer]`` block per layer). `#` and `;` start comments.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields


class ConfigFormatError(ValueError):
    """Raised when a config/workload file does not parse."""


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
            current[key] = value.strip()
        else:
            raise ConfigFormatError(f"{source}:{lineno}: expected '[section]' or 'key = value', got {raw!r}")
    return blocks


def parse_blocks_file(path) -> list[tuple[str, dict[str, str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blocks(fh.read(), source=str(path))


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


def check_keys(fields: dict[str, str], allowed, source: str = "") -> None:
    """ConfigFormatError naming the first key of fields that allowed lacks,
    so a misspelt key is not silently ignored."""
    for key in fields:
        if key not in allowed:
            raise ConfigFormatError(f"{source}: unknown key {key!r}, expected "
                                    f"one of {sorted(allowed)}")


def get_bool(fields: dict[str, str], key: str, default: bool | None = None, source: str = "") -> bool:
    raw = fields.get(key)
    if raw is None:
        if default is None:
            raise ConfigFormatError(f"{source}: missing required key {key!r}")
        return default
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigFormatError(f"{source}: {key} = {raw!r} is not a boolean")


def get_int(fields: dict[str, str], key: str, default: int | None = None, source: str = "") -> int:
    raw = fields.get(key)
    if raw is None:
        if default is None:
            raise ConfigFormatError(f"{source}: missing required key {key!r}")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigFormatError(f"{source}: {key} = {raw!r} is not an integer") from exc


def get_float(fields: dict[str, str], key: str, default: float | None = None, source: str = "") -> float:
    raw = fields.get(key)
    if raw is None:
        if default is None:
            raise ConfigFormatError(f"{source}: missing required key {key!r}")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigFormatError(f"{source}: {key} = {raw!r} is not a number") from exc


def get_numbers(fields: dict[str, str], defaults, source: str = "") -> dict:
    """The keys of fields that name a numeric field of the dataclass
    instance defaults, parsed after the default's type (int, else float;
    a None default reads as float). Absent keys are left out."""
    out = {}
    for f in dataclass_fields(defaults):
        default = getattr(defaults, f.name)
        if f.name in fields and isinstance(default, (int, float, type(None))):
            getter = get_int if isinstance(default, int) else get_float
            out[f.name] = getter(fields, f.name, source=source)
    return out


def parse_row(line: str, columns, where: str, error=ConfigFormatError) -> tuple:
    """The comma-separated fields of one CSV data row, each read by the
    type of its (name, type) entry in columns. A wrong field count or an
    unreadable field raises error('<where>: ...'); where is '<path>:<line>'."""
    raw = line.split(",")
    if len(raw) != len(columns):
        raise error(f"{where}: expected {len(columns)} fields, got {len(raw)}")
    out = []
    for (name, kind), text in zip(columns, raw):
        try:
            out.append(kind(text))
        except ValueError:
            raise error(f"{where}: {name} = {text!r} is not "
                        f"{'an integer' if kind is int else 'a number'}") from None
    return tuple(out)
