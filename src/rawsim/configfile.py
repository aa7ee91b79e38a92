"""Flat key = value config files.

One assignment per line, '#' starts a comment, blank lines ignored. Keys
are SimConfig field names; every key can also be overridden on the CLI
with --set key=value.
"""

from .errors import InvalidConfigError


def load_config(path):
    """The file's values by key, as text; SimConfig.from_mapping parses
    each one as its field's type."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(
                f"config line {lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InvalidConfigError(f"config line {lineno}: empty key")
        if key in values:
            raise InvalidConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values
