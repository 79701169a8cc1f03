"""The one writer of every subcommand's stdout.

A record is `(key, value, spec)`: its value is written as `format(value,
spec)`, None as an empty field, and a tuple as `spec.format(*value)`.
`lines` writes `key = value` lines, and a plain `str` record as a comment
line; `csv` writes a header of the first row's keys, then one line per row
of records.  No field needs CSV quoting: keys, labels and numbers hold no comma.
"""


def _text(value, spec: str) -> str:
    if isinstance(value, tuple):
        return spec.format(*value)
    return "" if value is None else format(value, spec)


def lines(records: list) -> str:
    return "".join(r + "\n" if isinstance(r, str) else f"{r[0]} = {_text(r[1], r[2])}\n" for r in records)


def csv(rows: list[list[tuple]]) -> str:
    header = ",".join(key for key, _, _ in rows[0])
    return "".join(line + "\n" for line in [header] + [",".join(_text(v, s) for _, v, s in row) for row in rows])
