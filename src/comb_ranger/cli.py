"""Command-line front end.

Subcommands:

    air-index    refractive index and dispersion scalars for given conditions
    modes        spectral profiles (CSV) and coefficient table of the LO modes
    sensitivity  shot-noise / contamination report for the ranging scheme
    multicolor   two-/three-color baseline comparison as CSV
    simulate     Monte Carlo run, immunity verdict, optional sample CSV

Every subcommand is deterministic in (config, seed): outputs carry no
timestamps and no machine state.  Exit codes: 0 success, 2 validation
error, 3 numerical/domain error.  The simulate seed comes from the
config's `seed` key; an explicit --seed flag wins over it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import math
import os
import re
import sys

import numpy as np

from . import air_model, detection, mode_algebra, multicolor, records, simulator
from .config import SCHEMA, RunConfig, SimConfig, load_config
from .errors import DomainError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3

# rows formatted per write by the CSV exports
EXPORT_BLOCK_ROWS = 8192


# exponents handled without `%` are within +-_EXP_BIAS; beyond +-_EXP_FAST a
# decimal exponent takes the `%` path, so that 10**(p - e) and e, moved by
# one at most, stay in _tables()
_EXP_BIAS = 300
_EXP_FAST = 280
# a mantissa m within m * _TIE_WINDOW of a half-integer takes the `%` path;
# the proof is in _export_csv's docstring
_TIE_WINDOW = 2.0**-52 * (1 + 2.0**-49)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The engine's read-only tables, built by the first export rather than
    at import: digits[k], the four ASCII digits of k in 0..9999, zero-padded,
    as a little-endian word (the first digit in the low byte), and high[k],
    the same in the high half; then, at k + _EXP_BIAS for |k| <= _EXP_BIAS,
    pow10, 10**k from the decimal literal (float() rounds it correctly,
    10.0**k need not), and exp, "e", the sign and the two or three digits
    of k."""
    pairs = (np.arange(100) // 10 + ord("0")) | ((np.arange(100) % 10 + ord("0")) << 8)
    digits = (pairs[:, None] | (pairs << 16)).ravel()
    k = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
    pow10 = np.array([float(f"1e{j}") for j in k.tolist()])
    exp = ord("e") + (np.where(k < 0, ord("-"), ord("+")) << 8)
    exp += (digits[abs(k)] >> np.where(abs(k) < 100, 16, 8)) << 16
    tables = digits, digits << 32, pow10, exp
    for table in tables:
        table.flags.writeable = False
    return tables


def _padded(texts: list[str], width: int) -> np.ndarray:
    """The ASCII texts as rows of a (len(texts), width) uint8 array, NUL-padded at the end."""
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode("ascii"), np.uint8).reshape(-1, width)


def _float_fields(x: np.ndarray, p: int, seps: list[str]):
    """`'%.{p}e' % x[j, i]` for 8 <= p <= 12 and a C-contiguous (k, n) array,
    as (buf, length, sign): from byte 14 - p, the 24 bytes of buf[j, i] hold
    the text after its sign, seps[j] and a '-'; length counts the text and
    the separator, per field or as one int for all; sign[j, i] says whether
    a '-' comes before the text."""
    # zeros are scaled as 1.0, and their leading 1 becomes 0; values that are
    # not finite or whose exponent is beyond _EXP_FAST give garbage, which
    # the `%` path replaces; arrays are updated in place and dropped early,
    # which keeps a block's memory, and its page faults, small
    digits, high, pow10, exp = _tables()
    a = np.abs(x)
    zero = a == 0
    a += zero
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        slow = ~(np.abs(e) <= _EXP_FAST)
        e = e.astype(np.intp)
        m = np.take(pow10, (p + _EXP_BIAS) - e, mode="clip")
        m *= a
        # log10 can miss by one next to a power of ten
        for step, wrong in ((-1, m < 10.0**p), (1, m >= 10.0 ** (p + 1))):
            if wrong.any():
                e[wrong] += step
                m[wrong] = a[wrong] * np.take(pow10, (p + _EXP_BIAS) - e[wrong], mode="clip")
        del a
        r = np.rint(m)
        # m's distance 0.5 - |m - rint(m)| from the nearest half-integer
        gap = m - r
        np.abs(gap, out=gap)
        np.subtract(0.5, gap, out=gap)
        m *= _TIE_WINDOW
        slow |= gap < m
        del m, gap
        carry = r == 10.0 ** (p + 1)
        if carry.any():
            r[carry] = 10.0**p
            e[carry] += 1
        r = r.astype(np.intp)

    # three words per field: from byte 14 - p to 7, the leading digit, '.'
    # and the next p - 8 digits; then the last 8 digits; then "e", the
    # exponent, the separator and '-'
    words = np.empty(x.shape + (3,), np.intp)
    lead = r // 10**p
    r -= lead * 10**p
    lead -= zero
    head = r // 10**8
    r -= head * 10**8
    head = np.take(high, head, mode="clip")
    if p < 12:
        # the zero padding before the p - 8 digits gives way to lead and '.'
        head &= np.int64(-1) << np.int64(8 * (16 - p))
    lead += ord("0") + (ord(".") << 8)
    lead <<= 8 * (14 - p)
    np.bitwise_or(head, lead, out=words[..., 0])
    del head, lead
    low = r // 10**4
    r -= low * 10**4
    np.bitwise_or(np.take(digits, low, mode="clip"), np.take(high, r, mode="clip"), out=words[..., 1])
    del low, r
    e += _EXP_BIAS
    suffix = np.array([ord(sep) + (ord("-") << 8) for sep in seps])[:, None]
    length, shift = p + 7, 32
    if e.min() <= _EXP_BIAS - 100 or e.max() >= _EXP_BIAS + 100:
        wide = np.abs(e - _EXP_BIAS) >= 100
        length, shift = length + wide, shift + 8 * wide
    np.bitwise_or(np.take(exp, e, mode="clip"), suffix << shift, out=words[..., 2])
    del e
    buf = words.view(np.uint8)
    sign = np.signbit(x)

    idx = np.flatnonzero(slow)
    if len(idx):
        fmt = f"%.{p}e"
        texts = [fmt % v for v in x.reshape(-1)[idx].tolist()]
        bodies = [t.removeprefix("-") + seps[j] for t, j in zip(texts, (idx // x.shape[1]).tolist())]
        buf.reshape(-1, 24)[idx] = _padded(["\0" * (14 - p) + b + "-" for b in bodies], 24)
        sign.reshape(-1)[idx] = [t[0] == "-" for t in texts]
        if not isinstance(length, int) or any(len(b) != length for b in bodies):
            length = np.full(x.shape, length) if isinstance(length, int) else length
            length.reshape(-1)[idx] = [len(b) for b in bodies]
    return buf, length, sign


def _int_field(v: np.ndarray, sep: str):
    """`'%d' % v[i]` for integers 0 <= v[i] < 10**12 as (buf, length): buf[i],
    two words, ends in the text, `sep`, a '-' and two spare bytes; length
    counts the text and `sep`, per row or as one int for all."""
    digits, high, _, _ = _tables()
    words = np.empty((len(v), 2), np.intp)
    fewest, most = len(str(v.min())), len(str(v.max()))
    length = fewest + 1
    for k in range(fewest, most):
        length = length + (v >= 10**k)
    # digits 9-12 and 5-8, then digits 1-4 from the units, the separator and '-'
    q = v // 10**4
    top = q // 10**4
    np.bitwise_or(np.take(digits, top), np.take(high, q - top * 10**4), out=words[:, 0])
    np.bitwise_or(np.take(digits, v - q * 10**4), (ord(sep) << 32) + (ord("-") << 40), out=words[:, 1])
    return words.view(np.uint8), length


def _scatter(out: np.ndarray, dest: np.ndarray, buf: np.ndarray, length: int | np.ndarray, dash: bool,
             start: int | None) -> None:
    """Copy the length[i] bytes of text and separator in buf[i], and the '-'
    after them if `dash`, to out[dest[i]:], as one numpy void item per row,
    in one copy per length.  The text starts at byte `start` of buf[i], or,
    if `start` is None, only the '-' and two spare bytes follow the
    separator."""
    fewest, most = (length, length) if isinstance(length, int) else (int(length.min()), int(length.max()))
    for n in range(fewest, most + 1):
        rows = slice(None) if fewest == most else np.flatnonzero(length == n)
        width = n + dash
        offset = buf.shape[1] - 3 - n if start is None else start
        src = np.ndarray(len(buf), f"V{width}", buf, offset, buf.strides[:1])
        dst = np.ndarray(out.size - width + 1, f"V{width}", out, 0, (1,))
        dst[dest[rows]] = src[rows]


def _format_block(precisions: list[int | None], columns: list[np.ndarray]) -> bytes:
    """The CSV lines of the equal-length 1-D `columns`: `%d` for a column of
    precision None, else `%.{p}e`, joined by ',' and ended by '\\n'."""
    last = len(precisions) - 1
    seps = [","] * last + ["\n"]
    fields = [None] * len(precisions)
    row_len = np.zeros(len(columns[0]), np.intp)
    # float columns of one precision are formatted together
    for p in set(precisions) - {None}:
        cols = [c for c, q in enumerate(precisions) if q == p]
        bufs, lengths, signs = _float_fields(np.array([columns[c] for c in cols]), p, [seps[c] for c in cols])
        row_len += (signs + lengths).sum(axis=0)
        for j, c in enumerate(cols):
            fields[c] = (bufs[j], lengths if isinstance(lengths, int) else lengths[j], signs[j], 14 - p)
    for c, p in enumerate(precisions):
        if p is None:
            buf, length = _int_field(columns[c], seps[c])
            row_len += length
            fields[c] = (buf, length, None, None)
    ends = np.cumsum(row_len)
    pos = ends - row_len
    out = np.empty(int(ends[-1]), np.uint8)
    # a field is copied with the '-' after its separator, and the next
    # field's text overwrites that byte unless the next value is negative;
    # the first field's '-' is written on its own
    first_sign = fields[0][2]
    if first_sign is not None:
        out[pos[first_sign]] = ord("-")
    for c, (buf, length, sign, start) in enumerate(fields):
        if sign is not None:
            pos += sign
        _scatter(out, pos, buf, length, c < last, start)
        pos += length
    return out.tobytes()


def _create_beside(head: str, name: str) -> tuple[int, str]:
    """Create `.{name}.{pid}.tmp` in the directory `head`, open for writing,
    or `.{name}.{pid}.{k}.tmp` for the first k = 1, 2, ... whose name is free;
    returns the descriptor and the path.  A file that a killed run left under
    a pid this process reuses is passed over and left as it is."""
    for k in itertools.count():
        tmp = os.path.join(head, f".{name}.{os.getpid()}{f'.{k}' if k else ''}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            pass


@contextlib.contextmanager
def _export_csv(path: str, header: list[str], precisions: list[int | None]):
    """Write `header`, then yield `write(*arrays)`, which appends one CSV line
    per row of its columns: a 1-D array is one column, and a 2-D array is
    split into its columns.

    Column c is written as `'%d' % v` where precisions[c] is None and as
    `'%.{p}e' % v` for precisions[c] = p, byte for byte, but by whole numpy
    columns.  An integer column holds integers 0 <= v < 10**12, such as a
    run's sample index, which is below MAX_SAMPLES = 10**9.  A float's
    decimal exponent e comes from log10, its (p + 1)-digit mantissa from
    rint(m), m = |x| * 10**(p - e), and the digits from a four-digit
    table, as little-endian words.  m takes two steps that round
    to nearest on normal doubles (the power of ten and the product), so
    m = m*(1 + d1)(1 + d2) for the exact m*, with |di| <= u = 2**-53, and
    |m - m*| <= m*(2u + u**2) <= m(2u + u**2) / (1 - u)**2
    < m * 2**-52 * (1 + 2**-50).  The window m * _TIE_WINDOW, with
    _TIE_WINDOW = 2**-52 * (1 + 2**-49) and rounded once, is above that
    bound.  m's distance 0.5 - |m - rint(m)| from the nearest half-integer
    is exact wherever it is below 0.25, so where it is at least the window,
    m* lies on the same side of every half-integer as m, never on one, and
    rint(m) is m* correctly rounded.  Mantissas within the window, values
    that are not finite and decimal exponents beyond +-_EXP_FAST are
    formatted with `%`.

    Every field is built in a row of bytes of its own: its text without the
    sign, its separator and a '-'.  Each column's fields are then copied to
    their offsets in the block's text, one column after the other, as numpy
    void items: a field is copied with the '-' after its separator, and the
    next field's text overwrites that byte unless the next value is
    negative.

    Rows are formatted EXPORT_BLOCK_ROWS at a time, from each column's
    slice as it is, and written into a temporary file beside `path`,
    named from the process id (and a counter, should a file left by a
    killed run hold the name) and created
    exclusively before anything is yielded; it replaces `path` when the
    block exits normally.  A path that cannot be opened or written, or that
    names a directory or no file at all (which the final rename would refuse
    only after the whole export), is a ValidationError, and any exception
    leaves neither a partial CSV nor the temporary file; callers print after
    the block, so a failed export also leaves stdout empty.
    """
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    head, name = os.path.split(path)
    if not name:
        raise ValidationError(f"cannot write {path!r}: it names no file")
    try:
        fd, tmp = _create_beside(head, name)
        try:
            with open(fd, "wb") as fh:
                fh.write((",".join(header) + "\n").encode("utf-8"))
                def write(*arrays: np.ndarray) -> None:
                    columns = [c for a in arrays for c in (a.T if a.ndim == 2 else [a])]
                    for start in range(0, len(columns[0]), EXPORT_BLOCK_ROWS):
                        fh.write(_format_block(precisions, [c[start : start + EXPORT_BLOCK_ROWS] for c in columns]))
                yield write
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _config(args: argparse.Namespace) -> RunConfig:
    """The command's --config file, if it takes one, under its flags whose dest is a SCHEMA key."""
    return load_config(getattr(args, "config", None),
                       {key: v for key, v in vars(args).items() if key in SCHEMA and v is not None})


def cmd_air_index(args: argparse.Namespace, out) -> int:
    config = _config(args)
    sigma = air_model.sigma_from_wavelength(config.values["pulse.wavelength_nm"] * 1e-9)
    scalars = air_model.dispersion_scalars(air_model.omega_from_sigma(sigma))
    rows = [
        ("wavelength_nm", config.values["pulse.wavelength_nm"]),
        ("sigma_per_um", sigma),
        ("n_phi", air_model.phase_index(sigma, config.sim.state)),
        ("n_g", air_model.group_index(sigma, config.sim.state)),
        ("k_dispersion", air_model.k_dispersion(sigma)),
        ("water_term_per_pa", air_model.water_term(sigma)),
        ("density_factor", air_model.density_factor(config.sim.state)),
        ("delta1", scalars.delta1),
        ("delta2", scalars.delta2),
        ("eta1", scalars.eta1),
        ("eta2", scalars.eta2),
    ]
    out.write(records.lines([(key, value, ".12e") for key, value in rows]))
    return EXIT_OK


def _mode_table(config: SimConfig):
    """(label, mode, k_const) rows, each mode signed for plotting: a mode whose
    largest-magnitude coefficient is negative is flipped."""
    pulse = config.pulse
    modes = detection.ranging_modes(pulse, config.state, config.length_m)
    # u = -i v0 has v0's real profile
    rows = {label: (mode_algebra.hermite_gauss(n, pulse), None)
            for label, n in (("u", 0), ("v0", 0), ("v1", 1), ("v2", 2))}
    rows.update({f"w_{m.label}": (m.mode, m.k_const) for m in modes})
    # the raw LO is w_L itself, so its row keeps w_L's place
    for lo in detection.LO_TABLE.values():
        if lo.mode_row is not None:
            m = detection.lo_mode(lo, modes)
            rows[lo.mode_row] = (m.mode, m.k_const)
    for label, (mode, k_const) in rows.items():
        # max keeps the first of the largest-magnitude coefficients
        if max(mode.coefficients, key=abs) < 0.0:
            rows[label] = (mode_algebra.SpectralMode(pulse, tuple([-c for c in mode.coefficients])), k_const)
    return [(label, *row) for label, row in rows.items()]


def cmd_modes(args: argparse.Namespace, out) -> int:
    config = _config(args).sim
    rows = _mode_table(config)

    pulse = config.pulse
    x = np.linspace(-mode_algebra.GRID_HALF_WIDTH, mode_algebra.GRID_HALF_WIDTH, 2049)
    omega = pulse.omega0 + x * pulse.delta_omega
    scale = math.sqrt(pulse.delta_omega)
    # the profiles of the Hermite-Gauss basis, the rows with no k_const, and of the LOs
    lo_rows = {lo.mode_row for lo in detection.LO_TABLE.values()}
    profile_rows = [r for r in rows if r[2] is None or r[0] in lo_rows]
    profiles = [mode_algebra.real_profile(m, omega) * scale for _, m, _ in profile_rows]
    header = ["x"] + [label for label, _, _ in profile_rows]
    with _export_csv(args.out, header, [9] + [12] * len(profiles)) as write:
        write(x, *profiles)

    out.write(records.csv([
        [("mode", label, "")]
        # + 0.0 turns the -0.0 of a flipped zero into 0.0
        + [(f"c{n}", float(c) + 0.0, ".12e") for n, c in enumerate(mode.padded(2))]
        + [("k_const", k_const, ".12e")]
        for label, mode, k_const in rows
    ]))
    print(f"# profiles written to {args.out}", file=out)
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace, out) -> int:
    config = _config(args).sim
    report = detection.contamination_report(
        config.pulse, config.state, config.length_m, config.n_photons
    )
    out.write(report.to_text())
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {text!r} is not a comma-separated number list") from exc


def cmd_multicolor(args: argparse.Namespace, out) -> int:
    default = "1064,532" if args.scheme == "2wi" else "1064,532,355"
    lambdas_nm = _parse_float_list(default if args.wavelengths is None else args.wavelengths, "--wavelengths")
    photons = _parse_float_list(args.photon_list, "--photons")
    expected = 2 if args.scheme == "2wi" else 3
    if len(lambdas_nm) != expected:
        raise ValidationError(
            f"scheme {args.scheme} needs {expected} wavelengths, got {len(lambdas_nm)}"
        )
    if len(photons) == 1:
        photons = photons * expected
    if len(photons) != expected:
        raise ValidationError(f"--photons needs 1 or {expected} entries")
    config = _config(args)

    wavelengths_m = [lam * 1e-9 for lam in lambdas_nm]
    if args.scheme == "2wi":
        comb = multicolor.two_color_combination(*wavelengths_m)
        coeff_cols = {"alpha": -comb.weights[1], "beta": None, "gamma": None}
    else:
        comb = multicolor.synth_3wi(*wavelengths_m)
        coeff_cols = {"alpha": None, "beta": comb.weights[1], "gamma": comb.weights[2]}
    noise = multicolor.shot_noise(comb, photons)
    bias = multicolor.humidity_bias(comb, config.sim.state, config.sim.length_m)

    out.write(records.csv([
        [("scheme", args.scheme, "")]
        + [(f"lambda{i}_nm", lam, ".6f") for i, lam in enumerate(lambdas_nm, 1)]
        + [(f"photons{i}", n, ".6e") for i, n in enumerate(photons, 1)]
        + [(key, v, ".9e") for key, v in coeff_cols.items()]
        + [("shot_noise_m", noise, ".9e"), ("humidity_bias_m", bias, ".9e")]
    ]))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, out) -> int:
    sim_config = _config(args).sim
    export = contextlib.nullcontext()
    if args.out is not None:
        export = _export_csv(args.out, ["index", "p_L_m", "p_X", "p_Pw_pa", "signal_m"], [None] + [12] * 4)
    # each block of samples goes to the CSV as soon as the run has folded it
    with export as write:
        result = simulator.run(sim_config, on_rows=write)
    out.write(result.to_text())
    if args.out is not None:
        print(f"# samples written to {args.out}", file=out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse reads only -123 and -1.5 as negative numbers, not -1e1 or -inf;
    # subparsers take their parent's class, and no option string looks like a number
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="comb-ranger",
        description="Dispersion-immune frequency-comb ranging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_air = sub.add_parser("air-index", help="Refractive index of air for given conditions.")
    # a flag's dest is its SCHEMA key; it has a default only where the command's differs from SCHEMA's
    for flag, key, default, help_text in (
        ("--wavelength", "pulse.wavelength_nm", 633.0, "vacuum wavelength [nm]"),
        ("--temperature", "air.temperature_c", None, "temperature [C]"),
        ("--pressure", "air.pressure_pa", None, "total pressure [Pa]"),
        ("--co2", "air.co2_percent", None, "CO2 content [percent]"),
        ("--humidity-pa", "air.water_vapor_pa", None, "water vapor partial pressure [Pa]"),
    ):
        p_air.add_argument(flag, dest=key, type=float, default=default, help=help_text)
    p_air.set_defaults(func=cmd_air_index)

    p_modes = sub.add_parser("modes", help="LO mode profiles (CSV) and coefficient table.")
    p_modes.add_argument("--config", default=None, help="configuration file path")
    p_modes.add_argument("--out", default="mode_profiles.csv", help="profiles CSV path")
    p_modes.set_defaults(func=cmd_modes)

    p_sens = sub.add_parser("sensitivity", help="Shot-noise and contamination report.")
    p_sens.add_argument("--config", default=None, help="configuration file path")
    p_sens.set_defaults(func=cmd_sensitivity)

    p_multi = sub.add_parser("multicolor", help="Multicolor baseline comparison CSV.")
    p_multi.add_argument("--scheme", choices=("2wi", "3wi"), required=True)
    p_multi.add_argument(
        "--wavelengths", default=None,
        help="comma-separated wavelengths [nm]; default 1064,532 for 2wi, 1064,532,355 for 3wi",
    )
    # a list, not the photons key
    p_multi.add_argument("--photons", dest="photon_list", default="4e16",
                         help="photon number(s), single value or per wavelength")
    p_multi.add_argument("--humidity-pa", dest="air.water_vapor_pa", type=float, default=1000.0,
                         help="P_w for the bias column [Pa]")
    p_multi.add_argument("--length", dest="length_m", type=float, help="path length [m]")
    p_multi.set_defaults(func=cmd_multicolor)

    p_sim = sub.add_parser("simulate", help="Monte Carlo homodyne simulation.")
    p_sim.add_argument("--config", default=None, help="configuration file path")
    p_sim.add_argument("--seed", type=int, default=None, help="RNG seed (wins over the config file)")
    p_sim.add_argument("--samples", type=int, default=None, help="sample count override")
    p_sim.add_argument("--out", default=None, help="write raw samples to this CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> int:
    """Process entry of the `comb-ranger` script and of `python -m comb_ranger.cli`.

    Moves every object alive after the imports into the collector's
    permanent generation, so that no collection, and not the interpreter's
    at exit, walks numpy's and the package's objects again; a one-shot
    process makes no garbage among them.  What a command creates is still
    collected, and exit still flushes, runs atexit and closes files.
    `main` is the in-process call and freezes nothing.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
