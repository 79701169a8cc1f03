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
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import air_model, detection, mode_algebra, multicolor, simulator
from .air_model import AirState
from .config import SCHEMA, RunConfig, load_config
from .errors import DomainError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3

# rows formatted per write by the CSV exports
EXPORT_BLOCK_ROWS = 8192


def _byte_columns(texts: list[str]) -> np.ndarray:
    """A uint8 array whose column i holds the ASCII bytes of texts[i]; the
    texts share one length."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(len(texts), -1).T.copy()


# column k: the two digits of k in 0..99
_PAIRS = _byte_columns([f"{k:02d}" for k in range(100)])
# column 10 * s + d: the sign ('-' if s else NUL), the digit d and '.'
_LEAD = _byte_columns([f"{sign}{d}." for sign in "\0-" for d in range(10)])
# exponents handled without `%`, and 10**k for k in [-_EXP_BIAS, _EXP_BIAS]
# at index k + _EXP_BIAS; float() of a decimal literal is correctly rounded,
# which 10.0**k need not be
_EXP_BIAS = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_EXP_BIAS, _EXP_BIAS + 1)])
# column k + _EXP_BIAS: "e", the sign and two or three digits of k,
# NUL-padded in front to 5 bytes
_EXP_SUFFIX = _byte_columns([f"e{k:+03d}".rjust(5, "\0") for k in range(-_EXP_BIAS, _EXP_BIAS + 1)])
# magnitudes outside this range take the `%` path: 10**(p - e) for a
# 13-digit mantissa would leave _POW10
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# The mantissa m = |x| * 10**(p - e) comes from two correctly rounded steps
# (the _POW10 entry and the product), so its relative error is at most
# (1 + 2**-53)**2 - 1 < 2**-52 + 2**-105 and, as m < 10**(p + 1) <= 10**13,
# its absolute error below 10**13 * 2**-52 = 2.2e-3.  A computed m more
# than 1e-2 from a half-integer is therefore on the same side of the tie as
# the exact product, and rint(m) is the correctly rounded mantissa; values
# inside the window take the `%` path.
_TIE_WINDOW = 1e-2
# integer-column values formatted without `%`: 0 <= v < 2**32
_INT_FAST_MAX = float(2**32)


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _put_digits(buf: np.ndarray, row: int, count: int, v: np.ndarray) -> None:
    """Write the `count` low decimal digits of the uint32 `v`, zero-padded,
    as ASCII into buf[row : row + count], most significant first."""
    for end in range(row + count, row, -2):
        q = v // 100
        pair = (v - q * 100).astype(np.intp)
        if end - 2 >= row:
            np.take(_PAIRS, pair, axis=1, out=buf[end - 2 : end], mode="clip")
        else:
            np.take(_PAIRS[1], pair, out=buf[end - 1], mode="clip")
        v = q


def _put_fallback(buf: np.ndarray, rows: slice, idx: np.ndarray, texts: list[str]) -> None:
    """Write texts[i] right-aligned and NUL-padded into buf[rows, idx[i]]."""
    width = rows.stop - rows.start
    buf[rows, idx] = _byte_columns([t.rjust(width, "\0") for t in texts])


def _put_float_field(buf: np.ndarray, off: int, x: np.ndarray, p: int) -> None:
    """Write `'%.{p}e' % x[i]` into buf[off : off + p + 8, i], for 8 <= p <= 12.

    Field layout: sign (NUL if none), leading digit, '.', p digits, then
    "e", the exponent sign and two or three digits, NUL-padded in front.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * np.take(_POW10, (p + _EXP_BIAS) - e)
    # log10 can miss by one next to a power of ten
    for step, wrong in ((-1, m < 10.0**p), (1, m >= 10.0 ** (p + 1))):
        if wrong.any():
            e[wrong] += step
            m[wrong] = a[wrong] * np.take(_POW10, (p + _EXP_BIAS) - e[wrong])
    r = np.rint(m)
    # |m - rint(m)| = 0.5 - (distance of m from the nearest half-integer)
    slow = ~(fast | zero) | (np.abs(m - r) > 0.5 - _TIE_WINDOW)
    carry = r == 10.0 ** (p + 1)
    r[carry] = 10.0**p
    e[carry] += 1
    r[zero] = 0.0
    e[zero] = 0

    # r < 10**13 is an exact float, and so are floor(r / 10**k) and the
    # remainders: a quotient that is not an integer lies >= 10**-k from one
    lead = np.floor(r / 10.0**p)
    np.take(_LEAD, np.signbit(x) * 10 + lead.astype(np.intp), axis=1, out=buf[off : off + 3], mode="clip")
    r -= lead * 10.0**p
    hi = np.floor(r / 1e8)
    _put_digits(buf, off + 3, p - 8, hi.astype(np.uint32))
    _put_digits(buf, off + p - 5, 8, (r - hi * 1e8).astype(np.uint32))
    np.take(_EXP_SUFFIX, e + _EXP_BIAS, axis=1, out=buf[off + p + 3 : off + p + 8], mode="clip")

    idx = np.flatnonzero(slow)
    if len(idx):
        fmt = f"%.{p}e"
        _put_fallback(buf, slice(off, off + p + 8), idx, [fmt % v for v in x[idx].tolist()])


def _put_int_field(buf: np.ndarray, off: int, width: int, v: np.ndarray) -> None:
    """Write `'%d' % v[i]` right-aligned into buf[off : off + width, i]."""
    fast = (v >= 0) & (v < _INT_FAST_MAX)
    vi = np.where(fast, v, 0).astype(np.uint32)
    digits = len(str(int(vi.max())))
    first = off + width - digits
    _put_digits(buf, first, digits, vi)
    # blank the leading zeros (the units digit always stays)
    for j in range(digits - 1):
        buf[first + j, vi < 10 ** (digits - 1 - j)] = 0
    idx = np.flatnonzero(~fast)
    if len(idx):
        _put_fallback(buf, slice(off, off + width), idx, ["%d" % t for t in v[idx].tolist()])


def _int_width(v: np.ndarray) -> int:
    """Length of the longest `'%d' % v[i]`."""
    return max(len("%d" % v.min()), len("%d" % v.max()))


def _format_block(precisions: list[int | None], block: np.ndarray) -> bytes:
    """The CSV lines of `block`: `%d` for a column of precision None, else
    `%.{p}e`, joined by ',' and ended by '\\n'."""
    widths = [_int_width(block[:, c]) if p is None else p + 8 for c, p in enumerate(precisions)]
    # column-major: each byte position of a row is one contiguous buffer row
    buf = np.zeros((sum(widths) + len(widths), len(block)), np.uint8)
    off = 0
    for c, (p, width) in enumerate(zip(precisions, widths)):
        if p is None:
            _put_int_field(buf, off, width, block[:, c])
        else:
            _put_float_field(buf, off, block[:, c], p)
        off += width
        buf[off] = ord("," if c < len(widths) - 1 else "\n")
        off += 1
    lines = np.ascontiguousarray(buf.T).ravel()
    return lines[lines != 0].tobytes()


@contextlib.contextmanager
def _export_csv(path: str, header: list[str], precisions: list[int | None]):
    """Write `header`, then yield `write(*columns)`, which appends one CSV line
    per row of its columns (1-D arrays or 2-D arrays of several columns).

    Column c is written as `'%d' % v` where precisions[c] is None and as
    `'%.{p}e' % v` for precisions[c] = p, byte for byte, but by whole numpy
    columns: the decimal exponent from log10, a (p + 1)-digit mantissa by
    scaling with a correctly rounded power of ten and rint, and its digits
    through a two-digit table.  The mantissa's absolute error is below
    2.2e-3 (two correctly rounded steps, relative error < 2**-52, times
    m < 10**13), so only mantissas within _TIE_WINDOW = 1e-2 of a rounding
    tie can round the wrong way; those, non-finite values, magnitudes
    outside [1e-280, 1e280] and integer-column values outside [0, 2**32)
    are formatted with `%`.

    Rows are stacked, formatted and written EXPORT_BLOCK_ROWS at a time into
    a temporary file beside `path`, named from the process id and created
    exclusively before anything is yielded; it replaces `path` when the
    block exits normally.  A path that cannot be opened or written, or that
    names a directory (which the final rename would refuse only after the
    whole export), is a ValidationError, and any exception leaves neither a
    partial CSV nor the temporary file; callers print after the block, so a
    failed export also leaves stdout empty.
    """
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write((",".join(header) + "\n").encode("utf-8"))
                def write(*columns: np.ndarray) -> None:
                    for start in range(0, len(columns[0]), EXPORT_BLOCK_ROWS):
                        block = np.column_stack([c[start : start + EXPORT_BLOCK_ROWS] for c in columns])
                        fh.write(_format_block(precisions, block))
                yield write
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_air_index(args: argparse.Namespace, out) -> int:
    state = AirState(
        temperature_c=args.temperature,
        pressure_pa=args.pressure,
        co2_percent=args.co2,
        water_vapor_pa=args.humidity_pa,
    )
    sigma = air_model.sigma_from_wavelength(args.wavelength * 1e-9)
    scalars = air_model.dispersion_scalars(air_model.omega_from_sigma(sigma))
    rows = [
        ("wavelength_nm", args.wavelength),
        ("sigma_per_um", sigma),
        ("n_phi", air_model.phase_index(sigma, state)),
        ("n_g", air_model.group_index(sigma, state)),
        ("k_dispersion", air_model.k_dispersion(sigma)),
        ("water_term_per_pa", air_model.water_term(sigma)),
        ("density_factor", air_model.density_factor(state)),
        ("delta1", scalars.delta1),
        ("delta2", scalars.delta2),
        ("eta1", scalars.eta1),
        ("eta2", scalars.eta2),
    ]
    for key, value in rows:
        print(f"{key} = {_fmt(float(value))}", file=out)
    return EXIT_OK


def _mode_table(config: RunConfig):
    """(label, mode, k_const) rows, each mode signed for plotting: a mode whose
    largest-magnitude coefficient is negative is flipped."""
    pulse = config.pulse
    w_l, w_x, w_pw = detection.ranging_modes(pulse, config.state, config.length_m)
    w_lp = detection.purify(w_l, [w_x, w_pw])
    rows = [
        # u = -i v0 has v0's real profile
        ("u", mode_algebra.hermite_gauss(0, pulse), None),
        ("v0", mode_algebra.hermite_gauss(0, pulse), None),
        ("v1", mode_algebra.hermite_gauss(1, pulse), None),
        ("v2", mode_algebra.hermite_gauss(2, pulse), None),
        ("w_L", w_l.mode, w_l.k_const),
        ("w_X", w_x.mode, w_x.k_const),
        ("w_Pw", w_pw.mode, w_pw.k_const),
        ("w_L_p", w_lp.mode, w_lp.k_const),
    ]
    for i, (label, mode, k_const) in enumerate(rows):
        vec = mode.vector
        if vec[np.argmax(np.abs(vec))] < 0.0:
            rows[i] = (label, mode_algebra.SpectralMode(pulse, tuple(-vec)), k_const)
    return rows


def cmd_modes(args: argparse.Namespace, out) -> int:
    config = load_config(args.config)
    rows = _mode_table(config)

    pulse = config.pulse
    x = np.linspace(-mode_algebra.GRID_HALF_WIDTH, mode_algebra.GRID_HALF_WIDTH, 2049)
    omega = pulse.omega0 + x * pulse.delta_omega
    scale = math.sqrt(pulse.delta_omega)
    profile_rows = [r for r in rows if r[0] in ("u", "v0", "v1", "v2", "w_L", "w_L_p")]
    profiles = [mode_algebra.real_profile(m, omega) * scale for _, m, _ in profile_rows]
    header = ["x"] + [label for label, _, _ in profile_rows]
    with _export_csv(args.out, header, [9] + [12] * len(profiles)) as write:
        write(x, *profiles)

    # no field needs CSV quoting: labels and formatted numbers
    print("mode,c0,c1,c2,k_const", file=out)
    for label, mode, k_const in rows:
        # + 0.0 turns the -0.0 of a flipped zero into 0.0
        coeffs = [float(c) + 0.0 for c in mode.padded(2)]
        fields = [label] + [f"{ic:.12e}" for ic in coeffs] + ["" if k_const is None else f"{k_const:.12e}"]
        print(",".join(fields), file=out)
    print(f"# profiles written to {args.out}", file=out)
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace, out) -> int:
    config = load_config(args.config)
    report = detection.contamination_report(
        config.pulse, config.state, config.length_m, config.photons
    )
    out.write(report.to_text())
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {text!r} is not a comma-separated number list") from exc


def cmd_multicolor(args: argparse.Namespace, out) -> int:
    lambdas_nm = _parse_float_list(args.wavelengths, "--wavelengths")
    photons = _parse_float_list(args.photons, "--photons")
    expected = 2 if args.scheme == "2wi" else 3
    if len(lambdas_nm) != expected:
        raise ValidationError(
            f"scheme {args.scheme} needs {expected} wavelengths, got {len(lambdas_nm)}"
        )
    if len(photons) == 1:
        photons = photons * expected
    if len(photons) != expected:
        raise ValidationError(f"--photons needs 1 or {expected} entries")
    moist = replace(AirState.standard(), water_vapor_pa=args.humidity_pa)

    wavelengths_m = [lam * 1e-9 for lam in lambdas_nm]
    if args.scheme == "2wi":
        comb = multicolor.two_color_combination(*wavelengths_m)
        coeff_cols = {"alpha": -comb.weights[1], "beta": "", "gamma": ""}
    else:
        comb = multicolor.synth_3wi(*wavelengths_m)
        coeff_cols = {"alpha": "", "beta": comb.weights[1], "gamma": comb.weights[2]}
    noise = multicolor.shot_noise(comb, photons)
    bias = multicolor.humidity_bias(comb, moist, args.length)

    # no field needs CSV quoting: names and formatted numbers
    header = (
        ["scheme"]
        + [f"lambda{i + 1}_nm" for i in range(expected)]
        + [f"photons{i + 1}" for i in range(expected)]
        + ["alpha", "beta", "gamma", "shot_noise_m", "humidity_bias_m"]
    )
    row = (
        [args.scheme]
        + [f"{lam:.6f}" for lam in lambdas_nm]
        + [f"{n:.6e}" for n in photons]
        + [v if v == "" else f"{v:.9e}" for v in coeff_cols.values()]
        + [f"{noise:.9e}", f"{bias:.9e}"]
    )
    print(",".join(header), file=out)
    print(",".join(row), file=out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, out) -> int:
    config = load_config(args.config).with_overrides(seed=args.seed, samples=args.samples)
    sim_config = config.to_sim_config()
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comb-ranger",
        description="Dispersion-immune frequency-comb ranging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_air = sub.add_parser("air-index", help="Refractive index of air for given conditions.")
    p_air.add_argument("--wavelength", type=float, default=633.0, help="vacuum wavelength [nm]")
    for flag, key, help_text in (
        ("--temperature", "air.temperature_c", "temperature [C]"),
        ("--pressure", "air.pressure_pa", "total pressure [Pa]"),
        ("--co2", "air.co2_percent", "CO2 content [percent]"),
        ("--humidity-pa", "air.water_vapor_pa", "water vapor partial pressure [Pa]"),
    ):
        p_air.add_argument(flag, type=float, default=SCHEMA[key][1], help=help_text)
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
        "--wavelengths", default="1064,532", help="comma-separated wavelengths [nm]"
    )
    p_multi.add_argument(
        "--photons", default="4e16", help="photon number(s), single value or per wavelength"
    )
    p_multi.add_argument("--humidity-pa", type=float, default=1000.0, help="P_w for the bias column [Pa]")
    p_multi.add_argument("--length", type=float, default=1.0, help="path length [m]")
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


if __name__ == "__main__":
    sys.exit(main())
