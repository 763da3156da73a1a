"""Command-line harness: seeded runs, method sweeps, and analysis artifacts.

Every run writes to its output directory:

    config.json       fully resolved configuration (reloadable via --config)
    metrics.csv       one row per completed training episode
    lambda_trace.csv  per-step mean importance per modality, with audio class
    embeddings.csv    per-modality feature vectors sampled every few steps
    eval.csv          per-episode evaluation results (when --eval-episodes > 0)
    checkpoint.json   extractor/head parameters, modality stats, Adam moments
    run_info.json     wall-clock and CPU totals, the seconds spent evaluating
                      and writing the artifacts and the checkpoint, the BLAS
                      thread count and kernel set, numpy's version, the peak
                      resident memory and the minor page faults, and counters
                      (kept out of metrics.csv so identical configs produce
                      byte-identical metrics)

``checkpoint.json`` (format ``maie-checkpoint-v2``) keeps the parameters and
the stats as JSON number lists, and stores each of Adam's moments as base64
of its raw little-endian float64 bytes next to its shape: the moments are two
thirds of the floats, and base64 writes them several times faster than even
the numpy formatter of ``_Floats`` writes number text. The file is written
as a stream, one parameter, stats entry or Adam entry at a time, and within
an entry each array ``SLICE_FLOATS`` values at a time, so what a save holds
does not grow with the payload or its largest array; the bytes are those of
``json.dumps(payload, separators=(",", ":"))``.

A run refuses an output directory that already holds a file, so a
directory holds one run's files only. All files are written atomically
(temp file + rename) from a stream of text chunks. Exit codes: 0 success,
1 configuration error, 2 numerical abort (a NaN dump is written).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing as mp
import os
import resource
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import envs
from .agent import LOSS_COLUMNS, METHODS, NumericalError, TrainConfig, Trainer
from .alignment import DISTANCE_KINDS
from .enhancement import ModalityStats
from .extractors import FEATURE_DIM

METRICS_SCHEMA = "maie-metrics-v1"
CHECKPOINT_FORMAT = "maie-checkpoint-v2"


@dataclass
class RunConfig(TrainConfig):
    """A TrainConfig plus the environment and where the run's artifacts go."""

    env: str = "hetero_nav"
    out: str = "runs/out"
    eval_episodes: int = 0
    max_env_steps: int | None = None

    def __post_init__(self):
        super().__post_init__()  # checks the types of these fields too
        if self.env not in envs.ENV_NAMES:
            raise ValueError(f"env must be one of {envs.ENV_NAMES}, got {self.env!r}")
        if self.eval_episodes < 0:
            raise ValueError("eval_episodes must be >= 0")
        if self.max_env_steps is not None and self.max_env_steps < 1:
            raise ValueError(f"max_env_steps must be >= 1 or unset, got {self.max_env_steps}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)})


def _atomic_write(path: str, chunks: Iterable[str]):
    """Write the text chunks to a temp file beside ``path``, then rename it to ``path``.

    If writing fails or the chunks raise, the temp file is removed and
    ``path`` is left as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header: list, rows) -> None:
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], (",".join(map(_fmt, row)) + "\n" for row in rows)))


def write_metrics_csv(path: str, rows: list, modalities: list):
    header = ["episode", "env_steps", "return", "success", *LOSS_COLUMNS] + [f"lambda_{m}" for m in modalities]
    _write_csv(path, header, ([r[h] for h in header] for r in rows))


def read_metrics_csv(path: str) -> dict:
    """Columns of metrics.csv as float arrays keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            for h, v in zip(header, line.strip().split(",")):
                cols[h].append(float(v))
    return {h: np.asarray(v) for h, v in cols.items()}


def _float_lines(rows: list, width: int) -> Iterator[str]:
    """``_write_csv``'s lines of rows ``(*columns, floats)``, each of ``width`` floats, a block of rows at a time.

    The floats of a block of up to ``SLICE_FLOATS`` values go to
    ``_float_text`` as one array, with ``repr``'s spelling of a non-finite
    value, and each row's other columns, strings and integers that ``str``
    writes as ``_fmt`` does, are spliced in before its floats.
    """
    per = max(1, SLICE_FLOATS // width)
    head = "%s," * (len(rows[0]) - 1) if rows else ""
    for i in range(0, len(rows), per):
        block = rows[i : i + per]
        text = _float_text(np.array([r[-1] for r in block], dtype=np.float64).reshape(-1), _repr_text)
        ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord(","))[width - 1 :: width].tolist()
        starts = [0, *[end + 1 for end in ends]]
        ends.append(len(text))
        yield "".join([head % row[:-1] + text[a:b] + "\n" for row, a, b in zip(block, starts, ends)])


def _write_lambda_trace(path: str, rows: list, modalities: list):
    header = ["phase", "episode", "step", "audio_class"] + [f"lambda_{m}" for m in modalities]
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], _float_lines(rows, len(modalities))))


def _write_embeddings(path: str, rows: list):
    header = ["phase", "episode", "step", "modality"] + [f"f{i}" for i in range(FEATURE_DIM)]
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], _float_lines(rows, FEATURE_DIM)))


_dumps = functools.partial(json.dumps, separators=(",", ":"))


def _json_text(values: list) -> str:
    """``_dumps`` of a list of floats, brackets stripped: ``NaN`` and ``Infinity`` for the non-finite."""
    return _dumps(values)[1:-1]


def _repr_text(values: list) -> str:
    """The ``repr`` of each float, joined by commas: ``nan`` and ``inf`` for the non-finite, as ``_fmt`` writes them."""
    return ",".join(map(repr, values))


SLICE_FLOATS = 3 * 512  # floats encoded at a time; a multiple of 3, as 24 bytes are 32 base64 characters
_FAST_MIN = 256  # below this many values the per-value text costs less than the digit rows' fixed cost
_TIE = 1e-9  # a rounding decision this near a tie or the half spacing is left to the per-value text
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF0000000000000
_HALF_SPACING = 53 << 52  # taken from the bits of 2**E, gives 2**(E - 53), half the spacing of doubles from 2**E


def _split(a):
    """Veltkamp's split of float64 ``a`` into a high part of 26 significant bits and the exact rest."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALES = np.array([1e17, 1e18, 1e19, 1e20])  # 10**(17 + z), exact doubles
_SCALES_HI, _SCALES_LO = _split(_SCALES)


@functools.cache
def _digit_tables() -> tuple:
    """The tables ``_digit_rows`` writes its rows from, as little-endian words of ASCII padded with NULs; built on
    first use.

    ``groups[g]`` is the four digits of ``g`` as a uint32; ``heads[:, i]``
    the first and last four bytes of the separator, the sign, ``0.``, ``z``
    zeros and the leading digit ``d``, at ``i = d + 10 * z + 40 * negative``;
    and ``keep[:, q]`` two uint64 masks over the 16 digits after the leading
    one that keep the first ``q - 1`` of them.
    """
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), np.uint8)
    for j, div in enumerate((1000, 100, 10, 1)):
        digits[:, j] = g // div % 10 + ord("0")
    heads = b"".join((b",-"[:1 + neg] + b"0." + b"0" * z + b"%d" % d).ljust(8, b"\0")
                     for neg in (0, 1) for z in range(4) for d in range(10))
    keep = b"".join((b"\xff" * (q - 1)).ljust(16, b"\0") for q in range(18))
    return (digits.view("<u4").reshape(-1), np.frombuffer(heads, "<u4").reshape(-1, 2).T.copy(),
            np.frombuffer(keep, "<u8").reshape(-1, 2).T.copy())


def _digit_rows(values: np.ndarray) -> tuple:
    """``(rows, slow)`` of a 1-D float64 array: row ``i`` holds ``"," + repr(values[i])`` as three uint64 words
    padded with NULs, except where ``slow[i]``, which marks the values left to the per-value text. ``_Floats``
    gives the method.
    """
    groups, heads, keep = _digit_tables()
    x = np.abs(values)
    slow = ~((x >= 1e-4) & (x < 1.0))  # NaN included
    slow |= x.view(np.int64) & _MANTISSA == 0  # a power of two's lower neighbour is half as far as its upper one
    np.copyto(x, 0.5, where=slow)  # a value in range, so that no step below warns; their rows are not read
    z = (x < 0.1).astype(np.intp)  # zeros after "0."
    z += x < 0.01
    z += x < 0.001
    s, sh, sl = _SCALES[z], _SCALES_HI[z], _SCALES_LO[z]
    p = x * s
    xh, xl = _split(x)
    e = xh * sh  # Dekker's product: p + e is x * s exactly
    e -= p
    e += xh * sl
    e += xl * sh
    e += xl * sl
    half = ((x.view(np.int64) & _EXPONENT) - _HALF_SPACING).view(np.float64) * s  # half x's spacing, scaled as p
    big = p.astype(np.int64)  # a whole number in [10**16, 10**17]
    del s, sh, sl, p, xh, xl  # each array is dropped once spent, which keeps a save's peak low
    r = big % 100
    w = r + e  # x * s is big - r + w, and -8 < w < 108
    m = np.rint(w)  # 17 digits always give x back
    gap = np.abs(np.abs(w - m) - 0.5)  # how near a decision is to a tie or to half
    digits = np.full(values.size, 17, np.intp)
    for d in (10.0, 100.0):  # 16 and 15 digits: w rounded to a multiple of d
        k = np.rint(w / d) * d
        dist = np.abs(w - k)
        fits = dist < half
        np.minimum(gap, np.abs(dist - half), out=gap)
        if d == 10.0:  # a tie at 15 digits or fewer is further than half
            np.minimum(gap, np.abs(dist - 5.0), out=gap)
        np.copyto(m, k, where=fits)
        digits -= fits
    slow |= gap < _TIE
    c = big - r + m.astype(np.int64)
    del r, w, m, k, dist, gap
    at = np.flatnonzero(fits & ~slow)
    for q in range(14, 0, -1):  # one digit fewer, while the last count gave x back
        d = 10 ** (17 - q)
        b = big[at]
        t = (b + d // 2) % d - d // 2  # b - t is b's nearest multiple of d, and p + e's if it gives x back
        dist = np.abs(t + e[at])
        fits = dist < half[at]
        slow[at[np.abs(dist - half[at]) < _TIE]] = True
        at = at[fits]
        if not at.size:
            break
        c[at] = (b - t)[fits]
        digits[at] = q
    del big, e, half
    upper = c // 10**8  # the leading digit and the 8 after it
    c -= upper * 10**8  # the last 8 digits
    lead = upper // 10**8
    upper -= lead * 10**8
    rows = np.empty((values.size, 3), "<u8")
    quads = rows.view("<u4")
    for col, eight in ((2, upper), (4, c)):
        first = eight // 10**4
        quads[:, col] = groups[first]
        quads[:, col + 1] = groups[eight - first * 10**4]
    rows[:, 1] &= keep[0, digits]  # the digits after the shortest form's last, all zeros
    rows[:, 2] &= keep[1, digits]
    lead += z * 10
    lead += (values < 0.0) * 40
    quads[:, 0] = heads[0, lead]
    quads[:, 1] = heads[1, lead]
    return rows, slow


def _float_text(values: np.ndarray, text=_json_text) -> str:
    """``text(values.tolist())`` of a 1-D float64 array, most values written by ``_digit_rows``.

    ``text`` is ``_json_text`` or ``_repr_text``, which differ only in the
    spelling of a non-finite value; ``_digit_rows`` leaves those to it.
    """
    if values.size < _FAST_MIN:
        return text(values.tolist())
    rows, slow = _digit_rows(values)
    cuts = np.flatnonzero(slow)
    if 2 * cuts.size > values.size:  # splicing most values in costs more than writing them all one by one
        return text(values.tolist())
    per_value = text(values[cuts].tolist()).encode("ascii").split(b",")
    raw, width, start, pieces = memoryview(rows).cast("B"), rows.strides[0], 0, []
    for cut, piece in zip(cuts.tolist(), per_value):
        pieces += (raw[start * width : cut * width], b",", piece)
        start = cut + 1
    pieces.append(raw[start * width :])
    return b"".join(pieces).translate(None, b"\0")[1:].decode("ascii")


@dataclass(frozen=True)
class _Floats:
    """A float array that ``_json_chunks`` writes ``SLICE_FLOATS`` values at a time.

    As a JSON number list by default: the text of ``_dumps`` of each slice's
    list, brackets stripped and the slices joined by commas, is that of the
    whole list. With ``as_base64``, as one JSON string of the array's raw
    little-endian float64 bytes: a slice of a multiple of 3 floats encodes
    with no padding, so the slices' base64 run together into the whole's.

    A slice of ``_FAST_MIN`` values or more gets its text from
    ``_float_text``: the bytes of ``repr`` of each value, the shortest
    digits that read back as the value and of those the nearest (Steele and
    White, PLDI 1990), made mostly by numpy in ``_digit_rows``. That writes
    each finite ``x`` with ``1e-4 <= |x| < 1`` that is not a power of two
    (whose lower neighbour is nearer than its upper), as ``[-]0.``, ``z``
    zeros and at most 17 digits. Every other value, and every value of a
    smaller slice, keeps the per-value text.

    - ``x * 10**(17 + z)`` is ``p + e`` exactly, by Dekker's product (the
      scales are exact doubles), with ``p`` a whole number in
      ``[10**16, 10**17]``.
    - The ``q``-digit form is ``p + e`` rounded to a multiple of
      ``10**(17 - q)``. It reads back as ``x`` when it lies within half of
      ``x``'s spacing, scaled alike, of ``p + e``; 17 digits always do, and
      if ``q`` digits do, ``q + 1`` do. So ``q`` counts down from 16, on
      every value for 16 and 15 and then only on those the last count gave
      back, until it no longer does. A decision within ``_TIE`` of a
      rounding tie or of the half spacing goes to the per-value text.
    - The digits become a row of three uint64 words of ASCII padded with
      NULs: the separator, sign, ``0.``, zeros and leading digit from an
      80-entry table, then the other 16 digits from a 10,000-entry table of
      4-digit groups, masked to NULs after the last digit (the shortest
      digits never end in 0). ``bytes.translate`` strips the rows' NULs,
      and each value left out has its per-value text spliced in at its row.
    """

    arr: np.ndarray
    as_base64: bool = False

    def chunks(self) -> Iterator[str]:
        flat = np.ascontiguousarray(self.arr, dtype="<f8").reshape(-1)
        slices = (flat[i : i + SLICE_FLOATS] for i in range(0, flat.size, SLICE_FLOATS))
        if self.as_base64:
            yield '"'
            yield from (base64.b64encode(s).decode("ascii") for s in slices)
            yield '"'
        else:
            yield "["
            yield from (("," if i else "") + _float_text(s) for i, s in enumerate(slices))
            yield "]"


def _json_chunks(value) -> Iterator[str]:
    """The text ``_dumps(value)`` writes, one entry of a JSON object at a time.

    A JSON object is a dict or an iterator of ``(key, value)`` pairs. An
    iterator is advanced only as its entries are written, so it can build
    each value when it is reached and drop it after. A ``_Floats`` is
    written a slice at a time, and any other value is dumped whole.
    """
    if isinstance(value, dict):
        value = iter(value.items())
    if isinstance(value, _Floats):
        yield from value.chunks()
        return
    if not isinstance(value, Iterator):
        yield _dumps(value)
        return
    yield "{"
    for i, (key, item) in enumerate(value):
        yield ("," if i else "") + _dumps(key) + ":"
        yield from _json_chunks(item)
    yield "}"


def _moment_array(text: str, shape: tuple, what: str) -> np.ndarray:
    """Decode a moment's base64 strictly into a fresh writable array of the stored shape."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {what}: not base64 ({e})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint {what}: {len(raw)} bytes do not hold float64 shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _numbers(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float64 array; a string, a bool or a non-finite entry is a ValueError."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"checkpoint {what}: not a list of JSON numbers")
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float64
        raise ValueError(f"checkpoint {what}: a value beyond float64") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint {what}: a non-finite value")
    return arr


def _object(value, what: str, keys=None) -> dict:
    """A JSON object of the checkpoint, or a ValueError naming ``what``.

    With ``keys``, also a ValueError naming the first entry not among them:
    a save would not write it again, so the file would not round-trip.
    """
    if type(value) is not dict:
        raise ValueError(f"checkpoint {what}: not a JSON object")
    if keys is not None:
        extra = next((k for k in value if k not in keys), None)
        if extra is not None:
            raise ValueError(f"checkpoint {what}: an entry {extra!r} that the trainer does not save")
    return value


def _shape(value, what: str) -> tuple:
    """A stored shape, a JSON list of integers >= 0, as a tuple."""
    if type(value) is not list or not all(type(d) is int and d >= 0 for d in value):
        raise ValueError(f"checkpoint {what}: shape {value!r} is not a list of integers >= 0")
    return tuple(value)


def _checked(values, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"checkpoint {what}: shape {arr.shape} != {shape}")
    return arr


def save_checkpoint(path: str, trainer: Trainer):
    """Write the parameters, the modality stats and Adam's moments as one JSON file.

    Each stats entry records the xi and stats_eps it ran at; Adam's [m, v, t]
    are keyed by ``str`` of the parameter's position in
    ``trainer.named_parameters()``, with the moments' shape once and each
    moment as base64 of its little-endian float64 bytes. The file is streamed
    through ``_json_chunks``: one entry at a time, and within an entry every
    array as a ``_Floats``, ``SLICE_FLOATS`` values at a time, so what a save
    holds does not grow with the largest parameter. The bytes are those of
    ``_dumps`` of the whole payload.
    """
    cfg, opt, params = trainer.cfg, trainer.opt, trainer.named_parameters()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "params": ((k, {"shape": list(v.data.shape), "data": _Floats(v.data)}) for k, v in params.items()),
        "stats": ((m, {"mu": _Floats(st.mu), "var": _Floats(st.var), "xi": cfg.xi, "eps": cfg.stats_eps})
                  for m, st in trainer.stats.items()),
        "adam": ((str(i), {"shape": list(st[0].shape), "t": st[2], "m": _Floats(st[0], as_base64=True),
                           "v": _Floats(st[1], as_base64=True)})
                 for i, p in enumerate(params.values()) if (st := opt.state.get(p)) is not None),
    }
    _atomic_write(path, _json_chunks(payload))


def load_checkpoint(path: str, trainer: Trainer):
    """Restore a ``save_checkpoint`` file into a trainer of the same env and config.

    Raises ValueError on another format, a file, table or entry that is not
    a JSON object, a stored shape that is not a list of integers >= 0, a
    parameter, stats entry, stats xi or stats eps that is not a finite JSON
    number (a string or a bool included), a negative stats variance, a
    stored shape that differs from its parameter's, an Adam key other than ``str`` of a position in
    ``trainer.named_parameters()`` (``"01"`` and ``"+1"`` included), an Adam
    moment that is not base64, whose byte count does not fit its stored shape
    or that holds a NaN or an infinity, an Adam ``v`` with a negative entry,
    an Adam step count ``t`` that is not an integer >= 1 (a float or a bool
    included), stats saved at another xi or stats_eps, or an entry that
    ``save_checkpoint`` would not write again (a table, a parameter or stats
    modality the trainer does not have, or a field of an entry), and
    KeyError on a missing entry. The file is checked whole first, so a
    rejected one changes nothing. An accepted one replaces Adam's state
    whole: a parameter with no saved entry has none after the load, as in
    the trainer that saved it.
    """
    with open(path) as fh:
        payload = _object(json.load(fh), "file")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format {payload.get('format')!r} is not {CHECKPOINT_FORMAT!r}")
    _object(payload, "file", ("format", "params", "stats", "adam"))
    cfg, opt = trainer.cfg, trainer.opt
    params = trainer.named_parameters()
    arrays, saved = {}, _object(payload["params"], "params", params)
    for name, p in params.items():
        what = f"parameter {name}"
        entry = _object(saved[name], what, ("shape", "data"))
        data = _numbers(entry["data"], what).reshape(_shape(entry["shape"], what))
        arrays[name] = _checked(data, p.data.shape, what)
    stats, saved = {}, _object(payload["stats"], "stats", trainer.modalities)
    for m in trainer.modalities:
        entry = _object(saved[m], f"stats {m}", ("mu", "var", "xi", "eps"))
        for k in ("xi", "eps"):
            if type(entry[k]) not in (int, float):  # true == 1.0, so a bool would load and be saved as 1.0
                raise ValueError(f"checkpoint stats {m} {k}: {entry[k]!r} is not a JSON number")
        if (entry["xi"], entry["eps"]) != (cfg.xi, cfg.stats_eps):
            raise ValueError(f"checkpoint stats {m}: saved at xi={entry['xi']}, stats_eps={entry['eps']}, "
                             f"but the trainer has xi={cfg.xi}, stats_eps={cfg.stats_eps}")
        mu, var = (_checked(_numbers(entry[k], f"stats {m} {k}"), (FEATURE_DIM,), f"stats {m} {k}")
                   for k in ("mu", "var"))
        if (var < 0.0).any():  # a negative variance gives NaN scales
            raise ValueError(f"checkpoint stats {m} var: a negative entry")
        stats[m] = ModalityStats(mu=mu, var=var)
    by_position = {str(i): p for i, p in enumerate(params.values())}
    state = {}
    for key, entry in _object(payload["adam"], "adam").items():
        p = by_position.get(key)
        if p is None:
            raise ValueError(f"checkpoint adam {key}: no parameter at that position")
        entry = _object(entry, f"adam {key}", ("shape", "t", "m", "v"))
        shape = _shape(entry["shape"], f"adam {key}")
        m, v = (_checked(_moment_array(entry[k], shape, f"adam {key} {k}"), p.data.shape, f"adam {key} {k}")
                for k in ("m", "v"))
        if not (np.isfinite(m).all() and np.isfinite(v).all() and (v >= 0.0).all()):  # the next step takes sqrt(v)
            raise ValueError(f"checkpoint adam {key}: a NaN or an infinity in m or v, or a negative v")
        t = entry["t"]
        if type(t) is not int or t < 1:  # a step count below 1 divides by zero in the bias correction
            raise ValueError(f"checkpoint adam {key}: step count t={t!r} is not an integer >= 1")
        state[p] = [m, v, t]
    trainer.drop_eval_span()
    for name, p in params.items():
        p.data[...] = arrays[name]
    trainer.stats.update(stats)
    opt.state = state


def _refuse_used(directory: str) -> None:
    """Raise ValueError if ``directory`` exists and holds an entry that is not a directory."""
    if not os.path.isdir(directory):
        return
    with os.scandir(directory) as entries:
        name = next((e.name for e in entries if not e.is_dir()), None)
    if name is not None:
        raise ValueError(f"output directory {directory} already holds {name}; give each run a new directory")


def _max_rss_mb() -> float:
    """This process's peak resident memory in MB (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def run(cfg: RunConfig) -> int:
    """Execute one seeded training run and write its artifacts.

    An output directory that already holds a file (another run's, say) is a
    configuration error, found before anything is written.
    """
    try:
        _refuse_used(cfg.out)
        env = envs.make_env(cfg.env, cfg.seed)
        trainer = Trainer(env, cfg.train_config())
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1

    config_payload = dataclasses.asdict(cfg)
    config_payload["metrics_schema"] = METRICS_SCHEMA
    _atomic_write(os.path.join(cfg.out, "config.json"), [json.dumps(config_payload, indent=2, sort_keys=True)])

    t0, c0, f0 = time.perf_counter(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        trainer.run(max_env_steps=cfg.max_env_steps)
        t_eval = time.perf_counter()
        eval_rows = trainer.run_eval(cfg.eval_episodes) if cfg.eval_episodes else []
    except NumericalError as e:
        dump_path = os.path.join(cfg.out, "nan_dump.json")
        _atomic_write(dump_path, [json.dumps({"error": str(e), **e.dump}, indent=2)])
        print(f"numerical abort: {e}; rollout dump at {dump_path}", file=sys.stderr)
        return 2
    t1, c1 = time.perf_counter(), time.process_time()
    mods = trainer.modalities
    write_metrics_csv(os.path.join(cfg.out, "metrics.csv"), trainer.metrics_rows, mods)
    _write_lambda_trace(os.path.join(cfg.out, "lambda_trace.csv"), trainer.lambda_rows, mods)
    _write_embeddings(os.path.join(cfg.out, "embeddings.csv"), trainer.embedding_rows)
    if eval_rows:
        _write_csv(
            os.path.join(cfg.out, "eval.csv"),
            ["episode", "return", "success", "steps"],
            ([r["episode"], r["return"], r["success"], r["steps"]] for r in eval_rows),
        )
    t2 = time.perf_counter()
    save_checkpoint(os.path.join(cfg.out, "checkpoint.json"), trainer)
    t3, f3 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    info = {
        "wall_seconds": t1 - t0,
        "cpu_seconds": c1 - c0,
        "blas_threads": ad.blas_threads(),
        "blas_core": ad.blas_core(),
        "numpy_version": np.__version__,
        "eval_seconds": t1 - t_eval,
        "artifacts_seconds": t2 - t1,
        "checkpoint_seconds": t3 - t2,
        "env_steps": trainer.env_steps,
        "episodes": len(trainer.metrics_rows),
        "ms_per_env_step": 1e3 * (t_eval - t0) / max(trainer.env_steps, 1),
        "max_rss_mb": _max_rss_mb(),
        "minor_faults": f3 - f0,
    }
    _atomic_write(os.path.join(cfg.out, "run_info.json"), [json.dumps(info, indent=2)])
    return 0


def final_window_stats(path, window_fraction: float = 0.1) -> dict:
    """Mean return/success over the last fraction of the episodes in a metrics.csv.

    Raises ValueError when the run finished no episode.
    """
    cols = read_metrics_csv(path)
    returns, successes = cols["return"], cols["success"]
    n = len(returns)
    if n == 0:
        raise ValueError("no finished episode")
    k = max(1, int(np.ceil(window_fraction * n)))
    return {"return": float(returns[-k:].mean()), "success": float(successes[-k:].mean()), "episodes": n}


def _sweep_worker(args) -> dict:
    cfg_dict, method, seed = args
    out = os.path.join(cfg_dict["out"], f"{method}_seed{seed}")
    result = {"method": method, "seed": seed, "status": 1}
    try:
        result["status"] = run(RunConfig(**{**cfg_dict, "method": method, "seed": seed, "out": out}))
        if result["status"] == 0:
            result.update(final_window_stats(os.path.join(out, "metrics.csv")))
    except Exception as e:  # one failed run is reported, and the sweep goes on
        result["error"] = f"{type(e).__name__}: {e}"
    return result


def sweep(base: RunConfig, seeds: list, methods: list, jobs: int = 1) -> int:
    """Run the method x seed cross product and summarize final-window returns.

    A run that fails or finishes no episode is reported on stderr and left
    out of the summary; the sweep exits 1 when no run is left. With jobs > 1
    the runs go to spawned worker processes, no more of them than runs. Each
    imports maie and so runs BLAS on one thread (see ``autodiff``): the runs do
    not oversubscribe the cores.

    Raises ValueError, before any directory is made, on an empty seed or
    method list, a seed or method listed twice (its runs would share one
    directory), a method or seed its ``RunConfig`` rejects, jobs below 1, or an
    output directory that already holds a file (an earlier sweep's
    ``summary.csv``, say).
    """
    if not seeds or not methods:
        raise ValueError("sweep needs nonempty seed and method lists")
    for what, items in (("method", methods), ("seed", seeds)):
        if len(set(items)) < len(items):
            raise ValueError(f"sweep lists a {what} twice: {items}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for m in methods:
        dataclasses.replace(base, method=m)  # the method's RunConfig checks its name
    for s in seeds:
        dataclasses.replace(base, seed=s)  # and each seed's RunConfig its value
    _refuse_used(base.out)
    os.makedirs(base.out, exist_ok=True)
    base_dict = dataclasses.asdict(base)
    tasks = [(base_dict, m, s) for m in methods for s in seeds]
    if jobs > 1:
        with mp.get_context("spawn").Pool(processes=min(jobs, len(tasks))) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]

    ok = [r for r in results if "return" in r]
    for r in results:
        if "return" not in r:
            print(f"run failed: method={r['method']} seed={r['seed']} status={r['status']} {r.get('error', '')}".rstrip(),
                  file=sys.stderr)

    rows = []
    for method in sorted(set(methods)):
        per = [r for r in ok if r["method"] == method]
        if not per:
            continue
        rets = np.asarray([r["return"] for r in per])
        succ = np.asarray([r["success"] for r in per])
        rows.append(
            [
                base.env,
                method,
                len(per),
                float(rets.mean()),
                float(rets.std()),
                float(succ.mean()),
                float(succ.std()),
            ]
        )
    _write_csv(
        os.path.join(base.out, "summary.csv"),
        ["env", "method", "seeds", "final_return_mean", "final_return_std", "final_success_mean", "final_success_std"],
        rows,
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maie", description="Multimodal RL training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # one --field-name flag per RunConfig field; sweep takes --methods in place of --method
        choices = {"env": envs.ENV_NAMES, "distance": DISTANCE_KINDS}
        for f in dataclasses.fields(RunConfig):
            if f.name != "method":
                kind = int if f.default is None else type(f.default)
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=kind,
                               choices=choices.get(f.name), default=None)

    p_run = sub.add_parser("run", help="train one configuration")
    add_common(p_run)
    p_run.add_argument("--method", choices=METHODS, default=None)
    p_run.add_argument("--config", default=None, help="load a saved config.json, then apply explicit flags")

    p_sweep = sub.add_parser("sweep", help="run a method x seed cross product")
    add_common(p_sweep)
    p_sweep.add_argument("--methods", default="maie", help="comma-separated method list")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _read_config(path: str) -> dict:
    """The ``RunConfig`` fields a saved config.json sets.

    Raises ValueError on a file that cannot be read or parsed, that holds
    no JSON object, that holds a key other than a ``RunConfig`` field and
    the ``metrics_schema`` that ``run`` writes beside them, or whose
    ``metrics_schema`` is not ``METRICS_SCHEMA``.
    """
    try:
        with open(path) as fh:
            base = json.load(fh)
    except OSError as e:
        raise ValueError(f"config {path}: cannot read it: {e.strerror}") from None
    if not isinstance(base, dict):
        raise ValueError(f"config {path}: holds {type(base).__name__}, not a JSON object")
    schema = base.pop("metrics_schema", METRICS_SCHEMA)
    if schema != METRICS_SCHEMA:
        raise ValueError(f"config {path}: metrics_schema {schema!r} is not {METRICS_SCHEMA!r}")
    unknown = sorted(set(base) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise ValueError(f"config {path}: unknown keys {unknown}")
    return base


def _merge_config(args, base: dict | None = None) -> dict:
    merged = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    merged.update(base or {})
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits on bad flags; map to the config error code
        return 0 if e.code in (0, None) else 1
    try:
        if args.command == "run":
            base = _read_config(args.config) if args.config else None
            cfg = RunConfig(**_merge_config(args, base))
            return run(cfg)
        if args.command == "sweep":
            cfg = RunConfig(**{**_merge_config(args), "method": "maie"})
            seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
            methods = [m for m in str(args.methods).split(",") if m]
            return sweep(cfg, seeds, methods, jobs=args.jobs)
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
