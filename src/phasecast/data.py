"""CSV ingestion, chronological splitting, train-fit standardization, and
sliding-window sampling.

Windows are read-only strided views of one variate-major copy of each
split, so windowing a split costs the split's size, not the window count
times the window size.

Expected file layout: a header row, a timestamp first column, and one
numeric column per variate. Splits are contiguous, disjoint spans of the
timeline; the scaler is fit on the training span only so later spans
cannot leak into training statistics.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

SPLIT_RATIOS = {
    "6:2:2": (0.6, 0.2),
    "7:1:2": (0.7, 0.1),
}


@dataclass
class DatasetSpec:
    path: str
    split_ratio: str = "6:2:2"
    lookback: int = 96
    horizon: int = 96
    columns: list[str] | None = None   # subset of variate columns, None = all
    forward_fill: bool = False         # fill missing cells from the previous row
    sort_on_disorder: bool = False     # stable-sort rows if timestamps regress

    def validate(self) -> None:
        if self.split_ratio not in SPLIT_RATIOS:
            raise ConfigError(
                f"split_ratio must be one of {sorted(SPLIT_RATIOS)}, got {self.split_ratio!r}"
            )
        if self.lookback < 2 or self.horizon < 1:
            raise ConfigError(
                f"lookback must be >= 2 and horizon >= 1, got {self.lookback}, {self.horizon}"
            )


@dataclass
class Dataset:
    names: list
    timestamps: list
    values: np.ndarray  # [time, N]

    @property
    def num_variates(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass
class WindowSample:
    inputs: np.ndarray   # [N, L]
    target: np.ndarray   # [N, F]
    origin: int          # row index where the input window starts


def _normalize_timestamps(raw: list) -> list:
    """Use floats when every stamp parses as one, else keep the raw strings."""
    try:
        return [float(r) for r in raw]
    except ValueError:
        return raw


def load_csv(spec: DatasetSpec) -> Dataset:
    """Read a dataset file; see the README's "Dataset format" for what it accepts.

    A well-formed file is read by numpy's C reader in one pass. A file that
    reader refuses (gaps to forward-fill, or a malformed file whose error must
    name its line and column) is read again by the per-row loop.
    """
    spec.validate()
    path = Path(spec.path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        if len(header) < 2:
            raise DataError(f"{path} needs a timestamp column plus at least one variate")
        names = header[1:]
        if spec.columns is not None:
            missing = [c for c in spec.columns if c not in names]
            if missing:
                raise DataError(f"columns {missing} not present in {path} (has {names})")
            keep = [names.index(c) for c in spec.columns]
            names = list(spec.columns)
        else:
            keep = list(range(len(header) - 1))

        usecols = None if spec.columns is None else [0] + [1 + j for j in keep]
        table = _read_table(fh, len(header), usecols)
        if table is not None:
            timestamps, cells = table
            values = np.ascontiguousarray(cells[:, 1:])
        else:
            fh.seek(0)
            next(reader)  # back to the first data row
            timestamps, values = _read_rows(reader, path, header, keep, spec.forward_fill)

    if not np.all(np.isfinite(values)):
        raise DataError(f"{path} contains non-finite values")

    timestamps = _normalize_timestamps(timestamps)
    monotonic = all(a <= b for a, b in zip(timestamps, timestamps[1:]))
    if not monotonic:
        warnings.warn(f"{path}: timestamps are not monotonically increasing", stacklevel=2)
        if spec.sort_on_disorder:
            order = sorted(range(len(timestamps)), key=lambda i: timestamps[i])
            timestamps = [timestamps[i] for i in order]
            values = values[order]
    return Dataset(names=names, timestamps=timestamps, values=values)


def _read_table(fh, width: int, usecols=None):
    """(timestamps, float64 cells) read by numpy's C reader, or None.

    The cells are ``[rows, width]``, or with ``usecols`` only those columns
    in that order. Column 0 of the cells is a placeholder; its text is in the
    timestamps. None means the reader refused the rest of ``fh`` or would
    read it differently from ``_read_rows``: it skips blank lines, drops a
    file with no data rows and has no cell length limit, so a row count
    short of the line count, a width other than the header's, an empty body,
    or a cell the csv module would reject as too long is refused too. With
    ``usecols`` the reader no longer sees a row's width, so a line is
    refused unless it holds ``width - 1`` commas and no quote (a quoted cell
    may hold commas).
    """
    lines = 0
    timestamps = []
    limit = csv.field_size_limit()

    def counted():
        nonlocal lines
        for line in fh:
            lines += 1
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise ValueError("a cell is longer than the csv field limit")
            if usecols is not None and ('"' in line or line.count(",") != width - 1):
                raise ValueError("a row's width cannot be checked")
            yield line

    def stamp(cell):
        if len(cell) > limit:  # a quoted timestamp may span several comma pieces
            raise ValueError("a timestamp is longer than the csv field limit")
        timestamps.append(cell)
        return 0.0

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "no data" warning
            cells = np.loadtxt(counted(), dtype=np.float64, delimiter=",", comments=None,
                               quotechar='"', converters={0: stamp}, usecols=usecols, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if cells.shape != (lines, width if usecols is None else len(usecols)):
        return None
    return timestamps, cells


def _read_rows(reader, path: Path, header: list, keep: list, forward_fill: bool) -> tuple:
    """(timestamps, [rows, len(keep)] values) parsed row by row with float()."""
    timestamps = []
    rows = []
    previous = None
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no} has {len(row)} cells, expected {len(header)}")
        timestamps.append(row[0])
        parsed = []
        for j in keep:
            cell = row[1 + j].strip()
            if cell == "":
                if forward_fill and previous is not None:
                    parsed.append(previous[len(parsed)])
                    continue
                raise DataError(
                    f"{path}:{line_no} column {header[1 + j]!r} is missing a value"
                )
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}:{line_no} column {header[1 + j]!r} is not numeric: {cell!r}"
                ) from None
        rows.append(parsed)
        previous = parsed
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    return timestamps, np.asarray(rows, dtype=np.float64)


def split_bounds(length: int, ratio: str) -> tuple:
    """Start/end row pairs for the train, validation, and test spans."""
    if ratio not in SPLIT_RATIOS:
        raise ConfigError(f"split_ratio must be one of {sorted(SPLIT_RATIOS)}, got {ratio!r}")
    train_frac, val_frac = SPLIT_RATIOS[ratio]
    n_train = int(length * train_frac)
    n_val = int(length * val_frac)
    return (0, n_train), (n_train, n_train + n_val), (n_train + n_val, length)


@dataclass
class StandardScaler:
    mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    std: np.ndarray = field(default_factory=lambda: np.ones(0))

    @classmethod
    def fit(cls, values: np.ndarray) -> "StandardScaler":
        if values.shape[0] == 0:
            raise DataError("cannot fit a scaler on an empty span")
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)  # constant columns map to zero
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def window_views(values: np.ndarray, start: int, end: int, lookback: int,
                 horizon: int) -> tuple:
    """Read-only ([M, N, L], [M, N, F]) views of every stride-1 window in [start, end).

    Window m takes its inputs from rows start + m .. start + m + L - 1 and its
    target from the F rows after them. The views share one [N, end - start]
    copy of the span, stored variate-major so each window row is contiguous.
    """
    span = end - start
    needed = lookback + horizon
    if span < needed:
        raise DataError(
            f"split of length {span} is too short for lookback {lookback} + "
            f"horizon {horizon} = {needed} rows"
        )
    series = np.ascontiguousarray(values[start:end].T)  # [N, span]
    windows = sliding_window_view(series, needed, axis=1).transpose(1, 0, 2)  # [M, N, L + F]
    return windows[..., :lookback], windows[..., lookback:]


def make_windows(values: np.ndarray, start: int, end: int, lookback: int,
                 horizon: int) -> list:
    """All stride-1 windows whose input and target both fit in [start, end)."""
    inputs, targets = window_views(values, start, end, lookback, horizon)
    return [WindowSample(inputs=x, target=y, origin=start + m)
            for m, (x, y) in enumerate(zip(inputs, targets))]


def stack_windows(samples: list) -> tuple:
    """Pack WindowSamples into ([M, N, L], [M, N, F]) arrays."""
    if not samples:
        return np.zeros((0, 0, 0)), np.zeros((0, 0, 0))
    inputs = np.stack([s.inputs for s in samples])
    targets = np.stack([s.target for s in samples])
    return inputs, targets


@dataclass
class PreparedData:
    dataset: Dataset
    scaler: StandardScaler
    train: tuple   # ([M, N, L], [M, N, F]) read-only views
    val: tuple
    test: tuple


def prepare_windows(spec: DatasetSpec, source: PreparedData | None = None) -> PreparedData:
    """Load, split, scale (train statistics only), and window a dataset.

    ``source`` is an earlier result for the same file, split and columns. Its
    dataset and scaler are reused and only the windows are rebuilt, so a run
    over several horizons parses its file and fits its scaler once.
    """
    spec.validate()
    dataset = load_csv(spec) if source is None else source.dataset
    (tr0, tr1), (va0, va1), (te0, te1) = split_bounds(dataset.length, spec.split_ratio)
    scaler = StandardScaler.fit(dataset.values[tr0:tr1]) if source is None else source.scaler
    values = scaler.transform(dataset.values)
    train = window_views(values, tr0, tr1, spec.lookback, spec.horizon)
    val = window_views(values, va0, va1, spec.lookback, spec.horizon)
    test = window_views(values, te0, te1, spec.lookback, spec.horizon)
    return PreparedData(dataset=dataset, scaler=scaler, train=train, val=val, test=test)
