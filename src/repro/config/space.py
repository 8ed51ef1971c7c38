"""The configuration space: a vectorized view over a list of parameters.

Encoding and decoding are the innermost operations of every search loop
(LHS warmup, baseline sweeps, Twin-Q screening), so the space precomputes
columnar transform tables at construction time: per-parameter bounds,
log-scale coefficients, categorical index maps and integer-rounding
masks.  The tables cover the four parameter kinds of
:mod:`repro.config.parameter`, the only kinds a space holds.  The scalar
:meth:`encode`/:meth:`decode` are thin views over those tables —
bit-identical to each parameter's own ``encode``/``decode`` — and the
batch variants (:meth:`encode_batch`, :meth:`decode_batch`,
:meth:`decode_columns`) apply the same tables across the candidate axis
in a handful of numpy operations.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    Parameter,
)

__all__ = ["ConfigurationSpace"]


def _categorical_encoder(p: CategoricalParameter) -> Callable[[Any], float]:
    codes = {c: (i + 0.5) / len(p.choices) for i, c in enumerate(p.choices)}

    def enc(value: Any) -> float:
        try:
            return codes[value]
        except (KeyError, TypeError):
            raise ValueError(f"{p.name}: {value!r} not in {p.choices}") from None

    return enc


def _int_encoder(value: Any) -> float:
    return float(int(round(float(value))))


def _bool_encoder(value: Any) -> float:
    return 1.0 if value else 0.0


def _make_extractor(p: Parameter) -> Callable[[Any], float]:
    """Raw-value extractor: config value -> pre-normalization float.

    Numeric parameters yield the (rounded) raw value — clipping and
    normalization happen vectorized over the whole vector afterwards.
    Bool/categorical parameters yield the final encoded coordinate.
    """
    if type(p) is FloatParameter:
        return float
    if type(p) is IntParameter:
        return _int_encoder
    if type(p) is BoolParameter:
        return _bool_encoder
    return _categorical_encoder(p)


def _make_assembler(p: Parameter) -> Callable[[np.floating], Any]:
    """Native-value assembler: linearized coordinate -> concrete value.

    The input is the affine transform ``a * u + b`` of the normalized
    coordinate (exponentiated already for log-scale parameters), i.e.
    the raw decoded value for numerics, ``u`` itself for bools, and
    ``u * n_choices`` for categoricals.
    """
    if type(p) is FloatParameter:
        return float
    if type(p) is IntParameter:
        lo, hi = p.low, p.high

        def dec_int(x: np.floating) -> int:
            return min(max(int(round(float(x))), lo), hi)

        return dec_int
    if type(p) is BoolParameter:
        return lambda x: bool(x >= 0.5)
    choices, n = p.choices, len(p.choices)
    return lambda x: choices[min(int(x), n - 1)]


class ConfigurationSpace:
    """An ordered collection of parameters with [0,1]^d vector semantics.

    The DRL agents act in the normalized cube; the simulator consumes
    concrete parameter dictionaries.  This class owns both directions plus
    sampling, clipping and component filtering.
    """

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise ValueError("configuration space cannot be empty")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        self._params = tuple(parameters)
        self._index = {p.name: i for i, p in enumerate(self._params)}
        self._names = tuple(names)
        self._name_set = frozenset(names)
        self._build_tables()
        self._defaults = {p.name: p.default for p in self._params}
        self._default_vector = self.encode(self._defaults)
        self._default_vector.setflags(write=False)

    # -- transform tables ----------------------------------------------------

    def _build_tables(self) -> None:
        """Precompute the columnar encode/decode transform tables."""
        d = len(self._params)
        # Decode: value = a * u + b per column, then exp() on log columns.
        dec_a = np.empty(d, dtype=np.float64)
        dec_b = np.empty(d, dtype=np.float64)
        log_cols: list[int] = []
        lin_cols: list[int] = []  # numeric linear-scale columns
        for i, p in enumerate(self._params):
            if isinstance(p, (FloatParameter, IntParameter)):
                if p.log:
                    log_lo = float(np.log(p.low))
                    log_span = float(np.log(p.high) - np.log(p.low))
                    dec_a[i], dec_b[i] = log_span, log_lo
                    log_cols.append(i)
                else:
                    dec_a[i], dec_b[i] = p.high - p.low, float(p.low)
                    lin_cols.append(i)
            elif isinstance(p, BoolParameter):
                dec_a[i], dec_b[i] = 1.0, 0.0
            else:  # CategoricalParameter: u * n truncates into a bin index
                dec_a[i], dec_b[i] = float(len(p.choices)), 0.0
        self._dec_a, self._dec_b = dec_a, dec_b
        self._log_cols = np.array(log_cols, dtype=np.intp)
        # Encode: clip raw values, then normalize per scale.
        self._lin_cols = np.array(lin_cols, dtype=np.intp)
        self._lin_low = np.array(
            [float(self._params[i].low) for i in lin_cols], dtype=np.float64
        )
        self._lin_high = np.array(
            [float(self._params[i].high) for i in lin_cols], dtype=np.float64
        )
        self._lin_span = self._lin_high - self._lin_low
        self._log_low = np.array(
            [float(self._params[i].low) for i in log_cols], dtype=np.float64
        )
        self._log_high = np.array(
            [float(self._params[i].high) for i in log_cols], dtype=np.float64
        )
        self._log_log_low = np.log(self._log_low)
        self._log_denom = np.log(self._log_high) - self._log_log_low
        self._extractors = tuple(
            (p.name, _make_extractor(p)) for p in self._params
        )
        self._assemblers = tuple(
            (p.name, _make_assembler(p)) for p in self._params
        )
        # Per-kind column tables for the fully columnar decode paths:
        # decode_batch/decode_columns dispatch per *kind* once per call
        # instead of per cell, using these precomputed index sets.
        self._dec_float: list[tuple[int, str]] = []
        self._dec_bool: list[tuple[int, str]] = []
        self._dec_cat: list[tuple[int, str, tuple, int, np.ndarray]] = []
        int_cols: list[int] = []
        self._dec_int_names: list[str] = []
        for i, p in enumerate(self._params):
            if type(p) is FloatParameter:
                self._dec_float.append((i, p.name))
            elif type(p) is IntParameter:
                int_cols.append(i)
                self._dec_int_names.append(p.name)
            elif type(p) is BoolParameter:
                self._dec_bool.append((i, p.name))
            else:
                self._dec_cat.append(
                    (i, p.name, p.choices, len(p.choices) - 1,
                     np.asarray(p.choices))
                )
        self._dec_int_idx = np.array(int_cols, dtype=np.intp)
        self._dec_int_lo = np.array(
            [float(self._params[i].low) for i in int_cols], dtype=np.float64
        )
        self._dec_int_hi = np.array(
            [float(self._params[i].high) for i in int_cols], dtype=np.float64
        )

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        # The transform tables hold per-parameter closures pickle can't
        # serialize; everything is derived from the parameter tuple, so
        # persist only that and rebuild on load (checkpoints pickle the
        # env, which owns the space).
        return {"_params": self._params}

    def __setstate__(self, state):
        self.__init__(state["_params"])

    # -- basic introspection -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._params)

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        return self._params

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._params[self._index[name]]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def component_counts(self) -> dict[str, int]:
        """Number of parameters per component (the paper's Table 2)."""
        counts: dict[str, int] = {}
        for p in self._params:
            counts[p.component] = counts.get(p.component, 0) + 1
        return counts

    def subset(self, components: Iterable[str]) -> "ConfigurationSpace":
        """A new space containing only the given components' parameters."""
        wanted = set(components)
        params = [p for p in self._params if p.component in wanted]
        if not params:
            raise ValueError(f"no parameters for components {sorted(wanted)}")
        return ConfigurationSpace(params)

    # -- dict <-> vector -----------------------------------------------------

    def defaults(self) -> dict[str, Any]:
        """The framework-default configuration as a dict."""
        return dict(self._defaults)

    def default_vector(self) -> np.ndarray:
        """The default configuration encoded into [0,1]^d."""
        return self._default_vector.copy()

    def _check_keys(self, config: Mapping[str, Any]) -> None:
        unknown = set(config) - self._name_set
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        missing = self._name_set - set(config)
        if missing:
            raise KeyError(f"missing parameters: {sorted(missing)}")

    def _check_unit_cube(self, mat: np.ndarray) -> None:
        """Reject coordinates outside [0,1] with the scalar path's error."""
        bad = ~((mat >= 0.0) & (mat <= 1.0))
        if bad.any():
            first = float(mat.ravel()[int(np.argmax(bad.ravel()))])
            raise ValueError(f"encoded value must lie in [0,1], got {first}")

    def _normalize(self, out: np.ndarray) -> np.ndarray:
        """In-place: raw numeric columns of ``out`` -> [0,1] coordinates."""
        lc = self._lin_cols
        if lc.size:
            v = np.clip(out[..., lc], self._lin_low, self._lin_high)
            out[..., lc] = (v - self._lin_low) / self._lin_span
        gc = self._log_cols
        if gc.size:
            v = np.clip(out[..., gc], self._log_low, self._log_high)
            out[..., gc] = (np.log(v) - self._log_log_low) / self._log_denom
        return out

    def _linearize(self, mat: np.ndarray) -> np.ndarray:
        """[0,1] coordinates -> raw decoded values (affine + exp on logs)."""
        lin = self._dec_a * mat + self._dec_b
        gc = self._log_cols
        if gc.size:
            lin[..., gc] = np.exp(lin[..., gc])
        return lin

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a full configuration dict into the normalized cube.

        Missing keys raise; unknown keys raise — silent drift between the
        tuner's view and the cluster's view is a classic config-tuning bug.
        """
        self._check_keys(config)
        out = np.empty(self.dim, dtype=np.float64)
        i = 0
        for name, extract in self._extractors:
            out[i] = extract(config[name])
            i += 1
        return self._normalize(out)

    def encode_batch(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode ``n`` configuration dicts into an ``(n, dim)`` matrix.

        Row ``i`` is bit-identical to ``encode(configs[i])``.
        """
        n = len(configs)
        out = np.empty((n, self.dim), dtype=np.float64)
        for r, config in enumerate(configs):
            self._check_keys(config)
            row = out[r]
            i = 0
            for name, extract in self._extractors:
                row[i] = extract(config[name])
                i += 1
        return self._normalize(out)

    def decode(self, vector: np.ndarray) -> dict[str, Any]:
        """Decode a [0,1]^d vector into a concrete configuration dict."""
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vec.shape}")
        self._check_unit_cube(vec)
        lin = self._linearize(vec)
        return {
            name: assemble(x)
            for (name, assemble), x in zip(self._assemblers, lin)
        }

    def decode_batch(self, vectors: np.ndarray) -> list[dict[str, Any]]:
        """Decode an ``(n, dim)`` matrix into ``n`` configuration dicts.

        Entry ``i`` equals ``decode(vectors[i])`` exactly.  Assembly is
        columnar: each parameter *kind* is converted in one vectorized
        pass over its cached column set (``np.rint`` matches Python's
        banker's ``round``, ``astype(int64)`` matches ``int()``'s
        truncation on the non-negative categorical bins), then the rows
        are zipped back into dicts — ~d·n fewer interpreter calls than
        assembling per cell.
        """
        mat = self._check_matrix(vectors)
        lin = self._linearize(mat)
        columns: list[list] = [None] * self.dim  # type: ignore[list-item]
        for c, _ in self._dec_float:
            columns[c] = lin[:, c].tolist()
        if self._dec_int_idx.size:
            ints = np.clip(
                np.rint(lin[:, self._dec_int_idx]),
                self._dec_int_lo,
                self._dec_int_hi,
            ).astype(np.int64)
            for j, c in enumerate(self._dec_int_idx):
                columns[c] = ints[:, j].tolist()
        for c, _ in self._dec_bool:
            columns[c] = (lin[:, c] >= 0.5).tolist()
        for c, _, choices, last, _arr in self._dec_cat:
            idx = np.minimum(lin[:, c].astype(np.int64), last)
            columns[c] = [choices[k] for k in idx.tolist()]
        names = self._names
        return [dict(zip(names, row)) for row in zip(*columns)]

    def decode_columns(self, vectors: np.ndarray) -> dict[str, np.ndarray]:
        """Decode an ``(n, dim)`` matrix into typed per-parameter columns.

        Stays fully in numpy — no per-row dicts — for consumers that only
        need columns: float64 for floats, int64 for ints, bool for flags,
        unicode for categoricals.  Column values match :meth:`decode`.
        """
        mat = self._check_matrix(vectors)
        lin = self._linearize(mat)
        cols: dict[str, np.ndarray] = {}
        for c, name in self._dec_float:
            cols[name] = lin[:, c].copy()
        if self._dec_int_idx.size:
            ints = np.clip(
                np.rint(lin[:, self._dec_int_idx]),
                self._dec_int_lo,
                self._dec_int_hi,
            ).astype(np.int64)
            for j, name in enumerate(self._dec_int_names):
                cols[name] = ints[:, j]
        for c, name in self._dec_bool:
            cols[name] = lin[:, c] >= 0.5
        for c, name, _choices, last, arr in self._dec_cat:
            idx = np.minimum(lin[:, c].astype(np.int64), last)
            cols[name] = arr[idx]
        return cols

    def _check_matrix(self, vectors: np.ndarray) -> np.ndarray:
        mat = np.asarray(vectors, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {mat.shape}"
            )
        self._check_unit_cube(mat)
        return mat

    def clip_vector(self, vector: np.ndarray) -> np.ndarray:
        """Clamp a raw action into [0,1]^d (out-of-range explorations)."""
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vec.shape}")
        return np.clip(vec, 0.0, 1.0)

    def clip_config(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """Clamp each concrete value into its legal range.

        Used for hardware adaptability (§5.3.2): a model trained on a
        larger cluster may recommend values outside the new environment's
        scope, which must be clipped to the boundary.
        """
        return {p.name: p.clip(config[p.name]) for p in self._params}

    # -- sampling ------------------------------------------------------------

    def sample_vector(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform sample from the normalized cube."""
        return rng.uniform(0.0, 1.0, size=self.dim)

    def sample_vectors(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` uniform samples, shape ``(n, dim)``."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return rng.uniform(0.0, 1.0, size=(n, self.dim))

    def sample_config(self, rng: np.random.Generator) -> dict[str, Any]:
        """One uniform concrete configuration."""
        return self.decode(self.sample_vector(rng))

    def latin_hypercube(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Latin-hypercube sample of ``n`` vectors — space-filling starts
        for OtterTune's GP and for the BestConfig-style baseline."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        u = (rng.permuted(
            np.tile(np.arange(n, dtype=np.float64)[:, None], (1, self.dim)),
            axis=0,
        ) + rng.uniform(0.0, 1.0, size=(n, self.dim))) / n
        return u
