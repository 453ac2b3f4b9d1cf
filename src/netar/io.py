"""File formats and serialization.

All writers go through an atomic temp-file-plus-rename so interrupted
runs never leave half-written reports, and JSON files are strict.
Numeric tables are rectangular and finite.  Column orders are fixed:

network (long CSV)    t,i,j,w        1-based vertex indices; absent
                                     entries are zero; the (d, d) entry
                                     is always written so the dimension
                                     and time coverage are recoverable
network (dense JSON)  array of {"t": int, "rows": [[...]]}
series CSV            t,x1,...,xd
panel levels CSV      t,<label>,...  t like 1980Q1, contiguous quarters
panel trade CSV       <any>,<label>,...  one labeled row per entity
ACF CSV               h,i,j,gamma,se
forecast CSV          h,component,point[,truth,error]
coupling CSV          j,delta,se

Network and series writers label times from 0, a snapshot's or column's
position; readers accept any consecutive integer labels and keep the order.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Union

import numpy as np

from .estimate import ComponentFit, ModelFit
from .model import InnovationSpec, LnarSpec, NarSpec
from .netdyn import (
    AdjacencySeries,
    FlipNetwork,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    generate_density_matched_markov,
)

__all__ = [
    "atomic_open",
    "fmt",
    "write_adjacency_csv",
    "read_adjacency_csv",
    "write_adjacency_json",
    "read_adjacency_json",
    "write_series_csv",
    "read_series_csv",
    "model_spec_to_json",
    "model_spec_from_json",
    "write_model_spec",
    "read_model_spec",
    "fit_to_json",
    "fit_from_json",
    "write_fit_json",
    "read_fit_json",
    "write_acf_csv",
    "write_forecast_csv",
    "write_coupling_csv",
    "write_decay_json",
]


def fmt(x: float) -> str:
    """Lossless, platform-stable float formatting for data files."""
    return format(float(x), ".17g")


@contextmanager
def atomic_open(path):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, doc, indent=2) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=indent, allow_nan=False)
        fh.write("\n")


def _read_json(path):
    """The JSON document in ``path``.  A decoding error names the file as an OSError
    does, in its ``filename``, so the CLI reports both kinds alike."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            exc.filename = os.fspath(path)
            raise


def _read_table(path, what: str, row: str):
    """Header, first-column labels and float cells of a table, blank lines skipped.

    Errors name the table ``what`` and a row label formatted by ``row``, e.g.
    ``"quarter {}"``: an empty table, a row not as wide as the header, a bad cell."""
    with open(path, newline="") as fh:
        header, *body = [r for r in csv.reader(fh) if r] or [[]]
    if not body:
        raise ValueError(f"empty {what} file")
    cells = np.empty((len(body), len(header) - 1))
    for k, r in enumerate(body):
        if len(r) != len(header):
            raise ValueError(f"{what} file: {row.format(r[0])} has {len(r)} cells, "
                             f"the header {len(header)}")
        for c, v in enumerate(r[1:]):
            try:
                cells[k, c] = float(v)
            except ValueError:
                raise ValueError(f"non-numeric {what} cell in {row.format(r[0])}, "
                                 f"column {header[c + 1]}: {v!r}") from None
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        k, c = bad[0]
        raise ValueError(f"non-finite {what} cell in {row.format(body[k][0])}, "
                         f"column {header[c + 1]}")
    return header, [r[0] for r in body], cells


# --- dynamic networks ------------------------------------------------------

def write_adjacency_csv(path, ads: AdjacencySeries) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["t", "i", "j", "w"])
        d = ads.d
        for t, m in enumerate(ads.mats):
            for i, j in zip(*np.nonzero(m)):
                w.writerow([t, i + 1, j + 1, fmt(m[i, j])])
            if m[d - 1, d - 1] == 0:
                # anchor row: keeps d and the time range recoverable
                w.writerow([t, d, d, fmt(m[d - 1, d - 1])])


def read_adjacency_csv(path) -> AdjacencySeries:
    entries = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)  # an empty file falls through to "empty network file"
        if header not in (None, ["t", "i", "j", "w"]):
            raise ValueError(f"unexpected network CSV header {header}")
        for row in r:
            if not row:
                continue
            where = f"network CSV line {r.line_num}"
            if len(row) != 4:
                raise ValueError(f"{where}: expected 4 cells t,i,j,w, found {len(row)}")
            try:
                t, i, j, wt = int(row[0]), int(row[1]), int(row[2]), float(row[3])
            except ValueError:
                raise ValueError(f"{where}: t, i, j must be integers and w a number, "
                                 f"found {row}") from None
            if min(i, j) < 1:
                raise ValueError(f"{where}: vertex indices start at 1, found ({i}, {j})")
            entries.append((t, i, j, wt))
    if not entries:
        raise ValueError("empty network file")
    ts = sorted({e[0] for e in entries})
    t0, t_end = ts[0], ts[-1]
    if ts != list(range(t0, t_end + 1)):
        raise ValueError("network time indices must be contiguous")
    d = max(max(e[1] for e in entries), max(e[2] for e in entries))
    mats = np.zeros((t_end - t0 + 1, d, d))
    for t, i, j, wt in entries:
        mats[t - t0, i - 1, j - 1] = wt
    return AdjacencySeries(mats)


def write_adjacency_json(path, ads: AdjacencySeries) -> None:
    _write_json(path, [{"t": t, "rows": np.asarray(m, dtype=float).tolist()}
                       for t, m in enumerate(ads.mats)], indent=None)


def read_adjacency_json(path) -> AdjacencySeries:
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ValueError('network JSON must be a list of {"t", "rows"} snapshots')
    if not doc:
        raise ValueError("empty network file")
    snaps = []
    for k, e in enumerate(doc):
        t = e.get("t") if isinstance(e, dict) else None
        if type(t) is not int:
            raise ValueError(f"network JSON entry {k}: t must be an integer, found {t!r}")
        try:
            m = np.array(e.get("rows"), dtype=float, ndmin=1)
        except (TypeError, ValueError):  # ragged or non-numeric rows
            m = np.empty(0)
        d = len(snaps[0][1] if snaps else m)
        if m.shape != (d, d):
            raise ValueError(f"network snapshot t={t}: rows must form a square numeric matrix "
                             "as large as every other snapshot")
        snaps.append((t, m))
    ts, mats = zip(*sorted(snaps, key=lambda s: s[0]))
    if list(ts) != list(range(ts[0], ts[-1] + 1)):
        raise ValueError("network time indices must be contiguous")
    return AdjacencySeries(np.stack(mats))


def read_adjacency(path) -> AdjacencySeries:
    p = os.fspath(path)
    return read_adjacency_json(p) if p.endswith(".json") else read_adjacency_csv(p)


# --- series ----------------------------------------------------------------

def write_series_csv(path, x: np.ndarray) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{i + 1}" for i in range(d)])
        for t in range(n):
            w.writerow([t] + [fmt(v) for v in x[:, t]])


def read_series_csv(path) -> np.ndarray:
    header, ts, cells = _read_table(path, "series", "row t={}")
    if header[0] != "t":
        raise ValueError("series CSV must start with a 't' column")
    for k, t in enumerate(ts):
        if not (t.removeprefix("-").isdecimal() and int(t) == int(ts[0]) + k):
            raise ValueError(f"series file: row t={t}: t labels must be consecutive integers")
    return cells.T


# --- model specifications ---------------------------------------------------

def _sigma_to_json(sigma: np.ndarray) -> dict:
    d = sigma.shape[0]
    if np.array_equal(sigma, np.eye(d)):
        return {"kind": "identity", "d": d}
    if np.array_equal(sigma, np.diag(np.diag(sigma))):
        return {"kind": "diagonal", "values": np.diag(sigma).tolist()}
    banded = np.diag(np.diag(sigma)) + np.diag(np.diag(sigma, 1), 1) + np.diag(np.diag(sigma, 1), -1)
    if np.array_equal(sigma, banded):
        return {"kind": "banded1", "main": np.diag(sigma).tolist(),
                "off1": np.diag(sigma, 1).tolist()}
    return {"kind": "full", "values": sigma.tolist()}


def _sigma_from_json(doc: dict) -> np.ndarray:
    kind = doc["kind"]
    scale = float(doc.get("scale", 1.0))
    if kind == "identity":
        return scale * np.eye(int(doc["d"]))
    if kind == "diagonal":
        return scale * np.diag(np.asarray(doc["values"], dtype=float))
    if kind == "banded1":
        main = np.asarray(doc["main"], dtype=float)
        off1 = np.asarray(doc["off1"], dtype=float)
        return scale * (np.diag(main) + np.diag(off1, 1) + np.diag(off1, -1))
    if kind == "full":
        return scale * np.asarray(doc["values"], dtype=float)
    raise ValueError(f"unknown sigma kind {kind!r}")


def model_spec_to_json(spec: Union[NarSpec, LnarSpec], innov: InnovationSpec) -> dict:
    doc = {
        "p": spec.p,
        "G": [g.to_json() for g in spec.G],
        "innov": {"mu": innov.mu.tolist(), "sigma": _sigma_to_json(innov.sigma)},
    }
    if isinstance(spec, NarSpec):
        doc["type"] = "nar"
        doc["A"] = [a.tolist() for a in spec.A]
    else:
        doc["type"] = "lnar"
        doc["alpha"] = spec.alpha.tolist()
        doc["beta"] = spec.beta.tolist()
    return doc


def model_spec_from_json(doc: dict):
    g = [NeighborhoodFn.from_json(e) for e in doc["G"]]
    innov = InnovationSpec(np.asarray(doc["innov"]["mu"], dtype=float),
                           _sigma_from_json(doc["innov"]["sigma"]))
    if doc["type"] == "nar":
        spec = NarSpec(doc["p"], [np.asarray(a, dtype=float) for a in doc["A"]], g)
    elif doc["type"] == "lnar":
        spec = LnarSpec(doc["p"], np.asarray(doc["alpha"], dtype=float),
                        np.asarray(doc["beta"], dtype=float), g)
    else:
        raise ValueError(f"unknown model type {doc['type']!r}")
    return spec, innov


def write_model_spec(path, spec, innov) -> None:
    _write_json(path, model_spec_to_json(spec, innov))


def read_model_spec(path):
    return model_spec_from_json(_read_json(path))


# --- network models ----------------------------------------------------------

def network_model_to_json(model) -> dict:
    if isinstance(model, MarkovEdgeNetwork):
        doc = {"kind": "markov_edges", "stay": model.stay_prob.tolist(),
               "enter": model.enter_prob.tolist()}
        if isinstance(model.initial, str):
            doc["initial"] = model.initial
        else:
            doc["initial"] = model.initial.tolist()
        return doc
    if isinstance(model, FlipNetwork):
        return {"kind": "flip", "persist_prob": model.persist_prob,
                "initial_state": model.initial}
    raise TypeError(f"cannot serialize network model {type(model).__name__}")


def network_model_from_json(doc: dict):
    kind = doc["kind"]
    if kind == "markov_edges":
        return MarkovEdgeNetwork(doc["stay"], doc["enter"], doc.get("initial", "stationary"))
    if kind == "flip":
        return FlipNetwork(float(doc.get("persist_prob", 0.95)),
                           int(doc.get("initial_state", 0)))
    if kind == "density_matched":
        return generate_density_matched_markov(int(doc["d"]), float(doc["mean_density"]),
                                               float(doc["persistence"]))
    raise ValueError(f"unknown network model kind {kind!r}")


# --- fits -------------------------------------------------------------------

def _strict_json(doc):
    """``doc`` with non-finite floats as "inf", "-inf", "nan", which JSON lacks."""
    if isinstance(doc, dict):
        return {k: _strict_json(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_strict_json(v) for v in doc]
    return str(doc) if isinstance(doc, float) and not np.isfinite(doc) else doc


def fit_to_json(fit: ModelFit) -> dict:
    return _strict_json({
        "family": fit.family,
        "p": fit.p,
        "d": fit.d,
        "g": None if fit.g is None else [g.to_json() for g in fit.g],
        "components": [
            {
                "r": c.r + 1,
                "index_set": [m + 1 for m in c.members],
                "w": c.w.tolist(),
                "mu": c.mu,
                "resid_var": c.resid_var,
                "gamma_y0": c.gamma_y0.tolist(),
                "asymp_cov": c.asymp_cov.tolist(),
                "rss": c.rss,
                "n_obs": c.n_obs,
                "ridge_jitter": c.ridge_jitter,
                "gram_cond": c.gram_cond,
            }
            for c in fit.components
        ],
    })


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not an object")
    return doc


def fit_from_json(doc) -> ModelFit:
    """The fit a file holds, built in one walk by the constructors of
    :class:`ComponentFit` and :class:`ModelFit`, which check that it is whole.

    The file numbers components and indices from 1.  Whatever breaks raises a
    ValueError that starts with ``fit file:`` and names the component and the field.
    """
    where = "the document"
    try:
        doc = _object(doc, where)
        family, p, d, g, rows = (doc[k] for k in ("family", "p", "d", "g", "components"))
        comps = []
        for pos, c in enumerate(rows):
            where = f"component {pos + 1}"
            c = _object(c, where)
            comps.append(ComponentFit(
                r=c["r"] - 1, members=[m - 1 for m in c["index_set"]], w=c["w"], mu=c["mu"],
                resid_var=c["resid_var"], gamma_y0=c["gamma_y0"], asymp_cov=c["asymp_cov"],
                rss=c["rss"], n_obs=c["n_obs"], ridge_jitter=c.get("ridge_jitter", 0.0),
                gram_cond=c.get("gram_cond", 1.0)))
        where = "g"
        fns = None if g is None else list(g)
        for j, e in enumerate(fns or ()):
            where = f"g[{j}]"
            try:
                fns[j] = NeighborhoodFn.from_json(e)
            except ValueError as exc:  # a descriptor's message names no field
                raise ValueError(f"{where}: {exc}") from None
        return ModelFit(family=family, p=p, d=d, g=None if fns is None else tuple(fns),
                        components=comps)
    except KeyError as exc:
        raise ValueError(f"fit file: {where} has no {exc}") from None
    except TypeError as exc:  # a part of the wrong JSON type
        raise ValueError(f"fit file: {where}: {exc}") from None
    except ValueError as exc:  # a constructor's message names the component and the field
        raise ValueError(f"fit file: {exc}") from None


def write_fit_json(path, fit: ModelFit) -> None:
    _write_json(path, fit_to_json(fit))


def read_fit_json(path) -> ModelFit:
    return fit_from_json(_read_json(path))


# --- analysis outputs --------------------------------------------------------

def write_acf_csv(path, acf) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["h", "i", "j", "gamma", "se"])
        d = acf.d
        for hi, h in enumerate(acf.lags):
            for i in range(d):
                for j in range(d):
                    se = "" if acf.se is None else fmt(acf.se[hi][i, j])
                    w.writerow([int(h), i + 1, j + 1, fmt(acf.gamma[hi][i, j]), se])


def write_forecast_csv(path, fcset) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        has_truth = fcset.errors is not None
        header = ["h", "component", "point"] + (["truth", "error"] if has_truth else [])
        w.writerow(header)
        d, h = fcset.points.shape
        for s in range(h):
            for r in range(d):
                row = [s + 1, r + 1, fmt(fcset.points[r, s])]
                if has_truth:
                    err = fcset.errors[r, s]
                    row += [fmt(fcset.points[r, s] + err), fmt(err)]
                w.writerow(row)


def write_coupling_csv(path, run) -> None:
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["j", "delta", "se"])
        for j, delta, se in zip(run.lags, run.delta, run.se):
            w.writerow([int(j), fmt(delta), fmt(se)])


def write_decay_json(path, run) -> None:
    _write_json(path, _strict_json({
        "q": run.q,
        "max_lag": int(run.lags[-1]),
        "delta_total": run.delta_total,
        "tail_value": run.tail_value,
        "decay_ratio": run.decay_ratio,
        "decay_r2": run.decay_r2,
    }))
