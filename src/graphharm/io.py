"""Edge-list and points-CSV file formats.

Edge list: UTF-8 text, one "u v w" edge per line (w optional, default 1.0),
'#' starts a comment, blank lines are skipped, vertices are 0-indexed.
n is 1 + max vertex id unless the first data line is a header "n COUNT".

Points CSV: header row required; comma-separated float columns, one point
per row.  If the last header field is "label", that column is read as
integer labels.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .graph import EdgeError, Graph, GraphError


class ParseError(GraphError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def load_edge_list(path) -> Graph:
    us, vs, ws, linenos = [], [], [], []  # the endpoints, weight and source line of each edge
    declared_n = header_line = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if parts[0] == "n" and header_line is None and not linenos:  # the first data line
                if len(parts) != 2:
                    raise ParseError(path, lineno, "header must be 'n COUNT'")
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    raise ParseError(path, lineno, f"bad vertex count {parts[1]!r}")
                header_line = lineno
                continue
            if len(parts) not in (2, 3):
                raise ParseError(path, lineno, f"expected 'u v [w]', got {text!r}")
            try:
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(path, lineno, f"could not parse edge {text!r}")
            us.append(u)
            vs.append(v)
            ws.append(w)
            linenos.append(lineno)
    if declared_n is None:
        declared_n = 1 + max(max(us, default=-1), max(vs, default=-1))
    try:
        return Graph._from_arrays(declared_n, us, vs, np.array(ws, dtype=np.float64))  # float() made each weight
    except EdgeError as exc:
        raise ParseError(path, linenos[exc.edge], str(exc)) from exc
    except GraphError as exc:  # the vertex count: the header's, or one past the largest endpoint
        line = header_line or linenos[max(range(len(us)), key=lambda i: max(us[i], vs[i]))]
        raise ParseError(path, line, str(exc)) from exc


def save_edge_list(g: Graph, path) -> None:
    """Writes a header line so isolated trailing vertices round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for u, v, w in zip(g._u.tolist(), g._v.tolist(), g._w.tolist()):
            fh.write(f"{u} {v} {w!r}\n")


def load_points_csv(path):
    """Returns (points, labels); labels is None without a label column."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "missing header row")
        has_labels = bool(header) and header[-1].strip().lower() == "label"
        ncols = len(header)
        d = ncols - has_labels  # coordinate columns
        rows = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise ParseError(
                    path, lineno, f"expected {ncols} columns, got {len(row)}"
                )
            try:
                rows.append([float(x) for x in row[:d]])
                if has_labels:
                    labels.append(int(row[-1]))
            except ValueError:
                raise ParseError(path, lineno, f"could not parse row {row!r}")
    points = np.array(rows, dtype=np.float64).reshape(len(rows), d)
    return points, (np.array(labels, dtype=np.int64) if has_labels else None)


def save_points_csv(points, path, labels=None) -> None:
    points = np.asarray(points)
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"x{i}" for i in range(points.shape[1])]
        if labels is not None:
            cols.append("label")
        fh.write(",".join(cols) + "\n")
        for i, row in enumerate(points):
            cells = [repr(float(x)) for x in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            fh.write(",".join(cells) + "\n")


def bundled_points(name: str = "blobs300"):
    """Point dataset shipped with the package (see data/)."""
    data_dir = Path(__file__).parent / "data"
    path = data_dir / f"{name}.csv"
    if not path.exists():
        available = sorted(p.stem for p in data_dir.glob("*.csv"))
        raise GraphError(f"no bundled dataset {name!r}; available: {available}")
    return load_points_csv(path)
