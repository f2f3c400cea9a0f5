"""Text formats for matrices and model files.

Matrix format: a "rows cols" line followed by rows*cols whitespace-separated
rational tokens. Model format: a "d q a b" header line, then either one
"phi: ..." line (the model is rebuilt from parameters) or one matrix block
each labeled "A:" and "Astar:" (the pair is imported as-is and only
verified); a second definition is a parse error. Blank lines and "#"
comments are ignored.
"""

from __future__ import annotations

from .linalg import Matrix
from .model import TDModel, assemble_imported, build_model
from .scalars import ParameterError, ParamSet, format_scalar, parse_scalar


class ModelIOError(ValueError):
    """Parse failure with a line-number diagnostic."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def format_matrix(m: Matrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(format_scalar(e) for e in row) for row in m.entries)
    return "\n".join(lines)


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix text format from a string."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ParameterError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParameterError(f"bad matrix header {tokens[:2]}") from None
    body = tokens[2:]
    if rows < 1 or cols < 1:
        raise ParameterError("matrix dimensions must be positive")
    if len(body) != rows * cols:
        raise ParameterError(f"expected {rows * cols} entries, got {len(body)}")
    values = [parse_scalar(t) for t in body]
    return Matrix([values[r * cols : (r + 1) * cols] for r in range(rows)])


def _content_lines(text: str):
    """Yield (line_number, stripped_content) skipping blanks and comments."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


def _is_label(line: str) -> bool:
    """True for a line that starts a matrix block or the phi sequence."""
    return line in ("A:", "Astar:") or line.startswith("phi:")


def export_model(model: TDModel, path: str) -> None:
    """Write a model file; constructed models round-trip through their parameters."""
    p = model.params
    header = f"{p.d} {format_scalar(p.q)} {format_scalar(p.a)} {format_scalar(p.b)}"
    if model.constructed:
        phi = " ".join(format_scalar(x) for x in p.phi)
        body = f"{header}\nphi: {phi}\n"
    else:
        body = (
            f"{header}\nA:\n{format_matrix(model.A)}\nAstar:\n{format_matrix(model.Astar)}\n"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


def import_model(path: str) -> TDModel:
    """Read a model file; rebuilds from phi or bundles an imported pair."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelIOError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    lines = list(_content_lines(text))
    if not lines:
        raise ModelIOError(path, 1, "empty model file")

    header_line, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4:
        raise ModelIOError(path, header_line, f"header must be 'd q a b', got {header!r}")
    try:
        d = int(tokens[0])
        q, a, b = (parse_scalar(t) for t in tokens[1:])
    except (ValueError, ParameterError) as exc:
        raise ModelIOError(path, header_line, str(exc)) from None

    phi = None
    blocks: dict[str, Matrix] = {}
    defined: dict[str, int] = {}  # "phi", "A", "Astar" -> line of the definition
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        if _is_label(line):
            name = "phi" if line.startswith("phi:") else line[:-1]
            for other, first in defined.items():
                if other == name or "phi" in (other, name):
                    clash = f"{name}: conflicts with the {other}: definition at line {first}"
                    raise ModelIOError(path, lineno, f"{clash}; a file has one phi: line or one A:/Astar: pair")
            defined[name] = lineno
        if line.startswith("phi:"):
            try:
                phi = tuple(parse_scalar(t) for t in line[4:].split())
            except ParameterError as exc:
                raise ModelIOError(path, lineno, str(exc)) from None
            i += 1
        elif line in ("A:", "Astar:"):
            label = line[:-1]
            if i + 1 >= len(lines):
                raise ModelIOError(path, lineno, f"matrix block {label} has no body")
            dims_lineno, dims = lines[i + 1]
            try:
                rows, cols = (int(t) for t in dims.split())
            except ValueError:
                raise ModelIOError(path, dims_lineno, f"bad matrix size line {dims!r}") from None
            # Entries may wrap across lines; collect tokens until the count
            # fits or the next block or phi line starts.
            needed = rows * cols
            body = [dims]
            j = i + 2
            while needed > 0 and j < len(lines) and not _is_label(lines[j][1]):
                chunk = lines[j][1]
                body.append(chunk)
                needed -= len(chunk.split())
                j += 1
            try:
                blocks[label] = parse_matrix("\n".join(body))
            except ParameterError as exc:
                raise ModelIOError(path, dims_lineno, str(exc)) from None
            i = j
        else:
            raise ModelIOError(path, lineno, f"unexpected line {line!r}")

    # Semantic failures (bad parameters, relation violations, shape clashes)
    # propagate as ParameterError/ModelError/ShapeError so the suite runner can
    # record them as per-target failures rather than file-format errors.
    if phi is not None:
        params = ParamSet(d, q, a, b, phi)
        return build_model(params)
    if "A" in blocks and "Astar" in blocks:
        params = ParamSet(d, q, a, b)
        return assemble_imported(params, blocks["A"], blocks["Astar"])
    raise ModelIOError(path, header_line, "model file needs a phi line or A:/Astar: blocks")
