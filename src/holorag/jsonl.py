"""The one reader of JSON-lines input: corpora, snapshot records, datasets and fixtures;
and the one writer of output files: snapshots, answer traces and eval reports.

JSON Lines (jsonlines.org) fixes UTF-8 and the ``\\n`` separator, so files are
opened in binary mode and each line is decoded here; a UTF-8 BOM opening a line is skipped.
A format 2 snapshot ends in a raw float64 matrix after its record lines; the
caller stops after the records and reads the matrix itself (`index.load_snapshot`).
Every output file is written beside its path and renamed over it (`atomic_write`).
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Tuple, Union

from .errors import CorpusParseError


def line_error(line_number: int, message: str) -> CorpusParseError:
    """A `CorpusParseError` whose message and ``line_number`` name the line."""
    return CorpusParseError(f"line {line_number}: {message}", line_number)


def json_objects(lines: Iterable[bytes], first_line: int = 1) -> Iterator[Tuple[int, dict]]:
    """Yield (line_number, object) for each nonblank line, numbered from ``first_line``.

    A line that is not UTF-8, not JSON or not a JSON object raises
    `CorpusParseError` naming the line; the caller checks the fields.
    """
    for line_number, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        try:
            data = json.loads(line.decode("utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise line_error(line_number, f"not UTF-8 ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise line_error(line_number, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(data, dict):
            raise line_error(line_number, "expected a JSON object")
        yield line_number, data


@contextmanager
def atomic_write(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """Yield a binary handle on a file beside ``path``, renamed over ``path`` on success.

    If the block raises, or is interrupted, the file is removed and any
    previous ``path`` is left intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
