"""Plain-text file formats: PGLS line-set files and JSON reports.

Both formats are deterministic: line sets are sorted canonically and
reports use a fixed key order, so repeated runs produce byte-identical
files and diffs stay readable.
"""

from __future__ import annotations

import json

try:  # the interpreter's own SHA-256; hashlib would load OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .gf import field
from .lineset import LineSet
from .pg import projective_space

PGLS_MAGIC = "PGLS 1"
# What a body line holds besides whitespace: coordinates and the comma.
_BODY_CHARS = frozenset("0123456789,")


def dump_lineset(ls: LineSet) -> str:
    """Serialize to the PGLS text format (round-trip byte-identical)."""
    gf = ls.space.gf
    header = [PGLS_MAGIC, f"n {ls.n}", f"q {ls.q}"]
    if gf.e > 1:
        header.append("modulus " + " ".join(str(c) for c in gf.modulus))
    body = [
        " ".join(str(c) for c in rows[0]) + ", " + " ".join(str(c) for c in rows[1])
        for rows in ls.lines
    ]
    return "\n".join(header + body) + "\n"


def load_lineset(text: str) -> LineSet:
    """Parse a PGLS file; raises ``ValueError`` on malformed input."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != PGLS_MAGIC:
        raise ValueError(f"not a PGLS file (missing {PGLS_MAGIC!r} header)")
    idx = 1
    header = {}
    while idx < len(lines) and "," not in lines[idx]:
        key, _, rest = lines[idx].partition(" ")
        if key not in ("n", "q", "modulus"):
            raise ValueError(f"unknown header field {key!r}")
        if key in header:
            raise ValueError(f"repeated header field {key!r}")
        header[key] = rest
        idx += 1
    if "n" not in header or "q" not in header:
        raise ValueError("PGLS header must declare n and q")
    n, q = int(header["n"]), int(header["q"])
    modulus = tuple(map(int, header["modulus"].split())) if "modulus" in header else None
    gf = field(q)
    if gf.e > 1:
        if modulus != gf.modulus:
            raise ValueError(
                f"modulus mismatch: file has {modulus}, GF({q}) uses {gf.modulus}"
            )
    elif modulus is not None:
        raise ValueError("modulus given for a prime field")
    body = lines[idx:]
    # int() would also take "+1", "0_1" and non-ASCII digits such as "\u0661".
    odd = {c for c in set("".join(body)).difference(_BODY_CHARS) if not c.isspace()}
    if odd:
        ln = next(ln for ln in body if not odd.isdisjoint(ln))
        raise ValueError(f"coordinates must be ASCII decimal digits: {ln!r}")
    space = projective_space(n, q)
    keys = []
    for ln in body:
        halves = ln.split(",")
        if len(halves) != 2:
            raise ValueError(f"malformed body line: {ln!r}")
        rows = []
        for half in halves:
            coords = tuple(map(int, half.split()))
            if len(coords) != n + 1:
                raise ValueError(f"expected {n + 1} coordinates: {half!r}")
            if min(coords) < 0 or max(coords) >= q:
                raise ValueError(f"coordinate out of range in {half!r}")
            rows.append(coords)
        keys.append(tuple(rows))
    ls = LineSet(space, keys)
    return ls


def input_digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def report_document(kind: str, payload: dict, source_text: str | None = None) -> dict:
    """Wrap a payload in the common report envelope."""
    doc = {
        "tool": "hexaudit",
        "version": __version__,
        "kind": kind,
    }
    if source_text is not None:
        doc["input_digest"] = input_digest(source_text)
    doc.update(payload)
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
