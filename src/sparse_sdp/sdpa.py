"""SDPA sparse-format reading and writing (single symmetric block).

Layout: optional comment lines ('*' or '"'), then the number of
constraints m, the number of blocks (must be 1 here), the block size
line (each of these three opens with its one integer; the text after
it is ignored, as in ``3 = mDIM``), the right-hand-side vector, and one
entry per line as

    matno blockno i j value

with 1-based indices on the upper triangle.  ``matno`` 0 is the
objective matrix C, ``matno`` p the constraint matrix A_p; the vector
line is b.  The file therefore encodes  min C.X  s.t.  A_p.X = b_p,
X PSD, directly in this library's convention.  A negative block size -n
declares a diagonal n x n block, which admits only entries with i = j.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SdpaParseError
from .sparsemat import SparseSymMatrix, SparseSymPattern

_PUNCT = str.maketrans({c: " " for c in "{}(),"})


def read_sdpa(path):
    """Parse a .dat-s file into (C, [A_1..A_m], b)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(no, ln.strip()) for no, ln in enumerate(raw, 1)]
    body = [(no, ln) for no, ln in lines
            if ln and not ln.startswith("*") and not ln.startswith('"')]
    if len(body) < 4:
        raise SdpaParseError(len(raw) or 1, "file ends before the header is complete")

    def header_int(no, text):
        vals = []
        for part in text.translate(_PUNCT).split():
            try:
                vals.append(int(part))
            except ValueError:
                break
        if len(vals) != 1:
            raise SdpaParseError(no, f"expected one leading integer, got {text!r}")
        return vals[0]

    (no_m, text_m), (no_nb, text_nb), (no_bs, text_bs) = body[:3]
    m = header_int(no_m, text_m)
    if m < 0:
        raise SdpaParseError(no_m, "negative constraint count")
    nblocks = header_int(no_nb, text_nb)
    if nblocks != 1:
        raise SdpaParseError(no_nb, f"only a single block is supported, got {nblocks}")
    size = header_int(no_bs, text_bs)
    n = abs(size)
    if n < 1:
        raise SdpaParseError(no_bs, "block size must be nonzero")
    diagonal = size < 0                  # SDPA's negative size: a diagonal block
    no_b, text_b = body[3]
    parts = text_b.translate(_PUNCT).split()
    try:
        b = np.asarray([float(p) for p in parts], dtype=float)
    except ValueError:
        raise SdpaParseError(no_b, f"malformed b vector {text_b!r}") from None
    if len(b) != m:
        raise SdpaParseError(no_b, f"b has {len(b)} entries, expected {m}")
    if not np.all(np.isfinite(b)):
        raise SdpaParseError(no_b, f"b vector {text_b!r} has an entry that is not finite")

    entries = [dict() for _ in range(m + 1)]   # per matrix: (row >= col) -> value
    for no, ln in body[4:]:
        parts = ln.split()
        if len(parts) != 5:
            raise SdpaParseError(no, f"entry line needs 5 fields, got {len(parts)}")
        try:
            mat = int(parts[0])
            blk = int(parts[1])
            i = int(parts[2])
            j = int(parts[3])
            val = float(parts[4])
        except ValueError:
            raise SdpaParseError(no, f"malformed entry {ln!r}") from None
        if not math.isfinite(val):
            raise SdpaParseError(no, f"entry value {parts[4]!r} is not finite")
        if not 0 <= mat <= m:
            raise SdpaParseError(no, f"matrix index {mat} out of range 0..{m}")
        if blk != 1:
            raise SdpaParseError(no, f"block index {blk} must be 1")
        if not (1 <= i <= n and 1 <= j <= n):
            raise SdpaParseError(no, f"entry ({i},{j}) outside block of size {n}")
        if diagonal and i != j:
            raise SdpaParseError(no, f"off-diagonal entry ({i},{j}) in diagonal "
                                 f"block of size {size}")
        key = (max(i, j) - 1, min(i, j) - 1)
        if key in entries[mat]:          # a zero value also counts as given
            raise SdpaParseError(no, f"duplicate entry ({i},{j})")
        entries[mat][key] = val

    empty = SparseSymPattern(n)     # shared by every matrix without off-diagonal entries
    groups = {}
    for t, given in enumerate(entries):
        edges = [key for key in given if key[0] != key[1]]
        pat = SparseSymPattern(n, edges) if edges else empty
        groups.setdefault(id(pat), (pat, []))[1].append(t)
    mats = [None] * (m + 1)
    for pat, members in groups.values():     # one array and one slots call per pattern
        keys = np.reshape([(q, *key) for q, t in enumerate(members) for key in entries[t]],
                          (-1, 3)).astype(np.int64)
        block = np.zeros((len(members), n + pat.nnz))
        block[keys[:, 0], pat.slots(keys[:, 1], keys[:, 2])] = [
            val for t in members for val in entries[t].values()]
        for t, values in zip(members, block):
            mats[t] = SparseSymMatrix(pat, values)
    return mats[0], mats[1:], b


def write_sdpa(path, c, constraints, b):
    """Write a single-block .dat-s file (upper triangle entries).

    With no constraints the b line is ``{}``: a blank line would be
    skipped on reading and the first entry taken for b.
    """
    n = c.n
    with open(path, "w") as fh:
        fh.write(f"{len(constraints)}\n1\n{n}\n")
        fh.write((" ".join(repr(float(v)) for v in b) or "{}") + "\n")
        for t, mat in enumerate([c] + list(constraints)):
            # the diagonal, then the edges by (col, row): the storage order
            rows, cols = mat.pattern.slot_ends
            for k in np.flatnonzero(mat.values).tolist():
                fh.write(f"{t} 1 {cols[k] + 1} {rows[k] + 1} {float(mat.values[k])!r}\n")
