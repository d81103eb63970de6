"""Rating-matrix ingestion: loading, filtering, per-user splitting,
binarization and genre tables."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .checks import is_finite, is_int
from .errors import DataError, ParameterError


def _id_sort_key(ext_id: str):
    # numeric ids sort numerically, anything else lexicographically after;
    # ids equal as numbers ("7", "07") sort by their text
    if ext_id.isdecimal():
        return (0, int(ext_id), ext_id)
    return (1, 0, ext_id)


def _read_bytes(path: str, name: str | None = None) -> bytes:
    """The bytes of a UTF-8 text file with its line ends read as text mode
    reads them: CR LF, then CR, become LF. A file that cannot be read, or
    bytes that are not UTF-8, raise DataError naming the file (``name``, by
    default its path)."""
    name = name or path
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc.strerror}") from None
    # CR and LF never occur inside a multi-byte UTF-8 character
    blob = blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{name} line {line}: not UTF-8 text") from None
    return blob


def _read_lines(path: str, name: str | None = None) -> list[str]:
    """The lines of a UTF-8 text file, as _read_bytes reads it, without their
    line ends; text after the last line end is a line of its own."""
    return _read_bytes(path, name).decode("utf-8").split("\n")


def _split_line(line: str, sep: str | None, exact: bool) -> list[str] | None:
    """The first three fields of a stripped nonblank line split at ``sep``,
    or None if it has fewer (with ``exact``, if it has other than three).
    Without ``sep`` a line holding a tab splits at tabs, else one holding a
    comma at commas, else at whitespace."""
    if sep is None:
        sep = "\t" if "\t" in line else ("," if "," in line else None)
    fields = line.split(sep)
    return fields[:3] if (len(fields) == 3 if exact else len(fields) >= 3) else None


def _plain_fields(a: np.ndarray, sep: str | None, exact: bool):
    """The line bounds of the bytes ``a`` (line k is a[starts[k]:ends[k]];
    text after the last line end is a line of its own), the plain lines and
    the bounds (lo, hi) of each one's first three fields. A line is plain
    when its bytes are printable ASCII but for a one-byte separator
    (``sep``, or without it a tab, else a comma, as _split_line picks), it
    neither starts nor ends with the separator and it has the fields
    _split_line needs. A plain line's strip is itself, so splitting its
    bytes gives _split_line's fields."""
    # a delimiter longer than one byte leaves no line plain
    seps = [9, 44] if sep is None else [ord(sep)] if len(sep) == 1 and ord(sep) < 128 else []
    special = (a - np.uint8(0x21)) > 0x5D  # outside "!".."~": line ends, tabs, spaces, non-ASCII
    for byte in seps:
        special |= a == byte
    at = np.flatnonzero(special)
    del special  # a mask as large as the file
    cls = a[at]
    is_end = cls == 10
    ends = np.append(at[is_end], a.size)
    starts = np.append(0, ends[:-1] + 1)
    # line k holds the special bytes after line k - 1's end, up to its own
    last = np.append(np.flatnonzero(is_end), at.size - 1)
    line = np.repeat(np.arange(ends.size), np.diff(last, prepend=-1))  # the line of each special byte
    is_sep = np.zeros(cls.size, dtype=bool)
    for byte in seps:
        is_sep |= cls == byte
    spoilt = np.zeros(ends.size, dtype=bool)  # lines holding a byte outside "!".."~" but a separator byte
    spoilt[line[~(is_end | is_sep)]] = True
    if sep is None:  # a line holding a tab splits at tabs only
        tabbed = np.zeros(ends.size, dtype=bool)
        tabbed[line[cls == 9]] = True
        is_sep &= (cls == 9) | ~tabbed[line]
    n_sep = np.bincount(line[is_sep], minlength=ends.size)
    del line
    at = at[is_sep]
    first = np.cumsum(n_sep) - n_sep  # each line's first separator in ``at``
    lines = np.flatnonzero(~spoilt & ((n_sep == 2) if exact else (n_sep >= 2)))
    first, n_sep = first[lines], n_sep[lines]
    plain = (at[first] != starts[lines]) & (at[first + n_sep - 1] != ends[lines] - 1)
    lines, first, n_sep = lines[plain], first[plain], n_sep[plain]
    s0, s1 = at[first], at[first + 1]
    s2 = np.where(n_sep > 2, at[np.minimum(first + 2, at.size - 1)], ends[lines])
    return starts, ends, lines, [(starts[lines], s0), (s0 + 1, s1), (s1 + 1, s2)]


def _rank(x: np.ndarray) -> np.ndarray:
    """Codes 0, 1, ... of the distinct values of x, in increasing order, for
    each element: np.unique's inverse, which costs about a third more."""
    order = np.argsort(x)
    x = x[order]
    new = np.zeros(x.size, dtype=np.intp)
    new[1:] = x[1:] != x[:-1]
    code = np.empty(x.size, dtype=np.intp)
    code[order] = np.cumsum(new)
    return code


# the low n bytes of a word, for n = 0..8
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _distinct(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A code for each byte string buf[lo[k]:hi[k]], equal exactly where the
    strings are, and one k holding each code. No string holds a zero byte,
    and buf ends in 8 spare bytes. Each string is read as little-endian
    words of 8 bytes, zero past its end; the words rank one at a time."""
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))  # the word at each offset
    code = np.zeros(lo.size, dtype=np.intp)
    for w in range(0, int((hi - lo).max(initial=0)), 8):
        rank = _rank(words[np.minimum(lo + w, buf.size - 8)] & _LOW_BYTES[np.clip(hi - lo - w, 0, 8)])
        code = rank if w == 0 else _rank(code * lo.size + rank)
    holder = np.zeros(code.max(initial=-1) + 1, dtype=np.intp)
    holder[code] = np.arange(code.size)
    return code, holder


def _read_fields(path: str, sep: str | None, exact: bool, skip_first: bool = False, name: str | None = None):
    """The first three fields of each nonblank line of a text file, as
    _read_bytes reads it and _split_line splits the line's stripped text,
    with the line numbers of the lines split, in file order. Each field
    comes as a column: its distinct texts, and each line's index into them.
    The first line _split_line refuses is returned as (line number,
    stripped text), and the lines after it are left out; it is None if
    there is none. With ``skip_first`` the first line is not read.

    Plain lines (see _plain_fields) are split on their bytes, and each
    distinct field of theirs is decoded once; each other line is decoded
    and split on its own."""
    blob = _read_bytes(path, name) + bytes(8)  # _distinct reads 8 bytes from each offset
    buf = np.frombuffer(blob, dtype=np.uint8)
    starts, ends, lines, bounds = _plain_fields(buf[:-8], sep, exact)
    others = np.ones(ends.size, dtype=bool)
    others[lines] = False
    others[:int(skip_first)] = False
    others_lines, others_fields, failure = [], [], None
    for k in np.flatnonzero(others & (ends > starts)).tolist():
        line = blob[starts[k]:ends[k]].decode("utf-8").strip()
        if not line:
            continue
        fields = _split_line(line, sep, exact)
        if fields is None:
            failure = (k + 1, line)
            break
        others_lines.append(k)
        others_fields.append(fields)
    stop = ends.size if failure is None else failure[0] - 1
    keep = (lines >= int(skip_first)) & (lines < stop)
    linenos = np.concatenate([lines[keep], np.array(others_lines, dtype=np.intp)])
    order = np.argsort(linenos, kind="stable")
    columns = []
    for c, (lo, hi) in enumerate(bounds):
        lo, hi = lo[keep], hi[keep]
        code, holder = _distinct(buf, lo, hi)
        index = {blob[x:y].decode("ascii"): j for j, (x, y) in enumerate(zip(lo[holder].tolist(), hi[holder].tolist()))}
        others_code = np.array([index.setdefault(fields[c], len(index)) for fields in others_fields], dtype=np.intp)
        columns.append((list(index), np.concatenate([code, others_code])[order]))
    return linenos[order] + 1, columns, failure


def _ratings_of(column) -> tuple[np.ndarray, np.ndarray]:
    """Each line's rating from a _read_fields column and whether its text
    reads as a number; each distinct text is read once, as ``float`` reads
    it, and one that does not read gives nan."""
    texts, code = column
    values = np.full(len(texts), np.nan)
    read = np.ones(len(texts), dtype=bool)
    for j, text in enumerate(texts):
        try:
            values[j] = float(text)
        except ValueError:
            read[j] = False
    return values[code], read[code]


@dataclass
class RatingMatrix:
    """Explicit ratings of N users on M items: ``ratings`` holds the rated
    cells of the (N, M) matrix, all ratings > 0, ordered by user, then
    item. Index maps translate dense internal indices back to external
    ids."""

    user_ids: list[str]
    item_ids: list[str]
    ratings: Cells

    def __post_init__(self):
        if self.n_users == 0 or self.n_items == 0:
            raise DataError("rating matrix must contain at least one user and one item")
        # user u's cells are _starts[u]:_starts[u + 1]
        self._starts = np.searchsorted(self.ratings.rows, np.arange(self.n_users + 1))

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_entries(self) -> int:
        return self.ratings.values.size

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """User u's rated items, increasing, and their ratings."""
        cells = slice(self._starts[u], self._starts[u + 1])
        return self.ratings.cols[cells], self.ratings.values[cells]

    def cells(self, users) -> Cells:
        """The cells of ``users`` as a (len(users), M) matrix whose row b is
        user users[b], ordered by row, then item."""
        users = np.asarray(users, dtype=np.intp)
        lo = self._starts[users]
        n = self._starts[users + 1] - lo
        take = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)  # row b's j-th: lo[b] + j
        return Cells(np.repeat(np.arange(n.size), n), self.ratings.cols[take], self.ratings.values[take],
                     (n.size, self.n_items))

    def dense(self, users: np.ndarray | None = None) -> np.ndarray:
        return self.cells(np.arange(self.n_users) if users is None else users).dense()


@dataclass
class Cells:
    """The nonzero cells of a (rows, columns) matrix as aligned lists of
    row, column and value. No cell repeats."""

    rows: np.ndarray  # (cells,) ints
    cols: np.ndarray  # (cells,) ints
    values: np.ndarray  # (cells,) floats
    shape: tuple[int, int]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


@dataclass
class BinaryMatrix:
    """The cells of a (rows, columns) matrix that hold 1, as aligned lists of
    row and column; every other cell holds 0."""

    rows: np.ndarray  # (cells,) ints
    cols: np.ndarray  # (cells,) ints
    shape: tuple[int, int]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = 1.0
        return out


def binarize(cells: Cells, min_rating: float | None = None) -> BinaryMatrix:
    """The implicit form of rating cells: every cell observed, or with
    min_rating set only the cells at or above it (positives-only intent
    input). Cells keep their order."""
    if min_rating is None:
        return BinaryMatrix(cells.rows, cells.cols, cells.shape)
    keep = cells.values >= min_rating
    return BinaryMatrix(cells.rows[keep], cells.cols[keep], cells.shape)


@dataclass
class ItemBatch:
    """A batch of users restricted to an increasing item list U that holds
    every item they rated (item_batch builds it as the union of their rated
    items): row b is the batch's b-th user, column c is item ``items[c]``,
    and every item outside U is zero in every row. Cells are ordered by row,
    then column."""

    items: np.ndarray  # U, (|U|,) increasing item indices
    ratings: Cells  # (B, |U|)
    binary: BinaryMatrix  # (B, |U|), the intent input


def item_batch(ratings: RatingMatrix, users, min_rating: float | None) -> ItemBatch:
    """Rating cells of ``users`` over their item union, and the binary
    cells binarize keeps of them under min_rating."""
    c = ratings.cells(users)
    in_union = np.zeros(ratings.n_items, dtype=bool)
    in_union[c.cols] = True
    items = np.flatnonzero(in_union)
    column = np.empty(ratings.n_items, dtype=np.intp)  # item -> its column in U
    column[items] = np.arange(items.size)
    r = Cells(c.rows, column[c.cols], c.values, (c.shape[0], items.size))
    return ItemBatch(items, r, binarize(r, min_rating))


def _rating_matrix(user_ids: list[str], item_ids: list[str], users, items, values, where,
                   keep_last: bool) -> RatingMatrix:
    """The RatingMatrix of entries (users[k], items[k], values[k]) given in
    source order, as indices into the id lists. Every rating must be a
    positive finite number. A repeated (user, item) pair keeps its last
    rating when keep_last is set and is an error otherwise. ``where(k)``
    names entry k's place in the source for an error."""
    users = np.asarray(users, dtype=np.intp)
    items = np.asarray(items, dtype=np.intp)
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        raise DataError(f"{where(bad[0])}: ratings must be positive finite numbers, got {values[bad[0]]}")
    pairs = users * len(item_ids) + items
    order = np.argsort(pairs, kind="stable")  # a repeated pair's entries stay in source order
    last = np.ones(pairs.size, dtype=bool)  # an entry whose pair the next one does not repeat
    last[:-1] = pairs[order][1:] != pairs[order][:-1]
    if not (keep_last or last.all()):
        k = order[np.flatnonzero(~last) + 1].min()
        raise DataError(f"{where(k)}: user {user_ids[users[k]]!r} rates item {item_ids[items[k]]!r} twice")
    order = order[last]
    return RatingMatrix(user_ids, item_ids,
                        Cells(users[order], items[order], values[order], (len(user_ids), len(item_ids))))


def _bad_id(ext_id: str) -> str | None:
    """Why an external id cannot be written to a prepared directory, whose
    files hold one id per line and tab-separated ids, or None if it can."""
    if not ext_id:
        return "empty user or item id"
    if ext_id != ext_id.strip() or "\t" in ext_id or "\n" in ext_id or "\r" in ext_id:
        return f"id {ext_id!r} has a tab, a line break or surrounding whitespace"
    return None


def _matrix_from_codes(names: tuple, codes: tuple, values, where,
                       strip: bool) -> RatingMatrix:
    """_rating_matrix over entries given by code: entry k rates user
    ``codes[0][k]``, the position of its name in ``names[0]``, and item
    ``codes[1][k]`` likewise. Each distinct name is stripped (if ``strip``),
    checked with _bad_id and placed in sorted order (numeric ids
    numerically, ties by text) once; the last of repeated pairs wins. An id
    _bad_id rejects raises DataError naming the first entry that holds one."""
    ids, index, bad = [], [], []
    for side, side_codes in zip(names, codes):
        side_names = [x.strip() for x in side] if strip else list(side)
        side_ids = sorted(set(side_names), key=_id_sort_key)
        position = {x: k for k, x in enumerate(side_ids)}
        ids.append(side_ids)
        index.append(np.array([position[x] for x in side_names], dtype=np.intp)[side_codes])
        bad.append(np.array([_bad_id(x) is not None for x in side_ids], dtype=bool))
    holds_bad = bad[0][index[0]] | bad[1][index[1]]
    if holds_bad.any():
        k = int(np.argmax(holds_bad))
        raise DataError(f"{where(k)}: {_bad_id(ids[0][index[0][k]]) or _bad_id(ids[1][index[1][k]])}")
    return _rating_matrix(ids[0], ids[1], index[0], index[1], values, where, keep_last=True)


def load_ratings(path: str, delimiter: str | None = None, skip_header: bool = False) -> RatingMatrix:
    """Parse a delimiter-separated user,item,rating[,timestamp] file.

    Duplicate (user, item) pairs keep the last occurrence. External ids map
    to dense indices in sorted order (numeric ids numerically).
    """
    if delimiter == "":
        raise ParameterError("the delimiter must not be empty")
    linenos, (users, items, ratings), failure = _read_fields(path, delimiter, False, skip_header)
    values, read = _ratings_of(ratings)
    if not read.all():
        k = int(np.argmin(read))
        raise DataError(f"line {linenos[k]}: rating {ratings[0][ratings[1][k]].strip()!r} is not a number")
    if failure is not None:
        raise DataError(f"line {failure[0]}: expected user,item,rating[,timestamp], got {failure[1]!r}")
    if not values.size:
        raise DataError(f"no ratings parsed from {path}")
    return _matrix_from_codes((users[0], items[0]), (users[1], items[1]), values,
                              lambda k: f"line {linenos[k]}", strip=True)


def matrix_from_triples(triples) -> RatingMatrix:
    """Build a RatingMatrix from (user, item, rating) triples in memory;
    same semantics as load_ratings (last duplicate wins, sorted id maps),
    except that ids are not stripped."""
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    users, items, values = [], [], []
    for u, i, r in triples:
        users.append(user_code.setdefault(str(u), len(user_code)))
        items.append(item_code.setdefault(str(i), len(item_code)))
        values.append(float(r))
    if not values:
        raise DataError("no triples provided")
    return _matrix_from_codes((user_code, item_code), (users, items), values,
                              lambda k: f"triple ({list(user_code)[users[k]]!r}, {list(item_code)[items[k]]!r})",
                              strip=False)


def filter_min_interactions(m: RatingMatrix, min_count: int) -> RatingMatrix:
    """Drop users with fewer than min_count observed items, then drop items
    left with no interactions; indices are re-densified."""
    if min_count < 1:
        raise ParameterError(f"min_count must be >= 1, got {min_count}")
    c = m.ratings
    keep_user = np.diff(m._starts) >= min_count
    if not keep_user.any():
        raise DataError(f"no users have >= {min_count} interactions; lower the threshold")
    keep = keep_user[c.rows]
    keep_item = np.bincount(c.cols[keep], minlength=m.n_items) > 0
    # a kept user or item's new index is the number kept before it
    user_remap, item_remap = np.cumsum(keep_user) - 1, np.cumsum(keep_item) - 1
    return RatingMatrix(list(compress(m.user_ids, keep_user)), list(compress(m.item_ids, keep_item)),
                        Cells(user_remap[c.rows[keep]], item_remap[c.cols[keep]], c.values[keep],
                              (int(keep_user.sum()), int(keep_item.sum()))))


@dataclass
class SplitDataset:
    """Per-user disjoint train/validation/test matrices sharing one index
    space, plus the split provenance. A part that load_split was not asked
    to read is None."""

    train: RatingMatrix
    valid: RatingMatrix | None
    test: RatingMatrix | None
    seed: int
    fractions: tuple[float, float, float]
    rating_threshold: float = 4.0


def split_per_user(
    m: RatingMatrix,
    seed: int,
    fractions: tuple[float, float, float] = (0.6, 0.1, 0.3),
    rating_threshold: float = 4.0,
) -> SplitDataset:
    """Partition each user's observed items at random into train/valid/test.

    Rounding: floor(f_valid * n) validation items, floor(f_test * n) test
    items, remainder to train, which guarantees a nonempty training row.
    """
    if not (all(0.0 <= f <= 1.0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ParameterError(f"fractions must lie in [0, 1] and sum to 1, got {fractions}")
    if not is_finite(rating_threshold):
        raise ParameterError(f"rating_threshold must be a finite number, got {rating_threshold}")
    if not (is_int(seed) and seed >= 0):
        raise ParameterError(f"seed must be >= 0 and an integer, got {seed}")
    c = m.ratings
    n = np.diff(m._starts)
    n_va = np.floor(fractions[1] * n).astype(np.intp)
    n_tr = n - n_va - np.floor(fractions[2] * n).astype(np.intp)
    if np.any(n_tr < 1):
        u = int(np.argmax(n_tr < 1))
        raise DataError(f"user {m.user_ids[u]!r} has too few items ({n[u]}) for a nonempty training split")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 1717])))
    place = np.empty(c.values.size, dtype=np.intp)  # each cell's place in its user's permutation
    for u in range(m.n_users):
        place[m._starts[u] + rng.permutation(n[u])] = np.arange(n[u])
    # the first n_tr places train, the next n_va validate, the rest test
    part = (place >= n_tr[c.rows]).astype(np.intp) + (place >= (n_tr + n_va)[c.rows])
    parts = [RatingMatrix(list(m.user_ids), list(m.item_ids), Cells(c.rows[k], c.cols[k], c.values[k], c.shape))
             for k in (part == 0, part == 1, part == 2)]
    return SplitDataset(*parts, int(seed), tuple(fractions), rating_threshold)


@dataclass
class GenreTable:
    """External item id -> nonempty set of genre labels."""

    genres: dict[str, frozenset[str]]

    @classmethod
    def load(cls, path: str) -> "GenreTable":
        table: dict[str, frozenset[str]] = {}
        for lineno, raw in enumerate(_read_lines(path), start=1):
            line = raw.strip()
            if not line:
                continue
            if "|" not in line:
                raise DataError(f"line {lineno}: expected item_id|genre1,genre2, got {line!r}")
            item, labels = line.split("|", 1)
            labels = frozenset(g.strip() for g in labels.split(",") if g.strip())
            if not labels:
                raise DataError(f"line {lineno}: item {item!r} has an empty genre set")
            table[item.strip()] = labels
        if not table:
            raise DataError(f"no genres parsed from {path}")
        return cls(table)

    def for_items(self, item_ids: list[str]) -> list[frozenset[str]]:
        """Genre sets aligned to a list of external item ids; items missing
        from the table get empty sets."""
        return [self.genres.get(ext, frozenset()) for ext in item_ids]

    def for_matrix(self, m: RatingMatrix) -> list[frozenset[str]]:
        """Genre sets aligned to the matrix's internal item indices."""
        return self.for_items(m.item_ids)


_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def save_split(ds: SplitDataset, out_dir: str, extra_manifest: list[str] | None = None) -> str:
    """Serialize a SplitDataset: id maps, three rating files, text manifest.

    Output is byte-deterministic for a given dataset (no timestamps).
    Returns the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "users.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(ds.train.user_ids) + "\n")
    with open(os.path.join(out_dir, "items.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(ds.train.item_ids) + "\n")
    # each line is three pieces, "user\t", "item\t" and "rating\n", each
    # formatted once per distinct user, item or rating
    user_tab = np.array([f"{x}\t" for x in ds.train.user_ids], dtype=object)
    item_tab = np.array([f"{x}\t" for x in ds.train.item_ids], dtype=object)
    for name, fname in _SPLIT_FILES.items():
        c = getattr(ds, name).ratings
        distinct, which = np.unique(c.values, return_inverse=True)
        pieces = np.empty((c.values.size, 3), dtype=object)
        pieces[:, 0], pieces[:, 1] = user_tab[c.rows], item_tab[c.cols]
        pieces[:, 2] = np.array([f"{r!r}\n" for r in distinct.tolist()], dtype=object)[which]
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write("".join(pieces.ravel().tolist()))
    lines = [
        "split manifest",
        f"seed: {ds.seed}",
        f"fractions: {ds.fractions[0]}/{ds.fractions[1]}/{ds.fractions[2]}",
        f"rating_threshold: {ds.rating_threshold}",
        f"users: {ds.train.n_users}",
        f"items: {ds.train.n_items}",
        f"train_entries: {ds.train.n_entries}",
        f"valid_entries: {ds.valid.n_entries}",
        f"test_entries: {ds.test.n_entries}",
        "candidate_policy: rank over all items in the item map; test items outside it are ignored",
    ]
    if extra_manifest:
        lines.extend(extra_manifest)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def _read_ids(in_dir: str, fname: str) -> tuple[list[str], dict[str, int]]:
    """The ids of an id map file, one per nonblank line, and their indices.
    Each id must be one _bad_id accepts, as save_split writes only those."""
    ids: list[str] = []
    index: dict[str, int] = {}
    for lineno, ext_id in enumerate(_read_lines(os.path.join(in_dir, fname), fname), start=1):
        if not ext_id.strip():
            continue
        why = _bad_id(ext_id)
        if why is not None:
            raise DataError(f"{fname} line {lineno}: {why}")
        if ext_id in index:
            raise DataError(f"{fname} line {lineno}: id {ext_id!r} is listed twice")
        index[ext_id] = len(ids)
        ids.append(ext_id)
    return ids, index


def _require_files(in_dir: str, fnames) -> None:
    for fname in ["users.txt", "items.txt", "manifest.txt", *fnames]:
        if not os.path.exists(os.path.join(in_dir, fname)):
            raise DataError(f"prepared dataset is missing {fname} in {in_dir}")


def load_ids(in_dir: str) -> tuple[list[str], list[str]]:
    """The user and item ids of a directory written by save_split, for a
    command that needs no ratings; no rating file is read, and manifest.txt
    must exist but is not parsed."""
    _require_files(in_dir, [])
    return _read_ids(in_dir, "users.txt")[0], _read_ids(in_dir, "items.txt")[0]


# each key load_split reads from manifest.txt: its parser, the test of the
# parsed value, and what the value must be
_MANIFEST_KEYS = {
    "seed": (int, lambda v: True, "an integer"),
    "fractions": (lambda text: tuple(float(x) for x in text.split("/")), lambda v: len(v) == 3,
                  "three numbers a/b/c"),
    "rating_threshold": (float, is_finite, "a finite number"),
}


def _read_manifest(in_dir: str) -> list:
    """The seed, fractions and rating threshold of a prepared directory's
    manifest.txt, in that order. Each key is required; a missing key or a
    value that does not read raises DataError naming it."""
    found = {}
    for lineno, line in enumerate(_read_lines(os.path.join(in_dir, "manifest.txt"), "manifest.txt"), start=1):
        key, sep, text = line.partition(":")
        if sep and key in _MANIFEST_KEYS:
            found[key] = (lineno, text.strip())
    out = []
    for key, (parse, accepts, what) in _MANIFEST_KEYS.items():
        if key not in found:
            raise DataError(f"manifest.txt: {key} missing")
        lineno, text = found[key]
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise DataError(f"manifest.txt line {lineno}: {key} needs {what}, got {text!r}")
        out.append(value)
    return out


def load_split(in_dir: str, parts: tuple[str, ...] = tuple(_SPLIT_FILES)) -> SplitDataset:
    """Reload a directory written by save_split, preserving the shared index
    space (users/items present only in valid/test stay addressable). Only
    the rating files of ``parts``, which must include train, are read; a
    part not read is None. Every malformed line of a file read raises
    DataError naming its file and line."""
    if "train" not in parts or not set(parts) <= set(_SPLIT_FILES):
        raise ParameterError(f"parts must include 'train' and name only {sorted(_SPLIT_FILES)}, got {parts}")
    _require_files(in_dir, [_SPLIT_FILES[p] for p in parts])
    users, umap = _read_ids(in_dir, "users.txt")
    items, imap = _read_ids(in_dir, "items.txt")

    def read_matrix(fname: str) -> RatingMatrix:
        linenos, columns, failure = _read_fields(os.path.join(in_dir, fname), "\t", True, name=fname)
        values, read = _ratings_of(columns[2])
        user_idx, item_idx = (np.array([index.get(x, -1) for x in texts], dtype=np.intp)[code]
                              for index, (texts, code) in zip((umap, imap), columns))
        bad = ~read | (user_idx < 0) | (item_idx < 0)
        if bad.any():
            k = int(np.argmax(bad))
            u, i, r = (texts[code[k]] for texts, code in columns)
            if read[k]:
                raise DataError(f"{fname} line {linenos[k]}: unknown id {(u if user_idx[k] < 0 else i)!r}")
            failure = (linenos[k], f"{u}\t{i}\t{r}")
        if failure is not None:
            raise DataError(f"{fname} line {failure[0]}: expected user, item and rating separated by tabs, "
                            f"got {failure[1]!r}")
        return _rating_matrix(list(users), list(items), user_idx, item_idx, values,
                              lambda k: f"{fname} line {linenos[k]}", keep_last=False)

    seed, fractions, threshold = _read_manifest(in_dir)
    train, valid, test = (read_matrix(fname) if name in parts else None for name, fname in _SPLIT_FILES.items())
    return SplitDataset(train, valid, test, seed, fractions, threshold)
