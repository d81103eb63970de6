"""Rating-matrix ingestion: loading, filtering, per-user splitting,
binarization and genre tables."""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .checks import is_finite, is_int
from .errors import DataError, ParameterError


def _id_sort_key(ext_id: str):
    # numeric ids sort numerically, anything else lexicographically after
    if ext_id.isdecimal():
        return (0, int(ext_id), "")
    return (1, 0, ext_id)


def _read_lines(path: str, name: str | None = None) -> list[str]:
    """The lines of a UTF-8 text file, with newlines read as text mode reads
    them. A file that cannot be read, or bytes that are not UTF-8, raise
    DataError naming the file (``name``, by default its path)."""
    name = name or path
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc.strerror}") from None
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = io.StringIO(blob[: exc.start].decode("utf-8"), newline=None).read().count("\n") + 1
        raise DataError(f"{name} line {line}: not UTF-8 text") from None
    return io.StringIO(text, newline=None).readlines()


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
    last = np.append(pairs[order][1:] != pairs[order][:-1], True)
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


def _matrix_from_names(users: list[str], items: list[str], values: list[float], where) -> RatingMatrix:
    """_rating_matrix over external ids, mapped to dense indices in sorted
    order (numeric ids numerically); the last of repeated pairs wins. An id
    _bad_id rejects raises DataError naming the first entry that holds one."""
    maps, bad = [], set()
    for names in (users, items):
        ids = sorted(set(names), key=_id_sort_key)
        bad.update(x for x in ids if _bad_id(x))
        index = {x: k for k, x in enumerate(ids)}
        maps.append((ids, [index[x] for x in names]))
    if bad:
        k = next(k for k, (u, i) in enumerate(zip(users, items)) if u in bad or i in bad)
        raise DataError(f"{where(k)}: {_bad_id(users[k]) or _bad_id(items[k])}")
    (user_ids, user_idx), (item_ids, item_idx) = maps
    return _rating_matrix(user_ids, item_ids, user_idx, item_idx, values, where, keep_last=True)


def load_ratings(path: str, delimiter: str | None = None, skip_header: bool = False) -> RatingMatrix:
    """Parse a delimiter-separated user,item,rating[,timestamp] file.

    Duplicate (user, item) pairs keep the last occurrence. External ids map
    to dense indices in sorted order (numeric ids numerically).
    """
    if delimiter == "":
        raise ParameterError("the delimiter must not be empty")
    lines = _read_lines(path)
    users, items, values, linenos = [], [], [], []
    start = 1 if skip_header else 0
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        sep = delimiter
        if sep is None:
            sep = "\t" if "\t" in line else ("," if "," in line else None)
        fields = line.split(sep) if sep is not None else line.split()
        if len(fields) < 3:
            raise DataError(f"line {lineno}: expected user,item,rating[,timestamp], got {line!r}")
        rating_s = fields[2].strip()
        try:
            values.append(float(rating_s))
        except ValueError:
            raise DataError(f"line {lineno}: rating {rating_s!r} is not a number") from None
        users.append(fields[0].strip())
        items.append(fields[1].strip())
        linenos.append(lineno)
    if not values:
        raise DataError(f"no ratings parsed from {path}")
    return _matrix_from_names(users, items, values, lambda k: f"line {linenos[k]}")


def matrix_from_triples(triples) -> RatingMatrix:
    """Build a RatingMatrix from (user, item, rating) triples in memory;
    same semantics as load_ratings (last duplicate wins, sorted id maps)."""
    triples = [(str(u), str(i), float(r)) for u, i, r in triples]
    if not triples:
        raise DataError("no triples provided")
    users, items, values = (list(column) for column in zip(*triples))
    return _matrix_from_names(users, items, values, lambda k: f"triple ({users[k]!r}, {items[k]!r})")


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
    for name, fname in _SPLIT_FILES.items():
        mtx: RatingMatrix = getattr(ds, name)
        c = mtx.ratings
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.writelines(f"{mtx.user_ids[u]}\t{mtx.item_ids[i]}\t{r!r}\n"
                          for u, i, r in zip(c.rows.tolist(), c.cols.tolist(), c.values.tolist()))
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
    """The ids of an id map file, one per nonblank line, and their indices."""
    ids: list[str] = []
    index: dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(os.path.join(in_dir, fname), fname), start=1):
        if not raw.strip():
            continue
        ext_id = raw.rstrip("\n")
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
        user_idx, item_idx, values, linenos = [], [], [], []
        for lineno, raw in enumerate(_read_lines(os.path.join(in_dir, fname), fname), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                u, i, r = line.split("\t")
                rating = float(r)
            except ValueError:
                raise DataError(f"{fname} line {lineno}: expected user, item and rating separated by tabs, "
                                f"got {line!r}") from None
            try:
                user_idx.append(umap[u])
                item_idx.append(imap[i])
            except KeyError as exc:
                raise DataError(f"{fname} line {lineno}: unknown id {exc}") from None
            values.append(rating)
            linenos.append(lineno)
        return _rating_matrix(list(users), list(items), user_idx, item_idx, values,
                              lambda k: f"{fname} line {linenos[k]}", keep_last=False)

    seed, fractions, threshold = _read_manifest(in_dir)
    train, valid, test = (read_matrix(fname) if name in parts else None for name, fname in _SPLIT_FILES.items())
    return SplitDataset(train, valid, test, seed, fractions, threshold)
