"""Rating-matrix ingestion: loading, filtering, per-user splitting,
binarization and genre tables."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError


def _id_sort_key(ext_id: str):
    # numeric ids sort numerically, anything else lexicographically after
    if ext_id.isdigit():
        return (0, int(ext_id), "")
    return (1, 0, ext_id)


@dataclass
class RatingMatrix:
    """Sparse per-user rows of explicit ratings.

    ``rows[i]`` is a pair of aligned arrays (item indices, ratings), item
    indices strictly increasing within a row, all ratings > 0. Index maps
    translate dense internal indices back to external ids.
    """

    user_ids: list[str]
    item_ids: list[str]
    rows: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if self.n_users == 0 or self.n_items == 0:
            raise DataError("rating matrix must contain at least one user and one item")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_entries(self) -> int:
        return sum(len(idx) for idx, _ in self.rows)

    def dense(self, users: np.ndarray | None = None) -> np.ndarray:
        users = np.arange(self.n_users) if users is None else users
        out = np.zeros((len(users), self.n_items))
        for r, u in enumerate(users):
            idx, vals = self.rows[u]
            out[r, idx] = vals
        return out


@dataclass
class BinaryMatrix:
    """Implicit form of a RatingMatrix: the retained sparsity pattern."""

    n_items: int
    rows: list[np.ndarray]

    @property
    def n_users(self) -> int:
        return len(self.rows)

    def dense(self, users: np.ndarray | None = None) -> np.ndarray:
        users = np.arange(self.n_users) if users is None else users
        out = np.zeros((len(users), self.n_items))
        for r, u in enumerate(users):
            out[r, self.rows[u]] = 1.0
        return out


@dataclass
class Cells:
    """The nonzero cells of a (rows, columns) matrix as aligned lists of
    row, column and value. No cell repeats."""

    rows: np.ndarray  # (cells,) ints
    cols: np.ndarray  # (cells,) ints
    values: np.ndarray  # (cells,) floats
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, a) -> "Cells":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls(rows, cols, a[rows, cols], a.shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


def as_cells(x) -> Cells:
    """Cells as given, or the nonzero cells of a dense matrix."""
    return x if isinstance(x, Cells) else Cells.from_dense(x)


@dataclass
class ItemBatch:
    """A batch of users restricted to U, the sorted union of their rated
    items: row b is the batch's b-th user, column c is item ``items[c]``, and
    every item outside U is zero in every row. Cells are ordered by row, then
    column."""

    items: np.ndarray  # U, (|U|,) increasing item indices
    ratings: Cells  # (B, |U|)
    binary: Cells  # (B, |U|) with values 1, the intent input


def item_batch(ratings: RatingMatrix, binary: BinaryMatrix, users) -> ItemBatch:
    """Rating and binary cells of ``users`` over their item union; ``binary``
    is a binarization of ``ratings``, so its rows fall inside U."""
    row_ids = np.arange(len(users))
    idx = [ratings.rows[u][0] for u in users]
    rated = np.concatenate(idx)
    in_union = np.zeros(ratings.n_items, dtype=bool)
    in_union[rated] = True
    items = np.flatnonzero(in_union)
    column = np.empty(ratings.n_items, dtype=np.intp)  # item -> its column in U
    column[items] = np.arange(items.size)
    shape = (len(users), items.size)
    rows = np.repeat(row_ids, [len(i) for i in idx])
    r = Cells(rows, column[rated], np.concatenate([ratings.rows[u][1] for u in users]), shape)
    bin_idx = [binary.rows[u] for u in users]
    bin_rows = np.repeat(row_ids, [len(i) for i in bin_idx])
    x = Cells(bin_rows, column[np.concatenate(bin_idx)], np.ones(bin_rows.size), shape)
    return ItemBatch(items, r, x)


def load_ratings(path: str, delimiter: str | None = None, skip_header: bool = False) -> RatingMatrix:
    """Parse a delimiter-separated user,item,rating[,timestamp] file.

    Duplicate (user, item) pairs keep the last occurrence. External ids map
    to dense indices in sorted order (numeric ids numerically).
    """
    if not os.path.exists(path):
        raise DataError(f"ratings file not found: {path}")
    entries: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    start = 1 if skip_header else 0
    parsed_any = False
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
        user, item, rating_s = fields[0].strip(), fields[1].strip(), fields[2].strip()
        try:
            rating = float(rating_s)
        except ValueError:
            raise DataError(f"line {lineno}: rating {rating_s!r} is not a number") from None
        if not np.isfinite(rating) or rating <= 0:
            raise DataError(f"line {lineno}: ratings must be positive finite numbers, got {rating}")
        entries[(user, item)] = rating
        parsed_any = True
    if not parsed_any:
        raise DataError(f"no ratings parsed from {path}")

    users = sorted({u for u, _ in entries}, key=_id_sort_key)
    items = sorted({i for _, i in entries}, key=_id_sort_key)
    umap = {u: k for k, u in enumerate(users)}
    imap = {i: k for k, i in enumerate(items)}
    per_user: list[list[tuple[int, float]]] = [[] for _ in users]
    for (u, i), r in entries.items():
        per_user[umap[u]].append((imap[i], r))
    rows = []
    for lst in per_user:
        lst.sort()
        idx = np.array([i for i, _ in lst], dtype=np.intp)
        vals = np.array([r for _, r in lst])
        rows.append((idx, vals))
    return RatingMatrix(users, items, rows)


def matrix_from_triples(triples) -> RatingMatrix:
    """Build a RatingMatrix from (user, item, rating) triples in memory;
    same semantics as load_ratings (last duplicate wins, sorted id maps)."""
    entries: dict[tuple[str, str], float] = {}
    for u, i, r in triples:
        r = float(r)
        if not np.isfinite(r) or r <= 0:
            raise DataError(f"ratings must be positive finite numbers, got {r} for ({u}, {i})")
        entries[(str(u), str(i))] = r
    if not entries:
        raise DataError("no triples provided")
    users = sorted({u for u, _ in entries}, key=_id_sort_key)
    items = sorted({i for _, i in entries}, key=_id_sort_key)
    umap = {u: k for k, u in enumerate(users)}
    imap = {i: k for k, i in enumerate(items)}
    per_user: list[list[tuple[int, float]]] = [[] for _ in users]
    for (u, i), r in entries.items():
        per_user[umap[u]].append((imap[i], r))
    rows = []
    for lst in per_user:
        lst.sort()
        rows.append((np.array([i for i, _ in lst], dtype=np.intp), np.array([r for _, r in lst])))
    return RatingMatrix(users, items, rows)


def filter_min_interactions(m: RatingMatrix, min_count: int) -> RatingMatrix:
    """Drop users with fewer than min_count observed items, then drop items
    left with no interactions; indices are re-densified."""
    if min_count < 1:
        raise ParameterError(f"min_count must be >= 1, got {min_count}")
    keep_users = [u for u in range(m.n_users) if len(m.rows[u][0]) >= min_count]
    if not keep_users:
        raise DataError(f"no users have >= {min_count} interactions; lower the threshold")
    seen_items = np.zeros(m.n_items, dtype=bool)
    for u in keep_users:
        seen_items[m.rows[u][0]] = True
    keep_items = np.flatnonzero(seen_items)
    item_remap = -np.ones(m.n_items, dtype=np.intp)
    item_remap[keep_items] = np.arange(len(keep_items))
    rows = []
    for u in keep_users:
        idx, vals = m.rows[u]
        rows.append((item_remap[idx], vals.copy()))
    return RatingMatrix(
        [m.user_ids[u] for u in keep_users],
        [m.item_ids[i] for i in keep_items],
        rows,
    )


@dataclass
class SplitDataset:
    """Per-user disjoint train/validation/test matrices sharing one index
    space, plus the split provenance."""

    train: RatingMatrix
    valid: RatingMatrix
    test: RatingMatrix
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
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"fractions must sum to 1, got {fractions}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 1717])))
    tr_rows, va_rows, te_rows = [], [], []
    for u in range(m.n_users):
        idx, vals = m.rows[u]
        n = len(idx)
        n_va = int(np.floor(fractions[1] * n))
        n_te = int(np.floor(fractions[2] * n))
        n_tr = n - n_va - n_te
        if n_tr < 1:
            raise DataError(f"user {m.user_ids[u]!r} has too few items ({n}) for a nonempty training split")
        perm = rng.permutation(n)
        parts = {"tr": np.sort(perm[:n_tr]), "va": np.sort(perm[n_tr:n_tr + n_va]), "te": np.sort(perm[n_tr + n_va:])}
        tr_rows.append((idx[parts["tr"]].copy(), vals[parts["tr"]].copy()))
        va_rows.append((idx[parts["va"]].copy(), vals[parts["va"]].copy()))
        te_rows.append((idx[parts["te"]].copy(), vals[parts["te"]].copy()))
    mk = lambda rows: RatingMatrix(list(m.user_ids), list(m.item_ids), rows)
    return SplitDataset(mk(tr_rows), mk(va_rows), mk(te_rows), int(seed), tuple(fractions), rating_threshold)


def binarize(m: RatingMatrix, min_rating: float | None = None) -> BinaryMatrix:
    """Implicit view of the ratings. With min_rating set, only entries at or
    above the threshold count as observed (positives-only intent input)."""
    rows = []
    for idx, vals in m.rows:
        if min_rating is None:
            rows.append(idx.copy())
        else:
            rows.append(idx[vals >= min_rating].copy())
    return BinaryMatrix(m.n_items, rows)


@dataclass
class GenreTable:
    """External item id -> nonempty set of genre labels."""

    genres: dict[str, frozenset[str]]

    @classmethod
    def load(cls, path: str) -> "GenreTable":
        if not os.path.exists(path):
            raise DataError(f"genre file not found: {path}")
        table: dict[str, frozenset[str]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
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

    def for_matrix(self, m: RatingMatrix) -> list[frozenset[str]]:
        """Genre sets aligned to the matrix's internal item indices; items
        missing from the table get empty sets."""
        return [self.genres.get(ext, frozenset()) for ext in m.item_ids]


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
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for u in range(mtx.n_users):
                idx, vals = mtx.rows[u]
                for i, r in zip(idx, vals):
                    fh.write(f"{mtx.user_ids[u]}\t{mtx.item_ids[i]}\t{float(r)!r}\n")
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


def load_split(in_dir: str) -> SplitDataset:
    """Reload a directory written by save_split, preserving the shared index
    space (users/items present only in valid/test stay addressable)."""
    for fname in ["users.txt", "items.txt", "manifest.txt", *(_SPLIT_FILES.values())]:
        if not os.path.exists(os.path.join(in_dir, fname)):
            raise DataError(f"prepared dataset is missing {fname} in {in_dir}")
    with open(os.path.join(in_dir, "users.txt"), encoding="utf-8") as fh:
        users = [ln.rstrip("\n") for ln in fh if ln.strip()]
    with open(os.path.join(in_dir, "items.txt"), encoding="utf-8") as fh:
        items = [ln.rstrip("\n") for ln in fh if ln.strip()]
    umap = {u: k for k, u in enumerate(users)}
    imap = {i: k for k, i in enumerate(items)}

    def read_matrix(fname: str) -> RatingMatrix:
        per_user: list[list[tuple[int, float]]] = [[] for _ in users]
        path = os.path.join(in_dir, fname)
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    u, i, r = line.split("\t")
                    per_user[umap[u]].append((imap[i], float(r)))
                except (ValueError, KeyError) as exc:
                    raise DataError(f"{fname} line {lineno}: {exc}") from None
        rows = []
        for lst in per_user:
            lst.sort()
            rows.append((np.array([i for i, _ in lst], dtype=np.intp), np.array([r for _, r in lst])))
        return RatingMatrix(list(users), list(items), rows)

    seed, fractions, threshold = 0, (0.6, 0.1, 0.3), 4.0
    with open(os.path.join(in_dir, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("seed:"):
                seed = int(line.split(":", 1)[1])
            elif line.startswith("fractions:"):
                fractions = tuple(float(x) for x in line.split(":", 1)[1].strip().split("/"))
            elif line.startswith("rating_threshold:"):
                threshold = float(line.split(":", 1)[1])
    return SplitDataset(read_matrix("train.tsv"), read_matrix("valid.tsv"), read_matrix("test.tsv"),
                        seed, fractions, threshold)
